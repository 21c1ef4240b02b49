"""Smoke runs of the example scripts.

``examples/coverage_attack.py`` prints every field of the attack outcome it
reports (coverage, executions, instructions, paths), so running it checks
that the example still reads the outcome the way the attack layer builds
it.  The slower examples are left to manual runs.
"""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_coverage_attack_example_prints_its_outcomes(capsys):
    runpy.run_path(str(EXAMPLES / "coverage_attack.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("reachable coverage points: "
                        "[1, 2, 10, 20, 21, 22, 30, 99]")
    # the native dispatcher is fully covered well inside the budget
    assert lines[1].split(":", 1)[1] == (
        " FULL coverage 8/8 after 5 executions (205 instructions, 5 paths)")
    assert len(lines) == 4
    assert all(" executions (" in line and line.endswith(" paths)")
               for line in lines[1:])
