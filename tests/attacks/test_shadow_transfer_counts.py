"""The shadow's failed guards are pinned per mnemonic.

``shadow_transfer_counts.json`` holds, for the eight golden Table II
requests of ``tests/service/golden_rows.json`` run one-shot, how many times
each mnemonic's guarded transfer fell back to its symbolic transfer (its
concrete guard failed).  A change to how guards are built that makes one
stricter sends more instructions down the slow path and moves a count
here, even where the rows stay the same.  The counts come from wrapping
each :class:`~repro.cpu.codegen.GuardedTransfer`'s symbolic callable in
the test; the production hot path carries no counter.  A change that
moves them on purpose regenerates the file and says so::

    PYTHONPATH=src python tests/attacks/test_shadow_transfer_counts.py --write
"""

import json
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.attacks import shadow
from repro.cpu.codegen import GuardedTransfer
from repro.isa.instructions import Instruction
from repro.service import requests as service_requests
from repro.service.requests import AttackRequest, execute_request

COUNTS = Path(__file__).with_name("shadow_transfer_counts.json")
_GOLDEN = Path(__file__).parents[1] / "service" / "golden_rows.json"


def run_golden_requests(wrap: Callable[[Instruction, Optional[Callable]],
                                       Optional[Callable]]) -> Dict[str, dict]:
    """Run the golden requests one-shot with every shadow transfer replaced
    by ``wrap(instruction, transfer)``; return the rows by id."""
    cases = json.loads(_GOLDEN.read_text())
    original = shadow.specialize
    wrapped: Dict[Instruction, Optional[Callable]] = {}

    def specialize(instruction: Instruction) -> Optional[Callable]:
        if instruction not in wrapped:
            wrapped[instruction] = wrap(instruction, original(instruction))
        return wrapped[instruction]

    # fresh worker caches: every engine is built around the wrapped hooks
    service_requests._IMAGES.clear()
    service_requests._ENGINES.clear()
    shadow.specialize = specialize
    try:
        rows = {case["request"]["id"]: execute_request(AttackRequest(**case["request"]))
                for case in cases}
    finally:
        shadow.specialize = original
        service_requests._IMAGES.clear()
        service_requests._ENGINES.clear()
    assert rows == {case["row"]["id"]: case["row"] for case in cases}
    return rows


def symbolic_transfer_counts() -> Dict[str, int]:
    """Mnemonic name -> calls of its guarded transfers' symbolic callables
    over the golden requests."""
    counts: Counter = Counter()

    def wrap(instruction, transfer):
        if type(transfer) is not GuardedTransfer:
            return transfer
        name, symbolic = instruction.mnemonic.name, transfer.transfer

        def counted(owner, emulator, address):
            counts[name] += 1
            symbolic(owner, emulator, address)

        fast = transfer.fast
        return GuardedTransfer(fast.guard, fast.kill, dict(fast.constants), counted)

    run_golden_requests(wrap)
    return dict(sorted(counts.items()))


def test_failed_guards_per_mnemonic_are_pinned():
    assert symbolic_transfer_counts() == json.loads(COUNTS.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    COUNTS.write_text(json.dumps(symbolic_transfer_counts(), indent=1) + "\n")
