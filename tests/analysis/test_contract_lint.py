"""The cross-tier contract checker: clean on the repo, loud on divergence.

Three layers of confidence:

* the checker exits 0 on the repository as it stands (and runs in-process
  here, so tier-1 CI fails the moment a contract regresses);
* a *planted* divergence — an emitter assigning a flag the registry says
  the instruction leaves untouched — is detected (the checker can actually
  see through the tier styles, it is not vacuously green);
* the PR 5 shift bug class specifically: deleting the masked-count-zero
  guard from one tier resurrects the historical bug, and the checker
  catches it statically.

The fixture tests copy ``src/`` into a tmp tree, mutate one tier, and run
``python -m repro.analysis.lint`` in a subprocess with ``PYTHONPATH``
pointing at the mutated copy — the checker resolves tier sources through
the imported modules, so no flag beyond ``PYTHONPATH`` is needed.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint

REPO = Path(__file__).resolve().parent.parent.parent


def _run_lint_on_copy(tmp_path, mutate):
    """Copy src/, apply ``mutate(copy_root)``, run the lint CLI on it."""
    copy = tmp_path / "src"
    shutil.copytree(REPO / "src", copy)
    mutate(copy)
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", "--root",
         str(tmp_path)],
        env={"PYTHONPATH": str(copy), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True)
    return result


def test_repo_is_clean():
    """The real repository passes — this is the tier-1 gate itself."""
    assert lint.main([]) == 0


#: (module, ``_op_mov`` definition line, a planted OF write) per tier whose
#: ``mov`` the checker reads: the reference handler's attribute store, and
#: the codegen emitter — what every run mode executes — emitting one.
_MOV_PLANTS = {
    "reference": ("reference.py",
                  "def _op_mov(emulator: Emulator, instruction: Instruction)"
                  " -> None:\n",
                  "    emulator.state.of = 0\n"),
    "codegen": ("codegen.py",
                "    def _op_mov(self, index: int, step) -> None:\n",
                "        self.emit(\"of = 0\")\n"),
}


@pytest.mark.parametrize("tier", sorted(_MOV_PLANTS))
def test_planted_flag_divergence_is_detected(tmp_path, tier):
    """A tier touching OF on ``mov`` where the registry says 'untouched'
    fails."""
    module, anchor, line = _MOV_PLANTS[tier]

    def plant(copy):
        path = copy / "repro" / "cpu" / module
        text = path.read_text()
        assert text.count(anchor) == 1
        path.write_text(text.replace(anchor, anchor + line))

    result = _run_lint_on_copy(tmp_path, plant)
    assert result.returncode != 0, result.stdout + result.stderr
    assert "flag-contract" in result.stdout
    assert "mov" in result.stdout.lower()
    assert f"'{tier}'" in result.stdout


def test_missing_zero_count_guard_is_detected(tmp_path):
    """Reintroducing the PR 5 shift bug in one tier fails the checker.

    x86 semantics: a shift whose masked count is zero modifies neither the
    destination nor any flag.  The codegen's shift emitter encodes that, for
    an immediate count, as an early ``return`` that emits no update; delete
    it and the compiled shift silently clobbers flags on zero counts again —
    exactly the historical divergence the dynamic differential tests only
    catch when a trace happens to contain a zero-count shift.  The checker
    must catch it statically.
    """
    def plant(copy):
        path = copy / "repro" / "cpu" / "codegen.py"
        text = path.read_text()
        guard = ("            if amount == 0:\n"
                 "                # masked zero count: neither flags nor the "
                 "destination\n"
                 "                # change, but a memory destination is read "
                 "(and may fault)\n"
                 "                if type(dst) is Mem:\n"
                 "                    self.emit(f\"v = {value}\")\n"
                 "                return\n")
        assert text.count(guard) == 1
        path.write_text(text.replace(guard, ""))

    result = _run_lint_on_copy(tmp_path, plant)
    assert result.returncode != 0, result.stdout + result.stderr
    assert "zero-count-guard" in result.stdout


def test_missing_shadow_zero_count_guard_is_detected(tmp_path):
    """The shadow's coverage is its builder table, so the checker sees its
    shift builder too: without the masked-count-zero early-out a no-op
    shift would clobber the symbolic flag source and destination."""
    def plant(copy):
        path = copy / "repro" / "attacks" / "shadow.py"
        text = path.read_text()
        assert "if count == 0:" in text
        path.write_text(text.replace("if count == 0:", "if count is None:"))

    result = _run_lint_on_copy(tmp_path, plant)
    assert result.returncode != 0, result.stdout + result.stderr
    assert "zero-count-guard" in result.stdout
    assert "'shadow'" in result.stdout


def test_incomplete_tier_registration_is_detected(tmp_path):
    """Dropping a mnemonic from a tier's coverage map fails at import.

    ``register_tier`` requires every mnemonic to map to one function, so a
    dispatch-table entry silently dropped from one tier is an import-time
    error the checker reports rather than swallows.
    """
    def plant(copy):
        path = copy / "repro" / "cpu" / "codegen.py"
        text = path.read_text()
        entry = "    Mnemonic.NEG: \"_op_unary\",\n"
        assert text.count(entry) == 1
        path.write_text(text.replace(entry, ""))

    result = _run_lint_on_copy(tmp_path, plant)
    assert result.returncode != 0, result.stdout + result.stderr
    assert "tier-import" in result.stdout


def test_unannotated_broad_except_is_detected(tmp_path):
    """A fresh ``except Exception:`` without an allow comment is flagged."""
    def plant(copy):
        path = copy / "repro" / "service" / "core.py"
        path.write_text(path.read_text() + (
            "\n\ndef _swallow():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        return None\n"))

    result = _run_lint_on_copy(tmp_path, plant)
    assert result.returncode != 0, result.stdout + result.stderr
    assert "broad-except" in result.stdout


def test_raw_env_read_outside_knobs_is_detected(tmp_path):
    """os.environ reads must go through repro.knobs, repo-wide."""
    def plant(copy):
        path = copy / "repro" / "attacks" / "goals.py"
        path.write_text(path.read_text() + (
            "\n\ndef _sneaky_knob():\n"
            "    import os\n"
            "    return os.environ.get(\"REPRO_SNEAKY\", \"0\")\n"))

    result = _run_lint_on_copy(tmp_path, plant)
    assert result.returncode != 0, result.stdout + result.stderr
    assert "env-read" in result.stdout


def test_wallclock_in_row_producing_path_is_detected(tmp_path):
    """Unannotated wall-clock in the determinism-scoped modules fails."""
    def plant(copy):
        path = copy / "repro" / "evaluation" / "parallel.py"
        path.write_text(path.read_text() + (
            "\n\ndef _timestamped_row():\n"
            "    import time\n"
            "    return {\"when\": time.time()}\n"))

    result = _run_lint_on_copy(tmp_path, plant)
    assert result.returncode != 0, result.stdout + result.stderr
    assert "wallclock" in result.stdout


def test_gc_tuning_is_detected(tmp_path):
    """Unannotated collector tuning anywhere in src/repro fails."""
    def plant(copy):
        path = copy / "repro" / "attacks" / "dse.py"
        path.write_text(path.read_text() + (
            "\n\ndef _quiet_collector():\n"
            "    import gc\n"
            "    gc.freeze()\n"))

    result = _run_lint_on_copy(tmp_path, plant)
    assert result.returncode != 0, result.stdout + result.stderr
    assert "gc-tuning" in result.stdout


def test_annotated_gc_tuning_is_allowed(tmp_path):
    """The allow-gc annotation exempts a call; gc.collect is never flagged."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "warmup.py").write_text(
        "import gc\n\n\n"
        "def warm():\n"
        "    gc.collect()\n"
        "    # lint: allow-gc — measured, see the benchmark notes\n"
        "    gc.freeze()\n")
    assert lint.check_hygiene(tmp_path, package) == []
