"""Static cross-tier contract checker and determinism-hygiene lint.

``python -m repro.analysis.lint`` verifies, without executing any guest
code, that the independently implemented emulator tiers still agree with
the declarative per-mnemonic contracts in :mod:`repro.cpu.semantics`, and
that the concurrency-sensitive layers keep their determinism discipline.

Contract checks (driven by the tier registrations each tier module makes
at import time):

* **Coverage** — every dispatch-table mnemonic is either covered by a tier
  or on that tier's explicit decline list, and every tier the checker
  expects has registered at all.  (The partition itself is validated by
  ``register_tier`` at import; the checker surfaces violations as findings
  instead of an import-time stack trace.)
* **Flag slots** — for each covered mnemonic, the flag slots the tier's
  source actually assigns (``state.cf = …`` attribute stores, or ``cf = …``
  assignments inside the codegen tier's emitted source text) are computed
  transitively through same-module helper calls and compared against the
  registry: everything in ``flags_written`` must be assigned, and nothing
  outside ``flags_written | flags_preserved`` may be.  This catches the
  PR 5 bug class — a tier quietly clobbering or skipping a flag — at lint
  time instead of in a hypothesis differential.
* **Zero-count guards** — every tier covering a mnemonic with the
  ``zero_count_noop`` special (the shifts) must contain a ``count == 0``
  early-out reachable from its implementing function(s).

Hygiene checks (AST-based, over ``src/repro``):

* **env-read** — ``os.environ`` *reads* anywhere outside
  :mod:`repro.knobs` (writes are allowed; ``src/repro`` has none).
* **wallclock** — wall-clock and module-level RNG calls in the
  byte-identity-gated layers (``evaluation/parallel``, ``service/``),
  unless annotated ``# lint: allow-wallclock — reason``.
  Seeded ``random.Random(...)`` construction is always allowed.
* **mutable-global** — ``global`` statements (module-level mutable state
  touched from worker code paths) in the same layers, unless annotated
  ``# lint: allow-global — reason``.
* **broad-except** — ``except Exception:``/bare ``except:`` anywhere in
  ``src/repro``, unless annotated ``# lint: allow-broad-except — reason``
  on or directly above the handler.  Deliberate blast-containment
  catch-alls carry the annotation; everything else must narrow.
* **gc-tuning** — ``gc.disable``/``gc.freeze``/``gc.set_threshold``/
  ``gc.unfreeze`` calls anywhere in ``src/repro``, unless annotated
  ``# lint: allow-gc — reason``.  Memory is released by structure (no
  reference cycles in per-execution state), not by collector tuning that
  would hide a retained-state regression.

Exit status: 0 when clean, 1 when any finding is reported.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

#: Tier names the checker requires to have registered (a future native
#: tier appends itself here and to the registrations).
EXPECTED_TIERS: Sequence[str] = ("handlers", "codegen", "shadow")

#: Modules whose import triggers the tier registrations.
TIER_MODULES: Sequence[str] = ("repro.cpu.emulator", "repro.cpu.codegen",
                               "repro.attacks.shadow")

#: Layers whose outputs are byte-identity-gated: wall-clock and ambient
#: RNG need an explicit annotation here.
DETERMINISM_SCOPED = ("evaluation/parallel.py", "service/")

#: Mirrors :data:`repro.cpu.semantics.FLAGS`.  Spelled out here so the AST
#: fact collectors work even when the registry itself fails to import (the
#: clean path asserts agreement in :func:`check_tiers`).
_FLAG_NAMES = frozenset({"cf", "of", "zf", "sf"})

#: How many lines above a construct an ``# lint: allow-…`` annotation may
#: sit (multi-line justification comments).
_ALLOW_WINDOW = 4

_WALLCLOCK_TIME_ATTRS = frozenset({"time", "monotonic", "perf_counter",
                                   "time_ns", "monotonic_ns",
                                   "perf_counter_ns"})
_WALLCLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
_GC_TUNING_ATTRS = frozenset({"disable", "freeze", "set_threshold",
                              "unfreeze"})

#: Leading ``name =`` chain matcher for emitted source lines.
_ASSIGN_HEAD = re.compile(r"([A-Za-z_]\w*)\s*=(?!=)\s*")


@dataclass(frozen=True)
class Finding:
    """One reported contract or hygiene violation."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class _FunctionFacts:
    """Statically extracted facts about one function/method."""

    name: str
    line: int
    direct_flags: Set[str] = field(default_factory=set)
    calls: Set[str] = field(default_factory=set)
    zero_guard: bool = False
    # fixpoint results
    flags: Set[str] = field(default_factory=set)
    guarded: bool = False


def _emitted_strings(call: ast.Call) -> Iterator[str]:
    """The constant text of string arguments to an ``emit(...)`` call."""
    for arg in call.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield arg.value
        elif isinstance(arg, ast.JoinedStr):
            parts: List[str] = []
            for value in arg.values:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    parts.append(value.value)
                else:
                    parts.append("\x00")  # formatted hole: never a flag name
            yield "".join(parts)
        elif isinstance(arg, ast.IfExp):
            # emit(f"of = …" if one else "of = 0") — both arms are emitted
            for branch in (arg.body, arg.orelse):
                if isinstance(branch, ast.Constant) and isinstance(branch.value, str):
                    yield branch.value
                elif isinstance(branch, ast.JoinedStr):
                    texts: List[str] = []
                    for value in branch.values:
                        if isinstance(value, ast.Constant) and \
                                isinstance(value.value, str):
                            texts.append(value.value)
                        else:
                            texts.append("\x00")
                    yield "".join(texts)


def _emitted_assigned_names(text: str) -> Set[str]:
    """Names assigned by one emitted source line (handles ``a = b = …``)."""
    names: Set[str] = set()
    remainder = text.lstrip()
    while True:
        match = _ASSIGN_HEAD.match(remainder)
        if match is None:
            return names
        names.add(match.group(1))
        remainder = remainder[match.end():]


def _is_zero_compare(test: ast.expr) -> bool:
    """``<name> == 0`` / ``0 == <name>`` (the masked-count zero test)."""
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return False
    if not isinstance(test.ops[0], ast.Eq):
        return False
    operands = [test.left, test.comparators[0]]
    return any(isinstance(op, ast.Constant) and op.value == 0
               for op in operands)


def _called_name(call: ast.Call) -> Optional[str]:
    """Same-module callee name: ``helper(...)`` or ``self.helper(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and \
            isinstance(func.value, ast.Name) and func.value.id == "self":
        return func.attr
    return None


def _collect_function_facts(function: ast.AST, name: str,
                            emitted: bool) -> _FunctionFacts:
    facts = _FunctionFacts(name=name, line=getattr(function, "lineno", 0))
    for node in ast.walk(function):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                elements = target.elts if isinstance(target, ast.Tuple) \
                    else [target]
                for element in elements:
                    if isinstance(element, ast.Attribute) and \
                            element.attr in _FLAG_NAMES:
                        facts.direct_flags.add(element.attr)
        elif isinstance(node, ast.Call):
            callee = _called_name(node)
            if callee is not None:
                facts.calls.add(callee)
            if emitted and callee in ("emit", "line"):
                for text in _emitted_strings(node):
                    facts.direct_flags |= (_emitted_assigned_names(text)
                                           & _FLAG_NAMES)
        elif isinstance(node, ast.If) and _is_zero_compare(node.test):
            if any(isinstance(child, ast.Return)
                   for statement in node.body
                   for child in ast.walk(statement)):
                facts.zero_guard = True
    return facts


def _module_function_facts(tree: ast.Module,
                           emitted: bool) -> Dict[str, _FunctionFacts]:
    """Facts for every module-level function and class method, after a
    transitive-closure fixpoint over same-module calls."""
    table: Dict[str, _FunctionFacts] = {}

    def register(node: ast.AST, name: str) -> None:
        table[name] = _collect_function_facts(node, name, emitted)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            register(node, node.name)
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    register(member, member.name)

    for facts in table.values():
        facts.flags = set(facts.direct_flags)
        facts.guarded = facts.zero_guard
    changed = True
    while changed:
        changed = False
        for facts in table.values():
            for callee in facts.calls:
                other = table.get(callee)
                if other is None:
                    continue
                if not other.flags <= facts.flags:
                    facts.flags |= other.flags
                    changed = True
                if other.guarded and not facts.guarded:
                    facts.guarded = True
                    changed = True
    return table


def _relative(path: Path, root: Path) -> str:
    try:
        return str(path.relative_to(root))
    except ValueError:
        return str(path)


# -- contract checks ----------------------------------------------------------

def check_tiers(root: Path) -> List[Finding]:
    """Coverage, flag-slot and zero-count-guard checks for every tier.

    Importing :mod:`repro.cpu.semantics` pulls in the whole ``repro.cpu``
    package, whose tier modules call ``register_tier`` at import time — so
    a partition error in any registration surfaces right at the guarded
    import below, and becomes a reported finding rather than a checker
    stack trace.
    """
    try:
        from repro.cpu import semantics
    except Exception as exc:  # lint: allow-broad-except — any import-time
        # failure of the registry or a registering tier (including a
        # register_tier partition ValueError) must become a finding, not a
        # checker crash.
        return [Finding(
            "src/repro/cpu/semantics.py", 1, "tier-import",
            f"semantics registry (or a registering tier) failed to "
            f"import: {exc}")]
    if frozenset(semantics.FLAGS) != _FLAG_NAMES:
        return [Finding(
            "src/repro/cpu/semantics.py", 1, "tier-import",
            f"registry flag slots {sorted(semantics.FLAGS)} diverge from "
            f"the checker's {sorted(_FLAG_NAMES)}")]
    findings: List[Finding] = []
    for module_name in TIER_MODULES:
        try:
            importlib.import_module(module_name)
        except Exception as exc:  # lint: allow-broad-except — a tier whose
            # import fails (including a register_tier partition error) must
            # become a finding, not a checker crash.
            findings.append(Finding(module_name.replace(".", "/") + ".py", 1,
                                    "tier-import",
                                    f"tier module failed to import: {exc}"))
    for tier_name in EXPECTED_TIERS:
        if semantics.tier(tier_name) is None:
            findings.append(Finding("src/repro/cpu/semantics.py", 1,
                                    "tier-missing",
                                    f"expected tier {tier_name!r} never "
                                    f"registered"))
    for registration in semantics.TIERS.values():
        module = sys.modules.get(registration.module)
        if module is None or getattr(module, "__file__", None) is None:
            continue
        # a tier modelling flags outside the architectural slots (the
        # symbolic shadow) still has its coverage and zero-count guards
        # checked; only the flag-slot contract does not apply
        check_flags = registration.flag_style != "none"
        path = Path(module.__file__)
        tree = ast.parse(path.read_text(), filename=str(path))
        table = _module_function_facts(
            tree, emitted=registration.flag_style == "emitted")
        rel = _relative(path, root)
        for mnemonic, functions in sorted(registration.covered.items(),
                                          key=lambda item: item[0].name):
            if not functions:
                continue
            contract = semantics.SEMANTICS[mnemonic]
            allowed = contract.flags_written | contract.flags_preserved
            assigned: Set[str] = set()
            guarded = False
            for function_name in functions:
                facts = table.get(function_name)
                if facts is None:
                    findings.append(Finding(
                        rel, 1, "tier-function",
                        f"tier {registration.name!r} maps "
                        f"{mnemonic.name} to {function_name!r}, which does "
                        f"not exist in {registration.module}"))
                    continue
                assigned |= facts.flags
                guarded = guarded or facts.guarded
            extra = assigned - allowed
            if extra and check_flags:
                findings.append(Finding(
                    rel, table[functions[0]].line if functions[0] in table
                    else 1, "flag-contract",
                    f"tier {registration.name!r} assigns flag(s) "
                    f"{sorted(extra)} for {mnemonic.name}, but the registry "
                    f"declares writes={sorted(contract.flags_written)} "
                    f"preserved={sorted(contract.flags_preserved)}"))
            missing = contract.flags_written - assigned
            if missing and check_flags \
                    and all(f in table for f in functions):
                findings.append(Finding(
                    rel, table[functions[0]].line, "flag-contract",
                    f"tier {registration.name!r} never assigns flag(s) "
                    f"{sorted(missing)} required for {mnemonic.name}"))
            if "zero_count_noop" in contract.specials and functions and \
                    any(f in table for f in functions) and not guarded:
                findings.append(Finding(
                    rel, table[functions[0]].line if functions[0] in table
                    else 1, "zero-count-guard",
                    f"tier {registration.name!r} covers {mnemonic.name} but "
                    f"has no reachable 'count == 0' early-out — a masked "
                    f"zero count must modify neither flags nor destination"))
    return findings


# -- hygiene checks -----------------------------------------------------------

def _has_allowance(lines: Sequence[str], lineno: int, rule: str) -> bool:
    marker = f"lint: allow-{rule}"
    start = max(0, lineno - 1 - _ALLOW_WINDOW)
    return any(marker in line for line in lines[start:lineno])


def _is_os_environ(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _check_env_reads(path: Path, rel: str, tree: ast.Module,
                     lines: Sequence[str]) -> List[Finding]:
    if path.name == "knobs.py":
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        hit: Optional[int] = None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "get" and \
                    _is_os_environ(func.value):
                hit = node.lineno
            elif isinstance(func, ast.Attribute) and func.attr == "getenv" \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "os":
                hit = node.lineno
        elif isinstance(node, ast.Subscript) and _is_os_environ(node.value) \
                and isinstance(node.ctx, ast.Load):
            hit = node.lineno
        if hit is not None and not _has_allowance(lines, hit, "env"):
            findings.append(Finding(
                rel, hit, "env-read",
                "raw os.environ read; route REPRO_* knobs through "
                "repro.knobs (or annotate '# lint: allow-env — reason')"))
    return findings


def _check_wallclock(rel: str, tree: ast.Module,
                     lines: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or \
                not isinstance(func.value, ast.Name):
            continue
        base, attr = func.value.id, func.attr
        message: Optional[str] = None
        if base == "time" and attr in _WALLCLOCK_TIME_ATTRS:
            message = f"wall-clock call time.{attr}() in a byte-identity-" \
                      f"gated path"
        elif base == "datetime" and attr in _WALLCLOCK_DATETIME_ATTRS:
            message = f"wall-clock call datetime.{attr}() in a " \
                      f"byte-identity-gated path"
        elif base == "random" and attr != "Random":
            message = f"ambient (unseeded) RNG call random.{attr}() in a " \
                      f"byte-identity-gated path"
        if message is not None and \
                not _has_allowance(lines, node.lineno, "wallclock"):
            findings.append(Finding(
                rel, node.lineno, "wallclock",
                message + " (annotate '# lint: allow-wallclock — reason' "
                          "if deliberate)"))
    return findings


def _check_gc_tuning(rel: str, tree: ast.Module,
                     lines: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and func.value.id == "gc" \
                and func.attr in _GC_TUNING_ATTRS \
                and not _has_allowance(lines, node.lineno, "gc"):
            findings.append(Finding(
                rel, node.lineno, "gc-tuning",
                f"collector tuning gc.{func.attr}() can hide retained "
                f"cyclic state; free it by structure (annotate "
                f"'# lint: allow-gc — reason' if deliberate)"))
    return findings


def _check_globals(rel: str, tree: ast.Module,
                   lines: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global) and \
                not _has_allowance(lines, node.lineno, "global"):
            findings.append(Finding(
                rel, node.lineno, "mutable-global",
                f"module-level mutable state ({', '.join(node.names)}) "
                f"mutated from a worker-reachable path (annotate "
                f"'# lint: allow-global — reason' if deliberate)"))
    return findings


def _check_broad_except(rel: str, tree: ast.Module,
                        lines: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = node.type is None
        caught = [node.type] if node.type is not None else []
        if isinstance(node.type, ast.Tuple):
            caught = list(node.type.elts)
        for expr in caught:
            if isinstance(expr, ast.Name) and \
                    expr.id in ("Exception", "BaseException"):
                broad = True
        if broad and not _has_allowance(lines, node.lineno, "broad-except"):
            findings.append(Finding(
                rel, node.lineno, "broad-except",
                "broad exception handler can mask EmulationError/"
                "KeyboardInterrupt; narrow it or annotate "
                "'# lint: allow-broad-except — reason'"))
    return findings


def check_hygiene(root: Path, package_dir: Path) -> List[Finding]:
    findings: List[Finding] = []
    for path in sorted(package_dir.rglob("*.py")):
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        lines = source.splitlines()
        rel = _relative(path, root)
        posix = path.as_posix()
        findings.extend(_check_env_reads(path, rel, tree, lines))
        findings.extend(_check_broad_except(rel, tree, lines))
        findings.extend(_check_gc_tuning(rel, tree, lines))
        if any(scoped in posix for scoped in DETERMINISM_SCOPED):
            findings.extend(_check_wallclock(rel, tree, lines))
            findings.extend(_check_globals(rel, tree, lines))
    return findings


# -- entry point --------------------------------------------------------------

def run(root: Optional[Path] = None) -> List[Finding]:
    """All findings for the tree rooted at ``root`` (default: the tree the
    imported ``repro`` package lives in, so fixture copies run via
    ``PYTHONPATH`` need no flags)."""
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    if root is None:
        root = package_dir.parent.parent
    return check_tiers(root) + check_hygiene(root, package_dir)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="cross-tier semantic contract checker and hygiene lint")
    parser.add_argument("--root", type=Path, default=None,
                        help="repository root for finding paths (default: "
                             "inferred from the imported repro package)")
    arguments = parser.parse_args(argv)
    findings = run(arguments.root)
    for finding in findings:
        print(finding.render())
    try:
        from repro.cpu import semantics  # cached: check_tiers imported it
        tiers = ", ".join(sorted(semantics.TIERS))
        mnemonics = len(semantics.SEMANTICS)
    except Exception:  # lint: allow-broad-except — the failed import is
        # already reported as a tier-import finding above.
        tiers, mnemonics = "unavailable", 0
    if findings:
        print(f"repro.analysis.lint: {len(findings)} finding(s) "
              f"across tiers [{tiers}]")
        return 1
    print(f"repro.analysis.lint: OK — {mnemonics} mnemonics, "
          f"tiers [{tiers}] consistent, hygiene clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
