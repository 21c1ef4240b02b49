"""Table II: secret finding and code coverage across obfuscation configurations."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.attacks import (AttackBudget, AttackOutcome, coverage_attack,
                           secret_finding_attack)
from repro.attacks.dse import InputSpec
from repro.obfuscation.configs import (
    ObfuscationConfig,
    TABLE2_CONFIGURATIONS,
    apply_configuration,
)
from repro.evaluation.parallel import register_unit_executor
from repro.workloads.randomfuns import RandomFunSpec, generate_random_function, generate_table2_suite


@dataclass
class Table2Row:
    """One row of Table II.

    Attributes:
        configuration: configuration name (``NATIVE``, ``ROP0.25``, ``2VM``...).
        secrets_found: functions whose secret was recovered within the budget.
        functions: functions attempted.
        average_time: mean time-to-success over the successful attempts.
        full_coverage: functions whose reachable probes were all covered.
        executions: total concrete executions spent across the attacks.
        instructions: total emulated instructions across the attacks.
        branch_restores: executions the backtracking DSE resumed from
            mid-path snapshots instead of the function entry.
    """

    configuration: str
    secrets_found: int
    functions: int
    average_time: float
    full_coverage: int
    executions: int = 0
    instructions: int = 0
    branch_restores: int = 0

    def as_cells(self) -> Sequence[object]:
        return (self.configuration, f"{self.secrets_found}/{self.functions}",
                f"{self.average_time:.2f}s", f"{self.full_coverage}/{self.functions}")


@dataclass(frozen=True)
class Table2Unit:
    """One Table II cell: attack one generated function under one config."""

    configuration: ObfuscationConfig
    spec: RandomFunSpec
    budget: AttackBudget
    include_coverage: bool
    seed: int

    def identity(self) -> dict:
        return {"part": "table2", "configuration": self.configuration.name,
                "structure": self.spec.structure,
                "input_size": self.spec.input_size,
                "spec_seed": self.spec.seed}


def table2_units(configurations, specs, budget: AttackBudget,
                 include_coverage: bool, seed: int) -> List[Table2Unit]:
    """Decompose a Table II grid (configuration-outer, spec-inner)."""
    return [Table2Unit(configuration=configuration, spec=spec, budget=budget,
                       include_coverage=include_coverage, seed=seed)
            for configuration in configurations for spec in specs]


#: spec -> reachable probe set.  The set is a property of the *native*
#: function, so it is sampled once per spec, not once per cell.
_REACHABLE: Dict[RandomFunSpec, set] = {}


def _attack_variant(unit: Table2Unit, counters: Dict[str, int],
                    point_test: bool) -> AttackOutcome:
    """Attack the secret (``point_test``) or coverage variant of the cell's
    function under its configuration; add its work to ``counters``."""
    spec = replace(unit.spec, point_test=point_test)
    program, _, probe_count = generate_random_function(spec)
    image = apply_configuration(program, [spec.name], unit.configuration,
                                seed=unit.seed)
    input_spec = InputSpec(argument_sizes=[spec.input_size])
    if point_test:
        outcome = secret_finding_attack(image, spec.name, input_spec,
                                        unit.budget, seed=unit.seed)
    else:
        if spec not in _REACHABLE:
            _REACHABLE[spec] = _reachable_probes(program, spec, probe_count)
        outcome = coverage_attack(image, spec.name, _REACHABLE[spec],
                                  input_spec, unit.budget, seed=unit.seed)
    for counter in counters:
        counters[counter] += getattr(outcome.stats, counter)
    return outcome


def execute_table2(unit: Table2Unit) -> dict:
    """Attack one cell: secret finding, then (optionally) coverage.

    Returns the cell's counters; :func:`merge_table2` folds cells into rows.
    """
    counters = dict.fromkeys(("executions", "instructions",
                              "branch_restores"), 0)
    secret = _attack_variant(unit, counters, point_test=True)
    coverage_full = unit.include_coverage and _attack_variant(
        unit, counters, point_test=False).success
    return {"configuration": unit.configuration.name,
            "secret_found": secret.success,
            "time_to_success": secret.time_to_success,
            "coverage_full": coverage_full, **counters}


register_unit_executor(Table2Unit, execute_table2)


def merge_table2(units: Sequence[Table2Unit],
                 cells: Sequence[dict]) -> List[dict]:
    """Fold per-cell results into Table II rows, one per configuration.

    ``units`` must be in the configuration-outer/spec-inner order
    :func:`table2_units` produces; accumulating cells in that order makes
    ``average_time`` average time-to-success over successful cells in spec
    order, whatever order the cells were executed in.

    Quarantined cells (``{"status": "failed", ...}``) are excluded from the
    aggregation entirely — they were never measured, so they count toward
    neither ``functions`` nor any attack counter; the grid driver appends
    them to the artifact as their own rows.
    """
    rows: List[dict] = []
    by_config: Dict[str, dict] = {}
    spec_counts: Dict[str, int] = {}
    for unit, cell in zip(units, cells):
        if cell.get("status") == "failed":
            continue
        name = unit.configuration.name
        spec_counts[name] = spec_counts.get(name, 0) + 1
        row = by_config.get(name)
        if row is None:
            row = {"configuration": name, "secrets_found": 0, "functions": 0,
                   "average_time": 0.0, "full_coverage": 0, "executions": 0,
                   "instructions": 0, "branch_restores": 0, "_times": []}
            by_config[name] = row
            rows.append(row)
        if cell["secret_found"]:
            row["secrets_found"] += 1
            row["_times"].append(cell["time_to_success"])
        if cell["coverage_full"]:
            row["full_coverage"] += 1
        row["executions"] += cell["executions"]
        row["instructions"] += cell["instructions"]
        row["branch_restores"] += cell["branch_restores"]
    for row in rows:
        times = row.pop("_times")
        row["functions"] = spec_counts[row["configuration"]]
        row["average_time"] = sum(times) / len(times) if times else 0.0
    return rows


def run_table2(configurations: Optional[Sequence[ObfuscationConfig]] = None,
               specs: Optional[Sequence[RandomFunSpec]] = None,
               budget: Optional[AttackBudget] = None,
               include_coverage: bool = True, seed: int = 1) -> List[Table2Row]:
    """Run the Table II grid.

    The defaults use a scaled-down grid (see the ``REPRO_FULL_SCALE`` row
    of ``benchmarks/README.md``); pass the full ``generate_table2_suite()``
    and larger budgets to reproduce the paper's setup at full size.
    """
    units = table2_units(list(configurations or TABLE2_CONFIGURATIONS),
                         list(specs or generate_table2_suite()),
                         budget or AttackBudget(), include_coverage, seed)
    return [Table2Row(**row)
            for row in merge_table2(units, [execute_table2(unit)
                                            for unit in units])]


def _reachable_probes(program, spec: RandomFunSpec, probe_count: int) -> set:
    """Determine the probes actually reachable by sampling the native function.

    Coverage is "all or nothing" against the *reachable* probe set, like the
    paper's use of Tigress's split/join annotations on the native CFG.
    """
    from repro.attacks.engine import preloaded_fork
    from repro.compiler import compile_program
    from repro.cpu import call_function

    image = compile_program(program)
    reachable = set()
    mask = (1 << (8 * spec.input_size)) - 1
    samples = list(range(0, min(mask + 1, 64))) + [mask, mask // 2, mask // 3]
    for sample in samples:
        _, emulator = call_function(preloaded_fork(image), spec.name, [sample & mask],
                                    max_steps=5_000_000)
        reachable.update(emulator.host.probes)
    return reachable
