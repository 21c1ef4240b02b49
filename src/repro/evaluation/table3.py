"""Table III: gadget statistics for the clbg benchmarks across ROPk settings."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import compile_program
from repro.core import RopConfig, rop_obfuscate
from repro.obfuscation.configs import ROPK_SWEEP
from repro.evaluation.parallel import register_unit_executor
from repro.workloads.clbg import CLBG_BENCHMARKS, build_clbg_program


@dataclass
class Table3Row:
    """Gadget statistics of one benchmark under one ROPk setting.

    Mirrors the paper's columns: ``N`` program points, ``A`` total gadgets,
    ``B`` unique gadgets, ``C`` average gadgets per program point.
    """

    benchmark: str
    k: float
    program_points: int
    total_gadgets: int
    unique_gadgets: int

    @property
    def gadgets_per_point(self) -> float:
        if not self.program_points:
            return 0.0
        return self.total_gadgets / self.program_points

    def as_cells(self) -> Sequence[object]:
        return (self.benchmark, f"{self.k:.2f}", self.program_points, self.total_gadgets,
                self.unique_gadgets, f"{self.gadgets_per_point:.2f}")

    def as_row(self) -> dict:
        """The JSON row of the grid artifact (fields plus ``C``)."""
        return {**dataclasses.asdict(self),
                "gadgets_per_point": self.gadgets_per_point}


@dataclass(frozen=True)
class Table3Unit:
    """One Table III cell: gadget statistics of one benchmark at one ``k``."""

    benchmark: str
    k: float
    seed: int

    def identity(self) -> dict:
        return {"part": "table3", "benchmark": self.benchmark, "k": self.k}


def table3_units(benchmarks: Optional[Sequence[str]],
                 k_values: Optional[Sequence[float]],
                 seed: int) -> List[Table3Unit]:
    """Decompose a Table III sweep (benchmark-outer, k-inner)."""
    benchmarks = list(benchmarks or sorted(CLBG_BENCHMARKS))
    k_values = list(k_values if k_values is not None else ROPK_SWEEP)
    return [Table3Unit(benchmark=name, k=k, seed=seed)
            for name in benchmarks for k in k_values]


#: benchmark -> (compiled image, targets), shared by its cells.
_IMAGES: Dict[str, Tuple] = {}


def execute_table3(unit: Table3Unit) -> Table3Row:
    """Rewrite one benchmark at one ``k`` and collect the A/B/C statistics."""
    cached = _IMAGES.get(unit.benchmark)
    if cached is None:
        program, _, _, targets = build_clbg_program(unit.benchmark)
        cached = (compile_program(program), targets)
        _IMAGES[unit.benchmark] = cached
    image, targets = cached
    _, report = rop_obfuscate(image, targets,
                              RopConfig.ropk(unit.k, seed=unit.seed))
    totals = report.totals()
    return Table3Row(benchmark=unit.benchmark, k=unit.k,
                     program_points=int(totals["program_points"]),
                     total_gadgets=int(totals["total_gadgets"]),
                     unique_gadgets=int(totals["unique_gadgets"]))


register_unit_executor(Table3Unit, lambda unit: execute_table3(unit).as_row())


def run_table3(benchmarks: Optional[Sequence[str]] = None,
               k_values: Optional[Sequence[float]] = None,
               seed: int = 1) -> List[Table3Row]:
    """Rewrite each benchmark at every k and collect the A/B/C statistics."""
    return [execute_table3(unit)
            for unit in table3_units(benchmarks, k_values, seed)]


