"""Figure 5: run-time overhead of ROPk on the clbg suite vs 2VM-IMPlast."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attacks.engine import preloaded_fork
from repro.compiler import compile_program
from repro.cpu import call_function
from repro.obfuscation.configs import (ROPK_SWEEP, ObfuscationConfig,
                                       apply_configuration, nvm, ropk)
from repro.evaluation.parallel import register_unit_executor
from repro.workloads.clbg import CLBG_BENCHMARKS, build_clbg_program

#: Maximum emulated instructions per benchmark run.
_RUN_BUDGET = 30_000_000


@dataclass
class Figure5Bar:
    """One bar of the stacked chart: slowdown of ROPk vs the VM baseline.

    Slowdowns are measured in executed instructions (the emulator's unit of
    work), which is the deterministic analog of the paper's wall-clock ratios.
    """

    benchmark: str
    k: float
    native_instructions: int
    rop_instructions: int
    baseline_instructions: int

    @property
    def slowdown_vs_native(self) -> float:
        return self.rop_instructions / max(1, self.native_instructions)

    @property
    def slowdown_vs_baseline(self) -> float:
        """The Figure 5 metric: ROPk relative to 2VM-IMPlast."""
        return self.rop_instructions / max(1, self.baseline_instructions)

    def as_row(self) -> dict:
        """The JSON row of the grid artifact (fields plus both slowdowns)."""
        return {**dataclasses.asdict(self),
                "slowdown_vs_native": self.slowdown_vs_native,
                "slowdown_vs_baseline": self.slowdown_vs_baseline}


@dataclass(frozen=True)
class Figure5Unit:
    """One Figure 5 bar: benchmark ``benchmark`` at ROP fraction ``k``."""

    benchmark: str
    k: float
    baseline: ObfuscationConfig
    seed: int

    def identity(self) -> dict:
        return {"part": "figure5", "benchmark": self.benchmark, "k": self.k}


def figure5_units(benchmarks: Optional[Sequence[str]],
                  k_values: Optional[Sequence[float]],
                  baseline, seed: int) -> List[Figure5Unit]:
    """Decompose a Figure 5 sweep (benchmark-outer, k-inner)."""
    benchmarks = list(benchmarks or sorted(CLBG_BENCHMARKS))
    k_values = list(k_values if k_values is not None
                    else [k for k in ROPK_SWEEP if k > 0])
    baseline = baseline or nvm(2, "last")
    return [Figure5Unit(benchmark=name, k=k, baseline=baseline, seed=seed)
            for name in benchmarks for k in k_values]


def _run(image, entry: str, argument: int) -> int:
    """Measure one execution against a COW fork of the preloaded ``image``.

    The first measurement of an image pays a load through the attack
    engines' shared :func:`repro.attacks.engine.preloaded_fork` cache; every
    later one forks the cached pristine memory in O(regions).  Forks are
    never mutated back into the preload, so the cache stays pristine.
    """
    from repro.cpu.state import EmulationError

    fork = preloaded_fork(image)
    try:
        _, emulator = call_function(fork, entry, [argument],
                                    max_steps=_RUN_BUDGET)
        return emulator.steps
    except EmulationError:
        # instruction cap reached: report the cap (a lower bound on the cost)
        return _RUN_BUDGET


#: benchmark-level measurements shared by several bars:
#: (benchmark, baseline, seed) -> (program, entry, argument, targets,
#: native_steps, baseline_steps).  Process-local; the cached values are
#: deterministic, so independent pool workers agree with each other.
_MEASUREMENTS: Dict[Tuple, Tuple] = {}


def _benchmark_measurements(unit: Figure5Unit) -> Tuple:
    key = (unit.benchmark, unit.baseline, unit.seed)
    cached = _MEASUREMENTS.get(key)
    if cached is None:
        program, entry, argument, targets = build_clbg_program(unit.benchmark)
        native_steps = _run(compile_program(program), entry, argument)
        baseline_image = apply_configuration(program, targets, unit.baseline,
                                             seed=unit.seed)
        baseline_steps = _run(baseline_image, entry, argument)
        cached = (program, entry, argument, targets, native_steps,
                  baseline_steps)
        _MEASUREMENTS[key] = cached
    return cached


def execute_figure5(unit: Figure5Unit) -> Figure5Bar:
    """Measure one bar: the ROPk run against the cached native/baseline."""
    program, entry, argument, targets, native_steps, baseline_steps = \
        _benchmark_measurements(unit)
    rop_image = apply_configuration(program, targets, ropk(unit.k),
                                    seed=unit.seed)
    return Figure5Bar(benchmark=unit.benchmark, k=unit.k,
                      native_instructions=native_steps,
                      rop_instructions=_run(rop_image, entry, argument),
                      baseline_instructions=baseline_steps)


register_unit_executor(Figure5Unit,
                       lambda unit: execute_figure5(unit).as_row())


def run_figure5(benchmarks: Optional[Sequence[str]] = None,
                k_values: Optional[Sequence[float]] = None,
                baseline=None, seed: int = 1) -> List[Figure5Bar]:
    """Measure the relative cost of every ROPk setting for each benchmark.

    ``baseline`` defaults to the paper's 2VM-IMPlast configuration; scaled
    benchmark runs may pass a single-layer VM baseline to keep emulation time
    bounded (see benchmarks/conftest.py).
    """
    return [execute_figure5(unit)
            for unit in figure5_units(benchmarks, k_values, baseline, seed)]
