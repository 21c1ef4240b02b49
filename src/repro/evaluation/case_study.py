"""§VII-C3: the base64 case study (DSE resilience and run-time slowdown)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.attacks import AttackBudget, secret_finding_attack
from repro.attacks.dse import InputSpec
from repro.binary import load_image
from repro.cpu import call_function
from repro.obfuscation.configs import ObfuscationConfig, apply_configuration, nvm, ropk, NATIVE
from repro.workloads.base64_ref import base64_check_program


@dataclass
class CaseStudyResult:
    """Result for one configuration of the base64 case study.

    Attributes:
        configuration: configuration name.
        secret_recovered: whether DSE (page memory model) recovered the 6-byte
            input within the budget.
        attack_time: seconds spent by the attack.
        execution_instructions: instructions for one legitimate run (the
            slowdown proxy of the paper's millisecond figures).
    """

    configuration: str
    secret_recovered: bool
    attack_time: float
    execution_instructions: int


#: Default configuration set of the case study.
DEFAULT_CONFIGURATIONS: Sequence[ObfuscationConfig] = (
    NATIVE,
    nvm(2, "last"),
    nvm(2, "all"),
    ropk(0.0),
    ropk(0.25),
    ropk(1.00),
)


def run_case_study(configurations: Optional[Sequence[ObfuscationConfig]] = None,
                   budget: Optional[AttackBudget] = None,
                   secret: bytes = b"raindr", seed: int = 1) -> List[CaseStudyResult]:
    """Attack ``base64_check`` under each configuration and measure slowdown."""
    configurations = list(configurations or DEFAULT_CONFIGURATIONS)
    budget = budget or AttackBudget(seconds=5.0, max_executions=80)
    program, secret_bytes = base64_check_program(secret)
    targets = ["base64_check", "base64_encode"]
    results: List[CaseStudyResult] = []

    for configuration in configurations:
        image = apply_configuration(program, targets, configuration, seed=seed)
        # runtime cost of one legitimate execution
        loaded = load_image(image)
        source = loaded.heap_base + 0x10
        for index, byte in enumerate(secret_bytes):
            loaded.memory.write_int(source + index, byte, 1)
        _, emulator = call_function(loaded, "base64_check", [source], max_steps=200_000_000)

        outcome = secret_finding_attack(
            image, "base64_check",
            InputSpec(argument_sizes=[], buffer_symbols=len(secret_bytes)),
            budget, memory_model="page", seed=seed)
        results.append(CaseStudyResult(
            configuration=configuration.name,
            secret_recovered=outcome.success,
            attack_time=outcome.time_to_success,
            execution_instructions=emulator.steps,
        ))
    return results
