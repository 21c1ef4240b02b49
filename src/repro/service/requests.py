"""Attack requests: the work unit of the long-lived attack service.

An :class:`AttackRequest` names everything that determines one secret-finding
attack: the generated function (structure, input size, spec seed), the
obfuscation configuration applied to it, the engine, and the deterministic
budget caps.  Requests are validated on admission (:func:`parse_request`
raises ``ValueError`` with the reason, which becomes a ``rejected`` terminal
row) and executed inside pool workers by :func:`execute_request`, which is
registered with the grid pool's unit-executor registry
(:func:`repro.evaluation.parallel.register_unit_executor`), so the pool
sends requests to its idle workers and supervises them like any grid unit.

Reuse across requests is what makes the service worth running long-lived:
each worker keeps small LRU caches of prepared images and attack engines.
Requests naming the same image share its compiled/obfuscated form and, with
the same instruction cap, one DSE engine: the image fixes the attacked
function and its input spec, so the engine's prepared emulator and entry
snapshot serve every such request, while
:meth:`repro.attacks.dse.DseEngine.reset` rebuilds every piece of
cross-request exploration state (RNG, solver, stats) per request.  The
mid-path snapshot pool does not outlive its exploration, so a cached engine
between requests holds only its entry snapshot.  That reset discipline is exactly why a served
result is byte-identical to a one-shot run at the same seed, which the
differential tests assert.

The default budget caps mirror the grid's smoke slice: the wall clock is
generous enough to never bind, so the deterministic caps (executions, solver
queries, instructions) are what stop each attack — identical result rows on
any machine, any worker count, and any retry history.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.attacks import AttackBudget, secret_finding_attack
from repro.attacks.dse import DseEngine, InputSpec
from repro.attacks.goals import _make_engine
from repro.evaluation.parallel import register_unit_executor, unit_fingerprint
from repro.obfuscation.configs import TABLE2_CONFIGURATIONS
from repro.workloads.randomfuns import (CONTROL_STRUCTURES,
                                        DEFAULT_LOOP_ITERATIONS, INPUT_SIZES,
                                        RandomFunSpec)

_STRUCTURES = tuple(entry[0] for entry in CONTROL_STRUCTURES)
_CONFIG_BY_NAME = {config.name: config for config in TABLE2_CONFIGURATIONS}
_ENGINES_ALLOWED = ("dse", "se")

#: Per-worker cache bounds: images embed full obfuscated programs and
#: engines hold prepared emulators, so both stay small and LRU-bounded.
_CACHE_CAPACITY = 16


@dataclass(frozen=True)
class AttackRequest:
    """One secret-finding attack request.

    ``seed`` obfuscates the image (the ``apply_configuration`` seed) and
    doubles as the attack seed unless ``attack_seed`` overrides it —
    requests differing only in ``attack_seed`` share a prepared image and
    entry snapshot, the service's cheapest repeat customers.
    """

    id: str
    structure: str = "if(bb4,bb4)"
    input_size: int = 1
    spec_seed: int = 1
    loop_iterations: int = DEFAULT_LOOP_ITERATIONS
    configuration: str = "ROP1.00"
    engine: str = "dse"
    seed: int = 1
    attack_seed: Optional[int] = None
    seconds: float = 600.0
    max_executions: int = 6
    max_instructions: int = 150_000
    max_solver_queries: Optional[int] = 48

    @property
    def effective_attack_seed(self) -> int:
        return self.seed if self.attack_seed is None else self.attack_seed

    @property
    def spec(self) -> RandomFunSpec:
        return RandomFunSpec(structure=self.structure,
                             input_size=self.input_size, seed=self.spec_seed,
                             point_test=True,
                             loop_iterations=self.loop_iterations)

    @property
    def symbol(self) -> str:
        return self.spec.name


_FIELD_TYPES = {
    "id": (str, int),
    "structure": (str,),
    "input_size": (int,),
    "spec_seed": (int,),
    "loop_iterations": (int,),
    "configuration": (str,),
    "engine": (str,),
    "seed": (int,),
    "attack_seed": (int, type(None)),
    "seconds": (int, float),
    "max_executions": (int,),
    "max_instructions": (int,),
    "max_solver_queries": (int, type(None)),
}


def parse_request(obj: object) -> AttackRequest:
    """Validate one decoded request object; raise ``ValueError`` with why.

    The error message is the admission-control rejection reason, so it
    names the offending field and the accepted values.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"request must be a JSON object, got "
                         f"{type(obj).__name__}")
    unknown = sorted(set(obj) - set(_FIELD_TYPES))
    if unknown:
        raise ValueError(f"unknown request field(s): {', '.join(unknown)}")
    if "id" not in obj:
        raise ValueError("request is missing the required 'id' field")
    for name, value in obj.items():
        if not isinstance(value, _FIELD_TYPES[name]) \
                or isinstance(value, bool):
            accepted = "/".join(t.__name__ for t in _FIELD_TYPES[name])
            raise ValueError(f"field {name!r} must be {accepted}, got "
                             f"{type(value).__name__}")
    fields = dict(obj)
    fields["id"] = str(fields["id"])
    request = AttackRequest(**fields)
    if request.structure not in _STRUCTURES:
        raise ValueError(f"unknown structure {request.structure!r}; one of "
                         f"{', '.join(_STRUCTURES)}")
    if request.input_size not in INPUT_SIZES:
        raise ValueError(f"input_size must be one of {INPUT_SIZES}, got "
                         f"{request.input_size}")
    if request.configuration not in _CONFIG_BY_NAME:
        raise ValueError(f"unknown configuration {request.configuration!r}")
    if request.engine not in _ENGINES_ALLOWED:
        raise ValueError(f"unknown engine {request.engine!r}; one of "
                         f"{', '.join(_ENGINES_ALLOWED)}")
    if request.loop_iterations < 1:
        raise ValueError("loop_iterations must be >= 1")
    if request.seconds <= 0 or request.max_executions < 1 \
            or request.max_instructions < 1:
        raise ValueError("budget caps must be positive")
    if request.max_solver_queries is not None and request.max_solver_queries < 0:
        raise ValueError("max_solver_queries must be >= 0 or null, got "
                         f"{request.max_solver_queries}")
    return request


def request_fingerprint(request: AttackRequest) -> str:
    """Deterministic cross-run identity of a request — the journal key."""
    return unit_fingerprint(request)


# -- worker-side execution ----------------------------------------------------

#: image key -> (BinaryImage, symbol); worker-local, deterministic values.
_IMAGES: "OrderedDict[Tuple, Tuple]" = OrderedDict()

#: engine key -> prepared DseEngine (entry snapshot warm); worker-local.
_ENGINES: "OrderedDict[Tuple, DseEngine]" = OrderedDict()


def _image_key(request: AttackRequest) -> Tuple:
    return (request.structure, request.input_size, request.spec_seed,
            request.loop_iterations, request.configuration, request.seed)


def _cache_get(cache: OrderedDict, key: Tuple):
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
    return value


def _cache_put(cache: OrderedDict, key: Tuple, value) -> None:
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > _CACHE_CAPACITY:
        cache.popitem(last=False)


def _prepared_image(request: AttackRequest):
    """The obfuscated image and attacked symbol of ``request`` (cached)."""
    from repro.obfuscation.configs import apply_configuration
    from repro.workloads.randomfuns import generate_random_function

    key = _image_key(request)
    cached = _cache_get(_IMAGES, key)
    if cached is None:
        spec = request.spec
        program, _, _ = generate_random_function(spec)
        image = apply_configuration(program, [spec.name],
                                    _CONFIG_BY_NAME[request.configuration],
                                    seed=request.seed)
        cached = (image, spec.name)
        _cache_put(_IMAGES, key, cached)
    return cached


def _prepared_engine(request: AttackRequest, image, symbol: str) -> DseEngine:
    """A reset DSE engine for ``request``, reusing a cached one if possible.

    The cache key is the image key plus ``max_instructions``, the cap baked
    into the prepared emulator (``max_steps``).  The image key fixes the
    attacked function (``spec.name``) and the input spec
    (``InputSpec([input_size])``), so a cached engine always attacks the
    request's function; everything else a previous request could leak is
    rebuilt by :meth:`DseEngine.reset`, and the entry snapshot stays warm.

    Raises:
        RuntimeError: a cached engine attacks another function, which only
            an image key that no longer fixes the image could cause.
    """
    key = _image_key(request) + (request.max_instructions,)
    engine = _cache_get(_ENGINES, key)
    if engine is None:
        engine = _make_engine(image, symbol,
                              InputSpec(argument_sizes=[request.input_size]),
                              request.max_instructions,
                              seed=request.effective_attack_seed)
        _cache_put(_ENGINES, key, engine)
    elif engine.function != symbol:
        raise RuntimeError(f"cached engine attacks {engine.function!r}, "
                           f"not {symbol!r}: _image_key must fix the image")
    engine.reset(seed=request.effective_attack_seed)
    return engine


def execute_request(request: AttackRequest) -> dict:
    """Run one request to a ``done`` row (deterministic fields only).

    Wall-clock fields are deliberately absent from the row: the budget's
    deterministic caps are what bind, so the row is byte-identical across
    serial/pooled/retried executions — the property the journal relies on
    to re-emit rows verbatim on resume.
    """
    image, symbol = _prepared_image(request)
    budget = AttackBudget(seconds=request.seconds,
                          max_executions=request.max_executions,
                          max_instructions_per_run=request.max_instructions,
                          max_solver_queries=request.max_solver_queries)
    input_spec = InputSpec(argument_sizes=[request.input_size])
    driver = (_prepared_engine(request, image, symbol)
              if request.engine == "dse" else None)
    outcome = secret_finding_attack(image, symbol, input_spec, budget,
                                    engine=request.engine,
                                    seed=request.effective_attack_seed,
                                    driver=driver)
    return {
        "id": request.id,
        "status": "done",
        "symbol": symbol,
        "configuration": request.configuration,
        "engine": request.engine,
        "secret_found": outcome.success,
        "witness": outcome.witness,
        "executions": outcome.stats.executions,
        "instructions": outcome.stats.instructions,
        "solver_queries": outcome.stats.solver_queries,
        "paths": outcome.stats.paths_seen,
        "branch_restores": outcome.stats.branch_restores,
        "instructions_replayed": outcome.stats.instructions_replayed,
    }


def _registered_executor(request: AttackRequest) -> dict:
    # late-bound so tests monkeypatching execute_request take effect
    return execute_request(request)


register_unit_executor(AttackRequest, _registered_executor)
