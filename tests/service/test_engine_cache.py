"""The service's engine cache: one cached engine serves one function.

``_ENGINES`` is keyed on ``_image_key`` plus ``max_instructions``, and a
cached engine attacks the one function it was built for.  That is sound
only while the key fixes the attacked symbol and the input spec, which
these tests check over the service test suite's request cases.
"""

import dataclasses
import itertools
import json
from pathlib import Path

import pytest

from repro.attacks.dse import InputSpec
from repro.service import requests as service_requests
from repro.service.requests import AttackRequest, _image_key

_GOLDEN = json.loads((Path(__file__).parent / "golden_rows.json").read_text())


def _request_cases():
    """The golden requests and the NATIVE defaults of ``test_service.py``,
    each also varied in every request field outside the image key."""
    bases = [AttackRequest(**case["request"]) for case in _GOLDEN]
    bases += [AttackRequest(id="n", configuration="NATIVE", seed=seed)
              for seed in (1, 2)]
    variations = {"attack_seed": (None, 2), "engine": ("dse", "se"),
                  "max_executions": (3, 6), "max_solver_queries": (None, 48)}
    for base in bases:
        for values in itertools.product(*variations.values()):
            yield dataclasses.replace(base, **dict(zip(variations, values)))


def test_requests_sharing_an_engine_key_share_symbol_and_input_spec():
    seen = {}
    for request in _request_cases():
        key = _image_key(request) + (request.max_instructions,)
        attacked = (request.symbol,
                    InputSpec(argument_sizes=[request.input_size]))
        assert seen.setdefault(key, attacked) == attacked, request
    assert len(seen) == len(_GOLDEN) + 2


def test_cached_engine_for_another_function_is_refused(monkeypatch):
    """Should the image key stop fixing the image, a cached engine is
    refused rather than run against the wrong function."""
    monkeypatch.setattr(service_requests, "_image_key", lambda request: ())
    monkeypatch.setattr(service_requests, "_ENGINES",
                        type(service_requests._ENGINES)())
    monkeypatch.setattr(service_requests, "_IMAGES",
                        type(service_requests._IMAGES)())
    first = AttackRequest(id="a", configuration="NATIVE", input_size=1)
    second = dataclasses.replace(first, id="b", input_size=2)
    image, symbol = service_requests._prepared_image(first)
    service_requests._prepared_engine(first, image, symbol)
    with pytest.raises(RuntimeError, match="attacks"):
        service_requests._prepared_engine(second, image, second.symbol)
