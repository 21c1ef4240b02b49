"""Golden Table II rows: served and one-shot attack rows are pinned.

``golden_rows.json`` holds eight secret-finding requests — ROP0.25,
ROP1.00, ROP1.00+OC+IH and 2VM at input sizes 1 and 2 — with the rows
:func:`execute_request` produced for them before the shadow tracker's
transfers were specialized.  Every field of a row (executions,
instructions, solver queries, paths, backtracking restores) depends on the
shadow's expressions and exactness flags, so any change to the symbolic
mirror that moves a Table II row fails here, on both the one-shot path
(fresh worker caches) and the served path (warm, reused engines).
"""

import json
from pathlib import Path

from repro.service import requests as service_requests
from repro.service.core import AttackService
from repro.service.requests import AttackRequest, execute_request

_CASES = json.loads((Path(__file__).parent / "golden_rows.json").read_text())


def _requests():
    return [AttackRequest(**case["request"]) for case in _CASES]


def test_golden_rows_one_shot_and_served(tmp_path):
    golden = {case["row"]["id"]: case["row"] for case in _CASES}
    # every request names its own image, so each one-shot run misses the
    # worker caches and builds its image and engine from scratch
    service_requests._IMAGES.clear()
    service_requests._ENGINES.clear()
    one_shot = {request.id: execute_request(request)
                for request in _requests()}
    assert len(service_requests._ENGINES) == len(_CASES)
    assert one_shot == golden

    # the caches are warm now: the served batch reuses every image and
    # engine (reset per request) instead of rebuilding them
    service = AttackService(tmp_path, workers=1)
    try:
        for request in _requests():
            service.submit(request)
        served = {row["id"]: row for row in service.drain()}
    finally:
        service.close()
    assert served == golden
