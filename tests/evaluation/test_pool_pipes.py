"""The pool's per-worker pipes: torn results, orphaned workers, prompt deaths.

Each forked worker owns one duplex pipe to the coordinator, which sends it
a unit only while it is idle.  These tests drive the recovery paths that
design exists for: a worker killed while it sends a result, workers killed
while idle, a coordinator killed while its workers are idle, and a worker
death noticed without waiting out ``pump``'s timeout.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.evaluation.parallel import (WorkerPool, fork_available,
                                       register_unit_executor)
from tests.evaluation.test_fault_tolerance import _fail_if_hung

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="fork start method required")

SRC = Path(__file__).resolve().parents[2] / "src"

#: Far larger than a pipe's buffer, so sending it blocks until read.
BIG = 4 << 20


@dataclass(frozen=True)
class _Echo:
    value: int


@dataclass(frozen=True)
class _BigResult:
    """``BIG`` bytes; the first attempt records its pid in ``pid_file``."""

    pid_file: str


def _big_result(unit: _BigResult) -> bytes:
    if not os.path.exists(unit.pid_file):
        Path(unit.pid_file).write_text(str(os.getpid()))
    return b"x" * BIG


register_unit_executor(_Echo, lambda unit: unit.value)
register_unit_executor(_BigResult, _big_result)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie waiting for its reaper does not)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    state = next(line for line in status.splitlines()
                 if line.startswith("State:"))
    return "Z" not in state.split()[1]


def test_worker_killed_mid_send_is_retried_and_others_resolve(tmp_path):
    """The worker is SIGKILLed while it is blocked sending a result larger
    than the pipe buffer: the torn frame reads as EOF on its pipe only, the
    unit is retried and every other unit resolves."""
    pid_file = tmp_path / "pid"
    units = [_BigResult(str(pid_file)), _Echo(1), _Echo(2), _Echo(3)]
    with _fail_if_hung(60), WorkerPool(2, retries=2, deadline=0) as pool:
        ids = [pool.submit(unit) for unit in units]
        give_up = time.monotonic() + 30
        while not pid_file.exists() or not pid_file.read_text():
            assert time.monotonic() < give_up, "the big unit never started"
            time.sleep(0.01)
        time.sleep(0.5)  # the worker fills the pipe and blocks in send
        os.kill(int(pid_file.read_text()), signal.SIGKILL)
        events = {}
        while len(events) < len(ids):
            events.update((event.dispatch_id, event)
                          for event in pool.pump())
    assert [events[i].status for i in ids] == ["ok"] * 4
    assert events[ids[0]].payload == b"x" * BIG
    assert [events[i].payload for i in ids[1:]] == [1, 2, 3]
    assert pool.stats.retries == 1
    assert pool.stats.respawns == 1
    assert pool.stats.failed_units == 0


def test_workers_killed_while_idle_are_respawned_without_a_retry():
    """Units sent after both idle workers died find their pipes broken:
    they wait for the respawned workers, and no attempt is charged."""
    with _fail_if_hung(60), WorkerPool(2, retries=0) as pool:
        before = {child.pid for child in multiprocessing.active_children()}
        assert pool.map([_Echo(0)])[0] == [0]
        workers = [child.pid for child in multiprocessing.active_children()
                   if child.pid not in before]
        assert len(workers) == 2
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        while any(_alive(pid) for pid in workers):
            time.sleep(0.01)
        rows, _ = pool.map([_Echo(1), _Echo(2), _Echo(3)])
    assert rows == [1, 2, 3]
    assert pool.stats.respawns == 2
    assert pool.stats.retries == pool.stats.failed_units == 0


_COORDINATOR = """
import json, multiprocessing, os, sys, time
from repro.evaluation.parallel import WorkerPool, register_unit_executor

class Ping:
    pass

class Nap:
    pass

register_unit_executor(Ping, lambda unit: os.getpid())
register_unit_executor(Nap, lambda unit: time.sleep(600))
pool = WorkerPool(2)
pool.map([Ping(), Ping()])
workers = [child.pid for child in multiprocessing.active_children()]
idle = workers
if sys.argv[1] == "busy":
    # the older worker answers the ping, the younger one naps
    pool.submit(Ping())
    pool.submit(Nap())
    events = []
    while not events:
        events = pool.pump()
    idle = [events[0].payload]
print(json.dumps({"workers": workers, "idle": idle}), flush=True)
time.sleep(600)
"""


@pytest.mark.parametrize("sibling", ["idle", "busy"])
def test_idle_workers_exit_when_their_coordinator_is_killed(sibling):
    """A SIGKILLed coordinator leaves no idle worker behind: each sees EOF
    on its pipe and exits, even while a younger sibling, which inherited
    the coordinator's end of the older worker's pipe, is still busy."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR, sibling],
        stdout=subprocess.PIPE, env=env, text=True)
    workers = []
    try:
        with _fail_if_hung(60):
            started = json.loads(coordinator.stdout.readline())
        workers, idle = started["workers"], started["idle"]
        assert len(workers) == 2 and set(idle) <= set(workers)
        coordinator.kill()
        coordinator.wait()
        give_up = time.monotonic() + 5
        while any(_alive(pid) for pid in idle) \
                and time.monotonic() < give_up:
            time.sleep(0.05)
        assert not [pid for pid in idle if _alive(pid)]
    finally:
        coordinator.kill()
        coordinator.wait()
        coordinator.stdout.close()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def test_worker_death_is_noticed_without_waiting_out_the_timeout(
        monkeypatch):
    """A worker's death ends ``pump``'s wait at once: the unit it held is
    retried and its result returned long before the 20 s timeout."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "0:kill")
    started = time.monotonic()
    with _fail_if_hung(60), WorkerPool(2, retries=1) as pool:
        dispatch_id = pool.submit(_Echo(7))
        events = []
        while not events:
            events = pool.pump(timeout=20)
    elapsed = time.monotonic() - started
    assert [(event.dispatch_id, event.status, event.payload)
            for event in events] == [(dispatch_id, "ok", 7)]
    assert pool.stats.retries == 1
    assert elapsed < 5, f"took {elapsed:.2f}s"
