"""Network fault drills: the transport fault points under a campaign.

These drills arm ``shard.transport.*`` faults in the *coordinator's*
process (the transport layer is coordinator-side), with ``workers=1``
and a heartbeat far longer than the campaign so the coordinator's
line sequence is deterministic: trip 1 is always the ``init`` send,
trips 2-3 are the first ``assign`` send and the ``hello`` receive (in
either order), and every trip after that is a ``progress``/``done``
receive.  ``after=N`` therefore lands each fault on an exact
protocol line.

The contract under every fault: the merged result stays bit-identical
to the monolithic run.  A partition loses the worker and the shard
resumes from its checkpoint; a delay is latency, not loss -- nothing
may be reassigned; a dropped progress line costs nothing; a dropped
``done`` is caught by the progress watchdog.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import ScreeningRequest
from repro.obs.trace import tracing
from repro.paper import PAPER_BIQUAD
from repro.shard import MonteCarloFleet, ShardCoordinator
from repro.testing.faultinject import arm

pytestmark = pytest.mark.campaign

DIES = 12
SIGMA = 0.05
SEED = 3
HEARTBEAT = 30.0  # no pings, no stall teardown within any drill


def _mc_fleet(count=DIES, chunk=2):
    return MonteCarloFleet(PAPER_BIQUAD, count, sigma_f0=SIGMA,
                           seed=SEED, chunk_size=chunk)


def _reference(engine, fleet, count=DIES):
    return engine.submit(ScreeningRequest(
        population=fleet.chunks(0, count), mode="stream",
        band=engine.band().threshold))


def _run(engine, fleet, shards=2, **kwargs):
    coordinator = ShardCoordinator(
        engine.config, engine.band().threshold, fleet,
        shards=shards, workers=1, heartbeat=HEARTBEAT, **kwargs)
    merged, stats = coordinator.run()
    return merged, stats


def test_partition_mid_shard_reassigns_and_resumes_from_checkpoint(
        small_engine):
    """Sever the pipe right after the first progress report: the
    worker is lost, the shard reassigns, and the respawned worker
    resumes from the checkpoint -- not from die zero."""
    fleet = _mc_fleet()
    reference = _reference(small_engine, fleet)
    # Trips 1-3: init, assign, hello.  Trip 4: the first progress
    # line of shard 0 -- one durable checkpoint past its lo.
    arm("shard.transport.partition", times=1, after=3)
    with tracing() as tracer:
        merged, stats = _run(small_engine, fleet)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["reassigned"] == 1.0
    assert stats["dispatched"] == stats["planned"] + 1.0
    runs = [r for r in tracer.records()
            if r.name == "shard.worker.run"]
    assert any(r.attributes["resume_at"] > r.attributes["lo"]
               for r in runs), "reassignment restarted from zero"


def test_delayed_lines_under_threshold_cause_no_false_loss(
        small_engine, monkeypatch):
    """Latency is not loss: every protocol line delivered late (but
    well under the heartbeat deadline) must not trigger reassignment."""
    monkeypatch.setenv("REPRO_FAULT_SLOW_S", "0.1")
    fleet = _mc_fleet(chunk=4)
    reference = _reference(small_engine, fleet)
    arm("shard.transport.delay", times=-1)
    merged, stats = _run(small_engine, fleet)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["reassigned"] == 0.0
    assert stats["dispatched"] == stats["planned"]


def test_dropped_progress_line_is_harmless(small_engine):
    """Progress reports are advisory: losing one in flight changes
    nothing about the result or the dispatch accounting."""
    fleet = _mc_fleet()
    reference = _reference(small_engine, fleet)
    arm("shard.transport.drop", times=1, after=3)  # first progress
    merged, stats = _run(small_engine, fleet)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["reassigned"] == 0.0


def test_dropped_done_is_caught_by_the_progress_watchdog(
        small_engine):
    """Heartbeats prove liveness, not progress: a worker whose
    ``done`` vanished keeps pinging forever.  ``progress_timeout``
    declares it lost; the reassigned shard's checkpoint is already
    complete, so the resume is a no-op and the merge is identical."""
    fleet = _mc_fleet(count=6)
    reference = _reference(small_engine, fleet, count=6)
    # One shard of three chunks: trips 1-3 init/assign/hello, trips
    # 4-6 progress, trip 7 the done line.
    arm("shard.transport.drop", times=1, after=6)
    merged, stats = _run(small_engine, fleet, shards=1,
                         progress_timeout=6.0)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["reassigned"] == 1.0
    assert stats["completed"] == 1.0
