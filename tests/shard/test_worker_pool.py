"""Warm shard workers: one engine, many sharded campaigns, same pids.

A :class:`~repro.campaign.engine.CampaignEngine` spawns its pipe
workers on the first sharded submission and reuses them afterwards;
each campaign re-``init``s them (with the coordinator's golden, so no
worker builds one), a worker lost between campaigns is respawned, and
``engine.close()`` reaps them all.  Borrowing is exclusive, so
campaigns submitted at once never share a worker, and a worker spawned
with a drill's faults (or any other environment) is never lent to a
campaign that did not ask for it.  Results stay bit-identical to the
in-process stream throughout.
"""

from __future__ import annotations

import io
import json
import os
import signal
import threading

import numpy as np
import pytest

from repro.campaign import ScreeningRequest
from repro.obs.logs import set_log_sink
from repro.obs.trace import tracing
from repro.paper import PAPER_BIQUAD
from repro.shard import MonteCarloFleet
from repro.shard.protocol import (
    assign_message,
    decode_message,
    encode_message,
    init_message,
    pack_artifact,
)
from repro.shard.worker import worker_main

pytestmark = pytest.mark.campaign

DIES = 12
SIGMA = 0.05
HEARTBEAT = 15.0


def _fleet(seed):
    return MonteCarloFleet(PAPER_BIQUAD, DIES, sigma_f0=SIGMA,
                           seed=seed, chunk_size=2)


@pytest.fixture()
def ready_pids():
    """Collect ``shard.worker.ready`` pids (one per hello) per run."""
    sink = io.StringIO()
    previous = set_log_sink(sink)

    def events():
        lines = [json.loads(line) for line in
                 sink.getvalue().splitlines()]
        sink.seek(0)
        sink.truncate()
        return [(e["worker"], e["pid"]) for e in lines
                if e["event"] == "shard.worker.ready"]

    def read():
        return dict(events())

    read.events = lambda: {pid for _, pid in events()}
    yield read
    set_log_sink(previous)


def _sharded(engine, fleet, **request):
    request.setdefault("shards", 2)
    return engine.submit(ScreeningRequest(
        population=fleet, mode="sharded",
        band=engine.band().threshold, shard_heartbeat=HEARTBEAT,
        **request))


def _assert_matches_stream(engine, fleet, result):
    reference = engine.submit(ScreeningRequest(
        population=fleet.chunks(0, len(fleet)), mode="stream",
        band=engine.band().threshold))
    np.testing.assert_array_equal(result.ndfs, reference.ndfs)
    np.testing.assert_array_equal(result.verdicts, reference.verdicts)
    assert list(result.labels) == list(reference.labels)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_back_to_back_campaigns_reuse_worker_pids(small_engine,
                                                  ready_pids):
    first = _sharded(small_engine, _fleet(3))
    first_pids = ready_pids()
    second = _sharded(small_engine, _fleet(4))
    second_pids = ready_pids()
    assert len(first_pids) == 2
    assert second_pids == first_pids
    assert os.getpid() not in first_pids.values()
    _assert_matches_stream(small_engine, _fleet(3), first)
    _assert_matches_stream(small_engine, _fleet(4), second)


def test_worker_killed_between_campaigns_is_respawned(small_engine,
                                                      ready_pids):
    _sharded(small_engine, _fleet(3))
    before = ready_pids()
    os.kill(before[0], signal.SIGKILL)
    result = _sharded(small_engine, _fleet(5))
    after = ready_pids()
    assert after[0] != before[0]
    assert after[1] == before[1]
    assert result.shard_stats["completed"] == 2.0
    _assert_matches_stream(small_engine, _fleet(5), result)


def test_close_leaves_no_live_worker(small_engine, ready_pids):
    _sharded(small_engine, _fleet(3))
    pids = list(ready_pids().values())
    assert pids and all(_alive(pid) for pid in pids)
    small_engine.close()
    assert not any(_alive(pid) for pid in pids)
    # The engine stays usable: the next campaign spawns a new pool.
    result = _sharded(small_engine, _fleet(3))
    assert set(ready_pids().values()).isdisjoint(pids)
    _assert_matches_stream(small_engine, _fleet(3), result)


def test_concurrent_campaigns_never_share_a_worker(small_engine,
                                                  ready_pids):
    """Two threads submit sharded campaigns on one warm engine at
    once: each borrows its own workers, both merges stay
    bit-identical, and close() reaps every process either spawned."""
    _sharded(small_engine, _fleet(3))   # warm the pool
    seeds = (5, 6)
    barrier = threading.Barrier(len(seeds))
    results, errors = {}, []

    def submit(seed):
        try:
            barrier.wait()
            results[seed] = _sharded(small_engine, _fleet(seed))
        except Exception as exc:   # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=submit, args=(seed,))
               for seed in seeds]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for seed in seeds:
        assert results[seed].shard_stats["reassigned"] == 0.0
        _assert_matches_stream(small_engine, _fleet(seed),
                               results[seed])
    pids = ready_pids.events()
    small_engine.close()
    assert not any(_alive(pid) for pid in pids)


def test_drill_worker_is_never_lent_again(small_engine, ready_pids,
                                          monkeypatch):
    """A drill whose fault never fires must not leave its armed worker
    in the pool: the next, clean campaign would trip over it."""
    # One worker, two shards: two trips through the error site, so an
    # error armed to skip two trips never fires in this campaign...
    monkeypatch.setenv("REPRO_SHARD_WORKER_FAULTS",
                       "shard.worker.error:1:2")
    _sharded(small_engine, _fleet(3), shard_workers=1)
    armed = ready_pids()[0]
    # ...but would on the third, in a reused process.
    monkeypatch.delenv("REPRO_SHARD_WORKER_FAULTS")
    result = _sharded(small_engine, _fleet(4), shard_workers=1)
    assert ready_pids()[0] != armed
    assert not _alive(armed)
    _assert_matches_stream(small_engine, _fleet(4), result)


def test_environment_change_respawns_workers(small_engine, ready_pids,
                                             monkeypatch):
    _sharded(small_engine, _fleet(3))
    before = ready_pids()
    monkeypatch.setenv("REPRO_TEST_POOL_MARK", "1")
    _sharded(small_engine, _fleet(3))
    assert set(ready_pids().values()).isdisjoint(before.values())


def test_workers_never_compute_a_golden(small_engine):
    with tracing() as tracer:
        _sharded(small_engine, _fleet(3))   # spawns the pool
        _sharded(small_engine, _fleet(4))   # reuses it
    records = tracer.records()
    worker_rows = [r for r in records
                   if r.pid is not None and r.pid != os.getpid()]
    assert any(r.name == "shard.worker.run" for r in worker_rows)
    assert not [r for r in worker_rows if r.name == "cache.compute"]


def _worker_lines(tmp_path, engine, inits):
    """Run the worker loop in-process over ``inits`` (each followed by
    one whole-fleet assignment); returns the decoded output lines."""
    lines = []
    for k, (fleet, golden_b64) in enumerate(inits):
        lines.append(encode_message(init_message(
            engine.config, engine.band().threshold, fleet, 1, 60.0,
            None, golden_b64=golden_b64)))
        lines.append(encode_message(assign_message(
            k, 0, len(fleet), str(tmp_path / f"shard_{k}.npz"))))
    stdout = io.StringIO()
    code = worker_main(io.StringIO("\n".join(lines) + "\n"), stdout)
    return code, [decode_message(line)
                  for line in stdout.getvalue().splitlines()]


def test_init_repeats_after_done(small_engine, tmp_path):
    golden_b64 = pack_artifact(small_engine.config.golden_key(),
                               small_engine.golden())
    code, out = _worker_lines(tmp_path, small_engine,
                              [(_fleet(3), golden_b64),
                               (_fleet(4), golden_b64)])
    kinds = [m["type"] for m in out if m["type"] != "ping"]
    assert code == 0
    assert kinds.count("hello") == 2
    assert [m["shard"] for m in out if m["type"] == "done"] == [0, 1]


def test_corrupted_golden_is_refused_never_screened(small_engine,
                                                    tmp_path):
    golden_b64 = pack_artifact(small_engine.config.golden_key(),
                               small_engine.golden())
    middle = len(golden_b64) // 2
    flipped = "A" if golden_b64[middle] != "A" else "B"
    corrupted = golden_b64[:middle] + flipped + golden_b64[middle + 1:]
    code, out = _worker_lines(tmp_path, small_engine,
                              [(_fleet(3), corrupted)])
    assert code == 1
    assert [m["type"] for m in out] == ["error"]
    assert "refused init" in out[0]["message"]
    assert "checksum" in out[0]["message"]
    assert not (tmp_path / "shard_0.npz").exists()
