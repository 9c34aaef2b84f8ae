"""Sharded campaigns merge bit-identical -- even through a worker kill.

Every test compares full result vectors (NDFs, verdicts, deviations,
labels) with ``array_equal``, never ``allclose``: the contract is
byte-for-byte identity with the monolithic run, not numerical
closeness.  The drill tests arm fault points in the *worker's*
environment through ``REPRO_SHARD_WORKER_FAULTS``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import (
    ScreeningRequest,
    deviation_sweep_population,
    montecarlo_dies,
    parameter_grid,
)
from repro.obs.metrics import default_registry
from repro.paper import PAPER_BIQUAD
from repro.shard import (
    MonteCarloFleet,
    PopulationFleet,
    ShardCoordinator,
    ShardWorkerError,
)

pytestmark = pytest.mark.campaign

DIES = 12
SIGMA = 0.05
SEED = 3
HEARTBEAT = 15.0  # generous: CI boxes start interpreters slowly


def _mc_fleet(count=DIES, chunk=4):
    return MonteCarloFleet(PAPER_BIQUAD, count, sigma_f0=SIGMA,
                           seed=SEED, chunk_size=chunk)


def _assert_same_result(a, b):
    np.testing.assert_array_equal(a.ndfs, b.ndfs)
    np.testing.assert_array_equal(a.verdicts, b.verdicts)
    np.testing.assert_array_equal(a.f0_deviations, b.f0_deviations)
    np.testing.assert_array_equal(a.q_deviations, b.q_deviations)
    assert list(a.labels) == list(b.labels)
    assert a.threshold == b.threshold


def test_mc_bit_identical_to_monolithic(small_engine):
    population = montecarlo_dies(PAPER_BIQUAD, DIES, sigma_f0=SIGMA,
                                 seed=SEED)
    reference = small_engine.run(population, band="auto")
    sharded = small_engine.submit(ScreeningRequest(
        population=_mc_fleet(), mode="sharded", shards=3, band="auto",
        shard_heartbeat=HEARTBEAT))
    _assert_same_result(sharded, reference)
    assert sharded.executor == "sharded[3]"
    assert sharded.shard_stats["completed"] == 3.0
    assert sharded.shard_stats["reassigned"] == 0.0


def test_single_shard_matches_multi(small_engine):
    one = small_engine.submit(ScreeningRequest(
        population=_mc_fleet(), mode="sharded", shards=1, band="auto",
        shard_heartbeat=HEARTBEAT))
    three = small_engine.submit(ScreeningRequest(
        population=_mc_fleet(), mode="sharded", shards=3, band="auto",
        shard_heartbeat=HEARTBEAT))
    _assert_same_result(one, three)
    assert one.executor == "sharded[1]"


def test_sweep_population_bit_identical(small_engine):
    population = deviation_sweep_population(
        PAPER_BIQUAD, np.linspace(-0.2, 0.2, 9))
    reference = small_engine.run(population, band="auto")
    sharded = small_engine.submit(ScreeningRequest(
        population=PopulationFleet(population, chunk_size=2), mode="sharded",
        shards=3, band="auto", shard_heartbeat=HEARTBEAT))
    _assert_same_result(sharded, reference)


def test_grid_population_bit_identical(small_engine):
    axis = np.linspace(-0.1, 0.1, 3)
    population = parameter_grid(PAPER_BIQUAD, axis, axis)
    reference = small_engine.run(population, band="auto")
    sharded = small_engine.submit(ScreeningRequest(
        population=population, mode="sharded", shards=2, band="auto",
        shard_heartbeat=HEARTBEAT))
    _assert_same_result(sharded, reference)


def test_fewer_workers_than_shards(small_engine):
    population = montecarlo_dies(PAPER_BIQUAD, DIES, sigma_f0=SIGMA,
                                 seed=SEED)
    reference = small_engine.run(population, band="auto")
    sharded = small_engine.submit(ScreeningRequest(
        population=_mc_fleet(chunk=2), mode="sharded", shards=4,
        shard_workers=2, band="auto", shard_heartbeat=HEARTBEAT))
    _assert_same_result(sharded, reference)
    assert sharded.shard_stats["workers"] == 2.0
    assert sharded.shard_stats["completed"] == 4.0


def test_empty_fleet(small_engine):
    result = small_engine.submit(ScreeningRequest(
        population=_mc_fleet(count=0), mode="sharded", shards=3, band="auto",
        shard_heartbeat=HEARTBEAT))
    assert result.num_dies == 0
    assert result.shard_stats["planned"] == 0.0


def test_kill_drill_reassigns_and_stays_bit_identical(
        small_engine, monkeypatch):
    """SIGKILL one worker mid-shard: the shard reassigns, resumes
    from its checkpoint, and the merged result is still bit-identical."""
    population = montecarlo_dies(PAPER_BIQUAD, DIES, sigma_f0=SIGMA,
                                 seed=SEED)
    reference = small_engine.run(population, band="auto")
    # Kill the first worker right after its second progress report --
    # past a durable checkpoint, so the resume is a true mid-shard one.
    monkeypatch.setenv("REPRO_SHARD_WORKER_FAULTS",
                       "shard.worker.kill:1:1")
    before = default_registry().counter("shard_reassigned_total").value
    sharded = small_engine.submit(ScreeningRequest(
        population=_mc_fleet(chunk=2), mode="sharded", shards=3, band="auto",
        shard_heartbeat=HEARTBEAT))
    _assert_same_result(sharded, reference)
    assert sharded.shard_stats["reassigned"] >= 1.0
    assert sharded.shard_stats["dispatched"] > \
        sharded.shard_stats["planned"]
    after = default_registry().counter("shard_reassigned_total").value
    assert after > before


def test_worker_error_raises_with_context(small_engine, monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_WORKER_FAULTS",
                       "shard.worker.error")
    with pytest.raises(ShardWorkerError) as excinfo:
        small_engine.submit(ScreeningRequest(
            population=_mc_fleet(), mode="sharded", shards=2, band="auto",
            shard_heartbeat=HEARTBEAT))
    assert "FaultInjected" in str(excinfo.value)


def test_coordinator_reuses_workers_across_shards(small_engine):
    """More shards than workers: each worker screens several shards
    through one process (no respawn per shard)."""
    threshold = small_engine.band().threshold
    coordinator = ShardCoordinator(
        small_engine.config, threshold, _mc_fleet(chunk=3),
        shards=4, workers=1, heartbeat=HEARTBEAT)
    merged, stats = coordinator.run()
    assert stats["completed"] == 4.0
    assert stats["workers"] == 1.0
    assert merged.num_dies == DIES
    assert merged.complete


def test_sharded_request_rejects_signatures_and_channels(small_engine):
    fleet = _mc_fleet()
    with pytest.raises(ValueError, match="signatures"):
        small_engine.submit(ScreeningRequest(
            population=fleet, mode="sharded", keep_signatures=True))
    encoder = small_engine.config.encoder
    with pytest.raises(ValueError, match="single-channel"):
        small_engine.submit(ScreeningRequest(
            population=fleet, mode="sharded",
            encoders=[encoder, encoder]))


def test_request_validates_shard_fields():
    with pytest.raises(ValueError):
        ScreeningRequest(population=[], mode="sharded", shards=0)
    with pytest.raises(ValueError):
        ScreeningRequest(population=[], mode="sharded",
                         shard_heartbeat=0.0)
    with pytest.raises(ValueError):
        ScreeningRequest(population=[], mode="sharded",
                         shard_workers=0)


def test_offset_stream_checkpoints_carry_start_index(
        small_engine, tmp_path):
    """A shard-style offset stream writes a checkpoint naming its
    global range, resumes behind it, and rejects a stream that starts
    before the checkpoint's own range."""
    from repro.campaign.checkpoint import StreamCheckpoint

    fleet = _mc_fleet(chunk=2)
    path = str(tmp_path / "shard.npz")
    result = small_engine.submit(ScreeningRequest(
        population=fleet.chunks(4, 10), mode="stream", band="auto",
        checkpoint=path, stream_offset=4))
    assert result.num_dies == 6
    state = StreamCheckpoint.load(path)
    assert state.start_index == 4
    assert state.next_index == 10
    assert state.complete
    # Re-running the same range resumes (skips everything): the
    # result is bit-identical to the first pass.
    again = small_engine.submit(ScreeningRequest(
        population=fleet.chunks(4, 10), mode="stream", band="auto",
        checkpoint=path, stream_offset=4))
    _assert_same_result(again, result)
    # A stream starting before the checkpoint's range cannot merge.
    with pytest.raises(ValueError, match="does not contain"):
        small_engine.submit(ScreeningRequest(
            population=fleet.chunks(0, 10), mode="stream", band="auto",
            checkpoint=path, stream_offset=0))


def test_autotuned_campaign_carves_dynamically_and_stays_identical(
        small_engine):
    """Autotuned sizing changes scheduling only, never results: the
    carved ranges still tile [0, N) and merge bit-identical."""
    population = montecarlo_dies(PAPER_BIQUAD, DIES, sigma_f0=SIGMA,
                                 seed=SEED)
    reference = small_engine.run(population, band="auto")
    sharded = small_engine.submit(ScreeningRequest(
        population=_mc_fleet(chunk=2), mode="sharded", shards=3, band="auto",
        shard_heartbeat=HEARTBEAT, shard_workers=2, shard_autotune_s=0.5))
    _assert_same_result(sharded, reference)
    assert sharded.shard_stats["planned"] >= 1.0
    assert sharded.shard_stats["completed"] == \
        sharded.shard_stats["planned"]
    assert sharded.shard_stats["reassigned"] == 0.0


def test_request_validates_autotune_seconds():
    with pytest.raises(ValueError):
        ScreeningRequest(population=[], mode="sharded",
                         shard_autotune_s=0.0)
