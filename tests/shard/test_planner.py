"""Range tiling: every die covered exactly once, never an empty shard."""

from __future__ import annotations

import pytest

from repro.shard import Shard, plan_shards


def _covers(plan, count):
    """The plan tiles [0, count) contiguously without overlap."""
    expected = 0
    for shard in plan:
        assert shard.lo == expected
        assert shard.hi > shard.lo
        expected = shard.hi
    assert expected == count


def test_even_split():
    plan = plan_shards(12, 3)
    assert [(s.lo, s.hi) for s in plan] == [(0, 4), (4, 8), (8, 12)]
    _covers(plan, 12)


def test_uneven_split_spreads_remainder_front():
    plan = plan_shards(10, 3)
    assert [s.num_dies for s in plan] == [4, 3, 3]
    _covers(plan, 10)


def test_more_shards_than_dies_clamps():
    plan = plan_shards(2, 8)
    assert len(plan) == 2
    assert all(s.num_dies == 1 for s in plan)
    _covers(plan, 2)


def test_zero_dies_plans_nothing():
    assert plan_shards(0, 4) == []


@pytest.mark.parametrize("count,shards", [(1, 1), (7, 2), (100, 7),
                                          (5, 5), (1000, 16)])
def test_coverage_property(count, shards):
    plan = plan_shards(count, shards)
    _covers(plan, count)
    assert [s.index for s in plan] == list(range(len(plan)))
    # Near-equal: sizes differ by at most one die.
    sizes = [s.num_dies for s in plan]
    assert max(sizes) - min(sizes) <= 1


def test_shard_validation():
    with pytest.raises(ValueError):
        Shard(0, 5, 5)  # empty range
    with pytest.raises(ValueError):
        Shard(0, 5, 3)  # inverted
    with pytest.raises(ValueError):
        Shard(0, -1, 3)  # negative lo


def test_checkpoint_names_are_stable_and_distinct():
    plan = plan_shards(30, 3)
    names = [s.checkpoint_name() for s in plan]
    assert len(set(names)) == 3
    assert names[0] == "shard_0000.npz"


# ---------------------------------------------------------------------
# ShardAutotuner
# ---------------------------------------------------------------------
def test_autotuner_unmeasured_worker_gets_initial_size():
    from repro.shard import ShardAutotuner

    tuner = ShardAutotuner(10.0, initial_size=64)
    assert tuner.next_size("w0") == 64
    assert tuner.rate("w0") is None


def test_autotuner_sizes_follow_observed_rates():
    from repro.shard import ShardAutotuner

    tuner = ShardAutotuner(10.0, initial_size=64)
    tuner.observe("fast", dies=100, seconds=1.0)   # 100 dies/s
    tuner.observe("slow", dies=100, seconds=100.0)  # 1 die/s
    assert tuner.next_size("fast") == 1000
    assert tuner.next_size("slow") == 10
    # Slow hosts get smaller slices than fast ones, always.
    assert tuner.next_size("slow") < tuner.next_size("fast")


def test_autotuner_smooths_rather_than_jumps():
    from repro.shard import ShardAutotuner

    tuner = ShardAutotuner(1.0, smoothing=0.5)
    tuner.observe("w", dies=100, seconds=1.0)
    tuner.observe("w", dies=10, seconds=1.0)  # a slow outlier shard
    assert tuner.rate("w") == pytest.approx(55.0)  # EWMA, not 10


def test_autotuner_quantizes_to_alignment_and_clamps():
    from repro.shard import ShardAutotuner

    tuner = ShardAutotuner(1.0, initial_size=5, align=4, max_size=16)
    assert tuner.initial_size == 8  # 5 rounded up to a chunk multiple
    tuner.observe("w", dies=13, seconds=1.0)
    assert tuner.next_size("w") == 16  # ceil(13 -> 16), within max
    tuner.observe("big", dies=1000, seconds=1.0)
    assert tuner.next_size("big") == 16  # clamped to max_size
    tuner.observe("tiny", dies=1, seconds=10.0)
    assert tuner.next_size("tiny") == 4  # never below one chunk


def test_autotuner_ignores_degenerate_observations():
    from repro.shard import ShardAutotuner

    tuner = ShardAutotuner(1.0)
    tuner.observe("w", dies=0, seconds=1.0)
    tuner.observe("w", dies=5, seconds=0.0)
    assert tuner.rate("w") is None


def test_autotuner_validation():
    from repro.shard import ShardAutotuner

    with pytest.raises(ValueError):
        ShardAutotuner(0.0)
    with pytest.raises(ValueError):
        ShardAutotuner(1.0, initial_size=0)
    with pytest.raises(ValueError):
        ShardAutotuner(1.0, align=0)
    with pytest.raises(ValueError):
        ShardAutotuner(1.0, smoothing=0.0)
