"""Planner invariants under hypothesis: every plan tiles ``[0, N)``.

The merge's bit-identity rests entirely on these properties -- the
shards must be contiguous, disjoint, gap-free and ordered.  The
autotuner's carving is exercised by the campaign tests; here we pin
the static planner over the whole (num_dies, shards, chunk) space.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.shard import ShardAutotuner, plan_shards


def _assert_tiles(plan, count):
    assert [s.index for s in plan] == list(range(len(plan)))
    cursor = 0
    for shard in plan:
        assert shard.lo == cursor, "gap or overlap at a boundary"
        assert shard.hi > shard.lo, "empty shard emitted"
        cursor = shard.hi
    assert cursor == count, "plan does not cover [0, count)"


@given(count=st.integers(min_value=0, max_value=5000),
       shards=st.integers(min_value=1, max_value=64))
@settings(max_examples=150, deadline=None)
def test_near_equal_plans_tile_exactly(count, shards):
    plan = plan_shards(count, shards)
    _assert_tiles(plan, count)
    if count:
        sizes = [s.num_dies for s in plan]
        assert max(sizes) - min(sizes) <= 1
        assert len(plan) == min(shards, count)


@given(count=st.integers(min_value=0, max_value=5000),
       chunk=st.integers(min_value=1, max_value=128))
@settings(max_examples=150, deadline=None)
def test_shard_count_from_a_size_cap_tiles_within_it(count, chunk):
    """``ceil(count / chunk)`` near-equal shards never exceed ``chunk``
    dies: a caller bounds reassignment granularity through
    ``shards``."""
    shards = max(1, -(-count // chunk))
    plan = plan_shards(count, shards)
    _assert_tiles(plan, count)
    assert all(shard.num_dies <= chunk for shard in plan)
    assert len(plan) == (shards if count else 0)


@given(count=st.integers(min_value=1, max_value=2000),
       shards=st.integers(min_value=1, max_value=32),
       chunk=st.integers(min_value=1, max_value=64),
       target=st.floats(min_value=0.1, max_value=60.0),
       rates=st.lists(st.floats(min_value=0.01, max_value=1e4),
                      min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_autotuned_carving_tiles_for_any_observed_rates(
        count, shards, chunk, target, rates):
    """Simulate the coordinator's carving loop: whatever sizes the
    tuner asks for, sequential carving still tiles ``[0, count)``
    with chunk-aligned interior boundaries."""
    tuner = ShardAutotuner(target, initial_size=max(1, count // 4),
                           align=chunk, max_size=count)
    for i, rate in enumerate(rates):
        tuner.observe(i % 3, dies=max(1, int(rate)), seconds=1.0)
    carved = []
    frontier = 0
    worker = 0
    index = 0
    while frontier < count:
        size = tuner.next_size(worker % 3)
        hi = min(frontier + size, count)
        assert hi > frontier, "carving stalled"
        carved.append((index, frontier, hi))
        # Sizes are chunk multiples unless the max_size (= fleet
        # size) clamp cut the last multiple short.
        assert size % chunk == 0 or size == count
        frontier = hi
        index += 1
        worker += 1
    assert carved[0][1] == 0
    assert carved[-1][2] == count
    for (_, _, prev_hi), (_, lo, _) in zip(carved, carved[1:]):
        assert lo == prev_hi
