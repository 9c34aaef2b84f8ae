"""Property tests for the packed fleet-NDF kernel.

The batched kernel must inherit every invariant of the scalar
:func:`repro.core.ndf.ndf` because it *is* the same metric, computed
flat: on random populations it must match the per-die loop exactly,
stay symmetric, vanish only on identical code functions, and be
invariant under joint rotation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ndf import ndf
from repro.core.signature import Signature
from repro.core.signature_batch import SignatureBatch, fleet_ndf

PERIOD = 1.0


@st.composite
def signatures(draw, max_entries=8, max_code=63):
    """Random run-length signatures with exact total duration."""
    n = draw(st.integers(min_value=1, max_value=max_entries))
    weights = [draw(st.floats(min_value=0.05, max_value=1.0))
               for _ in range(n)]
    total = sum(weights)
    codes = [draw(st.integers(min_value=0, max_value=max_code))
             for _ in range(n)]
    pairs = [(c, w / total * PERIOD) for c, w in zip(codes, weights)]
    return Signature.from_pairs(pairs, PERIOD)


@st.composite
def populations(draw, max_rows=6):
    """A golden signature plus a small random population."""
    golden = draw(signatures())
    rows = draw(st.lists(signatures(), min_size=1, max_size=max_rows))
    return golden, rows


@st.composite
def code_stacks(draw, max_rows=5, samples=24, max_code=7):
    """Random sampled code stacks on a shared uniform grid."""
    n = draw(st.integers(min_value=1, max_value=max_rows))
    stack = np.asarray(
        [[draw(st.integers(min_value=0, max_value=max_code))
          for _ in range(samples)] for _ in range(n)])
    times = PERIOD * np.arange(samples) / samples
    return times, stack


@given(populations())
@settings(max_examples=50, deadline=None)
def test_fleet_matches_per_die_exactly(population):
    golden, rows = population
    packed = SignatureBatch.from_signatures(rows)
    expected = np.asarray([ndf(row, golden) for row in rows])
    assert np.array_equal(packed.ndf_to(golden), expected)


#: Run counts straddling numpy's pairwise-summation block sizes (8
#: unrolled lanes, 128-element blocks): the fleet kernel sums rows of
#: equal merged length as one 2-D block, which must match the 1-D
#: per-row sums on either side of each boundary.
BOUNDARY_RUNS = [1, 2, 7, 8, 9, 15, 16, 17, 120, 127, 128, 129, 136,
                 255, 256, 257]


@st.composite
def mixed_length_populations(draw):
    """Populations whose rows mix run counts across the boundaries,
    plus up to 40 rows sharing one long run count (enough to split
    that length's block into several)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    runs = draw(st.lists(st.sampled_from(BOUNDARY_RUNS), min_size=2,
                         max_size=12))
    runs += [draw(st.sampled_from(BOUNDARY_RUNS[-6:]))] * draw(
        st.integers(0, 40))

    def signature(n):
        # No two neighbouring codes match, so a row keeps all n runs
        # and rows of one run count share one merged length.
        weights = rng.uniform(0.05, 1.0, n)
        codes = np.cumsum(rng.integers(1, 64, n)) % 64
        return Signature.from_pairs(
            zip(codes.tolist(), (weights / weights.sum()
                                 * PERIOD).tolist()), PERIOD)

    golden = signature(int(rng.integers(1, 9)))
    return golden, [signature(n) for n in runs]


@given(mixed_length_populations())
@settings(max_examples=40, deadline=None)
def test_mixed_row_lengths_match_per_die_exactly(population):
    golden, rows = population
    packed = SignatureBatch.from_signatures(rows)
    expected = np.asarray([ndf(row, golden) for row in rows])
    assert np.array_equal(packed.ndf_to(golden), expected)


@given(code_stacks())
@settings(max_examples=50, deadline=None)
def test_sampled_stack_matches_per_die_exactly(stack_case):
    times, stack = stack_case
    golden = Signature.from_samples(times, stack[0], PERIOD)
    packed = SignatureBatch.from_code_stack(times, stack, PERIOD)
    expected = np.asarray(
        [ndf(Signature.from_samples(times, row, PERIOD), golden)
         for row in stack])
    values = packed.ndf_to(golden)
    assert np.array_equal(values, expected)
    # Row 0 is the golden itself: exact zero, no float residue.
    assert values[0] == 0.0


@given(signatures(), signatures())
@settings(max_examples=50, deadline=None)
def test_fleet_is_symmetric(a, b):
    ab = fleet_ndf(SignatureBatch.from_signatures([a]), b)[0]
    ba = fleet_ndf(SignatureBatch.from_signatures([b]), a)[0]
    assert ab == pytest.approx(ba, abs=1e-12)


@given(populations())
@settings(max_examples=50, deadline=None)
def test_zero_iff_equal_code_function(population):
    golden, rows = population
    values = SignatureBatch.from_signatures(rows).ndf_to(golden)
    for value, row in zip(values, rows):
        if value == 0.0:
            # Equal almost everywhere -> equal codes on a dense grid.
            probes = PERIOD * (np.arange(200) + 0.5) / 200
            assert np.array_equal(row.code_at(probes),
                                  golden.code_at(probes))
        else:
            assert ndf(row, golden) > 0.0
    # And every row against itself is exactly zero.
    self_packed = SignatureBatch.from_signatures(rows)
    for i, row in enumerate(rows):
        assert self_packed.ndf_to(row)[i] == 0.0


@given(populations(), st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_joint_rotation_invariance(population, dt):
    golden, rows = population
    baseline = SignatureBatch.from_signatures(rows).ndf_to(golden)
    rotated = SignatureBatch.from_signatures(
        [row.rotated(dt) for row in rows]).ndf_to(golden.rotated(dt))
    assert np.allclose(baseline, rotated, atol=1e-9)


@given(populations())
@settings(max_examples=40, deadline=None)
def test_bounded_by_code_width(population):
    golden, rows = population
    values = SignatureBatch.from_signatures(rows).ndf_to(golden)
    assert np.all(values >= 0.0)
    assert np.all(values <= 6.0)  # 6-bit codes: dH <= 6
