"""Property wall: threshold-table encoding equals the exact kernel.

For any finite ``(N, T)`` stack on the paper grid, the engine's
encode step (threshold table plus exact re-encoding of the rows it
sends back) returns exactly the codes of
:func:`repro.campaign.batch.batch_codes`, and the table alone is exact
on every sample outside the guard bands and inside its domain.  The
stacks mix plain voltages, samples a few ulps to ~a microvolt from
breakpoints and guard edges, and extreme or subnormal magnitudes.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignEngine, GoldenCache, batch_codes
from repro.campaign.engine import _encode_stack
from repro.monitor.configurations import table1_encoder
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
from front_half_differential import ulps  # noqa: E402

SAMPLES = 256

_ENCODER = table1_encoder()
_GOLDEN = CampaignEngine.from_parts(
    _ENCODER, PAPER_STIMULUS, PAPER_BIQUAD, samples_per_period=SAMPLES,
    cache=GoldenCache()).golden()
_TABLE = _GOLDEN.table
_EDGES = np.concatenate([_TABLE.breakpoints, _TABLE.lower,
                         _TABLE.upper])
_FINITE_EDGES = np.isfinite(_EDGES)


@st.composite
def stacks(draw):
    """Finite stacks near and far from the table's breakpoints."""
    rows = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    y = rng.uniform(-0.5, 1.5, (rows, SAMPLES))
    kind = draw(st.sampled_from(["plain", "edges", "extreme"]))
    if kind == "edges":
        # Each column snaps to some boundary's breakpoint or band edge,
        # nudged by up to 2**20 ulps (~1e-10 V at 0.5 V).
        pick = rng.integers(0, _EDGES.shape[0], SAMPLES)
        edge = _EDGES[pick, np.arange(SAMPLES)]
        usable = np.isfinite(edge) & (rng.random(SAMPLES) < 0.8)
        for r in range(rows):
            nudge = rng.integers(-2 ** 20, 2 ** 20, SAMPLES)
            bits = edge.view(np.int64) + np.where(edge >= 0, nudge,
                                                  -nudge)
            y[r, usable] = bits.view(np.float64)[usable]
    elif kind == "extreme":
        values = np.array([1e300, -1e300, 5e-324, -5e-324, 0.0, -0.0,
                           1e-310, 40.0, -40.0])
        mask = rng.random((rows, SAMPLES)) < 0.05
        y[mask] = rng.choice(values, size=int(mask.sum()))
    return y


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_any_finite_stack_encodes_like_the_exact_kernel(y):
    assert np.all(np.isfinite(y))
    with np.errstate(over="ignore"):  # 1e300 squares to inf
        exact = batch_codes(_ENCODER, _GOLDEN.x, y)
        assert np.array_equal(
            _encode_stack(_ENCODER, _GOLDEN, _GOLDEN.x, y), exact)
    codes, rows = _TABLE.encode(y)
    low, high = _TABLE.y_range
    in_band = np.any((y[None] >= _TABLE.lower[:, None])
                     & (y[None] < _TABLE.upper[:, None]), axis=0)
    certain = ~in_band & (y >= low) & (y <= high)
    assert np.array_equal(codes[certain], exact[certain])
    assert np.array_equal(rows, np.flatnonzero(~certain.all(axis=1)))


@pytest.mark.parametrize("k", [1, 2, 8, 64])
def test_ulps_outside_every_band_edge_are_exact(k):
    """Samples ``k`` ulps outside each band are certain and exact."""
    for edges, sign in ((_TABLE.lower, -1), (_TABLE.upper, +1)):
        for j in range(edges.shape[0]):
            finite = np.isfinite(edges[j])
            if not finite.any():
                continue
            y = _GOLDEN.y.copy()
            y[finite] = ulps(edges[j][finite], sign * k)
            y = y[None]
            exact = batch_codes(_ENCODER, _GOLDEN.x, y)
            codes, __ = _TABLE.encode(y)
            in_band = np.any((y[None] >= _TABLE.lower[:, None])
                             & (y[None] < _TABLE.upper[:, None]), axis=0)
            assert np.array_equal(codes[~in_band], exact[~in_band])
