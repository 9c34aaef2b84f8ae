"""Front-half kernels: batched synthesis and fused encoding parity.

Every kernel introduced by the array-resident front half is pinned to
its per-die reference bit for bit:

* :func:`batch_transfer` vs scalar ``BiquadFilter.transfer`` (all three
  response kinds, including DC);
* :func:`batch_biquad_traces` vs the per-die ``response()`` +
  :func:`batch_multitone_eval` flow;
* :func:`batch_netlist_traces` vs per-cut netlist responses;
* the fused :func:`monitor_bank_codes` vs ``encoder.code`` and the
  retained PR 2 reference loop -- including hypothesis-driven random
  traces and Monte Carlo-varied banks;
* engine NDFs for every population kind vs the refine-off
  :class:`SignatureTester` per-die loop.

The certified fast front half is pinned at the code level instead:
:func:`shared_basis_traces` stays within its own error bound of
:func:`batch_biquad_traces`, and the threshold table's codes equal
the exact kernel's on every sample it does not send back -- at every
breakpoint and 1-64 ulps around it, at the guard-band edges, with
overlapping bands, and for non-finite and out-of-domain samples.  A
guard band widened past the signal range forces every row through the
exact fallback, which must stay bit-identical to the per-die flow for
every population kind and executor.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignEngine,
    CutListPopulation,
    GoldenCache,
    ProcessPoolExecutor,
    ScreeningRequest,
    SharedMemoryExecutor,
    batch_biquad_traces,
    batch_codes,
    batch_multitone_eval,
    batch_netlist_traces,
    deviation_sweep_population,
    fault_dictionary,
    montecarlo_dies,
    montecarlo_monitor_banks,
    parameter_grid,
    shared_basis_traces,
    temperature_corners,
    trace_population,
)
from repro.campaign.engine import _encode_stack
from repro.core.boundaries import LinearBoundary
from repro.core.testflow import SignatureTester
from repro.core.zones import ZoneEncoder
from repro.devices.process import MonteCarloSampler
from repro.filters.biquad import (
    BiquadFilter,
    BiquadKind,
    BiquadSpec,
    batch_transfer,
)
from repro.filters.towthomas import TowThomasValues
from repro.monitor import bank_encode
from repro.monitor.bank_encode import (
    CERTIFY_FACTOR,
    GUARD_BAND,
    ThresholdTable,
    monitor_bank_codes,
    monitor_bank_codes_reference,
    threshold_table,
)
from repro.monitor.comparator import MonitorBoundary, MonitorConfig
from repro.monitor.configurations import table1_bank, table1_encoder
from repro.obs.metrics import default_registry
from repro.monitor.montecarlo import bank_samples
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

# The adversarial row builders live with the front-half differential.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
from front_half_differential import pinned_rows  # noqa: E402

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture(scope="module")
def engine():
    return CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                     PAPER_BIQUAD,
                                     samples_per_period=SAMPLES,
                                     cache=GoldenCache())


def _mixed_specs(count=40, seed=11):
    rng = np.random.default_rng(seed)
    specs = []
    for kind in (BiquadKind.LOWPASS, BiquadKind.BANDPASS,
                 BiquadKind.HIGHPASS):
        for __ in range(count // 3):
            specs.append(BiquadSpec(
                f0_hz=float(rng.uniform(2e3, 40e3)),
                q=float(rng.uniform(0.4, 4.0)),
                gain=float(rng.uniform(0.2, 2.5)),
                kind=kind))
    return specs


# ----------------------------------------------------------------------
# Transfer + trace synthesis
# ----------------------------------------------------------------------
def test_batch_transfer_bit_identical_to_scalar():
    """Vectorized H must equal Python-complex transfer() exactly."""
    specs = _mixed_specs()
    for freq in (0.0, 5e3, 11e3, 15e3, 123456.789):
        h_re, h_im = batch_transfer(specs, freq)
        for i, spec in enumerate(specs):
            h = BiquadFilter(spec).transfer(freq)
            assert h.real == h_re[i] and h.imag == h_im[i], \
                (spec, freq)


def test_batch_transfer_groups_mixed_kinds():
    specs = _mixed_specs(30)
    h_re, h_im = batch_transfer(specs, 7e3)
    by_kind = {}
    for kind in set(s.kind for s in specs):
        idx = [i for i, s in enumerate(specs) if s.kind is kind]
        sub_re, sub_im = batch_transfer([specs[i] for i in idx], 7e3)
        by_kind[kind] = (idx, sub_re, sub_im)
    for idx, sub_re, sub_im in by_kind.values():
        assert np.array_equal(h_re[idx], sub_re)
        assert np.array_equal(h_im[idx], sub_im)


def test_batch_biquad_traces_bit_identical_to_per_die(engine):
    """Object-free synthesis == per-die response() + multitone eval."""
    golden = engine.golden()
    population = montecarlo_dies(PAPER_BIQUAD, 24, sigma_f0=0.05,
                                 sigma_q=0.1, seed=3)
    fused = batch_biquad_traces(population.specs, PAPER_STIMULUS,
                                golden.times)
    responses = [BiquadFilter(s).response(PAPER_STIMULUS)
                 for s in population.specs]
    reference = batch_multitone_eval(responses, golden.times)
    assert np.array_equal(fused, reference)


def test_batch_biquad_traces_all_kinds(engine):
    """Band-pass/high-pass populations synthesize exactly too."""
    golden = engine.golden()
    specs = _mixed_specs(24, seed=5)
    fused = batch_biquad_traces(specs, PAPER_STIMULUS, golden.times)
    responses = [BiquadFilter(s).response(PAPER_STIMULUS) for s in specs]
    reference = batch_multitone_eval(responses, golden.times)
    assert np.array_equal(fused, reference)


def test_batch_biquad_traces_empty(engine):
    golden = engine.golden()
    out = batch_biquad_traces([], PAPER_STIMULUS, golden.times)
    assert out.shape == (0, golden.times.size)


def test_batch_netlist_traces_bit_identical(engine):
    """Stacked MNA synthesis == per-cut netlist response loop."""
    golden = engine.golden()
    population, __ = fault_dictionary(
        TowThomasValues.from_spec(PAPER_BIQUAD))
    fused = batch_netlist_traces(population.cuts, PAPER_STIMULUS,
                                 golden.times)
    assert fused is not None
    responses = [cut.response(PAPER_STIMULUS) for cut in population.cuts]
    reference = batch_multitone_eval(responses, golden.times)
    assert np.array_equal(fused, reference)


def test_batch_netlist_traces_rejects_non_netlist(engine):
    golden = engine.golden()
    cuts = [BiquadFilter(PAPER_BIQUAD)]
    assert batch_netlist_traces(cuts, PAPER_STIMULUS,
                                golden.times) is None


# ----------------------------------------------------------------------
# Fused bank encoding
# ----------------------------------------------------------------------
def _paper_trace_stack(engine, n=8, seed=2):
    golden = engine.golden()
    population = montecarlo_dies(PAPER_BIQUAD, n, sigma_f0=0.06,
                                 seed=seed)
    y = batch_biquad_traces(population.specs, PAPER_STIMULUS,
                            golden.times)
    return golden.x, np.array(y)


def test_fused_codes_match_reference_and_generic(engine):
    encoder = table1_encoder()
    x, y = _paper_trace_stack(engine)
    fused = monitor_bank_codes(encoder, x, y)
    reference = monitor_bank_codes_reference(encoder, x, y)
    generic = encoder.code(np.broadcast_to(x, y.shape), y)
    assert np.array_equal(fused, reference)
    assert np.array_equal(fused, generic)
    assert fused.dtype == np.int64


def test_fused_codes_2d_x_stack(engine):
    """The noisy-capture path hands a full (N, T) X stack."""
    encoder = table1_encoder()
    x, y = _paper_trace_stack(engine, n=6)
    rng = np.random.default_rng(0)
    x2 = np.broadcast_to(x, y.shape) + rng.normal(0.0, 0.01, y.shape)
    fused = monitor_bank_codes(encoder, x2, y)
    reference = monitor_bank_codes_reference(encoder, x2, y)
    assert np.array_equal(fused, reference)
    assert np.array_equal(fused, encoder.code(x2, y))


def test_fused_codes_montecarlo_varied_bank(engine):
    """Per-device model cards get private cache slots, never shared."""
    x, y = _paper_trace_stack(engine, n=5, seed=9)
    varied = bank_samples(table1_bank(), MonteCarloSampler(rng=4), 3)
    for bank in varied:
        encoder = ZoneEncoder(bank)
        fused = monitor_bank_codes(encoder, x, y)
        assert np.array_equal(fused,
                              encoder.code(np.broadcast_to(x, y.shape),
                                           y))


def test_fused_codes_single_row(engine):
    encoder = table1_encoder()
    x, y = _paper_trace_stack(engine, n=1)
    fused = monitor_bank_codes(encoder, x, y)
    assert np.array_equal(fused, encoder.code(np.broadcast_to(x, y.shape),
                                              y))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
       st.floats(0.2, 3.0))
def test_fused_codes_random_traces_hypothesis(seed, rows, span):
    """Random point clouds (including boundary-straddling values)."""
    rng = np.random.default_rng(seed)
    encoder = table1_encoder()
    x = rng.uniform(-0.2, span, 64)
    y = rng.uniform(-0.2, span, (rows, 64))
    fused = monitor_bank_codes(encoder, x, y)
    reference = monitor_bank_codes_reference(encoder, x, y)
    generic = encoder.code(np.broadcast_to(x, y.shape), y)
    assert np.array_equal(fused, reference)
    assert np.array_equal(fused, generic)


# ----------------------------------------------------------------------
# Engine equivalence across population kinds
# ----------------------------------------------------------------------
def _per_die_reference(engine, cuts):
    tester = SignatureTester(engine.config.encoder, PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=SAMPLES, refine=False)
    return np.asarray([tester.ndf_of(cut) for cut in cuts])


@pytest.mark.parametrize("population_factory", [
    lambda: montecarlo_dies(PAPER_BIQUAD, 10, sigma_f0=0.04, seed=21),
    lambda: deviation_sweep_population(PAPER_BIQUAD,
                                       [-0.12, -0.04, 0.04, 0.12]),
    lambda: parameter_grid(PAPER_BIQUAD, [-0.05, 0.05], [-0.1, 0.1]),
], ids=["montecarlo", "sweep", "grid"])
def test_spec_population_kinds_bit_identical(engine, population_factory):
    population = population_factory()
    result = engine.run(population, band=None)
    reference = _per_die_reference(
        engine, [BiquadFilter(s) for s in population.specs])
    assert np.array_equal(result.ndfs, reference)


def test_fault_population_bit_identical(engine):
    population, __ = fault_dictionary(
        TowThomasValues.from_spec(PAPER_BIQUAD))
    result = engine.run(population, band=None)
    reference = _per_die_reference(engine, population.cuts)
    assert np.array_equal(result.ndfs, reference)


def test_mixed_cut_population_falls_back(engine):
    """Netlist + behavioural cuts in one list: per-cut path, same NDFs."""
    values = TowThomasValues.from_spec(PAPER_BIQUAD)
    netlist_pop, __ = fault_dictionary(values)
    cuts = [netlist_pop.cuts[0], BiquadFilter(
        PAPER_BIQUAD.with_f0_deviation(0.08))]
    population = CutListPopulation(cuts, ["fault", "behavioural"])
    result = engine.run(population, band=None)
    reference = _per_die_reference(engine, cuts)
    assert np.array_equal(result.ndfs, reference)


def test_encoder_population_kinds_still_run(engine):
    """Monitor-MC and corner banks keep their nonzero-margin NDFs."""
    mc = engine.run(montecarlo_monitor_banks(table1_bank(), 3, seed=2),
                    band=None)
    corners = engine.run(temperature_corners([248.15, 398.15]),
                         band=None)
    assert mc.ndfs.shape == (3,)
    assert corners.ndfs.shape == (2,)
    assert np.all(np.isfinite(mc.ndfs))
    assert np.all(np.isfinite(corners.ndfs))


# ----------------------------------------------------------------------
# Shared-basis traces
# ----------------------------------------------------------------------
def test_shared_basis_traces_stay_within_their_bound(engine):
    """The GEMM synthesis is not bit-identical, but every row stays
    inside its stated bound, itself far inside the guard band."""
    golden = engine.golden()
    specs = (list(montecarlo_dies(PAPER_BIQUAD, 30, sigma_f0=0.08,
                                  sigma_q=0.1, seed=31).specs)
             + _mixed_specs(30, seed=7))
    fast, bound = shared_basis_traces(specs, PAPER_STIMULUS,
                                      golden.times)
    exact = batch_biquad_traces(specs, PAPER_STIMULUS, golden.times)
    assert fast.shape == exact.shape and bound.shape == (len(specs),)
    assert np.all(np.abs(fast - exact) <= bound[:, None])
    assert np.all(CERTIFY_FACTOR * bound <= GUARD_BAND)


def test_shared_basis_traces_empty(engine):
    golden = engine.golden()
    fast, bound = shared_basis_traces([], PAPER_STIMULUS, golden.times)
    assert fast.shape == (0, golden.times.size) and bound.shape == (0,)


# ----------------------------------------------------------------------
# Threshold-table encoding
# ----------------------------------------------------------------------
def _in_band(table, y):
    return np.any((y[None] >= table.lower[:, None])
                  & (y[None] < table.upper[:, None]), axis=0)


def _assert_table_matches_exact(table, encoder, x, y):
    """Table codes equal the exact kernel on every certain sample, and
    exactly the rows holding an uncertain sample are sent back."""
    codes, rows = table.encode(y)
    exact = monitor_bank_codes(encoder, x, y)
    assert np.array_equal(exact,
                          encoder.code(np.broadcast_to(x, y.shape), y))
    low, high = table.y_range
    with np.errstate(invalid="ignore"):
        certain = ~_in_band(table, y) & (y >= low) & (y <= high)
    assert np.array_equal(codes[certain], exact[certain])
    assert np.array_equal(rows, np.flatnonzero(~certain.all(axis=1)))
    return rows


def test_paper_bank_table_is_built_and_certified(engine):
    table = engine.golden().table
    assert isinstance(table, ThresholdTable)
    steps = np.isfinite(table.breakpoints)
    assert steps.sum(axis=0).max() <= 5  # the paper bank's zone map
    assert not np.any(table.lower == -np.inf)  # nothing uncertifiable
    half_width = table.upper[steps] - table.breakpoints[steps]
    assert np.all(half_width >= GUARD_BAND * (1 - 1e-6))
    assert table.base.dtype == np.uint8
    low, high = table.y_range
    assert low < engine.golden().y.min() and engine.golden().y.max() < high


def test_table_sends_breakpoints_and_nearby_ulps_back(engine):
    """Samples at every breakpoint and 1..64 ulps either side sit in
    the guard band: every such row takes the exact path."""
    golden = engine.golden()
    table = golden.table
    y = pinned_rows(golden, table.breakpoints,
                     [0, *range(1, 65, 9), 64, *range(-64, 0, 9)])
    rows = _assert_table_matches_exact(table, table1_encoder(),
                                       golden.x, y)
    assert rows.size == y.shape[0]
    codes = _encode_stack(table1_encoder(), golden, golden.x, y)
    assert np.array_equal(codes, batch_codes(table1_encoder(),
                                             golden.x, y))


@pytest.mark.parametrize("edge_name", ["lower", "upper"])
def test_table_codes_exact_just_outside_the_guard_band(engine,
                                                      edge_name):
    """Samples one ulp beyond either band edge are encoded by the
    table alone and must match the exact kernel."""
    golden = engine.golden()
    table = golden.table
    y = pinned_rows(golden, getattr(table, edge_name),
                     [-3, -2, -1, 0, 1, 2, 3])
    rows = _assert_table_matches_exact(table, table1_encoder(),
                                       golden.x, y)
    if edge_name == "upper":  # y >= upper is outside the band
        pinned = pinned_rows(golden, table.upper, [0, 1, 3])
        assert not _in_band(table, pinned).any()
    assert rows.size < y.shape[0]


def test_overlapping_guard_bands(engine, monkeypatch):
    """Bands wide enough to overlap across boundaries still flag and
    encode correctly."""
    golden = engine.golden()
    monkeypatch.setattr(bank_encode, "GUARD_BAND", 0.05)
    table = threshold_table(table1_encoder(), golden.x)
    lo, hi = table.lower, table.upper
    overlap = ((lo[:, None] < hi[None]) & (lo[None] < hi[:, None])
               & ~np.eye(lo.shape[0], dtype=bool)[:, :, None]
               & np.isfinite(lo)[:, None] & np.isfinite(lo)[None])
    assert overlap.any()
    rng = np.random.default_rng(5)
    y = np.concatenate([
        pinned_rows(golden, table.breakpoints, [-1, 0, 1]),
        pinned_rows(golden, table.lower, [-1, 0, 1]),
        pinned_rows(golden, table.upper, [-1, 0, 1]),
        rng.uniform(-0.2, 1.3, (16, golden.x.size))])
    _assert_table_matches_exact(table, table1_encoder(), golden.x, y)


def test_table_sends_nonfinite_and_out_of_domain_rows_back(engine):
    golden = engine.golden()
    table = golden.table
    low, high = table.y_range
    bad = [np.nan, np.inf, -np.inf, low - 1e-3, high + 1e-3]
    y = np.repeat(golden.y[None], len(bad) + 1, axis=0)
    for row, value in enumerate(bad, start=1):
        y[row, 7 * row] = value
    codes, rows = table.encode(y)
    assert rows.tolist() == list(range(1, len(bad) + 1))
    assert np.array_equal(codes[0], golden.codes)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(
            _encode_stack(table1_encoder(), golden, golden.x, y),
            batch_codes(table1_encoder(), golden.x, y))


def test_trace_error_bound_gates_rows(engine):
    golden = engine.golden()
    y = np.repeat(golden.y[None], 4, axis=0)
    limit = GUARD_BAND / CERTIFY_FACTOR
    __, rows = golden.table.encode(
        y, np.array([0.0, 0.5 * limit, 2.0 * limit, np.nan]))
    assert rows.tolist() == [2, 3]


def test_table_needs_a_monotone_monitor_bank(engine):
    x = engine.golden().x
    lines = ZoneEncoder([LinearBoundary("l1", 1.0, -1.0, 0.1),
                         LinearBoundary("l2", 1.0, 1.0, -0.9)])
    two_y = ZoneEncoder([MonitorBoundary(MonitorConfig(
        (1800.0,) * 4, ("y", "y", "x", 0.3)))])
    nine = ZoneEncoder(table1_bank() + table1_bank()[:3])
    assert threshold_table(lines, x) is None
    assert threshold_table(two_y, x) is None
    assert threshold_table(nine, x) is None
    assert threshold_table(table1_encoder(), np.stack([x, x])) is None
    assert threshold_table(table1_encoder(), x) is not None


def test_noise_and_varied_banks_take_the_exact_path(engine, monkeypatch):
    """2-D noisy ``x`` stacks and Monte Carlo-varied banks never
    consult the table."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("threshold table consulted")

    monkeypatch.setattr(ThresholdTable, "encode", refuse)
    population = montecarlo_dies(PAPER_BIQUAD, 3, sigma_f0=0.04, seed=8)
    with pytest.raises(AssertionError, match="consulted"):
        engine.run(population, band=None)
    noisy = engine.submit(ScreeningRequest(
        population=population, mode="noise", repeats=2, noise=0.015, seed=1,
        band=None))
    assert noisy.ndf_matrix.shape == (3, 2)
    banks = engine.run(montecarlo_monitor_banks(table1_bank(), 2, seed=3),
                       band=None)
    assert banks.ndfs.shape == (2,)


def _exact_rows_total():
    return default_registry().counter("encode_rows_total",
                                      path="exact").value


def test_forced_fallback_bit_identical_for_every_kind_and_executor(
        monkeypatch):
    """A guard band wider than the signal range sends every row back
    through the exact traces and encoder; NDFs and verdicts must still
    equal the per-die flow for every population kind and executor."""
    monkeypatch.setattr(bank_encode, "GUARD_BAND", 10.0)
    specs_mc = montecarlo_dies(PAPER_BIQUAD, 6, sigma_f0=0.05, seed=12)
    populations = {
        "montecarlo": (specs_mc, specs_mc.specs),
        "sweep": (deviation_sweep_population(PAPER_BIQUAD, [-0.1, 0.1]),
                  None),
        "grid": (parameter_grid(PAPER_BIQUAD, [-0.05, 0.05], [0.1]),
                 None),
    }
    faults, __ = fault_dictionary(TowThomasValues.from_spec(PAPER_BIQUAD))
    faults = CutListPopulation(faults.cuts[:4], faults.labels[:4])
    reference_engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=SAMPLES, cache=GoldenCache())
    assert reference_engine.golden().table.guard == 10.0
    band = reference_engine.band()
    tester = SignatureTester(table1_encoder(), PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=SAMPLES, refine=False)

    def per_die(cuts):
        measured = [tester.measure(cut, band) for cut in cuts]
        return (np.array([m.ndf for m in measured]),
                np.array([m.verdict.passed for m in measured]))

    cases = []
    for name, (population, specs) in populations.items():
        specs = population.specs if specs is None else specs
        cases.append((name, population,
                      per_die([BiquadFilter(s) for s in specs])))
    traces = batch_biquad_traces(specs_mc.specs, PAPER_STIMULUS,
                                 reference_engine.golden().times)
    cases.append(("traces", trace_population(np.array(traces)),
                  per_die([BiquadFilter(s) for s in specs_mc.specs])))
    cases.append(("faults", faults, per_die(faults.cuts)))

    for executor_cls in (None, ProcessPoolExecutor, SharedMemoryExecutor):
        pool = None if executor_cls is None else executor_cls(max_workers=2)
        try:
            engine = CampaignEngine.from_parts(
                table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
                samples_per_period=SAMPLES, cache=GoldenCache(),
                executor=pool)
            for name, population, (ndfs, verdicts) in cases:
                before = _exact_rows_total()
                result = engine.run(population, band=band)
                assert np.array_equal(result.ndfs, ndfs), name
                assert np.array_equal(result.verdicts, verdicts), name
                if pool is None:
                    assert _exact_rows_total() - before \
                        == len(ndfs), name
        finally:
            if pool is not None:
                pool.shutdown()


def test_uncertified_traces_are_resynthesized_exactly(engine, monkeypatch):
    """Rows whose synthesis bound fails certification are re-encoded
    from exact traces, never from the synthesized ones."""
    import repro.campaign.engine as engine_module

    def off_by_50mv(specs, stimulus, times):
        y, bound = shared_basis_traces(specs, stimulus, times)
        return y + 0.05, bound + 1.0

    monkeypatch.setattr(engine_module, "shared_basis_traces",
                        off_by_50mv)
    population = montecarlo_dies(PAPER_BIQUAD, 6, sigma_f0=0.05, seed=19)
    before = _exact_rows_total()
    result = engine.run(population, band=None)
    assert _exact_rows_total() - before == 6
    reference = _per_die_reference(
        engine, [BiquadFilter(s) for s in population.specs])
    assert np.array_equal(result.ndfs, reference)


def test_bank_without_table_screens_exact_traces(monkeypatch):
    """A straight-line bank has no threshold table: spec populations
    then run one exact synthesis and encode (the shared-basis kernel
    is never called), bit-identical to the per-die flow."""
    import repro.campaign.engine as engine_module

    def never(specs, stimulus, times):
        raise AssertionError("shared-basis traces without a table")

    monkeypatch.setattr(engine_module, "shared_basis_traces", never)
    lines = ZoneEncoder([LinearBoundary("l1", 1.0, -1.0, 0.05),
                         LinearBoundary("l2", 1.0, 1.0, -1.0)])
    engine = CampaignEngine.from_parts(lines, PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    assert engine.golden().table is None
    population = montecarlo_dies(PAPER_BIQUAD, 6, sigma_f0=0.08, seed=4)
    result = engine.run(population, band=None)
    tester = SignatureTester(lines, PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=SAMPLES, refine=False)
    reference = [tester.ndf_of(BiquadFilter(s)) for s in population.specs]
    assert np.array_equal(result.ndfs, reference)
    assert np.any(result.ndfs > 0)
