"""Campaign engine: equivalence with the per-die flow, edge cases."""

import numpy as np
import pytest

from repro.campaign import (
    CampaignEngine,
    CutListPopulation,
    EncoderPopulation,
    GoldenCache,
    ScreeningRequest,
    deviation_sweep_population,
    fault_dictionary,
    montecarlo_dies,
    montecarlo_monitor_banks,
    parameter_grid,
    temperature_corners,
    trace_population,
)
from repro.core.decision import DecisionBand
from repro.core.testflow import SignatureTester
from repro.devices.process import MonteCarloSampler
from repro.filters.biquad import BiquadFilter
from repro.filters.towthomas import TowThomasValues
from repro.monitor.configurations import table1_bank, table1_encoder
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

pytestmark = pytest.mark.campaign

SAMPLES = 1024


@pytest.fixture(scope="module")
def engine():
    return CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                     PAPER_BIQUAD,
                                     samples_per_period=SAMPLES,
                                     cache=GoldenCache())


def test_bit_identical_with_per_die_flow(engine):
    """Batched NDFs must equal the serial refine-off flow bit for bit."""
    population = montecarlo_dies(PAPER_BIQUAD, 12, sigma_f0=0.04,
                                 seed=5)
    result = engine.run(population, band=None)
    tester = SignatureTester(table1_encoder(), PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=SAMPLES, refine=False)
    serial = np.asarray([tester.ndf_of(BiquadFilter(s))
                         for s in population.specs])
    assert np.array_equal(serial, result.ndfs)


def test_close_to_refined_flow(engine):
    """Grid quantization keeps NDFs within a small gap of refined."""
    population = deviation_sweep_population(
        PAPER_BIQUAD, [-0.10, -0.05, 0.05, 0.10])
    result = engine.run(population, band=None)
    tester = SignatureTester(table1_encoder(), PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=SAMPLES, refine=True)
    refined = np.asarray(
        [tester.ndf_of(BiquadFilter(s)) for s in population.specs])
    assert np.max(np.abs(refined - result.ndfs)) < 0.01


def _golden_populations(engine, n):
    """``n`` golden-unit dies as each population kind."""
    return {
        "spec": montecarlo_dies(PAPER_BIQUAD, n, sigma_f0=0.0),
        "trace": trace_population(
            np.repeat(engine.golden().y[None, :], n, axis=0)),
        "cut": CutListPopulation([BiquadFilter(PAPER_BIQUAD)] * n,
                                 [f"cut{i}" for i in range(n)]),
        "encoder": EncoderPopulation([table1_encoder()] * n,
                                     [f"bank{i}" for i in range(n)]),
    }


def _assert_result_fields(kind, result, keep_signatures, stages):
    """Field shapes every population kind must keep."""
    assert result.executor == "serial"
    if kind == "spec":
        assert result.f0_deviations.shape == (result.num_dies,)
        assert result.q_deviations.shape == (result.num_dies,)
    else:
        assert result.f0_deviations is None
        assert result.q_deviations is None
    assert set(result.timing) == stages | {"total"}
    if keep_signatures:
        assert len(result.signature_batch) == result.num_dies
    else:
        assert result.signature_batch is None


def test_empty_population(engine):
    result = engine.run(montecarlo_dies(PAPER_BIQUAD, 0), band="auto")
    assert result.num_dies == 0
    assert result.ndfs.shape == (0,)
    assert result.verdicts.shape == (0,)
    assert result.pass_rate == 1.0
    assert np.isnan(result.ndf_percentile(95))
    for keep in (False, True):
        for kind, population in _golden_populations(engine, 0).items():
            result = engine.run(population, band="auto",
                                keep_signatures=keep)
            assert result.ndfs.shape == (0,)
            assert result.labels == []
            _assert_result_fields(kind, result, keep, {"golden"})
    noisy = engine.submit(ScreeningRequest(
        population=montecarlo_dies(PAPER_BIQUAD, 0), mode="noise",
        repeats=3, band="auto"))
    assert noisy.ndf_matrix.shape == (0, 3)
    assert noisy.labels == []
    assert noisy.executor == "serial"
    assert set(noisy.timing) == {"total"}


def test_single_die(engine):
    result = engine.run(montecarlo_dies(PAPER_BIQUAD, 1, sigma_f0=0.0),
                        band="auto")
    assert result.num_dies == 1
    # A zero-deviation die is the golden unit: NDF must be exactly 0.
    assert result.ndfs[0] == 0.0
    assert bool(result.verdicts[0])
    back_half = {"golden", "encode", "signature", "ndf"}
    stages = {"spec": back_half | {"traces"}, "trace": back_half,
              "cut": back_half | {"traces"}, "encoder": back_half}
    for keep in (False, True):
        for kind, population in _golden_populations(engine, 1).items():
            result = engine.run(population, band="auto",
                                keep_signatures=keep)
            assert result.ndfs.tolist() == [0.0]
            assert result.labels == population.labels
            _assert_result_fields(kind, result, keep, stages[kind])
    population = _golden_populations(engine, 1)["spec"]
    noisy = engine.submit(ScreeningRequest(
        population=population, mode="noise", repeats=3, noise=0.0,
        band="auto"))
    assert noisy.ndf_matrix.tolist() == [[0.0, 0.0, 0.0]]
    assert noisy.labels == population.labels
    assert noisy.executor == "serial"
    assert set(noisy.timing) == stages["spec"] | {"noise", "total"}


def test_band_modes(engine):
    population = deviation_sweep_population(PAPER_BIQUAD, [0.0, 0.15])
    no_band = engine.run(population, band=None)
    assert no_band.verdicts is None
    assert no_band.threshold is None
    explicit = engine.run(population, band=DecisionBand(0.05))
    assert explicit.threshold == 0.05
    raw = engine.run(population, band=0.05)
    assert np.array_equal(explicit.verdicts, raw.verdicts)
    auto = engine.run(population, band="auto")
    assert auto.verdicts[0] and not auto.verdicts[1]


def test_raw_spec_list(engine):
    specs = [PAPER_BIQUAD, PAPER_BIQUAD.with_f0_deviation(0.2)]
    result = engine.run(specs, band="auto")
    assert result.num_dies == 2
    assert result.ndfs[0] == 0.0
    assert not result.verdicts[1]


def test_deterministic_seeding_is_chunk_invariant():
    """Die i's parameters depend on (seed, i) only."""
    small = montecarlo_dies(PAPER_BIQUAD, 5, sigma_f0=0.03, seed=9)
    large = montecarlo_dies(PAPER_BIQUAD, 50, sigma_f0=0.03, seed=9)
    assert np.array_equal(small.f0_deviations,
                          large.f0_deviations[:5])
    other_seed = montecarlo_dies(PAPER_BIQUAD, 5, sigma_f0=0.03,
                                 seed=10)
    assert not np.array_equal(small.f0_deviations,
                              other_seed.f0_deviations)


def test_monitor_variation_measures_nonzero_margin(engine):
    """Varied banks vs the nominal golden: margin loss is visible."""
    population = montecarlo_monitor_banks(
        table1_bank(), 4, sampler=MonteCarloSampler(rng=0))
    result = engine.run(population, band=None)
    assert result.num_dies == 4
    assert np.all(result.ndfs > 0)
    assert np.all(result.ndfs < 0.15)


def test_temperature_corner_labels(engine):
    result = engine.run(temperature_corners([233.15, 398.15]),
                        band=None)
    assert result.labels == ["-40C", "+125C"]
    assert np.all(result.ndfs >= 0)


def test_fault_dictionary_matches_per_die_coverage(engine):
    """The batched fault campaign reproduces catastrophic_coverage."""
    from repro.analysis import catastrophic_coverage

    values = TowThomasValues.from_spec(PAPER_BIQUAD)
    band = DecisionBand(0.05)
    population, faults = fault_dictionary(values)
    result = engine.run(population, band=band)

    tester = SignatureTester(table1_encoder(), PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=SAMPLES, refine=False)
    rows = catastrophic_coverage(tester, values, band, faults)
    per_die = np.asarray([r.ndf for r in rows])
    assert np.array_equal(per_die, result.ndfs)
    assert [not v for v in result.verdicts] == [r.detected for r in rows]


def test_parameter_grid_row_major(engine):
    population = parameter_grid(PAPER_BIQUAD, [-0.1, 0.1], [0.0])
    assert len(population) == 2
    assert np.array_equal(population.q_deviations, [0.0, 0.0])
    result = engine.run(population, band=None)
    assert np.all(result.ndfs > 0)


def test_timing_sections_recorded(engine):
    result = engine.run(montecarlo_dies(PAPER_BIQUAD, 3), band=None)
    assert result.timing["total"] > 0
    assert "golden" in result.timing
    for stage in ("traces", "encode", "signature", "ndf"):
        assert result.timing[stage] >= 0
    assert result.dies_per_second() > 0


# ----------------------------------------------------------------------
# Streaming
# ----------------------------------------------------------------------
def test_streamed_run_bit_identical_to_monolithic(engine):
    from repro.campaign import stream_montecarlo_dies

    monolithic = engine.run(
        montecarlo_dies(PAPER_BIQUAD, 40, sigma_f0=0.03, seed=21),
        band="auto")
    streamed = engine.submit(ScreeningRequest(
        population=stream_montecarlo_dies(PAPER_BIQUAD, 40, chunk_size=7,
                                          sigma_f0=0.03, seed=21),
        mode="stream", band="auto"))
    assert np.array_equal(monolithic.ndfs, streamed.ndfs)
    assert np.array_equal(monolithic.verdicts, streamed.verdicts)
    assert monolithic.labels == streamed.labels
    assert np.array_equal(monolithic.f0_deviations,
                          streamed.f0_deviations)
    assert streamed.executor.endswith("+stream")


def test_run_accepts_iterator_of_raw_specs(engine):
    """PR 1 behaviour preserved: a spec iterator is not a stream."""
    specs = [PAPER_BIQUAD, PAPER_BIQUAD.with_f0_deviation(0.2)]
    result = engine.run(iter(specs), band="auto")
    assert result.num_dies == 2
    assert not result.executor.endswith("+stream")
    reference = engine.run(specs, band="auto")
    assert np.array_equal(result.ndfs, reference.ndfs)
    empty = engine.run(iter(()), band="auto")
    assert empty.num_dies == 0


def test_run_dispatches_generators_to_stream(engine):
    from repro.campaign import stream_montecarlo_dies

    result = engine.run(stream_montecarlo_dies(PAPER_BIQUAD, 9,
                                               chunk_size=4, seed=2),
                        band="auto")
    assert result.num_dies == 9
    assert result.executor.endswith("+stream")


def test_stream_generator_matches_monolithic_dies():
    from repro.campaign import stream_montecarlo_dies

    whole = montecarlo_dies(PAPER_BIQUAD, 25, sigma_f0=0.04, seed=6)
    chunks = list(stream_montecarlo_dies(PAPER_BIQUAD, 25,
                                         chunk_size=10, sigma_f0=0.04,
                                         seed=6))
    assert [len(c) for c in chunks] == [10, 10, 5]
    streamed_devs = np.concatenate([c.f0_deviations for c in chunks])
    assert np.array_equal(whole.f0_deviations, streamed_devs)
    streamed_labels = [label for c in chunks for label in c.labels]
    assert whole.labels == streamed_labels


def test_empty_stream(engine):
    result = engine.submit(ScreeningRequest(
        population=iter(()), mode="stream", band="auto"))
    assert result.num_dies == 0
    assert result.verdicts.shape == (0,)
    assert result.executor == "serial+stream"
    assert result.f0_deviations.shape == (0,)
    assert set(result.timing) == {"total"}


def test_streamed_raw_spec_chunks_get_global_labels(engine):
    chunks = iter([[PAPER_BIQUAD, PAPER_BIQUAD],
                   [PAPER_BIQUAD.with_f0_deviation(0.2)]])
    result = engine.submit(ScreeningRequest(
        population=chunks, mode="stream", band=None))
    assert result.labels == ["die00000", "die00001", "die00002"]


# ----------------------------------------------------------------------
# Trace populations (measured waveform stacks)
# ----------------------------------------------------------------------
def test_trace_population_matches_spec_population(engine):
    from repro.campaign.batch import batch_multitone_eval

    population = montecarlo_dies(PAPER_BIQUAD, 10, sigma_f0=0.04,
                                 seed=8)
    via_specs = engine.run(population, band="auto")
    golden = engine.golden()
    responses = [BiquadFilter(s).response(PAPER_STIMULUS)
                 for s in population.specs]
    stack = batch_multitone_eval(responses, golden.times)
    via_traces = engine.run(trace_population(stack), band="auto")
    assert np.array_equal(via_specs.ndfs, via_traces.ndfs)
    assert np.array_equal(via_specs.verdicts, via_traces.verdicts)


# ----------------------------------------------------------------------
# Noise campaigns (Section IV-C repeats)
# ----------------------------------------------------------------------
def test_noise_campaign_matches_per_die_reference(engine):
    """The (N, R) stack equals a per-die loop with the same seeding."""
    from repro.campaign.batch import (
        batch_codes,
        batch_extract,
        batch_multitone_eval,
    )

    population = montecarlo_dies(PAPER_BIQUAD, 4, sigma_f0=0.04,
                                 seed=3)
    repeats, three_sigma, seed = 3, 0.015, 11
    result = engine.submit(ScreeningRequest(
        population=population, mode="noise", repeats=repeats,
        noise=three_sigma, seed=seed, band=None))
    assert result.ndf_matrix.shape == (4, repeats)

    from repro.campaign.engine import NOISE_SEED_DOMAIN

    golden = engine.golden()
    sigma = three_sigma / 3.0
    children = np.random.SeedSequence(
        [seed, NOISE_SEED_DOMAIN]).spawn(len(population))
    for i, (spec, child) in enumerate(zip(population.specs, children)):
        rng = np.random.default_rng(child)
        noise = rng.normal(0.0, sigma,
                           size=(repeats, 2, golden.times.size))
        response = BiquadFilter(spec).response(PAPER_STIMULUS)
        y = batch_multitone_eval([response], golden.times)[0]
        for r in range(repeats):
            codes = batch_codes(engine.config.encoder,
                                golden.x + noise[r, 0],
                                (y + noise[r, 1])[None, :])
            batch = batch_extract(golden.times, codes, golden.period)
            expected = batch.ndf_to(golden.signature)[0]
            assert result.ndf_matrix[i, r] == expected


def test_noise_campaign_chunk_invariant(engine):
    """Die seeding must not depend on the engine's chunking."""
    import dataclasses

    from repro.campaign import CampaignEngine, GoldenCache

    population = montecarlo_dies(PAPER_BIQUAD, 6, sigma_f0=0.03,
                                 seed=4)
    small_chunks = CampaignEngine(
        dataclasses.replace(engine.config, chunk_size=4),
        cache=GoldenCache())
    one = engine.submit(ScreeningRequest(
        population=population, mode="noise", repeats=4, seed=9, band=None))
    other = small_chunks.submit(ScreeningRequest(
        population=population, mode="noise", repeats=4, seed=9, band=None))
    assert np.array_equal(one.ndf_matrix, other.ndf_matrix)


def test_noise_campaign_zero_noise_collapses_to_clean(engine):
    population = montecarlo_dies(PAPER_BIQUAD, 5, sigma_f0=0.04,
                                 seed=5)
    clean = engine.run(population, band="auto")
    noisy = engine.submit(ScreeningRequest(
        population=population, mode="noise", repeats=2, noise=0.0,
        band="auto"))
    assert np.array_equal(noisy.ndf_matrix[:, 0], clean.ndfs)
    assert np.array_equal(noisy.ndf_matrix[:, 1], clean.ndfs)
    assert np.array_equal(noisy.detection_rates() == 0.0,
                          clean.verdicts)


def test_noise_is_decorrelated_from_die_parameters(engine):
    """Same user seed for dies and noise must not correlate them.

    Regression: noise children used to spawn from the bare
    ``SeedSequence(seed)`` -- identical to ``montecarlo_dies`` -- so
    die i's first noise sample was exactly its f0 deviation rescaled.
    """
    sigma_f0, three_sigma, seed = 0.03, 0.015, 5
    population = montecarlo_dies(PAPER_BIQUAD, 30, sigma_f0=sigma_f0,
                                 seed=seed)
    from repro.campaign.engine import NOISE_SEED_DOMAIN

    children = np.random.SeedSequence(
        [seed, NOISE_SEED_DOMAIN]).spawn(len(population))
    first_noise = np.asarray([
        np.random.default_rng(child).normal(0.0, three_sigma / 3.0)
        for child in children])
    normalized_noise = first_noise / (three_sigma / 3.0)
    normalized_devs = population.f0_deviations / sigma_f0
    assert not np.any(np.isclose(normalized_noise, normalized_devs))


def test_noise_campaign_validates_arguments(engine):
    population = montecarlo_dies(PAPER_BIQUAD, 2)
    with pytest.raises(ValueError):
        engine.submit(ScreeningRequest(
            population=population, mode="noise", repeats=0))


def test_noise_campaign_executor_parity_bit_identical(engine):
    """Pool-fanned noise chunks must equal the serial path bit for bit
    (ROADMAP open item: executor-parallel noise campaigns)."""
    from repro.campaign import (
        CampaignEngine,
        GoldenCache,
        ProcessPoolExecutor,
    )

    population = montecarlo_dies(PAPER_BIQUAD, 10, sigma_f0=0.04,
                                 seed=21)
    serial = engine.submit(ScreeningRequest(
        population=population, mode="noise", repeats=3, seed=13, band="auto"))
    with ProcessPoolExecutor(max_workers=2) as pool:
        pooled = CampaignEngine(engine.config, cache=GoldenCache(),
                                executor=pool).submit(ScreeningRequest(
            population=population, mode="noise", repeats=3, seed=13,
            band="auto"))
    assert pooled.executor.startswith("process-pool")
    assert np.array_equal(serial.ndf_matrix, pooled.ndf_matrix)
    assert np.array_equal(serial.detection_rates(),
                          pooled.detection_rates())


# ----------------------------------------------------------------------
# Signature retention (the diagnosis edge)
# ----------------------------------------------------------------------
def test_keep_signatures_matches_per_die_extraction(engine):
    """Retained batch rows must equal per-die Signature.from_samples."""
    from repro.campaign.batch import (
        batch_codes,
        batch_multitone_eval,
    )
    from repro.core.signature import Signature

    population = montecarlo_dies(PAPER_BIQUAD, 6, sigma_f0=0.04,
                                 seed=23)
    result = engine.run(population, band="auto", keep_signatures=True)
    batch = result.signature_batch
    assert batch is not None and len(batch) == 6
    golden = engine.golden()
    responses = [BiquadFilter(s).response(PAPER_STIMULUS)
                 for s in population.specs]
    y = batch_multitone_eval(responses, golden.times)
    codes = batch_codes(engine.config.encoder, golden.x, y)
    for i in range(6):
        expected = Signature.from_samples(golden.times, codes[i],
                                          golden.period)
        row = batch.row(i)
        assert row.codes() == expected.codes()
        assert np.array_equal(row.durations(), expected.durations())


def test_keep_signatures_off_by_default(engine):
    population = montecarlo_dies(PAPER_BIQUAD, 2, seed=1)
    result = engine.run(population, band=None)
    assert result.signature_batch is None
    with pytest.raises(ValueError, match="keep_signatures"):
        result.diagnose(None)


def test_keep_signatures_executor_parity(engine):
    """Serial and pool runs retain bit-identical batches."""
    from repro.campaign import (
        CampaignEngine,
        GoldenCache,
        ProcessPoolExecutor,
    )

    population = montecarlo_dies(PAPER_BIQUAD, 9, sigma_f0=0.03,
                                 seed=31)
    serial = engine.run(population, band=None, keep_signatures=True)
    with ProcessPoolExecutor(max_workers=2) as pool:
        pooled = CampaignEngine(engine.config, cache=GoldenCache(),
                                executor=pool).run(
            population, band=None, keep_signatures=True)
    for attribute in ("codes", "durations", "row_offsets", "periods"):
        assert np.array_equal(
            getattr(serial.signature_batch, attribute),
            getattr(pooled.signature_batch, attribute))


def test_keep_signatures_streamed(engine):
    """Streamed retention concatenates chunks in fleet order."""
    from repro.campaign import stream_montecarlo_dies

    monolithic = engine.run(
        montecarlo_dies(PAPER_BIQUAD, 12, sigma_f0=0.03, seed=41),
        band=None, keep_signatures=True)
    streamed = engine.submit(ScreeningRequest(
        population=stream_montecarlo_dies(PAPER_BIQUAD, 12, chunk_size=5,
                                          sigma_f0=0.03, seed=41),
        mode="stream", band=None, keep_signatures=True))
    for attribute in ("codes", "durations", "row_offsets", "periods"):
        assert np.array_equal(
            getattr(monolithic.signature_batch, attribute),
            getattr(streamed.signature_batch, attribute))


def test_failing_selection_helpers(engine):
    population = deviation_sweep_population(PAPER_BIQUAD,
                                            [-0.15, 0.0, 0.15])
    result = engine.run(population, band="auto",
                        keep_signatures=True)
    failing = result.failing_indices()
    assert np.array_equal(failing, [0, 2])
    assert result.failing_labels() == [result.labels[0],
                                       result.labels[2]]
    carved = result.signature_batch.select(failing)
    assert len(carved) == 2
    assert carved.row(0).codes() \
        == result.signature_batch.row(0).codes()
    assert carved.row(1).codes() \
        == result.signature_batch.row(2).codes()
