"""The batched test-campaign engine.

One :class:`CampaignEngine` runs the paper's full signature flow --
stimulus, Lissajous composition, zone encoding, signature capture, NDF,
verdict -- over an entire *population* of CUTs in a single call,
instead of once per die through
:class:`repro.core.testflow.SignatureTester`:

* golden signatures and calibrated decision bands are computed once per
  configuration and content-cached (:mod:`repro.campaign.cache`);
* the hot path is array-resident end to end: spec populations
  synthesize their ``(N, samples)`` trace stacks straight from stacked
  ``(omega0, q, gain)`` parameter arrays (no per-die
  ``BiquadFilter``/``Multitone`` objects), fault-dictionary netlists
  solve as one stacked MNA sweep, the fused shared-branch encoder
  emits packed codes (:mod:`repro.campaign.batch`), and each chunk
  flows into one packed
  :class:`~repro.core.signature_batch.SignatureBatch` scored by the
  flat fleet-NDF kernel -- per-die ``Signature`` objects exist only
  at the diagnosis edges;
* an executor layer chunks the population serially, over a process
  pool, or over a shared-memory pool
  (:mod:`repro.campaign.executors`) with deterministic per-die
  seeding, so every executor yields bit-identical verdict vectors;
* every campaign enters through :meth:`CampaignEngine.submit` with a
  :class:`~repro.campaign.request.ScreeningRequest` (:meth:`run` is
  the one convenience wrapper); populations larger than memory stream
  as ``mode="stream"`` chunks (or a generator of chunks passed to
  :meth:`run`), keeping RSS bounded by the chunk size;
* ``mode="noise"`` repeats every die's measurement under fresh
  Section IV-C noise as ``(n * repeats, samples)`` stacks in the same
  chunk loop; die ``i`` draws its noise from seed child ``i`` of the
  campaign's noise root, indexed by its position in the population,
  so the ``(N, repeats)`` matrix is the same under every chunking and
  executor;
* multi-signature screening (``run(..., encoders=[enc0, enc1])``)
  re-encodes the same trace stacks through extra monitor banks --
  per-channel NDFs/verdicts plus a combined OR-verdict, channel 0
  bit-identical to the single-channel flow (see ``docs/paper_map.md``
  for the contract and ``docs/ambiguity.md`` for why a second channel
  exists).

Worked example (mirrors ``examples/campaign_fleet.py``)::

    from repro.campaign import CampaignEngine, montecarlo_dies
    from repro.monitor.configurations import table1_encoder
    from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD)
    dies = montecarlo_dies(PAPER_BIQUAD, count=500, sigma_f0=0.03,
                           seed=7)
    result = engine.run(dies, band="auto")   # Fig. 8-calibrated band
    print(result.summary())                  # verdicts, escapes, timing
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.campaign.batch import (
    batch_biquad_traces,
    batch_codes,
    batch_extract,
    batch_multitone_eval,
    batch_netlist_traces,
    sample_times,
    shared_basis_traces,
)
from repro.campaign.cache import (
    GoldenArtifacts,
    GoldenCache,
    _PROCESS_CACHE,
    encoder_key,
    spec_key,
    stimulus_key,
)
from repro.campaign.executors import SerialExecutor, chunked
from repro.campaign.request import ScreeningRequest
from repro.campaign.result import CampaignResult, NoiseCampaignResult
from repro.campaign.scenarios import (
    CutListPopulation,
    EncoderPopulation,
    InvalidTraceError,
    SpecPopulation,
    TracePopulation,
    deviation_sweep_population,
    seed_children,
)
from repro.core.decision import DecisionBand, ThresholdCalibration
from repro.core.multi_signature_batch import MultiSignatureBatch
from repro.core.scratch import SCRATCH
from repro.core.signature import Signature
from repro.core.signature_batch import SignatureBatch
from repro.core.zones import ZoneEncoder
from repro.filters.biquad import BiquadFilter, BiquadSpec
from repro.monitor.bank_encode import threshold_table
from repro.obs.metrics import default_registry, record_engine_timings
from repro.obs.profile import STAGE_PREFIX
from repro.obs.trace import span
from repro.signals.multitone import Multitone
from repro.signals.noise import NoiseModel

#: Default Fig. 8 calibration sweep for "auto" decision bands.
DEFAULT_CALIBRATION_DEVIATIONS: Tuple[float, ...] = tuple(
    np.linspace(-0.10, 0.10, 9))

#: Entropy-domain tag ("Nois") mixed into the noise campaign's seed
#: root, so a noise campaign with seed=s never draws from the same
#: per-die streams as montecarlo_dies(seed=s) -- measurement noise must stay
#: statistically independent of the process deviations it is measured
#: against, even when both use the same user-facing seed.
NOISE_SEED_DOMAIN = 0x4E6F6973

#: ``next()`` default marking an iterator that yielded nothing.
_EXHAUSTED = object()

Population = Union[SpecPopulation, CutListPopulation, EncoderPopulation,
                   TracePopulation, Sequence[BiquadSpec]]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that identifies one test configuration.

    Instances are picklable (they travel to pool workers) and define
    the content key under which golden artifacts are cached.
    """

    encoder: ZoneEncoder
    stimulus: Multitone
    golden_spec: BiquadSpec
    samples_per_period: int = 2048
    tolerance: float = 0.05
    calibration_deviations: Tuple[float, ...] = \
        DEFAULT_CALIBRATION_DEVIATIONS
    chunk_size: int = 256
    #: Additional observation channels: each extra encoder re-encodes
    #: the same trace stacks (the front half runs once), producing a
    #: multi-signature campaign whose channel 0 is bit-identical to
    #: the single-channel flow with ``encoder`` alone.
    extra_encoders: Tuple[ZoneEncoder, ...] = ()

    def golden_key(self) -> Tuple:
        """Content key of the golden artifacts for this configuration.

        Golden artifacts depend only on the *primary* encoder -- the
        extra channels have their own goldens keyed through their own
        single-channel configs -- so a multi-signature engine shares
        its channel-0 cache entries with the plain engine.
        """
        return ("golden", stimulus_key(self.stimulus),
                encoder_key(self.encoder), spec_key(self.golden_spec),
                int(self.samples_per_period))

    @property
    def num_channels(self) -> int:
        """Observation channels (1 + the extra encoders)."""
        return 1 + len(self.extra_encoders)

    def channel_config(self, k: int) -> "CampaignConfig":
        """Single-channel config of channel ``k`` (0 = primary)."""
        if k == 0:
            return replace(self, extra_encoders=()) \
                if self.extra_encoders else self
        return replace(self, encoder=self.extra_encoders[k - 1],
                       extra_encoders=())


class _stage:
    """One pipeline stage: a timing-dict bucket plus a ``stage.*`` span.

    The span and the accumulated ``timing[name]`` measure the same
    block at the same nesting level, which is what makes the
    ``--profile`` cross-check (span sums within 10% of
    ``CampaignResult.timing``) hold by construction.  With tracing
    disabled the span side is the shared no-op span, so the cost over
    the old bare ``perf_counter`` chains is a branch.
    """

    __slots__ = ("_timing", "_name", "_span", "_start")

    def __init__(self, timing: Dict[str, float], name: str,
                 **attributes: object) -> None:
        self._timing = timing
        self._name = name
        self._span = span(STAGE_PREFIX + name, **attributes)

    def __enter__(self) -> "_stage":
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        self._timing[self._name] = \
            self._timing.get(self._name, 0.0) + elapsed
        return self._span.__exit__(exc_type, exc, tb)


# ----------------------------------------------------------------------
# Chunk workers (module level: pool executors pickle them)
# ----------------------------------------------------------------------
def _compute_golden(config: CampaignConfig) -> GoldenArtifacts:
    """Golden trace, codes, signature and threshold table."""
    stimulus = config.stimulus
    period = stimulus.period()
    times = sample_times(period, config.samples_per_period)
    x = np.asarray(stimulus(times), dtype=float)
    y = batch_biquad_traces([config.golden_spec], stimulus, times)[0]
    codes = batch_codes(config.encoder, x, y[None, :])[0]
    signature = Signature.from_samples(times, codes, period)
    return GoldenArtifacts(times, x, y, codes, signature, period,
                           threshold_table(config.encoder, x))


def _golden_artifacts(config: CampaignConfig,
                      cache: GoldenCache) -> GoldenArtifacts:
    return cache.get_or_compute(config.golden_key(),
                                lambda: _compute_golden(config))


def _reject_non_finite(y: np.ndarray, rows: np.ndarray) -> None:
    """Raise :class:`InvalidTraceError` naming the non-finite rows of
    ``y`` (whose rows are stack rows ``rows``)."""
    bad = ~np.isfinite(y).all(axis=1)
    if bad.any():
        raise InvalidTraceError.non_finite(rows[bad])


def _encode_stack(encoder: ZoneEncoder, golden: GoldenArtifacts,
                  x: np.ndarray, y: np.ndarray,
                  exact_rows: Optional[Callable[[np.ndarray],
                                                np.ndarray]] = None,
                  trace_error: Optional[np.ndarray] = None,
                  measured: bool = False) -> np.ndarray:
    """Zone codes of a trace stack, bit-identical to the exact kernel.

    With a 1-D ``x`` equal to the golden's and a threshold table, the
    table encodes the stack and only the rows it cannot certify go
    through :func:`batch_codes`.  ``y`` is then either exact or, with
    ``exact_rows`` (row indices -> exact traces), a synthesized stack
    whose rows stay within ``trace_error`` volts of exact; redone rows
    are re-synthesized exactly first.  Anything else (2-D noisy ``x``,
    banks without a table) takes :func:`batch_codes` on exact traces.
    ``measured`` marks ``y`` as measured input: a row holding NaN or
    infinite samples raises :class:`InvalidTraceError` instead of
    being encoded.
    """
    table = golden.table
    if table is None or not np.array_equal(x, golden.x):
        if exact_rows is not None:
            y = exact_rows(np.arange(y.shape[0]))
        if measured:
            _reject_non_finite(y, np.arange(y.shape[0]))
        return batch_codes(encoder, x, y)
    codes, rows = table.encode(y, trace_error)
    if rows.size:
        redo = y[rows] if exact_rows is None else exact_rows(rows)
        if measured:
            # A non-finite row always fails the table's range check,
            # so checking the redone rows covers the whole stack.
            _reject_non_finite(redo, rows)
        codes[rows] = batch_codes(encoder, x, redo)
    registry = default_registry()
    registry.counter("encode_rows_total", path="table").inc(
        y.shape[0] - rows.size)
    registry.counter("encode_rows_total", path="exact").inc(rows.size)
    return codes


def _score_code_stack(config: CampaignConfig, golden: GoldenArtifacts,
                      x: np.ndarray, y: np.ndarray,
                      timing: Dict[str, float], collect: bool = False,
                      cache: Optional[GoldenCache] = None,
                      exact_rows: Optional[Callable[[np.ndarray],
                                                    np.ndarray]] = None,
                      trace_error: Optional[np.ndarray] = None,
                      measured: bool = False
                      ) -> Tuple[np.ndarray,
                                 Union[None, SignatureBatch,
                                       MultiSignatureBatch]]:
    """Encode -> pack -> fleet-NDF one trace stack, timing each stage.

    ``exact_rows``/``trace_error`` mark ``y`` as a synthesized stack
    (see :func:`_encode_stack`); every channel's codes stay
    bit-identical to encoding the exact traces.  ``measured`` marks it
    as measured input, checked for non-finite rows by the primary
    channel's encode.

    With ``collect`` the packed :class:`SignatureBatch` of the stack is
    returned alongside the NDFs (the diagnosis subsystem consumes it);
    otherwise the batch is released with the chunk.

    When the config carries ``extra_encoders``, every extra channel
    re-encodes the *same* stack (the synthesized traces are shared, so
    the expensive front half runs once) against its own cached golden
    signature.  The return then becomes an ``(n, K)`` NDF matrix and,
    with ``collect``, a :class:`MultiSignatureBatch`; channel 0 is
    computed by exactly the single-channel operations, so it stays
    bit-identical to a plain run.
    """
    dies = int(y.shape[0])
    with _stage(timing, "encode", dies=dies):
        codes = _encode_stack(config.encoder, golden, x, y, exact_rows,
                              trace_error, measured)
    with _stage(timing, "signature", dies=dies):
        batch = batch_extract(golden.times, codes, golden.period)
    with _stage(timing, "ndf", dies=dies):
        values = batch.ndf_to(golden.signature)
    if not config.extra_encoders:
        return values, (batch if collect else None)
    cache = cache if cache is not None else _PROCESS_CACHE
    columns = [values]
    channels = [batch]
    for k in range(1, config.num_channels):
        sub = config.channel_config(k)
        sub_golden = _golden_artifacts(sub, cache)
        with _stage(timing, "encode", dies=dies, channel=k):
            sub_codes = _encode_stack(sub.encoder, sub_golden, x, y,
                                      exact_rows, trace_error)
        with _stage(timing, "signature", dies=dies, channel=k):
            sub_batch = batch_extract(golden.times, sub_codes,
                                      golden.period)
        with _stage(timing, "ndf", dies=dies, channel=k):
            columns.append(sub_batch.ndf_to(sub_golden.signature))
        channels.append(sub_batch)
    stacked = np.stack(columns, axis=1)
    return stacked, (MultiSignatureBatch(channels) if collect else None)


def _chunk_cache(cache: Optional[GoldenCache]) -> GoldenCache:
    """A chunk payload's cache: None (a pool worker's payload) means
    the worker process' own :data:`~repro.campaign.cache._PROCESS_CACHE`."""
    return _PROCESS_CACHE if cache is None else cache


def _spec_chunk_ndfs(payload) -> Tuple[np.ndarray, Dict[str, float],
                                      Optional[SignatureBatch]]:
    """NDFs of a chunk of Biquad design points, object-free.

    ``payload`` is ``(config, specs, collect, cache)``.  When every
    channel's golden carries a threshold table, traces come
    from the shared-basis GEMM
    (:func:`~repro.campaign.batch.shared_basis_traces`) and codes from
    the tables; rows a table cannot certify are re-synthesized by the
    exact :func:`~repro.campaign.batch.batch_biquad_traces` (once per
    row, shared by the channels) and re-encoded by the exact kernel,
    so codes, NDFs and verdicts stay bit-identical to the per-die
    flow.  Otherwise the chunk is one exact synthesis and encode.
    """
    config, specs, collect, cache = payload
    cache = _chunk_cache(cache)
    timing: Dict[str, float] = {}
    with _stage(timing, "golden"):
        golden = _golden_artifacts(config, cache)
    certified = golden.table is not None and all(
        _golden_artifacts(config.channel_config(k), cache).table
        is not None for k in range(1, config.num_channels))
    if not certified:
        with _stage(timing, "traces", dies=len(specs)):
            y = batch_biquad_traces(specs, config.stimulus, golden.times)
        values, batch = _score_code_stack(config, golden, golden.x, y,
                                          timing, collect, cache)
        SCRATCH.give(y)
        return values, timing, batch
    with _stage(timing, "traces", dies=len(specs)):
        y, trace_error = shared_basis_traces(specs, config.stimulus,
                                             golden.times)
    exact: Dict[int, np.ndarray] = {}

    def exact_rows(rows: np.ndarray) -> np.ndarray:
        missing = [int(i) for i in rows if int(i) not in exact]
        if missing:
            traces = batch_biquad_traces([specs[i] for i in missing],
                                         config.stimulus, golden.times)
            exact.update(zip(missing, traces))
        return np.stack([exact[int(i)] for i in rows])

    values, batch = _score_code_stack(config, golden, golden.x, y,
                                      timing, collect, cache,
                                      exact_rows, trace_error)
    SCRATCH.give(y)  # trace stacks ride pooled buffers; codes are out
    return values, timing, batch


def _response_chunk_ndfs(config: CampaignConfig, cuts: Sequence,
                         cache: GoldenCache, collect: bool = False
                         ) -> Tuple[np.ndarray, Dict[str, float],
                                    Optional[SignatureBatch]]:
    """NDFs of a chunk of linear CUTs (objects with ``response``).

    Same-topology netlist stacks (fault dictionaries) synthesize
    through the stacked-MNA kernel
    (:func:`~repro.campaign.batch.batch_netlist_traces`); anything
    else falls back to the per-cut ``response()`` reference loop.
    """
    timing: Dict[str, float] = {}
    with _stage(timing, "golden"):
        golden = _golden_artifacts(config, cache)
    with _stage(timing, "traces", dies=len(cuts)):
        y = batch_netlist_traces(cuts, config.stimulus, golden.times)
        # Exact-type check: a BiquadFilter subclass may override
        # response(), which the closed-form synthesis would bypass.
        if y is None and cuts and all(type(cut) is BiquadFilter
                                      for cut in cuts):
            y = batch_biquad_traces([cut.spec for cut in cuts],
                                    config.stimulus, golden.times)
        if y is None:
            responses = [cut.response(config.stimulus) for cut in cuts]
            y = batch_multitone_eval(responses, golden.times)
    values, batch = _score_code_stack(config, golden, golden.x, y,
                                      timing, collect, cache)
    SCRATCH.give(y)
    return values, timing, batch


def _trace_rows_ndfs(payload) -> Tuple[np.ndarray, Dict[str, float],
                                      Optional[SignatureBatch]]:
    """NDFs of a slice of measured traces on the shared grid.

    ``payload`` is ``(config, y_rows, collect, cache)``.
    """
    config, y_rows, collect, cache = payload
    cache = _chunk_cache(cache)
    timing: Dict[str, float] = {}
    with _stage(timing, "golden"):
        golden = _golden_artifacts(config, cache)
    values, batch = _score_code_stack(config, golden, golden.x, y_rows,
                                      timing, collect, cache,
                                      measured=True)
    return values, timing, batch


def _trace_chunk_worker_shm(payload
                            ) -> Tuple[np.ndarray, Dict[str, float],
                                       Optional[SignatureBatch]]:
    """Pool-side trace scoring against a shared-memory stack.

    The payload carries only ``(config, handle, start, stop,
    collect)``: the worker attaches a zero-copy view of the published
    ``(N, T)`` stack and scores its row slice -- nothing bulky crosses
    the pickle boundary in either direction except the per-row NDFs
    (plus the packed signature rows when the campaign collects them).
    """
    from repro.campaign.executors import attach_shared_array

    config, handle, start, stop, collect = payload
    stack, close = attach_shared_array(handle)
    try:
        return _trace_rows_ndfs((config, stack[start:stop], collect,
                                 None))
    finally:
        close()


def _noise_chunk_ndfs(payload) -> Tuple[np.ndarray, Dict[str, float],
                                       None]:
    """Noisy-repeat NDFs of a chunk of dies: an ``(n * R, T)`` stack.

    ``payload`` is ``(config, specs, first, seed, repeats,
    three_sigma, cache)``, ``first`` being the population index of
    ``specs[0]``.  Die ``i`` of the population draws all of its
    ``repeats`` noise realizations (X then Y per repeat) from child
    ``i`` of ``SeedSequence([seed, NOISE_SEED_DOMAIN])``, so the
    ``(n, R)`` matrix is a pure function of ``(seed, die index)`` --
    chunking and executors never reshuffle noise.
    """
    config, specs, first, seed, repeats, three_sigma, cache = payload
    timing: Dict[str, float] = {}
    with _stage(timing, "golden"):
        golden = _golden_artifacts(config, _chunk_cache(cache))
    with _stage(timing, "traces", dies=len(specs)):
        y = batch_biquad_traces(specs, config.stimulus, golden.times)
    n, t = y.shape
    with _stage(timing, "noise", dies=n, repeats=repeats):
        sigma = three_sigma / 3.0
        x_stack = np.broadcast_to(golden.x, (n * repeats, t))
        if sigma > 0.0:
            noise = np.empty((n, repeats, 2, t))
            children = seed_children([seed, NOISE_SEED_DOMAIN], first,
                                     first + n)
            for i, child in enumerate(children):
                rng = np.random.default_rng(child)
                noise[i] = rng.normal(0.0, sigma, size=(repeats, 2, t))
            x_stack = x_stack + noise[:, :, 0, :].reshape(n * repeats, t)
            y_stack = (np.repeat(y, repeats, axis=0)
                       + noise[:, :, 1, :].reshape(n * repeats, t))
        else:
            y_stack = np.repeat(y, repeats, axis=0)
        SCRATCH.give(y)  # repeated stack supersedes the clean traces
    values, __ = _score_code_stack(config, golden, x_stack, y_stack,
                                   timing)
    return values.reshape(n, repeats), timing, None


class CampaignEngine:
    """Runs signature-test campaigns over CUT populations.

    Parameters
    ----------
    config:
        The test configuration (stimulus, encoder, golden nominal).
    cache:
        Golden/calibration cache.  Defaults to a fresh per-engine
        :class:`~repro.campaign.cache.GoldenCache`; pass one
        explicitly to share warm artifacts between engines (channel
        engines and service sessions do); engines never share state
        implicitly.
    executor:
        Chunk scheduler; :class:`SerialExecutor` when omitted.

    The first pipe-mode sharded submission spawns the engine's shard
    workers; later ones reuse them.  :meth:`close` shuts them down
    (so do garbage collection and interpreter exit).
    """

    def __init__(self, config: CampaignConfig,
                 cache: Optional[GoldenCache] = None,
                 executor=None) -> None:
        self.config = config
        self.cache = cache if cache is not None else GoldenCache()
        self.executor = executor if executor is not None \
            else SerialExecutor()
        self._shard_pool = None
        self._shard_pool_lock = threading.Lock()

    def close(self) -> None:
        """Shut down the engine's idle shard workers (if any were
        spawned).

        The engine stays usable: a later sharded submission spawns a
        fresh pool.
        """
        with self._shard_pool_lock:
            pool, self._shard_pool = self._shard_pool, None
        if pool is not None:
            pool.close()

    @classmethod
    def from_parts(cls, encoder: ZoneEncoder, stimulus: Multitone,
                   golden_spec: BiquadSpec,
                   samples_per_period: int = 2048,
                   tolerance: float = 0.05, **kwargs) -> "CampaignEngine":
        """Engine from loose bench parts (the common construction)."""
        config = CampaignConfig(encoder, stimulus, golden_spec,
                                samples_per_period, tolerance)
        return cls(config, **kwargs)

    # ------------------------------------------------------------------
    # Cached golden artifacts / calibration
    # ------------------------------------------------------------------
    def golden(self) -> GoldenArtifacts:
        """Golden trace + signature (content-cached)."""
        return _golden_artifacts(self.config, self.cache)

    def calibration(self,
                    deviations: Optional[Sequence[float]] = None
                    ) -> ThresholdCalibration:
        """Fig. 8 sweep for this configuration (content-cached).

        Calibration is a property of one channel: the sweep always
        runs through the *primary* encoder alone, so a multi-signature
        engine shares its channel-0 calibration cache entry with the
        plain engine (per-channel thresholds come from
        :meth:`channel_thresholds`).
        """
        config = self.config.channel_config(0)
        devs = tuple(float(d) for d in (
            deviations if deviations is not None
            else config.calibration_deviations))
        key = ("calibration", config.golden_key(), devs)

        def compute() -> ThresholdCalibration:
            population = deviation_sweep_population(
                config.golden_spec, devs)
            values, __, __ = _spec_chunk_ndfs(
                (config, population.specs, False, self.cache))
            return ThresholdCalibration(np.asarray(devs), values)

        return self.cache.get_or_compute(key, compute)

    def band(self, tolerance: Optional[float] = None) -> DecisionBand:
        """Decision band calibrated for a ground-truth tolerance."""
        tol = float(tolerance) if tolerance is not None \
            else self.config.tolerance
        return self.calibration().band_for_tolerance(tol)

    def channel_engine(self, k: int) -> "CampaignEngine":
        """Single-channel engine of channel ``k`` (shared cache)."""
        return CampaignEngine(self.config.channel_config(k),
                              cache=self.cache,
                              executor=self.executor)

    def with_encoders(self, encoders: Sequence[ZoneEncoder]
                      ) -> "CampaignEngine":
        """Engine screening through a list of monitor banks at once.

        ``encoders[0]`` becomes the primary channel (pass the current
        encoder there to keep the channel-0 bit-identity with this
        engine's single-channel results); the rest become extra
        signature channels encoded from the same trace stacks.
        """
        encoders = list(encoders)
        if not encoders:
            raise ValueError("need at least one encoder")
        config = replace(self.config, encoder=encoders[0],
                         extra_encoders=tuple(encoders[1:]))
        return CampaignEngine(config, cache=self.cache,
                              executor=self.executor)

    def channel_thresholds(self, band: Union[None, str, float,
                                             DecisionBand] = "auto"
                           ) -> Optional[np.ndarray]:
        """Per-channel NDF thresholds under one band policy.

        ``"auto"`` calibrates every channel's own Fig. 8 sweep (each
        encoder sees deviations differently, so thresholds differ per
        channel); a float or :class:`DecisionBand` applies one raw
        threshold to every channel; None disables verdicts.
        """
        if band is None:
            return None
        if band == "auto":
            return np.asarray([
                self.channel_engine(k)._resolve_threshold("auto")
                for k in range(self.config.num_channels)])
        threshold = self._resolve_threshold(band)
        return np.full(self.config.num_channels, float(threshold))

    # ------------------------------------------------------------------
    # Campaign entry points
    # ------------------------------------------------------------------
    def submit(self, request: ScreeningRequest
               ) -> Union[CampaignResult, NoiseCampaignResult]:
        """Execute one :class:`~repro.campaign.request.ScreeningRequest`.

        The engine's one entry point: :meth:`run` and :meth:`resume`
        build a request and call this, and so do the CLI, shard
        workers, service sessions and the coalescing batcher.
        ``request.client`` is ignored here -- it is service-layer
        bookkeeping.

        With tracing enabled (:func:`repro.obs.tracing`) the whole
        submission runs under a ``campaign.submit`` span and every
        pipeline stage opens a ``stage.*`` child; per-campaign stage
        timings also land in the process-default metrics registry
        (``engine_stage_seconds`` histograms) either way.
        """
        with span("campaign.submit", mode=request.mode,
                  executor=getattr(self.executor, "name", "custom")):
            if request.mode == "sharded":
                return self._submit_sharded(request)
            return self._submit_chunks(request)

    def run(self, population: Union[Population, Iterable],
            band: Union[None, str, float, DecisionBand] = "auto",
            keep_signatures: bool = False,
            encoders: Optional[Sequence[ZoneEncoder]] = None
            ) -> CampaignResult:
        """Screen a whole population and collect fleet statistics.

        ``band`` selects the verdict policy: ``"auto"`` calibrates the
        Fig. 8 band for the configured tolerance, a float is a raw NDF
        threshold, a :class:`DecisionBand` is used as-is and ``None``
        skips verdicts (NDFs only).

        ``keep_signatures`` retains the fleet's packed
        :class:`~repro.core.signature_batch.SignatureBatch` on the
        result (one row per die, in population order), which
        :meth:`CampaignResult.diagnose` feeds to the fault-dictionary
        matcher of :mod:`repro.diagnosis`.

        ``encoders`` switches the campaign to multi-signature
        screening: the population's trace stacks synthesize once and
        every listed monitor bank encodes its own signature channel
        (``encoders[0]`` replaces the configured encoder as channel 0
        -- pass the engine's own encoder there to keep channel 0
        bit-identical to the plain run).  The result then carries
        per-channel NDFs/verdicts, a combined OR-verdict and, with
        ``keep_signatures``, a packed
        :class:`~repro.core.multi_signature_batch.MultiSignatureBatch`.

        The configured executor parallelizes *spec* populations (the
        chunkable fast path) and trace stacks; cut and encoder
        populations always run in process, and the result's
        ``executor`` field reports what actually ran.  Passing a
        generator/iterator of population *chunks* streams them
        (``mode="stream"``, bounded memory); an iterator of individual
        specs is simply materialized and run in one shot.
        """
        return self.submit(ScreeningRequest(
            population=population, mode="run", band=band,
            keep_signatures=keep_signatures, encoders=encoders))

    def resume(self, checkpoint: str, chunks: Iterable,
               band: Union[None, str, float, DecisionBand] = "auto",
               checkpoint_every: int = 1,
               stream_offset: int = 0) -> CampaignResult:
        """Continue an interrupted checkpointed streamed campaign.

        ``checkpoint`` must exist (an interrupted checkpointed stream
        left it); a missing file raises ``FileNotFoundError`` rather
        than silently starting over -- start-over is what a plain
        checkpointed ``mode="stream"`` submission does.  ``chunks``
        re-supplies the population stream: either restarted from die 0
        (the engine skips the screened prefix) or rebuilt mid-fleet
        with ``stream_offset`` declaring its first global die index,
        e.g. ``stream_montecarlo_dies(..., start=k)`` with
        ``stream_offset=k``.  The returned result is bit-identical
        (NDFs, verdicts, deviations, labels) to the uninterrupted
        run's -- global-index-stable seeding plus chunk-boundary-
        independent scoring make the merge exact.
        """
        from repro.campaign.checkpoint import StreamCheckpoint

        StreamCheckpoint.load(checkpoint)  # must exist and parse
        return self.submit(ScreeningRequest(
            population=chunks, mode="stream", band=band,
            checkpoint=checkpoint, checkpoint_every=checkpoint_every,
            stream_offset=stream_offset))

    def _submit_chunks(self, request: ScreeningRequest
                       ) -> Union[CampaignResult, NoiseCampaignResult]:
        """``mode="run"``, ``"stream"`` and ``"noise"``: one chunk loop.

        A one-shot population is a stream of one chunk, and so is a
        noise population.  Every chunk goes through its runner and
        accumulates in a
        :class:`~repro.campaign.checkpoint.StreamCheckpoint`; only a
        request with a checkpoint path ever persists it.  A single
        chunk's values and packed batch pass through uncopied.
        """
        from repro.testing.faultinject import fail_if_armed

        if request.encoders is not None:
            engine = self.with_encoders(request.encoders)
            return engine.submit(replace(request, encoders=None))
        noise = request.mode == "noise"
        if noise and self.config.extra_encoders:
            raise ValueError(
                "noise campaigns are single-channel; run them on the "
                "primary engine (channel_engine(0)) -- the "
                "multi-signature dictionary rows stay noise-free "
                "references either way")
        chunks = request.population
        streamed = request.mode == "stream"
        if request.mode == "run" and isinstance(chunks, Iterator):
            # An iterator of specs is one population; an iterator of
            # population chunks (or an empty one) is a stream.
            first = next(chunks, _EXHAUSTED)
            chunks = itertools.chain(
                () if first is _EXHAUSTED else (first,), chunks)
            streamed = not isinstance(first, BiquadSpec)
            if not streamed:
                chunks = list(chunks)
        name = getattr(self.executor, "name", "custom")
        if streamed:
            name += "+stream"
        else:
            chunks = [self._as_population(chunks)]
            if noise and not isinstance(chunks[0], SpecPopulation):
                raise TypeError("noise campaigns run over spec "
                                "populations")
            if isinstance(chunks[0], (CutListPopulation,
                                      EncoderPopulation)):
                # Cut/encoder populations run in process: their
                # per-die work is one vector op, not worth shipping.
                name = "serial"
        # Only spec populations carry ground-truth deviations (stream
        # chunks are always spec populations).
        ground_truth = streamed or isinstance(chunks[0], SpecPopulation)
        start = time.perf_counter()
        threshold = self._resolve_threshold(request.band)
        state, skip = self._stream_state(request, threshold)
        keep = request.keep_signatures and not noise
        batch_parts: List[Union[SignatureBatch,
                                MultiSignatureBatch]] = []
        seen = 0  # dies drawn from the iterable so far
        chunks_since_save = 0
        for chunk in chunks:
            # Raw spec-sequence chunks get placeholder labels numbered
            # from the global die index, not per chunk -- labels must
            # stay unique across the whole stream (and across the
            # interrupted runs of a checkpointed one).
            chunk = self._as_population(
                chunk, first_index=request.stream_offset + seen)
            if streamed and not isinstance(chunk, SpecPopulation):
                raise TypeError("streamed campaigns consume spec "
                                "population chunks")
            n = len(chunk)
            seen += n
            if skip > 0:
                if n <= skip:  # whole chunk already screened
                    skip -= n
                    continue
                # Partially-screened chunk: resume mid-chunk.  Per-die
                # rows are chunk-boundary independent, so the sliced
                # tail scores bit-identically to its uninterrupted
                # position.
                chunk = SpecPopulation(
                    chunk.specs[skip:], chunk.f0_deviations[skip:],
                    chunk.q_deviations[skip:], chunk.labels[skip:])
                skip = 0
            values, section, batch = self._run_chunk(chunk, request)
            batch_parts.append(batch)
            state.extend(values,
                         chunk.f0_deviations if ground_truth else None,
                         chunk.q_deviations if ground_truth else None,
                         chunk.labels, section)
            if request.checkpoint is not None:
                chunks_since_save += 1
                if chunks_since_save >= request.checkpoint_every:
                    state.save(request.checkpoint)
                    chunks_since_save = 0
                # Robustness-suite injection point: die *after* the
                # checkpoint landed, before the next chunk is drawn.
                fail_if_armed("stream.chunk.crash")
        if request.checkpoint is not None:
            state.complete = True
            state.save(request.checkpoint)
        return self._package_result(
            state, request, threshold, name, start,
            self._concatenate_batches(batch_parts) if keep else None,
            ground_truth)

    def _stream_state(self, request: ScreeningRequest,
                      threshold: Optional[float]):
        """The chunk loop's accumulator and the dies to skip.

        A checkpointed stream resumes behind its checkpoint (the
        restarted chunk stream re-yields ``skip`` already-screened
        dies); anything else starts a fresh in-memory state.
        """
        from repro.campaign.checkpoint import StreamCheckpoint

        config_key = repr(self.config.golden_key())
        state = None
        if request.checkpoint is not None:
            if request.keep_signatures:
                raise ValueError(
                    "checkpointed streams cannot keep signatures: the "
                    "packed batch is not part of the mergeable "
                    "checkpoint state (run without checkpoint=, or "
                    "without keep_signatures)")
            state = StreamCheckpoint.load_if_valid(request.checkpoint)
            if state is not None:
                state.validate(config_key, threshold)
        if state is None:
            # A fresh stream that starts mid-fleet (a shard worker, or
            # a rebuilt resume stream) covers [stream_offset, ...) --
            # the checkpoint names that range so partials can merge.
            state = StreamCheckpoint(config_key, threshold,
                                     start_index=request.stream_offset)
        elif request.stream_offset < state.start_index:
            raise ValueError(
                f"stream starts at global die {request.stream_offset} "
                f"but the checkpoint covers dies from "
                f"{state.start_index}: the prefix would merge into a "
                "checkpoint that does not contain it")
        skip = state.next_index - request.stream_offset
        if skip < 0:
            raise ValueError(
                f"stream starts at global die {request.stream_offset} "
                f"but the checkpoint resumes at {state.next_index}: "
                f"dies {state.next_index}..{request.stream_offset - 1} "
                "would be missing")
        return state, skip

    def _package_result(self, state, request: ScreeningRequest,
                        threshold: Optional[float], executor_name: str,
                        start: float, batch=None,
                        ground_truth: bool = True
                        ) -> Union[CampaignResult, NoiseCampaignResult]:
        """Wrap accumulated chunk state as the request's result.

        ``state`` is the chunk loop's
        :class:`~repro.campaign.checkpoint.StreamCheckpoint` or the
        shard coordinator's merged one.  A noise request's ``(N, R)``
        values become a :class:`NoiseCampaignResult`.  Otherwise
        single-channel values pass through untouched, and an
        ``(N, K)`` multi-channel matrix is split: column 0 becomes the
        result's primary ``ndfs``/``verdicts`` (the same floats the
        single-channel flow produces -- the channel-0 contract), the
        full matrix plus per-channel thresholds/verdicts and the
        packed multi batch ride the ``channel_*`` fields.
        """
        timing = dict(state.timing)
        if request.mode == "noise":
            matrix = state.values(np.empty((0, request.repeats)))
            timing["total"] = time.perf_counter() - start
            record_engine_timings(timing)
            return NoiseCampaignResult(
                ndf_matrix=matrix, threshold=threshold,
                labels=state.labels, tolerance=self.config.tolerance,
                timing=timing, executor=executor_name)
        values = state.values(self._empty_values())
        channel_ndfs = channel_thresholds = channel_verdicts = None
        multi_batch = None
        if values.ndim == 2:
            channel_ndfs = values
            channel_thresholds = self.channel_thresholds(request.band)
            if channel_thresholds is not None:
                channel_verdicts = (channel_ndfs
                                    <= channel_thresholds[None, :])
            values = np.ascontiguousarray(channel_ndfs[:, 0])
            multi_batch = batch
            batch = multi_batch.channel(0) \
                if multi_batch is not None else None
        verdicts = None if threshold is None else values <= threshold
        timing["total"] = time.perf_counter() - start
        # Terminal result constructor: the extra-encoder delegation
        # funnels through here exactly once per logical campaign, so
        # engine-level metrics record here, not in submit().
        record_engine_timings(timing)
        return CampaignResult(
            ndfs=values, threshold=threshold, verdicts=verdicts,
            f0_deviations=(state.f0_deviations() if ground_truth
                           else None),
            q_deviations=state.q_deviations() if ground_truth else None,
            labels=state.labels, tolerance=self.config.tolerance,
            timing=timing, executor=executor_name,
            cache_info=self.cache.info, signature_batch=batch,
            channel_ndfs=channel_ndfs,
            channel_thresholds=channel_thresholds,
            channel_verdicts=channel_verdicts,
            multi_signature_batch=multi_batch)

    def _submit_sharded(self, request: ScreeningRequest
                        ) -> CampaignResult:
        from repro.shard import as_fleet
        from repro.shard.coordinator import ShardCoordinator

        if request.keep_signatures:
            raise ValueError(
                "sharded campaigns cannot keep signatures: the packed "
                "batch is not part of the mergeable checkpoint state")
        if request.encoders is not None or self.config.extra_encoders:
            raise ValueError(
                "sharded campaigns are single-channel today; run "
                "multi-signature screening with mode='run' or "
                "mode='stream'")
        start = time.perf_counter()
        fleet = as_fleet(request.population)
        threshold = self._resolve_threshold(request.band)
        listen = pool = None
        if request.shard_listen is not None:
            from repro.shard.transport import parse_endpoint
            listen = parse_endpoint(request.shard_listen)
        else:
            from repro.shard.pool import WorkerPool
            with self._shard_pool_lock:
                if self._shard_pool is None:
                    self._shard_pool = WorkerPool()
                pool = self._shard_pool
        coordinator = ShardCoordinator(
            config=self.config, threshold=threshold, fleet=fleet,
            shards=request.shards, workers=request.shard_workers,
            workdir=request.shard_workdir,
            heartbeat=request.shard_heartbeat,
            listen=listen,
            autotune_target_s=request.shard_autotune_s,
            pool=pool,
            golden=self.golden())
        merged, stats = coordinator.run()
        merged.timing["merge"] = float(stats.get("merge_seconds", 0.0))
        mode = "sharded-tcp" if listen is not None else "sharded"
        result = self._package_result(
            merged, request, threshold,
            f"{mode}[{coordinator.num_workers}]", start)
        result.shard_stats = stats
        return result

    # ------------------------------------------------------------------
    # Population runners
    # ------------------------------------------------------------------
    @staticmethod
    def _as_population(population, first_index: int = 0):
        """Wrap raw spec sequences; pass population objects through.

        ``first_index`` numbers the placeholder labels globally when a
        stream wraps one raw chunk after another.
        """
        if isinstance(population, (SpecPopulation, CutListPopulation,
                                   EncoderPopulation, TracePopulation)):
            return population
        specs = list(population)
        return SpecPopulation(
            specs, np.full(len(specs), np.nan),
            np.full(len(specs), np.nan),
            [f"die{first_index + i:05d}" for i in range(len(specs))])

    def _resolve_threshold(self, band) -> Optional[float]:
        if band is None:
            return None
        if isinstance(band, DecisionBand):
            return band.threshold
        if band == "auto":
            return self.band().threshold
        return float(band)

    def _pool_chunk_size(self, n: int, chunk_size: int) -> int:
        """Shrink chunks so a pool's workers all get work.

        Chunking never changes results -- populations are pre-seeded
        per die -- only scheduling; serial executors keep the
        configured chunk size.
        """
        workers = getattr(self.executor, "max_workers", None)
        if workers and workers > 1:
            per_worker = -(-n // workers)  # ceil division
            chunk_size = max(1, min(chunk_size, per_worker))
        return chunk_size

    def _empty_values(self) -> np.ndarray:
        """NDF array of an empty population (1-D or ``(0, K)``)."""
        if self.config.extra_encoders:
            return np.empty((0, self.config.num_channels))
        return np.empty(0)

    def _empty_batch(self, collect: bool
                     ) -> Union[None, SignatureBatch,
                                MultiSignatureBatch]:
        """Packed batch of an empty population, channel-shape aware."""
        if not collect:
            return None
        if self.config.extra_encoders:
            return MultiSignatureBatch.empty(self.config.num_channels)
        return SignatureBatch.empty()

    def _concatenate_batches(self, parts
                             ) -> Union[SignatureBatch,
                                        MultiSignatureBatch]:
        """Row-stack collected chunk batches, channel-shape aware.

        Single source of the Multi-vs-plain dispatch for both the
        executor-chunk merge (:meth:`_merge_outputs`) and the chunk
        loop (:meth:`_submit_chunks`); a single batch passes through
        uncopied.
        """
        parts = [part for part in parts if part is not None]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return self._empty_batch(True)
        if isinstance(parts[0], MultiSignatureBatch):
            return MultiSignatureBatch.concatenate(parts)
        return SignatureBatch.concatenate(parts)

    def _merge_outputs(self, outputs, collect: bool):
        """Merge chunk outputs ``(values, timing, batch)`` in order.

        Runners call it with at least one output.  NDF parts concatenate along the die axis whether they are
        per-die vectors, ``(n, K)`` multi-channel matrices or ``(n,
        R)`` noise matrices; stage timings add up; packed batches
        concatenate through their own class, so streamed and chunked
        multi-signature campaigns merge channel by channel.
        """
        timing: Dict[str, float] = {}
        for __, section, __batch in outputs:
            for key, value in section.items():
                timing[key] = timing.get(key, 0.0) + value
        values = np.concatenate([v for v, __, __b in outputs])
        batch = None
        if collect:
            batch = self._concatenate_batches(
                [b for __, __t, b in outputs])
        return values, timing, batch

    def _payload_cache(self) -> Optional[GoldenCache]:
        """The cache a chunk payload carries.

        Pool workers cannot share the engine's cache, so their
        payloads carry None and each worker process resolves its own
        ``_PROCESS_CACHE``; in-process executors get this engine's.
        """
        if getattr(self.executor, "needs_picklable_work", False):
            return None
        return self.cache

    def _run_chunk(self, population, request: ScreeningRequest
                   ) -> Tuple[np.ndarray, Dict[str, float],
                              Optional[SignatureBatch]]:
        """Screen one population chunk through its runner."""
        if request.mode == "noise":
            return self._run_noise(population, request)
        collect = request.keep_signatures
        if isinstance(population, EncoderPopulation) \
                and self.config.extra_encoders:
            raise ValueError(
                "encoder populations vary the primary monitor bank "
                "per die; extra signature channels are ambiguous here "
                "-- run them single-channel")
        if len(population) == 0:
            return (self._empty_values(), {"golden": 0.0},
                    self._empty_batch(collect))
        if isinstance(population, SpecPopulation):
            return self._run_specs(population, collect)
        if isinstance(population, TracePopulation):
            return self._run_traces(population, collect)
        if isinstance(population, CutListPopulation):
            return self._run_cuts(population, collect)
        return self._run_encoders(population, collect)

    def _run_noise(self, population: SpecPopulation,
                   request: ScreeningRequest
                   ) -> Tuple[np.ndarray, Dict[str, float], None]:
        """Noisy repeats of a spec population over the executor.

        Each chunk of dies becomes one ``(n * repeats, samples)``
        stack of about ``chunk_size`` rows; the chunks' ``(n,
        repeats)`` matrices merge like any other chunk output.
        """
        noise = request.noise
        if noise is None:
            three_sigma = NoiseModel().three_sigma
        elif isinstance(noise, NoiseModel):
            three_sigma = noise.three_sigma
        else:
            three_sigma = float(noise)
        n, repeats = len(population), request.repeats
        if n == 0:
            return np.empty((0, repeats)), {}, None
        die_chunk = self._pool_chunk_size(
            n, max(1, self.config.chunk_size // repeats))
        cache = self._payload_cache()
        outputs = self.executor.map(_noise_chunk_ndfs, [
            (self.config, population.specs[lo:lo + die_chunk], lo,
             request.seed, repeats, three_sigma, cache)
            for lo in range(0, n, die_chunk)])
        return self._merge_outputs(outputs, False)

    def _run_specs(self, population: SpecPopulation,
                   collect: bool = False
                   ) -> Tuple[np.ndarray, Dict[str, float],
                              Optional[SignatureBatch]]:
        """Chunk design points over the executor and merge the results.

        Specs travel directly (they are picklable frozen dataclasses);
        no per-die CUT objects are materialized on any path.
        """
        chunk_size = self._pool_chunk_size(len(population),
                                           self.config.chunk_size)
        cache = self._payload_cache()
        outputs = self.executor.map(_spec_chunk_ndfs, [
            (self.config, chunk, collect, cache)
            for chunk in chunked(list(population.specs), chunk_size)])
        return self._merge_outputs(outputs, collect)

    def _run_traces(self, population: TracePopulation,
                    collect: bool = False
                    ) -> Tuple[np.ndarray, Dict[str, float],
                               Optional[SignatureBatch]]:
        """Measured-trace stacks: encode/score only, shared-memory aware.

        With a :class:`~repro.campaign.executors.SharedMemoryExecutor`
        the ``(N, T)`` stack is published to shared memory once and
        workers attach zero-copy row views; with a plain process pool
        the chunk rows travel pickled; serially the views are used in
        place.
        """
        n = len(population)
        stack = population.y_stack
        if stack.shape[1] != self.config.samples_per_period:
            raise InvalidTraceError(
                f"trace rows have {stack.shape[1]} samples; this "
                f"configuration captures "
                f"{self.config.samples_per_period} per period")
        chunk_size = self._pool_chunk_size(n, self.config.chunk_size)
        ranges = [(lo, min(lo + chunk_size, n))
                  for lo in range(0, n, chunk_size)]
        map_shared = getattr(self.executor, "map_shared", None)
        try:
            if map_shared is not None:
                outputs = map_shared(
                    _trace_chunk_worker_shm, stack,
                    lambda handle: [(self.config, handle, lo, hi,
                                     collect) for lo, hi in ranges])
            else:
                cache = self._payload_cache()
                outputs = self.executor.map(_trace_rows_ndfs, [
                    (self.config, stack[lo:hi], collect, cache)
                    for lo, hi in ranges])
        except InvalidTraceError:
            # Chunks name chunk-local rows: rename them globally.
            raise InvalidTraceError.non_finite(np.flatnonzero(
                ~np.isfinite(stack).all(axis=1))) from None
        return self._merge_outputs(outputs, collect)

    def _run_cuts(self, population: CutListPopulation,
                  collect: bool = False
                  ) -> Tuple[np.ndarray, Dict[str, float],
                             Optional[SignatureBatch]]:
        """Generic CUTs: batched when they expose ``response``."""
        if all(hasattr(cut, "response") for cut in population.cuts):
            return _response_chunk_ndfs(self.config, population.cuts,
                                        self.cache, collect)
        if self.config.extra_encoders:
            raise ValueError(
                "multi-signature campaigns need populations that take "
                "the batched trace path (spec, trace, or netlist/"
                "response cut populations); per-CUT lissajous "
                "fallbacks only encode the primary channel")
        # Fallback: per-CUT traces (e.g. transient-simulated CUTs) are
        # stacked on their own shared grid, then the packed
        # encode/score path runs once over the whole stack.  Each
        # trace keeps its native time base (shifted to t = 0), exactly
        # like the per-die flow.  Traces are generated one at a time
        # and only the Y rows are retained (the stack the batch needs
        # anyway), so memory stays O(stack), never O(N) full traces.
        timing: Dict[str, float] = {}
        with _stage(timing, "golden"):
            golden = self.golden()
        with _stage(timing, "traces", dies=len(population)):
            first = population.cuts[0].lissajous(
                self.config.stimulus, self.config.samples_per_period)
            xs, first_y = first.points()
            y_stack = np.empty((len(population), xs.size))
            y_stack[0] = first_y
            shared_grid = True
            for i, cut in enumerate(population.cuts[1:], start=1):
                trace = cut.lissajous(self.config.stimulus,
                                      self.config.samples_per_period)
                if not (trace.period == first.period
                        and np.array_equal(trace.times, first.times)
                        and np.array_equal(trace.points()[0], xs)):
                    shared_grid = False
                    break
                y_stack[i] = trace.points()[1]
        if shared_grid:
            with _stage(timing, "encode", dies=len(population)):
                codes = batch_codes(self.config.encoder, xs, y_stack)
            with _stage(timing, "signature", dies=len(population)):
                batch = batch_extract(first.times - first.times[0],
                                      codes, first.period)
            with _stage(timing, "ndf", dies=len(population)):
                values = batch.ndf_to(golden.signature)
            return values, timing, batch if collect else None
        # Heterogeneous grids: score die by die, one trace resident at
        # a time (rare -- mixed CUT families in one population).
        from repro.core.ndf import ndf as _ndf
        del y_stack
        with _stage(timing, "encode+score", dies=len(population)):
            values = np.empty(len(population))
            signatures: List[Signature] = []
            for i, cut in enumerate(population.cuts):
                trace = cut.lissajous(self.config.stimulus,
                                      self.config.samples_per_period)
                txs, tys = trace.points()
                codes = batch_codes(self.config.encoder, txs,
                                    tys[None, :])[0]
                observed = Signature.from_samples(
                    trace.times - trace.times[0], codes, trace.period)
                if collect:
                    signatures.append(observed)
                values[i] = _ndf(observed, golden.signature)
        batch = (SignatureBatch.from_signatures(signatures)
                 if collect else None)
        return values, timing, batch

    def _run_encoders(self, population: EncoderPopulation,
                      collect: bool = False
                      ) -> Tuple[np.ndarray, Dict[str, float],
                                 Optional[SignatureBatch]]:
        """One fault-free CUT seen through N varied monitor banks.

        The golden signature stays the *nominal*-bank reference, so the
        returned NDFs quantify the test margin the monitor's own
        variability consumes (the seed's per-die loop re-derived the
        golden through each varied bank and therefore measured exactly
        zero).  Encoding still runs per bank (each bank draws its own
        boundaries), but the signatures of all banks pack into one
        batch and score through the fleet-NDF kernel.
        """
        timing: Dict[str, float] = {}
        with _stage(timing, "golden"):
            golden = self.golden()
        with _stage(timing, "encode", dies=len(population)):
            code_stack = np.stack(
                [batch_codes(encoder, golden.x, golden.y[None, :])[0]
                 for encoder in population.encoders])
        with _stage(timing, "signature", dies=len(population)):
            batch = batch_extract(golden.times, code_stack,
                                  golden.period)
        with _stage(timing, "ndf", dies=len(population)):
            values = batch.ndf_to(golden.signature)
        return values, timing, batch if collect else None
