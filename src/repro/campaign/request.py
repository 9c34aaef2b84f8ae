"""One screening request: the unified engine entry payload.

:class:`ScreeningRequest` carries every screening knob -- one-shot,
streamed, noisy-repeat and sharded -- in a single picklable value
object.  The engine consumes it through
:meth:`~repro.campaign.engine.CampaignEngine.submit`, its one entry
point; :meth:`~repro.campaign.engine.CampaignEngine.run` is the one
convenience wrapper that builds a ``mode="run"`` request.

Being a value object is what lets the screening service treat work
uniformly: sessions queue requests, the coalescing batcher packs
compatible ones into a single front-half pass, and per-client metadata
(``client``) rides along without touching the engine math.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

from repro.core.decision import DecisionBand
from repro.core.zones import ZoneEncoder
from repro.signals.noise import NoiseModel

#: The execution modes the engine dispatches on.
MODES: Tuple[str, ...] = ("run", "stream", "noise", "sharded")


@dataclass(frozen=True)
class ScreeningRequest:
    """Everything one screening submission needs, in one object.

    Attributes
    ----------
    population:
        What to screen.  ``mode="run"``: any population the engine
        accepts (population object, raw spec sequence, or an iterator
        -- iterators delegate to streaming exactly like
        :meth:`~repro.campaign.engine.CampaignEngine.run`).
        ``mode="stream"``: an iterable of spec population chunks (or
        raw spec sequences), e.g. from
        :func:`~repro.campaign.scenarios.stream_montecarlo_dies`; each
        chunk is released before the next is drawn, so peak RSS
        scales with the chunk size, not the fleet, and verdicts are
        bit-identical (per channel, with ``encoders``) to the one-shot
        run over the concatenated population.
        ``mode="noise"``: a spec population.
        ``mode="sharded"``: a :class:`repro.shard.ShardFleet` or
        anything :func:`repro.shard.as_fleet` accepts (a spec
        population works directly).
    mode:
        ``"run"`` (one-shot), ``"stream"`` (bounded-memory chunk
        stream), ``"noise"`` (Section IV-C noisy repeats) or
        ``"sharded"`` (shard workers, see ``docs/sharding.md``).
    band:
        Verdict policy: ``"auto"`` (Fig. 8-calibrated), a raw float
        threshold, a :class:`~repro.core.decision.DecisionBand`, or
        None for NDFs without verdicts.
    keep_signatures:
        Retain the packed per-die signatures on the result (the
        diagnosis input).  Ignored by noise campaigns.  A stream that
        keeps them trades its memory bound away: the retained batch
        grows with the fleet.
    encoders:
        Optional monitor-bank list switching the campaign to
        multi-signature screening (``encoders[0]`` becomes channel 0).
    repeats, noise, seed:
        Noise-campaign knobs (``mode="noise"`` only): measurements per
        die (at least one), the noise model / 3-sigma volt spread
        (None = the paper's 0.015 V), and the deterministic per-die
        seed root.  The repeats run as one ``(n * repeats, samples)``
        stack per chunk, scored against the noise-free golden.  Die
        ``i`` -- indexed by its position in the population -- draws
        its noise from child ``i`` of ``SeedSequence([seed,
        NOISE_SEED_DOMAIN])`` (see
        :data:`repro.campaign.engine.NOISE_SEED_DOMAIN`), so the NDF
        matrix is identical under every chunking and executor.
    client:
        Free-form requester identity.  The engine ignores it; the
        service layer uses it for rate limiting, metrics and the
        coalescing batcher's scatter bookkeeping.
    request_id:
        Optional end-to-end correlation id (the client's
        ``X-Repro-Request-Id``).  The engine math ignores it; the
        service layer threads it session -> batcher -> engine so
        server-side spans and structured log lines join the client's
        retries.  Contextvars do not cross the handler-to-batcher
        thread boundary, which is why the id rides the request object
        explicitly.
    checkpoint:
        Optional path making a ``mode="stream"`` campaign crash-safe:
        partial fleet stats plus the next global die index persist
        there every ``checkpoint_every`` chunks (atomic writes), and a
        submission finding an existing checkpoint resumes behind it --
        merging bit-identical to the uninterrupted run (see
        :mod:`repro.campaign.checkpoint` and ``docs/persistence.md``).
    checkpoint_every:
        Chunks between checkpoint saves (``mode="stream"`` with
        ``checkpoint`` only).
    stream_offset:
        Global die index of the *first* die the population iterable
        yields.  0 (default) means the stream restarts from die 0 and
        the engine fast-forwards past already-checkpointed dies; a
        resume that rebuilds its stream mid-fleet (e.g.
        ``stream_montecarlo_dies(..., start=k)``) declares that here.
    shards, shard_workdir, shard_heartbeat, shard_workers:
        Sharded-campaign knobs (``mode="sharded"`` only; see
        :mod:`repro.shard` and ``docs/sharding.md``):
        how many near-equal shards to split the fleet into, the
        coordinator's checkpoint/scratch directory (a temp dir when
        None), the worker heartbeat deadline in seconds, and the
        subprocess worker count (None = one per shard).
    shard_listen:
        ``"HOST:PORT"`` to accept remote TCP workers on instead of
        spawning subprocesses (``repro shard-worker --connect``
        processes dial in; port 0 binds an ephemeral port).  See
        docs/sharding.md "Multi-node campaigns".
    shard_autotune_s:
        Target seconds per shard; when set the static plan is
        replaced by feedback-sized carving from each worker's
        observed die rate (:class:`repro.shard.ShardAutotuner`).
    """

    population: object = None
    mode: str = "run"
    band: Union[None, str, float, DecisionBand] = "auto"
    keep_signatures: bool = False
    encoders: Optional[Sequence[ZoneEncoder]] = None
    repeats: int = 20
    noise: Union[None, float, NoiseModel] = None
    seed: int = 0
    client: Optional[str] = None
    request_id: Optional[str] = None
    checkpoint: Optional[str] = None
    checkpoint_every: int = 1
    stream_offset: int = 0
    shards: int = 2
    shard_workdir: Optional[str] = None
    shard_heartbeat: float = 5.0
    shard_workers: Optional[int] = None
    shard_listen: Optional[str] = None
    shard_autotune_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown screening mode {self.mode!r} "
                f"(expected one of {', '.join(MODES)})")
        if self.encoders is not None:
            # Freeze the bank list so the request stays hashable-ish
            # and safe to share between threads.
            object.__setattr__(self, "encoders", tuple(self.encoders))
        if self.checkpoint is not None and self.mode != "stream":
            raise ValueError("checkpointing applies to streamed "
                             "campaigns (mode='stream') only")
        if self.repeats < 1:
            raise ValueError("need at least one noisy repeat")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.stream_offset < 0:
            raise ValueError("stream_offset must be >= 0")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard_heartbeat <= 0:
            raise ValueError("shard_heartbeat must be positive")
        if self.shard_workers is not None and self.shard_workers < 1:
            raise ValueError("shard_workers must be >= 1")
        if self.shard_autotune_s is not None \
                and self.shard_autotune_s <= 0:
            raise ValueError("shard_autotune_s must be positive")

    def with_population(self, population) -> "ScreeningRequest":
        """Copy of this request over a different population.

        The batcher uses this to re-target a client's request at its
        packed slice bookkeeping without touching the policy fields.
        """
        return replace(self, population=population)


__all__ = ["MODES", "ScreeningRequest"]
