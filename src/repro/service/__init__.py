"""Screening-as-a-service: re-entrant sessions behind a batch server.

The service layer turns the per-process campaign flow into a
long-lived screening endpoint:

- :class:`ScreeningSession` -- one warm, re-entrant engine context
  (golden cache, calibrated band, compiled dictionary held resident);
- :class:`CoalescingBatcher` -- packs concurrent small die-lots into
  one engine pass, per-client slices bit-identical to solo runs;
- :class:`ScreeningServer` / :func:`build_server` -- the stdlib HTTP
  front end (``/campaign``, ``/diagnose``, ``/healthz``,
  ``/metrics``);
- :class:`MetricsRegistry` and :class:`RateLimiter` -- in-process
  observability and per-client token-bucket throttling;
- :class:`ServiceClient` -- the matching stdlib client, with an
  optional :class:`RetryPolicy` (idempotent replays, backoff+jitter).

Telemetry lives in :mod:`repro.obs` (tracing spans, the metrics
registry, structured JSON logs, request-id propagation).  Every
request carries an ``X-Repro-Request-Id`` that joins client retries to
server spans and log lines end to end (``docs/observability.md``).

The service is crash-safe end to end: sessions persist warm artifacts
through :mod:`repro.store`, the server sheds load (503), bounds
request time (504), dedupes retried POSTs (``Idempotency-Key``) and
drains gracefully on SIGTERM.  Start one from the CLI with
``repro serve``; see ``docs/service.md`` and ``docs/persistence.md``.
"""

from repro.campaign.request import ScreeningRequest
from repro.service.batcher import (
    CoalescingBatcher,
    DeadlineExceeded,
    QueueFull,
    concatenate_populations,
)
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.obs.metrics import MetricsRegistry, timed
from repro.service.ratelimit import RateLimiter, TokenBucket
from repro.service.server import (
    IdempotencyCache,
    ScreeningServer,
    build_server,
)
from repro.service.session import ScreeningSession

__all__ = [
    "CoalescingBatcher",
    "DeadlineExceeded",
    "IdempotencyCache",
    "MetricsRegistry",
    "QueueFull",
    "RateLimiter",
    "RetryPolicy",
    "ScreeningRequest",
    "ScreeningServer",
    "ScreeningSession",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "TokenBucket",
    "build_server",
    "concatenate_populations",
    "timed",
]
