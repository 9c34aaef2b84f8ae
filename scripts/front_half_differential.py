"""Differential check of the certified front half against the exact one.

Screens Monte Carlo fleets (several process spreads, mixed Q) through
both front halves of the spec-population path and compares the zone
codes sample for sample:

* **exact** -- :func:`repro.campaign.batch.batch_biquad_traces` (the
  bit-identical trace kernel) then :func:`batch_codes`;
* **certified** -- :func:`repro.campaign.batch.shared_basis_traces`
  then the golden's threshold table, with the exact re-run of every
  row the table sends back (the engine's encode step).

It also pushes an adversarial stack through both encoders: every
column pinned at each breakpoint and band edge, 1-64 ulps either side,
plus non-finite and out-of-domain samples.  It prints the mismatch
count, the fallback-row rate, the largest trace difference against
its bound and the per-die time of each front half, and exits 1 on any
code mismatch.

Usage::

    python scripts/front_half_differential.py --dies 102400

Memory stays bounded by ``--chunk`` rows of both stacks.  The row
builders (:func:`ulps`, :func:`pinned_rows`) and :func:`differential`
are shared with the near-breakpoint unit tests and the campaign
scaling benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.campaign import (
    CampaignEngine,
    GoldenCache,
    batch_biquad_traces,
    batch_codes,
    montecarlo_dies,
    shared_basis_traces,
)
from repro.campaign.engine import _encode_stack
from repro.core.scratch import SCRATCH
from repro.monitor.configurations import table1_encoder
from repro.obs.metrics import default_registry
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

#: ``(sigma_f0, sigma_q)`` spreads the fleet cycles through.
SPREADS = ((0.03, 0.0), (0.08, 0.05), (0.15, 0.2))

#: Ulp offsets of the adversarial rows around every table edge.
OFFSETS = (-64, -8, -2, -1, 0, 1, 2, 8, 64)


def ulps(values, k: int) -> np.ndarray:
    """``values`` moved ``k`` doubles up (k > 0) or down (k < 0)."""
    out = np.array(values, dtype=float)
    direction = np.inf if k > 0 else -np.inf
    for __ in range(abs(k)):
        out = np.nextafter(out, direction)
    return out


def pinned_rows(golden, edges, offsets) -> np.ndarray:
    """Rows pinning each column to one boundary's ``edges`` value,
    moved by each ulp offset; columns without a finite edge keep the
    golden trace."""
    rows = []
    for edge in edges:
        finite = np.isfinite(edge)
        if not finite.any():
            continue
        for k in offsets:
            row = golden.y.copy()
            row[finite] = ulps(edge[finite], k)
            rows.append(row)
    return np.array(rows).reshape(-1, golden.y.size)


def adversarial_stack(golden) -> np.ndarray:
    """Rows pinned at breakpoints/band edges, plus hostile samples."""
    table = golden.table
    low, high = table.y_range
    hostile = (np.nan, np.inf, -np.inf, low - 1e-6, high + 1e-6, low,
               high)
    rows = np.repeat(golden.y[None], len(hostile), axis=0)
    for row, value in zip(rows, hostile):
        row[::97] = value
    return np.concatenate([
        pinned_rows(golden, edges, OFFSETS)
        for edges in (table.breakpoints, table.lower, table.upper)]
        + [rows])


def _exact_rows() -> float:
    """Rows the engine's encode step has sent back to the exact path."""
    return default_registry().counter("encode_rows_total",
                                      path="exact").value


def differential(engine: CampaignEngine, dies: int, chunk: int = 512,
                 seed: int = 1) -> dict:
    """Compare both front halves over ``dies`` Monte Carlo dies and the
    adversarial stack of ``engine``'s golden; return the report."""
    config = engine.config
    encoder, stimulus = config.encoder, config.stimulus
    golden = engine.golden()
    times = golden.times
    mismatched_samples = fallback_rows = done = lot = 0
    worst_diff = worst_ratio = 0.0
    seconds = {"exact_traces": 0.0, "exact_encode": 0.0,
               "certified_traces": 0.0, "certified_encode": 0.0}
    while done < dies:
        sigma_f0, sigma_q = SPREADS[lot % len(SPREADS)]
        count = min(chunk, dies - done)
        specs = montecarlo_dies(config.golden_spec, count,
                                sigma_f0=sigma_f0, sigma_q=sigma_q,
                                seed=[seed, lot]).specs
        t0 = time.perf_counter()
        exact_y = batch_biquad_traces(specs, stimulus, times)
        t1 = time.perf_counter()
        exact = batch_codes(encoder, golden.x, exact_y)
        t2 = time.perf_counter()
        fast_y, bound = shared_basis_traces(specs, stimulus, times)
        t3 = time.perf_counter()
        redone = _exact_rows()
        codes = _encode_stack(
            encoder, golden, golden.x, fast_y,
            lambda r: batch_biquad_traces([specs[i] for i in r],
                                          stimulus, times), bound)
        t4 = time.perf_counter()
        seconds["exact_traces"] += t1 - t0
        seconds["exact_encode"] += t2 - t1
        seconds["certified_traces"] += t3 - t2
        seconds["certified_encode"] += t4 - t3
        diff = np.abs(fast_y - exact_y).max(axis=1)
        worst_diff = max(worst_diff, float(diff.max()))
        worst_ratio = max(worst_ratio, float((diff / bound).max()))
        mismatched_samples += int(np.count_nonzero(codes != exact))
        fallback_rows += int(_exact_rows() - redone)
        SCRATCH.give(exact_y)
        SCRATCH.give(fast_y)
        done += count
        lot += 1

    hostile = adversarial_stack(golden)
    with np.errstate(invalid="ignore"):
        hostile_exact = batch_codes(encoder, golden.x, hostile)
        hostile_codes = _encode_stack(encoder, golden, golden.x, hostile)
    __, hostile_rows = golden.table.encode(hostile)
    per_die = {key: value / max(done, 1) * 1e6
               for key, value in seconds.items()}
    return {
        "dies": done,
        "samples": done * times.size,
        "code_mismatches": mismatched_samples,
        "fallback_rows": fallback_rows,
        "fallback_rate": fallback_rows / max(done, 1),
        "max_trace_diff_v": worst_diff,
        "max_diff_over_bound": worst_ratio,
        "guard_band_v": golden.table.guard,
        "adversarial_rows": int(hostile.shape[0]),
        "adversarial_fallback_rows": int(hostile_rows.size),
        "adversarial_mismatches": int(np.count_nonzero(
            hostile_codes != hostile_exact)),
        "us_per_die": per_die,
    }


def agrees(report: dict) -> bool:
    """No code mismatch anywhere and every trace within its bound."""
    return (report["code_mismatches"] == 0
            and report["adversarial_mismatches"] == 0
            and report["max_diff_over_bound"] <= 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dies", type=int, default=102400)
    parser.add_argument("--samples", type=int, default=2048)
    parser.add_argument("--chunk", type=int, default=512)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=args.samples, cache=GoldenCache())
    report = differential(engine, args.dies, args.chunk, args.seed)
    print(json.dumps(report, indent=2))
    ok = agrees(report)
    print("front-half differential:", "ok" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
