"""The benchmark workloads, run inside a fresh process.

``run.py`` starts this script once per set-up sample and once to
measure::

    python3 perfbench/workloads.py WORKLOAD {setup,measure} --seed N \
        --seconds S --trace {0,1} --out RESULT.json [--url URL ...]

It prints one JSON event per line on stdout: ``ready`` once set-up is
done (the parent times set-up from spawn to this line), ``measured``
when the timed part ends, and ``done`` after the result file is
written.  Every input is generated here from ``--seed``; the program
only ever receives those inputs.  With ``--trace 1`` the timed part
runs twice, untraced and then under a ``repro.obs`` tracer with a
``bench.lot`` span around every call into the program, and the span
rows go into the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from repro.campaign import (  # noqa: E402
    ScreeningRequest,
    batch_biquad_traces,
    montecarlo_dies,
    stream_montecarlo_dies,
    trace_population,
)
from repro.core.testflow import SignatureTester  # noqa: E402
from repro.diagnosis import (  # noqa: E402
    DictionaryMatcher,
    compile_fault_dictionary,
)
from repro.filters.biquad import BiquadFilter  # noqa: E402
from repro.obs import Tracer, install_tracer, span  # noqa: E402
from repro.paper import paper_setup  # noqa: E402
from repro.signals.lissajous import LissajousTrace  # noqa: E402
from repro.signals.waveform import Waveform  # noqa: E402

SAMPLES_PER_PERIOD = 2048
#: Dies per lot checked against the per-die ``SignatureTester`` flow.
CHECKED_DIES = 6


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def paper_engine():
    return paper_setup(samples_per_period=SAMPLES_PER_PERIOD) \
        .campaign_engine(samples_per_period=SAMPLES_PER_PERIOD)


class _MeasuredCut:
    """A measured trace row posing as a CUT for the per-die flow."""

    def __init__(self, x: Waveform, y_row: np.ndarray, period: float):
        self._trace = LissajousTrace(x, Waveform(x.times, y_row), period)

    def lissajous(self, stimulus, samples_per_period):
        return self._trace


class Workload:
    """A closed loop of lots: the next lot is due when the last is done."""

    name = ""

    #: Distinct inputs made per run, or None for a fresh one per lot.
    #: Lot ``i`` reuses input ``i % pool``, which keeps input synthesis
    #: out of the run time; nothing in the program caches per-die work,
    #: so reuse does not flatter it.
    pool = None
    #: Time the host-speed kernel around each lot (see ``hostspeed``);
    #: only meaningful when the lot runs in this one process.
    host_scaled = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._inputs = {}
        #: ``(index, input, output)`` of the lot the correctness gate
        #: checks.
        self.kept = None

    def rng(self, *key: int) -> np.random.Generator:
        """Generator for one input, a pure function of the seed and key."""
        return np.random.default_rng([self.seed, *key])

    def lot_seed(self, index: int) -> int:
        return int(self.rng(index).integers(2 ** 31))

    def setup(self) -> None:
        self.engine = paper_engine()
        self.engine.golden()
        self.band = self.engine.band()

    # --- per-die reference flow -------------------------------------
    def tester(self) -> SignatureTester:
        config = self.engine.config
        return SignatureTester(config.encoder, config.stimulus,
                               BiquadFilter(config.golden_spec),
                               samples_per_period=SAMPLES_PER_PERIOD,
                               refine=False)

    def check_dies(self, cuts, ndfs, verdicts, rng) -> dict:
        """Sampled dies against ``SignatureTester.measure``, bit for bit."""
        tester = self.tester()
        picks = rng.choice(len(cuts), size=min(CHECKED_DIES, len(cuts)),
                           replace=False)
        mismatches, runs = [], []
        for i in sorted(int(p) for p in picks):
            measured = tester.measure(cuts[i], self.band)
            runs.append(len(measured.signature.entries))
            if measured.ndf != ndfs[i] or \
                    measured.verdict.passed != bool(verdicts[i]):
                mismatches.append(i)
        return {"dies_checked": len(picks), "mismatches": mismatches,
                "runs_per_die": runs}

    # --- the closed loop -------------------------------------------
    def lot(self, index):
        if self.pool is None:
            return self.make_lot(index)
        slot = index % self.pool
        if slot not in self._inputs:
            self._inputs[slot] = self.make_lot(slot)
        return self._inputs[slot]

    def measure(self, seconds: float, first_index: int) -> dict:
        lots, timed, index = [], 0.0, first_index
        kernel = hostspeed.kernel_seconds() if self.host_scaled else None
        while timed < seconds:
            lot = self.lot(index)
            start = time.perf_counter()
            error = None
            try:
                with span("bench.lot", workload=self.name, index=index):
                    output = self.run_lot(lot)
            except Exception:  # a failed lot counts; the run goes on
                error = traceback.format_exc(limit=4)
                output = None
            wall = time.perf_counter() - start
            timed += wall
            lots.append({"index": index, "dies": self.lot_dies,
                         "wall": wall, "error": error})
            if self.host_scaled:
                after = hostspeed.kernel_seconds()
                lots[-1]["kernel"] = (kernel + after) / 2
                kernel = after
            if output is not None and self.kept is None:
                self.kept = (index, lot, output)
            index += 1
        return {"lots": lots, "wall": timed}

    def check(self) -> dict:
        if self.kept is None:
            return {"ok": False, "reason": "no lot completed"}
        report = self.check_lot(*self.kept)
        report["ok"] = not report.get("mismatches") and \
            report.get("ok", True)
        return report


class FleetStream(Workload):
    """An in-process streamed Monte Carlo fleet, serial executor."""

    name = "fleet_stream"
    lot_dies = 4096
    chunk = 512
    sigma_f0 = 0.03
    pool = 4

    def make_lot(self, index):
        return list(stream_montecarlo_dies(
            self.engine.config.golden_spec, self.lot_dies,
            chunk_size=self.chunk, sigma_f0=self.sigma_f0,
            seed=self.lot_seed(index)))

    def run_lot(self, chunks):
        return self.engine.submit(ScreeningRequest(
            population=iter(chunks), mode="stream"))

    def check_lot(self, index, chunks, result):
        cuts = [BiquadFilter(s) for chunk in chunks for s in chunk.specs]
        report = self.check_dies(cuts, result.ndfs, result.verdicts,
                                 self.rng(index, 1))
        report["fail_frac"] = result.fail_count / result.num_dies
        return report


class TracesDiagnose(Workload):
    """Measured noisy trace lots, screened and then diagnosed."""

    name = "traces_diagnose"
    lot_dies = 2048
    sigma_f0 = 0.08
    #: One-sigma measurement noise in volts (the paper's 3-sigma is
    #: 0.015 V).
    noise = 0.005
    pool = 2

    def setup(self) -> None:
        super().setup()
        self.dictionary = compile_fault_dictionary(self.engine)

    def make_lot(self, index):
        specs = montecarlo_dies(
            self.engine.config.golden_spec, self.lot_dies,
            sigma_f0=self.sigma_f0, seed=self.lot_seed(index)).specs
        clean = batch_biquad_traces(specs, self.engine.config.stimulus,
                                    self.engine.golden().times)
        return trace_population(clean + self.rng(index, 2).normal(
            0.0, self.noise, clean.shape))

    def run_lot(self, population):
        result = self.engine.submit(ScreeningRequest(
            population=population, keep_signatures=True))
        return result, result.diagnose(self.dictionary)

    def check_lot(self, index, population, output):
        result, diagnosis = output
        golden = BiquadFilter(self.engine.config.golden_spec).lissajous(
            self.engine.config.stimulus, SAMPLES_PER_PERIOD)
        cuts = [_MeasuredCut(golden.x, row, golden.period)
                for row in population.y_stack]
        report = self.check_dies(cuts, result.ndfs, result.verdicts,
                                 self.rng(index, 1))
        failing = result.failing_indices()
        rng = self.rng(index, 3)
        picks = np.sort(rng.choice(len(failing),
                                   size=min(16, len(failing)),
                                   replace=False))
        reference = DictionaryMatcher(self.dictionary).match_reference(
            result.signature_batch.select(failing[picks]))
        same = np.array_equal(reference.top_indices[:, 0],
                              diagnosis.top_indices[picks, 0]) and \
            np.array_equal(reference.distances,
                           diagnosis.distances[picks])
        report["diagnoses_checked"] = int(len(picks))
        report["ok"] = bool(same)
        report["fail_frac"] = result.fail_count / result.num_dies
        return report


class ShardedPipe(Workload):
    """``run_sharded`` over a Monte Carlo fleet with two pipe workers."""

    name = "sharded_pipe"
    lot_dies = 8192
    chunk = 512
    shards = 2
    # The kernel timed in this process does not track the speed of two
    # worker processes: scaling widened the run-to-run spread.
    host_scaled = False

    def make_lot(self, index):
        from repro.shard import MonteCarloFleet

        return MonteCarloFleet(self.engine.config.golden_spec,
                               self.lot_dies, sigma_f0=0.03,
                               seed=self.lot_seed(index),
                               chunk_size=self.chunk)

    def run_lot(self, fleet):
        workdir = self.workdir / f"shards-{time.monotonic_ns()}"
        workdir.mkdir()
        return self.engine.submit(ScreeningRequest(
            population=fleet, mode="sharded", shards=self.shards,
            shard_workdir=str(workdir)))

    def check_lot(self, index, fleet, result):
        in_process = self.engine.submit(ScreeningRequest(
            population=fleet.chunks(0, len(fleet)), mode="stream"))
        cuts = [BiquadFilter(s) for chunk in fleet.chunks(0, len(fleet))
                for s in chunk.specs]
        report = self.check_dies(cuts, result.ndfs, result.verdicts,
                                 self.rng(index, 1))
        report["ok"] = bool(np.array_equal(in_process.ndfs, result.ndfs))
        report["shard_stats"] = result.shard_stats
        return report


class ServiceLots(Workload):
    """Open-loop Poisson arrivals of Monte Carlo lots over HTTP."""

    name = "service_lots"
    lot_dies = 64
    rate = 20.0  # lots per second
    connections = 2
    timeout = 10.0

    def setup(self) -> None:
        super().setup()
        from repro.service import ServiceClient

        self.client_class = ServiceClient
        self.replies = {}

    def check(self) -> dict:
        """One seeded pick among the completed lots."""
        if self.replies:
            done = sorted(self.replies)
            index = done[int(self.rng(0, 5).integers(len(done)))]
            self.kept = (index, None, self.replies[index])
        return super().check()

    def schedule(self, seconds: float, first_index: int):
        """Due times of a Poisson process holding ``rate * seconds`` lots.

        Given its count, a Poisson process's arrival times are sorted
        uniform draws; fixing the count keeps the offered load equal
        across seeds.
        """
        count = max(1, round(self.rate * seconds))
        return np.sort(self.rng(first_index, 4).uniform(0.0, seconds,
                                                        count))

    def payload(self, index: int) -> dict:
        return {"kind": "mc", "dies": self.lot_dies, "sigma": 0.03,
                "seed": self.lot_seed(index)}

    def measure_url(self, url: str, seconds: float,
                    first_index: int) -> dict:
        due = self.schedule(seconds, first_index)
        width = min(self.connections, len(os.sched_getaffinity(0)))
        pending: "queue.Queue" = queue.Queue()
        lots = [None] * len(due)
        replies_lock = threading.Lock()

        def sender() -> None:
            client = self.client_class(url, client_id="perfbench",
                                       timeout=self.timeout)
            while True:
                item = pending.get()
                if item is None:
                    return
                k, due_at = item
                sent = time.perf_counter()
                reply, error = None, None
                try:
                    reply = client.campaign(**self.payload(
                        first_index + k))
                except Exception as exc:  # non-2xx, timeout, reset
                    error = f"{type(exc).__name__}: {exc}"
                done = time.perf_counter()
                lots[k] = {
                    "index": first_index + k, "dies": self.lot_dies,
                    "due": due_at, "sent": sent,
                    "done": None if error else done, "error": error,
                    "engine": None if error
                    else reply["timing"]["total"]}
                if reply is not None:
                    with replies_lock:
                        self.replies[first_index + k] = reply

        threads = [threading.Thread(target=sender, daemon=True)
                   for _ in range(width)]
        for thread in threads:
            thread.start()
        origin = time.perf_counter()
        for k, offset in enumerate(due):
            delay = origin + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            pending.put((k, origin + offset))
        for _ in threads:
            pending.put(None)
        for thread in threads:
            thread.join(timeout=self.timeout * len(due))
        finished = [lot["done"] for lot in lots if lot and lot["done"]]
        end = max(finished) if finished else time.perf_counter()
        metrics = self.client_class(url, timeout=self.timeout) \
            .metrics_text()
        return {"lots": [lot for lot in lots if lot is not None],
                "attempted": len(due), "wall": end - origin,
                "metrics_text": metrics}

    def check_lot(self, index, _, reply):
        population = montecarlo_dies(
            self.engine.config.golden_spec, self.lot_dies, sigma_f0=0.03,
            seed=self.lot_seed(index))
        local = self.engine.run(population, band="auto")
        report = self.check_dies([BiquadFilter(s) for s in
                                  population.specs],
                                 np.asarray(reply["ndfs"]),
                                 reply["verdicts"], self.rng(index, 1))
        report["ok"] = reply["ndfs"] == [float(v) for v in local.ndfs] \
            and reply["verdicts"] == [bool(v) for v in local.verdicts]
        return report


WORKLOADS = {cls.name: cls for cls in
             (FleetStream, TracesDiagnose, ServiceLots, ShardedPipe)}


def span_rows(tracer: Tracer) -> list:
    return [record.to_dict() for record in tracer.records()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("role", choices=["setup", "measure"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--url", action="append", default=[],
                        help="service URL (service_lots; a second URL "
                             "is the traced server)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(
        os.environ.get("TMPDIR", ROOT)))
    tracer = Tracer(capacity=1 << 20) if args.trace else None
    if tracer is not None:
        install_tracer(tracer)
        with span("bench.setup", workload=args.workload):
            workload.setup()
        install_tracer(None)
    else:
        workload.setup()
    emit("ready", spans=span_rows(tracer) if tracer else [])
    if args.role == "setup":
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    phases = {}
    if isinstance(workload, ServiceLots):
        phases["untraced"] = workload.measure_url(args.url[0], seconds, 0)
        if args.trace:
            phases["traced"] = workload.measure_url(args.url[1], seconds,
                                                    1 << 20)
    else:
        phases["untraced"] = workload.measure(seconds, 0)
        if args.trace:
            tracer.clear()
            before = _shard_bytes()
            install_tracer(tracer)
            phases["traced"] = workload.measure(seconds, 1 << 20)
            install_tracer(None)
            after = _shard_bytes()
            phases["traced"]["spans"] = span_rows(tracer)
            phases["traced"]["dropped_spans"] = tracer.dropped
            phases["traced"]["transport_bytes"] = {
                k: after[k] - before[k] for k in after}
    emit("measured")
    try:
        check = workload.check()
    except Exception:
        check = {"ok": False, "reason": traceback.format_exc(limit=6)}
    args.out.write_text(json.dumps({"phases": phases, "check": check},
                                   default=_jsonable))
    emit("done")
    return 0


def _shard_bytes() -> dict:
    """Shard protocol bytes this process sent and received so far."""
    from repro.obs.metrics import default_registry

    counters = default_registry().snapshot()["counters"]
    totals = {"sent": 0.0, "received": 0.0}
    for key, value in counters.items():
        if key.startswith("shard_bytes_total"):
            for direction in totals:
                if f'direction="{direction}"' in key:
                    totals[direction] += value
    return totals


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


if __name__ == "__main__":
    sys.exit(main())
