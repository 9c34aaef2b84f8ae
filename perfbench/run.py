#!/usr/bin/env python3
"""The repository benchmark: one workload, fresh processes, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_stream --seed 1 \
        --seconds 20 --trace 0

``BENCHMARK.json`` names the workloads and metrics.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it (``perfbench-record``) holds the whole record: the
machine fingerprint, every figure measured, and the correctness
report.  The exit code is non-zero when a correctness check fails.

Set-up is sampled ``SETUP_SAMPLES`` times in fresh processes: from
spawn until ``perfbench/workloads.py`` says it is ready (for
``service_lots``, until the server's ``/healthz`` answers).  The last
sample goes on to measure.  Set-up times and single-process lot walls
are stated at nominal host speed (see ``hostspeed.py``).  Peak memory is the high-water resident
set summed over the measuring process tree (the server for
``service_lots``), polled while the workload runs.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS_SCRIPT = BENCH / "workloads.py"

SETUP_SAMPLES = 3
#: Wall-clock limit for any one process the benchmark starts.
PROCESS_LIMIT_S = 150.0
RSS_POLL_S = 0.05


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
class Child:
    """A process group started by the benchmark, killed on close."""

    def __init__(self, argv, env, stdout=subprocess.PIPE, stderr=None):
        self.proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdout=stdout, text=True,
            stderr=stderr if stderr is not None else subprocess.DEVNULL,
            start_new_session=True)
        self._watchdog = threading.Timer(PROCESS_LIMIT_S, self.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def event(self, name: str) -> dict:
        """Read stdout JSON events until ``name`` arrives."""
        for line in self.proc.stdout:
            if line.startswith("{"):
                event = json.loads(line)
                if event.get("event") == name:
                    return event
        raise RuntimeError(f"process {self.pid} exited before '{name}' "
                           f"(code {self.proc.wait()})")

    def line(self, pattern: str) -> re.Match:
        for line in self.proc.stdout:
            match = re.search(pattern, line)
            if match:
                return match
        raise RuntimeError(f"process {self.pid} exited before printing "
                           f"/{pattern}/ (code {self.proc.wait()})")

    def wait(self, timeout: float = PROCESS_LIMIT_S) -> int:
        return self.proc.wait(timeout=timeout)

    def terminate(self, timeout: float = 30.0) -> int:
        """SIGTERM the process group and wait; SIGKILL when it lingers."""
        if self.proc.poll() is None:
            os.killpg(self.pid, signal.SIGTERM)
            try:
                return self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()
        return self.proc.returncode

    def kill(self) -> None:
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()

    def close(self) -> None:
        self._watchdog.cancel()
        self.kill()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _tree(pid: int):
    """``pid`` and all of its live descendants."""
    stack, found = [pid], []
    while stack:
        current = stack.pop()
        found.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


class PeakRss(threading.Thread):
    """Polls the summed resident high-water mark of a process tree."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self._stop_event = threading.Event()

    def sample(self) -> None:
        total = sum(_hwm_kb(p) for p in _tree(self.pid))
        self.peak_kb = max(self.peak_kb, total)

    def run(self) -> None:
        while not self._stop_event.wait(RSS_POLL_S):
            self.sample()

    def finish(self) -> float:
        """Stop polling; the peak in MB."""
        self.sample()
        self._stop_event.set()
        self.join()
        return self.peak_kb / 1024.0


class Session:
    """Everything one benchmark run starts, and the scratch it writes."""

    def __init__(self, args) -> None:
        self.args = args
        self.work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        self.children = []
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.work / "tmp")
        self.env = env

    def spawn(self, argv, **kwargs) -> Child:
        child = Child(argv, self.env, **kwargs)
        self.children.append(child)
        return child

    def workload_process(self, role: str, *extra, python_flags=(),
                         stderr=None) -> Child:
        a = self.args
        return self.spawn(
            [sys.executable, *python_flags, str(WORKLOADS_SCRIPT),
             a.workload, role, "--seed", str(a.seed), "--seconds",
             str(a.seconds), "--trace", str(a.trace), *extra],
            stderr=stderr)

    def close(self) -> None:
        for child in self.children:
            child.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Set-up samples
# ----------------------------------------------------------------------
def setup_probe(session: Session) -> list:
    """``[seconds, host kernel seconds]`` of one fresh-process set-up."""
    kernel = hostspeed.kernel_seconds()
    start = time.perf_counter()
    child = session.workload_process("setup")
    child.event("ready")
    elapsed = time.perf_counter() - start
    child.wait()
    return [elapsed, (kernel + hostspeed.kernel_seconds()) / 2]


def import_times(session: Session) -> dict:
    """Import cost by top-level package, from ``python -X importtime``."""
    log = session.work / "importtime.log"
    with open(log, "w") as fh:
        child = session.workload_process("setup", stderr=fh,
                                         python_flags=("-X", "importtime"))
        child.event("ready")
        child.wait()
    own = {}
    cumulative = {}
    for line in log.read_text().splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us = int(parts[0].split(":")[1])
            cumulative_us = int(parts[1])
        except ValueError:
            continue
        module = parts[2].strip()
        package = module.split(".")[0]
        own[package] = own.get(package, 0) + self_us
        if module == package:
            cumulative[package] = cumulative_us
    return {"repro": cumulative.get("repro", 0) / 1e6,
            "scipy": own.get("scipy", 0) / 1e6,
            "numpy": own.get("numpy", 0) / 1e6}


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, session: Session, trace_path=None) -> None:
        self.trace_path = trace_path
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--samples", "2048"]
        if trace_path is not None:
            argv += ["--trace", str(trace_path)]
        self.start = time.perf_counter()
        self.log = open(session.work / f"serve-{len(session.children)}"
                        ".log", "w")
        self.child = session.spawn(argv, stderr=self.log)

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/healthz`` answers 200."""
        match = self.child.line(r"serving at http://([\d.]+):(\d+)")
        self.host, self.port = match.group(1), int(match.group(2))
        while True:
            try:
                conn = http.client.HTTPConnection(self.host, self.port,
                                                  timeout=5)
                conn.request("GET", "/healthz")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    return time.perf_counter() - self.start
            except OSError:
                pass
            if time.perf_counter() - self.start > PROCESS_LIMIT_S:
                raise RuntimeError("server never became ready")
            time.sleep(0.005)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        code = self.child.terminate()
        self.log.close()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def setup_probes(session: Session) -> int:
    """Extra set-up samples to take: none on a traced run, which
    reports no set-up time."""
    return 0 if session.args.trace else SETUP_SAMPLES - 1


def run_in_process(session: Session) -> dict:
    setups = [setup_probe(session) for _ in range(setup_probes(session))]
    imports = import_times(session) if session.args.trace else {}
    out = session.work / "result.json"
    kernel = hostspeed.kernel_seconds()
    start = time.perf_counter()
    child = session.workload_process("measure", "--out", str(out))
    ready = child.event("ready")
    setups.append([time.perf_counter() - start, kernel])
    rss = PeakRss(child.pid)
    rss.start()
    child.event("measured")
    peak = rss.finish()
    child.event("done")
    if child.wait() != 0:
        raise RuntimeError("measuring process failed")
    result = json.loads(out.read_text())
    result.update(setups=setups, peak_rss_mb=peak, imports=imports,
                  setup_spans=ready["spans"])
    return result


def run_service(session: Session) -> dict:
    setups = []
    for _ in range(setup_probes(session)):
        kernel = hostspeed.kernel_seconds()
        probe = Server(session)
        seconds = probe.wait_ready()
        probe.stop()
        setups.append([seconds, (kernel + hostspeed.kernel_seconds()) / 2])
    imports = import_times(session) if session.args.trace else {}
    kernel = hostspeed.kernel_seconds()
    server = Server(session)
    setups.append([server.wait_ready(), kernel])
    servers = [server]
    if session.args.trace:
        servers.append(Server(session, session.work / "server-trace.json"))
        servers[1].wait_ready()
    out = session.work / "result.json"
    child = session.workload_process(
        "measure", "--out", str(out),
        *[arg for s in servers for arg in ("--url", s.url)])
    child.event("ready")
    rss = PeakRss(server.child.pid)
    rss.start()
    child.event("measured")
    peak = rss.finish()
    child.event("done")
    if child.wait() != 0:
        raise RuntimeError("load generator failed")
    for s in servers:
        s.stop()
    result = json.loads(out.read_text())
    result.update(setups=setups, peak_rss_mb=peak, imports=imports,
                  setup_spans=[])
    if session.args.trace:
        result["server_spans"] = chrome_rows(servers[1].trace_path)
    return result


def chrome_rows(path: Path) -> list:
    """Span rows out of a Chrome ``trace_event`` file."""
    rows = []
    for event in json.loads(path.read_text())["traceEvents"]:
        args = event.get("args", {})
        rows.append({"name": event["name"], "span_id": args["span_id"],
                     "parent_id": args.get("parent_id"),
                     "start": event["ts"] / 1e6,
                     "duration": event["dur"] / 1e6,
                     "attributes": args})
    return rows


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def at_nominal(seconds: float, kernel) -> float:
    """``seconds`` stated at nominal host speed; as is without a kernel
    time."""
    return seconds if kernel is None \
        else seconds * hostspeed.NOMINAL_S / kernel


def lot_figures(phase: dict, open_loop: bool) -> dict:
    """Counts, throughput and lot latency of one measured phase.

    Lots timed next to the host-speed kernel are scaled to nominal
    speed; ``*_raw`` figures are unscaled.
    """
    lots = phase["lots"]
    attempted = phase.get("attempted", len(lots))
    failed = attempted - sum(1 for lot in lots if lot["error"] is None)
    dies = sum(lot["dies"] for lot in lots if lot["error"] is None)
    if open_loop:
        raw = spans.due_latencies([lot["due"] for lot in lots],
                                  [lot["done"] for lot in lots])
        raw += [math.inf] * (attempted - len(lots))
        latencies = raw
        wall = phase["wall"]
    else:
        raw = [lot["wall"] if lot["error"] is None else math.inf
               for lot in lots]
        latencies = [at_nominal(value, lot.get("kernel"))
                     for value, lot in zip(raw, lots)]
        wall = sum(at_nominal(lot["wall"], lot.get("kernel"))
                   for lot in lots)
    pct, tail = spans.tail_percentile(latencies, 99.0)
    return {"attempted": attempted, "failed": failed, "dies": dies,
            "wall": wall, "dies_per_s": dies / wall,
            "dies_per_s_raw": dies / phase["wall"],
            "lots_per_s": (attempted - failed) / phase["wall"],
            "lot_p50_ms": spans.median(latencies) * 1e3,
            "lot_mean_ms": 1e3 * statistics.fmean(
                [v for v in latencies if math.isfinite(v)] or [math.nan]),
            "lot_p50_ms_raw": spans.median(raw) * 1e3,
            "lot_tail_pct": pct,
            "lot_tail_ms": None if tail is None else tail * 1e3,
            "lots": len(latencies)}


def end_to_end(result: dict, open_loop: bool) -> dict:
    figures = lot_figures(result["phases"]["untraced"], open_loop)
    return {
        "setup_s": spans.median([at_nominal(seconds, kernel)
                                 for seconds, kernel in result["setups"]]),
        "dies_per_s": figures["dies_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1.0 - figures["failed"] / figures["attempted"],
    }, figures


def _by_name(rows):
    groups = {}
    for row in rows:
        groups.setdefault(row["name"], []).append(row)
    return groups


def _per_die_us(groups, selfs, name) -> float:
    rows = groups.get(name, [])
    dies = sum(row.get("attributes", {}).get("dies", 0) for row in rows)
    return 1e6 * sum(selfs[r["span_id"]] for r in rows) / dies \
        if dies else 0.0


def _cache_seconds(rows, kind) -> float:
    return sum(r["duration"] for r in rows if r["name"] == "cache.compute"
               and r.get("attributes", {}).get("kind") == kind)


def _metric_total(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if re.match(rf"repro_{name}(\{{| )", line):
            total += float(line.rsplit(" ", 1)[1])
    return total


def stage_layers(rows) -> dict:
    """Per-die stage costs and engine overhead from one span set."""
    groups = _by_name(rows)
    selfs = spans.self_times(rows)
    submits = groups.get("campaign.submit", [])
    matched = groups.get("dictionary.match", [])
    matched_dies = sum(r["attributes"].get("dies", 0) for r in matched)
    return {
        "campaign.batch.traces_us_per_die":
            _per_die_us(groups, selfs, "stage.traces"),
        "monitor.bank_encode.encode_us_per_die":
            _per_die_us(groups, selfs, "stage.encode"),
        "core.signature_batch.extract_us_per_die":
            _per_die_us(groups, selfs, "stage.signature"),
        "core.signature_batch.ndf_us_per_die":
            _per_die_us(groups, selfs, "stage.ndf"),
        "campaign.engine.self_s":
            spans.median([selfs[r["span_id"]] for r in submits])
            if submits else 0.0,
        "campaign.engine.submits": float(len(submits)),
        "diagnosis.matcher.match_us_per_die":
            1e6 * sum(r["duration"] for r in matched) / matched_dies
            if matched_dies else 0.0,
        "diagnosis.matcher.dies_matched": float(matched_dies),
    }


def shard_layers(rows, transport: dict) -> dict:
    groups = _by_name(rows)
    campaigns = groups.get("shard.campaign", [])
    runs = groups.get("shard.worker.run", [])
    startups, busy, span_total = [], 0.0, 0.0
    for campaign in campaigns:
        lo = campaign["start"]
        hi = lo + campaign["duration"]
        mine = [r for r in runs if lo <= r["start"] <= hi]
        first = {}
        for run in mine:
            pid = run["attributes"].get("pid")
            first[pid] = min(first.get(pid, math.inf), run["start"])
        startups += [start - lo for start in first.values()]
        busy += sum(r["duration"] for r in mine)
        span_total += campaign["duration"] * \
            campaign["attributes"].get("workers", 1)
    dispatches = groups.get("shard.dispatch", [])
    merges = groups.get("shard.merge", [])
    return {
        "shard.worker_startup_s": spans.median(startups)
        if startups else 0.0,
        "shard.worker_busy_frac": busy / span_total if span_total else 0.0,
        "shard.merge_s": spans.median([r["duration"] for r in merges])
        if merges else 0.0,
        "shard.transport.bytes_in": transport.get("received", 0.0),
        "shard.transport.bytes_out": transport.get("sent", 0.0),
        "shard.dispatched": float(len(dispatches)),
        "shard.reassigned": float(sum(
            1 for r in dispatches if r["attributes"].get("attempt", 1) > 1)),
    }


def per_layer(result: dict, open_loop: bool, names) -> tuple:
    phases = result["phases"]
    untraced = lot_figures(phases["untraced"], open_loop)
    traced = lot_figures(phases["traced"], open_loop)
    metrics = dict.fromkeys(names, 0.0)
    imports = result["imports"]
    metrics["startup.import_repro_s"] = imports["repro"]
    metrics["startup.import_scipy_s"] = imports["scipy"]
    metrics["startup.import_numpy_s"] = imports["numpy"]
    setup_rows = result["setup_spans"] or result.get("server_spans", [])
    metrics["campaign.cache.golden_s"] = _cache_seconds(setup_rows,
                                                        "golden")
    metrics["campaign.cache.calibration_s"] = _cache_seconds(
        setup_rows, "calibration")
    metrics["diagnosis.dictionary.compile_s"] = sum(
        r["duration"] for r in setup_rows
        if r["name"] == "dictionary.compile")
    runs = result["check"].get("runs_per_die") or []
    metrics["core.signature_batch.runs_per_die"] = \
        sum(runs) / len(runs) if runs else 0.0
    # The tracing overhead compares the two halves' time per die (closed
    # loop) or per lot (open loop), host-scaled where the workload is;
    # layer seconds are unscaled, so their sum is compared with the
    # unscaled traced time.
    if open_loop:
        lots = [lot for lot in phases["traced"]["lots"]
                if lot["error"] is None]
        # Server spans from before the first lot belong to its warm-up.
        rows = result["server_spans"]
        first = min(r["start"] for r in rows if r["name"] == "http.request"
                    and r["attributes"].get("method") == "POST")
        metrics.update(stage_layers([r for r in rows
                                     if r["start"] >= first]))
        engine = [lot["engine"] for lot in lots]
        http = [lot["done"] - lot["sent"] - lot["engine"] for lot in lots]
        late = [lot["sent"] - lot["due"] for lot in lots]
        __, late_tail = spans.tail_percentile(late, 99.0)
        text = phases["traced"]["metrics_text"]
        metrics.update({
            "service.client.lot_p50_ms": traced["lot_p50_ms"],
            "service.client.lot_tail_ms": traced["lot_tail_ms"] or 0.0,
            "service.server.engine_ms_p50": 1e3 * spans.median(engine),
            "service.http_overhead_ms_p50": 1e3 * spans.median(http),
            "service.client.generator_late_p99_ms":
                1e3 * (max(late) if late_tail is None else late_tail),
            "service.batcher.coalesced_requests_mean":
                _metric_total(text, "coalesced_requests_sum")
                / max(_metric_total(text, "coalesced_requests_count"), 1),
            "service.batcher.coalesced_dies_mean":
                _metric_total(text, "coalesced_dies_sum")
                / max(_metric_total(text, "coalesced_dies_count"), 1),
            "service.server.errors_total": _metric_total(text,
                                                         "errors_total"),
            "service.server.shed_total": _metric_total(text, "shed_total"),
        })
        layers = {"client.wait": sum(late),
                  "http": sum(http), "engine": sum(engine)}
        traced_raw = sum(lot["done"] - lot["due"] for lot in lots)
        overhead = traced["lot_mean_ms"] / untraced["lot_mean_ms"] - 1.0
    else:
        rows = phases["traced"]["spans"]
        metrics.update(stage_layers(rows))
        metrics.update(shard_layers(rows, phases["traced"]
                                    .get("transport_bytes", {})))
        layers = spans.wall_shares(rows)
        traced_raw = phases["traced"]["wall"]
        overhead = (traced["wall"] / traced["dies"]) / \
            (untraced["wall"] / untraced["dies"]) - 1.0
    metrics["bench.trace_overhead_frac"] = overhead
    metrics["bench.layer_sum_frac"] = \
        sum(layers.values()) / traced_raw * (1.0 + overhead)
    return metrics, {"untraced": untraced, "traced": traced,
                     "layers_s": layers}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    """What a number is tied to: the machine, the toolchain, the code."""
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:  # not an enclosing repository
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "simd_baseline": simd.get("baseline"),
        "simd_found": simd.get("found"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def summary(workload: str, e2e: dict, figures: dict, check: dict) -> str:
    tail = (f"lot_p{figures['lot_tail_pct']:.4g}_ms="
            f"{figures['lot_tail_ms']:.2f} ms"
            if figures["lot_tail_ms"] is not None
            else f"lot tail: {figures['lots']} lots, too few for a "
                 f"percentile with {spans.MIN_BEYOND} beyond")
    lines = [
        f"{workload}: setup_s={e2e['setup_s']:.3f} s  "
        f"dies_per_s={e2e['dies_per_s']:.1f} 1/s  "
        f"peak_rss_mb={e2e['peak_rss_mb']:.1f} MB  "
        f"error_frac={figures['failed'] / figures['attempted']:.4f}",
        f"{workload}: lot_p50_ms={figures['lot_p50_ms']:.2f} ms  {tail}  "
        f"lots_per_s={figures['lots_per_s']:.2f} 1/s  "
        f"lots={figures['lots']}  attempted={figures['attempted']}  "
        f"failed={figures['failed']}",
        f"{workload}: correctness {'ok' if check.get('ok') else 'FAILED'}"
        f" {json.dumps({k: v for k, v in check.items() if k != 'ok'})}",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds through the cleanup that stops every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro is missing; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    # Byte-compile first, so no set-up sample pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src")], check=True,
                   stdout=subprocess.DEVNULL)

    open_loop = args.workload == "service_lots"
    session = Session(args)
    try:
        result = run_service(session) if open_loop \
            else run_in_process(session)
    finally:
        session.close()

    check = result["check"]
    e2e, figures = end_to_end(result, open_loop)
    print(summary(args.workload, e2e, figures, check))
    if args.trace:
        names = [m["name"] for m in manifest["per_layer"]]
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        metrics, detail = per_layer(result, open_loop, names)
        attempted = detail["untraced"]["attempted"] + \
            detail["traced"]["attempted"]
        failed = detail["untraced"]["failed"] + detail["traced"]["failed"]
        print(f"{args.workload}: layer seconds "
              + json.dumps({k: round(v, 4) for k, v in
                            sorted(detail["layers_s"].items())}))
    else:
        names = [m["name"] for m in manifest["end_to_end"]]
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        metrics = e2e
        attempted, failed = figures["attempted"], figures["failed"]
        detail = {"figures": figures}
    # A figure is not finite when at least half the lots failed (a
    # median latency is then infinite); such a run fails.
    finite = all(math.isfinite(metrics[name]) for name in names)
    correct = bool(check.get("ok")) and finite
    final = {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": {name: {"value": metrics[name]
                                if math.isfinite(metrics[name]) else None,
                                "unit": units[name]} for name in names}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint(), "setup_samples_s":
              result["setups"], "check": check, "detail": detail,
              **final}
    print("perfbench-record " + json.dumps(record, default=str))
    print(json.dumps(final, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
