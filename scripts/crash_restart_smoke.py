"""Crash-restart smoke: kill -9 everything, lose nothing.

Two phases, both driven against real processes (the CI
``crash-restart-smoke`` job):

**Phase A -- warm-state persistence.**  Boot ``repro serve --store``,
warm it (golden + band + dictionary written through to the store),
screen a lot, then ``kill -9`` the server.  A restarted server over
the same store must come up warm with **zero recompute** -- the
``/healthz``/``/metrics`` store counters prove it (hits only, no
writes) -- and re-screening the same lot must answer bit-identically.

**Phase B -- crash-safe streamed campaign.**  Launch
``repro campaign --stream --checkpoint`` as a subprocess and
``kill -9`` it the moment its first checkpoint lands.  Re-running the
same command resumes behind the checkpoint; the persisted fleet stats
(NDFs, deviations, verdict threshold, labels) must match an
uninterrupted in-process reference **bit for bit**.

Usage::

    python scripts/crash_restart_smoke.py --port 8767 --samples 512

Exits non-zero on the first violated assertion.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np


def _spawn_serve(args, store_root: str) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", str(args.port), "--samples", str(args.samples),
        "--window-ms", "5", "--store", store_root,
    ]
    return subprocess.Popen(command, env=_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.STDOUT)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    return env


def _kill9(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGKILL)
    process.wait(timeout=30)


def phase_a_server_restart(args, store_root: str) -> None:
    from repro.service import ServiceClient

    client = ServiceClient(f"http://127.0.0.1:{args.port}",
                           client_id="crash-smoke")

    server = _spawn_serve(args, store_root)
    try:
        health = client.wait_ready(timeout=300.0)
        store = health["store"]
        assert store["writes"] >= 3, \
            f"cold boot should write golden+band+dictionary: {store}"
        first = client.campaign(kind="mc", dies=args.dies,
                                sigma=0.05, seed=17)
        print(f"phase A: cold boot wrote {store['writes']} artifacts, "
              f"screened {first['dies']} dies "
              f"({first['pass']} pass)")
    finally:
        _kill9(server)

    server = _spawn_serve(args, store_root)
    try:
        health = client.wait_ready(timeout=300.0)
        store = health["store"]
        assert store["writes"] == 0, \
            f"restart must not recompute anything: {store}"
        assert store["hits"] >= 3, \
            f"restart must warm from the store: {store}"
        assert store["quarantined"] == 0, f"unexpected damage: {store}"
        second = client.campaign(kind="mc", dies=args.dies,
                                 sigma=0.05, seed=17)
        assert second["ndfs"] == first["ndfs"], \
            "restarted server's NDFs differ"
        assert second["verdicts"] == first["verdicts"], \
            "restarted server's verdicts differ"
        assert second["threshold"] == first["threshold"], \
            "restarted server's threshold differs"
        scrape = client.metrics_text()
        assert "repro_store_hits" in scrape, "store metrics missing"
        hits_line = [line for line in scrape.splitlines()
                     if line.startswith("repro_store_hits")]
        print(f"phase A: restart warm with zero recompute "
              f"({hits_line[0].strip()}), replies bit-identical")
    finally:
        _kill9(server)


def phase_b_campaign_resume(args, work_dir: str) -> None:
    from repro.campaign import (ScreeningRequest, StreamCheckpoint,
                                stream_montecarlo_dies)
    from repro.paper import paper_setup

    checkpoint = os.path.join(work_dir, "campaign.npz")
    command = [
        sys.executable, "-m", "repro", "campaign",
        "--dies", str(args.stream_dies), "--stream",
        "--chunk", str(args.chunk), "--sigma", "0.05", "--seed", "29",
        "--samples", str(args.samples),
        "--checkpoint", checkpoint, "--json",
    ]

    victim = subprocess.Popen(command, env=_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 600.0
    while not os.path.exists(checkpoint) \
            and victim.poll() is None \
            and time.monotonic() < deadline:
        time.sleep(0.002)
    assert os.path.exists(checkpoint), \
        "campaign never wrote its first checkpoint"
    _kill9(victim)
    assert victim.returncode == -signal.SIGKILL, \
        f"expected SIGKILL death, got {victim.returncode}"

    partial = StreamCheckpoint.load(checkpoint)
    assert not partial.complete, "campaign finished before the kill"
    assert 0 < partial.next_index < args.stream_dies, \
        f"kill did not land mid-campaign (at {partial.next_index})"
    print(f"phase B: killed -9 at die {partial.next_index}"
          f"/{args.stream_dies}")

    rerun = subprocess.run(command, env=_env(),
                           stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=600)
    assert rerun.returncode == 0, \
        f"resume failed:\n{rerun.stdout.decode(errors='replace')}"

    final = StreamCheckpoint.load(checkpoint)
    assert final.complete and final.num_dies == args.stream_dies

    # Uninterrupted reference, built exactly the way the CLI builds
    # its engine and stream.
    setup = paper_setup(samples_per_period=2048)
    engine = setup.campaign_engine(samples_per_period=args.samples,
                                   tolerance=0.05)
    reference = engine.submit(ScreeningRequest(
        population=stream_montecarlo_dies(setup.golden_spec, args.stream_dies,
                                          chunk_size=args.chunk, sigma_f0=0.05,
                                          seed=29), mode="stream",
        band="auto"))
    resumed_ndfs = final.values(np.empty(0))
    np.testing.assert_array_equal(resumed_ndfs, reference.ndfs)
    np.testing.assert_array_equal(final.f0_deviations(),
                                  reference.f0_deviations)
    assert final.threshold == reference.threshold
    assert final.labels == reference.labels
    verdicts = resumed_ndfs <= final.threshold
    np.testing.assert_array_equal(verdicts, reference.verdicts)
    print(f"phase B: resumed campaign bit-identical over "
          f"{args.stream_dies} dies "
          f"({int(verdicts.sum())} pass / "
          f"{int((~verdicts).sum())} fail)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=8767)
    parser.add_argument("--samples", type=int, default=512)
    parser.add_argument("--dies", type=int, default=16,
                        help="lot size for the served phase")
    parser.add_argument("--stream-dies", type=int, default=3000,
                        help="fleet size of the killed campaign")
    parser.add_argument("--chunk", type=int, default=100)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-crash-") as work:
        phase_a_server_restart(args, os.path.join(work, "store"))
        phase_b_campaign_resume(args, work)
    print("crash-restart smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
