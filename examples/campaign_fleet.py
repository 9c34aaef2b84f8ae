"""Fleet view: screening thousands of dies in one campaign call.

Where ``examples/yield_and_escapes.py`` walks the production trade-off
one die at a time, this script runs the same signature flow at fleet
scale through :mod:`repro.campaign`:

1. build a campaign engine on the paper bench (golden signature and
   Fig. 8 band are computed once and content-cached);
2. screen a 2000-die Monte Carlo population in one batched call --
   stacked traces, shared-branch zone encoding, packed
   ``SignatureBatch`` extraction, one-pass fleet NDF -- and print the
   fleet economics plus the per-stage timings;
3. re-run the same seeded population on a process pool and on the
   shared-memory executor and check all verdict vectors are
   bit-identical;
4. stream a fleet larger than you would want in memory through
   bounded-size chunks (same seeds, same verdicts, bounded RSS);
5. repeat every die's measurement under Section IV-C noise as one
   ``(N, repeats)`` batch and read off per-die detection rates;
6. screen two more population kinds through the same engine: the
   monitor's own process variation and the industrial temperature
   corners.

Run with:  python examples/campaign_fleet.py
"""

import numpy as np

from repro import paper_setup
from repro.campaign import (
    CampaignEngine,
    GoldenCache,
    ProcessPoolExecutor,
    ScreeningRequest,
    SharedMemoryExecutor,
    montecarlo_dies,
    montecarlo_monitor_banks,
    stream_montecarlo_dies,
    temperature_corners,
)
from repro.devices.process import MonteCarloSampler
from repro.devices.temperature import industrial_range
from repro.monitor.configurations import table1_bank


def main() -> None:
    setup = paper_setup(samples_per_period=2048)
    engine = setup.campaign_engine(tolerance=0.05)

    print("=== 2000-die Monte Carlo screening (sigma_f0 = 3 %) ===")
    dies = montecarlo_dies(setup.golden_spec, 2000, sigma_f0=0.03,
                           seed=42)
    result = engine.run(dies, band="auto")
    print(result.summary())
    report = result.yield_report()
    print(f"yield loss rate: {report.yield_loss_rate:.2%}   "
          f"escape rate: {report.escape_rate:.2%}")
    stages = " / ".join(f"{k} {result.timing[k] * 1e3:.0f} ms"
                        for k in ("traces", "encode", "signature",
                                  "ndf") if k in result.timing)
    print(f"stage timings: {stages}\n")

    print("=== same fleet on a process pool and in shared memory ===")
    for executor_cls in (ProcessPoolExecutor, SharedMemoryExecutor):
        with executor_cls(max_workers=4) as pool:
            pooled = CampaignEngine(engine.config, cache=GoldenCache(),
                                    executor=pool).run(dies,
                                                       band="auto")
        same = np.array_equal(result.verdicts, pooled.verdicts)
        print(f"{pooled.executor}: {pooled.pass_count} PASS / "
              f"{pooled.fail_count} FAIL -- verdicts bit-identical: "
              f"{same}")
    print()

    print("=== streaming the same fleet in 256-die chunks ===")
    streamed = engine.submit(ScreeningRequest(
        population=stream_montecarlo_dies(
            setup.golden_spec, 2000, chunk_size=256, sigma_f0=0.03,
            seed=42),
        mode="stream", band="auto"))
    same = np.array_equal(result.verdicts, streamed.verdicts)
    print(f"{streamed.executor}: verdicts bit-identical to the "
          f"monolithic run: {same}  (peak memory scales with the "
          f"chunk, not the fleet)\n")

    print("=== Section IV-C noise: 200 dies x 20 noisy repeats ===")
    noisy = engine.submit(ScreeningRequest(
        population=montecarlo_dies(setup.golden_spec, 200, sigma_f0=0.03,
                                   seed=42),
        mode="noise", repeats=20, seed=7, band="auto"))
    print(noisy.summary())
    rates = noisy.detection_rates()
    print(f"dies flagged in every repeat: "
          f"{int(np.sum(rates == 1.0))}   flagged never: "
          f"{int(np.sum(rates == 0.0))}\n")

    print("=== monitor process variation (50 varied banks) ===")
    banks = montecarlo_monitor_banks(table1_bank(), 50,
                                     sampler=MonteCarloSampler(rng=0))
    monitor_result = engine.run(banks, band=None)
    print(f"fault-free CUT, varied monitors: NDF p95 = "
          f"{monitor_result.ndf_percentile(95):.4f} "
          f"(test margin consumed by the tester itself)\n")

    print("=== temperature corners (-40 .. +125 C) ===")
    corners = engine.run(temperature_corners(industrial_range(5)),
                         band="auto")
    for label, value, verdict in zip(corners.labels, corners.ndfs,
                                     corners.verdicts):
        word = "PASS" if verdict else "FAIL"
        print(f"  {label:>6}: NDF = {value:.4f}  {word}")


if __name__ == "__main__":
    main()
