"""Self-test of the benchmark on reduced inputs (under a minute).

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit on every workload, that a deliberately failing
operation is counted in `failed`, and that the tracer leaves no wrapper
installed.  Exits 0 when all checks pass.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(layers == tracer.PER_LAYER, "BENCHMARK.json per_layer matches tracer.PER_LAYER")
    check([w["name"] for w in spec["workloads"]] == list(run.WORK_NAMES),
          "BENCHMARK.json workloads match run.WORK_NAMES")

    for name in run.WORK_NAMES:
        for trace, wanted in ((False, e2e), (True, layers)):
            result, detail = run.run_workload(name, seed=1, seconds=0, trace=trace,
                                              size="small", probes=1,
                                              max_reps=2 if trace else 1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, f"{name} trace={int(trace)}: every metric with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} trace={int(trace)}: correct, failed_frac=0 ({detail['problems']})")
        check(detail["samples"]["traced"] == 1 and "tracing_overhead_s" in detail,
              f"{name}: traced repetition and tracing overhead reported")

    result, detail = run.run_workload("density_ladder", seed=1, seconds=0, trace=False,
                                      size="small", probes=1, max_reps=1,
                                      overrides={"floor": 1.01})
    check(not result["correct"] and result["failed"] == result["attempted"] == 1
          and detail["failed_frac"] == 1.0, "a hit-fraction floor above 1 counts as failed")

    t = tracer.Tracer()
    t.install()
    try:
        check(len(tracer.installed_wrappers()) > len(tracer.TARGETS),
              "tracer wraps every target, in each module that imported it")
    finally:
        t.uninstall()
    check(tracer.installed_wrappers() == [], "tracer leaves no wrapper installed")
    print("selftest passed")


if __name__ == "__main__":
    main()
