"""One repetition in a fresh process: set up, make the timed call, report JSON.

Usage (from run.py): python3 perfbench/child.py '<spec json>'

`setup_s` runs from the parent's clock reading just before it started this
process to the moment the inputs are built, so it covers the interpreter,
`import zorichlab` and input generation.  The last stdout line is the
result; the workload's own prints are captured so they cannot mix with it.

`ref_s` is the mean wall time of a fixed reference computation run once
right before and once right after the timed call, and for a long call also
before those of its steps (workloads.PACED_STEPS) that start at least PACE_S
after the last sample; `wall_s` leaves out the reference runs inside the
call.  On a shared host the speed of interpreted code drifts by 20-40% over
seconds; the reference slows with the call, so wall_s / ref_s measures the
call in units of the reference and cancels most of that drift.
"""

import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

PACE_S = 0.5


def reference() -> float:
    """Wall time of a fixed mix of what zorichlab does: an interpreted loop,
    vectorized transcendental maths and number formatting.  It holds less
    than 0.5 MB at a time, so running it inside a call leaves the peak RSS."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    a = np.linspace(-3.0, 3.0, 5_000)
    for _ in range(200):
        a = np.sin(a) + np.exp(-a * a)
    for _ in range(10):
        "\n".join(f"{x:.17g}" for x in a[:2_000].tolist())
    return time.perf_counter() - t0


def timed_call(run, inputs, steps):
    """(result, wall_s, ref_s) of run(inputs).  The reference is sampled before
    and after the call, and before any of its steps that starts PACE_S or more
    after the last sample."""
    samples = [reference()]
    last = [0.0]  # when the last sample ended
    patched = []
    for mod_name, attr in steps:
        module = importlib.import_module(mod_name)
        original = getattr(module, attr)

        def paced(*args, _fn=original, **kwargs):
            if time.perf_counter() - last[0] >= PACE_S:
                samples.append(reference())
                last[0] = time.perf_counter()
            return _fn(*args, **kwargs)

        patched.append((module, attr, original))
        setattr(module, attr, paced)
    try:
        t0 = last[0] = time.perf_counter()
        raw = run(inputs)
        wall_s = time.perf_counter() - t0 - sum(samples[1:])
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)
    samples.append(reference())
    return raw, wall_s, statistics.fmean(samples)


def main(argv):
    spec = json.loads(argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import zorichlab

    import tracer as tracing
    import workloads

    prepare, run, check = workloads.WORKLOADS[spec["workload"]]
    tracer = tracing.Tracer() if spec["traced"] else None
    if tracer is not None:
        tracer.install()
    try:
        inputs = prepare(spec)
        setup_s = time.perf_counter() - spec["t_spawn"]
        result = {"setup_s": setup_s, "numpy": np.__version__, "zorichlab": zorichlab.__version__}
        if not spec["probe"]:
            # traced repetitions give the layers only, so they skip the pacing
            steps = [] if tracer is not None else workloads.PACED_STEPS.get(spec["workload"], [])
            raw, wall_s, ref_s = timed_call(run, inputs, steps)
            outcome = check(inputs, raw)
            result.update(wall_s=wall_s, ref_s=ref_s, attempted=outcome.attempted,
                          failed=outcome.failed, work=outcome.work, key=outcome.key,
                          digest=outcome.digest, notes=outcome.notes)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["leftover_wrappers"] = tracing.installed_wrappers()
        if not spec["probe"]:
            result["layers"] = tracer.metrics(wall_s)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
