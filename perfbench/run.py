"""Outside-in benchmark of zorichlab.

    python3 perfbench/run.py --workload coverage_line --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 28     # every workload in turn

Each repetition runs in a fresh child process (perfbench/child.py), so peak
RSS and the per-process caches are those a command-line user sees.  A run
first starts SETUP_PROBES children that only set up, then repeats the timed
call while the next repetition is predicted to end within --seconds.

With --trace 0 the last stdout line reports the end-to-end metrics:
  setup_s      median time from child start to inputs built (interpreter,
               `import zorichlab`, input generation) over probes and repetitions
  wall_ref     median wall time of the timed call in units of `ref`, the wall
               time of a fixed reference computation that the same child runs
               right before and right after the call (child.reference)
  peak_rss_mb  median peak RSS (ru_maxrss) of the repetition children
  work_per_ref median work per `ref`; the unit of work is the workload's:
               second-iterate evaluations, TraceAudit.evals (coverage_line), traced
               lines (density_ladder), rows written (trace_export), checks (verify_quick)
On a shared 2-core host the speed of the same call drifts by 20-40% over
seconds, and the median raw wall time of a 28 s run spread by 11-24% between
runs (quartile distance over median of ten runs); the reference slows down
with the call, and wall_ref spread by 3-6%.  A call made twice as fast halves
wall_ref.  The raw medians (wall_s in seconds, the workload's throughput per
second) and every raw sample are in the detail line.
With --trace 1 even-numbered repetitions run untraced and odd ones run with
the tracer installed; the last line reports the per-layer metrics
(tracer.PER_LAYER) as medians over the traced repetitions, and
bench.tracing_overhead_s is the traced minus the untraced median wall time.

`attempted` and `failed` count operations (a line, a rung, a command, a
check); failed_frac = failed / attempted is in the detail line printed just
before the result, with the sample counts and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER  # noqa: E402

# each workload's unit of work, named as its throughput in the detail record
WORK_NAMES = {
    "coverage_line": "evals_per_s",
    "density_ladder": "lines_per_s",
    "trace_export": "rows_per_s",
    "verify_quick": "checks_per_s",
}
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB", "work_per_ref": "1/ref"}


def spawn(spec: dict) -> dict:
    """Run one child to completion and return its result record."""
    spec = dict(spec, t_spawn=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(spec["out"], ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crashed": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", overrides: dict | None = None,
                 probes: int = SETUP_PROBES, max_reps: int | None = None) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, detail record)."""
    base = {"workload": workload, "seed": seed, "size": size, **(overrides or {})}
    out_dir = WORK_DIR / f"{os.getpid()}"
    try:
        setups = []
        for i in range(probes):
            rec = spawn(dict(base, probe=True, traced=False, out=str(out_dir / f"p{i}")))
            if "crashed" in rec:
                raise RuntimeError(f"{workload}: set-up failed: {rec['crashed']}")
            setups.append(rec["setup_s"])

        reps = []
        t_start = time.perf_counter()
        while True:
            k = len(reps)
            reps.append(spawn(dict(base, probe=False,
                                   traced=trace and k % 2 == 1, out=str(out_dir / f"r{k}"))))
            elapsed = time.perf_counter() - t_start
            if max_reps is not None and len(reps) >= max_reps:
                break
            if len(reps) >= (2 if trace else 1) and elapsed * (k + 2) / (k + 1) > seconds:
                break
    finally:
        for d in (out_dir, WORK_DIR):
            if d.exists() and not any(d.iterdir()):
                d.rmdir()
    return summarize(workload, seed, seconds, trace, setups, reps)


def summarize(workload, seed, seconds, trace, setups, reps):
    # repetitions with the same key must give the digest of the first of them
    problems, first = [], {}
    for i, r in enumerate(reps):
        if "crashed" in r:
            problems.append(f"rep {i}: {r['crashed']}")
            continue
        problems += [f"rep {i}: {n}" for n in r["notes"]]
        if r["key"]:
            j, digest = first.setdefault(r["key"], (i, r["digest"]))
            if r["digest"] != digest:
                r["failed"] = r["attempted"]
                problems.append(f"rep {i}: {r['key']} digest differs from rep {j}")
    ok = [r for r in reps if "crashed" not in r]
    leftovers = sorted({w for r in ok for w in r.get("leftover_wrappers", [])})
    if leftovers:
        problems.append(f"tracer left wrappers installed: {leftovers}")
    attempted = sum(r["attempted"] for r in ok) + (len(reps) - len(ok))
    failed = sum(r["failed"] for r in ok) + (len(reps) - len(ok))

    plain = [r for r in ok if "layers" not in r]
    traced = [r for r in ok if "layers" in r]
    setup_all = setups + [r["setup_s"] for r in ok]
    walls = [r["wall_s"] for r in plain]
    if not walls or (trace and not traced):
        raise RuntimeError(f"{workload}: no successful repetition: {problems}")
    rel = [r["wall_s"] / r["ref_s"] for r in plain]
    e2e = {
        "setup_s": statistics.median(setup_all),
        "wall_ref": statistics.median(rel),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "work_per_ref": statistics.median(r["work"] / x for r, x in zip(plain, rel)),
    }
    wall_s = statistics.median(walls)
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "samples": {"setup": len(setup_all), "untraced": len(plain), "traced": len(traced)},
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "wall_s": {"value": wall_s, "unit": "s"},
        WORK_NAMES[workload]: {"value": statistics.median(r["work"] / r["wall_s"] for r in plain),
                               "unit": "1/s"},
        "failed_frac": failed / attempted if attempted else 1.0,
        "wall_s_samples": walls,
        "ref_s_samples": [r["ref_s"] for r in plain],
        "problems": problems,
        "environment": environment(ok),
    }
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER if name != "bench.tracing_overhead_s"}
        layers["bench.tracing_overhead_s"] = layers["bench.traced_wall_s"] - wall_s
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        detail["tracing_overhead_s"] = layers["bench.tracing_overhead_s"]
    else:
        metrics = detail["end_to_end"]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def environment(reps) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"] if reps else None,
        "zorichlab": reps[0]["zorichlab"] if reps else None,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zorichlab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORK_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zorichlab" / "__init__.py").is_file():
        print(f"error: no zorichlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORK_NAMES) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"detail": detail}))
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
