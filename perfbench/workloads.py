"""The four workloads: inputs from a seed, the timed call, its correctness gate.

Each workload is `prepare(spec)`, which builds the inputs (part of set-up),
`run(inputs)`, the timed call through zorichlab's public functions, and
`check(inputs, result)`, which turns the result or the files written into an
`Outcome`.  Checks across repetitions (same coverage, hit count or output
digest as the first repetition) happen in the parent, which sees them all.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import VERIFY_CHECKS
from zorichlab import density

# Sizes keep one repetition near a second, so that a run holds a score of
# them: on a shared 2-core machine the same call varied by up to +-20% from
# one repetition to the next.  "small" is the self-test's reduced size.
SIZES = {
    "full": {"density_grid": 8, "density_budget": 20_000,
             "trace_budget": 250_000, "cone_height": 128, "cone_width": 32},
    "small": {"density_grid": 4, "density_budget": 2_000,
              "trace_budget": 20_000, "cone_height": 16, "cone_width": 8},
}

# Inputs are the commands' default line and patch, moved by the seed.  Costs,
# point counts and peak RSS then depend little on the seed; over uniformly
# random lines and patches they spread by 5-15% from seed to seed.
LINE_U2, LINE_U3 = 0.37, 1.3e-4  # `trace` / `coverage` default line
DENSITY_CENTRE = (0.4, 0.35)  # `density` default patch centre
DENSITY_DELTA = 0.08
SHIFT = 0.02


@dataclass
class Outcome:
    attempted: int
    failed: int
    work: float  # units of the workload's throughput: evals, lines, rows or checks
    key: str = ""  # repetitions with the same key must agree on `digest`
    digest: str = ""
    notes: list = field(default_factory=list)


def _rng(spec):
    return np.random.default_rng(spec["seed"])


def _line(rng) -> density.LineSpec:
    u2 = LINE_U2 + rng.uniform(-SHIFT, SHIFT)
    u3 = LINE_U3 * (1.0 + rng.uniform(-SHIFT, SHIFT))
    return density.LineSpec(density.YPoint("+x1", float(u2), float(u3)))


# ---------------------------------------------------------------------------
# coverage_line: one line traced at the quick budget (10^6 evaluations)
#
# At 10^6 the quick floor COVERAGE_THRESHOLD_QUICK holds for the verify lines
# but is no per-line guarantee (5 of 15 random valid lines ended below it),
# so the gate is the part of the coverage claim that holds per line: the
# series never decreases, the trace spends its whole budget, and every
# repetition of the line ends at the same coverage.


def prepare_coverage_line(spec):
    return {"line": _line(_rng(spec)), "budget": density.COVERAGE_BUDGET_QUICK}


def run_coverage_line(inp):
    (run,) = density.coverage_experiment([inp["line"]], budget=inp["budget"])
    return run


def check_coverage_line(inp, run):
    covs = [c for _, c in run.series]
    monotone = all(b >= a for a, b in zip(covs, covs[1:]))
    ok = monotone and run.audit.evals == inp["budget"]
    notes = [] if ok else [f"monotone={monotone} evals={run.audit.evals}"]
    return Outcome(1, int(not ok), run.audit.evals, key="line", digest=repr(run.coverage),
                   notes=notes)


# ---------------------------------------------------------------------------
# the workloads below run CLI commands in process and check the files they write


def run_cli(inp):
    with contextlib.redirect_stdout(io.StringIO()):
        return [inp["main"](argv) for argv in inp["argvs"]]


def _cli_inputs(spec, argvs):
    from zorichlab import cli

    return {"main": cli.main, "argvs": argvs, "out": Path(spec["out"])}


def _read(inp, name) -> bytes:
    path = inp["out"] / name
    return path.read_bytes() if path.exists() else b""


# ---------------------------------------------------------------------------
# density_ladder: one rung of the `density` command (8x8 lines, 20k evaluations each)


def prepare_density_ladder(spec):
    size = SIZES[spec["size"]]
    u2, u3 = np.asarray(DENSITY_CENTRE) + _rng(spec).uniform(-SHIFT, SHIFT, 2)
    argv = ["density", "--u2", repr(float(u2)), "--u3", repr(float(u3)),
            "--delta", repr(DENSITY_DELTA), "--grid-n", str(size["density_grid"]),
            "--budget", str(size["density_budget"]), "--rungs", "1", "--out", spec["out"]]
    return dict(_cli_inputs(spec, [argv]), floor=spec.get("floor", density.DENSITY_FRACTION_MIN))


def check_density_ladder(inp, codes):
    rows = list(csv.DictReader(io.StringIO(_read(inp, "density.csv").decode())))
    if codes != [0] or len(rows) != 1:
        return Outcome(1, 1, 0.0, notes=[f"exit codes {codes}, {len(rows)} rungs"])
    rung = rows[0]
    ok = float(rung["fraction"]) >= inp["floor"]
    notes = [] if ok else [f"fraction {rung['fraction']}"]
    return Outcome(1, int(not ok), float(rung["valid_points"]), key="rung",
                   digest=rung["hits"], notes=notes)


# ---------------------------------------------------------------------------
# trace_export: the `trace` and `cone` commands


def prepare_trace_export(spec):
    size = SIZES[spec["size"]]
    rng = _rng(spec)
    line = _line(rng)
    trace = ["trace", "--u2", repr(line.alpha.u2), "--u3", repr(line.alpha.u3),
             "--budget", str(size["trace_budget"]), "--out", spec["out"]]
    cone = ["cone", "--level", repr(float(rng.uniform(0.5, 3.0))),
            "--m", str(int(rng.integers(-2, 3))), "--n", str(int(rng.integers(-2, 3))),
            "--n-height", str(size["cone_height"]), "--n-width", str(size["cone_width"]),
            "--out", spec["out"]]
    return _cli_inputs(spec, [trace, cone])


def check_trace_export(inp, codes):
    """Rows written and one digest over both data files (manifests carry a timestamp)."""
    h = hashlib.sha256()
    rows = 0
    for name in ("trace_points.txt", "cone.txt"):
        data = _read(inp, name)
        h.update(data)
        rows += max(data.count(b"\n") - 1, 0)  # minus the header line
    bad = sum(1 for c in codes if c != 0)
    return Outcome(len(codes), bad, float(rows), key="files", digest=h.hexdigest(),
                   notes=[f"exit codes {codes}"] if bad else [])


# ---------------------------------------------------------------------------
# verify_quick: `verify --level quick` (its seeds are fixed by the acceptance rules)


def prepare_verify_quick(spec):
    return _cli_inputs(spec, [["verify", "--level", "quick", "--out", spec["out"]]])


def check_verify_quick(inp, codes):
    """One operation per check line of the report; the exit code must agree with it."""
    checks = [dict(kv.split("=", 1) for kv in ln.split())
              for ln in _read(inp, "verify_report.txt").decode().splitlines()
              if ln.startswith("check=")]
    bad = [c["check"] for c in checks if c["pass"] != "true"]
    if not checks or codes != [1 if bad else 0]:
        return Outcome(max(len(checks), 1), max(len(checks), 1), 0.0,
                       notes=[f"exit codes {codes}, {len(checks)} checks reported"])
    return Outcome(len(checks), len(bad), float(len(checks)), notes=bad)


# A verify_quick call lasts ~7 s, long enough for the host's speed to change
# within it, so child.py also samples the reference before these steps of the
# call (functions looked up in the module at call time), at most every PACE_S.
PACED_STEPS = {
    "verify_quick": [("zorichlab.verify", f"check_{name}") for name in VERIFY_CHECKS],
}

# prepare(spec) -> inputs; run(inputs) is the timed call; check(inputs, result) -> Outcome
WORKLOADS = {
    "coverage_line": (prepare_coverage_line, run_coverage_line, check_coverage_line),
    "density_ladder": (prepare_density_ladder, run_cli, check_density_ladder),
    "trace_export": (prepare_trace_export, run_cli, check_trace_export),
    "verify_quick": (prepare_verify_quick, run_cli, check_verify_quick),
}
