"""Command-line surface.

Every command validates its arguments, calls the library (no computation
lives here), writes its declared output files plus a JSON manifest, and
exits 0 on success, 1 when a verify check fails, 2 on a validation error,
3 on a numeric failure.  An optional KEY=VALUE config file supplies defaults;
explicit flags win, and a key that names no argument of the command is a
validation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, density, distortion, preimage, verify
from .errors import DomainError
from .group import GroupElement
from .manifest import RunManifest
from .output import write_csv, write_point_cloud, write_report, write_triangle_soup
from .zorich import zorich, zorich_inverse, zorich_second


def _triple(text: str) -> tuple[float, float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return tuple(parts)


def _pair(text: str) -> tuple[int, int]:
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated integers")
    return tuple(parts)


def read_config(path) -> dict:
    """KEY=VALUE lines; '#' starts a comment."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config: cannot parse line {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _resolve(args, key, cast, default):
    """Flag wins, then config file, then the built-in default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    config = getattr(args, "_config", {})
    if key in config:
        return cast(config[key])
    return default


def _manifest(args, name, params, outputs):
    man = RunManifest(command=name, parameters=params)
    if getattr(args, "config", None):
        man.add_input(args.config)
    for path in outputs:
        man.add_output(path)
    man_path = Path(args.out) / f"{name}_manifest.json"
    man.write(man_path)
    return man_path


def _ensure_out(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_eval(args) -> int:
    x = np.asarray(args.x, dtype=float)
    z = zorich(x)
    f = zorich_second(x)
    print("x = ({!r}, {!r}, {!r})".format(*map(float, x)))
    print("map(x) = ({!r}, {!r}, {!r})".format(*map(float, z)))
    print("map^2(x) = ({!r}, {!r}, {!r})".format(*map(float, f)))
    if args.out:
        out = _ensure_out(args)
        path = out / "eval.csv"
        write_csv(
            path,
            ["stage", "x1", "x2", "x3"],
            [("input", *x), ("first", *z), ("second", *f)],
        )
        _manifest(args, "eval", {"x": list(x)}, [path])
    return 0


def cmd_invert(args) -> int:
    y = np.asarray(args.y, dtype=float)
    beam = args.beam
    x = zorich_inverse(y, beam)
    residual = float(np.linalg.norm(zorich(x) - y) / np.linalg.norm(y))
    print("preimage in beam {}: ({!r}, {!r}, {!r})".format(beam, *map(float, x)))
    print(f"relative residual = {residual:.3e}")
    if args.out:
        out = _ensure_out(args)
        path = out / "invert.csv"
        write_csv(
            path,
            ["quantity", "x1", "x2", "x3"],
            [("y", *y), ("preimage", *x)],
        )
        _manifest(args, "invert", {"y": list(y), "beam": list(beam)}, [path])
    return 0


def cmd_cone(args) -> int:
    out = _ensure_out(args)
    level = _resolve(args, "level", float, 1.0)
    element = GroupElement(
        _resolve(args, "m", int, 0), _resolve(args, "n", int, 0), bool(args.flip)
    )
    cone = preimage.ConeSurface(level, element)
    t1 = _resolve(args, "t1", float, cone.vertex_height + 0.25)
    t2 = _resolve(args, "t2", float, cone.vertex_height + 2.5)
    n_height = _resolve(args, "n_height", int, 48)
    n_width = _resolve(args, "n_width", int, 16)
    tris = preimage.cone_mesh(cone, t1, t2, n_height, n_width)
    path = out / "cone.txt"
    write_triangle_soup(path, tris)
    print(f"wrote {len(tris)} triangles to {path}")
    _manifest(
        args,
        "cone",
        {
            "level": level,
            "element": [element.m, element.n, element.flip],
            "t1": t1,
            "t2": t2,
            "n_height": n_height,
            "n_width": n_width,
        },
        [path],
    )
    return 0


def _line_from_args(args):
    p = tuple(args.p or (0.0, 0.0, 0.0))
    if args.direction is not None:
        return density.LineSpec(p=p, d=tuple(args.direction))
    u2 = _resolve(args, "u2", float, 0.37)
    u3 = _resolve(args, "u3", float, 1.3e-4)
    return density.LineSpec(density.YPoint(args.face or "+x1", u2, u3), p)


def _confinement_notes(line) -> list[str]:
    d = line.direction()
    notes = []
    if d[2] == 0.0:
        notes.append("bounded image: line lies in a horizontal plane, the image stays in a bounded set")
    if d[0] == 0.0 or d[1] == 0.0:
        notes.append("planar image: line lies in a preserved coordinate plane")
    if abs(d[0]) == abs(d[1]) and d[0] != 0.0:
        notes.append("planar image: line lies in a preserved diagonal plane")
    return notes


def cmd_trace(args) -> int:
    out = _ensure_out(args)
    line = _line_from_args(args)
    box_r = _resolve(args, "box_r", float, density.COVERAGE_BOX)
    budget = _resolve(args, "budget", int, 100_000)
    h_max = _resolve(args, "h_max", float, 2.0 * box_r / density.COVERAGE_GRID_N)
    if args.quick:
        budget = max(1000, budget // 10)
    trace = density.adaptive_trace(line, box_r, budget, h_max)
    for note in _confinement_notes(line):
        print(f"note: {note}")
    path = out / "trace_points.txt"
    write_point_cloud(path, trace.points[trace.in_box])
    a = trace.audit
    print(
        f"traced {a.evals} evaluations, {a.in_box_points} in-box points, "
        f"cap_hit_fraction={a.cap_hit_fraction:.4f}, dropped_overflow={a.dropped_overflow}"
    )
    _manifest(
        args,
        "trace",
        {
            "line": _line_params(line),
            "box_r": box_r,
            "budget": budget,
            "h_max": h_max,
            "evals": a.evals,
            "in_box_points": a.in_box_points,
            "cap_hit_fraction": a.cap_hit_fraction,
            "dropped_overflow": a.dropped_overflow,
            "dropped_unresolvable": a.dropped_unresolvable,
        },
        [path],
    )
    return 0


def _line_params(line):
    if line.alpha is None:
        return {"p": list(line.p), "direction": list(line.d)}
    return {
        "p": list(line.p),
        "face": line.alpha.face,
        "u2": line.alpha.u2,
        "u3": line.alpha.u3,
    }


def cmd_coverage(args) -> int:
    out = _ensure_out(args)
    line = _line_from_args(args)
    box_r = _resolve(args, "box_r", float, density.COVERAGE_BOX)
    grid_n = _resolve(args, "grid_n", int, density.COVERAGE_GRID_N)
    budget = _resolve(args, "budget", int, density.COVERAGE_BUDGET)
    if args.quick:
        budget = max(1000, budget // 10)
    h_max = _resolve(args, "h_max", float, 2.0 * box_r / grid_n)
    for note in _confinement_notes(line):
        print(f"note: {note}")
    runs = density.coverage_experiment(
        [line], box_r=box_r, grid_n=grid_n, budget=budget, h_max=h_max
    )
    run = runs[0]
    path = out / "coverage.csv"
    write_csv(
        path,
        ["points_consumed", "coverage", "cap_hit_fraction"],
        [(c, cov, run.audit.cap_hit_fraction) for c, cov in run.series],
    )
    print(f"final coverage = {run.coverage:.6f} ({len(run.series)} checkpoints)")
    _manifest(
        args,
        "coverage",
        {
            "line": _line_params(line),
            "box_r": box_r,
            "grid_n": grid_n,
            "budget": budget,
            "h_max": h_max,
            "coverage": run.coverage,
        },
        [path],
    )
    return 0


def cmd_density(args) -> int:
    out = _ensure_out(args)
    u2 = _resolve(args, "u2", float, 0.4)
    u3 = _resolve(args, "u3", float, 0.35)
    delta = _resolve(args, "delta", float, 0.08)
    grid_n = _resolve(args, "grid_n", int, 16)
    budget = _resolve(args, "budget", int, 20_000)
    rungs = _resolve(args, "rungs", int, 4)
    if args.quick:
        budget = max(1000, budget // 10)
        grid_n = max(4, grid_n // 2)
    if args.q is not None:
        ball = density.BallSpec(tuple(args.q), _resolve(args, "ball_r", float, 0.25))
    else:
        ball = density.base_sequence(_resolve(args, "ball_n", int, 1))
    patch = density.PatchSpec(density.YPoint(args.face or "+x1", u2, u3), delta)
    ladder = density.epsilon_density(
        patch, ball, grid_n, budget, rungs=rungs, p=tuple(args.p or (0.0, 0.0, 0.0))
    )
    path = out / "density.csv"
    write_csv(
        path,
        ["delta", "grid_n", "valid_points", "hits", "fraction"],
        [(r.delta, r.grid_n, r.valid, r.hits, r.fraction) for r in ladder],
    )
    for r in ladder:
        print(f"delta={r.delta:.6g} fraction={r.fraction:.4f} ({r.hits}/{r.valid})")
    _manifest(
        args,
        "density",
        {
            "patch": {"face": patch.center.face, "u2": u2, "u3": u3, "delta": delta},
            "ball": {"center": list(ball.center), "radius": ball.radius},
            "grid_n": grid_n,
            "budget_per_line": budget,
            "rungs": rungs,
        },
        [path],
    )
    return 0


def cmd_distortion(args) -> int:
    out = _ensure_out(args)
    t1 = _resolve(args, "t1", float, 0.0)
    t2 = _resolve(args, "t2", float, 1.0)
    samples = _resolve(args, "samples", int, 1000)
    radius = _resolve(args, "radius", float, distortion.DEFAULT_RADIUS)
    n_dirs = _resolve(args, "dirs", int, distortion.DEFAULT_DIRECTIONS)
    grid_n = _resolve(args, "grid_n", int, 128)
    if args.quick:
        samples = max(50, samples // 10)
        grid_n = max(64, grid_n // 2)
    lam = distortion.lambda_h_estimate(grid_n)
    rep = distortion.verify_slab_bound(
        distortion.Slab(t1, t2), samples, lam=lam, radius=radius, n_dirs=n_dirs
    )
    result = verify.CheckResult(
        name="slab_distortion",
        claim="slab-bound",
        value=rep.d_est,
        bound=rep.bound,
        tolerance=0.01,
        passed=rep.passed,
    )
    path = out / "distortion_report.txt"
    write_report(path, [result], result.passed)
    print(
        f"lambda_hat={lam:.6f} measured_distortion={rep.d_est:.6f} "
        f"bound={rep.bound:.6f} pass={rep.passed}"
    )
    _manifest(
        args,
        "distortion",
        {
            "t1": t1,
            "t2": t2,
            "samples": samples,
            "radius": radius,
            "dirs": n_dirs,
            "grid_n": grid_n,
            "lambda_hat": lam,
        },
        [path],
    )
    return 0


def cmd_verify(args) -> int:
    out = _ensure_out(args)
    level = "quick" if args.quick else (args.level or "full")
    report = verify.run_checks(level)
    path = out / "verify_report.txt"
    write_report(path, report.results, report.overall)
    for r in report.results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: value={r.value:.6g} bound={r.bound:.6g}")
    print(f"overall: {'PASS' if report.overall else 'FAIL'} ({len(report.results)} checks)")
    _manifest(args, "verify", {"level": level}, [path])
    return 0 if report.overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zorichlab",
        description="Experiments on a piecewise-exponential map of R^3",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, out_default=None):
        p.add_argument("--out", default=out_default, help="output directory")
        p.add_argument("--quick", action="store_true", help="reduced sample counts")
        p.add_argument("--config", default=None, help="KEY=VALUE config file (flags win)")
        p.set_defaults(func=func)

    p = sub.add_parser("eval", help="evaluate the map and its second iterate")
    p.add_argument("--x", type=_triple, required=True)
    common(p, cmd_eval)

    p = sub.add_parser("invert", help="inverse branch in a named beam")
    p.add_argument("--y", type=_triple, required=True)
    p.add_argument("--beam", type=_pair, default=(0, 0))
    common(p, cmd_invert)

    p = sub.add_parser("cone", help="export a preimage-cone mesh")
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--flip", action="store_true")
    p.add_argument("--t1", type=float, default=None)
    p.add_argument("--t2", type=float, default=None)
    p.add_argument("--n-height", dest="n_height", type=int, default=None)
    p.add_argument("--n-width", dest="n_width", type=int, default=None)
    common(p, cmd_cone, out_default="out")

    def line_flags(p):
        p.add_argument("--u2", type=float, default=None)
        p.add_argument("--u3", type=float, default=None)
        p.add_argument("--face", default=None, choices=density.Y_FACES)
        p.add_argument("--direction", type=_triple, default=None,
                       help="raw line direction (for excluded families)")
        p.add_argument("--p", type=_triple, default=None, help="base point")

    p = sub.add_parser("trace", help="adaptive second-iterate trace of one line")
    line_flags(p)
    p.add_argument("--box-r", dest="box_r", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--h-max", dest="h_max", type=float, default=None)
    common(p, cmd_trace, out_default="out")

    p = sub.add_parser("coverage", help="voxel coverage of one line image")
    line_flags(p)
    p.add_argument("--box-r", dest="box_r", type=float, default=None)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--h-max", dest="h_max", type=float, default=None)
    common(p, cmd_coverage, out_default="out")

    p = sub.add_parser("density", help="hit-fraction ladder over a patch of lines")
    p.add_argument("--u2", type=float, default=None)
    p.add_argument("--u3", type=float, default=None)
    p.add_argument("--face", default=None, choices=density.Y_FACES)
    p.add_argument("--p", type=_triple, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--rungs", type=int, default=None)
    p.add_argument("--ball-n", dest="ball_n", type=int, default=None,
                   help="index into the countable ball base")
    p.add_argument("--q", type=_triple, default=None, help="explicit ball center")
    p.add_argument("--ball-r", dest="ball_r", type=float, default=None)
    common(p, cmd_density, out_default="out")

    p = sub.add_parser("distortion", help="slab distortion against the product bound")
    p.add_argument("--t1", type=float, default=None)
    p.add_argument("--t2", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--dirs", type=int, default=None)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    common(p, cmd_distortion, out_default="out")

    p = sub.add_parser("verify", help="run the aggregated verification suite")
    p.add_argument("--level", choices=("quick", "full"), default=None)
    common(p, cmd_verify, out_default="out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    known = set(vars(args)) - {"command", "func"}
    try:
        args._config = read_config(args.config) if getattr(args, "config", None) else {}
        unknown = sorted(set(args._config) - known)
        if unknown:
            raise DomainError(f"config: unknown key(s) for {args.command}: {', '.join(unknown)}")
        return args.func(args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
