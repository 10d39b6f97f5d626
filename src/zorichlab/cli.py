"""Command-line surface.

Every command validates its arguments, calls the library (no computation
lives here), writes its declared output files plus a JSON manifest, and
exits 0 on success, 1 when a verify check fails, 2 on a validation error
(a MemoryError included), 3 on a numeric failure.  The output directory is
made only once the results are computed, so a run rejected or failed before
it writes leaves none behind.  The rules it applies are the library's: the
minimum counts, the default trace step (``density.voxel_edge``) and the
excluded-family notes of trace and coverage (``density.confinement_notes``).

Every default is written once, in the parser.  An optional KEY=VALUE config
file names arguments of its command, and each key is read as the flag it
names: ``budget=5000`` as ``--budget=5000``, a switch's ``flip=true`` as
``--flip`` and ``flip=false`` as nothing.  These flags are parsed ahead of
the command line's own, so a flag on the command line still wins, and a bad
value exits 2 with argparse's message, which names the flag.  A key that
names no argument of the command is a validation error, and so is a value
given (as a flag or a key) for an argument that another given argument
replaces: ``direction`` replaces ``face``, ``u2`` and ``u3``; ``q`` replaces
``ball_n``.  So is ``ball_r`` without ``q``: it is the radius of the explicit
ball only.

A value that starts with ``-`` must be joined to its flag with ``=``
(``--x=-1,0,0``, ``--face=-x1``); as a separate word argparse reads it as an
option and the command exits 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, density, distortion, preimage, verify
from .errors import DomainError
from .group import GroupElement
from .manifest import write_manifest
from .output import write_csv, write_point_cloud, write_report, write_triangle_soup
from .zorich import zorich, zorich_inverse, zorich_second


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, not {text!r}")
    return value


def _triple(text: str) -> tuple[float, float, float]:
    parts = [_real(v) for v in text.split(",")]
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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"config: cannot read {str(path)!r}: {exc.strerror or exc}") from exc
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config: cannot parse line {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# an argument that replaces others, and the arguments it replaces
_REPLACES = {"direction": ("face", "u2", "u3"), "q": ("ball_n",)}
# an argument that acts only together with another
_NEEDS = {"ball_r": "q"}


class _Given(argparse.Action):
    """Stores the value and notes that it was given, as a flag or a config key."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


def _flag(name) -> str:
    return "--" + name.replace("_", "-")


def _check_given(given) -> None:
    for key, replaced in _REPLACES.items():
        clash = [name for name in replaced if name in given]
        if key in given and clash:
            flags = ", ".join(_flag(name) for name in clash)
            raise DomainError(f"{_flag(key)} replaces {flags}; give one or the other")
    for key, needed in _NEEDS.items():
        if key in given and needed not in given:
            raise DomainError(f"{_flag(key)} needs {_flag(needed)}")


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or config value as a DomainError, so main exits 2 for both."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DomainError(f"{self.prog}: {message}")


def _config_flags(parser, command, config: dict) -> list[str]:
    """The config keys as the flags they name: KEY=VALUE is --key=VALUE, and a
    switch's true is the bare flag and its false nothing.  Keys are matched by
    name first, since argparse would take a key that abbreviates a flag."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise DomainError(f"config: unknown key(s) for {command}: {', '.join(unknown)}")
    flags = []
    for key, value in config.items():
        flag = actions[key].option_strings[0]
        if actions[key].nargs != 0 or value not in ("true", "false"):
            flags.append(f"{flag}={value}")
        elif value == "true":
            flags.append(flag)
    return flags


def _manifest(args, name, params, outputs, **extra):
    inputs = [args.config] if args.config else []
    write_manifest(Path(args.out) / f"{name}_manifest.json", name, params, inputs, outputs, **extra)


def _ensure_out(args):
    """The --out directory, made if missing; called once the outputs are computed."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_eval(args) -> int:
    if args.x is None:
        raise DomainError("eval: --x is required")
    x = np.asarray(args.x, dtype=float)
    z = zorich(x)
    f = zorich_second(x)
    print("x = ({!r}, {!r}, {!r})".format(*map(float, x)))
    print("map(x) = ({!r}, {!r}, {!r})".format(*map(float, z)))
    print("map^2(x) = ({!r}, {!r}, {!r})".format(*map(float, f)))
    if args.out:
        path = _ensure_out(args) / "eval.csv"
        write_csv(
            path,
            ["stage", "x1", "x2", "x3"],
            [("input", *x), ("first", *z), ("second", *f)],
        )
        _manifest(args, "eval", {"x": list(x)}, [path])
    return 0


def cmd_invert(args) -> int:
    if args.y is None:
        raise DomainError("invert: --y is required")
    y = np.asarray(args.y, dtype=float)
    beam = args.beam
    x = zorich_inverse(y, beam)
    s = np.max(np.abs(y))  # both norms at the scale of y, whose square may overflow
    residual = float(np.linalg.norm((zorich(x) - y) / s) / np.linalg.norm(y / s))
    print("preimage in beam {}: ({!r}, {!r}, {!r})".format(beam, *map(float, x)))
    print(f"relative residual = {residual:.3e}")
    if args.out:
        path = _ensure_out(args) / "invert.csv"
        write_csv(
            path,
            ["quantity", "x1", "x2", "x3"],
            [("y", *y), ("preimage", *x)],
        )
        _manifest(args, "invert", {"y": list(y), "beam": list(beam)}, [path])
    return 0


def cmd_cone(args) -> int:
    element = GroupElement(args.m, args.n, args.flip)
    cone = preimage.ConeSurface(args.level, element)
    t1 = cone.vertex_height + 0.25 if args.t1 is None else args.t1
    t2 = cone.vertex_height + 2.5 if args.t2 is None else args.t2
    tris = preimage.cone_mesh(cone, t1, t2, args.n_height, args.n_width)
    path = _ensure_out(args) / "cone.txt"
    write_triangle_soup(path, tris)
    print(f"wrote {len(tris)} triangles to {path}")
    _manifest(
        args,
        "cone",
        {
            "level": args.level,
            "element": [element.m, element.n, element.flip],
            "t1": t1,
            "t2": t2,
            "n_height": args.n_height,
            "n_width": args.n_width,
        },
        [path],
    )
    return 0


def _line_run(args):
    """The line of trace and coverage, its notes printed."""
    if args.direction is not None:
        line = density.LineSpec(p=args.p, d=args.direction)
    else:
        line = density.LineSpec(density.YPoint(args.face, args.u2, args.u3), args.p)
    for note in density.confinement_notes(line.d):
        print(f"note: {note}")
    return line


def cmd_trace(args) -> int:
    line = _line_run(args)
    h_max = density.voxel_edge(args.box_r) if args.h_max is None else args.h_max
    if not math.isfinite(h_max):  # the default step of a box near the float limit
        raise DomainError(f"trace: the default step voxel_edge({args.box_r!r}) is not a finite "
                          "float; give --h-max")
    (walk,) = density._trace_lines([line], args.box_r, args.budget, h_max)
    blocks = iter(walk)  # the sort, before the --out directory is made
    path = _ensure_out(args) / "trace_points.txt"
    write_point_cloud(path, (points[box] for _, points, box in blocks))
    a = walk.audit
    print(
        f"traced {a.evals} evaluations, {a.in_box_points} in-box points, "
        f"cap_hit_fraction={a.cap_hit_fraction:.4f}, dropped_overflow={a.dropped_overflow}"
    )
    _manifest(
        args,
        "trace",
        {
            "line": _line_params(line),
            "box_r": args.box_r,
            "budget": args.budget,
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
    return {"p": list(line.p), "face": line.alpha.face, "u2": line.alpha.u2, "u3": line.alpha.u3}


def cmd_coverage(args) -> int:
    line = _line_run(args)
    (run,) = density.coverage_experiment(
        [line], box_r=args.box_r, grid_n=args.grid_n, budget=args.budget, h_max=args.h_max
    )
    path = _ensure_out(args) / "coverage.csv"
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
            "box_r": args.box_r,
            "grid_n": args.grid_n,
            "budget": args.budget,
            "h_max": run.h_max,
            "coverage": run.coverage,
        },
        [path],
    )
    return 0


def cmd_density(args) -> int:
    if args.q is not None:
        ball = density.BallSpec(args.q, args.ball_r)
    else:
        ball = density.base_sequence(args.ball_n)
    patch = density.PatchSpec(density.YPoint(args.face, args.u2, args.u3), args.delta)
    ladder = density.epsilon_density(
        patch, ball, args.grid_n, args.budget, rungs=args.rungs, p=args.p
    )
    path = _ensure_out(args) / "density.csv"
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
            "patch": {"face": args.face, "u2": args.u2, "u3": args.u3, "delta": args.delta},
            "ball": {"center": list(ball.center), "radius": ball.radius},
            "grid_n": args.grid_n,
            "budget_per_line": args.budget,
            "rungs": args.rungs,
        },
        [path],
    )
    return 0


def cmd_distortion(args) -> int:
    lam = distortion.lambda_h_estimate(args.grid_n)
    rep = distortion.verify_slab_bound(
        distortion.Slab(args.t1, args.t2), args.samples, lam=lam, radius=args.radius,
        n_dirs=args.dirs,
    )
    result = verify.at_most("slab_distortion", "slab-bound", rep.d_est, rep.bound, 0.01)
    path = _ensure_out(args) / "distortion_report.txt"
    write_report(path, [result], result.passed)
    print(
        f"lambda_hat={lam:.6f} measured_distortion={rep.d_est:.6f} "
        f"bound={rep.bound:.6f} pass={rep.passed}"
    )
    _manifest(
        args,
        "distortion",
        {
            "t1": args.t1,
            "t2": args.t2,
            "samples": args.samples,
            "radius": args.radius,
            "dirs": args.dirs,
            "grid_n": args.grid_n,
            "lambda_hat": lam,
        },
        [path],
    )
    return 0


def cmd_verify(args) -> int:
    report = verify.run_checks(args.level)
    path = _ensure_out(args) / "verify_report.txt"
    write_report(path, report.results, report.overall)
    for r in report.results:
        print(
            f"{'PASS' if r.passed else 'FAIL'}  {r.name}: value={r.value:.6g} "
            f"bound={r.bound:.6g} ({report.seconds.get(r.name, 0.0):.2f} s)"
            + (f"  {r.note}" if r.note else "")
        )
    print(f"overall: {'PASS' if report.overall else 'FAIL'} ({len(report.results)} checks)")
    # wall seconds per check: in the manifest only, so the report stays reproducible
    _manifest(args, "verify", {"level": args.level}, [path], seconds=report.seconds)
    return 0 if report.overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zorichlab",
        description="Experiments on a piecewise-exponential map of R^3",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, out_default="out"):
        p.add_argument("--out", default=out_default, help="output directory")
        p.add_argument("--config", default=None, help="KEY=VALUE config file (flags win)")
        p.set_defaults(func=func, parser=p)

    p = sub.add_parser("eval", help="evaluate the map and its second iterate")
    p.add_argument("--x", type=_triple, help="the point (required)")
    common(p, cmd_eval, out_default=None)

    p = sub.add_parser("invert", help="inverse branch in a named beam")
    p.add_argument("--y", type=_triple, help="the image point (required)")
    p.add_argument("--beam", type=_pair, default=(0, 0))
    common(p, cmd_invert, out_default=None)

    p = sub.add_parser("cone", help="export a preimage-cone mesh")
    p.add_argument("--level", type=_real, default=1.0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--flip", action="store_true")
    p.add_argument("--t1", type=_real, default=None, help="default: vertex height + 0.25")
    p.add_argument("--t2", type=_real, default=None, help="default: vertex height + 2.5")
    p.add_argument("--n-height", dest="n_height", type=int, default=48)
    p.add_argument("--n-width", dest="n_width", type=int, default=16)
    common(p, cmd_cone)

    def line_flags(p, u2, u3):
        p.add_argument("--u2", type=_real, default=u2, action=_Given)
        p.add_argument("--u3", type=_real, default=u3, action=_Given)
        p.add_argument("--face", default="+x1", choices=density.Y_FACES, action=_Given)
        p.add_argument("--p", type=_triple, default=(0.0, 0.0, 0.0), help="base point")

    def trace_flags(p, budget):
        line_flags(p, 0.37, 1.3e-4)
        p.add_argument("--direction", type=_triple, default=None, action=_Given,
                       help="raw line direction (for excluded families); replaces --face/--u2/--u3")
        p.add_argument("--box-r", dest="box_r", type=_real, default=density.COVERAGE_BOX)
        p.add_argument("--budget", type=int, default=budget)
        p.add_argument("--h-max", dest="h_max", type=_real, default=None)

    p = sub.add_parser("trace", help="adaptive second-iterate trace of one line")
    trace_flags(p, 100_000)
    common(p, cmd_trace)

    p = sub.add_parser("coverage", help="voxel coverage of one line image")
    trace_flags(p, density.COVERAGE_BUDGET)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=density.COVERAGE_GRID_N)
    common(p, cmd_coverage)

    p = sub.add_parser("density", help="hit-fraction ladder over a patch of lines")
    line_flags(p, 0.4, 0.35)
    p.add_argument("--delta", type=_real, default=0.08)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=16)
    p.add_argument("--budget", type=int, default=20_000)
    p.add_argument("--rungs", type=int, default=4)
    p.add_argument("--ball-n", dest="ball_n", type=int, default=1, action=_Given,
                   help="index into the countable ball base")
    p.add_argument("--q", type=_triple, default=None, action=_Given,
                   help="explicit ball center; replaces --ball-n")
    p.add_argument("--ball-r", dest="ball_r", type=_real, default=0.25, action=_Given,
                   help="radius of the --q ball; needs --q")
    common(p, cmd_density)

    p = sub.add_parser("distortion", help="slab distortion against the product bound")
    p.add_argument("--t1", type=_real, default=0.0)
    p.add_argument("--t2", type=_real, default=1.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--radius", type=_real, default=distortion.DEFAULT_RADIUS)
    p.add_argument("--dirs", type=int, default=distortion.DEFAULT_DIRECTIONS)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=128)
    common(p, cmd_distortion)

    p = sub.add_parser("verify", help="run the aggregated verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="full")
    common(p, cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the command comes first; its config flags go before its own, which win
            flags = _config_flags(args.parser, args.command, read_config(args.config))
            args = parser.parse_args([argv[0], *flags, *argv[1:]])
        _check_given(getattr(args, "given", frozenset()))
        return args.func(args)
    except (DomainError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
