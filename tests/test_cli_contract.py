"""The CLI exit-code contract: 0 success, 1 a verify check failed,
2 validation error (a MemoryError included), 3 numeric failure."""

import argparse
import hashlib
import json
import tracemalloc

import pytest

from zorichlab import density, distortion, verify
from zorichlab.cli import build_parser, main
from zorichlab.errors import DomainError
from zorichlab.output import write_point_cloud
from zorichlab.verify import CheckResult, VerificationReport


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("budjet=5000\n")
    assert main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "budjet" in capsys.readouterr().err
    assert not (tmp_path / "trace_points.txt").exists()


def test_bad_config_cast_exits_2(tmp_path):
    cfg = tmp_path / "cast.cfg"
    cfg.write_text("budget=abc\n")
    assert main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "trace_points.txt").exists()


def test_failed_verify_check_exits_1(tmp_path, monkeypatch):
    failing = CheckResult("norm_law", "norm-law", 2.0, 1.0, 0.0, False)
    monkeypatch.setattr(
        verify, "run_checks", lambda level: VerificationReport(level, [failing])
    )
    assert main(["verify", "--level", "quick", "--out", str(tmp_path)]) == 1
    report = (tmp_path / "verify_report.txt").read_text()
    assert "overall pass=false" in report


# Config keys may name any argument of the command; flags still win.


def _config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


def _parameters(out, command):
    return json.loads((out / f"{command}_manifest.json").read_text())["parameters"]


def test_config_face_takes_effect_and_flag_wins(tmp_path):
    cfg = _config(tmp_path, "face=-x1\nbudget=1000\n")
    assert main(["trace", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    params = _parameters(tmp_path / "a", "trace")
    assert params["line"]["face"] == "-x1"
    assert params["budget"] == 1000
    assert main(["trace", "--config", cfg, "--face", "+x2", "--out", str(tmp_path / "b")]) == 0
    assert _parameters(tmp_path / "b", "trace")["line"]["face"] == "+x2"


def test_config_flip_takes_effect(tmp_path):
    cfg = _config(tmp_path, "flip=true\n")
    argv = ["cone", "--config", cfg, "--n-height", "4", "--n-width", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert _parameters(tmp_path, "cone")["element"][2] is True


def test_config_direction_reaches_manifest(tmp_path):
    cfg = _config(tmp_path, "direction=1,0.4,0\nbudget=2000\n")
    assert main(["coverage", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert _parameters(tmp_path, "coverage")["line"]["direction"] == [1.0, 0.4, 0.0]


def test_config_out_and_required_flag(tmp_path):
    out = tmp_path / "from_config"
    cfg = _config(tmp_path, f"out={out}\nx=0.1,0.2,0.3\n")
    assert main(["eval", "--config", cfg]) == 0
    assert _parameters(out, "eval")["x"] == [0.1, 0.2, 0.3]


def test_config_verify_level(tmp_path, monkeypatch):
    passing = CheckResult("norm_law", "norm-law", 0.0, 1.0, 0.0, True)
    monkeypatch.setattr(
        verify, "run_checks", lambda level: VerificationReport(level, [passing])
    )
    cfg = _config(tmp_path, "level=quick\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert _parameters(tmp_path, "verify") == {"level": "quick"}


@pytest.mark.parametrize(
    "command, text",
    [("trace", "quick=maybe\n"), ("trace", "face=+x3\n"), ("verify", "level=medium\n"),
     ("trace", "config=other.cfg\n")],
)
def test_bad_config_value_exits_2(tmp_path, command, text):
    cfg = _config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*_manifest.json"))


def test_config_switch_false_and_flag_given(tmp_path):
    # a switch's false adds no flag, so --flip on the command line still sets it
    cfg = _config(tmp_path, "flip=false\n")
    argv = ["cone", "--config", cfg, "--n-height", "4", "--n-width", "4"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert _parameters(tmp_path / "a", "cone")["element"][2] is False
    assert main(argv + ["--flip", "--out", str(tmp_path / "b")]) == 0
    assert _parameters(tmp_path / "b", "cone")["element"][2] is True


def test_config_key_abbreviating_a_flag_exits_2(tmp_path, capsys):
    # argparse would read --bud as --budget; a key must name its argument in full
    cfg = _config(tmp_path, "bud=5000\n")
    assert main(["trace", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown key(s) for trace: bud\n" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_manifest.json"))


@pytest.mark.parametrize(
    "command, text, flag",
    [("cone", "flip=maybe\n", "--flip"), ("trace", "face=+x3\n", "--face"),
     ("verify", "level=medium\n", "--level"), ("cone", "n_height=two\n", "--n-height")],
)
def test_bad_config_value_names_its_flag(tmp_path, capsys, command, text, flag):
    cfg = _config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"argument {flag}" in capsys.readouterr().err


(SUBCOMMANDS,) = [a.choices for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_quick_is_rejected(tmp_path, capsys, command):
    # a count is set by its own flag only, so no command has --quick or a quick key
    out = tmp_path / "out"
    assert main([command, "--quick", "--out", str(out)]) == 2
    assert "unrecognized arguments: --quick" in capsys.readouterr().err
    cfg = _config(tmp_path, "quick=true\n")
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"unknown key(s) for {command}: quick" in capsys.readouterr().err
    assert not out.exists()


# A value starting with '-' must be joined to its flag with '='.


def test_negative_value_joined_with_equals(capsys):
    assert main(["eval", "--x=-1,0,0"]) == 0
    assert "x = (-1.0, 0.0, 0.0)" in capsys.readouterr().out


def test_negative_face_joined_with_equals(tmp_path):
    assert main(["trace", "--face=-x1", "--budget", "1000", "--out", str(tmp_path)]) == 0
    assert _parameters(tmp_path, "trace")["line"]["face"] == "-x1"


def test_missing_required_value_exits_2(capsys):
    assert main(["eval"]) == 2
    assert "--x is required" in capsys.readouterr().err


# An argument that replaces others cannot be given with them, as a flag or a key.


@pytest.mark.parametrize(
    "argv, config",
    [
        (["coverage", "--direction", "1,0.4,0", "--face=-x2", "--u2", "0.9",
          "--budget", "2000"], None),
        (["density", "--q", "2,0,0", "--ball-n", "7", "--grid-n", "2"], None),
        (["trace", "--u3", "0.001", "--budget", "2000"], "direction=1,0.4,0\n"),
        (["density", "--grid-n", "2"], "q=2,0,0\nball_n=7\n"),
    ],
)
def test_replaced_argument_exits_2(tmp_path, capsys, argv, config):
    if config is not None:
        argv = argv + ["--config", _config(tmp_path, config)]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "replaces" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_manifest.json"))


# --ball-r is the radius of the explicit --q ball and acts only with it.

RUNG = ["density", "--grid-n", "2", "--budget", "1000", "--rungs", "1"]


@pytest.mark.parametrize(
    "argv, config",
    [(RUNG + ["--ball-r", "0"], None), (RUNG + ["--ball-r", "0.3"], None), (RUNG, "ball_r=0.3\n")],
)
def test_ball_radius_without_centre_exits_2(tmp_path, capsys, argv, config):
    if config is not None:
        argv = argv + ["--config", _config(tmp_path, config)]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "--ball-r needs --q" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_manifest.json"))


def test_ball_radius_with_centre(tmp_path):
    assert main(RUNG + ["--q", "2,0,0", "--ball-r", "0.3", "--out", str(tmp_path)]) == 0
    assert _parameters(tmp_path, "density")["ball"] == {"center": [2.0, 0.0, 0.0], "radius": 0.3}


def test_distortion_zero_radius_exits_2(tmp_path, capsys):
    argv = ["distortion", "--radius", "0", "--samples", "10", "--grid-n", "64"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "radius" in capsys.readouterr().err
    assert not (tmp_path / "distortion_report.txt").exists()


def test_verify_prints_check_notes(tmp_path, monkeypatch, capsys):
    # a check's note goes to stdout only: the report and manifest keep their records
    results = [CheckResult("coverage_trend", "line-image-coverage", 0.97, 0.95, 0.0, True,
                           note="excluded_line_coverage=0.1234"),
               CheckResult("norm_law", "norm-law", 0.0, 1.0, 0.0, True)]
    monkeypatch.setattr(verify, "run_checks", lambda level: VerificationReport(level, results))
    assert main(["verify", "--level", "quick", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("(0.00 s)  excluded_line_coverage=0.1234")
    assert lines[1].endswith("(0.00 s)")
    assert "excluded_line_coverage" not in (tmp_path / "verify_report.txt").read_text()
    assert "excluded_line_coverage" not in (tmp_path / "verify_manifest.json").read_text()


def test_verify_prints_check_seconds(tmp_path, monkeypatch, capsys):
    passing = CheckResult("norm_law", "norm-law", 0.0, 1.0, 0.0, True)
    monkeypatch.setattr(
        verify, "run_checks",
        lambda level: VerificationReport(level, [passing], {"norm_law": 1.25}),
    )
    assert main(["verify", "--level", "quick", "--out", str(tmp_path)]) == 0
    assert "PASS  norm_law: value=0 bound=1 (1.25 s)" in capsys.readouterr().out


@pytest.mark.parametrize("level", ["quick", "full"])
def test_verify_manifest_records_check_seconds(tmp_path, monkeypatch, level):
    # every check replaced by a stub, so run_checks times all 18 of them
    names = [name for name, _, _ in verify.CHECKS]
    for name in names:
        monkeypatch.setattr(
            verify, f"check_{name}",
            lambda *args, _name=name: CheckResult(_name, "claim", 0.0, 1.0, 0.0, True),
        )
    assert main(["verify", "--level", level, "--out", str(tmp_path)]) == 0
    seconds = json.loads((tmp_path / "verify_manifest.json").read_text())["seconds"]
    assert len(names) == 18 and sorted(seconds) == sorted(names)  # the manifest sorts keys
    assert all(isinstance(s, float) and s >= 0.0 for s in seconds.values())
    # the report keeps no timings, so reruns give the same bytes
    report = (tmp_path / "verify_report.txt").read_text()
    assert "second" not in report and " s)" not in report
    assert main(["verify", "--level", level, "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "verify_report.txt").read_text() == report


# Non-finite numbers, counts below their minimum and an empty ladder are
# validation errors, as flags or keys.

# counts below their minimum, and the library's message for each
COUNT_FLAGS = [
    ("trace", "--budget", "budget", "-5"),
    ("coverage", "--budget", "budget", "0"),
    ("density", "--budget", "budget", "-5"),
    ("density", "--grid-n", "grid_n", "0"),
    ("distortion", "--samples", "samples", "0"),
    ("distortion", "--grid-n", "grid_n", "-1"),
]
FLOORED_COUNTS = [
    ("trace", "--budget", "budget", "500"),
    ("coverage", "--budget", "budget", "999"),
    ("density", "--budget", "budget", "999"),
    ("density", "--grid-n", "grid_n", "1"),
    ("distortion", "--grid-n", "grid_n", "63"),
]
BUDGET_MESSAGE = f"adaptive_trace: budget must be >= {density.MIN_BUDGET}"
MINIMUM_MESSAGES = {
    ("trace", "budget"): BUDGET_MESSAGE,
    ("coverage", "budget"): BUDGET_MESSAGE,
    ("density", "budget"): BUDGET_MESSAGE,
    ("density", "grid_n"): f"epsilon_density: need grid_n >= {density.MIN_GRID_N}",
    ("distortion", "samples"): "verify_slab_bound: need samples",
    ("distortion", "grid_n"):
        f"lambda_h_estimate: grid_n must be >= {distortion.MIN_CHART_GRID_N}",
}


def _case_id(argv, config, message, number=None):
    """A case's name. A row that was in the table when its cases were named by
    position keeps that name, argv<number>-<config>-<message>; any other row is
    named by its command line, then its config lines. No name depends on where
    its row stands, so adding or removing a row renames no other case."""
    if number is not None:
        return f"argv{number}-{config}-{message}"
    return " ".join(argv + ([] if config is None else ["config:", *config.split()]))


EXITS_2 = [
    (["trace", "--u2", "nan", "--budget", "3000"], None, "finite", 0),
    (["trace", "--p", "nan,0,0", "--budget", "3000"], None, "finite", 1),
    (["trace", "--direction", "1,nan,0.001", "--budget", "3000"], None, "finite", 2),
    (["coverage", "--box-r", "inf", "--budget", "3000"], None, "finite", 3),
    (["density", "--rungs", "0"], None, "rungs", 4),
    (["density", "--rungs", "-2"], None, "rungs", 5),
    (["coverage", "--budget", "3000"], "box_r=inf\n", "finite", 6),
    (["trace", "--budget", "999"], None, "budget must be >= 1000", 7),
    (["trace", "--h-max", "0"], None, "h_max must be positive", 8),
    (["cone", "--level", "0"], None, "level must be finite and nonzero", 9),
    (["cone", "--n-height", "0"], None, "at least one cell", 10),
    (["cone", "--level", "1", "--t1=-1", "--t2", "1"], None, "vertex_height < t1 < t2", 11),
    (["distortion", "--t1", "1", "--t2", "0"], None, "need t1 < t2", 12),
    (["distortion", "--samples", "0"], None, "need samples", 13),
    (["distortion", "--t2", "25"], None, "slab gap above 20", 14),
    (["density", "--delta", "0"], None, "delta must be positive", 15),
    (["density", "--ball-n", "0"], None, "need n >= 1", 16),
    # a count below its minimum, zero or negative or positive, as a flag and
    # as a config key: the library checks it
    *[
        (argv, config, MINIMUM_MESSAGES[command, key])
        for command, flag, key, value in COUNT_FLAGS + FLOORED_COUNTS
        for argv, config in [
            ([command, f"{flag}={value}"], None),
            ([command], f"{key}={value}\n"),
        ]
    ],
    # a zero direction names no line
    (["trace", "--direction", "0,0,0", "--budget", "1000"], None, "nonzero d", 61),
    (["trace", "--budget", "1000"], "direction=0,-0.0,0\n", "nonzero d", 62),
    (["coverage", "--direction", "0,0,0", "--budget", "1000"], None, "nonzero d", 63),
    (["coverage", "--budget", "1000"], "direction=0,-0.0,0\n", "nonzero d", 64),
    # |y| above exp(EXP_CAP) is outside the map's range; |y|^2 overflows
    (["invert", "--y", "1e308,1e308,1e308"], None, "need 0 < |y| <= exp(700)", 65),
    # a config file that cannot be read (paths from the test's directory)
    (["trace", "--budget", "1000", "--config", "no-such.cfg"], None,
     "config: cannot read 'no-such.cfg': No such file or directory", 66),
    (["trace", "--budget", "1000", "--config", "."], None,
     "config: cannot read '.': Is a directory", 67),
    # a cone whose heights overflow a float (no RuntimeWarning escapes)
    (["cone", "--level", "1e308"], None, "cone_height: a height is not a finite float", 68),
    # a 10^15-voxel grid: numpy refuses it at once, without touching memory
    (["coverage", "--grid-n", "100000"], None, "Unable to allocate", 69),
    # a branch margin (10 * radius) past pi/sqrt(2) leaves no point to sample
    *[
        (["distortion", "--samples", "5", "--grid-n", "64", "--radius", radius], None,
         f"sample_slab: radius {float(radius)!r} leaves no point outside the branch margin",
         number)
        for radius, number in (("0.25", 70), ("1e300", 71))
    ],
    # a ball centre or a voxel edge that overflows a float (no RuntimeWarning escapes)
    (["density", "--q", "1e160,0,0", "--ball-r", "1", "--grid-n", "2", "--budget", "1000",
      "--rungs", "1"], None, "BallSpec: |center|^2 must be a finite float", 72),
    (["coverage", "--box-r", "1e308", "--budget", "1000", "--grid-n", "2"], None,
     "VoxelGrid: the voxel edge must be a finite float", 73),
    # the trace's default step, voxel_edge(box_r), overflows
    (["trace", "--box-r", "1e308", "--budget", "1000"], None,
     "trace: the default step voxel_edge(1e+308) is not a finite float", 74),
    # a beam past PHASE_CAP, for the inverse branch and for a cone's placement
    (["invert", "--y", "0.3,-0.2,1.5", "--beam", "100000000000000000000,0"], None,
     "zorich_inverse: beam (100000000000000000000, 0) is past PHASE_CAP", 75),
    (["cone", "--m", "100000000000000000000"], None,
     "ConeSurface: beam (200000000000000000000, 0) is past PHASE_CAP", 76),
    # a ladder whose deepest rung's crossings are one float, and one past 2.0**1023
    *[
        (["density", "--rungs", rungs, "--grid-n", "2", "--budget", "1000"], None,
         f"epsilon_density: rung {int(rungs) - 1} repeats a crossing", number)
        for rungs, number in (("56", 77), ("1100", 78))
    ],
    # a phase past PHASE_CAP, for the map and at the end of a traced line's window
    (["eval", "--x", "1e300,0,0"], None,
     "zorich: a phase max(|x1|, |x2|) is past PHASE_CAP", 79),
    (["trace", "--p", "1e15,0,0", "--budget", "1000"], None,
     "adaptive_trace: a first-stage phase over s in [-7692.31, 207692] is past PHASE_CAP", 80),
    # a slab whose probe differences overflow (no RuntimeWarning escapes)
    (["distortion", "--t1", "370", "--t2", "371"], None,
     "verify_slab_bound: the distortion over t in [370, 371] is not a finite float"),
]


@pytest.mark.parametrize(
    "argv, config, message", [pytest.param(*case[:3], id=_case_id(*case)) for case in EXITS_2]
)
def test_non_finite_or_empty_exits_2(tmp_path, capsys, monkeypatch, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        argv = argv + ["--config", _config(tmp_path, config)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# A bad voxel grid size is rejected before the line is traced.


@pytest.mark.parametrize("grid_n", ["0", "1", "-4"])
def test_coverage_grid_size_exits_2_before_tracing(tmp_path, capsys, monkeypatch, grid_n):
    def no_trace(*args, **kwargs):
        raise AssertionError("the line was traced")

    monkeypatch.setattr(density, "_trace_lines", no_trace)
    assert main(["coverage", f"--grid-n={grid_n}", "--out", str(tmp_path)]) == 2
    assert "VoxelGrid" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_manifest.json"))


# A ball index past the base is rejected before any line is traced.


@pytest.mark.parametrize(
    "argv, config", [(["density", "--ball-n", "140609"], None), (["density"], "ball_n=140609\n")]
)
def test_ball_index_past_the_base_exits_2_before_tracing(tmp_path, capsys, monkeypatch,
                                                         argv, config):
    def no_trace(*args, **kwargs):
        raise AssertionError("a line was traced")

    monkeypatch.setattr(density, "_trace_lines", no_trace)
    if config is not None:
        argv = argv + ["--config", _config(tmp_path, config)]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert f"need n <= {density.MAX_BALL_N}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_manifest.json"))


# A rejected run creates no output directory.


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--h-max=0"],
        ["coverage", "--grid-n", "1"],
        ["density", "--ball-n", "140609"],
        ["density", "--rungs", "0"],
        ["cone", "--n-height", "0"],
        ["distortion", "--radius", "0", "--samples", "10", "--grid-n", "64"],
        ["verify", "--level", "quick"],
    ],
)
def test_rejected_run_creates_no_directory(tmp_path, monkeypatch, argv):
    def rejected(level):
        raise DomainError("rejected")

    monkeypatch.setattr(verify, "run_checks", rejected)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_unresolved_line_exits_2(tmp_path, capsys):
    # every point_at(s) of this line over its window has x1 = 1e308
    out = tmp_path / "out"
    assert main(["trace", "--p", "1e308,0,0", "--budget", "1000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "one seed step over s in [-7692.31, 207692] leaves a coordinate" in err
    assert not out.exists()


# The trace command writes its walk's blocks as they come: the file and the
# counts of adaptive_trace's whole result, with no TraceResult built.


def test_trace_writes_its_walk(tmp_path, monkeypatch):
    args = build_parser().parse_args(["trace"])
    line = density.LineSpec(density.YPoint(args.face, args.u2, args.u3), args.p)
    want = density.adaptive_trace(line, args.box_r, 6000, density.voxel_edge(args.box_r))
    write_point_cloud(tmp_path / "want.txt", [want.points[want.in_box]])

    def no_result(*args, **kwargs):
        raise AssertionError("a TraceResult was built")

    monkeypatch.setattr(density, "TraceResult", no_result)
    out = tmp_path / "out"
    assert main(["trace", "--budget", "6000", "--out", str(out)]) == 0
    assert (out / "trace_points.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
    params = _parameters(out, "trace")
    assert (params["evals"], params["in_box_points"]) == (want.audit.evals,
                                                          want.audit.in_box_points)


def test_trace_sorts_before_making_its_directory(tmp_path, capsys, monkeypatch):
    # the walk's sort is its one large allocation: a MemoryError there leaves no --out
    def no_memory(self):
        raise MemoryError("the sort")

    monkeypatch.setattr(density._Walk, "__iter__", no_memory)
    out = tmp_path / "out"
    assert main(["trace", "--budget", "1000", "--out", str(out)]) == 2
    assert "the sort" in capsys.readouterr().err
    assert not out.exists()


def test_trace_holds_its_store_and_blocks(tmp_path):
    # the store takes 33 bytes a sample; the walk's blocks and the writer's
    # rows fit beside it in 20 MB, a whole result beside the store does not
    budget = 1_000_000
    tracemalloc.start()
    try:
        assert main(["trace", "--budget", str(budget), "--out", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 33 * budget + 20 * 10**6


# Every manifest has the same records; inputs and outputs are file digests.

MANIFEST_KEYS = {"command", "parameters", "version", "python", "timestamp_utc", "inputs", "outputs"}


def not_strict_json(constant):
    raise AssertionError(f"the manifest holds {constant}, which strict JSON rejects")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--x", "0.3,-0.2,1.5"],
        ["invert", "--y", "0,0,-1", "--beam", "1,0"],
        ["cone", "--n-height", "4", "--n-width", "4"],
        ["trace", "--budget", "1000"],
        ["coverage", "--budget", "1000", "--grid-n", "8"],
        RUNG,
        ["distortion", "--samples", "10", "--grid-n", "64", "--dirs", "32"],
        ["verify", "--level", "quick"],
    ],
)
def test_manifest_records(tmp_path, monkeypatch, argv):
    passing = CheckResult("norm_law", "norm-law", 0.0, 1.0, 0.0, True)
    monkeypatch.setattr(
        verify, "run_checks",
        lambda level: VerificationReport(level, [passing], {"norm_law": 0.5}),
    )
    assert main(argv + ["--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / f"{argv[0]}_manifest.json").read_text(),
                        parse_constant=not_strict_json)
    assert set(record) == MANIFEST_KEYS | ({"seconds"} if argv[0] == "verify" else set())
    assert record["command"] == argv[0]
    assert record["inputs"] == {}
    outputs = [path for path in tmp_path.iterdir() if not path.name.endswith("_manifest.json")]
    assert record["outputs"] == {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs
    }


def test_manifest_records_config_digest(tmp_path):
    cfg = _config(tmp_path, "face=-x1\nbudget=1000\n")
    out = tmp_path / "run"
    assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
    record = json.loads((out / "trace_manifest.json").read_text())
    digest = hashlib.sha256((tmp_path / "run.cfg").read_bytes()).hexdigest()
    assert record["inputs"] == {"run.cfg": digest}
    points = hashlib.sha256((out / "trace_points.txt").read_bytes()).hexdigest()
    assert record["outputs"] == {"trace_points.txt": points}
