import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from zorichlab.cli import main, read_config
from zorichlab.output import write_csv, write_point_cloud, write_report, write_triangle_soup
from zorichlab.verify import CheckResult


class TestEvalInvert:
    def test_eval_prints_both_stages(self, capsys):
        assert main(["eval", "--x", "0,0,0"]) == 0
        out = capsys.readouterr().out
        assert "map(x) = (0.0, 0.0, 1.0)" in out
        assert repr(math.e) in out

    def test_eval_writes_files(self, tmp_path):
        assert main(["eval", "--x", "0.1,0.2,0.3", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "eval.csv").exists()
        manifest = json.loads((tmp_path / "eval_manifest.json").read_text())
        assert manifest["command"] == "eval"
        assert "eval.csv" in manifest["outputs"]

    def test_invert_roundtrip(self, capsys):
        assert main(["invert", "--y", "0,0,-1", "--beam", "1,0"]) == 0
        out = capsys.readouterr().out
        assert "preimage in beam (1, 0)" in out

    def test_invert_writes_files(self, tmp_path):
        assert main(["invert", "--y", "0,0,-1", "--beam", "1,0", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "invert.csv").read_text().splitlines() == [
            "quantity,x1,x2,x3",
            "y,0.0,0.0,-1.0",
            "preimage,3.141592653589793,0.0,0.0",
        ]
        manifest = json.loads((tmp_path / "invert_manifest.json").read_text())
        assert manifest["parameters"] == {"y": [0.0, 0.0, -1.0], "beam": [1, 0]}

    def test_invert_far_point(self, capsys):
        # |y|^2 overflows; the preimage's x3 = ln(1e200) is inside the domain
        assert main(["invert", "--y", "1e200,0,0"]) == 0
        out = capsys.readouterr().out
        assert ", 460.517" in out
        assert float(out.split("relative residual = ")[1]) <= 1e-9

    def test_invert_deep_subnormal_point(self, capsys):
        assert main(["invert", "--y", "1e-320,0,1e-320"]) == 0
        assert "(0.7853981633974482, 0.0, -736.48" in capsys.readouterr().out

    def test_invert_zero_exits_2(self, capsys):
        assert main(["invert", "--y", "0,0,0"]) == 2
        assert "no preimage" in capsys.readouterr().err

    def test_parity_mismatch_exits_2(self):
        assert main(["invert", "--y", "0,0,1", "--beam", "1,0"]) == 2

    def test_overflow_exits_3(self):
        assert main(["eval", "--x", "0,0,10"]) == 3


class TestFileCommands:
    def test_cone_mesh(self, tmp_path):
        assert main(
            ["cone", "--level", "1.0", "--t1", "0.5", "--t2", "1.5", "--out", str(tmp_path)]
        ) == 0
        lines = (tmp_path / "cone.txt").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines[1].split()) == 9

    def test_trace_writes_point_cloud(self, tmp_path):
        assert main(
            [
                "trace", "--u2", "0.37", "--u3", "0.002",
                "--budget", "20000", "--out", str(tmp_path),
            ]
        ) == 0
        lines = (tmp_path / "trace_points.txt").read_text().splitlines()
        assert lines[0] == "# x y z (scene units)"
        assert len(lines) > 100

    def test_trace_notes_planar_lines(self, tmp_path, capsys):
        argv = ["trace", "--budget", "1000", "--out", str(tmp_path)]
        assert main(argv + ["--direction", "1,0,0.001"]) == 0
        assert "note: planar image: line lies in a preserved coordinate plane" in (
            capsys.readouterr().out
        )
        assert main(argv + ["--direction", "1,1,0.001"]) == 0
        assert "note: planar image: line lies in a preserved diagonal plane" in (
            capsys.readouterr().out
        )

    def test_coverage_excluded_line_flagged(self, tmp_path, capsys):
        code = main(
            [
                "coverage", "--direction", "1,0.4,0",
                "--budget", "20000", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bounded image" in out
        header = (tmp_path / "coverage.csv").read_text().splitlines()[0]
        assert header == "points_consumed,coverage,cap_hit_fraction"

    def test_coverage_deterministic_bytes(self, tmp_path):
        argv = ["coverage", "--u2", "0.4", "--u3", "0.002", "--budget", "20000"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "coverage.csv").read_bytes() == (b / "coverage.csv").read_bytes()
        ma = json.loads((a / "coverage_manifest.json").read_text())
        mb = json.loads((b / "coverage_manifest.json").read_text())
        assert ma["outputs"] == mb["outputs"]

    def test_density_csv(self, tmp_path):
        code = main(
            [
                "density", "--u2", "0.4", "--u3", "0.35", "--delta", "0.05",
                "--grid-n", "4", "--budget", "4000", "--rungs", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "density.csv").read_text().splitlines()
        assert lines[0] == "delta,grid_n,valid_points,hits,fraction"
        assert len(lines) == 3

    def test_distortion_report(self, tmp_path, capsys):
        code = main(
            [
                "distortion", "--t1", "0", "--t2", "1", "--samples", "100",
                "--grid-n", "64", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert "pass=True" in capsys.readouterr().out
        text = (tmp_path / "distortion_report.txt").read_text()
        assert "check=slab_distortion" in text
        assert "pass=true" in text


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget=5000\nu2=0.3\nu3=0.002  # steepness\n")
        out1 = tmp_path / "o1"
        assert main(
            ["trace", "--config", str(cfg), "--out", str(out1)]
        ) == 0
        man = json.loads((out1 / "trace_manifest.json").read_text())
        assert man["parameters"]["budget"] == 5000
        assert man["parameters"]["line"]["u2"] == 0.3
        # explicit flag beats the config value
        out2 = tmp_path / "o2"
        assert main(
            ["trace", "--config", str(cfg), "--budget", "2000", "--out", str(out2)]
        ) == 0
        man2 = json.loads((out2 / "trace_manifest.json").read_text())
        assert man2["parameters"]["budget"] == 2000

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line without equals\n")
        assert main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_read_config_parsing(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment only\na = 1\nb=two\n")
        assert read_config(cfg) == {"a": "1", "b": "two"}


class TestWriters:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [(1, 2.5), (True, "x")])
        assert path.read_bytes() == b"a,b\r\n1,2.5\r\ntrue,x\r\n"

    def test_point_cloud_shape(self, tmp_path):
        path = tmp_path / "p.txt"
        write_point_cloud(path, [np.array([[1.0, 2.0, 3.0]])])
        lines = path.read_text().splitlines()
        assert lines[1] == "1.0 2.0 3.0"

    def test_triangle_soup(self, tmp_path):
        path = tmp_path / "m.txt"
        write_triangle_soup(path, np.arange(18, dtype=float).reshape(2, 3, 3))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split()[0] == "0.0"

    def test_report_records(self, tmp_path):
        path = tmp_path / "r.txt"
        results = [
            CheckResult("alpha", "claim-a", 0.5, 1.0, 0.1, True),
            CheckResult("beta", "claim-b", 2.0, 1.0, 0.1, False),
        ]
        write_report(path, results, False)
        lines = path.read_text().splitlines()
        assert lines[1] == "check=alpha claim=claim-a value=0.5 bound=1.0 tolerance=0.1 pass=true"
        assert lines[-1] == "overall pass=false checks=2 failed=1"


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "zorichlab", "--version"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0
    assert done.stdout.strip() == "zorichlab 0.1.0"
