"""The CLI exit-code contract: 0 success, 1 a verify check failed,
2 validation error, 3 numeric failure."""

from zorichlab import verify
from zorichlab.cli import main
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
