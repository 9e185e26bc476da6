"""CLI subcommands, file outputs, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from lrbev.cli import main
from lrbev.cloudio import read_cloud, read_feature_map


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main(["generate", "--scale", "tiny", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    return out


def test_generate_writes_clouds_and_truth(generated):
    lidar = read_cloud(generated / "lidar.blrf")
    radar = read_cloud(generated / "radar.blrf")
    assert len(lidar) > 0 and len(radar) > 0
    scene = json.loads((generated / "scene.json").read_text())
    assert len(scene["objects"]) == 2
    assert (generated / "config.json").exists()


def test_generate_deterministic_bytes(generated, tmp_path):
    out2 = tmp_path / "gen2"
    assert main(["generate", "--scale", "tiny", "--seed", "3",
                 "--out", str(out2)]) == 0
    assert (out2 / "lidar.blrf").read_bytes() == \
        (generated / "lidar.blrf").read_bytes()
    assert (out2 / "radar.blrf").read_bytes() == \
        (generated / "radar.blrf").read_bytes()


def test_run_then_eval(generated, tmp_path):
    rundir = tmp_path / "run"
    assert main(["run", "--scale", "tiny", "--in", str(generated),
                 "--out", str(rundir)]) == 0
    assert (rundir / "detections.jsonl").exists()
    stats = json.loads((rundir / "stats.json").read_text())
    assert stats["l2r_fusion"]["enhanced_shape"][0] == 96
    evalfile = tmp_path / "eval.json"
    assert main(["eval", "--detections", str(rundir / "detections.jsonl"),
                 "--truth", str(generated / "scene.json"),
                 "--out", str(evalfile)]) == 0
    doc = json.loads(evalfile.read_text())
    assert "mean_velocity_error" in doc and "ap_by_class" in doc


def test_run_deterministic_output_bytes(generated, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "--scale", "tiny", "--in", str(generated),
                     "--out", str(out)]) == 0
    assert (a / "detections.jsonl").read_bytes() == \
        (b / "detections.jsonl").read_bytes()
    assert (a / "stats.json").read_bytes() == (b / "stats.json").read_bytes()


def test_dump_map(generated, tmp_path):
    out = tmp_path / "ml.blrm"
    assert main(["dump-map", "--scale", "tiny", "--in", str(generated),
                 "--stage", "m_l", "--out", str(out)]) == 0
    m = read_feature_map(out)
    cfg = json.loads((generated / "config.json").read_text())
    assert m.channels == cfg["channels"]["lidar_channels"]


def test_dump_map_in_dot_reads_working_directory(generated, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("lidar.blrf", "radar.blrf"):
        (tmp_path / name).write_bytes((generated / name).read_bytes())
    args = ["dump-map", "--scale", "tiny", "--stage", "m_l"]
    assert main(args + ["--in", ".", "--out", "dot.blrm"]) == 0
    assert main(args + ["--in", str(generated), "--out", "gen.blrm"]) == 0
    assert main(args + ["--out", "fresh.blrm"]) == 0
    dot = (tmp_path / "dot.blrm").read_bytes()
    assert dot == (tmp_path / "gen.blrm").read_bytes()
    assert dot != (tmp_path / "fresh.blrm").read_bytes()


def test_check_small_suite_passes(capsys):
    assert main(["check", "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 20
    assert lines == sorted(lines, key=lambda l: l.split()[1])


def test_check_fault_injection_fails(capsys):
    assert main(["check", "--seeds", "2", "--fault", "ball-radius-r"]) == 2
    out = capsys.readouterr().out
    assert any(l.startswith("FAIL  l2r.non-overlap") for l in out.splitlines())


def test_offset_fault_breaks_decode(capsys):
    assert main(["check", "--seeds", "2", "--fault", "offset-bias"]) == 2
    out = capsys.readouterr().out
    assert any(l.startswith("FAIL  heads.decode-roundtrip")
               for l in out.splitlines())


def test_unknown_fault_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--fault", "gremlins"])
    assert exc.value.code == 2
    assert "ball-radius-r" in capsys.readouterr().err


def test_importing_the_cli_leaves_the_oracle_suite_unloaded():
    code = "import sys, lrbev.cli; sys.exit('lrbev.oracles' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_validation_error_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.json"
    from lrbev.config import desk_config
    cfg = desk_config()
    doc = cfg.to_dict()
    doc["channels"]["radar_channels"] = 48
    cfgfile.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfgfile), "--in", str(tmp_path),
                 "--out", str(tmp_path / "o")]) == 1


def test_config_without_trunk_exit_code(tmp_path, capsys):
    from lrbev.config import tiny_config
    doc = tiny_config().to_dict()
    doc["channels"]["trunk_channels"] = []
    cfgfile = tmp_path / "no-trunk.json"
    cfgfile.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfgfile), "--in", str(tmp_path),
                 "--out", str(tmp_path / "o")]) == 1
    assert "channels.trunk_channels" in capsys.readouterr().err


def test_format_error_exit_code(tmp_path):
    (tmp_path / "lidar.blrf").write_bytes(b"garbage-not-a-cloud")
    (tmp_path / "radar.blrf").write_bytes(b"garbage-not-a-cloud")
    assert main(["run", "--scale", "tiny", "--in", str(tmp_path),
                 "--out", str(tmp_path / "o")]) == 3


def test_missing_file_exit_code(tmp_path):
    assert main(["run", "--scale", "tiny", "--in", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")]) == 3


def test_radar_variant_flag(tmp_path):
    out = tmp_path / "vb"
    assert main(["generate", "--scale", "tiny", "--seed", "1",
                 "--radar-variant", "b", "--out", str(out)]) == 0
    radar = read_cloud(out / "radar.blrf")
    assert radar.dtype.names == ("x", "y", "rcs", "t")


def test_repeated_main_calls_parse_each_call_afresh(generated, tmp_path,
                                                     monkeypatch):
    """The parser is built once; every call still gets its own subcommand,
    arguments and defaults, and patched handlers and ``run_pipeline``
    take effect."""
    from lrbev import cli
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scale", "tiny", "--in", str(generated),
                 "--out", str(run_a)]) == 0
    assert main(["eval", "--detections", str(run_a / "detections.jsonl"),
                 "--truth", str(generated / "scene.json"),
                 "--out", str(tmp_path / "eval.json")]) == 0
    assert main(["dump-map", "--scale", "tiny", "--in", str(generated),
                 "--stage", "m_l", "--out", str(tmp_path / "m.blrm")]) == 0
    assert main(["run", "--scale", "tiny", "--radar-variant", "b",
                 "--in", str(generated), "--out", str(run_b)]) == 1
    assert main(["run", "--scale", "tiny", "--in", str(generated),
                 "--out", str(run_b)]) == 0
    assert (run_a / "detections.jsonl").read_bytes() == \
        (run_b / "detections.jsonl").read_bytes()
    assert cli._parser() is cli._parser()

    seen = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.out) or 0)
    assert main(["eval", "--detections", "d", "--truth", "t", "--out", "e"]) == 0
    assert main(["eval", "--detections", "d", "--truth", "t"]) == 0
    assert seen == ["e", None]

    calls = []
    original = cli.run_pipeline
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    assert main(["run", "--scale", "tiny", "--in", str(generated),
                 "--out", str(run_b)]) == 0
    assert calls == [1]
