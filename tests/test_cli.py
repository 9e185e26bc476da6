"""CLI subcommands, file outputs, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lrbev.cli import main
from lrbev.cloudio import read_cloud, read_feature_map, write_cloud
from lrbev.config import tiny_config
from lrbev.heads import bev_encoder, fuse_bev_maps
from lrbev.pipeline import random_weights, run_pipeline


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


@pytest.mark.parametrize("stage, channels, count", [
    ("m_l", (1, 0), ("grid_encoding", "lidar_columns")),
    ("m_r", (0, 32), ("grid_encoding", "radar_pillars")),
    ("enhanced", (0, 96), ("l2r_fusion", "enhanced_nonzero_cells")),
    ("fused", (1, 96), ("r2l_fusion_head", "gathered_columns")),
], ids=["m_l", "m_r", "enhanced", "fused"])
def test_dump_map(generated, tmp_path, stage, channels, count):
    """Each sparse stage dumps whole, with as many non-zero cells as the
    run's stats count; ``channels`` gives the width as (multiple of the
    configured LiDAR width, plus a constant)."""
    out = tmp_path / f"{stage}.blrm"
    assert main(["dump-map", "--scale", "tiny", "--in", str(generated),
                 "--stage", stage, "--out", str(out)]) == 0
    m = read_feature_map(out)
    cfg = json.loads((generated / "config.json").read_text())
    lidar, extra = channels
    assert m.channels == lidar * cfg["channels"]["lidar_channels"] + extra
    assert main(["run", "--scale", "tiny", "--in", str(generated),
                 "--out", str(tmp_path / "run")]) == 0
    stats = json.loads((tmp_path / "run" / "stats.json").read_text())
    section, key = count
    assert int(m.data.any(axis=0).sum()) == stats[section][key] > 0


def test_dump_map_encoded_and_heatmap_match_the_run(generated, tmp_path):
    """The encoded map is the whole-map chain on the run's maps, and the
    heatmap is the run's own, both as float32."""
    cfg = tiny_config()
    result = run_pipeline(cfg, read_cloud(generated / "lidar.blrf"),
                          read_cloud(generated / "radar.blrf"))
    maps = result.maps
    encoded = bev_encoder(fuse_bev_maps(maps["m_l"].dense(), maps["enhanced"].dense()),
                          random_weights(cfg, cfg.seeds.weights).encoder)
    assert encoded.channels == 512
    for stage, want in (("encoded", encoded), ("heatmap", maps["heatmap"])):
        out = tmp_path / f"{stage}.blrm"
        assert main(["dump-map", "--scale", "tiny", "--in", str(generated),
                     "--stage", stage, "--out", str(out)]) == 0
        m = read_feature_map(out)
        assert m.shape == want.shape
        assert np.array_equal(m.data, want.data.astype(np.float32)), stage


def test_non_finite_and_far_json_points_dropped_without_warnings(generated, tmp_path):
    """JSON points with a null, a huge or an infinite coordinate are
    dropped and counted, and no numpy warning is raised on the way."""
    base = tmp_path / "base"
    assert main(["run", "--scale", "tiny", "--in", str(generated),
                 "--out", str(base)]) == 0
    want = json.loads((base / "stats.json").read_text())["grid_encoding"]
    paths = {}
    for kind, bad in (("lidar", [{"x": None}, {"y": 1e300}, {"z": math.inf}]),
                      ("radar", [{"x": None}])):
        paths[kind] = tmp_path / f"{kind}.json"
        write_cloud(read_cloud(generated / f"{kind}.blrf"), paths[kind])
        doc = json.loads(paths[kind].read_text())
        for k, fields in enumerate(bad):
            doc["points"].insert(5 * k + 3, dict(doc["points"][0], **fields))
        paths[kind].write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lrbev.cli", "run",
         "--scale", "tiny", "--lidar", str(paths["lidar"]),
         "--radar", str(paths["radar"]), "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads((tmp_path / "o" / "stats.json").read_text())["grid_encoding"]
    assert got["dropped_lidar_points"] == want["dropped_lidar_points"] + 3
    assert got["dropped_radar_points"] == want["dropped_radar_points"] + 1


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
    doc["fusion"]["height_feature_dim"] = 48
    cfgfile.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfgfile), "--in", str(tmp_path),
                 "--out", str(tmp_path / "o")]) == 1


def _edited(edit):
    doc = tiny_config().to_dict()
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text, code, field", [
    (_edited(lambda d: d["channels"].update(radar_channels=32)), 1,
     "channels.radar_channels: unknown key"),
    (_edited(lambda d: d.update(radar_grid={})), 1, "radar_grid: unknown key"),
    (_edited(lambda d: d["fusion"].update(bev_window=2)), 1,
     "fusion.bev_window: expected a list"),
    (_edited(lambda d: d["scene"].update(sweep_dt="0.1")), 1,
     "scene.sweep_dt: expected float"),
    (_edited(lambda d: d.pop("lidar_grid")), 1, "lidar_grid: missing"),
    (_edited(lambda d: d["lidar_grid"].update(cell=[0.5, -0.5, 2.0])), 1,
     "lidar_grid.cell: all sizes must be positive"),
    ('{"radar_cell": 2.0', 3, "not JSON"),
    ("{\x80}", 3, "not UTF-8"),
], ids=["unknown-key", "removed-grid", "number-for-list", "string-for-number",
        "missing-grid", "negative-cell", "not-json", "not-text"])
def test_bad_config_file_exits_without_traceback(tmp_path, text, code, field):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_bytes(text.encode("latin-1"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "lrbev.cli", "run", "--config", str(cfgfile),
         "--in", str(tmp_path), "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr


_BOX = {"x": 1.0, "y": 2.0, "z": 0.0, "length": 4.0, "width": 2.0, "height": 1.5,
        "yaw": 0.0, "vx": 0.0, "vy": 0.0, "class_id": 0, "score": 0.9}


@pytest.mark.parametrize("command, name, text, where", [
    ("run", "lidar.json", '{"kind": "lidar", "points": [', "lidar.json: not JSON"),
    ("run", "lidar.json", '{"points": []}', "lidar.json: missing key 'kind'"),
    ("run", "lidar.json",
     '{"kind": "lidar", "points": [{"x": 1, "z": 0, "intensity": 0, "t": 0}]}',
     "lidar.json: missing key 'y'"),
    ("eval", "detections.jsonl", '{"x": 1}\n', "detections.jsonl:1: malformed"),
    ("eval", "detections.jsonl", json.dumps(_BOX) + "\n\nnot json\n",
     "detections.jsonl:3: not JSON"),
    ("eval", "scene.json", '{"objects": []}', "scene.json: missing key"),
], ids=["cloud-not-json", "cloud-no-kind", "point-no-y", "detection-missing-fields",
        "detection-line-not-json", "scene-no-sensor-height"])
def test_bad_json_input_exits_without_traceback(tmp_path, command, name, text, where):
    """A malformed JSON input exits 3 with a message naming the file, and
    the line of a JSON-lines file."""
    (tmp_path / name).write_text(text)
    if command == "run":
        argv = ["run", "--scale", "tiny", "--lidar", str(tmp_path / name),
                "--in", str(tmp_path), "--out", str(tmp_path / "o")]
    else:
        if name != "detections.jsonl":
            (tmp_path / "detections.jsonl").write_text("")
        argv = ["eval", "--detections", str(tmp_path / "detections.jsonl"),
                "--truth", str(tmp_path / "scene.json")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "lrbev.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert where in proc.stderr


def test_config_without_trunk_exit_code(tmp_path, capsys):
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
