"""The benchmark under ``perfbench/`` drives lrbev through module attributes
and stage functions; this runs its ``paper-l2r`` frame, output digest and
spot check on a tiny scene with the per-layer tracer installed, so a change
that breaks a name the benchmark reads fails here rather than only in the
benchmark's own smoke run. It also checks pool scenes against the
benchmark's reference outputs, and the metric names and units that
BENCHMARK.json declares against those the benchmark reports."""

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lrbev.config import tiny_config  # noqa: E402
from lrbev.pipeline import generate_clouds  # noqa: E402


def test_paper_l2r_steps_run_traced_on_a_tiny_scene():
    cfg = tiny_config()
    _, lidar, radar = generate_clouds(cfg, 0)
    state = {"cfg": cfg, "scenes": [0], "lidar": lidar, "radar": radar}
    wl = workloads.WORKLOADS["paper-l2r"]
    tracer = tracing.Tracer()
    tracer.set_frame(0)
    instrumentation = tracing.Instrumentation(tracer)
    instrumentation.install()
    try:
        out = wl.collect(state, wl.frame(state, 0))
        problems = wl.spot_check(state, 0)
    finally:
        instrumentation.uninstall()
    assert problems == []
    assert out.value["stats"]["l2r_fusion"]["pseudo_features"] == len(out.value["cells"])
    spans = {span[0] for span in tracer.spans}
    assert {"l2r.compute_cell_features", "l2r.height_fuse", "l2r.bev_fuse",
            "l2r.enhance_radar_map"} <= spans


def test_pool_scene_outputs_match_the_benchmark_reference(tmp_path):
    """Every tiny pool scene and desk scenes 0-3, run as the benchmark runs
    them, agree with ``perfbench/reference.json``: an output drift fails
    here, not only as the benchmark's incorrect-output count."""
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    for name, ids in (("tiny", range(48)), ("desk", range(4))):
        wl = workloads.WORKLOADS[name]
        state = wl.setup(tmp_path / name, 0, list(ids))
        for sid in ids:
            got = wl.collect(state, wl.frame(state, sid)).value
            assert workloads.output_matches(got, reference[name][str(sid)]), \
                f"{name} scene {sid}"


def test_benchmark_json_metrics_match_the_benchmark():
    """The static half of ``perfbench/run.py --smoke``: the end-to-end and
    per-layer metric names and units in BENCHMARK.json are the ones
    ``run.END_TO_END`` and ``tracing.layer_metric_units()`` report."""
    bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == tracing.layer_metric_units())
