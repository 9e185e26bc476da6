"""The benchmark under ``perfbench/`` drives lrbev through module attributes
and stage functions; this runs its ``paper-l2r`` frame, output digest and
spot check on a tiny scene with the per-layer tracer installed, so a change
that breaks a name the benchmark reads fails here rather than only in the
benchmark's own smoke run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

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
