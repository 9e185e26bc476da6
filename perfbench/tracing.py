"""In-memory span tracer and the wrappers that time lrbev's layers.

The wrappers are installed on module attributes from outside the package
(``lrbev.pipeline.voxelize``, ``lrbev.l2r.ball_query``,
``lrbev.heads.conv2d_forward``, ...), so the program itself is unchanged.
Each span records name, start, end, parent span and frame id. A layer's
self time is its span's duration minus the durations of its child spans.

The MLP call sites (12k calls per desk frame) are counted, not timed: a
timed span around each would cost ~10% of a desk frame.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from lrbev import cli, cloudio, grids, heads, l2r, pipeline

# Span name -> (module, attribute). Several stage functions are called by
# ``run_pipeline`` through the names ``lrbev.pipeline`` imported, so the
# wrappers go on those names.
SPANS = {
    "pipeline.run_pipeline": [(pipeline, "run_pipeline"), (cli, "run_pipeline")],
    "pipeline.random_weights": [(pipeline, "random_weights")],
    "grids.voxelize": [(pipeline, "voxelize")],
    "grids.voxel_encode": [(pipeline, "voxel_encode")],
    "grids.zstack_collapse": [(pipeline, "zstack_collapse")],
    "grids.pillarize": [(pipeline, "pillarize")],
    "grids.collapse_to_bev_grids": [(pipeline, "collapse_to_bev_grids")],
    "l2r.compute_cell_features": [(pipeline, "compute_cell_features")],
    "l2r.height_fuse": [(l2r, "height_fuse")],
    "l2r.ball_query": [(l2r, "ball_query")],
    "l2r.bev_fuse": [(l2r, "bev_fuse")],
    "l2r.bev_query": [(l2r, "bev_query")],
    "l2r.enhance_radar_map": [(pipeline, "enhance_radar_map")],
    "heads.fuse_bev_maps": [(pipeline, "fuse_bev_maps")],
    "heads.bev_encoder": [(pipeline, "bev_encoder")],
    "heads.detect_forward": [(pipeline, "detect_forward")],
    "heads.decode_detections": [(pipeline, "decode_detections")],
    "cloudio.read_cloud": [(cloudio, "read_cloud")],
    "cloudio.write_cloud": [(cloudio, "write_cloud")],
    "synth.generate_scene": [(pipeline, "generate_scene")],
    "synth.lidar_sweeps": [(pipeline, "lidar_sweeps")],
    "synth.radar_sweeps": [(pipeline, "radar_sweeps")],
}

CONV_SITES = ("enc0", "enc1", "enc2", "trunk0", "trunk1", "head1x1")

# Spans that run while the workload is set up, not per frame.
SETUP_SPANS = ("synth.generate_scene", "synth.lidar_sweeps",
               "synth.radar_sweeps", "cloudio.write_cloud")

COUNTS = {
    "grids.mlp.calls": "count", "grids.mlp.rows": "count",
    "grids.voxels": "count", "grids.points_truncated": "count",
    "grids.points_dropped": "count",
    "l2r.ball_query.calls": "count", "l2r.ball_query.points_scanned": "count",
    "l2r.ball_query.points_grouped": "count",
    "l2r.mlp.calls": "count", "l2r.mlp.rows": "count",
    "heads.decode.peaks": "count", "heads.decode.kept": "count",
    "cloudio.read_cloud.mb": "MB",
}


def layer_metric_units(layers=None) -> dict:
    """Per-layer metrics the traced run reports, name -> unit: those of
    ``layers`` (default: every layer) plus the tracing overhead."""
    units = {f"{name}.ms": "ms" for name in SPANS}
    units.update(COUNTS)
    units["l2r.segment_hit_rate"] = "ratio"
    for site in CONV_SITES:
        units[f"heads.conv.{site}.ms"] = "ms"
        units[f"heads.conv.{site}.gflop"] = "GFLOP"
        units[f"heads.conv.{site}.gflop_per_s"] = "GFLOP/s"
        units[f"heads.conv.{site}.mb"] = "MB"
    if layers is not None:
        units = {k: u for k, u in units.items() if k.split(".")[0] in layers}
    units["trace.layer_share"] = "ratio"
    units["trace.frames_per_s.untraced"] = "1/s"
    units["trace.frames_per_s.traced"] = "1/s"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Spans and counters of one run, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, frame id]
        self.counts = {}         # frame id -> {counter: value}
        self._stack = []
        self._convs = defaultdict(int)   # parent span index -> 3x3 convs seen
        self.frame = None
        self._frame_counts = None

    def set_frame(self, frame) -> None:
        self.frame = frame
        self._frame_counts = self.counts.setdefault(frame, defaultdict(float))

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.frame])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self._frame_counts[name] += value

    def conv_site(self, kernel) -> str:
        if kernel.shape[2:] == (1, 1):
            return "head1x1"
        parent = self._stack[-1] if self._stack else -1
        k = self._convs[parent]
        self._convs[parent] += 1
        parent_name = self.spans[parent][0] if parent >= 0 else ""
        return f"enc{k}" if parent_name == "heads.bev_encoder" else f"trunk{k}"

    def dump(self, path) -> None:
        doc = {"fields": ["name", "start_s", "end_s", "parent", "frame"],
               "spans": self.spans,
               "counts": [[frame, dict(c)] for frame, c in self.counts.items()]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _timed(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, out)
        return out
    return wrapper


def _counted(tracer: Tracer, prefix: str, fn, rows):
    def wrapper(*args, **kwargs):
        tracer.count(prefix + ".calls")
        tracer.count(prefix + ".rows", rows(args))
        return fn(*args, **kwargs)
    return wrapper


def _conv(tracer: Tracer, fn):
    def wrapper(m, p):
        site = tracer.conv_site(p.kernel)
        index = tracer.open(f"heads.conv.{site}")
        try:
            out = fn(m, p)
        finally:
            tracer.close(index)
        cout, cin, kh, kw = p.kernel.shape
        pixels = out.height * out.width
        tracer.count(f"heads.conv.{site}.gflop", 2.0 * cout * cin * kh * kw * pixels / 1e9)
        floats = m.data.size + p.kernel.size + p.bias.size + out.data.size
        tracer.count(f"heads.conv.{site}.mb", 8.0 * floats / 1e6)
        return out
    return wrapper


class Instrumentation:
    """Installs the wrappers on lrbev's module attributes and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def _plan(self):
        t = self.tracer
        after = {
            "grids.voxelize": self._after_voxelize,
            "l2r.ball_query": self._after_ball_query,
            "heads.decode_detections":
                lambda args, out: t.count("heads.decode.kept", len(out)),
            "cloudio.read_cloud":
                lambda args, out: t.count("cloudio.read_cloud.mb",
                                          4.0 * out.size * len(out.dtype.names) / 1e6),
        }
        for name, targets in SPANS.items():
            for module, attr in targets:
                yield module, attr, lambda fn, n=name: _timed(t, n, fn, after.get(n))
        one_row = lambda args: 1
        batch_rows = lambda args: len(args[0])
        yield grids, "mlp_forward_batch", lambda fn: _counted(t, "grids.mlp", fn, batch_rows)
        yield l2r, "mlp_forward_batch", lambda fn: _counted(t, "l2r.mlp", fn, batch_rows)
        yield l2r, "mlp_forward", lambda fn: _counted(t, "l2r.mlp", fn, one_row)
        yield heads, "conv2d_forward", lambda fn: _conv(t, fn)
        yield heads, "find_peaks", lambda fn: self._peaks(fn)

    def _after_voxelize(self, args, vs) -> None:
        self.tracer.count("grids.voxels", len(vs.occupied))
        self.tracer.count("grids.points_truncated", vs.truncated)
        self.tracer.count("grids.points_dropped", vs.dropped)

    def _after_ball_query(self, args, res) -> None:
        t = self.tracer
        t.count("l2r.ball_query.calls")
        t.count("l2r.ball_query.points_scanned", len(args[1]))
        t.count("l2r.ball_query.points_grouped", len(res))
        t.count("l2r.ball_query.hits", 1 if len(res) else 0)

    def _peaks(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.tracer.count("heads.decode.peaks", len(out))
            return out
        return wrapper

    def install(self) -> None:
        for module, attr, make in self._plan():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _self_ms(tracer: Tracer):
    """{frame id: {span name: self time in ms}} and {frame id: root span ms}."""
    child = defaultdict(float)
    for name, start, end, parent, frame in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms = defaultdict(lambda: defaultdict(float))
    root_ms = {}
    for i, (name, start, end, parent, frame) in enumerate(tracer.spans):
        self_ms[frame][name] += 1000.0 * (end - start - child[i])
        if parent < 0:
            root_ms[frame] = root_ms.get(frame, 0.0) + 1000.0 * (end - start)
    return self_ms, root_ms


def layer_metrics(tracer: Tracer, frames, setups, root: str) -> dict:
    """Median over traced frames (set-up passes for SETUP_SPANS) of every
    per-layer metric."""
    self_ms, root_ms = _self_ms(tracer)
    per_frame = defaultdict(list)
    for f in frames:
        ms = self_ms[f]
        counts = tracer.counts.get(f, {})
        for name in SPANS:
            if name not in SETUP_SPANS:
                per_frame[f"{name}.ms"].append(ms[name])
        for name in COUNTS:
            per_frame[name].append(counts.get(name, 0.0))
        calls = counts.get("l2r.ball_query.calls", 0.0)
        per_frame["l2r.segment_hit_rate"].append(
            counts.get("l2r.ball_query.hits", 0.0) / calls if calls else 0.0)
        for site in CONV_SITES:
            site_ms = ms[f"heads.conv.{site}"]
            gflop = counts.get(f"heads.conv.{site}.gflop", 0.0)
            per_frame[f"heads.conv.{site}.ms"].append(site_ms)
            per_frame[f"heads.conv.{site}.gflop"].append(gflop)
            per_frame[f"heads.conv.{site}.gflop_per_s"].append(
                gflop / (site_ms / 1000.0) if site_ms > 0 else 0.0)
            per_frame[f"heads.conv.{site}.mb"].append(
                counts.get(f"heads.conv.{site}.mb", 0.0))
        per_frame["trace.layer_share"].append(1.0 - ms[root] / root_ms[f])
    for s in setups:
        for name in SETUP_SPANS:
            per_frame[f"{name}.ms"].append(self_ms[s][name])
    return {name: statistics.median(values) for name, values in per_frame.items()}
