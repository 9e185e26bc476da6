"""The three benchmark workloads, their frames and their output checks.

``desk`` and ``tiny`` run the steps of ``lrbev run`` (read both .blrf files,
``run_pipeline``, write detections.jsonl and stats.json) through the CLI
entry point. ``paper-l2r`` runs the paper geometry through grid encoding and
LiDAR-to-radar fusion by calling the stage functions the way
``run_pipeline`` does, and stops before the 512-channel map, which does not
fit in memory at that scale.

Every workload draws its scenes from a fixed pool whose reference outputs
are stored in ``reference.json``; the workload seed picks the scenes (and,
for ``paper-l2r``, the order of the points).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lrbev import cli, cloudio, l2r, pipeline
from lrbev.config import config_for_scale
from lrbev.l2r import (ball_query_brute, bev_query_brute,
                       segment_query_points)

# Relative tolerance of the reference check; see README.md.
REFERENCE_RTOL = 1e-9
PERTURBATION = 1e-4

DETECTION_FIELDS = ("x", "y", "z", "length", "width", "height", "yaw",
                    "vx", "vy", "class_id", "score")


@dataclass
class Output:
    """What one frame produced: ``key`` hashes the exact output bytes (for
    the repeat check), ``value`` is what the reference check compares."""

    key: str
    value: dict


def digest(matrix: np.ndarray) -> dict:
    """Order-sensitive per-column sums of an (n, c) output matrix."""
    m = np.asarray(matrix, dtype=np.float64).reshape(len(matrix), -1)
    w = np.arange(1, len(m) + 1, dtype=np.float64)[:, None] / max(1, len(m))
    return {"rows": len(m), "sum": m.sum(axis=0).tolist(),
            "weighted_sum": (w * m).sum(axis=0).tolist(),
            "abs_sum": np.abs(m).sum(axis=0).tolist()}


def _close(a, b, scale) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * scale


def digest_matches(got: dict, ref: dict) -> bool:
    if got["rows"] != ref["rows"] or len(got["sum"]) != len(ref["sum"]):
        return False
    for j, scale in enumerate(ref["abs_sum"]):
        if not (_close(got["sum"][j], ref["sum"][j], scale)
                and _close(got["weighted_sum"][j], ref["weighted_sum"][j], scale)
                and _close(got["abs_sum"][j], scale, scale)):
            return False
    return True


def stats_match(got, ref) -> bool:
    """Every key the reference records agrees: exactly for integers and
    strings, within REFERENCE_RTOL for floats."""
    if isinstance(ref, dict):
        return (isinstance(got, dict)
                and all(k in got and stats_match(got[k], v) for k, v in ref.items()))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(stats_match(g, r) for g, r in zip(got, ref)))
    if isinstance(ref, float):
        return isinstance(got, (int, float)) and _close(got, ref, max(1.0, abs(ref)))
    return got == ref


def output_matches(got: dict, ref: dict) -> bool:
    return (digest_matches(got["digest"], ref["digest"])
            and got.get("cells") == ref.get("cells")
            and stats_match(got["stats"], ref["stats"]))


def _perturb(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=np.float64)
    flat = out.reshape(-1)
    flat[0] += PERTURBATION * (1.0 + abs(flat[0]))
    return out


class CliRun:
    """``lrbev run`` at one built-in scale, on clouds written by set-up."""

    layers = ("pipeline", "grids", "l2r", "heads", "cloudio", "synth")

    def __init__(self, name: str, scale: str, pool: int, scenes: int):
        self.name, self.scale, self.pool, self.scenes = name, scale, pool, scenes

    def scene_ids(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 1])
        return [int(s) for s in rng.choice(self.pool, self.scenes, replace=False)]

    def setup(self, workdir: Path, seed: int, ids=None) -> dict:
        """Generate and write the scene set (by default the seed's), then run
        one warm-up frame."""
        cfg = config_for_scale(self.scale)
        ids = self.scene_ids(seed) if ids is None else ids
        for sid in ids:
            _, lidar, radar = pipeline.generate_clouds(cfg, sid)
            d = workdir / f"scene{sid}"
            d.mkdir(parents=True, exist_ok=True)
            cloudio.write_cloud(lidar, d / "lidar.blrf")
            cloudio.write_cloud(radar, d / "radar.blrf")
        state = {"workdir": workdir, "scenes": ids, "out": workdir / "out"}
        self.frame(state, ids[0])
        return state

    def frame(self, state: dict, sid: int) -> None:
        argv = ["run", "--scale", self.scale, "--in", str(state["workdir"] / f"scene{sid}"),
                "--out", str(state["out"])]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"lrbev run exited with code {code}")

    def collect(self, state: dict, handle, perturb: bool = False) -> Output:
        det_text = (state["out"] / "detections.jsonl").read_text()
        stats_text = (state["out"] / "stats.json").read_text()
        rows = [json.loads(line) for line in det_text.splitlines() if line]
        matrix = np.array([[r[f] for f in DETECTION_FIELDS] for r in rows],
                          dtype=np.float64).reshape(-1, len(DETECTION_FIELDS))
        key = det_text + stats_text
        if perturb:
            matrix = _perturb(matrix)
            key += "perturbed"
        return Output(hashlib.sha256(key.encode()).hexdigest(),
                      {"digest": digest(matrix), "stats": json.loads(stats_text)})

    def spot_check(self, state: dict, seed: int) -> list:
        return []


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RuntimeError(message)


class PaperL2R:
    """Paper geometry through grid encoding and L2R fusion only."""

    name = "paper-l2r"
    scale = "paper"
    pool = 1
    layers = ("pipeline", "grids", "l2r", "synth")
    WARMUP_STRIDE = 64

    def setup(self, workdir: Path, seed: int, ids=None) -> dict:
        """Generate the pool scene, permute its points by the seed, and warm
        up on every 64th LiDAR point."""
        cfg = config_for_scale(self.scale)
        _, lidar, radar = pipeline.generate_clouds(cfg, 0)
        rng = np.random.default_rng([seed, 2])
        state = {"cfg": cfg, "scenes": [0],
                 "lidar": lidar[rng.permutation(len(lidar))],
                 "radar": radar[rng.permutation(len(radar))]}
        warm = dict(state, lidar=state["lidar"][::self.WARMUP_STRIDE])
        self.frame(warm, 0)
        return state

    def frame(self, state: dict, sid: int):
        """The first two stages of ``run_pipeline`` and every check it makes
        on them."""
        P = pipeline
        cfg, lidar, radar = state["cfg"], state["lidar"], state["radar"]
        cfg.validate()
        weights = P.random_weights(cfg, cfg.seeds.weights)
        voxels = P.voxelize(lidar, cfg.lidar_grid, cfg.max_points_per_voxel)
        P.voxel_encode(voxels, weights.voxel_mlp)
        m_l = P.zstack_collapse_safe(voxels, weights.zstack_mlp, cfg)
        pillars = P.pillarize(radar, cfg.radar_grid, weights.pillar_mlp)
        m_r = pillars.map
        lidar_grids = P.collapse_to_bev_grids(voxels, cfg.radar_cell_size)
        _require(m_r.channels == 32, f"radar map has {m_r.channels} channels")
        _require(m_l.shape == (cfg.channels.lidar_channels, cfg.lidar_grid.ny,
                               cfg.lidar_grid.nx), f"LiDAR map shape {m_l.shape}")
        stats = {"grid_encoding": {
            "occupied_voxels": len(voxels.occupied),
            "dropped_lidar_points": voxels.dropped,
            "truncated_lidar_points": voxels.truncated,
            "ml_shape": list(m_l.shape),
            "radar_pillars": len(pillars.occupied),
            "dropped_radar_points": pillars.dropped,
            "mr_shape": list(m_r.shape),
            "coarse_lidar_cells": len(lidar_grids)}}
        cfg_h = P.height_fusion_config(cfg, weights)
        cfg_b = P.bev_fusion_config(cfg, weights)
        features, fstats = P.compute_cell_features(pillars.occupied, cfg_h, cfg_b,
                                                   lidar, lidar_grids, cfg.radar_grid)
        enhanced = P.enhance_radar_map(m_r, pillars.occupied, features)
        _require(enhanced.channels == 96, f"enhanced map has {enhanced.channels} channels")
        _require(len(features) == len(pillars.occupied),
                 f"{len(features)} pseudo features for {len(pillars.occupied)} pillars")
        nonzero = int((np.abs(enhanced.data) > 0).any(axis=0).sum())
        _require(nonzero == len(pillars.occupied),
                 f"{nonzero} non-zero enhanced cells for {len(pillars.occupied)} pillars")
        stats["l2r_fusion"] = {
            "pseudo_features": len(features),
            "enhanced_shape": list(enhanced.shape),
            "enhanced_nonzero_cells": nonzero,
            "ball_query_hit_rate": fstats["ball_query_hit_rate"],
            "bev_query_hit_rate": fstats["bev_query_hit_rate"]}
        state["last"] = (cfg_h, cfg_b, pillars.occupied, lidar_grids)
        return enhanced, stats

    def collect(self, state: dict, handle, perturb: bool = False) -> Output:
        enhanced, stats = handle
        data = enhanced.data
        cells = np.flatnonzero((np.abs(data) > 0).any(axis=0))
        matrix = data.reshape(data.shape[0], -1)[:, cells].T
        if perturb:
            matrix = _perturb(matrix)
        h = hashlib.sha256(np.ascontiguousarray(matrix).tobytes())
        h.update(cells.tobytes())
        h.update(json.dumps(stats, sort_keys=True).encode())
        return Output(h.hexdigest(), {"digest": digest(matrix),
                                      "cells": cells.tolist(), "stats": stats})

    def spot_check(self, state: dict, seed: int) -> list:
        """Compare a few ball and BEV queries of the last frame with the
        brute-force twins, on membership and order."""
        cfg_h, cfg_b, occupied, lidar_grids = state["last"]
        lidar = state["lidar"]
        xyz = np.stack([lidar["x"], lidar["y"], lidar["z"]], axis=1)
        cells = sorted(occupied)
        rng = np.random.default_rng([seed, 3])
        problems = []
        for c in rng.choice(len(cells), 2, replace=False):
            cell = cells[int(c)]
            q = segment_query_points(cell, cfg_h, state["cfg"].radar_grid)[
                int(rng.integers(cfg_h.num_segments))]
            args = ((q.x, q.y, q.z), xyz, cfg_h.ball_radius, cfg_h.max_group)
            if not _same_query(l2r.ball_query(*args), ball_query_brute(*args)):
                problems.append(f"ball_query at cell {cell} segment {q.segment}")
        for c in rng.choice(len(cells), 3, replace=False):
            cell = cells[int(c)]
            if not _same_query(l2r.bev_query(cell, lidar_grids, cfg_b),
                               bev_query_brute(cell, lidar_grids, cfg_b)):
                problems.append(f"bev_query at cell {cell}")
        return problems


def _same_query(a, b) -> bool:
    return (np.array_equal(a.indices, b.indices)
            and np.array_equal(a.distances, b.distances))


def _guard(name):
    def refuse(*args, **kwargs):
        raise RuntimeError(f"paper-l2r must not call {name}: the fused map "
                           "does not fit in memory at paper scale")
    return refuse


def guard_memory() -> None:
    """Make the dense R2L stages fail loudly if the paper workload reaches them."""
    for name in ("fuse_bev_maps", "bev_encoder"):
        setattr(pipeline, name, _guard(name))


# Each run of desk and tiny draws three quarters of its pool, so the seed
# changes the inputs while the set's cost stays close to the pool's.
# paper-l2r has one scene whose point order the seed permutes; a frame takes
# ~25 s, so it is not in BENCHMARK.json and is run by hand (README.md).
WORKLOADS = {
    "desk": CliRun("desk", "desk", pool=32, scenes=24),
    "tiny": CliRun("tiny", "tiny", pool=48, scenes=36),
    "paper-l2r": PaperL2R(),
}
