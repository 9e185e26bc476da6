"""Property suite: every brute-force, permutation and gradient oracle the
modules declare, runnable as one report.

Each property draws its own seeded instances; ``oracle_suite`` runs all of
them (sorted by name) and reports pass/fail with counts.

To add a property, write its check for one seed and decorate it with
``per_seed(name, stream, cap)``: the check takes the seed ``s``, a fresh
``np.random.default_rng([stream, s])`` (None without a stream) and the
fault, and returns None, one failure message or a list of them. A property
that does not count seeds decorates a whole ``check(seeds, fault=None)``
returning a ``PropertyResult`` with ``registered(name)``. Either way it
lands in ``PROPERTIES`` where it is defined, and a name registered twice
fails at import.

Fault names inject deliberate defects so the negative controls stay honest:

* ``ball-radius-r``  - height queries use the full cell size as ball radius,
  breaking the non-overlap guarantee;
* ``offset-bias``    - decode sees offsets shifted by a meter, breaking the
  render/decode round trip.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .cloud import Pose, accumulate_sweeps
from .config import desk_config, tiny_config
from .errors import ConfigError
from .evalmetrics import eval_detections
from .faults import FAULTS
from .grids import (BevColumns, GridSpec, collapse_to_bev_grids,
                    pillarize, voxel_encode, voxelize, zstack_collapse)
from .heads import (ENCODER_CHANNELS, TILE_ROWS, DetectionBox, HeadOutputs,
                    HeadParams, bev_encoder, compute_loss, decode_detections,
                    detect_forward, fuse_bev_maps, outputs_from_targets,
                    r2l_forward, render_targets)
from .l2r import (BevFusionConfig, HeightFusionConfig, ball_query,
                  ball_query_brute, bev_query, bev_query_brute,
                  compute_cell_features, height_fuse, num_height_segments,
                  query_balls_disjoint, segment_heights, segment_query_points)
from .nn import (Conv2dParams, FeatureMap, MlpParams, _tap_conv, band_rows,
                 conv2d_backward, conv2d_forward, finite_diff_check,
                 max_reduce, max_reduce_backward, mlp_backward, mlp_forward,
                 mlp_forward_batch, sigmoid)
from .pipeline import detections_to_jsonl, generate_clouds, run_pipeline
from .synth import (DEFAULT_CLASSES, GroundTruthBox, SceneSpec, generate_scene,
                    lidar_sample, radar_sample, wrap_angle)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    checked: int
    failures: list

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{status}  {self.name}  ({self.checked} checks)"
        if self.failures:
            msg += f"  first failure: {self.failures[0]}"
        return msg


# Property name -> check(seeds, fault=None) -> PropertyResult.
PROPERTIES: dict = {}


def registered(name: str):
    """Registers the decorated check in ``PROPERTIES`` under ``name``."""
    def register(check):
        if name in PROPERTIES:
            raise ValueError(f"property {name!r} is registered twice")
        PROPERTIES[name] = check
        return check
    return register


def per_seed(name: str, stream: int | None = None, cap: float = math.inf):
    """Registers a property from its check of one seed, ``body(s, rng,
    fault)``, run for seeds 0 to ``min(seeds, cap) - 1`` in order, each
    with a fresh ``default_rng([stream, s])`` (None without a stream). It
    returns None, one failure message or a list of them; each is reported
    as ``seed {s}: {message}``, and ``checked`` counts the seeds run."""
    def wrap(body):
        @functools.wraps(body)
        def check(seeds: int, fault=None) -> PropertyResult:
            n = min(seeds, cap)
            failures = []
            for s in range(n):
                rng = None if stream is None else np.random.default_rng([stream, s])
                found = body(s, rng, fault) or []
                found = [found] if isinstance(found, str) else found
                failures += [f"seed {s}: {message}" for message in found]
            return PropertyResult(name, not failures, n, failures)
        return registered(name)(check)
    return wrap


def _mlps(rng, dims):
    return MlpParams.init(dims, rng)


def _height_cfg(rng, cell_size=1.0, pillar_height=8.0, z_min=-5.0,
                ball_radius=0.0, feature_dim=8):
    m = num_height_segments(pillar_height, cell_size)
    return HeightFusionConfig(
        cell_size=cell_size, pillar_height=pillar_height, z_min=z_min,
        point_mlp=_mlps(rng, (5, 8, feature_dim)),
        merge_mlp=_mlps(rng, (m * feature_dim, 16, feature_dim)),
        ball_radius=ball_radius)


# --------------------------------------------------------------------------
# tensor-core properties
# --------------------------------------------------------------------------

@per_seed("nn.max-permutation", stream=3)
def check_max_permutation(s, rng, fault):
    rows = rng.normal(size=(int(rng.integers(1, 12)), int(rng.integers(1, 9))))
    base = max_reduce(rows)
    for _ in range(5):
        perm = rng.permutation(len(rows))
        if not np.array_equal(max_reduce(rows[perm]), base):
            return "permutation changed the max"


@per_seed("nn.conv-identity", stream=4)
def check_conv_identity(s, rng, fault):
    c, h, w = int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(2, 9))
    m = FeatureMap(rng.normal(size=(c, h, w)))
    kernel = np.zeros((c, c, 1, 1))
    kernel[np.arange(c), np.arange(c), 0, 0] = 1.0
    out = conv2d_forward(m, Conv2dParams(kernel, np.zeros(c)))
    if not np.array_equal(out.data, m.data):
        return "identity conv changed the map"


def conv2d_brute(data: np.ndarray, p: Conv2dParams) -> np.ndarray:
    """Direct cross-correlation: each output pixel is the sum of its
    kernel-weighted receptive field in the zero-padded input, plus bias."""
    kh, kw = p.kernel.shape[2:]
    s = p.stride
    padded = np.pad(data, ((0, 0), (p.padding, p.padding), (p.padding, p.padding)))
    oh, ow = p.out_hw(*data.shape[1:])
    out = np.empty((p.kernel.shape[0], oh, ow))
    for y in range(oh):
        for x in range(ow):
            field = padded[:, y * s:y * s + kh, x * s:x * s + kw]
            out[:, y, x] = (p.kernel * field).sum(axis=(1, 2, 3)) + p.bias
    return out


@per_seed("nn.conv-oracle", stream=33)
def check_conv_oracle(s, rng, fault):
    """The two conv kernels against ``conv2d_brute``. Even seeds draw a
    stride-1, size-keeping conv with few output taps and at least 16 input
    channels and run ``nn._tap_conv``, which sums per-tap GEMMs; odd seeds
    draw any kernel, padding and stride and run ``conv2d_forward``, which
    is im2col. Widths are never a multiple of 8, so most tap GEMMs run
    padded with zero columns."""
    k = int(rng.choice([1, 3, 5]))
    if s % 2 == 0:
        cin, stride, pad = int(rng.integers(16, 40)), 1, (k - 1) // 2
        cout = int(rng.integers(1, 256 // (k * k) + 1))
    else:
        cin, stride = int(rng.integers(1, 24)), int(rng.choice([1, 2]))
        pad, cout = int(rng.integers(0, 3)), int(rng.integers(1, 9))
    h = int(rng.integers(k, 14))
    w = int(rng.choice([n for n in range(k, 20) if n % 8]))
    m = FeatureMap(rng.normal(size=(cin, h, w)))
    p = Conv2dParams.init(cin, cout, k, rng, stride=stride, padding=pad)
    got = _tap_conv(m.data, p) if s % 2 == 0 else conv2d_forward(m, p).data
    if not _rel_close(got, conv2d_brute(m.data, p)):
        return (f"{cout}x{cin}x{k}x{k} conv, stride {stride}, padding {pad}, "
                f"on {h}x{w} differs")


def _mlp_instance_away_from_kinks(rng, margin=1e-2):
    """Random MLP + input whose pre-activations all clear the rectifier kink."""
    for _ in range(200):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(1, 4)))
        p = _mlps(rng, dims)
        x = rng.normal(size=dims[0])
        a = x
        ok = True
        for k, (w, b) in enumerate(p.layers):
            z = w @ a + b
            if k < len(p.layers) - 1:
                if np.abs(z).min() < margin:
                    ok = False
                    break
                a = np.maximum(z, 0.0)
        if ok:
            return p, x
    raise RuntimeError("could not sample an MLP instance away from kinks")


@per_seed("nn.grad-mlp", stream=5)
def check_grad_mlp(s, rng, fault):
    p, x = _mlp_instance_away_from_kinks(rng)
    c = rng.normal(size=p.out_dim)
    theta = p.to_vector()

    def f(v):
        return float(c @ mlp_forward(x, p.from_vector(v)))

    def grad(v):
        _, gl = mlp_backward(x, p.from_vector(v), c)
        return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in gl])

    rep = finite_diff_check(f, grad, theta)
    if not rep.passed:
        return f"rel diff {rep.max_rel_diff:.2e}"


@per_seed("nn.grad-conv", stream=6)
def check_grad_conv(s, rng, fault):
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    m = FeatureMap(rng.normal(size=(cin, 5, 6)))
    p = Conv2dParams.init(cin, cout, 3, rng, padding=1)
    c = rng.normal(size=(cout, 5, 6))
    theta = p.to_vector()

    def f(v):
        return float((c * conv2d_forward(m, p.from_vector(v)).data).sum())

    def grad(v):
        _, gk, gb = conv2d_backward(m, p.from_vector(v), c)
        return np.concatenate([gk.ravel(), gb])

    rep = finite_diff_check(f, grad, theta)
    if not rep.passed:
        return f"rel diff {rep.max_rel_diff:.2e}"


@per_seed("nn.grad-max", stream=7)
def check_grad_max(s, rng, fault):
    n, d = int(rng.integers(2, 8)), int(rng.integers(1, 6))
    rows = rng.normal(size=(n, d))
    gaps = np.sort(rows, axis=0)
    if n > 1 and (gaps[-1] - gaps[-2]).min() < 1e-2:
        return   # kink-adjacent sample, skip per the check contract
    c = rng.normal(size=d)
    theta = rows.ravel()

    def f(v):
        return float(c @ max_reduce(v.reshape(n, d)))

    def grad(v):
        return max_reduce_backward(v.reshape(n, d), c).ravel()

    rep = finite_diff_check(f, grad, theta)
    if not rep.passed:
        return f"rel diff {rep.max_rel_diff:.2e}"


# --------------------------------------------------------------------------
# scene-io properties
# --------------------------------------------------------------------------

@per_seed("scene.determinism")
def check_scene_determinism(s, rng, fault):
    spec = SceneSpec(extent=12.0, num_objects=4)
    a = generate_scene(spec, s)
    b = generate_scene(spec, s)
    if a != b:
        return "scenes differ"
    la = lidar_sample(a, 20.0, 0.02, s, ground_density=0.5)
    lb = lidar_sample(b, 20.0, 0.02, s, ground_density=0.5)
    ra = radar_sample(a, (1, 3), s)
    rb = radar_sample(b, (1, 3), s)
    if not (np.array_equal(la, lb) and np.array_equal(ra, rb)):
        return "clouds differ"


@per_seed("scene.doppler")
def check_doppler(s, rng, fault):
    scene = generate_scene(SceneSpec(extent=12.0, num_objects=5,
                                     stationary_fraction=0.2), s)
    for rec in radar_sample(scene, (1, 3), s):
        norm = math.hypot(rec["x"], rec["y"])
        ux, uy = rec["x"] / norm, rec["y"] / norm
        cross = rec["vx"] * uy - rec["vy"] * ux
        if abs(cross) >= 1e-9:
            return f"|cross| = {abs(cross):.2e}"


@per_seed("scene.accumulate")
def check_accumulate(s, rng, fault):
    scene = generate_scene(SceneSpec(extent=12.0, num_objects=3), s)
    sweeps = [lidar_sample(scene, 5.0, 0.0, [s, k], ground_density=0.0)
              for k in range(3)]
    poses = [Pose(), Pose(tx=1.0), Pose(tx=0.0, ty=-2.0)]
    merged = accumulate_sweeps(sweeps, poses)
    if len(merged) != sum(len(c) for c in sweeps):
        return "count not conserved"
    n0 = len(sweeps[0])
    n1 = len(sweeps[1])
    if not np.array_equal(merged[:n0], sweeps[0]):
        return "identity pose modified points"
    if n1 and not np.array_equal(merged[n0:n0 + n1]["x"], sweeps[1]["x"] + 1.0):
        return "translation not exact"


# --------------------------------------------------------------------------
# grid-encoding properties
# --------------------------------------------------------------------------

def _random_grid(rng) -> GridSpec:
    cell = float(rng.choice([0.25, 0.4, 0.5]))
    n = int(rng.integers(4, 12))
    nz = int(rng.integers(1, 5))
    return GridSpec(origin=(-cell * n / 2, -cell * n / 2, -2.0),
                    cell=(cell, cell, 1.0), counts=(n, n, nz))


@registered("grids.index-oracle")
def check_index_oracle(seeds: int, fault=None) -> PropertyResult:
    failures = []
    checked = 0
    for s in range(seeds):
        rng = np.random.default_rng([8, s])
        spec = _random_grid(rng)
        n = 200
        pts = np.zeros(n, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                                 ("intensity", "<f8"), ("t", "<f8")])
        span = spec.cell[0] * spec.nx
        pts["x"] = rng.uniform(spec.origin[0] - 0.2 * span,
                               spec.origin[0] + 1.2 * span, n)
        pts["y"] = rng.uniform(spec.origin[1] - 0.2 * span,
                               spec.origin[1] + 1.2 * span, n)
        pts["z"] = rng.uniform(spec.origin[2] - 1.0,
                               spec.origin[2] + spec.cell[2] * spec.nz + 1.0, n)
        # exact boundary hits must land lower-inclusive
        pts["x"][:3] = spec.origin[0]
        pts["y"][:3] = spec.origin[1]
        pts["z"][:3] = spec.origin[2]
        vs = voxelize(pts, spec, max_points_per_voxel=10**9)
        member_of = {}
        for key, members in vs.voxel_members():
            for i in members.tolist():
                member_of[i] = key
        dropped = 0
        for i in range(n):
            ix = math.floor((pts["x"][i] - spec.origin[0]) / spec.cell[0])
            iy = math.floor((pts["y"][i] - spec.origin[1]) / spec.cell[1])
            iz = math.floor((pts["z"][i] - spec.origin[2]) / spec.cell[2])
            inside = (0 <= ix < spec.nx and 0 <= iy < spec.ny and 0 <= iz < spec.nz)
            checked += 1
            if inside:
                if member_of.get(i) != (ix, iy, iz):
                    failures.append(f"seed {s}: point {i} landed in "
                                    f"{member_of.get(i)} not {(ix, iy, iz)}")
            else:
                dropped += 1
                if i in member_of:
                    failures.append(f"seed {s}: out-of-range point {i} kept")
        if dropped != vs.dropped:
            failures.append(f"seed {s}: drop count {vs.dropped} != {dropped}")
    return PropertyResult("grids.index-oracle", not failures, checked, failures)


@per_seed("grids.permutation", stream=9)
def check_grid_permutation(s, rng, fault):
    spec = SceneSpec(extent=8.0, num_objects=2, min_range=1.5,
                     classes=DEFAULT_CLASSES)
    grid = GridSpec(origin=(-8.0, -8.0, -5.0), cell=(0.5, 0.5, 2.0),
                    counts=(32, 32, 4))
    pillar_grid = GridSpec(origin=(-8.0, -8.0, -5.0), cell=(2.0, 2.0, 8.0),
                           counts=(8, 8, 1))
    scene = generate_scene(spec, s)
    cloud = lidar_sample(scene, 8.0, 0.02, s, ground_density=0.2)
    radar = radar_sample(scene, (1, 3), s)
    mlp = _mlps(rng, (8, 8, 6))
    pmlp = _mlps(rng, (9, 8, 6))
    base = voxel_encode(voxelize(cloud, grid, 10**9), mlp)
    base_pillars = pillarize(radar, pillar_grid, pmlp).map
    for _ in range(3):
        sh = rng.permutation(len(cloud))
        vs = voxel_encode(voxelize(cloud[sh], grid, 10**9), mlp)
        if not (np.array_equal(vs.occupied, base.occupied)
                and np.array_equal(vs.features, base.features)):
            return "voxel features changed under shuffle"
        shr = rng.permutation(len(radar))
        pm = pillarize(radar[shr], pillar_grid, pmlp).map
        if not np.array_equal(pm.data, base_pillars.data):
            return "pillar map changed under shuffle"


# --------------------------------------------------------------------------
# brute-force twins of the grid core: one dict entry and one MLP call per key
# --------------------------------------------------------------------------

def voxelize_brute(points: np.ndarray, spec: GridSpec,
                   max_points_per_voxel: int = 32):
    """Per-point twin of ``voxelize``: ({(ix, iy, iz): [point indices in
    input order]}, dropped, truncated)."""
    occupied: dict = {}
    if len(points) == 0:
        return occupied, 0, 0
    z = points["z"] if "z" in points.dtype.names else np.zeros(len(points))
    inside, idx = spec.cell_index((points["x"], points["y"], z))
    truncated = 0
    for i, key in zip(inside.tolist(), idx.tolist()):
        members = occupied.setdefault(tuple(key), [])
        if len(members) < max_points_per_voxel:
            members.append(i)
        else:
            truncated += 1
    return occupied, int(len(points) - len(inside)), truncated


def voxel_encode_brute(points: np.ndarray, spec: GridSpec, occupied: dict,
                       p: MlpParams) -> dict:
    """Per-voxel twin of ``voxel_encode``: {key: max over members of the
    point MLP}."""
    out = {}
    for key in sorted(occupied):
        pts = points[occupied[key]]
        cx, cy, cz = spec.voxel_center(*key)
        feats = np.stack([pts["x"], pts["y"], pts["z"], pts["intensity"], pts["t"],
                          pts["x"] - cx, pts["y"] - cy, pts["z"] - cz], axis=1)
        out[key] = mlp_forward_batch(feats, p).max(axis=0)
    return out


def zstack_collapse_brute(spec: GridSpec, features: dict, p: MlpParams) -> tuple:
    """Per-column twin of ``zstack_collapse``: the ascending row-major ids
    of the occupied columns and their (K, C) features."""
    columns = sorted({(k[1], k[0]) for k in features})
    out = np.zeros((len(columns), p.out_dim))
    for row, (iy, ix) in enumerate(columns):
        stack = np.zeros(p.in_dim)
        for iz in range(spec.nz):
            feat = features.get((ix, iy, iz))
            if feat is not None:
                stack[iz * len(feat):(iz + 1) * len(feat)] = feat
        out[row] = mlp_forward_batch(stack[None, :], p)[0]
    ids = np.array([iy * spec.nx + ix for iy, ix in columns], dtype=np.int64)
    return ids, out


def collapse_to_bev_grids_brute(spec: GridSpec, features: dict,
                                coarse_cell: float) -> dict:
    """Per-voxel twin of ``collapse_to_bev_grids`` for commensurate cells."""
    rx = int(round(coarse_cell / spec.cell[0]))
    ry = int(round(coarse_cell / spec.cell[1]))
    out: dict = {}
    for (ix, iy, _iz), feat in sorted(features.items()):
        key = (ix // rx, iy // ry)
        prev = out.get(key)
        out[key] = feat.copy() if prev is None else np.maximum(prev, feat)
    return out


# Batched GEMMs may round differently from the per-key calls in the last bits.
GRID_RTOL = 1e-12


def _rel_close(got, want) -> bool:
    """Same shape and max |got - want| <= GRID_RTOL * max |want|."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape
            and np.abs(got - want).max(initial=0.0)
            <= GRID_RTOL * np.abs(want).max(initial=0.0))


def _segment_cloud(rng, spec: GridSpec) -> np.ndarray:
    """Uniform points around the grid plus tight clusters and exact
    duplicates, so some voxels overflow any small per-voxel cap."""
    span = np.asarray(spec.cell) * np.asarray(spec.counts)
    lo = np.asarray(spec.origin)
    n_uniform, n_clusters = int(rng.integers(0, 200)), int(rng.integers(0, 5))
    xyz = [rng.uniform(lo - 0.1 * span, lo + 1.1 * span, size=(n_uniform, 3))]
    for _ in range(n_clusters):
        center = rng.uniform(lo, lo + span)
        xyz.append(center + rng.uniform(-1e-3, 1e-3, size=(int(rng.integers(2, 40)), 3)))
    xyz = np.concatenate(xyz)
    pts = np.zeros(len(xyz), dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                                    ("intensity", "<f8"), ("t", "<f8")])
    pts["x"], pts["y"], pts["z"] = xyz.T
    pts["intensity"] = rng.uniform(0.0, 1.0, len(pts))
    pts["t"] = rng.choice([0.0, -0.05], len(pts))
    if len(pts):
        dup = rng.integers(0, len(pts), size=int(rng.integers(0, 20)))
        pts = np.concatenate([pts, pts[dup]])
    return pts[rng.permutation(len(pts))]


@per_seed("grids.segment-oracle", stream=20)
def check_segment_oracle(s, rng, fault):
    """Array grid core against the per-key twins: voxel keys, member sets,
    drop and truncation counts, z-stack column ids and coarse keys agree
    exactly; features agree within GRID_RTOL of their largest magnitude."""
    spec = _random_grid(rng)
    pts = _segment_cloud(rng, spec)
    limit = int(rng.integers(1, 6)) if s % 2 == 0 else 10**9
    fdim = int(rng.integers(1, 7))
    vmlp = _mlps(rng, (8, int(rng.integers(1, 10)), fdim))
    zmlp = _mlps(rng, (fdim * spec.nz, int(rng.integers(1, 10)),
                       int(rng.integers(1, 6))))
    coarse_cell = spec.cell[0] * int(rng.integers(1, 4))

    vs = voxel_encode(voxelize(pts, spec, limit), vmlp)
    occupied, dropped, truncated = voxelize_brute(pts, spec, limit)
    groups = list(vs.voxel_members())
    # voxelize order: row-major columns, z fastest
    if [k for k, _ in groups] != sorted(occupied, key=lambda k: (k[1], k[0], k[2])):
        return "voxel keys differ"
    if any(sorted(m.tolist()) != sorted(occupied[k]) for k, m in groups):
        return "voxel member sets differ"
    if (vs.dropped, vs.truncated) != (dropped, truncated):
        return (f"dropped/truncated {vs.dropped}/{vs.truncated} "
                f"!= {dropped}/{truncated}")
    feats = voxel_encode_brute(pts, spec, occupied, vmlp)
    want = np.array([feats[k] for k, _ in groups]).reshape(len(groups), fdim)
    if not _rel_close(vs.features, want):
        return "voxel features differ"
    columns = zstack_collapse(vs, zmlp)
    ids, block = zstack_collapse_brute(spec, feats, zmlp)
    if not np.array_equal(columns.ids, ids):
        return "z-stack column ids differ"
    if not _rel_close(columns.features, block):
        return "z-stack column features differ"
    coarse = collapse_to_bev_grids(vs, coarse_cell)
    coarse_brute = collapse_to_bev_grids_brute(spec, feats, coarse_cell)
    keys = sorted(coarse_brute, key=lambda k: (k[1], k[0]))   # row-major
    if list(coarse) != keys:
        return "coarse keys differ"
    if keys and not _rel_close(coarse.features,
                               [coarse_brute[k] for k in keys]):
        return "coarse features differ"


@per_seed("grids.sparsity", stream=10)
def check_grid_sparsity(s, rng, fault):
    pillar_grid = GridSpec(origin=(-8.0, -8.0, -5.0), cell=(1.0, 1.0, 8.0),
                           counts=(16, 16, 1))
    scene = generate_scene(SceneSpec(extent=8.0, num_objects=3, min_range=1.5), s)
    radar = radar_sample(scene, (1, 3), s)
    pm = pillarize(radar, pillar_grid, _mlps(rng, (9, 8, 6)))
    nonzero = int((np.abs(pm.map.data) > 0).any(axis=0).sum())
    if nonzero != len(pm.occupied):
        return f"{nonzero} non-zero cells for {len(pm.occupied)} pillars"


# --------------------------------------------------------------------------
# l2r-fusion properties
# --------------------------------------------------------------------------

@registered("l2r.segment-heights")
def check_segment_heights(seeds: int, fault=None) -> PropertyResult:
    failures = []
    checked = 0
    grid = GridSpec(origin=(-6.0, -6.0, -5.0), cell=(0.6, 0.6, 8.0), counts=(20, 20, 1))
    for s in range(seeds):
        rng = np.random.default_rng([11, s])
        z_min = float(rng.uniform(-6.0, 0.0))
        r = float(rng.uniform(0.2, 2.0))
        h = float(rng.uniform(2.0 * r, 12.0))
        cfg = _height_cfg(rng, cell_size=r, pillar_height=h, z_min=z_min)
        pts = segment_query_points((3, 4), cfg, grid)
        for q in pts:
            checked += 1
            if q.z != z_min + r * (2 * q.segment - 1):
                failures.append(f"seed {s}: segment {q.segment} off")
    return PropertyResult("l2r.segment-heights", not failures, checked, failures)


def _query_scene(rng, n_points):
    pts = rng.uniform(-3.0, 3.0, size=(n_points, 3))
    return pts


@per_seed("l2r.ball-query-oracle", stream=12)
def check_ball_query_oracle(s, rng, fault):
    pts = _query_scene(rng, int(rng.integers(10, 600)))
    for _ in range(3):
        q = rng.uniform(-2.0, 2.0, size=3)
        radius = float(rng.uniform(0.1, 1.0))
        k = int(rng.integers(1, 20))
        fast = ball_query(q, pts, radius, k)
        brute = ball_query_brute(q, pts, radius, k)
        if not (np.array_equal(fast.indices, brute.indices)
                and np.array_equal(fast.distances, brute.distances)
                and fast.capped == brute.capped):
            return "ball query mismatch"


@per_seed("l2r.bev-query-oracle", stream=13)
def check_bev_query_oracle(s, rng, fault):
    n = int(rng.integers(8, 40))
    occupancy = {}
    for _ in range(int(rng.integers(1, n * 2))):
        occupancy[(int(rng.integers(0, n)), int(rng.integers(0, n)))] = \
            rng.normal(size=4)
    mode = "window" if rng.uniform() < 0.5 else "scalar"
    cfg = BevFusionConfig(grid_mlp=_mlps(rng, (6, 8, 4)),
                          window=(int(rng.integers(0, 4)), int(rng.integers(0, 4))),
                          max_group=int(rng.integers(1, 10)),
                          distance_mode=mode)
    for _ in range(3):
        cell = (int(rng.integers(0, n)), int(rng.integers(0, n)))
        fast = bev_query(cell, occupancy, cfg)
        brute = bev_query_brute(cell, occupancy, cfg)
        if not (np.array_equal(fast.indices, brute.indices)
                and np.array_equal(fast.distances, brute.distances)
                and fast.capped == brute.capped):
            return f"bev query mismatch at {cell}"


@registered("l2r.non-overlap")
def check_non_overlap(seeds: int, fault=None) -> PropertyResult:
    """Consecutive query balls must be pairwise disjoint for every configured
    geometry when the radius is half the cell size."""
    failures = []
    checked = 0
    geometries = [(8.0, 1.0), (8.0, 0.6), (8.0, 2.0), (7.0, 0.32)]
    rng = np.random.default_rng(14)
    for s in range(seeds):
        h = float(rng.uniform(2.0, 12.0))
        r = float(rng.uniform(0.2, 2.0))
        geometries.append((h, r))
    for h, r in geometries:
        radius = r if fault == "ball-radius-r" else 0.0
        cfg = _height_cfg(np.random.default_rng(15), cell_size=r, pillar_height=h,
                          ball_radius=radius)
        checked += 1
        if not query_balls_disjoint(cfg):
            failures.append(f"(h={h:.3g}, r={r:.3g}): query balls touch or overlap")
    return PropertyResult("l2r.non-overlap", not failures, checked, failures)


@per_seed("l2r.query-locality", stream=16)
def check_query_locality(s, rng, fault):
    """Perturbing a point that stays outside every query ball leaves the
    height feature bit-identical."""
    grid = GridSpec(origin=(-6.0, -6.0, -5.0), cell=(1.0, 1.0, 8.0), counts=(12, 12, 1))
    cfg = _height_cfg(rng, cell_size=1.0)
    n = 60
    cloud = np.zeros(n, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                               ("intensity", "<f8"), ("t", "<f8")])
    cloud["x"] = rng.uniform(-5.0, 5.0, n)
    cloud["y"] = rng.uniform(-5.0, 5.0, n)
    cloud["z"] = rng.uniform(-5.0, 3.0, n)
    cloud["intensity"] = rng.uniform(0, 1, n)
    cell = (7, 7)
    qpts = segment_query_points(cell, cfg, grid)
    base = height_fuse(np.array([cell]), cfg, cloud, grid)[0]
    xyz = np.stack([cloud["x"], cloud["y"], cloud["z"]], axis=1)
    margin = 0.2
    far = [i for i in range(n)
           if all(np.linalg.norm(xyz[i] - np.array([q.x, q.y, q.z]))
                  > cfg.ball_radius + margin for q in qpts)]
    if not far:
        return
    i = far[int(rng.integers(0, len(far)))]
    moved = cloud.copy()
    moved["x"][i] += float(rng.uniform(-margin / 2, margin / 2))
    moved["z"][i] += float(rng.uniform(-margin / 2, margin / 2))
    after = height_fuse(np.array([cell]), cfg, moved, grid)[0]
    if not np.array_equal(base, after):
        return "far point changed the height feature"


@registered("l2r.height-sensitivity")
def check_height_sensitivity(seeds: int, fault=None) -> PropertyResult:
    """Moving in-pillar LiDAR mass to a different height segment must change
    the height feature under generic weights."""
    failures = []
    grid = GridSpec(origin=(-6.0, -6.0, -5.0), cell=(1.0, 1.0, 8.0), counts=(12, 12, 1))
    hits = 0
    for s in range(seeds):
        rng = np.random.default_rng([17, s])
        cfg = _height_cfg(rng, cell_size=1.0)
        cell = (4, 8)
        qpts = segment_query_points(cell, cfg, grid)
        n = 8
        cloud = np.zeros(n, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                                   ("intensity", "<f8"), ("t", "<f8")])
        cx, cy = grid.cell_center_xy(*cell)
        cloud["x"] = cx + rng.uniform(-0.2, 0.2, n)
        cloud["y"] = cy + rng.uniform(-0.2, 0.2, n)
        cloud["intensity"] = rng.uniform(0, 1, n)
        za = qpts[0].z + rng.uniform(-0.2, 0.2, n)
        zb = qpts[1].z + rng.uniform(-0.2, 0.2, n)
        cloud_a = cloud.copy()
        cloud_a["z"] = za
        cloud_b = cloud.copy()
        cloud_b["z"] = zb
        fa = height_fuse(np.array([cell]), cfg, cloud_a, grid)[0]
        fb = height_fuse(np.array([cell]), cfg, cloud_b, grid)[0]
        if not np.array_equal(fa, fb):
            hits += 1
    passed = hits >= max(1, int(0.95 * seeds))
    failures = [] if passed else [f"only {hits}/{seeds} seeds were sensitive"]
    return PropertyResult("l2r.height-sensitivity", passed, seeds, failures)


def cell_features_brute(occupied_cells: BevColumns, cfg_h: HeightFusionConfig,
                        cfg_b: BevFusionConfig, points: np.ndarray,
                        lidar_grids: BevColumns, radar_grid: GridSpec):
    """Per-cell twin of ``compute_cell_features``: every ball and BEV query
    is a brute-force scan, each non-empty group one point- or grid-MLP batch
    and each cell one merge-MLP call; cells in ``occupied_cells`` order."""
    xyz = np.stack([points["x"], points["y"], points["z"]], axis=1)
    grid_features = dict(zip(lidar_grids, lidar_grids.features))
    rows, seg_hit, bev_hit, caps = [], 0, 0, {"height": 0, "bev": 0}
    for cell in occupied_cells:
        segments = []
        for q in segment_query_points(cell, cfg_h, radar_grid):
            res = ball_query_brute((q.x, q.y, q.z), xyz, cfg_h.ball_radius,
                                   cfg_h.max_group)
            caps["height"] += res.capped
            if not len(res):
                segments.append(np.zeros(cfg_h.point_mlp.out_dim))
                continue
            seg_hit += 1
            sel = points[res.indices]
            grouped = np.stack([sel["x"] - q.x, sel["y"] - q.y, sel["z"] - q.z,
                                sel["intensity"], sel["t"]], axis=1)
            segments.append(mlp_forward_batch(grouped, cfg_h.point_mlp).max(axis=0))
        bev = np.zeros(cfg_b.feature_dim)
        res = bev_query_brute(cell, lidar_grids, cfg_b)
        caps["bev"] += res.capped
        if len(res):
            bev_hit += 1
            grouped = [np.concatenate([grid_features[(i, j)], [i - cell[0], j - cell[1]]])
                       for i, j in res.indices.tolist()]
            bev = mlp_forward_batch(np.array(grouped), cfg_b.grid_mlp).max(axis=0)
        rows.append(np.concatenate([mlp_forward(np.concatenate(segments),
                                                cfg_h.merge_mlp), bev]))
    n = len(rows)
    stats = {"cells": n,
             "ball_query_hit_rate": seg_hit / (n * cfg_h.num_segments) if n else 0.0,
             "bev_query_hit_rate": bev_hit / n if n else 0.0,
             "capped_height_groups": caps["height"], "capped_bev_groups": caps["bev"]}
    return np.array(rows).reshape(n, cfg_h.feature_dim + cfg_b.feature_dim), stats


def _fusion_cloud(rng, grid: GridSpec, zs) -> np.ndarray:
    """Points around the grid, points on column edges and corners, points at
    cell centers on segment heights and ball boundaries, and duplicates."""
    lo = np.asarray(grid.origin[:2])
    size, counts = np.asarray(grid.cell[:2]), np.asarray(grid.counts[:2])
    n = int(rng.integers(0, 120))
    xy = [rng.uniform(lo - size, lo + (counts + 1) * size, size=(n, 2))]
    z = [rng.uniform(zs[0] - 2.0, zs[-1] + 2.0, n)]
    edges = lo + size * rng.integers(-1, counts + 2, size=(40, 2))
    along = rng.uniform(lo[1], lo[1] + counts[1] * size[1], 20)
    xy += [edges, np.column_stack([edges[:20, 0], along])]
    z += [rng.choice(zs, 40), rng.uniform(zs[0], zs[-1], 20)]
    centers = lo + (rng.integers(0, counts, size=(30, 2)) + 0.5) * size
    xy.append(centers)
    z.append(rng.choice(np.concatenate([zs, zs + size[0], zs - size[0] / 2]), 30))
    xy, z = np.concatenate(xy), np.concatenate(z)
    pts = np.zeros(len(z), dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                                  ("intensity", "<f8"), ("t", "<f8")])
    pts["x"], pts["y"], pts["z"] = xy[:, 0], xy[:, 1], z
    pts["intensity"] = rng.uniform(0.0, 1.0, len(pts))
    pts["t"] = rng.choice([0.0, -0.05], len(pts))
    pts = np.concatenate([pts, pts[rng.integers(0, len(pts), 10)]])
    return pts[rng.permutation(len(pts))]


@per_seed("l2r.cell-features-oracle", stream=21)
def check_cell_features(s, rng, fault):
    """``compute_cell_features`` against its per-cell brute-force twin on
    random clouds: stats (hit rates, capped counts) exact, features within
    GRID_RTOL of the largest reference value. Instances cycle the ball
    radius through r/2, r and 3r/2, and cover both BEV distance modes, group
    caps from 1 to 20, empty clouds, grids and cell sets."""
    r = float(rng.choice([0.5, 0.6, 1.0]))
    grid = GridSpec(origin=(-3.0, -2.0, -5.0), cell=(r, r, 8.0),
                    counts=(int(rng.integers(2, 9)), int(rng.integers(2, 9)), 1))
    fdim = int(rng.integers(1, 7))
    m = num_height_segments(8.0, r)
    cfg_h = HeightFusionConfig(
        cell_size=r, pillar_height=8.0, z_min=-5.0,
        point_mlp=_mlps(rng, (5, 8, fdim)), merge_mlp=_mlps(rng, (m * fdim, 8, fdim)),
        ball_radius=r * (0.5, 1.0, 1.5)[s % 3], max_group=int(rng.integers(1, 21)))
    gdim = int(rng.integers(1, 5))
    cfg_b = BevFusionConfig(
        grid_mlp=_mlps(rng, (gdim + 2, 8, fdim)),
        window=(int(rng.integers(0, 4)), int(rng.integers(0, 4))),
        max_group=int(rng.integers(1, 21)),
        distance_mode=("window", "scalar")[s % 2])
    cloud = _fusion_cloud(rng, grid, segment_heights(cfg_h))
    if s % 7 == 3:
        cloud = cloud[:0]
    nx, ny = grid.nx, grid.ny
    key_ids = np.unique(rng.integers(0, (nx + 4) * (ny + 4), int(rng.integers(0, 30))))
    features = rng.normal(size=(len(key_ids), gdim))
    # Keys are drawn from two cells around the grid; coarse cells lie on
    # it, so a key off the grid moves onto the nearest border cell (the
    # first one there keeps its place).
    i = np.clip(key_ids // (ny + 4) - 2, 0, nx - 1)
    j = np.clip(key_ids % (ny + 4) - 2, 0, ny - 1)
    ids, first = np.unique(j * nx + i, return_index=True)
    grids = BevColumns(ids, features[first], (gdim, ny, nx))
    cells = {(int(i), int(j)) for i, j in zip(rng.integers(0, nx, 12),
                                              rng.integers(0, ny, 12))}
    cells = set() if s % 9 == 5 else cells | {(0, 0), (nx - 1, ny - 1)}
    cells = columns_at(cells, np.zeros((len(cells), 0)), (0, ny, nx))
    got, got_stats = compute_cell_features(cells, cfg_h, cfg_b, cloud, grids, grid)
    want, want_stats = cell_features_brute(cells, cfg_h, cfg_b, cloud, grids, grid)
    if got_stats != want_stats:
        return f"stats {got_stats} != {want_stats}"
    if not _rel_close(got, want):
        return "cell features differ"


@per_seed("l2r.pseudo-count", cap=5)
def check_pseudo_count(s, rng, fault):
    cfg = tiny_config()
    _, lidar, radar = generate_clouds(cfg, s)
    st = run_pipeline(cfg, lidar, radar).stats
    found = []
    if st["l2r_fusion"]["pseudo_features"] != st["grid_encoding"]["radar_pillars"]:
        found.append("pseudo feature count mismatch")
    if st["l2r_fusion"]["enhanced_nonzero_cells"] != st["grid_encoding"]["radar_pillars"]:
        found.append("enhanced sparsity mismatch")
    return found


# --------------------------------------------------------------------------
# r2l-fusion-head properties
# --------------------------------------------------------------------------

@per_seed("heads.channel-contract", cap=3)
def check_channel_contract(s, rng, fault):
    cfg = tiny_config()
    _, lidar, radar = generate_clouds(cfg, s)
    st = run_pipeline(cfg, lidar, radar).stats
    chain = (st["grid_encoding"]["mr_shape"][0],
             st["l2r_fusion"]["enhanced_shape"][0],
             st["r2l_fusion_head"]["fused_shape"][0],
             st["r2l_fusion_head"]["encoded_shape"][0])
    want = (32, 96, cfg.channels.lidar_channels + 96, 512)
    if chain != want:
        return f"channel chain {chain} != {want}"


# (LiDAR channels, encoder hidden widths, trunk widths): the desk and tiny
# widths, odd ones, whose first block and first trunk conv run tap GEMMs of
# other shapes than the shipped ones, and a 496-channel fused map, whose
# first block's GEMMs give a column other bits when they are narrow.
TILED_PROFILES = ((64, (8, 8), (4, 4)), (16, (2, 2), (2, 2)),
                  (33, (33, 7), (33, 3)), (400, (8, 8), (4, 4)))
# Share of LiDAR-occupied columns: some, none, all.
LIDAR_OCCUPANCY = (0.35, 0.0, 1.0)
HEAD_FIELDS = ("heatmap", "heatmap_logits", "offset", "z", "size", "rot", "vel")


def _r2l_instance(rng, s, heights):
    """Random maps and weights for ``r2l_forward``: widths from
    TILED_PROFILES, LiDAR occupancy from LIDAR_OCCUPANCY, W from 1 to 64, H
    from ``heights(w)``, radar replicated 1, 2 or 4 times
    per axis and non-zero in 30% of its cells, many of them over empty
    LiDAR columns."""
    lidar, hidden, trunk = TILED_PROFILES[s % len(TILED_PROFILES)]
    w = int(rng.choice([1, 3, 16, 33, 64]))
    cin = lidar + 96
    choices = heights(w)
    h = choices[(s // len(TILED_PROFILES)) % len(choices)]
    fh = int(rng.choice([f for f in (1, 2, 4) if h % f == 0]))
    fw = int(rng.choice([f for f in (1, 2, 4) if w % f == 0]))
    # Seeds 0-2 take each occupancy; later seeds pair it with each profile.
    occupancy = LIDAR_OCCUPANCY[(s + s // len(TILED_PROFILES)) % len(LIDAR_OCCUPANCY)]
    ids = np.flatnonzero(rng.uniform(size=h * w) < occupancy)
    features = np.maximum(rng.normal(size=(len(ids), lidar)), 0.0)
    m_l = BevColumns(ids=ids, features=features, shape=(lidar, h, w))
    enhanced = columns_of(FeatureMap(rng.normal(size=(96, h // fh, w // fw))
                                     * (rng.uniform(size=(1, h // fh, w // fw)) < 0.3)))
    widths = [cin, *hidden, ENCODER_CHANNELS]
    encoder = [Conv2dParams.init(widths[k], widths[k + 1], 3, rng, padding=1)
               for k in range(3)]
    blocks, prev = [], ENCODER_CHANNELS
    for width in trunk:
        blocks.append(Conv2dParams.init(prev, width, 3, rng, padding=1))
        prev = width
    one = lambda out: Conv2dParams.init(prev, out, 1, rng)
    head = HeadParams(trunk=blocks, heatmap=one(3), offset=one(2), z=one(1),
                      size=one(3), rot=one(2), vel=one(2))
    return m_l, enhanced, encoder, head


def columns_at(cells, features, shape: tuple) -> BevColumns:
    """The columns of a (C, ny, nx) map holding row k of the (K, C)
    ``features`` at the k-th (ix, iy) of the distinct ``cells``."""
    cells = np.array(list(cells), dtype=np.int64).reshape(-1, 2)
    ids = cells[:, 1] * shape[2] + cells[:, 0]
    order = np.argsort(ids)
    return BevColumns(ids[order], np.asarray(features, dtype=np.float64)[order],
                      tuple(shape))


def columns_of(m: FeatureMap) -> BevColumns:
    """The columns of a dense map holding a non-zero value, as the input
    ``r2l_forward`` takes."""
    flat = m.data.reshape(m.channels, -1)
    ids = np.flatnonzero(flat.any(axis=0))
    return BevColumns(ids=ids, features=flat[:, ids].T.copy(), shape=m.shape)


def _band_heights(w):
    """The fewest rows of more than 24 cells, under one band, one band plus
    a row, or past two bands of the 512-channel stage; and the tallest
    inline map, whose fused columns take more than one gather chunk at W =
    64 when all occupied. At 448 or more fused channels, BLAS gave a GEMM
    of 24 or fewer columns other bits than a wider one, so the first height
    makes the whole map's first-block tap GEMMs wider than that while a
    sparse gather chunk is narrower (seed 3 draws it)."""
    rows = band_rows(ENCODER_CHANNELS, w)
    return [24 // w + 1, max(1, rows - 1), rows + 1, 2 * rows + rows // 2 + 1,
            2 * TILE_ROWS - 1]


@per_seed("heads.tiled-oracle", stream=31)
def check_tiled_r2l(s, rng, fault):
    """Row-banded R2L stage against the whole-map chain it replaces: every
    head output byte for byte. Both run the same GEMMs, and sum their taps
    in the same order (see ``heads.r2l_forward``)."""
    m_l, enhanced, encoder, head = _r2l_instance(rng, s, _band_heights)
    ref = detect_forward(bev_encoder(fuse_bev_maps(m_l.dense(), enhanced.dense()),
                                     encoder), head)
    got = r2l_forward(m_l, enhanced, encoder, head)
    for name in HEAD_FIELDS:
        if not np.array_equal(getattr(got, name), getattr(ref, name)):
            return f"{name} of a {m_l.shape} map differs"


def _item_heights(w):
    """Two inline heights, the shortest pooled one and a taller, uneven one."""
    return [TILE_ROWS, TILE_ROWS + 1, 2 * TILE_ROWS, 3 * TILE_ROWS + 5]


@per_seed("heads.worker-oracle", stream=32)
def check_worker_count(s, rng, fault):
    """``r2l_forward`` on 1, 2 and 3 worker threads gives the same bytes
    for every head output."""
    m_l, enhanced, encoder, head = _r2l_instance(rng, s, _item_heights)
    outs = [r2l_forward(m_l, enhanced, encoder, head, workers=k)
            for k in (1, 2, 3)]
    for name in HEAD_FIELDS:
        if len({getattr(o, name).tobytes() for o in outs}) != 1:
            return f"{name} of a {m_l.shape} map depends on the worker count"


@per_seed("pipeline.worker-oracle", cap=2)
def check_pipeline_workers(s, rng, fault):
    """Whole desk ``run_pipeline`` frames on 1, 2 and 3 worker threads give
    the same detections, stats, heatmap and LiDAR and enhanced columns,
    byte for byte."""
    cfg = desk_config()
    _, lidar, radar = generate_clouds(cfg, s)
    outs = set()
    for k in (1, 2, 3):
        r = run_pipeline(cfg, lidar, radar, workers=k)
        outs.add((detections_to_jsonl(r.detections), repr(r.stats),
                  r.maps["heatmap"].data.tobytes(),
                  r.maps["m_l"].features.tobytes(),
                  r.maps["enhanced"].features.tobytes()))
    if len(outs) != 1:
        return "a desk frame depends on the worker count"


@per_seed("heads.decode-roundtrip")
def check_decode_roundtrip(s, rng, fault):
    grid = desk_config().lidar_grid
    scene = generate_scene(SceneSpec(extent=16.0, num_objects=6), s)
    targets = render_targets(scene.objects, grid, num_classes=3)
    outputs = outputs_from_targets(targets)
    if fault == "offset-bias":
        outputs = HeadOutputs(heatmap=outputs.heatmap,
                              heatmap_logits=outputs.heatmap_logits,
                              offset=outputs.offset + 1.0, z=outputs.z,
                              size=outputs.size, rot=outputs.rot,
                              vel=outputs.vel)
    dets = decode_detections(outputs, grid, 0.5, 64)
    half_cell = 0.5 * grid.cell[0]
    for box in scene.objects:
        near = [d for d in dets
                if d.class_id == box.class_id
                and abs(d.x - box.cx) <= half_cell
                and abs(d.y - box.cy) <= half_cell]
        if not near:
            return f"box at ({box.cx:.2f},{box.cy:.2f}) lost"
        d = near[0]
        if (abs(d.length - box.length) > 1e-9
                or abs(d.width - box.width) > 1e-9
                or abs(d.height - box.height) > 1e-9
                or abs(wrap_angle(d.yaw - box.yaw)) > 1e-9):
            return "size/yaw drifted"


def loss_gradcheck_instance(seed, height=8, width=8, num_classes=2,
                            kink_margin=1e-2):
    """Random head outputs + rendered targets with every L1 kink cleared."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(origin=(-4.0, -4.0, -5.0),
                    cell=(8.0 / width, 8.0 / height, 8.0),
                    counts=(width, height, 1))
    boxes = []
    for k in range(int(rng.integers(1, 4))):
        boxes.append(GroundTruthBox(
            cx=float(rng.uniform(-3, 3)), cy=float(rng.uniform(-3, 3)),
            cz=float(rng.uniform(-1, 1)), length=float(rng.uniform(1, 3)),
            width=float(rng.uniform(1, 2)), height=float(rng.uniform(1, 2)),
            yaw=float(rng.uniform(-3, 3)), vx=float(rng.uniform(-5, 5)),
            vy=float(rng.uniform(-5, 5)), class_id=int(rng.integers(0, num_classes))))
    targets = render_targets(boxes, grid, num_classes)
    shapes = {"heatmap": (num_classes, height, width), "offset": (2, height, width),
              "z": (1, height, width), "size": (3, height, width),
              "rot": (2, height, width), "vel": (2, height, width)}
    maps = {}
    for name, shape in shapes.items():
        maps[name] = rng.normal(size=shape)
        if name != "heatmap":
            tgt = getattr(targets, name)
            for _, iy, ix in targets.centers:
                col = maps[name][:, iy, ix]
                close = np.abs(col - tgt[:, iy, ix]) < kink_margin
                col[close] += np.where(col[close] >= tgt[:, iy, ix][close],
                                       kink_margin, -kink_margin) * 2
    outputs = HeadOutputs(heatmap=sigmoid(maps["heatmap"]),
                          heatmap_logits=maps["heatmap"], offset=maps["offset"],
                          z=maps["z"], size=maps["size"], rot=maps["rot"],
                          vel=maps["vel"])
    return outputs, targets


_HEAD_ORDER = ("heatmap", "offset", "z", "size", "rot", "vel")


def pack_head_maps(outputs: HeadOutputs) -> np.ndarray:
    parts = [outputs.heatmap_logits.ravel()]
    parts += [getattr(outputs, n).ravel() for n in _HEAD_ORDER[1:]]
    return np.concatenate(parts)


@functools.lru_cache
def _head_layout(shapes: tuple) -> tuple:
    """(start, stop, shape) of each head map in a packed vector, in
    ``_HEAD_ORDER``."""
    stops = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
    return tuple(zip([0] + stops[:-1], stops, shapes))


def unpack_head_maps(vec: np.ndarray, template: HeadOutputs) -> HeadOutputs:
    shapes = (template.heatmap_logits.shape,) + tuple(
        getattr(template, n).shape for n in _HEAD_ORDER[1:])
    logits, *maps = [vec[a:b].reshape(shape) for a, b, shape in _head_layout(shapes)]
    return HeadOutputs(sigmoid(logits), logits, *maps)


@per_seed("heads.grad-loss")
def check_grad_loss(s, rng, fault):
    outputs, targets = loss_gradcheck_instance([18, s])
    theta = pack_head_maps(outputs)

    def f(v):
        breakdown, _ = compute_loss(unpack_head_maps(v, outputs), targets)
        return breakdown.total

    def grad(v):
        _, grads = compute_loss(unpack_head_maps(v, outputs), targets)
        return np.concatenate([grads[n].ravel() for n in _HEAD_ORDER])

    rep = finite_diff_check(f, grad, theta)
    if not rep.passed:
        return f"rel diff {rep.max_rel_diff:.2e}"


@per_seed("heads.focal-monotonicity", stream=19)
def check_focal_monotonicity(s, rng, fault):
    outputs, targets = loss_gradcheck_instance([19, s])
    base, _ = compute_loss(outputs, targets)
    centers = {(c, iy, ix) for c, iy, ix in targets.centers}
    for _ in range(20):
        c = int(rng.integers(0, outputs.heatmap.shape[0]))
        iy = int(rng.integers(0, outputs.heatmap.shape[1]))
        ix = int(rng.integers(0, outputs.heatmap.shape[2]))
        if (c, iy, ix) not in centers:
            break
    logits = outputs.heatmap_logits.copy()
    logits[c, iy, ix] += 0.25
    bumped = HeadOutputs(heatmap=sigmoid(logits), heatmap_logits=logits,
                         offset=outputs.offset, z=outputs.z,
                         size=outputs.size, rot=outputs.rot, vel=outputs.vel)
    after, _ = compute_loss(bumped, targets)
    if not after.heatmap_loss > base.heatmap_loss:
        return "heatmap loss did not increase"


# --------------------------------------------------------------------------
# harness properties
# --------------------------------------------------------------------------

@per_seed("pipeline.determinism", cap=3)
def check_pipeline_determinism(s, rng, fault):
    cfg = tiny_config()
    _, lidar, radar = generate_clouds(cfg, s)
    a = run_pipeline(cfg, lidar, radar)
    b = run_pipeline(cfg, lidar, radar)
    found = []
    if detections_to_jsonl(a.detections) != detections_to_jsonl(b.detections):
        found.append("detections differ between runs")
    if a.stats != b.stats:
        found.append("stats differ between runs")
    return found


@per_seed("eval.sanity", cap=10)
def check_eval_sanity(s, rng, fault):
    scene = generate_scene(SceneSpec(extent=40.0, num_objects=4, min_range=6.0,
                                     clearance=12.0, max_attempts=20000), s)
    perfect = [DetectionBox(x=b.cx, y=b.cy, z=b.cz, length=b.length,
                            width=b.width, height=b.height, yaw=b.yaw,
                            vx=b.vx, vy=b.vy, class_id=b.class_id, score=1.0)
               for b in scene.objects]
    res = eval_detections(perfect, scene.objects)
    if any(abs(ap - 1.0) > 1e-12 for th in res.ap_by_class.values()
           for ap in th.values()):
        return "perfect detections did not score AP 1"
    if res.mean_velocity_error != 0.0:
        return "perfect detections have velocity error"
    shifted = [replace(d, x=d.x + 3.0) for d in perfect]
    res = eval_detections(shifted, scene.objects)
    for cid, th in res.ap_by_class.items():
        if any(th[t] != 0.0 for t in (0.5, 1.0, 2.0)) or th[4.0] != 1.0:
            return f"shifted AP profile wrong for class {cid}"


def oracle_suite(seeds: int = 25, fault: str | None = None) -> list:
    """Run every registered property; results sorted by property name."""
    if fault is not None and fault not in FAULTS:
        raise ConfigError(f"fault: unknown fault {fault!r}, expected one of {FAULTS}")
    results = []
    for name in sorted(PROPERTIES):
        results.append(PROPERTIES[name](seeds, fault))
    return results
