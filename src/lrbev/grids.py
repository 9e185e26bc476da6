"""Point clouds to BEV feature maps.

LiDAR goes through voxelize -> per-voxel MLP+max encode -> Z-stack collapse,
yielding the occupied columns of the LiDAR BEV map. Radar goes through
single-layer pillars, yielding the occupied columns of the radar BEV map. A
separate collapse rebins encoded LiDAR voxels onto the coarse radar-sized
grid for the BEV-feature queries. All three are ``BevColumns``: ascending
row-major column ids and one feature row per column.

Cell assignment is floor((p - origin) / cell), lower-inclusive and
upper-exclusive. Empty cells are exact zeros everywhere.

Voxels and pillars are grouped alike, in the order of a stable argsort of
the cell ids ``(iy * nx + ix) * nz + iz``, into segments (sorted ids plus
offsets), so voxel keys run in row-major column order, z fastest. Each MLP
stage runs as a few batched forwards over blocks of whole segments,
max-pooled per segment with ``np.maximum.reduceat``; no map is built
dense. The blocks are cut from the offsets alone and write disjoint rows,
so they run on up to ``workers`` threads (``parallel.each``) with the same
bits. A row's bits do not depend on its place in a batch
(``nn.mlp_forward_batch`` pads to whole BLAS blocks), so members stay in
input order and a shuffle that truncates nothing leaves every segment's
max unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .errors import ConfigError, ShapeError
from .nn import FeatureMap, MlpParams, _finite, mlp_forward_batch

LIDAR_POINT_FEATURES = 8   # x, y, z, intensity, t, and offsets to the cell center
RADAR_CHANNELS = 32        # width of the radar BEV map, fixed by the channel contract


@dataclass(frozen=True)
class GridSpec:
    """Regular 3D grid: minimum corner, cell size, cell counts."""

    origin: tuple[float, float, float]
    cell: tuple[float, float, float]
    counts: tuple[int, int, int]

    def __post_init__(self):
        # Messages name the field of the grid; a config that holds it
        # prefixes the grid's own name.
        for name in ("origin", "cell", "counts"):
            if len(getattr(self, name)) != 3:
                raise ConfigError(f"{name}: needs 3 entries, got {getattr(self, name)}")
        if any(c <= 0 for c in self.cell):
            raise ConfigError(f"cell: all sizes must be positive, got {self.cell}")
        if any(n < 1 for n in self.counts):
            raise ConfigError(f"counts: all counts must be >= 1, got {self.counts}")
        if self.num_cells > 2**63:
            raise ConfigError(f"counts: {self.counts} has more cells than int64 "
                              f"cell ids can number")

    @property
    def nx(self) -> int:
        return self.counts[0]

    @property
    def ny(self) -> int:
        return self.counts[1]

    @property
    def nz(self) -> int:
        return self.counts[2]

    @property
    def num_cells(self) -> int:
        return math.prod(int(n) for n in self.counts)

    def cell_index(self, xyz) -> tuple:
        """The positions of the points inside the grid and their (k, 3) cell
        indices; ``xyz`` holds the points' x, y and z columns. Each axis is
        floored and range-checked on its own column. A non-finite or far-off
        point is outside, never cast."""
        cells, inside = [], None
        with np.errstate(over="ignore"):     # an overflow to inf is outside
            for col, origin, size, count in zip(xyz, self.origin, self.cell,
                                                self.counts):
                c = np.subtract(col, origin, dtype=np.float64)
                c /= size
                np.floor(c, out=c)
                ok = c >= 0
                ok &= c < count
                inside = ok if inside is None else inside & ok
                cells.append(c)
        inside = np.flatnonzero(inside)
        out = np.empty((len(inside), 3), dtype=np.int64)
        for axis, c in enumerate(cells):
            out[:, axis] = c[inside]
        return inside, out

    def cell_center_xy(self, ix: int, iy: int) -> tuple:
        return (self.origin[0] + (ix + 0.5) * self.cell[0],
                self.origin[1] + (iy + 0.5) * self.cell[1])

    def voxel_center(self, ix: int, iy: int, iz: int) -> tuple:
        x, y = self.cell_center_xy(ix, iy)
        return x, y, self.origin[2] + (iz + 0.5) * self.cell[2]


# Most rows one batched MLP forward takes. Blocks hold whole segments, so
# their boundaries are a function of the segment offsets alone; the cap
# bounds the size of the batch temporaries.
BLOCK_ROWS = 4096


def _blocks(offsets: np.ndarray):
    """Consecutive segment ranges (s0, s1) covering every segment, each
    spanning at most BLOCK_ROWS rows, or one segment that alone is longer."""
    s0, n = 0, len(offsets) - 1
    while s0 < n:
        s1 = int(np.searchsorted(offsets, offsets[s0] + BLOCK_ROWS, side="right")) - 1
        s1 = max(s1, s0 + 1)
        yield s0, s1
        s0 = s1


def segment_max(rows: np.ndarray, offsets: np.ndarray, p: MlpParams,
                workers: int = 1) -> np.ndarray:
    """(S, out) elementwise max of the MLP over each segment
    rows[offsets[k]:offsets[k+1]], one batched forward per block of the
    non-empty segments, on up to ``workers`` threads; an empty segment
    yields the zero vector."""
    out = np.zeros((len(offsets) - 1, p.out_dim))
    full = np.flatnonzero(np.diff(offsets))
    offsets = np.append(offsets[full], offsets[-1])

    def block(span: tuple) -> None:
        s0, s1 = span
        r0 = offsets[s0]
        y = mlp_forward_batch(rows[r0:offsets[s1]], p)
        out[full[s0:s1]] = np.maximum.reduceat(y, offsets[s0:s1] - r0, axis=0)

    parallel.each(block, _blocks(offsets), workers)
    return out


def _group(points: np.ndarray, z: np.ndarray, spec: GridSpec, limit: int):
    """Group the points, at heights ``z``, that lie inside ``spec`` by
    ascending cell id ``(iy * nx + ix) * nz + iz``, keeping per cell the
    first ``limit`` points in input order.

    Returns (ids, offsets, members, dropped, truncated): cell k, of id
    ids[k], owns the kept point indices members[offsets[k]:offsets[k+1]],
    in input order; ``dropped`` counts the points outside the grid and
    ``truncated`` those beyond the limit.

    The order is that of a stable argsort of the ids, got by one plain sort
    of the keys ``id * n + position`` of the n points inside, which are
    distinct. Where such a key could pass the int64 range (more than 2**63
    cells times points), the stable argsort runs instead.
    """
    inside, idx = spec.cell_index((points["x"], points["y"], z))
    lin = (idx[:, 1] * spec.nx + idx[:, 0]) * spec.nz + idx[:, 2]
    n = len(lin)
    if spec.num_cells * n <= 2**63:
        lin *= n
        lin += np.arange(n)
        lin.sort()
        lin, order = np.divmod(lin, n)
    else:
        order = np.argsort(lin, kind="stable")
        lin = lin[order]
    starts = np.flatnonzero(np.diff(lin, prepend=-1))     # ids are >= 0
    ids, counts = lin[starts], np.diff(starts, append=len(lin))
    rank = np.arange(len(order)) - np.repeat(starts, counts)
    keep = rank < limit
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.minimum(counts, limit), out=offsets[1:])
    return (ids, offsets, inside[order[keep]], int(len(points) - len(inside)),
            int(len(order) - keep.sum()))


@dataclass
class VoxelSet:
    """Occupied voxels of one cloud as sorted segments.

    ``occupied`` holds the V voxel keys (ix, iy, iz) in ascending cell id
    ``(iy * nx + ix) * nz + iz``: row-major column order, z fastest.
    Voxel v owns the kept point indices members[offsets[v]:offsets[v+1]],
    in input order, and row v of ``features`` once encoded
    (``features`` has zero columns until then).
    """

    spec: GridSpec
    points: np.ndarray                      # the structured cloud voxelized
    occupied: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), np.int64))
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    members: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    dropped: int = 0
    truncated: int = 0

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def voxel_members(self):
        """(key tuple, member index array) per voxel, in key order."""
        for v, key in enumerate(self.occupied.tolist()):
            yield tuple(key), self.members[self.offsets[v]:self.offsets[v + 1]]


def voxelize(points: np.ndarray, spec: GridSpec,
             max_points_per_voxel: int = 32) -> VoxelSet:
    """Assign points to voxels; out-of-range points are dropped (counted),
    per-voxel membership is truncated in insertion order."""
    if max_points_per_voxel < 1:
        raise ValueError(f"max_points_per_voxel must be >= 1, got {max_points_per_voxel}")
    vs = VoxelSet(spec=spec, points=points)
    z = points["z"] if "z" in points.dtype.names else np.zeros(len(points))
    ids, vs.offsets, vs.members, vs.dropped, vs.truncated = _group(
        points, z, spec, max_points_per_voxel)
    column, iz = np.divmod(ids, spec.nz)
    iy, ix = np.divmod(column, spec.nx)
    vs.occupied = np.stack([ix, iy, iz], axis=1)
    vs.features = np.zeros((len(ids), 0))
    return vs


def _lidar_point_features(vs: VoxelSet) -> np.ndarray:
    """The (n, 8) MLP inputs of the members, voxel by voxel: each record
    field gathered once, then the offsets to the voxel center."""
    rows = np.empty((len(vs.members), LIDAR_POINT_FEATURES))
    for k, name in enumerate(("x", "y", "z", "intensity", "t")):
        rows[:, k] = vs.points[name][vs.members]
    centers = np.asarray(vs.spec.origin) + (vs.occupied + 0.5) * np.asarray(vs.spec.cell)
    np.subtract(rows[:, :3], np.repeat(centers, np.diff(vs.offsets), axis=0),
                out=rows[:, 5:])
    return rows


def voxel_encode(vs: VoxelSet, p: MlpParams, workers: int = 1) -> VoxelSet:
    """Per-voxel feature: elementwise max over members of the point MLP,
    its blocks on up to ``workers`` threads.

    Point inputs are (x, y, z, intensity, t) plus offsets to the voxel
    center, so the result is invariant under member order.
    """
    if p.in_dim != LIDAR_POINT_FEATURES:
        raise ShapeError(f"voxel MLP expects {p.in_dim} inputs, "
                         f"points provide {LIDAR_POINT_FEATURES}")
    vs.features = segment_max(_lidar_point_features(vs), vs.offsets, p, workers)
    return vs


@dataclass
class BevColumns:
    """The occupied columns of a (C, ny, nx) BEV map: ascending row-major
    column ids ``iy * nx + ix`` and their (K, C) ``features``, which must be
    finite; every other column is exact zero. ``len`` counts the columns,
    iterating yields their (ix, iy) cells, and ``dense`` builds the map."""

    ids: np.ndarray
    features: np.ndarray
    shape: tuple

    def __post_init__(self):
        _finite(self.features)

    @property
    def channels(self) -> int:
        return self.shape[0]

    @property
    def height(self) -> int:
        return self.shape[1]

    @property
    def width(self) -> int:
        return self.shape[2]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(tuple, self.cells.tolist())

    @property
    def cells(self) -> np.ndarray:
        """(K, 2) (ix, iy) of the columns, in id order."""
        iy, ix = np.divmod(self.ids, self.width)
        return np.stack([ix, iy], axis=1)

    @property
    def data(self) -> np.ndarray:
        """The dense map's array, built on each read."""
        return self.dense().data

    def dense(self) -> FeatureMap:
        out = np.zeros(self.shape)
        out.reshape(self.channels, -1)[:, self.ids] = self.features.T
        return FeatureMap._wrap(out)


def zstack_collapse(vs: VoxelSet, p: MlpParams, workers: int = 1) -> BevColumns:
    """Concatenate each occupied BEV column's voxel features bottom-to-top
    (zeros for empty voxels) and project with an MLP, one batched forward
    per block of columns on up to ``workers`` threads; the unoccupied
    columns are left out, as exact zeros."""
    spec = vs.spec
    nvox, fdim = vs.features.shape
    if nvox and p.in_dim != fdim * spec.nz:
        raise ShapeError(f"z-stack MLP expects {p.in_dim} inputs, "
                         f"stack provides {fdim * spec.nz}")
    # Keys ascend in row-major column order, so each BEV column is one run
    # of voxels and the GEMM blocks fill the columns in id order.
    ix, iy, iz = vs.occupied.T
    ids, starts, counts = np.unique(iy * spec.nx + ix, return_index=True,
                                    return_counts=True)
    features = np.empty((len(ids), p.out_dim))
    column = np.repeat(np.arange(len(ids)), counts)
    bounds = np.append(starts, nvox)

    def block(span: tuple) -> None:
        c0, c1 = span
        v0, v1 = bounds[c0], bounds[c1]
        stack = np.zeros((c1 - c0, spec.nz, fdim))
        stack[column[v0:v1] - c0, iz[v0:v1]] = vs.features[v0:v1]
        features[c0:c1] = mlp_forward_batch(stack.reshape(c1 - c0, -1), p)

    parallel.each(block, _blocks(np.arange(len(ids) + 1)), workers)
    return BevColumns(ids=ids, features=features,
                      shape=(p.out_dim, spec.ny, spec.nx))


@dataclass
class PillarMap:
    """Radar pillars as sorted segments, like ``VoxelSet``: pillar k, column
    ``map.ids[k]`` of the radar map, owns the kept return indices
    members[offsets[k]:offsets[k+1]], in input order."""

    map: BevColumns
    offsets: np.ndarray
    members: np.ndarray
    dropped: int
    truncated: int          # returns beyond max_points_per_pillar

    @property
    def occupied(self) -> BevColumns:
        """The non-empty radar cells: the columns of ``map``."""
        return self.map


def pillarize(points: np.ndarray, spec: GridSpec, p: MlpParams,
              max_points_per_pillar: int = 32) -> PillarMap:
    """Radar pillar encoding: per-pillar max over the point MLP, one row per
    occupied column. Raw record fields are the MLP inputs."""
    if spec.nz != 1:
        raise ConfigError(f"radar_grid.counts: pillar grid needs nz == 1, got {spec.nz}")
    nfeat = len(points.dtype.names)
    if p.in_dim != nfeat:
        raise ShapeError(f"pillar MLP expects {p.in_dim} inputs, "
                         f"records provide {nfeat}")
    # Every return sits on the grid floor: the one pillar layer spans all z.
    ids, offsets, members, dropped, truncated = _group(
        points, np.full(len(points), spec.origin[2]), spec, max_points_per_pillar)
    recs = points[members]
    rows = np.stack([recs[name] for name in points.dtype.names], axis=1)
    features = segment_max(rows, offsets, p)
    return PillarMap(map=BevColumns(ids, features, (p.out_dim, spec.ny, spec.nx)),
                     offsets=offsets, members=members, dropped=dropped,
                     truncated=truncated)


def collapse_to_bev_grids(vs: VoxelSet, coarse_cell: float) -> BevColumns:
    """Rebin encoded voxel features onto the coarse (radar-sized) BEV grid.

    Each coarse cell covering at least one occupied voxel gets the
    elementwise max of all contained voxel features; empty cells are absent.
    The coarse cell size must be an integer multiple of the fine cell.
    """
    spec = vs.spec
    ratios = []
    for axis, name in ((0, "x"), (1, "y")):
        ratio = coarse_cell / spec.cell[axis]
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(
                f"radar_cell: coarse cell {coarse_cell} is not an integer multiple "
                f"of fine {name} cell {spec.cell[axis]}")
        ratios.append(int(round(ratio)))
    rx, ry = ratios
    nx, ny = -(-spec.nx // rx), -(-spec.ny // ry)   # a partial edge cell counts
    coarse = (vs.occupied[:, 1] // ry) * nx + vs.occupied[:, 0] // rx
    order = np.argsort(coarse, kind="stable")
    ids, starts = np.unique(coarse[order], return_index=True)
    return BevColumns(ids, np.maximum.reduceat(vs.features[order], starts, axis=0),
                      (vs.feature_dim, ny, nx))
