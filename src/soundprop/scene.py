"""Voxelized scenes and line-of-sight queries.

Scenes are axis-aligned occupancy grids with a uniform physical spacing.
The y axis is treated as "up" throughout the package, matching grids whose
vertical extent is much smaller than the horizontal ones.

Conventions
-----------
* Voxel ``(i, j, k)`` has its center at ``origin + (i, j, k) * spacing`` and
  occupies the closed cube of side ``spacing`` around that center.
* A scene's bounding box is the union of all voxel cubes.
* Occupancy ``True`` means obstacle.

Scenes are immutable after construction; every query here is read-only and
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError

# Tie tolerance for the voxel traversal (in cell units). Crossings closer
# than this to a cell edge are treated as touching every adjacent voxel.
_TIE_EPS = 1e-9

# Voxels touched when a traversal leaves a cell through an edge or corner,
# as multiples of the per-axis step: the neighbours across each tied face
# and each tied edge. A probe applies when two or more axes tie and every
# axis it moves along is among them.
_TIE_PROBES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))
_PROBE_MASK = np.array(_TIE_PROBES, dtype=bool)

# Cell labels of the padded grid the batched walker steps through.
_FREE, _OCCUPIED, _OUTSIDE = 0, 1, 2


def _frozen(a, dtype) -> np.ndarray:
    """A read-only copy of ``a`` as ``dtype``."""
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RegionAcoustics:
    """Per-region constants consumed by the synthetic-field oracle.

    Attributes
    ----------
    tau_er : float
        Early-reflections decay time in seconds.
    tau_lr : float
        Late-reflections decay time in seconds.
    l_er_ref : float
        Reference early-reflections level in dB at unit path distance.
    """

    tau_er: float
    tau_lr: float
    l_er_ref: float

    def __post_init__(self):
        if not (0 < self.tau_er < math.inf and 0 < self.tau_lr < math.inf and math.isfinite(self.l_er_ref)):
            raise ConfigurationError(f"decay times must be finite and positive, levels finite: {self}")


@dataclass(frozen=True)
class VoxelScene:
    """Immutable occupancy grid with physical placement.

    Attributes
    ----------
    dims : (int, int, int)
        Grid size ``(nx, ny, nz)``; every axis must be >= 2.
    spacing : float
        Edge length of one voxel in meters.
    origin : ndarray, shape (3,)
        Position of the center of voxel ``(0, 0, 0)`` in meters.
    occupancy : ndarray of bool, shape (nx, ny, nz)
        ``True`` marks an obstacle voxel.
    regions : ndarray of int32, shape (nx, ny, nz)
        Region id per voxel, used by the synthetic oracle (all ones when
        none is given). Only meaningful on free voxels.
    region_params : dict[int, RegionAcoustics] or None
        Acoustic constants per region id.
    """

    dims: tuple[int, int, int]
    spacing: float
    origin: np.ndarray
    occupancy: np.ndarray
    regions: np.ndarray | None = None
    region_params: dict[int, RegionAcoustics] | None = None

    def __post_init__(self):
        nx, ny, nz = self.dims
        if min(nx, ny, nz) < 2:
            raise ConfigurationError(f"scene dims must all be >= 2, got {self.dims}")
        if not (self.spacing > 0) or not math.isfinite(self.spacing):
            raise ConfigurationError(f"spacing must be positive, got {self.spacing}")
        occ = _frozen(self.occupancy, bool)
        if occ.shape != (nx, ny, nz):
            raise ConfigurationError(
                f"occupancy shape {occ.shape} does not match dims {self.dims}"
            )
        if occ.all():
            raise ConfigurationError("scene has no free voxel")
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "origin", _frozen(self.origin, float))
        reg = _frozen(np.ones(self.dims) if self.regions is None else self.regions, np.int32)
        if reg.shape != (nx, ny, nz):
            raise ConfigurationError("region map shape does not match dims")
        object.__setattr__(self, "regions", reg)
        # Read-only tables every query reads, built once: the grid dims,
        # the free mask, the bounding box and the walker's labels of the
        # grid padded by one cell (a step or a tie probe leaves the grid by
        # at most one cell), flat with their strides.
        dims = np.array(self.dims)
        for name, value in (
            ("_dims", dims),
            ("_free", ~occ),
            ("_lo", self.origin - 0.5 * self.spacing),
            ("_hi", self.origin + (dims - 0.5) * self.spacing),
            ("_labels", np.pad(occ.astype(np.int8), 1, constant_values=_OUTSIDE).ravel()),
            ("_strides", np.array([(ny + 2) * (nz + 2), nz + 2, 1])),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _inside(self, p) -> np.ndarray:
        """Whether each point of ``p`` (shape ``(..., 3)``) lies in the
        bounding box, faces included; the one bounds rule."""
        return np.all((p >= self._lo) & (p <= self._hi), axis=-1)

    # -- geometry helpers -------------------------------------------------

    @property
    def diagonal(self) -> float:
        """Length of the bounding-box diagonal in meters."""
        ext = (np.asarray(self.dims, dtype=float)) * self.spacing
        return float(np.linalg.norm(ext))

    def voxel_center(self, index) -> np.ndarray:
        """Center of voxel ``index`` (a length-3 integer sequence, or an
        ``(m, 3)`` array of them) in meters."""
        return self.origin + np.asarray(index, dtype=float) * self.spacing

    def voxel_centers(self) -> np.ndarray:
        """Centers of all voxels as an ``(nx, ny, nz, 3)`` array."""
        nx, ny, nz = self.dims
        ii, jj, kk = np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        )
        idx = np.stack([ii, jj, kk], axis=-1).astype(float)
        return self.origin + idx * self.spacing

    def voxel_of(self, p) -> tuple[int, int, int]:
        """Index of the voxel whose cube contains point ``p``.

        Raises
        ------
        InputError
            If ``p`` lies outside the scene bounding box (``contains`` is
            False).
        """
        p = np.asarray(p, dtype=float)
        if not self.contains(p):
            raise InputError(f"point {p.tolist()} is outside the scene bounding box")
        idx = _voxel_cells((p - self.origin) / self.spacing + 0.5, self._dims)
        return int(idx[0]), int(idx[1]), int(idx[2])

    def contains(self, p) -> bool:
        return bool(self._inside(np.asarray(p, dtype=float)).all())

    def free_mask(self) -> np.ndarray:
        """A writable copy of the free-voxel mask."""
        return self._free.copy()

    def free_indices(self) -> np.ndarray:
        """Indices of free voxels as an ``(m, 3)`` int array, in C order."""
        return np.argwhere(~self.occupancy)


SCENE_KINDS = (
    "empty-box",
    "wall-with-aperture",
    "maze",
    "coupled-rooms",
    "cylinder-forest",
)

# Default acoustic constants per scene kind and region id. Decay times stay
# well inside the renderer's (0, K] range; coupled rooms contrast a dead
# room (region 1) with a live one (region 2).
_DEFAULT_REGIONS = {
    "empty-box": {1: RegionAcoustics(0.30, 0.80, -6.0)},
    "wall-with-aperture": {
        1: RegionAcoustics(0.25, 0.70, -6.0),
        2: RegionAcoustics(0.35, 0.90, -8.0),
    },
    "maze": {1: RegionAcoustics(0.20, 0.60, -9.0)},
    "coupled-rooms": {
        1: RegionAcoustics(0.15, 0.40, -12.0),
        2: RegionAcoustics(0.50, 1.40, -3.0),
    },
    "cylinder-forest": {1: RegionAcoustics(0.25, 0.75, -7.0)},
}


# The one ``SceneSpec.geometry`` key each kind reads; the other kinds read none.
GEOMETRY_KEY = {"wall-with-aperture": "aperture", "coupled-rooms": "door", "cylinder-forest": "n_cylinders"}


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic scene.

    ``geometry`` carries kind-specific parameters:

    * ``wall-with-aperture``: ``aperture`` size in voxels (default 1; 0
      seals the wall).
    * ``maze``: corridors carved on the horizontal plane, seeded.
    * ``coupled-rooms``: ``door`` slit size in voxels (default 1).
    * ``cylinder-forest``: ``n_cylinders`` of radius 1 voxel at seeded
      positions; dims >= 7 in x and z.
    """

    kind: str
    dims: tuple[int, int, int]
    spacing: float = 1.0
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    seed: int = 0
    geometry: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ConfigurationError(
                f"unknown scene kind {self.kind!r}; expected one of {SCENE_KINDS}"
            )
        if len(self.dims) != 3 or min(self.dims) < 2:
            raise ConfigurationError(f"invalid dims {self.dims}")
        if not (self.spacing > 0):
            raise ConfigurationError(f"invalid spacing {self.spacing}")


def _shell(occ: np.ndarray) -> None:
    """Occupy the one-voxel boundary shell in place."""
    occ[0, :, :] = occ[-1, :, :] = True
    occ[:, 0, :] = occ[:, -1, :] = True
    occ[:, :, 0] = occ[:, :, -1] = True


def _build_empty_box(spec: SceneSpec):
    occ = np.zeros(spec.dims, dtype=bool)
    _shell(occ)
    return occ, None


def _build_divided_rooms(spec: SceneSpec):
    """Two regions split by a wall at ``x = nx // 2`` with a centred square
    opening of ``aperture`` (or ``door``) voxels a side, clamped to the
    interior; the wall is in region 2 only of ``coupled-rooms``."""
    key, first = GEOMETRY_KEY[spec.kind], (1 if spec.kind == "wall-with-aperture" else 0)
    size = int(spec.geometry.get(key, 1))
    if size < 0:
        raise ConfigurationError(f"{key} must be >= 0 voxels, got {size}")
    occ = np.zeros(spec.dims, dtype=bool)
    _shell(occ)
    mid = spec.dims[0] // 2
    occ[mid] = True
    # [c - (size - 1) // 2, c + size // 2] around each centre c; empty for size 0
    j, k = (slice(max(n // 2 - (size - 1) // 2, 1), min(n // 2 + size // 2 + 1, n - 1)) for n in spec.dims[1:])
    occ[mid, j, k] = False
    return occ, mid + first


def _build_maze(spec: SceneSpec):
    """Depth-first maze on the horizontal plane, extruded vertically.

    Cells sit on the odd sub-lattice of the interior, walls live between
    them; every carved voxel is reachable from every other by construction.
    """
    nx, ny, nz = spec.dims
    if nx < 7 or nz < 7:
        raise ConfigurationError("maze scenes need dims >= 7 in x and z")
    rng = np.random.default_rng(spec.seed)
    occ = np.ones(spec.dims, dtype=bool)

    cx = (nx - 2 + 1) // 2  # cells fit at x = 1, 3, ...
    cz = (nz - 2 + 1) // 2
    carved = np.zeros((cx, cz), dtype=bool)
    stack = [(0, 0)]
    carved[0, 0] = True
    while stack:
        a, b = stack[-1]
        options = []
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            na, nb = a + da, b + db
            if 0 <= na < cx and 0 <= nb < cz and not carved[na, nb]:
                options.append((na, nb))
        if not options:
            stack.pop()
            continue
        na, nb = options[rng.integers(len(options))]
        carved[na, nb] = True
        # Carve the destination cell and the wall voxel between the cells.
        x0, z0 = 1 + 2 * a, 1 + 2 * b
        x1, z1 = 1 + 2 * na, 1 + 2 * nb
        xm, zm = (x0 + x1) // 2, (z0 + z1) // 2
        occ[x0, 1 : ny - 1, z0] = False
        occ[xm, 1 : ny - 1, zm] = False
        occ[x1, 1 : ny - 1, z1] = False
        stack.append((na, nb))
    return occ, None


def _build_cylinder_forest(spec: SceneSpec):
    nx, ny, nz = spec.dims
    if nx < 7 or nz < 7:
        raise ConfigurationError("cylinder-forest scenes need dims >= 7 in x and z")
    n_cyl = int(spec.geometry.get(GEOMETRY_KEY[spec.kind], max(4, (nx * nz) // 64)))
    if n_cyl < 0:
        raise ConfigurationError(f"n_cylinders must be >= 0, got {n_cyl}")
    radius = 1.0
    rng = np.random.default_rng(spec.seed)
    occ = np.zeros(spec.dims, dtype=bool)
    _shell(occ)
    xs = np.arange(nx)
    zs = np.arange(nz)
    gx, gz = np.meshgrid(xs, zs, indexing="ij")
    for _ in range(n_cyl):
        cx = rng.uniform(2 + radius, nx - 3 - radius)
        cz = rng.uniform(2 + radius, nz - 3 - radius)
        disk = (gx - cx) ** 2 + (gz - cz) ** 2 <= radius**2
        occ |= disk[:, None, :]
    _shell(occ)
    return occ, None


# Scene kind -> builder of the occupancy and region 2's first x plane (or None).
_BUILDERS = {
    "empty-box": _build_empty_box,
    "wall-with-aperture": _build_divided_rooms,
    "maze": _build_maze,
    "coupled-rooms": _build_divided_rooms,
    "cylinder-forest": _build_cylinder_forest,
}


def build_scene(spec: SceneSpec) -> VoxelScene:
    """Construct the deterministic scene described by ``spec``.

    The returned scene carries the region annotation map and the per-region
    acoustic constants needed by the synthetic-field oracle. A geometry
    key the kind does not read is a ``ConfigurationError``.
    """
    for key in spec.geometry:
        if key != GEOMETRY_KEY.get(spec.kind):
            raise ConfigurationError(f"geometry key {key!r} does not apply to scene kind {spec.kind!r}")
    occ, split = _BUILDERS[spec.kind](spec)
    reg = None
    if split is not None:
        reg = np.ones(spec.dims, dtype=np.int32)
        reg[split:] = 2
    return VoxelScene(
        dims=tuple(spec.dims),
        spacing=float(spec.spacing),
        origin=np.asarray(spec.origin, dtype=float),
        occupancy=occ,
        regions=reg,
        region_params=dict(_DEFAULT_REGIONS[spec.kind]),
    )


def _voxel_cells(c: np.ndarray, dims) -> np.ndarray:
    """Voxel index of each point in the bounding box with cell coordinates
    ``c = (p - origin) / spacing + 0.5`` (shape ``(..., 3)``), in which
    voxel ``(i, j, k)`` spans ``[i, i+1) x [j, j+1) x [k, k+1)``: a point on
    the face between two voxels belongs to the one with the higher index, a
    point on an outer face of the grid to the voxel behind it, also where
    the rounding of ``c`` puts it just outside ``[0, dims]``. The one
    point-to-voxel rule; its callers all divide by ``spacing`` (a product
    with ``1 / spacing`` floors differently on some faces)."""
    return np.minimum(np.maximum(np.floor(c).astype(np.int64), 0), np.asarray(dims) - 1)


def _segment_cells(scene: VoxelScene, ends: np.ndarray):
    """Cell coordinates of segment endpoints ``ends`` (shape ``(..., 3)``)
    and the voxel each lies in.

    The cell coordinates and the voxel are those of ``_voxel_cells``.
    """
    if not np.all(np.isfinite(ends)):
        raise InputError("line-of-sight endpoints must be finite")
    if not scene.contains(ends):
        raise InputError("line-of-sight endpoints must lie inside the scene")
    c = (ends - scene.origin) / scene.spacing + 0.5
    return c, _voxel_cells(c, scene._dims)


def lines_of_sight(scene: VoxelScene, p, q) -> np.ndarray:
    """True for each segment from ``p`` to ``q`` that crosses no occupied
    voxel, as a bool array.

    ``q`` holds the ``m`` end points, shape ``(m, 3)``; ``p`` is one start
    point shared by every ray or ``m`` per-ray start points. Traversal is an
    incremental voxel walk (3D DDA, Amanatides & Woo) in cell coordinates.
    A voxel blocks if the closed segment touches its closed cube, so exact
    edge or corner grazing resolves to "blocked"; this is conservative and
    prevents leakage across diagonal wall seams. Endpoints inside an
    occupied voxel yield ``False`` rather than an error.

    Raises
    ------
    InputError
        An endpoint is not finite or lies outside the scene.
    """
    q = np.asarray(q, dtype=float)
    (a, b), (start, end) = _segment_cells(
        scene, np.stack(np.broadcast_arrays(np.asarray(p, dtype=float), q))
    )
    return _walk(scene, a, b, start, end)


def _walk(scene: VoxelScene, a, b, start, end) -> np.ndarray:
    """``lines_of_sight`` of the ``(m, 3)`` segments from cell coordinates
    ``a`` to ``b``, whose voxels ``start`` and ``end`` lie in the grid; the
    endpoints are not checked again.

    All rays walk in lockstep, one numpy step per voxel crossing for the
    rays still walking, on flat indices into the scene's padded label grid.
    Their per-axis state is held as ``(3, m)`` rows, one row per axis.
    """
    labels, strides = scene._labels, scene._strides
    cur, stop = (start + 1) @ strides, (end + 1) @ strides
    out = np.zeros(len(a), dtype=bool)
    clear = (labels[cur] != _OCCUPIED) & (labels[stop] != _OCCUPIED)
    out[clear & (cur == stop)] = True

    d = np.subtract(b.T, a.T, order="C")
    moving = d != 0
    step = np.sign(d).astype(np.int64) * strides[:, None]
    t_max = np.full(d.shape, np.inf)
    np.divide((start.T + (d > 0)) - a.T, d, out=t_max, where=moving)
    # A still axis keeps t_max = inf and never ties; its t_delta is 0, so
    # the advance ``t_delta * ties`` adds 0 there and never makes inf * 0.
    t_delta = np.zeros(d.shape)
    np.divide(1.0, d, out=t_delta, where=moving)
    np.abs(t_delta, out=t_delta)

    rays = np.flatnonzero(clear & (cur != stop))
    cur, stop = cur[rays], stop[rays]
    t_max, t_delta, step = (x.take(rays, axis=1) for x in (t_max, t_delta, step))
    while rays.size:
        t_min = t_max.min(axis=0)
        past_end = t_min > 1.0 + _TIE_EPS
        walking = ~past_end
        ties = t_max - t_min <= _TIE_EPS
        # Edge or corner crossings: every voxel adjacent to the crossing is
        # touched, and an occupied one blocks.
        grazing = np.flatnonzero((ties.sum(axis=0, dtype=np.uint8) > 1) & walking)
        if grazing.size:
            applies = (ties.take(grazing, axis=1) | ~_PROBE_MASK[:, :, None]).all(axis=1)
            cells = cur[grazing] + _PROBE_MASK @ step.take(grazing, axis=1)
            walking[grazing] = ~(applies & (labels[cells] == _OCCUPIED)).any(axis=0)
        cur = cur + (step * ties).sum(axis=0)
        t_max += t_delta * ties
        label = labels[cur]
        keep = walking & (label == _FREE) & (cur != stop)
        if keep.all():
            continue
        # Clear once a ray passes its end, leaves the grid or enters its
        # end voxel.
        arrived = (label == _OUTSIDE) | ((label == _FREE) & (cur == stop))
        out[rays[past_end | (walking & arrived)]] = True
        rays, cur, stop, t_max, t_delta, step = (
            x.compress(keep, axis=-1) for x in (rays, cur, stop, t_max, t_delta, step)
        )
    return out


def visible_voxels(scene: VoxelScene, p) -> np.ndarray:
    """Boolean mask of voxels whose centers are visible from ``p``.

    Occupied voxels are always ``False``. If ``p`` sits inside an occupied
    voxel the whole mask is ``False`` (defined fallback, not an error).
    """
    p = np.asarray(p, dtype=float)
    if not scene.contains(p):
        raise InputError("query point outside the scene bounding box")
    mask = np.zeros(scene.dims, dtype=bool)
    if not scene.occupancy[scene.voxel_of(p)]:
        idx = scene.free_indices()
        mask[tuple(idx.T)] = lines_of_sight(scene, p, scene.voxel_center(idx))
    return mask
