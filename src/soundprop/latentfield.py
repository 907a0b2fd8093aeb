"""Trainable latent grids and visibility-masked trilinear interpolation.

Latent vectors live at voxel centers, so the interpolation lattice coincides
with the receiver grid. Sampling between vertices uses standard trilinear
weights, except that vertices without line of sight to the query point (or
inside obstacles) are excluded and the surviving weights renormalized. This
keeps interpolated values from leaking across walls.

One batched core, ``interp_points``, finds the stencils of many points at
once. Its ``InterpBatch`` samples latents or scalar field volumes at those
points (``sample``).

A point in a free voxel always resolves: that voxel's centre is one of
its cell corners, within half a voxel of the point on every axis, so its
trilinear weight is at least 1/8, and it sees the point, since the ray
between them stays in one free voxel. No fallback search is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .scene import _FREE, _OCCUPIED, _OUTSIDE, _voxel_cells, _walk, VoxelScene

# Corner offsets of one interpolation cell, x fastest.
_CORNERS = np.array(
    [(i, j, k) for k in (0, 1) for j in (0, 1) for i in (0, 1)], dtype=int
)


def _chain_table() -> np.ndarray:
    """``_CHAIN[pv, code, c]``: the corners that the ray from corner ``c``
    to a point in the voxel of corner ``pv`` visits before ``pv``, as three
    corner ids ``i + 2j + 4k``, ``c`` first; one repeats where it visits
    fewer.

    The ray flips the axes where ``c`` and ``pv`` differ, in ascending
    order of the point's offsets from its voxel centre. ``code`` orders
    them: bit 0 says the x offset exceeds the y one, bit 1 y over z, bit 2
    x over z. The corners are ``c`` with none, its first and its first two
    axes of that order set to ``pv``'s."""
    masks = []
    for code in range(8):
        gt0, gt1, gt2 = (code >> k & 1 for k in range(3))
        rank = (gt0 + gt2, 1 - gt0 + gt1, 2 - gt1 - gt2)
        first, second, _ = sorted(range(3), key=rank.__getitem__)
        masks.append((0, 1 << first, 1 << first | 1 << second))
    c = np.arange(8)[:, None]
    return c ^ ((c ^ c[:, :, None, None]) & np.array(masks)[:, None, :])


_CHAIN = _chain_table()
_BITS = np.array([1, 2, 4])
# Offset pairs compared for the chain order, and the margin within which a
# point's offsets tie or touch a face: such a point's corners are walked.
# The margin keeps every table crossing far outside the walker's 1e-9 tie
# band, so the table and the walk agree bit for bit.
_PAIR_A, _PAIR_B = [0, 1, 0], [1, 2, 2]
_NEAR = 1e-6

# Per-point outcome of ``interp_points``, and the outcome of a point in a
# cell of each label of the scene's padded grid.
RESOLVED, OUTSIDE, OCCUPIED = 0, 1, 2
_STATUS_OF_LABEL = np.zeros(3, dtype=np.int8)
_STATUS_OF_LABEL[[_FREE, _OCCUPIED, _OUTSIDE]] = RESOLVED, OCCUPIED, OUTSIDE


@dataclass(frozen=True)
class LatentGrid:
    """Grid of trainable latent vectors, one per voxel center.

    Attributes
    ----------
    values : ndarray, shape (nx, ny, nz, n)
        Latent vector per vertex. Vertices inside obstacles carry storage
        but are never selected by interpolation and never updated. The
        vertices sit at the voxel centres of the scene the grid belongs
        to, which holds their spacing and origin.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 4 or v.shape[3] < 1:
            raise InputError(f"latent grid must have shape (nx, ny, nz, n), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InputError("latent grid contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape[:3]

    @property
    def n(self) -> int:
        return self.values.shape[3]


def init_latent_grid(
    scene: VoxelScene, n: int, seed: int = 0, coord_scale: float = 1.0
) -> LatentGrid:
    """Fresh latent grid warm-started toward Euclidean structure.

    The first ``min(3, n)`` components hold the vertex coordinates relative
    to the scene center, multiplied by ``coord_scale`` (so pairwise latent
    distances start out proportional to physical straight-line distances).
    Remaining components are i.i.d. uniform in [-0.01, 0.01].
    """
    if n < 1:
        raise InputError("latent dimension must be >= 1")
    rng = np.random.default_rng(seed)
    nx, ny, nz = scene.dims
    values = rng.uniform(-0.01, 0.01, size=(nx, ny, nz, n))
    centers = scene.voxel_centers()
    mid = scene.origin + (np.asarray(scene.dims) - 1) * scene.spacing / 2.0
    nc = min(3, n)
    values[..., :nc] = (centers[..., :nc] - mid[:nc]) * coord_scale
    return LatentGrid(values=values)


@dataclass(frozen=True)
class InterpBatch:
    """Masked-interpolation stencils of ``N`` query points.

    ``corners`` holds ``(N, 8, 3)`` vertex indices and ``weights`` their
    ``(N, 8)`` renormalized weights, zero on the slots that do not
    contribute. ``status`` says per point whether it resolved or why not
    (``RESOLVED``, ``OUTSIDE``, ``OCCUPIED``); an unresolved
    point has all-zero weights.
    """

    corners: np.ndarray
    weights: np.ndarray
    status: np.ndarray

    def sample(self, data: np.ndarray) -> np.ndarray:
        """``(N, c)`` weighted sums of the per-vertex rows of ``data``
        (shape ``(nx, ny, nz, c)``); NaN rows for unresolved points."""
        ny, nz, c = data.shape[1:]
        rows = data.reshape(-1, c).take(self.corners @ (ny * nz, nz, 1), axis=0)
        rows = np.where(self.weights[..., None] > 0.0, rows, 0.0)  # unused vertices may be NaN
        out = (self.weights[:, None, :] @ rows)[:, 0]
        out[self.status != RESOLVED] = np.nan
        return out

    def check(self, i: int, p) -> None:
        """Raise the error that says why point ``i`` (at ``p``) did not resolve."""
        status = self.status[i]
        if status == OUTSIDE:
            raise InputError(f"point {np.asarray(p).tolist()} outside the scene bounding box")
        if status == OCCUPIED:
            raise InputError("interpolation query inside an occupied voxel")


def interp_points(scene: VoxelScene, points) -> InterpBatch:
    """Visibility-masked trilinear stencils of the ``(N, 3)`` ``points``.

    A point within 1e-9 voxel of its voxel's centre on every axis reads
    that voxel alone. Elsewhere a cell corner contributes if its trilinear
    weight is positive, it is free and it sees the point; the surviving
    weights are renormalized. A corner ray stays in the point's cell, so
    whether it sees the point is read from ``_CHAIN``; only the corner
    rays of the points whose offsets tie or near a face walk
    ``scene.lines_of_sight``'s core, one walk each, which does not check
    the points again. A point in a free voxel always resolves (see the
    module docstring); points outside the scene or in an occupied voxel
    are reported in ``status``, not raised.
    """
    P = np.asarray(points, dtype=float).reshape(-1, 3)
    dims = scene._dims
    inside = scene._inside(P)
    P = np.where(inside[:, None], P, scene.origin)  # keep rejected points out of the arithmetic
    v = (P - scene.origin) / scene.spacing
    voxel = _voxel_cells(v + 0.5, dims)
    label = np.where(inside, scene._labels[(voxel + 1) @ scene._strides], _OUTSIDE)
    status = _STATUS_OF_LABEL[label]
    ok = status == RESOLVED

    base = np.minimum(np.maximum(np.floor(v).astype(int), 0), dims - 2)
    t = np.minimum(np.maximum(v - base, 0.0), 1.0)
    corners = base[:, None, :] + _CORNERS
    f = np.where(_CORNERS == 1, t[:, None, :], 1.0 - t[:, None, :])
    w = f[..., 0] * f[..., 1] * f[..., 2]

    # A corner sees the point when every corner of its chain is free; the
    # ray stays in the cell, so they are in the grid.
    beta = np.abs(v - voxel)
    order = beta[:, _PAIR_A] - beta[:, _PAIR_B]
    near = ((np.abs(order) <= _NEAR) | (beta >= 0.5 - _NEAR)).any(axis=1) & ok
    pv = (voxel - base) @ _BITS
    snap = None
    if near.any():  # a point on a voxel centre is near: its offsets tie
        snap = np.flatnonzero(near & (beta <= 1e-9).all(axis=1))
        near[snap] = False
    chain = _CHAIN[pv, (order > 0.0) @ _BITS]
    cells = ((base + 1) @ scene._strides)[:, None, None] + (_CORNERS @ scene._strides)[chain]
    free = scene._labels[cells] == _FREE
    keep = (w > 0.0) & free[..., 0] & ok[:, None]
    row, slot = np.nonzero(keep & near[:, None])
    keep &= free.all(axis=2)
    if row.size:
        keep[row, slot] = _sees(scene, corners[row, slot], v[row], voxel[row])
    w = np.where(keep, w, 0.0)
    if snap is not None:
        w[snap] = 0.0
        w[snap, pv[snap]] = 1.0
    total = w.sum(axis=1)
    w /= np.where(total > 0.0, total, 1.0)[:, None]  # the total is 0 only where unresolved
    return InterpBatch(corners=corners, weights=w, status=status)


def _sees(scene: VoxelScene, vertices: np.ndarray, v: np.ndarray, voxel: np.ndarray) -> np.ndarray:
    """Line of sight from each vertex centre to its point, given the
    point's ``(p - origin) / spacing`` and its voxel: the point's checks
    and placement are the ones ``interp_points`` already made."""
    a = (scene.voxel_center(vertices) - scene.origin) / scene.spacing + 0.5
    return _walk(scene, a, v + 0.5, vertices, voxel)
