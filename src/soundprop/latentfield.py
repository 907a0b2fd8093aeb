"""Trainable latent grids and visibility-masked trilinear interpolation.

Latent vectors live at voxel centers, so the interpolation lattice coincides
with the receiver grid. Sampling between vertices uses standard trilinear
weights, except that vertices without line of sight to the query point (or
inside obstacles) are excluded and the surviving weights renormalized. This
keeps interpolated values from leaking across walls.

One batched core, ``interp_points``, finds the stencils of many points at
once. Its ``InterpBatch`` samples latents or scalar field volumes at those
points (``sample``) and scatters gradients back onto the grid
(``backward``, the adjoint of ``sample``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, IsolationError
from .scene import _FREE, _OCCUPIED, _OUTSIDE, _voxel_cells, _walk, VoxelScene

# Corner offsets of one interpolation cell, x fastest.
_CORNERS = np.array(
    [(i, j, k) for k in (0, 1) for j in (0, 1) for i in (0, 1)], dtype=int
)
_FALLBACK_SHELLS = 2  # deeper isolation is a scene-authoring error
# Vertex offsets of the fallback search in C order, and their shell radius.
_SHELL_OFFSETS = np.array(
    list(itertools.product(range(-_FALLBACK_SHELLS, _FALLBACK_SHELLS + 1), repeat=3))
)
_SHELL_RADIUS = np.abs(_SHELL_OFFSETS).max(axis=1)

# Per-point outcome of ``interp_points``, and the outcome of a point in a
# cell of each label of the scene's padded grid.
RESOLVED, OUTSIDE, OCCUPIED, ISOLATED = 0, 1, 2, 3
_STATUS_OF_LABEL = np.zeros(3, dtype=np.int8)
_STATUS_OF_LABEL[[_FREE, _OCCUPIED, _OUTSIDE]] = RESOLVED, OCCUPIED, OUTSIDE


@dataclass(frozen=True)
class LatentGrid:
    """Grid of trainable latent vectors, one per voxel center.

    Attributes
    ----------
    values : ndarray, shape (nx, ny, nz, n)
        Latent vector per vertex. Vertices inside obstacles carry storage
        but are never selected by interpolation and never updated.
    spacing, origin
        Copied from the scene the grid belongs to.
    """

    values: np.ndarray
    spacing: float
    origin: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 4 or v.shape[3] < 1:
            raise InputError(f"latent grid must have shape (nx, ny, nz, n), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InputError("latent grid contains non-finite values")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))

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
    return LatentGrid(values=values, spacing=scene.spacing, origin=scene.origin)


@dataclass(frozen=True)
class InterpBatch:
    """Masked-interpolation stencils of ``N`` query points.

    ``corners`` holds ``(N, 8, 3)`` vertex indices and ``weights`` their
    ``(N, 8)`` renormalized weights, zero on the slots that do not
    contribute. ``status`` says per point whether it resolved or why not
    (``RESOLVED``, ``OUTSIDE``, ``OCCUPIED``, ``ISOLATED``); an unresolved
    point has all-zero weights.
    """

    corners: np.ndarray
    weights: np.ndarray
    status: np.ndarray

    def sample(self, data: np.ndarray) -> np.ndarray:
        """``(N, c)`` weighted sums of the per-vertex rows of ``data``
        (shape ``(nx, ny, nz, c)``); NaN rows for unresolved points."""
        c = self.corners
        rows = data[c[..., 0], c[..., 1], c[..., 2]]
        rows = np.where(self.weights[..., None] > 0.0, rows, 0.0)  # unused vertices may be NaN
        out = (self.weights[:, None, :] @ rows)[:, 0]
        out[self.status != RESOLVED] = np.nan
        return out

    def backward(self, upstream: np.ndarray, grad: np.ndarray) -> None:
        """Adjoint of ``sample``: add each point's ``(N, c)`` ``upstream``
        row, times its weights, to the stencil vertices of ``grad`` (shape
        ``(nx, ny, nz, c)``), in place."""
        row, slot = np.nonzero(self.weights > 0.0)
        np.add.at(grad, tuple(self.corners[row, slot].T), self.weights[row, slot, None] * upstream[row])

    def check(self, i: int, p) -> None:
        """Raise the error that says why point ``i`` (at ``p``) did not resolve."""
        status = self.status[i]
        if status == OUTSIDE:
            raise InputError(f"point {np.asarray(p).tolist()} outside the scene bounding box")
        if status == OCCUPIED:
            raise InputError("interpolation query inside an occupied voxel")
        if status == ISOLATED:
            raise IsolationError(
                f"no visible vertex within {_FALLBACK_SHELLS} shells of {np.asarray(p).tolist()}"
            )


def interp_points(scene: VoxelScene, points, value_mask: np.ndarray | None = None) -> InterpBatch:
    """Visibility-masked trilinear stencils of the ``(N, 3)`` ``points``.

    A cell corner contributes if its trilinear weight is positive, it is
    usable (free, and set in the optional ``value_mask``, e.g. finite field
    samples) and it sees the point; the surviving weights are
    renormalized. A point with no such corner falls back to the nearest
    usable vertex that sees it, in the lowest Chebyshev shell (radius 0 to
    2) around its nearest vertex, ties to the first in C order. The corner
    rays make one walk of ``scene.lines_of_sight``'s core, the fallback
    rays one more; neither checks the points again.
    Unresolvable points are reported in ``status``, not raised.
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
    usable = scene._free if value_mask is None else scene._free & value_mask

    base = np.clip(np.floor(v).astype(int), 0, dims - 2)
    t = np.clip(v - base, 0.0, 1.0)
    corners = base[:, None, :] + _CORNERS
    f = np.where(_CORNERS == 1, t[:, None, :], 1.0 - t[:, None, :])
    w = f[..., 0] * f[..., 1] * f[..., 2]

    row, slot = np.nonzero((w > 0.0) & usable[tuple(corners.T)].T & ok[:, None])
    keep = np.zeros(w.shape, dtype=bool)
    keep[row, slot] = _sees(scene, corners[row, slot], v[row], voxel[row])
    w = np.where(keep, w, 0.0)
    total = w.sum(axis=1)
    hit = total > 0.0
    w[hit] /= total[hit, None]

    lost = np.flatnonzero(ok & ~hit)
    if lost.size:
        vertex, found = _nearest_visible_vertex(scene, P[lost], v[lost], voxel[lost], usable)
        w[lost[found], 0] = 1.0
        corners[lost[found], 0] = vertex[found]
        status[lost[~found]] = ISOLATED
    return InterpBatch(corners=corners, weights=w, status=status)


def _sees(scene: VoxelScene, vertices: np.ndarray, v: np.ndarray, voxel: np.ndarray) -> np.ndarray:
    """Line of sight from each vertex centre to its point, given the
    point's ``(p - origin) / spacing`` and its voxel: the point's checks
    and placement are the ones ``interp_points`` already made."""
    a = (scene.voxel_center(vertices) - scene.origin) / scene.spacing + 0.5
    return _walk(scene, a, v + 0.5, vertices, voxel)


def _nearest_visible_vertex(scene: VoxelScene, P: np.ndarray, v: np.ndarray, voxel: np.ndarray,
                            usable: np.ndarray):
    """Fallback vertex of each point in ``P`` (with ``v`` and ``voxel`` as
    in ``_sees``), and whether one was found."""
    dims = scene._dims
    cand = np.clip(np.rint(v).astype(int), 0, dims - 1)[:, None, :] + _SHELL_OFFSETS
    valid = np.all((cand >= 0) & (cand < dims), axis=2)
    cand = np.clip(cand, 0, dims - 1)
    valid &= usable[tuple(cand.T)].T
    row, slot = np.nonzero(valid)
    seen = np.zeros(valid.shape, dtype=bool)
    seen[row, slot] = _sees(scene, cand[row, slot], v[row], voxel[row])
    shell = np.where(seen, _SHELL_RADIUS, _FALLBACK_SHELLS + 1).min(axis=1)
    d = np.linalg.norm(scene.voxel_center(cand) - P[:, None, :], axis=2)
    d = np.where(seen & (_SHELL_RADIUS == shell[:, None]), d, np.inf)
    pick = d.argmin(axis=1)  # the first of equals, in C order
    return cand[np.arange(len(P)), pick], seen.any(axis=1)
