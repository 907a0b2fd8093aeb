"""Trainable latent grids and visibility-masked trilinear interpolation.

Latent vectors live at voxel centers, so the interpolation lattice coincides
with the receiver grid. Sampling between vertices uses standard trilinear
weights, except that vertices without line of sight to the query point (or
inside obstacles) are excluded and the surviving weights renormalized. This
keeps interpolated values from leaking across walls.

The same masked-interpolation core is reused for sampling scalar field
volumes at continuous positions (see ``masked_interp``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, IsolationError
from .scene import VoxelScene, line_of_sight

# Corner offsets of one interpolation cell, x fastest.
_CORNERS = np.array(
    [(i, j, k) for k in (0, 1) for j in (0, 1) for i in (0, 1)], dtype=int
)
_FALLBACK_SHELLS = 2  # deeper isolation is a scene-authoring error


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


@dataclass(frozen=True)
class InterpResult:
    """Outcome of one masked interpolation.

    ``corners`` holds the (m, 3) vertex indices that contributed and
    ``weights`` their renormalized weights (sum 1).
    """

    latent: np.ndarray
    corners: np.ndarray
    weights: np.ndarray


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


def _cell_and_fractions(scene: VoxelScene, p: np.ndarray):
    """Base vertex index and in-cell fractions for point ``p``."""
    v = (p - scene.origin) / scene.spacing
    base = np.floor(v).astype(int)
    base = np.clip(base, 0, np.asarray(scene.dims) - 2)
    t = np.clip(v - base, 0.0, 1.0)
    return base, t


def masked_interp(
    data: np.ndarray,
    scene: VoxelScene,
    p,
    value_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visibility-masked trilinear sampling of per-vertex data at ``p``.

    Parameters
    ----------
    data : ndarray, shape (nx, ny, nz, c)
        Per-vertex values (latents or field channels).
    value_mask : optional bool ndarray, shape (nx, ny, nz)
        Additional usable-vertex mask (e.g. finite field samples). Vertices
        in occupied voxels are always excluded.

    Returns
    -------
    (value, corners, weights)
        ``value`` is the (c,) interpolated vector; ``corners`` the (m, 3)
        contributing vertex indices; ``weights`` their weights (sum 1).

    Raises
    ------
    InputError
        ``p`` outside the bounding box or inside an occupied voxel.
    IsolationError
        No visible usable vertex within the fallback shell search.
    """
    p = np.asarray(p, dtype=float)
    if not scene.contains(p):
        raise InputError(f"point {p.tolist()} outside the scene bounding box")
    if scene.occupancy[scene.voxel_of(p)]:
        raise InputError("interpolation query inside an occupied voxel")

    free = ~scene.occupancy
    usable = free if value_mask is None else (free & value_mask)

    base, t = _cell_and_fractions(scene, p)
    corners = base[None, :] + _CORNERS
    w = np.ones(8)
    for a in range(3):
        w *= np.where(_CORNERS[:, a] == 1, t[a], 1.0 - t[a])

    keep = np.zeros(8, dtype=bool)
    for c in range(8):
        if w[c] <= 0.0:
            continue
        i, j, k = corners[c]
        if not usable[i, j, k]:
            continue
        if line_of_sight(scene, scene.voxel_center(corners[c]), p):
            keep[c] = True

    if keep.any():
        corners = corners[keep]
        weights = w[keep] / w[keep].sum()
        value = weights @ data[corners[:, 0], corners[:, 1], corners[:, 2]]
        return value, corners, weights

    # All cell vertices excluded: fall back to the nearest visible vertex
    # within an expanding Chebyshev shell around the query point.
    center = np.rint((p - scene.origin) / scene.spacing).astype(int)
    center = np.clip(center, 0, np.asarray(scene.dims) - 1)
    for radius in range(_FALLBACK_SHELLS + 1):
        best = None
        lo = np.maximum(center - radius, 0)
        hi = np.minimum(center + radius, np.asarray(scene.dims) - 1)
        for i in range(lo[0], hi[0] + 1):
            for j in range(lo[1], hi[1] + 1):
                for k in range(lo[2], hi[2] + 1):
                    if max(abs(i - center[0]), abs(j - center[1]), abs(k - center[2])) != radius:
                        continue
                    if not usable[i, j, k]:
                        continue
                    c = scene.voxel_center((i, j, k))
                    d = float(np.linalg.norm(c - p))
                    if best is not None and d >= best[0]:
                        continue
                    if line_of_sight(scene, c, p):
                        best = (d, (i, j, k))
        if best is not None:
            idx = np.array([best[1]], dtype=int)
            return data[best[1]].astype(float).copy(), idx, np.array([1.0])
    raise IsolationError(
        f"no visible vertex within {_FALLBACK_SHELLS} shells of {p.tolist()}"
    )


def interp_latent(grid: LatentGrid, scene: VoxelScene, p) -> InterpResult:
    """Sample the latent field at ``p`` with visibility masking."""
    if grid.dims != scene.dims:
        raise InputError("latent grid dims do not match scene dims")
    value, corners, weights = masked_interp(grid.values, scene, p)
    return InterpResult(latent=value, corners=corners, weights=weights)


def interp_backward(result: InterpResult, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of ``interp_latent``.

    Returns the contributing vertex indices and, per vertex, the gradient
    ``weight * upstream`` to accumulate into the grid gradient.
    """
    upstream = np.asarray(upstream, dtype=float)
    return result.corners, result.weights[:, None] * upstream[None, :]

