"""Independent reference implementations that fast paths are tested against."""

import heapq
import math

import numpy as np

import soundprop as sp

_OFFSETS = [
    (di, dj, dk, math.sqrt(di * di + dj * dj + dk * dk))
    for di in (-1, 0, 1)
    for dj in (-1, 0, 1)
    for dk in (-1, 0, 1)
    if (di, dj, dk) != (0, 0, 0)
]


def heapq_geodesic(scene, source) -> np.ndarray:
    """Textbook Dijkstra over the 26-connected free-voxel graph.

    Seeds the source voxel with the offset to its center, like
    ``geodesic_field``; unreachable and occupied voxels hold NaN. Unlike
    scipy's Dijkstra it takes an arbitrary start cost, so it also checks
    off-centre sources exactly.
    """
    source = np.asarray(source, dtype=float)
    start = scene.voxel_of(source)
    nx, ny, nz = scene.dims
    occ = scene.occupancy
    h = scene.spacing
    dist = np.full(scene.dims, np.inf)
    start_cost = float(np.linalg.norm(source - scene.voxel_center(start)))
    dist[start] = start_cost
    heap = [(start_cost, *start)]
    while heap:
        d, i, j, k = heapq.heappop(heap)
        if d > dist[i, j, k]:
            continue
        for di, dj, dk, w in _OFFSETS:
            ni, nj, nk = i + di, j + dj, k + dk
            if not (0 <= ni < nx and 0 <= nj < ny and 0 <= nk < nz):
                continue
            if occ[ni, nj, nk]:
                continue
            nd = d + w * h
            if nd < dist[ni, nj, nk]:
                dist[ni, nj, nk] = nd
                heapq.heappush(heap, (nd, ni, nj, nk))
    return np.where(np.isfinite(dist), dist, np.nan)


def full_visibility_sources(scene, seed=0, init_count=20) -> list:
    """Adaptive source placement that casts a ray to every free voxel.

    The same placement rule as ``sample_sources``, with each source's full
    visibility mask OR-ed into the coverage.
    """
    rng = np.random.default_rng(seed)
    free = scene.free_indices()
    k = min(init_count, len(free))
    chosen = rng.choice(len(free), size=k, replace=False)
    sources = [scene.voxel_center(free[i]) for i in sorted(chosen)]

    covered = np.zeros(scene.dims, dtype=bool)
    for src in sources:
        covered |= sp.visible_voxels(scene, src)
    uncovered = scene.free_mask() & ~covered
    while uncovered.any():
        candidates = np.argwhere(uncovered)
        pick = candidates[rng.integers(len(candidates))]
        src = scene.voxel_center(pick)
        sources.append(src)
        covered |= sp.visible_voxels(scene, src)
        uncovered = scene.free_mask() & ~covered
    return sources


def per_bundle_query(bundles, a, b) -> dict:
    """Scalar outputs of a query that interpolates ``a`` and ``b`` afresh
    for every bundle, on that bundle's own scene.

    ``l_lr`` is derived from the early level and decay as in
    ``query_params``.
    """
    out = {"l_ds": np.nan, "l_er": np.nan, "tau_er": np.nan, "tau_lr": np.nan}
    for bundle in bundles.values():
        u = sp.interp_latent(bundle.grid, bundle.scene, a).latent
        v = sp.interp_latent(bundle.grid, bundle.scene, b).latent
        for head, values in bundle.head.predict(u[None, :], v[None, :]).items():
            out[head] = float(values[0])
    finite = np.isfinite(out["l_er"]) and out["tau_er"] > 0
    out["l_lr"] = sp.derive_l_lr(out["l_er"], out["tau_er"]) if finite else None
    return out
