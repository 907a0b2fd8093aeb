"""Independent reference implementations that fast paths are tested against."""

import heapq
import json
import math
import struct

import numpy as np

import soundprop as sp
from soundprop import fileio
from soundprop.errors import ConfigurationError, InputError, IsolationError
from soundprop.oracle import _DIFFRACTION_DB_PER_M, _L0_DB, FieldVolume
from soundprop.latentfield import (
    _STATUS_OF_LABEL, ISOLATED, RESOLVED, InterpBatch, _nearest_visible_vertex, _sees,
)
from soundprop.scene import (
    _FREE, _OCCUPIED, _OUTSIDE, _PROBE_MASK, _TIE_EPS, _TIE_PROBES, _segment_cells, _shell,
    _voxel_cells,
)
from soundprop.training import GROUP_HEADS, _source_stencils

from conftest import latent_at

_OFFSETS = [
    (di, dj, dk, math.sqrt(di * di + dj * dj + dk * dk))
    for di in (-1, 0, 1)
    for dj in (-1, 0, 1)
    for dk in (-1, 0, 1)
    if (di, dj, dk) != (0, 0, 0)
]


def line_of_sight(scene, p, q) -> bool:
    """True iff the segment from ``p`` to ``q`` crosses no occupied voxel.

    Traversal is an incremental voxel walk (3D DDA, Amanatides & Woo) in
    cell coordinates. A voxel blocks if the closed segment touches its
    closed cube, so exact edge or corner grazing resolves to "blocked";
    this is conservative and prevents leakage across diagonal wall seams.
    Endpoints inside an occupied voxel yield ``False`` rather than an error.

    The scalar walk, one segment at a time, that ``scene.lines_of_sight``
    batches: it starts from the same cell coordinates (``_segment_cells``)
    and makes the same comparisons, so the two agree bit for bit.
    """
    c, cell = _segment_cells(scene, np.array([p, q], dtype=float))
    occ = scene.occupancy
    nx, ny, nz = scene.dims
    # Plain Python floats keep the traversal loop free of numpy scalars.
    (ax, ay, az), (bx, by, bz) = c.tolist()
    (ix, iy, iz), (ex, ey, ez) = cell.tolist()
    if occ[ix, iy, iz] or occ[ex, ey, ez]:
        return False
    if ix == ex and iy == ey and iz == ez:
        return True
    dx, dy, dz = bx - ax, by - ay, bz - az

    step_x = 1 if dx > 0 else (-1 if dx < 0 else 0)
    step_y = 1 if dy > 0 else (-1 if dy < 0 else 0)
    step_z = 1 if dz > 0 else (-1 if dz < 0 else 0)

    inf = math.inf
    if step_x:
        t_max_x = ((ix + (step_x > 0)) - ax) / dx
        t_dx = abs(1.0 / dx)
    else:
        t_max_x, t_dx = inf, inf
    if step_y:
        t_max_y = ((iy + (step_y > 0)) - ay) / dy
        t_dy = abs(1.0 / dy)
    else:
        t_max_y, t_dy = inf, inf
    if step_z:
        t_max_z = ((iz + (step_z > 0)) - az) / dz
        t_dz = abs(1.0 / dz)
    else:
        t_max_z, t_dz = inf, inf

    while True:
        t_min = min(t_max_x, t_max_y, t_max_z)
        if t_min > 1.0 + _TIE_EPS:
            return True
        # Conservative tie handling: when the segment leaves the cell through
        # an edge or corner, every voxel adjacent to the crossing is touched.
        tie_x = t_max_x - t_min <= _TIE_EPS
        tie_y = t_max_y - t_min <= _TIE_EPS
        tie_z = t_max_z - t_min <= _TIE_EPS
        if tie_x + tie_y + tie_z > 1:
            for ox, oy, oz in _TIE_PROBES:
                if (ox and not tie_x) or (oy and not tie_y) or (oz and not tie_z):
                    continue
                px, py, pz = ix + ox * step_x, iy + oy * step_y, iz + oz * step_z
                if 0 <= px < nx and 0 <= py < ny and 0 <= pz < nz and occ[px, py, pz]:
                    return False
        if tie_x:
            ix += step_x
            t_max_x += t_dx
        if tie_y:
            iy += step_y
            t_max_y += t_dy
        if tie_z:
            iz += step_z
            t_max_z += t_dz
        if not (0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz):
            return True
        if occ[ix, iy, iz]:
            return False
        if ix == ex and iy == ey and iz == ez:
            return True


def row_walk(scene, a, b, start, end) -> np.ndarray:
    """``scene._walk`` with the rays' per-axis state held as ``(m, 3)``
    rows, reduced along the width-3 axis at every step: the same
    comparisons in the row layout, so the two agree bit for bit."""
    labels, strides = scene._labels, scene._strides
    cur, stop = (start + 1) @ strides, (end + 1) @ strides
    out = np.zeros(len(a), dtype=bool)
    clear = (labels[cur] != _OCCUPIED) & (labels[stop] != _OCCUPIED)
    out[clear & (cur == stop)] = True

    d = b - a
    moving = d != 0
    step = np.sign(d).astype(np.int64)
    t_max = np.full(d.shape, np.inf)
    np.divide((start + (d > 0)) - a, d, out=t_max, where=moving)
    t_delta = np.full(d.shape, np.inf)
    np.divide(1.0, d, out=t_delta, where=moving)
    np.abs(t_delta, out=t_delta)

    rays = np.flatnonzero(clear & (cur != stop))
    cur, stop = cur[rays], stop[rays]
    t_max, t_delta, step = t_max[rays], t_delta[rays], step[rays] * strides
    while rays.size:
        t_min = t_max.min(axis=1)
        past_end = t_min > 1.0 + _TIE_EPS
        walking = ~past_end
        ties = t_max - t_min[:, None] <= _TIE_EPS
        grazing = np.flatnonzero((ties.sum(axis=1) > 1) & walking)
        if grazing.size:
            applies = (ties[grazing, None, :] | ~_PROBE_MASK).all(axis=2)
            cells = cur[grazing, None] + step[grazing] @ _PROBE_MASK.T
            walking[grazing] = ~(applies & (labels[cells] == _OCCUPIED)).any(axis=1)
        cur = cur + (ties * step).sum(axis=1)
        t_max = np.where(ties, t_max + t_delta, t_max)
        label = labels[cur]
        keep = walking & (label == _FREE) & (cur != stop)
        if keep.all():
            continue
        arrived = (label == _OUTSIDE) | ((label == _FREE) & (cur == stop))
        out[rays[past_end | (walking & arrived)]] = True
        rays, cur, stop = rays[keep], cur[keep], stop[keep]
        t_max, t_delta, step = t_max[keep], t_delta[keep], step[keep]
    return out


# Corner offsets of one interpolation cell, x fastest.
_CORNERS = np.array([(i, j, k) for k in (0, 1) for j in (0, 1) for i in (0, 1)], dtype=int)
_FALLBACK_SHELLS = 2


def masked_interp(data, scene, p, value_mask=None):
    """Visibility-masked trilinear sampling of ``data`` at one point, vertex
    by vertex with ``line_of_sight``: the reference for
    ``latentfield.interp_points``.

    Returns ``(value, corners, weights)`` over the contributing vertices.
    Cell corners of positive trilinear weight that are usable and see
    ``p`` share the weight, renormalized; when there is none, the nearest
    usable vertex that sees ``p`` in the lowest Chebyshev shell (radius 0
    to 2) around the nearest vertex takes it all, ties to the first in C
    order. Raises ``InputError`` for a point outside the scene or inside
    an obstacle and ``IsolationError`` when no vertex qualifies.
    """
    p = np.asarray(p, dtype=float)
    if not scene.contains(p):
        raise InputError(f"point {p.tolist()} outside the scene bounding box")
    if scene.occupancy[scene.voxel_of(p)]:
        raise InputError("interpolation query inside an occupied voxel")

    free = ~scene.occupancy
    usable = free if value_mask is None else (free & value_mask)

    v = (p - scene.origin) / scene.spacing
    base = np.clip(np.floor(v).astype(int), 0, np.asarray(scene.dims) - 2)
    t = np.clip(v - base, 0.0, 1.0)
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
    raise IsolationError(f"no visible vertex within {_FALLBACK_SHELLS} shells of {p.tolist()}")


def walk_interp_points(scene, points, value_mask=None):
    """``latentfield.interp_points`` with every corner ray walked: the
    reference for its chain-table visibility.

    A point within 1e-9 voxel of a usable voxel centre on every axis takes
    weight 1 on the cell corner that is that voxel. Elsewhere a cell corner
    contributes if its trilinear weight is positive, it is usable and
    ``scene._walk`` sees the point from it; the surviving weights are
    renormalized, and a point with no such corner falls back as in
    ``interp_points``.
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

    centre = ok & (np.abs(v - voxel) <= 1e-9).all(axis=1)
    centre[centre] = usable[tuple(voxel[centre].T)]
    row, slot = np.nonzero((w > 0.0) & usable[tuple(corners.T)].T & (ok & ~centre)[:, None])
    keep = np.zeros(w.shape, dtype=bool)
    keep[row, slot] = _sees(scene, corners[row, slot], v[row], voxel[row])
    w = np.where(keep, w, 0.0)
    w[centre] = (corners[centre] == voxel[centre, None]).all(axis=2)
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


def marked_geodesic(scene, source) -> np.ndarray:
    """``geodesic_field`` as a filtered frontier sweep: each sweep keeps
    only the offers below the current distance, and its next frontier is
    the sorted set of offered voxels, read off a mark array that is cleared
    again after each sweep. NaN where no path reaches."""
    source = np.asarray(source, dtype=float)
    start = scene.voxel_of(source)
    dist = np.where(scene._labels == _FREE, np.inf, -np.inf)
    strides = np.array([(di, dj, dk) for di, dj, dk, _ in _OFFSETS]) @ scene._strides
    steps = np.array([w * scene.spacing for *_, w in _OFFSETS])
    s = (np.array(start) + 1) @ scene._strides
    dist[s] = float(np.linalg.norm(source - scene.voxel_center(start)))
    frontier = np.array([s])
    mark = np.zeros(dist.size, dtype=bool)
    while frontier.size:
        targets = (frontier[:, None] + strides).ravel()
        cand = (dist[frontier][:, None] + steps).ravel()
        better = cand < dist[targets]
        targets, cand = targets[better], cand[better]
        np.minimum.at(dist, targets, cand)
        mark[targets] = True
        frontier = np.flatnonzero(mark)
        mark[frontier] = False
    dist = dist.reshape(tuple(n + 2 for n in scene.dims))[1:-1, 1:-1, 1:-1]
    return np.where(np.isfinite(dist), dist, np.nan)


def loop_synth_fields(scene, source, geo) -> dict:
    """``synth_acoustic_fields`` from the whole-grid centre table
    (``voxel_centers``, ``np.linalg.norm``), two ``log10`` calls and one
    masked fill per region id."""
    source = np.asarray(source, dtype=float)
    pi = geo.values
    valid = np.isfinite(pi)
    h = scene.spacing
    straight = np.linalg.norm(scene.voxel_centers() - source, axis=-1)

    floor_pi = np.maximum(pi, h)
    with np.errstate(invalid="ignore"):
        l_ds = _L0_DB - 20.0 * np.log10(floor_pi) - _DIFFRACTION_DB_PER_M * (pi - straight)

    ids = np.unique(scene.regions[valid & scene.free_mask()])
    l_er_ref = np.full(scene.dims, np.nan)
    tau_er = np.full(scene.dims, np.nan)
    tau_lr = np.full(scene.dims, np.nan)
    for rid in ids:
        params = scene.region_params.get(int(rid))
        if params is None:
            raise ConfigurationError(f"missing acoustic constants for region {rid}")
        sel = scene.regions == rid
        l_er_ref[sel] = params.l_er_ref
        tau_er[sel] = params.tau_er
        tau_lr[sel] = params.tau_lr
    with np.errstate(invalid="ignore"):
        l_er = l_er_ref - 10.0 * np.log10(floor_pi)

    def _vol(kind, vals):
        vals = np.where(valid, vals, np.nan)
        return FieldVolume(source=source, kind=kind, values=vals, spacing=h, origin=scene.origin)

    return {
        "l_ds": _vol("level", l_ds),
        "l_er": _vol("level", l_er),
        "tau_er": _vol("decay-time", tau_er),
        "tau_lr": _vol("decay-time", tau_lr),
    }


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


def per_source_sampler(scene, seed=0, init_count=20):
    """``sample_sources`` with each initial source casting rays to the
    still-uncovered free voxels in turn, one ``visible_voxels`` call per
    source. Returns the sources and the mask of free voxels that no
    initial source sees."""
    rng = np.random.default_rng(seed)
    free = scene.free_indices()
    k = min(init_count, len(free))
    chosen = rng.choice(len(free), size=k, replace=False)
    sources = [scene.voxel_center(free[i]) for i in sorted(chosen)]

    uncovered = scene.free_mask()
    for src in sources:
        uncovered &= ~sp.visible_voxels(scene, src)
    after_initial = uncovered.copy()
    while uncovered.any():
        candidates = np.argwhere(uncovered)
        pick = candidates[rng.integers(len(candidates))]
        src = scene.voxel_center(pick)
        sources.append(src)
        uncovered &= ~sp.visible_voxels(scene, src)
    return sources, after_initial


def per_bundle_query(bundles, a, b) -> dict:
    """Scalar outputs of a query that interpolates ``a`` and ``b`` afresh
    for every bundle, on that bundle's own scene.

    ``l_lr`` is derived from the early level and decay as in
    ``query_params``.
    """
    out = {"l_ds": np.nan, "l_er": np.nan, "tau_er": np.nan, "tau_lr": np.nan}
    for bundle in bundles.values():
        u, v = (latent_at(bundle.grid, bundle.scene, p) for p in (a, b))
        for head, values in bundle.head.predict(u[None, :], v[None, :]).items():
            out[head] = float(values[0, 0])
    finite = np.isfinite(out["l_er"]) and out["tau_er"] > 0
    out["l_lr"] = sp.derive_l_lr(out["l_er"], out["tau_er"]) if finite else None
    return out


def masked_sigmoid(x):
    """Logistic function by boolean masks: ``1 / (1 + e^-x)`` where
    ``x >= 0``, ``e^x / (1 + e^x)`` elsewhere."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def masked_norm_adjoint(y, upstream):
    """Adjoint of the row norm ``|y|`` by boolean masks, the norm taken
    afresh: ``upstream * y / |y|``, zero where ``|y| == 0``."""
    upstream = np.atleast_1d(np.asarray(upstream, dtype=float))
    d = np.linalg.norm(y, axis=1)
    scale = np.zeros_like(d)
    nz = d > 0
    scale[nz] = upstream[nz] / d[nz]
    return y * scale[:, None]


def norm_decode(decoder, U, V, upstream):
    """A decoder's ``(B, R)`` block outputs and its adjoint for the
    ``(B, R)`` ``upstream`` in the forms that take each pair's row norm with
    ``np.linalg.norm`` on flat pair rows and sum the pairs' gradients by
    source and by receiver: ``(out, gU, gV, grads)``. The reference for the
    decoders' ``einsum`` row norms; the MLP and dot-product decoders reduce
    no row norm and run their own ``forward``/``backward``."""
    U, V = np.atleast_2d(U), np.atleast_2d(V)
    if decoder.family not in ("euclidean", "riemann-psd", "riemann-diag"):
        out, cache = decoder.forward(U, V)
        return (out, *decoder.backward(cache, upstream))
    (B, n), R = U.shape, len(V)
    Up, Vp = np.repeat(U, R, axis=0), np.tile(V, (B, 1))
    upstream = np.broadcast_to(upstream, (B, R)).reshape(-1)
    delta, M = Up - Vp, 0.5 * (Up + Vp)
    grads = {}
    if decoder.family == "euclidean":
        y = delta
        g_delta = masked_norm_adjoint(delta, upstream)
        gm = np.zeros_like(delta)
    elif decoder.family == "riemann-diag":
        lam = 1.0 + M @ decoder.weights.T
        y = lam * delta
        gy = masked_norm_adjoint(y, upstream)
        g_delta, g_lam = lam * gy, delta * gy
        gm, grads["weights"] = g_lam @ decoder.weights, g_lam.T @ M
    else:
        A = (M @ decoder.weights.T).reshape(-1, n, n) + np.eye(n)
        y = np.einsum("bij,bj->bi", A, delta)
        gy = masked_norm_adjoint(y, upstream)
        g_delta = np.einsum("bij,bi->bj", A, gy)
        gA = np.einsum("bi,bj->bij", gy, delta)
        gm = gA.reshape(-1, n * n) @ decoder.weights
        grads["weights"] = np.einsum("bij,bk->ijk", gA, M).reshape(n * n, n)
    gU, gV = (g_delta + 0.5 * gm).reshape(B, R, n), (-g_delta + 0.5 * gm).reshape(B, R, n)
    return np.linalg.norm(y, axis=1).reshape(B, R), gU.sum(axis=1), gV.sum(axis=0), grads


def levels_decode(model, U, V, upstream):
    """``LevelsModel`` block outputs and gradients with ``norm_decode`` for
    the decoder and the ``w`` gradient as column sums ``(U * up[:,
    None]).sum(0)`` of each side's upstream sums: ``(out, gU, gV, grads)``.
    The projection is one matrix product on both sides' rows, as in the
    head, so a one-row side gets the projected bits the head decodes."""
    U, V = np.atleast_2d(U), np.atleast_2d(V)
    shape = (len(U), len(V))
    up_ds, up_er = (np.broadcast_to(upstream[h], shape) for h in ("l_ds", "l_er"))
    w = model.w
    local = 0.5 * ((U @ w)[:, None] + (V @ w)[None, :]) + model.beta[0]
    er_U, er_V = up_er.sum(axis=1), up_er.sum(axis=0)
    grads = {"l0": np.array([up_ds.sum()]), "beta": np.array([up_er.sum()]),
             "w": 0.5 * ((U * er_U[:, None]).sum(0) + (V * er_V[:, None]).sum(0))}
    gU, gV = 0.5 * er_U[:, None] * w[None, :], 0.5 * er_V[:, None] * w[None, :]
    if model.proj is None:
        h, dU, dV, dP = norm_decode(model.decoder, U, V, np.stack([-up_ds, -up_er], axis=-1))
        h_ds, h_er = h[..., 0], h[..., 1]
    else:
        P = model.proj
        h_ds, dU, dV, dP = norm_decode(model.decoder, U, V, -up_ds)
        UV = np.vstack([U, V]) @ np.ascontiguousarray(P.T)
        h_er, pU, pV, pP = norm_decode(model.decoder, UV[: len(U)], UV[len(U) :], -up_er)
        grads["proj"] = pU.T @ U + pV.T @ V
        dU, dV = dU + pU @ P, dV + pV @ P
        dP = {name: g + pP[name] for name, g in dP.items()}
    grads.update({f"decoder.{name}": g for name, g in dP.items()})
    out = {"l_ds": model.l0[0] - h_ds, "l_er": local - h_er}
    return out, gU + dU, gV + dV, grads


def midpoint_diag_decode(decoder, U, V, upstream):
    """The ``riemann-diag`` block decode from per-pair midpoints: each pair's
    ``lambda = 1 + W m`` from its midpoint row ``m``, and the adjoint's
    per-pair midpoint gradient ``g_m = g_lambda W``, split half to each
    side, and weight gradient ``g_lambda^T M``: ``(out, gU, gV, gW)``. The
    differential oracle of ``DiagDecoder``'s per-side products."""
    U, V = np.atleast_2d(U), np.atleast_2d(V)
    (B, n), R = U.shape, len(V)
    U_pairs = np.repeat(U, R, axis=0).reshape(B, R, n)
    M = U_pairs + V
    M *= 0.5
    delta = np.subtract(U_pairs, V, out=U_pairs)
    M, delta = M.reshape(B * R, n), delta.reshape(B * R, n)
    lam = M @ decoder.weights.T
    lam += 1.0
    y = lam * delta
    d = np.sqrt(np.einsum("ij,ij->i", y, y))
    gy = masked_norm_adjoint(y, np.broadcast_to(upstream, (B, R)).reshape(-1))
    g_delta, g_lam = lam * gy, delta * gy
    half_gm = 0.5 * (g_lam @ decoder.weights)
    gU = (g_delta + half_gm).reshape(B, R, n).sum(axis=1)
    gV = (half_gm - g_delta).reshape(B, R, n).sum(axis=0)
    return d.reshape(B, R), gU, gV, g_lam.T @ M


class Adam:
    """Adam with one pair of moment arrays per parameter, each step written
    as plain array expressions."""

    def __init__(self, params, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lrs = lrs
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p -= self.lrs[name] * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_train(bundle, ds, cfg) -> list:
    """``training.train`` without eval, in place on ``bundle``, from the
    parts it replaced: each batch decodes with ``predict``, takes its
    gradients from a second, fresh ``forward`` (``backward(forward(U,
    V)[1], up)``), keeps its truths, residuals and denominators as flat
    (source, receiver) rows, sums receiver gradients with one ``bincount``
    per channel and steps the per-parameter ``Adam`` on the full grid.
    The sources of a batch that share their receivers decode as one block,
    sets in order of first appearance. Returns the epoch losses."""
    scene = bundle.scene
    heads = GROUP_HEADS[bundle.group]
    prepared = []  # per source: flat receiver indices, {head: truth rows}
    for fields in ds.fields:
        valid = scene.free_mask()
        for h in heads:
            valid &= fields[h].valid_mask()
        prepared.append((np.flatnonzero(valid), {h: fields[h].values[valid] for h in heads}))
    stencils = _source_stencils(scene, ds.sources)
    counts = np.array([len(r) for r, _ in prepared])
    n_vertices, n = scene.occupancy.size, bundle.grid.n

    def scatter(index, rows, size):
        return np.stack([np.bincount(index, weights=col, minlength=size) for col in rows.T], axis=1)

    params = bundle.trainable()
    lrs = {name: (cfg.lr_grid if name == "grid" else cfg.lr_decoder) for name in params}
    opt = Adam(params, lrs)
    rng = np.random.default_rng(cfg.seed)
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(prepared))
        total, n_batches = 0.0, 0
        for b0 in range(0, len(order), cfg.batch_sources):
            batch = order[b0 : b0 + cfg.batch_sources]
            blocks = {}  # receiver set -> its sources, in batch order
            for i in batch:
                blocks.setdefault(prepared[i][0].tobytes(), []).append(i)
            latents = stencils.sample(bundle.grid.values)
            grid = bundle.grid.values.reshape(n_vertices, n)
            grads, loss = {"grid": np.zeros((n_vertices, n))}, 0.0
            for sources in blocks.values():
                rows = prepared[sources[0]][0]
                U, V = latents[sources], grid[rows]
                denom = np.repeat(counts[sources] * (len(heads) * len(batch)), counts[sources])
                preds = bundle.head.predict(U, V)
                up = {}
                for h in heads:
                    r = preds[h].reshape(-1) - np.concatenate([prepared[i][1][h] for i in sources])
                    loss += float(np.sum(r * r / denom))
                    up[h] = (2.0 * r / denom).reshape(len(sources), len(rows))
                _, gV, block_grads = bundle.head.backward(bundle.head.forward(U, V)[1], up)
                grads["grid"] += scatter(rows, gV, n_vertices)
                for name, g in block_grads.items():
                    grads[name] = grads[name] + g if name in grads else g
            grads["grid"] = grads["grid"].reshape(bundle.grid.values.shape)
            grads["grid"][scene.occupancy] = 0.0
            opt.step(grads)
            total += loss
            n_batches += 1
        losses.append(total / n_batches)
    return losses


def select_from_every_eval(bundle, train_ds, cfg, val_ds) -> int:
    """``training.train`` with the selection it made from a list of
    snapshots: one snapshot per eval, collected through ``on_eval``, then
    the eval with the lowest mean validation MAE, the earliest on ties,
    restored into ``bundle``. Returns that eval's epoch."""
    snapshots = {}
    result = sp.train(bundle, train_ds, cfg, val_ds=val_ds,
                      on_eval=lambda epoch: snapshots.setdefault(epoch, bundle.snapshot()))
    scored = [(epoch, mae) for epoch, _, _, mae in result.history if epoch in snapshots]
    best = scored[0]
    for epoch, mae in scored[1:]:
        if mae < best[1]:
            best = (epoch, mae)
    bundle.restore(snapshots[best[0]])
    return best[0]


def per_source_train(bundle, ds, cfg) -> None:
    """``training.train`` source by source, in place on ``bundle``: one
    decode, one backward and one ``np.add.at`` scatter per source, with the
    source stencil from the scalar ``masked_interp`` (its own voxel on a
    voxel centre). The reference for the stacked batches of ``train``."""
    scene = bundle.scene
    heads = GROUP_HEADS[bundle.group]
    prepared = []
    for src, fields in zip(ds.sources, ds.fields):
        idx = scene.voxel_of(src)
        if np.all(np.abs(scene.voxel_center(idx) - src) <= 1e-9 * scene.spacing):
            corners, weights = np.array([idx]), np.ones(1)
        else:
            _, corners, weights = masked_interp(np.zeros(scene.dims + (1,)), scene, src)
        valid = scene.free_mask()
        for h in heads:
            valid &= fields[h].valid_mask()
        prepared.append((corners, weights, np.argwhere(valid), {h: fields[h].values[valid] for h in heads}))
    params = bundle.trainable()
    lrs = {name: (cfg.lr_grid if name == "grid" else cfg.lr_decoder) for name in params}
    opt = Adam(params, lrs)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(prepared))
        for b0 in range(0, len(order), cfg.batch_sources):
            batch = order[b0 : b0 + cfg.batch_sources]
            grads = {name: np.zeros_like(p) for name, p in params.items()}
            for si in batch:
                corners, weights, recv, truths = prepared[si]
                u = weights @ bundle.grid.values[tuple(corners.T)]
                V = bundle.grid.values[tuple(recv.T)]
                preds, cache = bundle.head.forward(u[None, :], V)
                scale = len(recv) * len(heads) * len(batch)
                upstream = {h: 2.0 * (preds[h] - truths[h]) / scale for h in heads}
                _, gV, gP = bundle.head.backward(cache, upstream)
                np.add.at(grads["grid"], tuple(recv.T), gV)
                for name, g in gP.items():
                    grads[name] += g
            grads["grid"][scene.occupancy] = 0.0
            opt.step(grads)


def fd_derivative(c, p1, p2, m1, m2, h: float):
    """``irparams.fd_derivative`` as one ``np.select`` over the five
    stencil cases, first match wins; the fast path nests ``np.where`` on
    the same expressions."""
    has_p1, has_m1 = np.isfinite(p1), np.isfinite(m1)
    return np.select(
        [has_p1 & has_m1, has_p1 & np.isfinite(p2), has_p1,
         has_m1 & np.isfinite(m2), has_m1],
        [(p1 - m1) / (2.0 * h),
         (-3.0 * c + 4.0 * p1 - p2) / (2.0 * h),
         (p1 - c) / h,
         (3.0 * c - 4.0 * m1 + m2) / (2.0 * h),
         (c - m1) / h],
        0.0,
    )


def _wet_bus(x, irs, weights, n_out):
    """``x`` convolved with one bus's weight-blended tail, zero-padded to
    ``n_out`` samples: one FFT convolution."""
    used = [(ir.samples, w) for ir, w in zip(irs, weights) if w != 0.0]
    tail = np.zeros(max(t.size for t, _ in used))
    for t, w in used:
        tail[: t.size] += w * t
    n = x.size + tail.size - 1
    size = 1 << (n - 1).bit_length()
    bus = np.zeros(n_out)
    bus[:n] = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(tail, size), size)[:n]
    return bus


def render_two_buses(x, params, refs, layout):
    """``runtime.render_offline`` with one FFT convolution per wet bus,
    each scaled by its gain and spread by its own ``spatialize_wet``."""
    max_ref = max(ir.samples.size for ir in (*refs.er_irs, *refs.lr_irs))
    n_out = x.size + max_ref - 1
    out = np.zeros((layout.n_speakers, n_out))
    out[:, : x.size] += np.outer(sp.vbap_gains(params.doa, layout), params.dry * x)
    for gain, irs, weights in ((params.er_gain, refs.er_irs, params.er_weights),
                               (params.lr_gain, refs.lr_irs, params.lr_weights)):
        bus = gain * _wet_bus(x, irs, weights, n_out)
        out += np.outer(sp.spatialize_wet(sp.vbap_gains(params.doa, layout)), bus)
    return out


# The two divided-room builders as they were before they became one,
# ``scene._build_divided_rooms``; each returns the occupancy and the region
# map.


def build_wall_with_aperture(spec):
    nx, ny, nz = spec.dims
    aperture = int(spec.geometry.get("aperture", 1))
    occ = np.zeros(spec.dims, dtype=bool)
    _shell(occ)
    mid = nx // 2
    occ[mid, :, :] = True
    if aperture > 0:
        # Free column through the wall, centered in y and z.
        jc = ny // 2
        j0, j1 = jc - (aperture - 1) // 2, jc + aperture // 2 + 1
        j0, j1 = max(j0, 1), min(j1, ny - 1)
        kc = nz // 2
        k0, k1 = max(kc - (aperture - 1) // 2, 1), min(kc + aperture // 2 + 1, nz - 1)
        occ[mid, j0:j1, k0:k1] = False
    reg = np.ones(spec.dims, dtype=np.int32)
    reg[mid + 1 :, :, :] = 2
    return occ, reg


def build_coupled_rooms(spec):
    nx, ny, nz = spec.dims
    door = int(spec.geometry.get("door", 1))
    occ = np.zeros(spec.dims, dtype=bool)
    _shell(occ)
    mid = nx // 2
    occ[mid, :, :] = True
    if door > 0:
        jc = ny // 2
        kc = nz // 2
        j0, j1 = max(jc - (door - 1) // 2, 1), min(jc + door // 2 + 1, ny - 1)
        k0, k1 = max(kc - (door - 1) // 2, 1), min(kc + door // 2 + 1, nz - 1)
        occ[mid, j0:j1, k0:k1] = False
    reg = np.ones(spec.dims, dtype=np.int32)
    reg[mid:, :, :] = 2
    return occ, reg


# The array writers as they were before they streamed through
# ``fileio._write_f4``: each casts its whole payload at once and writes it
# as one ``bytes`` object.


def one_shot_write_field(path, fv) -> None:
    channels = 3 if fv.kind == "doa" else 1
    header = fileio.FIELD_MAGIC + fileio._FIELD_HEADER.pack(
        *fv.dims, fileio._KIND_CODES[fv.kind], channels, *fv.source, fv.spacing, *fv.origin
    )
    with open(path, "wb") as fh:
        fh.write(header)
        if channels == 1:
            fh.write(fv.values.astype("<f4").ravel(order="F").tobytes())
        else:
            for c in range(channels):
                fh.write(fv.values[..., c].astype("<f4").ravel(order="F").tobytes())


def one_shot_write_ir(path, samples, sample_rate, t0=0.0) -> None:
    samples = np.asarray(samples, dtype=float)
    channels = 1 if samples.ndim == 1 else samples.shape[0]
    header = (
        f"{fileio.IR_MAGIC.decode()}\nsample_rate={float(sample_rate)!r}\nt0={float(t0)!r}\n"
        f"channels={channels}\n\n"
    ).encode()
    data = samples if samples.ndim == 1 else samples.T.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.astype("<f4").tobytes())


def one_shot_save_checkpoint(path, bundle, extra=None) -> None:
    params = bundle.trainable()
    sections = []
    payload = bytearray()
    for name in sorted(params):
        arr = params[name].astype("<f4")
        sections.append({"name": name, "shape": list(arr.shape)})
        payload += arr.tobytes()
    decoder = bundle.head.decoder
    header = {
        "version": 1,
        "group": bundle.group,
        "family": decoder.family,
        "n": bundle.grid.n,
        "dims": list(bundle.grid.dims),
        "spacing": bundle.scene.spacing,
        "origin": list(bundle.scene.origin),
        "sections": sections,
    }
    if decoder.family == "mlp":
        header["hidden"] = [w.shape[0] for w in decoder.weights[:-1]]
        header["k"] = decoder.k
    if hasattr(decoder, "K"):
        header["K"] = decoder.K
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(fileio.CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(bytes(payload))
