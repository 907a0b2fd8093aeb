"""Computations made apart from soundprop, used to check its outputs.

Nothing here imports soundprop. The file formats are parsed from the
layouts documented in ``soundprop/fileio.py``; geodesic distances come
from ``scipy.sparse.csgraph.dijkstra`` on a 26-connected graph built here;
the level formulas, the decoders, the blend weights and the renderer are
re-derived from the formulas stated in the package docstrings and README.

scipy is imported inside the functions that use it, which run only in the
checks: soundprop does not load scipy, so a module-level import would add
the benchmark's own memory to the measured process's peak.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

FIELD_MAGIC = b"SPFIELD1\x00\x00\x00\x00\x00\x00\x00\x01"
FIELD_KINDS = ("path-distance", "level", "decay-time", "doa")
CKPT_MAGIC = b"SPCKPT1\x00"

# Gap between the early and late analysis windows (WindowConfig defaults:
# er_start 15 ms, lr_start 415 ms), used to derive the late level.
ER_LR_GAP_S = 0.415 - 0.015


# ---------------------------------------------------------------------------
# File readers and writers
# ---------------------------------------------------------------------------


@dataclass
class Scene:
    dims: tuple
    spacing: float
    origin: np.ndarray
    occ: np.ndarray  # bool (nx, ny, nz), True is obstacle
    regions: np.ndarray  # int (nx, ny, nz)
    region_params: dict  # id -> (tau_er, tau_lr, l_er_ref)

    def centers(self, idx) -> np.ndarray:
        return self.origin + np.asarray(idx, dtype=float) * self.spacing

    def index_of(self, points) -> np.ndarray:
        """Voxel index of each point (rounded cell coordinate)."""
        c = (np.asarray(points, dtype=float) - self.origin) / self.spacing
        return np.floor(c + 0.5).astype(int)


def _rle(blob: bytes, offset: int, count: int, fmt: str):
    item = struct.calcsize("<I" + fmt)
    out = np.empty(count, dtype=np.int64)
    pos = 0
    while pos < count:
        n, v = struct.unpack_from("<I" + fmt, blob, offset)
        out[pos : pos + n] = v
        pos += n
        offset += item
    return out, offset


def read_scene(path) -> Scene:
    blob = open(path, "rb").read()
    sep = blob.index(b"\n\n")
    meta, regions = {}, {}
    for line in blob[:sep].decode().splitlines()[1:]:
        key, _, value = line.partition("=")
        if key.startswith("region."):
            regions[int(key[7:])] = tuple(float(x) for x in value.split(","))
        else:
            meta[key] = value
    dims = tuple(int(x) for x in meta["dims"].split("x"))
    count = dims[0] * dims[1] * dims[2]
    occ, off = _rle(blob, sep + 2, count, "B")
    reg, _ = _rle(blob, off, count, "i")
    return Scene(
        dims=dims,
        spacing=float(meta["spacing"]),
        origin=np.array([float(x) for x in meta["origin"].split(",")]),
        occ=occ.reshape(dims, order="F").astype(bool),
        regions=reg.reshape(dims, order="F"),
        region_params=regions,
    )


def read_field(path):
    """``(values, source, kind)`` of a scalar ``.fld`` file."""
    blob = open(path, "rb").read()
    if not blob.startswith(FIELD_MAGIC):
        raise ValueError(f"{path}: bad field magic")
    off = len(FIELD_MAGIC)
    dims = struct.unpack_from("<3I", blob, off)
    kind, channels = struct.unpack_from("<BB", blob, off + 12)
    source = np.array(struct.unpack_from("<3d", blob, off + 16))
    data_off = off + 16 + 24 + 8 + 24
    count = dims[0] * dims[1] * dims[2]
    if channels != 1 or len(blob) != data_off + 4 * count:
        raise ValueError(f"{path}: unexpected field payload")
    raw = np.frombuffer(blob, dtype="<f4", count=count, offset=data_off)
    return raw.reshape(dims, order="F").astype(float), source, FIELD_KINDS[kind]


def field_value_offset(index, dims) -> int:
    """Byte offset of voxel ``index``'s float32 value inside a ``.fld`` file."""
    flat = index[0] + dims[0] * (index[1] + dims[1] * index[2])
    return len(FIELD_MAGIC) + 16 + 24 + 8 + 24 + 4 * flat


def read_checkpoint(path):
    """``(header, params)`` with float64 copies of every float32 section."""
    blob = open(path, "rb").read()
    if not blob.startswith(CKPT_MAGIC):
        raise ValueError(f"{path}: bad checkpoint magic")
    (hlen,) = struct.unpack_from("<I", blob, len(CKPT_MAGIC))
    off = len(CKPT_MAGIC) + 4
    header = json.loads(blob[off : off + hlen])
    off += hlen
    params = {}
    for sec in header["sections"]:
        shape = tuple(sec["shape"])
        count = int(np.prod(shape)) if shape else 1
        params[sec["name"]] = (
            np.frombuffer(blob, dtype="<f4", count=count, offset=off).reshape(shape).astype(float)
        )
        off += 4 * count
    return header, params


def write_ir(path, samples: np.ndarray, rate: float) -> None:
    header = f"SPIR1\nsample_rate={float(rate)!r}\nt0=0.0\nchannels=1\n\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + np.asarray(samples, dtype="<f4").tobytes())


def read_ir(path):
    """``(samples (C, N), rate)`` of an ``.ir`` file."""
    blob = open(path, "rb").read()
    sep = blob.index(b"\n\n")
    meta = dict(line.split("=", 1) for line in blob[:sep].decode().splitlines()[1:])
    channels = int(meta["channels"])
    raw = np.frombuffer(blob, dtype="<f4", offset=sep + 2).astype(float)
    return raw.reshape(-1, channels).T, float(meta["sample_rate"])


def read_points(path) -> np.ndarray:
    rows = [line.split()[:3] for line in open(path) if line.strip()]
    return np.array(rows, dtype=float).reshape(-1, 3)


def sha256(path) -> str:
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def read_mae_csv(path) -> dict:
    lines = open(path).read().splitlines()
    cols = lines[0].split(",")
    out = {}
    for line in lines[1:]:
        row = dict(zip(cols, line.split(",")))
        out[row["param"]] = float(row["mae"])
    return out


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------


def geodesic(scene: Scene, source_idx) -> np.ndarray:
    """Shortest 26-connected path lengths from voxel-centre sources.

    Returns ``(S, nx, ny, nz)`` with ``inf`` on occupied or unreachable
    voxels. Edge weight is the centre-to-centre distance.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    free = ~scene.occ
    node = np.full(scene.dims, -1, dtype=np.int64)
    node[free] = np.arange(int(free.sum()))
    rows, cols, weights = [], [], []
    for off in [(a, b, c) for a in (0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]:
        if off <= (0, 0, 0):
            continue  # one of each +/- pair: the graph is undirected
        src = node[tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(off, scene.dims))]
        dst = node[tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(off, scene.dims))]
        di, dj, dk = off
        both = (src >= 0) & (dst >= 0)
        rows.append(src[both])
        cols.append(dst[both])
        weights.append(np.full(int(both.sum()), math.sqrt(di * di + dj * dj + dk * dk) * scene.spacing))
    m = int(free.sum())
    graph = coo_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
    ).tocsr()
    starts = [int(node[tuple(i)]) for i in source_idx]
    dist = dijkstra(graph, directed=False, indices=starts)
    out = np.full((len(starts),) + tuple(scene.dims), np.inf)
    out[:, free] = dist
    return out


def oracle_fields(scene: Scene, source, pi: np.ndarray) -> dict:
    """Level and decay fields from a path-distance field.

    ``l_ds = -20 log10(max(pi, h)) - 1 dB/m * (pi - straight)`` and
    ``l_er = l_er_ref(region) - 10 log10(max(pi, h))``; decay times are the
    per-region constants. NaN wherever ``pi`` is not finite.
    """
    idx = np.indices(scene.dims).transpose(1, 2, 3, 0)
    straight = np.linalg.norm(scene.centers(idx) - source, axis=-1)
    valid = np.isfinite(pi)
    floor = np.where(valid, np.maximum(pi, scene.spacing), 1.0)
    lut = {name: np.full(int(scene.regions.max()) + 1, np.nan) for name in ("tau_er", "tau_lr", "l_er_ref")}
    for rid, (te, tl, ler) in scene.region_params.items():
        lut["tau_er"][rid], lut["tau_lr"][rid], lut["l_er_ref"][rid] = te, tl, ler
    out = {
        "l_ds": -20.0 * np.log10(floor) - (np.where(valid, pi, 0.0) - straight),
        "l_er": lut["l_er_ref"][scene.regions] - 10.0 * np.log10(floor),
        "tau_er": lut["tau_er"][scene.regions],
        "tau_lr": lut["tau_lr"][scene.regions],
    }
    return {k: np.where(valid, v, np.nan) for k, v in out.items()}


def segment_clear(scene: Scene, p, targets, step: float = 0.05) -> np.ndarray:
    """Fine-step segment test: no sample on ``p -> target`` is occupied.

    Samples every ``step`` voxel lengths along each segment. It can miss a
    grazed corner, so it accepts every segment the package's conservative
    voxel walk accepts, and possibly a few more.
    """
    targets = np.asarray(targets, dtype=float)
    p = np.asarray(p, dtype=float)
    longest = float(np.max(np.linalg.norm(targets - p, axis=1), initial=0.0))
    n = max(2, int(math.ceil(longest / (step * scene.spacing))) + 1)
    t = np.linspace(0.0, 1.0, n)
    clear = np.ones(len(targets), dtype=bool)
    for lo in range(0, len(targets), 64):
        seg = targets[lo : lo + 64]
        pts = p + t[None, :, None] * (seg[:, None, :] - p)
        idx = scene.index_of(pts)
        idx = np.clip(idx, 0, np.asarray(scene.dims) - 1)
        clear[lo : lo + 64] = ~scene.occ[idx[..., 0], idx[..., 1], idx[..., 2]].any(axis=1)
    return clear


# ---------------------------------------------------------------------------
# Decoders
# ---------------------------------------------------------------------------


def _distance(header, params, U, V, prefix="decoder."):
    family = header["family"]
    if family == "euclidean":
        return np.sqrt(np.sum((U - V) ** 2, axis=1))
    if family == "riemann-diag":
        lam = 1.0 + (0.5 * (U + V)) @ params[prefix + "weights"].T
        return np.sqrt(np.sum((lam * (U - V)) ** 2, axis=1))
    raise ValueError(f"no reference decoder for family {family!r}")


def _bounded_dot(U, V, K):
    with np.errstate(over="ignore"):
        return K / (1.0 + np.exp(-np.sum(U * V, axis=1)))


def decode(header, params, U, V) -> dict:
    """Predicted heads for latent rows ``U`` (source) and ``V`` (receiver)."""
    group = header["group"]
    if group == "distance":
        return {"pi": _distance(header, params, U, V)}
    if group == "levels":
        P, w = params["proj"], params["w"]
        local = 0.5 * (U @ w + V @ w) + params["beta"][0]
        return {
            "l_ds": params["l0"][0] - _distance(header, params, U, V),
            "l_er": local - _distance(header, params, U @ P.T, V @ P.T),
        }
    if group == "decays" and header["family"] == "dot-product":
        P, K = params["proj"], float(header["K"])
        return {"tau_er": _bounded_dot(U, V, K), "tau_lr": _bounded_dot(U @ P.T, V @ P.T, K)}
    raise ValueError(f"no reference decoder for {group}/{header['family']}")


def heldout_mae(scene: Scene, header, params, sources, truths) -> dict:
    """Mean over sources of the mean absolute error on valid voxels.

    ``sources`` are voxel-centre points, so the source latent is the grid
    latent of that voxel. ``truths`` holds one ``{head: values}`` per source.
    """
    grid = params["grid"]
    free = ~scene.occ
    totals = {}
    for src, truth in zip(sources, truths):
        i, j, k = scene.index_of(src)
        V = grid[free]
        U = np.broadcast_to(grid[i, j, k], V.shape)
        for head, pred in decode(header, params, U, V).items():
            t = truth[head][free]
            ok = np.isfinite(t) & np.isfinite(pred)
            totals[head] = totals.get(head, 0.0) + float(np.mean(np.abs(pred[ok] - t[ok])))
    return {h: v / len(sources) for h, v in totals.items()}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def blend_weights(tau: float, refs) -> np.ndarray:
    """Clamped piecewise-linear weights over three increasing reference times."""
    refs = [float(r) for r in refs]
    w = np.zeros(3)
    if tau <= refs[0]:
        w[0] = 1.0
    elif tau >= refs[2]:
        w[2] = 1.0
    else:
        i = 0 if tau <= refs[1] else 1
        a = (refs[i + 1] - tau) / (refs[i + 1] - refs[i])
        w[i], w[i + 1] = a, 1.0 - a
    return w


def vbap_failures(gains, directions, triples, doa) -> list:
    """Property check of panning gains: unit power, non-negative, one
    triple, and the gain-weighted speaker directions point along ``doa``."""
    g = np.asarray(gains, dtype=float)
    out = []
    if abs(float(np.sum(g * g)) - 1.0) > 1e-9:
        out.append(f"VBAP gains have power {float(np.sum(g * g))!r}, not 1")
    if np.any(g < 0):
        out.append("VBAP gains are negative")
    support = set(np.flatnonzero(g > 0).tolist())
    if not any(support <= set(t) for t in triples):
        out.append(f"VBAP gains use speakers {sorted(support)} outside every triple")
    v = g @ np.asarray(directions, dtype=float)
    if np.linalg.norm(v) == 0 or np.max(np.abs(v / np.linalg.norm(v) - doa)) > 1e-9:
        out.append("VBAP gains do not reconstruct the direction")
    return out


def render(x, gains, l_ds, l_er, l_lr, tau_er, tau_lr, er_tails, er_taus, lr_tails, lr_taus):
    """Speaker feeds: panned dry path plus two FFT-convolved wet buses.

    A third of each wet bus's energy follows the panning gains, the rest is
    spread evenly over the S speakers: per-speaker amplitude
    ``sqrt(g^2 / 3 + 2 / (3 S))``. ``l_lr`` of None continues the early
    decay across the window gap.
    """
    from scipy.signal import fftconvolve

    x = np.asarray(x, dtype=float)
    g = np.asarray(gains, dtype=float)
    S = g.size
    if l_lr is None:
        l_lr = l_er - 60.0 * ER_LR_GAP_S / tau_er
    n_out = x.size + max(t.size for t in (*er_tails, *lr_tails)) - 1
    out = np.zeros((S, n_out))
    out[:, : x.size] += np.outer(g, 10.0 ** (l_ds / 20.0) * x)
    spread = np.sqrt(g * g / 3.0 + 2.0 / (3.0 * S))
    for level, tau, tails, taus in ((l_er, tau_er, er_tails, er_taus), (l_lr, tau_lr, lr_tails, lr_taus)):
        bus = np.zeros(n_out)
        for tail, w in zip(tails, blend_weights(tau, taus)):
            if w:
                conv = fftconvolve(x, tail)
                bus[: conv.size] += w * conv
        out += np.outer(spread, 10.0 ** (level / 20.0) * bus)
    return out


def render_mismatch(out, ref) -> float:
    """Largest sample difference relative to the reference's peak."""
    if out.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(out - ref)) / max(float(np.max(np.abs(ref))), 1e-300))
