"""Desk-scale ground-truth generator.

Replaces a full wave-simulation pipeline with analytically known fields:
geodesic path distances over the free-voxel graph (a vectorised frontier
relaxation that reproduces Dijkstra's distances bit for bit), synthetic
level and decay-time fields that are smooth-plus-piecewise-constant
functions of the geometry, and synthetic impulse responses with known
parameters for round-trip testing of the extractors.

Everything here is a pure function of immutable inputs; per-source field
generation is embarrassingly parallel across sources.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .irparams import AcousticParamSet, ImpulseResponse, WindowConfig, fd_derivative
from .scene import _FREE, VoxelScene

FIELD_KINDS = ("path-distance", "level", "decay-time", "doa")

# Synthetic direct-sound model: reference level at 1 m and the extra
# attenuation per meter of detour beyond the straight line.
_L0_DB = 0.0
_DIFFRACTION_DB_PER_M = 1.0

# 26-connected neighborhood with Euclidean edge weights (unit spacing).
_OFFSETS = [
    (di, dj, dk, math.sqrt(di * di + dj * dj + dk * dk))
    for di in (-1, 0, 1)
    for dj in (-1, 0, 1)
    for dk in (-1, 0, 1)
    if (di, dj, dk) != (0, 0, 0)
]


@dataclass(frozen=True)
class FieldVolume:
    """One scalar (or direction) field over all receiver grid points.

    ``values`` has shape ``(nx, ny, nz)`` for scalar kinds and
    ``(nx, ny, nz, 3)`` for ``"doa"``. Occupied or unreachable voxels hold
    NaN sentinels; ``valid_mask()`` exposes the usable entries.
    """

    source: np.ndarray
    kind: str
    values: np.ndarray
    spacing: float
    origin: np.ndarray

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ConfigurationError(f"unknown field kind {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        expected = 4 if self.kind == "doa" else 3
        if v.ndim != expected:
            raise ConfigurationError(
                f"{self.kind} field must have {expected} array dimensions"
            )
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "source", np.asarray(self.source, dtype=float))
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape[:3]

    def valid_mask(self) -> np.ndarray:
        if self.kind == "doa":
            return np.all(np.isfinite(self.values), axis=-1)
        return np.isfinite(self.values)


def valid_pairs(pred: FieldVolume, truth: FieldVolume) -> tuple[np.ndarray, np.ndarray]:
    """Values of two same-shaped fields on the voxels valid in both.

    Raises ``InputError`` when the shapes differ or no voxel is valid in
    both, so every error metric compares the same voxels.
    """
    if pred.values.shape != truth.values.shape:
        raise InputError("field shapes differ")
    valid = pred.valid_mask() & truth.valid_mask()
    if not valid.any():
        raise InputError("no valid voxels to compare")
    return pred.values[valid], truth.values[valid]


def geodesic_field(scene: VoxelScene, source) -> FieldVolume:
    """Shortest-path distance from ``source`` to every free voxel center.

    Distances are shortest paths over the 26-connected free-voxel graph
    with Euclidean edge weights, which overestimates the true geodesic by
    at most a few percent and is exactly reciprocal. The source is seeded
    at its containing voxel with the offset to that voxel's center, so a
    source at a center starts at exactly zero; unreachable voxels hold NaN.

    The search is a label-correcting frontier relaxation: each sweep
    offers ``d + w * h`` from every voxel whose distance fell in the
    previous sweep to its 26 neighbours at once and keeps the minimum.
    Weights are positive and float rounding is monotone, so the min-plus
    fixpoint is unique: it is the minimum over paths of the same rounded
    sums that Dijkstra forms, and equals Dijkstra's result bit for bit.
    """
    source = np.asarray(source, dtype=float)
    start = scene.voxel_of(source)
    if scene.occupancy[start]:
        raise InputError("geodesic source lies inside an occupied voxel")

    # The scene's flat label grid, padded by one cell per side, so every
    # neighbour of a free voxel is in bounds. Blocked and padding cells
    # hold -inf, which no candidate distance undercuts.
    dist = np.where(scene._labels == _FREE, np.inf, -np.inf)
    strides = np.array([(di, dj, dk) for di, dj, dk, _ in _OFFSETS]) @ scene._strides
    steps = np.array([w * scene.spacing for *_, w in _OFFSETS])

    s = (np.array(start) + 1) @ scene._strides
    dist[s] = float(np.linalg.norm(source - scene.voxel_center(start)))
    frontier = np.array([s])
    # The next frontier is the sorted set of lowered voxels, read off a
    # mark array that is cleared again after each sweep.
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

    padded = tuple(n + 2 for n in scene.dims)
    dist = dist.reshape(padded)[1:-1, 1:-1, 1:-1]
    values = np.where(np.isfinite(dist), dist, np.nan)
    return FieldVolume(
        source=source,
        kind="path-distance",
        values=values,
        spacing=scene.spacing,
        origin=scene.origin,
    )


def synth_acoustic_fields(
    scene: VoxelScene, source, geo: FieldVolume
) -> dict[str, FieldVolume]:
    """Level and decay-time ground truth derived from the geodesic field.

    Direct-sound level follows the inverse-square law in the path distance
    plus a 1 dB/m diffraction penalty on the detour beyond the straight
    line (zero for line-of-sight receivers reached without detour); the ER
    level is a per-region reference attenuated at half the rate; decay
    times are per-region constants, so they are exactly recoverable.
    """
    if geo.kind != "path-distance" or geo.dims != scene.dims:
        raise InputError("geo must be the path-distance field for this scene")
    if scene.regions is None or scene.region_params is None:
        raise ConfigurationError("scene carries no region annotations")

    source = np.asarray(source, dtype=float)
    pi = geo.values
    valid = np.isfinite(pi)
    h = scene.spacing
    # Straight-line distance from the squared per-axis centre offsets.
    dx2, dy2, dz2 = (
        ((o + np.arange(n) * h) - s) ** 2 for o, n, s in zip(scene.origin, scene.dims, source)
    )
    straight = np.sqrt(dx2[:, None, None] + dy2[None, :, None] + dz2)

    # Each receiver (a reached free voxel) takes the constants of its own
    # region: one lookup-table row per region id, and a NaN row.
    keys = sorted(scene.region_params)
    row = np.searchsorted(keys, scene.regions)
    known = np.append(keys, np.nan)[row] == scene.regions
    lost = valid & scene._free & ~known
    if lost.any():
        rid = scene.regions[lost].min()
        raise ConfigurationError(f"missing acoustic constants for region {rid}")
    table = np.array([astuple(scene.region_params[k]) for k in keys] + [(np.nan,) * 3])
    tau_er, tau_lr, l_er_ref = np.take(table.T, np.where(known, row, len(keys)), axis=1)

    with np.errstate(invalid="ignore"):
        log_pi = np.log10(np.maximum(pi, h))
        l_ds = _L0_DB - 20.0 * log_pi - _DIFFRACTION_DB_PER_M * (pi - straight)
        l_er = l_er_ref - 10.0 * log_pi

    def _vol(kind, vals):
        vals = np.where(valid, vals, np.nan)
        return FieldVolume(
            source=source, kind=kind, values=vals, spacing=scene.spacing, origin=scene.origin
        )

    return {
        "l_ds": _vol("level", l_ds),
        "l_er": _vol("level", l_er),
        "tau_er": _vol("decay-time", tau_er),
        "tau_lr": _vol("decay-time", tau_lr),
    }


def bake_source(scene: VoxelScene, source) -> dict[str, FieldVolume]:
    """All five ground-truth parameter fields for one source."""
    geo = geodesic_field(scene, source)
    fields = synth_acoustic_fields(scene, source, geo)
    return {"pi": geo, **fields}


def _shifted(v: np.ndarray, axis: int, steps: int) -> np.ndarray:
    """Values ``steps`` voxels along ``axis``, NaN-padded at the border."""
    out = np.full_like(v, np.nan)
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    if steps > 0:
        dst[axis], src[axis] = slice(0, -steps), slice(steps, None)
    else:
        dst[axis], src[axis] = slice(-steps, None), slice(0, steps)
    out[tuple(dst)] = v[tuple(src)]
    return out


def doa_field(scene: VoxelScene, geo: FieldVolume) -> FieldVolume:
    """Per-voxel direction of arrival from a path-distance field.

    ``irparams.fd_derivative`` on the grids shifted by one and two voxels
    along each axis, with invalid voxels as missing samples. Voxels with a
    degenerate gradient (notably the source voxel itself) receive NaN
    sentinels.
    """
    if geo.kind != "path-distance":
        raise InputError("doa_field expects a path-distance field")
    v = geo.values
    valid = np.isfinite(v)
    h = geo.spacing
    grad = np.stack(
        [
            fd_derivative(v, _shifted(v, a, 1), _shifted(v, a, 2),
                          _shifted(v, a, -1), _shifted(v, a, -2), h)
            for a in range(3)
        ],
        axis=-1,
    )

    norm = np.linalg.norm(grad, axis=-1)
    # Below half a voxel of path distance the direction is undefined (the
    # receiver sits essentially at the source).
    good = valid & (norm > 1e-9) & (v > 0.5 * h)
    doa = np.full(v.shape + (3,), np.nan)
    doa[good] = -grad[good] / norm[good][..., None]
    return FieldVolume(
        source=geo.source, kind="doa", values=doa, spacing=geo.spacing, origin=geo.origin
    )


@dataclass(frozen=True)
class SyntheticIRConfig:
    """Construction parameters for synthetic impulse responses.

    ``duration`` of ``None`` auto-sizes the signal to cover the late window
    plus 100 ms of tail margin. ``max_decay`` bounds the admissible decay
    times (matching the renderer's longest reference decay).
    """

    sample_rate: float = 16000.0
    duration: float | None = None
    t0: float = 0.0
    c: float = 343.0
    seed: int = 0
    max_decay: float = 2.0

    def __post_init__(self):
        if self.sample_rate < 8000:
            raise ConfigurationError("synthetic IRs need a sample rate >= 8 kHz")
        if self.c <= 0:
            raise ConfigurationError("speed of sound must be positive")


def _decaying_noise(n: int, fs: float, tau: float, rng) -> np.ndarray:
    """Exponential amplitude envelope with random signs.

    Random signs (rather than random amplitudes) keep the energy envelope
    exactly exponential, so decay slopes measured from the backward energy
    integral match the construction without estimator bias.
    """
    t = np.arange(n) / fs
    envelope = 10.0 ** (-3.0 * t / tau)
    signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
    return envelope * signs


def synth_ir(params: AcousticParamSet, cfg: SyntheticIRConfig = SyntheticIRConfig()) -> ImpulseResponse:
    """Impulse response with known parameters, for extractor round trips.

    The signal holds a single direct spike at ``t0 + pi / c`` whose
    direct-sound window integrates to ``10^(L_DS/10)``, an early segment of
    sign-randomized exponentially decaying noise normalized so the ER
    window integrates to ``10^(L_ER/10)`` and decays at ``-60/tau_ER`` dB/s,
    the same envelope extrapolated across the gap, and a late tail decaying
    at ``-60/tau_LR`` dB/s whose start is amplitude-continuous with the
    extrapolated early regime.
    """
    for name in ("pi", "l_ds", "l_er", "tau_er", "tau_lr"):
        if not math.isfinite(getattr(params, name)):
            raise InputError(f"parameter {name} must be finite")
    for name in ("tau_er", "tau_lr"):
        tau = getattr(params, name)
        if not (0.0 < tau <= cfg.max_decay):
            raise ConfigurationError(
                f"{name}={tau} outside the admissible range (0, {cfg.max_decay}]"
            )
    if params.pi < 0:
        raise InputError("path distance must be non-negative")

    w = WindowConfig()
    fs = cfg.sample_rate
    t_ds = cfg.t0 + params.pi / cfg.c
    needed = t_ds + w.lr_end + 0.1
    if cfg.duration is None:
        # enough tail that truncation cannot bend the energy curve inside
        # the late window (the missing energy is ~ -72 dB of the boundary)
        duration = t_ds + w.lr_end + max(0.1, 1.2 * params.tau_lr)
    else:
        duration = cfg.duration
    if duration < needed:
        raise ConfigurationError(
            f"duration {cfg.duration} too short; needs >= {needed:.3f} s"
        )

    n = int(round(duration * fs))
    x = np.zeros(n)
    rng = np.random.default_rng(cfg.seed)

    spike_idx = int(round(t_ds * fs))
    spike_amp = 10.0 ** (params.l_ds / 20.0)
    x[spike_idx] = spike_amp

    # Early regime: runs from the ER window start through the gap up to the
    # LR window start, decaying at tau_er throughout.
    er_i0 = int(round((t_ds + w.er_start) * fs))
    er_i1 = int(round((t_ds + w.er_end) * fs))
    lr_i0 = int(round((t_ds + w.lr_start) * fs))
    seg = _decaying_noise(lr_i0 - er_i0, fs, params.tau_er, rng)
    win_energy = float(np.sum(seg[: er_i1 - er_i0] ** 2))
    scale = math.sqrt(10.0 ** (params.l_er / 10.0) / win_energy)
    seg *= scale
    x[er_i0:lr_i0] = seg

    # Late regime: amplitude-continuous with the extrapolated early regime.
    start_amp = scale * 10.0 ** (-3.0 * (lr_i0 - er_i0) / fs / params.tau_er)
    tail = _decaying_noise(n - lr_i0, fs, params.tau_lr, rng)
    x[lr_i0:] = start_amp * tail

    if spike_amp < 0.1 * np.max(np.abs(x)):
        raise ConfigurationError(
            "direct spike below the default detection threshold; "
            "lower L_ER or raise L_DS"
        )
    return ImpulseResponse(samples=x, sample_rate=fs, t0=cfg.t0)
