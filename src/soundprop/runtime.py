"""Deployed query path: parameter prediction and rendering gains.

Loaded model bundles, reference tails and speaker layouts are immutable;
queries and renders are reentrant and safe under concurrent readers.

A query interpolates the source, the receiver and the receiver's DOA
stencil points in one batch; every bundle's latents reuse those corners
and weights, and the direction of arrival is ``irparams.doa_from_samples``
over the predicted distance field at the stencil points.

The rendering model sums three signal paths: a dry path scaled by the
direct-sound level and panned toward the direction of arrival, plus early
and late wet paths built by blending reference tails selected by decay
time. A third of each wet path's energy follows the dry direction, the
rest is emitted omnidirectionally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .irparams import (
    DOA_STENCIL,
    ER_WINDOW,
    LR_WINDOW,
    AcousticParamSet,
    ImpulseResponse,
    _decaying_noise,
    doa_from_samples,
)
from .latentfield import InterpBatch, interp_points
from .oracle import PARAM_KINDS
from .scene import VoxelScene


def _level_gain(level: float, name: str) -> float:
    """Linear amplitude gain ``10^(level/20)`` of a finite level in dB
    whose gain is finite too."""
    level = float(level)
    if not np.isfinite(level):
        raise InputError(f"{name} must be finite")
    try:
        return 10.0 ** (level / 20.0)
    except OverflowError:
        raise InputError(f"{name} of {level} dB has no finite gain") from None


def dry_gain(l_ds: float) -> float:
    """Linear amplitude gain for the dry path: ``10^(L_DS/20)``."""
    return _level_gain(l_ds, "direct-sound level")


def wet_weights(tau: float, ref_taus) -> np.ndarray:
    """Piecewise-linear blend weights over three reference decay times.

    Clamps to the nearest reference outside ``[tau_S, tau_L]``; inside, the
    two bracketing references share weight linearly. At most two weights
    are nonzero and they always sum to one.
    """
    t_s, t_m, t_l = (float(t) for t in ref_taus)
    if not (t_s < t_m < t_l):
        raise ConfigurationError("reference decay times must be strictly increasing")
    if np.isnan(tau):
        raise InputError("decay time must not be NaN")
    if tau <= t_s:
        return np.array([1.0, 0.0, 0.0])
    if tau >= t_l:
        return np.array([0.0, 0.0, 1.0])
    if tau <= t_m:
        a = (t_m - tau) / (t_m - t_s)
        return np.array([a, 1.0 - a, 0.0])
    a = (t_l - tau) / (t_l - t_m)
    return np.array([0.0, a, 1.0 - a])


def derive_l_lr(l_er: float, tau_er: float) -> float:
    """Late level extrapolated from the early regime across the gap.

    Continues the early decay at ``-60/tau_er`` dB/s from the ER window
    start to the LR window start, so the two rendered regimes meet without
    a level step.
    """
    if not (tau_er > 0):
        raise InputError("tau_er must be positive")
    gap = LR_WINDOW[0] - ER_WINDOW[0]
    return l_er - 60.0 * gap / tau_er


@dataclass(frozen=True)
class SpeakerLayout:
    """Loudspeaker directions plus the triples used for 3D panning."""

    directions: np.ndarray  # (S, 3) unit vectors
    triples: tuple  # index triples covering the sphere region of use

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        if d.ndim != 2 or d.shape[1] != 3 or d.shape[0] < 1:
            raise ConfigurationError("layout needs an (S, 3) direction array")
        norms = np.linalg.norm(d, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ConfigurationError("speaker directions must be unit vectors")
        object.__setattr__(self, "directions", d)
        trips = tuple(tuple(int(i) for i in t) for t in self.triples)
        for t in trips:
            if len(t) != 3 or len(set(t)) != 3 or max(t) >= d.shape[0] or min(t) < 0:
                raise ConfigurationError(f"invalid speaker triple {t}")
        object.__setattr__(self, "triples", trips)

    @property
    def n_speakers(self) -> int:
        return self.directions.shape[0]


def octahedral_layout() -> SpeakerLayout:
    """Six axis-aligned speakers with one triple per octant."""
    dirs = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    triples = []
    for ix in (0, 1):
        for iy in (2, 3):
            for iz in (4, 5):
                triples.append((ix, iy, iz))
    return SpeakerLayout(directions=dirs, triples=tuple(triples))


def vbap_gains(delta, layout: SpeakerLayout) -> np.ndarray:
    """Power-normalized per-speaker gains panning ``delta``.

    Picks the first triple (lowest index order) whose basis solution is
    non-negative and normalizes it to unit power. When no triple covers
    the direction, the nearest speaker receives gain 1.
    """
    delta = np.asarray(delta, dtype=float)
    if abs(np.linalg.norm(delta) - 1.0) > 1e-6:
        raise InputError("panning direction must be a unit vector")
    gains = np.zeros(layout.n_speakers)
    for triple in layout.triples:
        basis = layout.directions[list(triple)].T  # columns are speaker dirs
        try:
            g = np.linalg.solve(basis, delta)
        except np.linalg.LinAlgError:
            continue
        if np.all(g >= -1e-12):
            g = np.maximum(g, 0.0)
            norm = np.linalg.norm(g)
            if norm <= 0:
                continue
            gains[list(triple)] = g / norm
            return gains
    nearest = int(np.argmax(layout.directions @ delta))
    gains[nearest] = 1.0
    return gains


def spatialize_wet(gains: np.ndarray) -> np.ndarray:
    """Per-speaker amplitude gains of a unit-energy wet path panned by the
    power-normalized ``gains`` of ``vbap_gains``: one third of the energy
    follows the panning, the rest is spread equally over all speakers, and
    the two combine in the energy domain, so the emitted energy is one."""
    return np.sqrt(gains * gains / 3.0 + 2.0 / (3.0 * gains.size))


@dataclass(frozen=True)
class ReferenceIRSet:
    """Six reference tails for small/medium/large early and late regimes."""

    er_irs: tuple
    lr_irs: tuple
    er_taus: tuple
    lr_taus: tuple

    def __post_init__(self):
        for irs, taus in ((self.er_irs, self.er_taus), (self.lr_irs, self.lr_taus)):
            if len(irs) != 3 or len(taus) != 3:
                raise ConfigurationError("reference sets hold three tails each")
            if not (taus[0] < taus[1] < taus[2]):
                raise ConfigurationError("reference decay times must increase")
        rates = {ir.sample_rate for ir in (*self.er_irs, *self.lr_irs)}
        if len(rates) != 1:
            raise ConfigurationError("reference IR sample rates must match")

    @property
    def sample_rate(self) -> float:
        return self.er_irs[0].sample_rate


def default_reference_irs(sample_rate: float = 16000.0, seed: int = 0) -> ReferenceIRSet:
    """Bundled stand-in tails: unit-energy exponentially decaying noise."""
    rng = np.random.default_rng(seed)
    er_taus = (0.1, 0.3, 0.9)
    lr_taus = (0.4, 1.0, 1.8)

    def tail(tau):
        x = _decaying_noise(max(int(round(3.0 * tau * sample_rate)), 8), sample_rate, tau, rng)
        x /= np.sqrt(np.sum(x * x))
        return ImpulseResponse(samples=x, sample_rate=sample_rate)

    return ReferenceIRSet(
        er_irs=tuple(tail(t) for t in er_taus),
        lr_irs=tuple(tail(t) for t in lr_taus),
        er_taus=er_taus,
        lr_taus=lr_taus,
    )


@dataclass(frozen=True)
class RenderParams:
    """Resolved rendering quantities for one source-receiver pair."""

    dry: float
    er_gain: float
    lr_gain: float
    er_weights: np.ndarray
    lr_weights: np.ndarray
    doa: np.ndarray

    def __post_init__(self):
        # each test is written to fail on NaN
        for name in ("dry", "er_gain", "lr_gain"):
            if not 0 <= getattr(self, name) < np.inf:
                raise InputError(f"{name} must be finite and non-negative")
        for name in ("er_weights", "lr_weights"):
            w = np.asarray(getattr(self, name), dtype=float)
            if w.shape != (3,) or not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9):
                raise InputError(f"{name} must be three non-negative weights summing to 1")
            object.__setattr__(self, name, w)
        d = np.asarray(self.doa, dtype=float)
        if not abs(np.linalg.norm(d) - 1.0) <= 1e-6:
            raise InputError("doa must be a unit vector")
        object.__setattr__(self, "doa", d)


def render_params(params: AcousticParamSet, refs: ReferenceIRSet) -> RenderParams:
    """Gains and blend weights from one acoustic parameter set."""
    if params.doa is None:
        raise InputError("rendering needs a direction of arrival")
    l_lr = params.l_lr
    if l_lr is None:
        l_lr = derive_l_lr(params.l_er, params.tau_er)
    return RenderParams(
        dry=dry_gain(params.l_ds),
        er_gain=_level_gain(params.l_er, "early-reflection level"),
        lr_gain=_level_gain(l_lr, "late-reverberation level"),
        er_weights=wet_weights(params.tau_er, refs.er_taus),
        lr_weights=wet_weights(params.tau_lr, refs.lr_taus),
        doa=params.doa,
    )


def _wet_bus(x: np.ndarray, parts, n_out: int) -> np.ndarray:
    """``x`` convolved with the blended tail ``sum_i w_i * tail_i`` of the
    ``(tail, w_i)`` ``parts``, zero-padded to ``n_out`` samples: one FFT
    convolution. Its length is the smallest 5-smooth one that holds
    ``n_out`` samples, whichever tails have a nonzero weight, so every
    render of one input against one reference set uses one FFT length
    (numpy keeps a plan per length)."""
    used = [(t, w) for t, w in parts if w != 0.0]
    tail = np.zeros(max((t.size for t, _ in used), default=1))
    for t, w in used:
        tail[: t.size] += w * t
    n = x.size + tail.size - 1
    size = _fft_size(n_out)
    bus = np.zeros(n_out)
    bus[:n] = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(tail, size), size)[:n]
    return bus


def _fft_size(n: int) -> int:
    """The smallest ``2^a 3^b 5^c >= n``: an FFT of a length with only
    these factors runs about as fast per sample as a power of two, and
    the length can be close to half of the next power of two."""
    best = 1 << max(n - 1, 0).bit_length()
    odd = 1  # 3^b 5^c
    while odd < best:
        part = odd
        while part < best:
            # the smallest part * 2^a >= n
            best = min(best, part << max(-(-n // part) - 1, 0).bit_length())
            part *= 3
        odd *= 5
    return best


def render_offline(
    x_in: np.ndarray,
    params: RenderParams,
    refs: ReferenceIRSet,
    layout: SpeakerLayout,
) -> np.ndarray:
    """Offline parametric render of a mono input to speaker channels.

    Returns an ``(n_speakers, n_samples)`` array: panned dry path plus the
    early and late wet buses. Both buses get the same speaker gains, so by
    linearity they are one wet convolution with the gain-weighted blend of
    all six reference tails. The panning is solved once, for the dry path
    and the wet spread.
    """
    x = np.asarray(x_in, dtype=float)
    if x.ndim != 1:
        raise InputError("input signal must be mono")
    max_ref = max(ir.samples.size for ir in (*refs.er_irs, *refs.lr_irs))
    parts = [
        (ir.samples, gain * w)
        for irs, gain, weights in ((refs.er_irs, params.er_gain, params.er_weights),
                                   (refs.lr_irs, params.lr_gain, params.lr_weights))
        for ir, w in zip(irs, weights)
    ]
    gains = vbap_gains(params.doa, layout)
    out = np.outer(spatialize_wet(gains), _wet_bus(x, parts, x.size + max_ref - 1))
    out[:, : x.size] += np.outer(gains, params.dry * x)
    return out


# ---------------------------------------------------------------------------
# Model queries
# ---------------------------------------------------------------------------


def query_params(bundles: dict, scene: VoxelScene, a, b) -> AcousticParamSet:
    """Predict the full parameter set for one source-receiver pair.

    ``bundles`` maps group names (``distance``, ``levels``, ``decays``) to
    trained model bundles over ``scene``. One masked interpolation finds
    the stencils of ``a``, ``b`` and the 12 DOA stencil points around
    ``b``; the corners and weights depend only on the scene and the point,
    so every bundle's latents reuse them. Each bundle samples the rows it
    decodes and makes one decode, the distance bundle of ``a`` against
    ``b`` and the stencil points as one 1x13 block, the others of the pair
    as a 1x1 block. The direction of arrival is the negated gradient of
    the predicted distance field at the stencil points; a stencil point
    that cannot be resolved is a missing sample. A bundle must be of the
    group it is given for. A pure function of the checkpoints and positions.
    """
    if "distance" not in bundles:
        raise ConfigurationError("query needs at least a distance bundle")
    for group, bundle in bundles.items():
        if bundle.group != group:
            raise ConfigurationError(f"the {group} checkpoint holds a {bundle.group} model")
        if bundle.grid.dims != scene.dims:
            raise InputError(f"{group} grid dims do not match scene dims")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    h = scene.spacing
    batch = interp_points(scene, np.vstack([a, b, b + h * DOA_STENCIL]))
    batch.check(0, a)
    batch.check(1, b)
    pair = InterpBatch(batch.corners[:2], batch.weights[:2], batch.status[:2])

    out = {}
    for group, bundle in bundles.items():
        latents = (batch if group == "distance" else pair).sample(bundle.grid.values)
        out.update(bundle.head.predict(latents[:1], latents[1:]))
    pi, l_ds, l_er, tau_er, tau_lr = (
        float(out[name][0, 0]) if name in out else float("nan")
        for name in PARAM_KINDS
    )

    doa = doa_from_samples(pi, out["pi"][0, 1:], h)
    l_lr = derive_l_lr(l_er, tau_er) if np.isfinite(l_er) and tau_er > 0 else None
    return AcousticParamSet(
        pi=pi, l_ds=l_ds, l_er=l_er, tau_er=tau_er, tau_lr=tau_lr, doa=doa, l_lr=l_lr
    )
