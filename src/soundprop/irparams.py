"""Acoustic parameter extraction from impulse responses.

Implements the broadband extraction chain: arrival detection and path
distance, windowed energy levels, the backward-integrated energy curve,
decay-time estimators, and direction of arrival from a distance field by
the package's one finite-difference stencil, ``fd_derivative`` (applied
to whole grids by ``oracle.doa_field``, and at points to the samples of
``DOA_STENCIL`` by ``doa_from_samples``). All functions are pure and safe for
concurrent use.

Levels are window-integrated energies in dB (``10 log10`` of the summed
squared samples); amplitude gains elsewhere use ``20 log10``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateGradientError,
    InputError,
    NoArrivalError,
    UndefinedDecayError,
)
from .latentfield import interp_points
from .scene import VoxelScene

SPEED_OF_SOUND = 343.0  # m/s

# Backward-integration floor keeps regression finite after the tail. Deep
# enough that the fixed late window (ending 1015 ms after arrival) stays
# measurable for short decays; the reverse-cumulative sum below is accurate
# to float rounding at any depth.
_SCHROEDER_FLOOR_DB = -240.0
_GRAD_EPS = 1e-9


@dataclass(frozen=True)
class ImpulseResponse:
    """Mono pressure signal with its sampling metadata.

    ``t0`` is the emission time of the impulse that produced the response,
    in seconds on the same clock as the sample at index 0.
    """

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise InputError("impulse response must be a non-empty 1-D signal")
        if not np.all(np.isfinite(x)):
            raise InputError("impulse response contains non-finite samples")
        if self.sample_rate <= 0:
            raise ConfigurationError(f"invalid sample rate {self.sample_rate}")
        object.__setattr__(self, "samples", x)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


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


# Analysis windows in s after the direct-sound arrival ``t_DS``, the
# standard split: 15 ms of direct sound, the early reflections 15-115 ms
# and the late reverberation 415-1015 ms after arrival, and 25 ms matching
# sub-windows at the ER tail / LR head that level the late reverberation.
DS_WINDOW = (0.0, 0.015)
ER_WINDOW = (0.015, 0.115)
LR_WINDOW = (0.415, 1.015)
MATCH_LEN = 0.025
# The arrival is the first sample at this share of the peak magnitude.
ARRIVAL_THRESHOLD = 0.1


def anchored(window: tuple[float, float], t_ds: float) -> tuple[float, float]:
    """``window`` (s after the arrival) on the clock of an arrival at ``t_ds``."""
    return (t_ds + window[0], t_ds + window[1])


@dataclass(frozen=True)
class AcousticParamSet:
    """Per-pair parameter bundle consumed by the renderer.

    ``doa`` is the unit direction of arrival at the receiver; it is filled
    by spatial queries and left ``None`` when extracted from a mono IR.
    ``l_lr`` is the matched late-reverberation level.
    """

    pi: float
    l_ds: float
    l_er: float
    tau_er: float
    tau_lr: float
    doa: np.ndarray | None = None
    l_lr: float | None = None


def _window_slice(window: tuple[float, float], rate: float, size: int, shortest: int) -> slice:
    """The ``window`` (s) of ``size`` samples at ``rate``, ends rounded to the nearest
    sample; ``InputError`` unless it holds at least ``shortest`` of them."""
    t0, t1 = window
    if not (t1 > t0):
        raise InputError(f"empty analysis window {window}")
    i0 = int(round(t0 * rate))
    i1 = int(round(t1 * rate))
    if i0 < 0 or i1 > size or i1 - i0 < shortest:
        raise InputError(f"window {window} outside the signal of {size} samples")
    return slice(i0, i1)


def arrival_and_distance(ir: ImpulseResponse) -> tuple[float, float]:
    """Direct-sound arrival time and traveled path distance.

    The arrival is the first sample whose magnitude reaches
    ``ARRIVAL_THRESHOLD`` times the peak magnitude of the unfiltered IR;
    the distance follows from the time of flight at ``SPEED_OF_SOUND``.
    """
    x = np.abs(ir.samples)
    peak = x.max()
    if peak <= 0.0:
        raise NoArrivalError("impulse response is identically zero")
    idx = int(np.argmax(x >= ARRIVAL_THRESHOLD * peak))
    t_ds = idx / ir.sample_rate
    pi = max(SPEED_OF_SOUND * (t_ds - ir.t0), 0.0)
    return t_ds, pi


@dataclass(frozen=True)
class SchroederCurve:
    """Backward-integrated energy in dB, sampled at the IR rate."""

    values_db: np.ndarray
    sample_rate: float

    def window_slice(self, window: tuple[float, float]) -> slice:
        """The curve samples of ``window``: at least two, for a slope."""
        return _window_slice(window, self.sample_rate, self.values_db.size, 2)


def schroeder_curve(ir: ImpulseResponse) -> SchroederCurve:
    """Energy remaining from each instant onward, normalized to 0 dB.

    ``S(t) = 10 log10( sum_{u>=t} x(u)^2 / sum_u x(u)^2 )``, clamped at
    -240 dB so later regressions stay finite. The tail sums are formed by
    a reverse cumulative sum, which keeps them accurate at any depth
    (subtracting a forward sum from the total would cancel catastrophically
    deep in the tail).
    """
    energy = ir.samples.astype(float) ** 2
    remaining = np.cumsum(energy[::-1])[::-1]
    total = remaining[0]
    if total <= 0.0:
        raise InputError("impulse response has zero energy")
    floor = total * 10.0 ** (_SCHROEDER_FLOOR_DB / 10.0)
    s = 10.0 * np.log10(np.maximum(remaining, floor) / total)
    return SchroederCurve(values_db=s, sample_rate=ir.sample_rate)


def window_level(ir: ImpulseResponse, window: tuple[float, float]) -> float:
    """Energy integrated over ``window`` in dB (sum of squared samples)."""
    seg = ir.samples[_window_slice(window, ir.sample_rate, ir.samples.size, 1)]
    energy = float(np.sum(seg * seg))
    if energy <= 0.0:
        raise InputError(f"window {window} has zero energy")
    return 10.0 * float(np.log10(energy))


def level_lr_matched(ir: ImpulseResponse, t_ds: float) -> float:
    """Late-reverberation level with a smooth hand-over from the ER regime,
    for the direct-sound arrival at ``t_ds`` (``arrival_and_distance``).

    The raw LR-window level is offset by the energy gap between the final
    25 ms of the ER window and the first 25 ms of the LR window, so that a
    late tail scaled to the returned level starts where the early
    reflections left off.
    """
    er_end, lr_start = t_ds + ER_WINDOW[1], t_ds + LR_WINDOW[0]
    tail_db = window_level(ir, (er_end - MATCH_LEN, er_end))
    head_db = window_level(ir, (lr_start, lr_start + MATCH_LEN))
    raw_db = window_level(ir, anchored(LR_WINDOW, t_ds))
    return raw_db + (tail_db - head_db)


def decay_time(
    curve: SchroederCurve, window: tuple[float, float], method: str
) -> float:
    """Decay time ``tau = -60 / s`` from the curve slope over ``window``.

    ``method`` selects the slope estimator: ``"rms-forward-diff"`` (the
    early-reflections estimator; slope magnitude is the RMS of per-sample
    forward differences divided by the step) or ``"linear-regression"``
    (least squares over the window, used for the late tail).
    """
    sl = curve.window_slice(window)
    s_win = curve.values_db[sl]
    dt = 1.0 / curve.sample_rate
    if method == "rms-forward-diff":
        diffs = np.diff(s_win)
        slope = -float(np.sqrt(np.mean(diffs * diffs))) / dt
    elif method == "linear-regression":
        t = np.arange(s_win.size) * dt
        slope = float(np.polyfit(t, s_win, 1)[0])
    else:
        raise ConfigurationError(f"unknown decay estimator {method!r}")
    if slope >= 0.0:
        raise UndefinedDecayError(f"non-negative decay slope {slope:.3g} dB/s")
    return -60.0 / slope


def extract_params(ir: ImpulseResponse) -> AcousticParamSet:
    """Full extraction chain over one impulse response."""
    t_ds, pi = arrival_and_distance(ir)
    l_ds = window_level(ir, anchored(DS_WINDOW, t_ds))
    l_er = window_level(ir, anchored(ER_WINDOW, t_ds))
    l_lr = level_lr_matched(ir, t_ds)
    curve = schroeder_curve(ir)
    tau_er = decay_time(curve, anchored(ER_WINDOW, t_ds), "rms-forward-diff")
    tau_lr = decay_time(curve, anchored(LR_WINDOW, t_ds), "linear-regression")
    return AcousticParamSet(
        pi=pi, l_ds=l_ds, l_er=l_er, tau_er=tau_er, tau_lr=tau_lr, l_lr=l_lr
    )


def fd_derivative(c, p1, p2, m1, m2, h: float):
    """Derivative along one axis from samples at ``0, +h, +2h, -h, -2h``.

    NaN marks a missing sample. Central differences where both neighbours
    exist; otherwise the second-order one-sided stencil where two
    same-side samples exist, first order where only one does, and 0 where
    neither side exists. Elementwise on arrays, so the grid and the point
    estimators share it.
    """
    has_p1, has_m1 = np.isfinite(p1), np.isfinite(m1)
    return np.where(has_p1 & has_m1, (p1 - m1) / (2.0 * h),
           np.where(has_p1 & np.isfinite(p2), (-3.0 * c + 4.0 * p1 - p2) / (2.0 * h),
           np.where(has_p1, (p1 - c) / h,
           np.where(has_m1 & np.isfinite(m2), (3.0 * c - 4.0 * m1 + m2) / (2.0 * h),
           np.where(has_m1, (c - m1) / h, 0.0)))))


# Offsets of the direction-of-arrival stencil around the receiver, in
# grid steps: ``+1, -1, +2, -2`` along x, then along y, then along z.
DOA_STENCIL = np.array([s * np.eye(3)[axis] for axis in range(3) for s in (1, -1, 2, -2)])


def doa_from_samples(center, samples, h: float) -> np.ndarray:
    """Unit direction of arrival: the negated, normalized field gradient.

    ``center`` is the field value at the receiver and ``samples`` its 12
    values at the receiver plus ``h * DOA_STENCIL``; NaN marks a value
    that cannot be resolved (walls, missing samples). ``fd_derivative``
    differentiates all three axes at once.
    """
    p1, m1, p2, m2 = np.asarray(samples, dtype=float).reshape(3, 4).T
    g = fd_derivative(center, p1, p2, m1, m2, h)
    norm = float(np.linalg.norm(g))
    if not norm >= _GRAD_EPS:  # also rejects a NaN gradient
        raise DegenerateGradientError("field gradient is degenerate at the query point")
    return -g / norm


def doa_from_field(field, b, scene: VoxelScene) -> np.ndarray:
    """Unit direction of arrival from a path-distance field at ``b``.

    The direction is the negated, normalized spatial gradient of the field
    with respect to the receiver, estimated by ``doa_from_samples`` on the
    field at ``b`` and its stencil points at a one-grid-spacing step,
    sampled in one masked interpolation over the finite field values.
    """
    b = np.asarray(b, dtype=float)
    h = scene.spacing
    batch = interp_points(scene, b + h * np.vstack([np.zeros(3), DOA_STENCIL]),
                          value_mask=np.isfinite(field.values))
    values = batch.sample(field.values[..., None])[:, 0]
    return doa_from_samples(values[0], values[1:], h)
