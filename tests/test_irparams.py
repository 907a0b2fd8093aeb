import itertools

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

import soundprop as sp
from soundprop.errors import (
    DegenerateGradientError,
    InputError,
    NoArrivalError,
    UndefinedDecayError,
)
from soundprop.irparams import ER_WINDOW, LR_WINDOW, SchroederCurve, anchored
from soundprop.oracle import FieldVolume

from oracles import fd_derivative as oracle_fd_derivative


def impulse_at(idx, n=4000, fs=16000.0, amp=1.0, t0=0.0):
    x = np.zeros(n)
    x[idx] = amp
    return sp.ImpulseResponse(samples=x, sample_rate=fs, t0=t0)


# ---------------------------------------------------------------------------
# Arrival and distance
# ---------------------------------------------------------------------------


def test_arrival_unit_impulse_at_t0():
    ir = impulse_at(0)
    t_ds, pi = sp.arrival_and_distance(ir)
    assert t_ds == 0.0 and pi == 0.0


def test_arrival_threshold_rule():
    """The arrival is the first sample at a tenth of the peak magnitude."""
    x = np.zeros(1000)
    x[100] = 1.0
    x[50] = 0.09  # below the threshold, must be ignored
    ir = sp.ImpulseResponse(samples=x, sample_rate=1000.0)
    t_ds, _ = sp.arrival_and_distance(ir)
    assert t_ds == pytest.approx(0.1)
    # at the threshold the early spike wins
    x[50] = 0.1
    t_ds, _ = sp.arrival_and_distance(sp.ImpulseResponse(samples=x, sample_rate=1000.0))
    assert t_ds == pytest.approx(0.05)


def test_arrival_round_trip_distance():
    params = sp.AcousticParamSet(pi=17.15, l_ds=-4.0, l_er=-10.0, tau_er=0.3, tau_lr=0.8)
    ir = sp.synth_ir(params, seed=4)
    _, pi = sp.arrival_and_distance(ir)
    assert pi == pytest.approx(17.15, abs=343.0 / ir.sample_rate)


def test_arrival_all_zero_errors():
    with pytest.raises(NoArrivalError):
        sp.arrival_and_distance(sp.ImpulseResponse(samples=np.zeros(100), sample_rate=1000.0))


# ---------------------------------------------------------------------------
# Backward energy curve
# ---------------------------------------------------------------------------


def test_schroeder_single_impulse():
    from soundprop.irparams import _SCHROEDER_FLOOR_DB

    ir = impulse_at(100, n=300, fs=1000.0)
    s = sp.schroeder_curve(ir)
    assert np.all(s.values_db[:101] == 0.0)
    assert np.all(s.values_db[101:] == _SCHROEDER_FLOOR_DB)


def test_schroeder_exponential_slope():
    fs = 8000.0
    t = np.arange(int(2.0 * fs)) / fs
    ir = sp.ImpulseResponse(samples=np.exp(-t * np.log(10.0) * 3.0), sample_rate=fs)
    s = sp.schroeder_curve(ir)
    sl = s.window_slice((0.2, 1.0))
    t = np.arange(s.values_db.size) / s.sample_rate
    coeffs = np.polyfit(t[sl], s.values_db[sl], 1)
    assert coeffs[0] == pytest.approx(-60.0, rel=0.01)


def test_schroeder_equal_energy_halves():
    rng = np.random.default_rng(0)
    half = rng.normal(size=500)
    x = np.concatenate([half, half])
    s = sp.schroeder_curve(sp.ImpulseResponse(samples=x, sample_rate=1000.0))
    assert s.values_db[500] == pytest.approx(10.0 * np.log10(0.5), abs=1e-9)


def test_schroeder_monotone_and_normalized():
    rng = np.random.default_rng(1)
    x = rng.normal(size=2000) * np.exp(-np.arange(2000) / 300.0)
    s = sp.schroeder_curve(sp.ImpulseResponse(samples=x, sample_rate=1000.0))
    assert s.values_db[0] == 0.0
    assert np.all(np.diff(s.values_db) <= 1e-12)


# ---------------------------------------------------------------------------
# Window levels
# ---------------------------------------------------------------------------


def test_window_level_single_sample():
    ir = impulse_at(10, n=100, fs=100.0)
    assert sp.window_level(ir, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_window_level_amplitude_scaling():
    rng = np.random.default_rng(2)
    x = rng.normal(size=400)
    ir1 = sp.ImpulseResponse(samples=x, sample_rate=400.0)
    ir2 = sp.ImpulseResponse(samples=2.0 * x, sample_rate=400.0)
    a = sp.window_level(ir1, (0.2, 0.8))
    b = sp.window_level(ir2, (0.2, 0.8))
    assert b - a == pytest.approx(20.0 * np.log10(2.0), abs=1e-9)


def test_window_level_translation_invariant():
    rng = np.random.default_rng(3)
    seg = rng.normal(size=100)
    x = np.zeros(1000)
    x[100:200] = seg
    y = np.zeros(1000)
    y[600:700] = seg
    a = sp.window_level(sp.ImpulseResponse(samples=x, sample_rate=1000.0), (0.1, 0.2))
    b = sp.window_level(sp.ImpulseResponse(samples=y, sample_rate=1000.0), (0.6, 0.7))
    assert a == pytest.approx(b, abs=1e-12)


def test_window_level_er_round_trip():
    params = sp.AcousticParamSet(pi=5.0, l_ds=-3.0, l_er=-12.0, tau_er=0.35, tau_lr=0.9)
    ir = sp.synth_ir(params, seed=5)
    t_ds, _ = sp.arrival_and_distance(ir)
    got = sp.window_level(ir, anchored(ER_WINDOW, t_ds))
    assert got == pytest.approx(-12.0, abs=0.5)


def test_window_level_bad_window():
    ir = impulse_at(0, n=100, fs=100.0)
    with pytest.raises(InputError):
        sp.window_level(ir, (0.5, 0.5))
    with pytest.raises(InputError):
        sp.window_level(ir, (0.0, 100.0))


# ---------------------------------------------------------------------------
# Matched late level
# ---------------------------------------------------------------------------


def _ir_with_boundary_gap(gap_db):
    """Spike at t=0 plus flat ER block and LR block offset by gap_db."""
    fs = 8000.0
    n = int(1.3 * fs)
    x = np.zeros(n)
    x[0] = 1.0
    er = slice(int(ER_WINDOW[0] * fs), int(ER_WINDOW[1] * fs))
    lr = slice(int(LR_WINDOW[0] * fs), int(LR_WINDOW[1] * fs))
    x[er] = 0.05
    x[lr] = 0.05 * 10.0 ** (-gap_db / 20.0)
    return sp.ImpulseResponse(samples=x, sample_rate=fs)


def test_level_lr_matched_zero_offset():
    ir = _ir_with_boundary_gap(0.0)
    t_ds, _ = sp.arrival_and_distance(ir)
    raw = sp.window_level(ir, anchored(LR_WINDOW, t_ds))
    assert sp.level_lr_matched(ir, sp.arrival_and_distance(ir)[0]) == pytest.approx(raw, abs=1e-9)


def test_level_lr_matched_positive_offset():
    ir = _ir_with_boundary_gap(6.02)
    t_ds, _ = sp.arrival_and_distance(ir)
    raw = sp.window_level(ir, anchored(LR_WINDOW, t_ds))
    assert sp.level_lr_matched(ir, sp.arrival_and_distance(ir)[0]) - raw == pytest.approx(6.02, abs=1e-6)


def test_level_lr_matched_continuous_decay_consistency():
    """Continuous decay: offset equals the natural boundary drop."""
    tau = 0.8
    params = sp.AcousticParamSet(pi=2.0, l_ds=0.0, l_er=-10.0, tau_er=tau, tau_lr=tau)
    ir = sp.synth_ir(params, seed=6)
    t_ds, _ = sp.arrival_and_distance(ir)
    raw = sp.window_level(ir, anchored(LR_WINDOW, t_ds))
    offset = sp.level_lr_matched(ir, sp.arrival_and_distance(ir)[0]) - raw
    # boundary windows sit 325 ms apart on a -60/tau dB/s decay
    expected = 60.0 * 0.325 / tau
    assert offset == pytest.approx(expected, abs=1.0)


# ---------------------------------------------------------------------------
# Decay times
# ---------------------------------------------------------------------------


def _line_curve(slope_db_per_s, fs=1000.0, duration=2.0):
    t = np.arange(int(duration * fs)) / fs
    return SchroederCurve(values_db=slope_db_per_s * t, sample_rate=fs)


@pytest.mark.parametrize("method", ["rms-forward-diff", "linear-regression"])
def test_decay_time_exact_lines(method):
    assert sp.decay_time(_line_curve(-60.0), (0.1, 1.5), method) == pytest.approx(1.0, rel=1e-9)
    assert sp.decay_time(_line_curve(-120.0), (0.1, 1.5), method) == pytest.approx(0.5, rel=1e-9)


def test_decay_time_round_trip_lr():
    params = sp.AcousticParamSet(pi=2.0, l_ds=0.0, l_er=-8.0, tau_er=0.4, tau_lr=1.2)
    ir = sp.synth_ir(params, seed=7)
    t_ds, _ = sp.arrival_and_distance(ir)
    curve = sp.schroeder_curve(ir)
    tau = sp.decay_time(curve, anchored(LR_WINDOW, t_ds), "linear-regression")
    assert tau == pytest.approx(1.2, rel=0.05)


def test_decay_time_rejects_non_decay():
    with pytest.raises(UndefinedDecayError):
        sp.decay_time(_line_curve(0.0), (0.1, 1.5), "linear-regression")


def test_decay_time_gain_invariant():
    params = sp.AcousticParamSet(pi=1.0, l_ds=-2.0, l_er=-9.0, tau_er=0.3, tau_lr=0.7)
    ir = sp.synth_ir(params, seed=8)
    scaled = sp.ImpulseResponse(samples=ir.samples * 7.3, sample_rate=ir.sample_rate, t0=ir.t0)
    t_ds, _ = sp.arrival_and_distance(ir)
    w = anchored(LR_WINDOW, t_ds)
    a = sp.decay_time(sp.schroeder_curve(ir), w, "linear-regression")
    b = sp.decay_time(sp.schroeder_curve(scaled), w, "linear-regression")
    assert a == pytest.approx(b, rel=1e-9)


# ---------------------------------------------------------------------------
# Direction of arrival from a field
# ---------------------------------------------------------------------------


def _analytic_field(scene, src):
    centers = scene.voxel_centers()
    vals = np.linalg.norm(centers - src, axis=-1)
    vals[scene.occupancy] = np.nan
    return FieldVolume(source=src, kind="path-distance", values=vals,
                       spacing=scene.spacing, origin=scene.origin)


@pytest.fixture(scope="module")
def tall_box():
    return sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(12, 6, 12)))


def test_doa_from_field_analytic(tall_box):
    src = tall_box.voxel_center((6, 3, 6))
    field = _analytic_field(tall_box, src)
    rng = np.random.default_rng(4)
    free = tall_box.free_indices()
    angles = []
    for _ in range(60):
        idx = free[rng.integers(len(free))]
        b = tall_box.voxel_center(idx)
        r = np.linalg.norm(src - b)
        if r < 1.5 * tall_box.spacing:
            continue
        d = sp.doa_from_field(field, b, tall_box)
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-6)
        truth = (src - b) / r
        angles.append(np.degrees(np.arccos(np.clip(d @ truth, -1, 1))))
    assert np.mean(angles) <= 2.0
    assert max(angles) <= 8.0


def test_doa_from_field_source_above(tall_box):
    src = tall_box.voxel_center((6, 4, 6))
    field = _analytic_field(tall_box, src)
    b = tall_box.voxel_center((6, 1, 6))
    d = sp.doa_from_field(field, b, tall_box)
    ang = np.degrees(np.arccos(np.clip(d @ np.array([0.0, 1.0, 0.0]), -1, 1)))
    assert ang <= 2.0


def test_doa_from_field_degenerate(tall_box):
    field = _analytic_field(tall_box, tall_box.voxel_center((6, 3, 6)))
    constant = FieldVolume(
        source=field.source, kind="path-distance",
        values=np.where(np.isfinite(field.values), 1.0, np.nan),
        spacing=field.spacing, origin=field.origin,
    )
    with pytest.raises(DegenerateGradientError):
        sp.doa_from_field(constant, tall_box.voxel_center((3, 3, 3)), tall_box)


def test_doa_behind_aperture_points_at_slit():
    """Shadowed receiver: direction matches the first hop of the true path."""
    scene = sp.build_scene(sp.SceneSpec(kind="wall-with-aperture", dims=(16, 6, 16)))
    mid = scene.dims[0] // 2
    j, k = np.argwhere(~scene.occupancy[mid])[0]
    src_idx = (3, j, 5)
    src = scene.voxel_center(src_idx)
    geo = sp.geodesic_field(scene, src)

    free = scene.free_indices()
    index_of = {tuple(v): i for i, v in enumerate(map(tuple, free))}
    rows, cols, weights = [], [], []
    offs = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1) if (a, b, c) != (0, 0, 0)]
    for i, cell in enumerate(map(tuple, free)):
        for off in offs:
            nb = tuple(np.add(cell, off))
            jdx = index_of.get(nb)
            if jdx is not None:
                rows.append(i)
                cols.append(jdx)
                weights.append(np.linalg.norm(off) * scene.spacing)
    graph = coo_matrix((weights, (rows, cols)), shape=(len(free), len(free)))
    _, pred = scipy_dijkstra(graph, indices=index_of[src_idx], return_predecessors=True)

    # receiver on the slit axis, four voxels behind the wall
    recv_idx = (mid + 4, j, k)
    b = scene.voxel_center(recv_idx)
    d = sp.doa_from_field(geo, b, scene)
    # first hop of the shortest path from the receiver back toward the source
    hop = free[pred[index_of[recv_idx]]]
    hop_dir = scene.voxel_center(hop) - b
    hop_dir /= np.linalg.norm(hop_dir)
    ang = np.degrees(np.arccos(np.clip(d @ hop_dir, -1, 1)))
    assert ang <= 15.0
    # an off-axis shadowed receiver still points toward the slit region
    recv2 = (mid + 4, j, k + 3)
    b2 = scene.voxel_center(recv2)
    d2 = sp.doa_from_field(geo, b2, scene)
    to_slit = scene.voxel_center((mid, j, k)) - b2
    to_slit /= np.linalg.norm(to_slit)
    assert d2 @ to_slit > np.cos(np.radians(40.0))


# ---------------------------------------------------------------------------
# Full round trip
# ---------------------------------------------------------------------------


def test_extract_params_round_trip_sample():
    rng = np.random.default_rng(10)
    for trial in range(10):
        truth = sp.AcousticParamSet(
            pi=float(rng.uniform(0.5, 30.0)),
            l_ds=float(rng.uniform(-30.0, 0.0)),
            l_er=float(rng.uniform(-36.0, -6.0)),
            tau_er=float(rng.uniform(0.25, 1.2)),
            tau_lr=float(rng.uniform(0.5, 1.8)),
        )
        ir = sp.synth_ir(truth, seed=100 + trial)
        got = sp.extract_params(ir)
        assert got.pi == pytest.approx(truth.pi, abs=343.0 / ir.sample_rate)
        assert got.l_ds == pytest.approx(truth.l_ds, abs=0.5)
        assert got.l_er == pytest.approx(truth.l_er, abs=0.5)
        assert got.tau_lr == pytest.approx(truth.tau_lr, rel=0.05)
        assert got.tau_er == pytest.approx(truth.tau_er, rel=0.10)


def test_fd_derivative_stencil_orders():
    """Each stencil is exact on the polynomials its order covers."""
    h = 0.5
    f = lambda x: 2.0 + 3.0 * x - 4.0 * x * x  # noqa: E731
    c, p1, p2, m1, m2 = f(0.0), f(h), f(2 * h), f(-h), f(-2 * h)
    nan = np.nan
    assert sp.fd_derivative(c, p1, p2, m1, m2, h) == pytest.approx(3.0, abs=1e-12)
    assert sp.fd_derivative(c, p1, p2, nan, nan, h) == pytest.approx(3.0, abs=1e-12)
    assert sp.fd_derivative(c, nan, nan, m1, m2, h) == pytest.approx(3.0, abs=1e-12)
    assert sp.fd_derivative(c, p1, nan, nan, nan, h) == pytest.approx((p1 - c) / h, abs=1e-12)
    assert sp.fd_derivative(c, nan, nan, m1, nan, h) == pytest.approx((c - m1) / h, abs=1e-12)
    assert sp.fd_derivative(c, nan, p2, nan, m2, h) == 0.0
    # elementwise over arrays, as on the oracle grids
    got = sp.fd_derivative(np.full(2, c), np.array([p1, nan]), np.array([p2, nan]),
                           np.array([nan, m1]), np.array([nan, m2]), h)
    assert np.allclose(got, 3.0, rtol=0.0, atol=1e-12)


def test_fd_derivative_matches_select_oracle_on_every_missing_pattern():
    """Bit-equal to the ``np.select`` oracle for each of the 32 patterns of
    missing ``c``, ``p1``, ``p2``, ``m1`` and ``m2``, on arrays and on
    scalars."""
    rng = np.random.default_rng(4)
    missing = np.array(list(itertools.product((False, True), repeat=5)))  # (32, 5)
    values = rng.normal(size=(50, 32, 5)) * 10.0 ** rng.integers(-3, 4, size=(50, 32, 5))
    values[:, missing] = np.nan
    args = np.moveaxis(values, -1, 0)
    for h in (0.37, 1.0):
        assert np.array_equal(sp.fd_derivative(*args, h), oracle_fd_derivative(*args, h), equal_nan=True)
        for row in values[0]:
            got, want = sp.fd_derivative(*row, h), oracle_fd_derivative(*row, h)
            assert np.array_equal(got, want, equal_nan=True) and np.shape(got) == np.shape(want)
