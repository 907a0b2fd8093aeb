import numpy as np
import pytest

import soundprop as sp
from soundprop import runtime
from soundprop.errors import ConfigurationError, InputError, IsolationError
from soundprop.irparams import DOA_STENCIL, ER_WINDOW, LR_WINDOW, anchored
from soundprop.runtime import render_params

from conftest import TRAIN_CASES, latent_at, random_free_position
from oracles import masked_interp as oracle_masked_interp
from oracles import per_bundle_query, render_two_buses


# ---------------------------------------------------------------------------
# Gains and weights
# ---------------------------------------------------------------------------


def test_dry_gain_pinned_values():
    assert sp.dry_gain(0.0) == 1.0
    assert sp.dry_gain(-6.0206) == pytest.approx(0.5, abs=1e-5)
    assert sp.dry_gain(-20.0) == pytest.approx(0.1, abs=1e-12)


def test_wet_weights_knots_and_midpoint():
    refs = (0.1, 0.3, 0.9)
    assert np.allclose(sp.wet_weights(0.3, refs), [0.0, 1.0, 0.0])
    assert np.allclose(sp.wet_weights(0.2, refs), [0.5, 0.5, 0.0])
    assert np.allclose(sp.wet_weights(0.05, refs), [1.0, 0.0, 0.0])
    assert np.allclose(sp.wet_weights(2.0, refs), [0.0, 0.0, 1.0])


def test_wet_weights_sweep_properties():
    refs = (0.1, 0.3, 0.9)
    taus = np.linspace(0.01, 1.2, 1000)
    prev = None
    for tau in taus:
        w = sp.wet_weights(float(tau), refs)
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(w) <= 2
        if prev is not None:
            assert np.max(np.abs(w - prev)) < 0.02  # continuity along the sweep
        prev = w


def test_wet_weights_bad_refs():
    with pytest.raises(ConfigurationError):
        sp.wet_weights(0.5, (0.3, 0.3, 0.9))


def test_derive_l_lr_pinned():
    assert sp.derive_l_lr(-10.0, 0.4) == pytest.approx(-70.0, abs=1e-12)
    assert sp.derive_l_lr(-10.0, 1e9) == pytest.approx(-10.0, abs=1e-6)


def test_derive_l_lr_matches_synthetic_continuation():
    """The construction extrapolates the early decay across the gap exactly."""
    tau = 0.8
    params = sp.AcousticParamSet(pi=2.0, l_ds=0.0, l_er=-10.0, tau_er=tau, tau_lr=tau)
    ir = sp.synth_ir(params, seed=1)
    t_ds, _ = sp.arrival_and_distance(ir)
    l_er = sp.window_level(ir, anchored(ER_WINDOW, t_ds))
    # level of a same-length window starting at the LR boundary
    shifted = sp.window_level(
        ir, (t_ds + LR_WINDOW[0], t_ds + LR_WINDOW[0] + (ER_WINDOW[1] - ER_WINDOW[0]))
    )
    assert sp.derive_l_lr(l_er, tau) == pytest.approx(shifted, abs=1.0)


# ---------------------------------------------------------------------------
# VBAP and wet spatialization
# ---------------------------------------------------------------------------


def test_vbap_aligned_with_speaker():
    layout = sp.octahedral_layout()
    g = sp.vbap_gains(np.array([1.0, 0.0, 0.0]), layout)
    assert g[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.delete(g, 0), 0.0)


def test_vbap_bisecting_pair():
    layout = sp.octahedral_layout()
    d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    g = sp.vbap_gains(d, layout)
    nz = g[g > 0]
    assert len(nz) == 2
    assert np.allclose(nz, 1.0 / np.sqrt(2.0), atol=1e-12)


def test_vbap_reconstruction_and_power():
    layout = sp.octahedral_layout()
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        g = sp.vbap_gains(d, layout)
        assert np.sum(g * g) == pytest.approx(1.0, abs=1e-9)
        # de-normalized basis solution reconstructs the direction
        recon = layout.directions.T @ g
        recon /= np.linalg.norm(recon)
        assert np.allclose(recon, d, atol=1e-9)


def test_vbap_fallback_nearest_speaker():
    # hemisphere layout with a hole below: directions below fall back
    dirs = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1.0], [-1, 0, 0], [0, 0, -1.0]])
    layout = sp.SpeakerLayout(directions=dirs, triples=((0, 1, 2), (3, 1, 2)))
    g = sp.vbap_gains(np.array([0.0, -1.0, 0.0]), layout)
    assert g.sum() == 1.0 and np.count_nonzero(g) == 1


def test_spatialize_wet_energy_split():
    layout = sp.SpeakerLayout(
        directions=np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1.0], [-1, 0, 0]]),
        triples=((0, 1, 2), (3, 1, 2)),
    )
    g = sp.spatialize_wet(sp.vbap_gains(np.array([1.0, 0.0, 0.0]), layout))
    # panned speaker carries one third plus its omni share
    assert g[0] ** 2 == pytest.approx(1.0 / 3.0 + (2.0 / 3.0) / 4.0, abs=1e-12)
    assert np.sum(g * g) == pytest.approx(1.0, abs=1e-9)


def test_spatialize_wet_energy_preserved_random():
    layout = sp.octahedral_layout()
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        wet = float(rng.uniform(0.1, 3.0))
        g = wet * sp.spatialize_wet(sp.vbap_gains(d, layout))
        assert np.sum(g * g) == pytest.approx(wet * wet, abs=1e-9 * wet * wet)


def test_spatialize_single_speaker():
    layout = sp.SpeakerLayout(directions=np.array([[0.0, 0.0, 1.0]]), triples=())
    g = 2.0 * sp.spatialize_wet(sp.vbap_gains(np.array([1.0, 0.0, 0.0]), layout))
    assert g[0] ** 2 == pytest.approx(4.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Offline rendering
# ---------------------------------------------------------------------------


def _params(doa=(1.0, 0.0, 0.0), l_ds=0.0, l_er=0.0, tau_er=0.1, tau_lr=0.4):
    refs = sp.default_reference_irs(sample_rate=8000.0, seed=0)
    pset = sp.AcousticParamSet(
        pi=1.0, l_ds=l_ds, l_er=l_er, tau_er=tau_er, tau_lr=tau_lr,
        doa=np.asarray(doa, float),
    )
    return render_params(pset, refs), refs


def test_render_silent_input_silent_output():
    rp, refs = _params()
    out = sp.render_offline(np.zeros(256), rp, refs, sp.octahedral_layout())
    assert np.all(out == 0.0)


@pytest.mark.parametrize("tau_er, tau_lr", [(0.05, 0.4), (0.2, 1.2), (0.6, 1.4), (2.0, 3.0)])
def test_render_matches_direct_convolution(tau_er, tau_lr):
    """The FFT wet buses equal direct convolution with each weighted tail."""
    rp, refs = _params(doa=(0.6, 0.0, 0.8), l_ds=-3.0, l_er=-6.0, tau_er=tau_er, tau_lr=tau_lr)
    layout = sp.octahedral_layout()
    x = np.random.default_rng(3).normal(size=1500)
    out = sp.render_offline(x, rp, refs, layout)

    want = np.zeros_like(out)
    want[:, : x.size] += np.outer(sp.vbap_gains(rp.doa, layout), rp.dry * x)
    for gain, irs, weights in ((rp.er_gain, refs.er_irs, rp.er_weights),
                               (rp.lr_gain, refs.lr_irs, rp.lr_weights)):
        bus = np.zeros(out.shape[1])
        for ir, w in zip(irs, weights):
            conv = np.convolve(x, ir.samples)
            bus[: conv.size] += w * conv
        want += np.outer(sp.spatialize_wet(sp.vbap_gains(rp.doa, layout)), gain * bus)
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


def test_render_solves_the_panning_once(monkeypatch):
    """The dry path and the wet spread share one ``vbap_gains`` solve."""
    solve, calls = runtime.vbap_gains, []
    monkeypatch.setattr(runtime, "vbap_gains", lambda *args: calls.append(args) or solve(*args))
    rp, refs = _params(doa=(0.6, 0.0, 0.8), l_ds=-3.0, l_er=-6.0)
    sp.render_offline(np.random.default_rng(4).normal(size=300), rp, refs, sp.octahedral_layout())
    assert len(calls) == 1


def test_fft_size_is_the_smallest_5_smooth_length():
    """The wet convolution's FFT length is the smallest 2^a 3^b 5^c >= n,
    against a search over every length from n up, for n = 1..5000."""
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    want, m = [], 1
    for n in range(1, 5001):
        m = max(m, n)
        while not smooth(m):
            m += 1
        want.append(m)
    assert [runtime._fft_size(n) for n in range(1, 5001)] == want


@pytest.mark.parametrize("er_gain, lr_gain, er_weights, lr_weights", [
    (0.5, 0.25, [0.3, 0.7, 0.0], [0.0, 0.4, 0.6]),  # two tails per bus
    (0.5, 0.25, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),  # one tail per bus
    (0.0, 0.25, [0.0, 1.0, 0.0], [0.0, 0.6, 0.4]),  # silent early bus
    (0.7, 0.0, [0.2, 0.8, 0.0], [1.0, 0.0, 0.0]),  # silent late bus
    (0.0, 0.0, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]),  # dry path only
])
def test_render_matches_two_bus_oracle(er_gain, lr_gain, er_weights, lr_weights):
    """One wet convolution equals one convolution per bus, each with its
    own speaker gains, within 1e-12 of the peak."""
    refs = sp.default_reference_irs(sample_rate=8000.0, seed=0)
    layout = sp.octahedral_layout()
    x = np.random.default_rng(5).normal(size=900)
    for doa in ([0.6, 0.0, 0.8], [0.0, -1.0, 0.0]):
        rp = sp.RenderParams(dry=0.8, er_gain=er_gain, lr_gain=lr_gain, er_weights=er_weights,
                             lr_weights=lr_weights, doa=doa)
        got = sp.render_offline(x, rp, refs, layout)
        want = render_two_buses(x, rp, refs, layout)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_render_impulse_er_path_reproduces_reference():
    """Unit impulse, weights (1,0,0), 0 dB: ER channel is P_S up to gains."""
    refs = sp.default_reference_irs(sample_rate=8000.0, seed=0)
    pset = sp.AcousticParamSet(
        pi=1.0, l_ds=-300.0, l_er=0.0, tau_er=0.05, tau_lr=0.4,
        doa=np.array([1.0, 0.0, 0.0]), l_lr=-300.0,
    )
    rp = render_params(pset, refs)
    assert np.allclose(rp.er_weights, [1.0, 0.0, 0.0])
    layout = sp.octahedral_layout()
    x = np.zeros(64)
    x[0] = 1.0
    out = sp.render_offline(x, rp, refs, layout)
    sp_gain = sp.spatialize_wet(sp.vbap_gains(rp.doa, layout))
    ref = refs.er_irs[0].samples
    for s in range(layout.n_speakers):
        channel = out[s, : ref.size]
        assert np.allclose(channel, sp_gain[s] * ref, atol=1e-10)


def test_render_energy_scales_with_levels():
    delta = 20.0 * np.log10(2.0)
    rng = np.random.default_rng(3)
    x = rng.normal(size=400)
    layout = sp.octahedral_layout()
    refs = sp.default_reference_irs(sample_rate=8000.0, seed=0)
    doa = np.array([0.0, 1.0, 0.0])
    base = sp.AcousticParamSet(pi=1.0, l_ds=-6.0, l_er=-12.0, tau_er=0.2,
                               tau_lr=0.8, doa=doa)
    louder = sp.AcousticParamSet(pi=1.0, l_ds=-6.0 + delta, l_er=-12.0 + delta,
                                 tau_er=0.2, tau_lr=0.8, doa=doa)
    out1 = sp.render_offline(x, render_params(base, refs), refs, layout)
    out2 = sp.render_offline(x, render_params(louder, refs), refs, layout)
    e1 = float(np.sum(out1 * out1))
    e2 = float(np.sum(out2 * out2))
    assert e2 / e1 == pytest.approx(4.0, rel=1e-9)


@pytest.mark.parametrize("bad", [
    {"l_ds": np.nan}, {"l_er": np.nan}, {"l_er": np.inf}, {"l_lr": np.nan}, {"l_lr": -np.inf},
    {"tau_er": np.nan, "l_lr": -6.0}, {"tau_lr": np.nan},
    {"l_ds": 1e308}, {"l_er": 1e308}, {"l_lr": 1e308}, {"l_er": 6200.0},
])
def test_render_params_rejects_non_finite_levels_decays_and_gains(bad):
    refs = sp.default_reference_irs(sample_rate=8000.0, seed=0)
    values = dict(pi=1.0, l_ds=-3.0, l_er=-6.0, tau_er=0.2, tau_lr=0.8,
                  doa=np.array([1.0, 0.0, 0.0]), l_lr=None)
    values.update(bad)
    with pytest.raises(InputError):
        render_params(sp.AcousticParamSet(**values), refs)


@pytest.mark.parametrize("bad", [
    {"dry": np.nan}, {"er_gain": np.inf}, {"lr_gain": np.nan}, {"dry": -1.0},
    {"er_weights": [np.nan, 0.5, 0.5]}, {"lr_weights": [0.0, np.inf, 0.0]},
    {"doa": [np.nan, 0.0, 0.0]}, {"doa": [0.0, 0.0, 2.0]},
])
def test_render_params_requires_finite_values(bad):
    values = dict(dry=1.0, er_gain=0.5, lr_gain=0.25, er_weights=[1.0, 0.0, 0.0],
                  lr_weights=[0.0, 0.5, 0.5], doa=[1.0, 0.0, 0.0])
    sp.RenderParams(**values)
    values.update(bad)
    with pytest.raises(InputError):
        sp.RenderParams(**values)


def test_render_rejects_non_mono():
    rp, refs = _params()
    with pytest.raises(InputError):
        sp.render_offline(np.zeros((2, 64)), rp, refs, sp.octahedral_layout())


# ---------------------------------------------------------------------------
# Model queries
# ---------------------------------------------------------------------------


def test_query_reciprocity_and_identity(box_scene, trained_box_euclid4):
    bundles = {"distance": trained_box_euclid4}
    a = box_scene.voxel_center((2, 1, 2)) + np.array([0.2, 0.1, -0.3])
    b = box_scene.voxel_center((5, 2, 5)) + np.array([-0.1, 0.25, 0.2])
    fwd = sp.query_params(bundles, box_scene, a, b)
    bwd = sp.query_params(bundles, box_scene, b, a)
    assert fwd.pi == bwd.pi  # exact reciprocity of the scalar outputs
    same = sp.query_params(bundles, box_scene, a, a)
    assert same.pi == 0.0


def test_query_accuracy_against_oracle(box_scene, trained_box_euclid4):
    bundles = {"distance": trained_box_euclid4}
    rng = np.random.default_rng(4)
    free = box_scene.free_indices()
    diag = box_scene.diagonal
    errs = []
    for _ in range(12):
        ai = free[rng.integers(len(free))]
        bi = free[rng.integers(len(free))]
        a = box_scene.voxel_center(ai)
        b = box_scene.voxel_center(bi)
        truth = sp.geodesic_field(box_scene, a).values[tuple(bi)]
        got = sp.query_params(bundles, box_scene, a, b).pi
        errs.append(abs(got - truth))
    assert np.mean(errs) <= 0.05 * diag


def test_query_full_bundle_fields(box_scene, box_datasets):
    train_ds, val_ds, _ = box_datasets
    cfg = sp.TrainConfig(epochs=150, eval_interval=50, seed=0)
    bundles = {"distance": sp.make_bundle(box_scene, "distance", "euclidean", 4, seed=0)}
    sp.train(bundles["distance"], train_ds, cfg, val_ds=val_ds)
    bundles["levels"] = sp.make_bundle(box_scene, "levels", "euclidean", 4, seed=0)
    sp.train(bundles["levels"], train_ds, cfg, val_ds=val_ds)
    bundles["decays"] = sp.make_bundle(box_scene, "decays", "dot-product", 4, seed=0)
    sp.train(bundles["decays"], train_ds, cfg, val_ds=val_ds)
    a = box_scene.voxel_center((2, 1, 2))
    b = box_scene.voxel_center((5, 2, 5))
    got = sp.query_params(bundles, box_scene, a, b)
    assert np.isfinite(got.l_ds) and np.isfinite(got.l_er)
    assert 0.0 < got.tau_er < 2.0 and 0.0 < got.tau_lr < 2.0
    assert got.l_lr is not None
    assert np.linalg.norm(got.doa) == pytest.approx(1.0, abs=1e-6)
    # scalar outputs are reciprocal; the direction is not required to be
    rev = sp.query_params(bundles, box_scene, b, a)
    assert rev.pi == got.pi
    assert rev.l_ds == got.l_ds and rev.l_er == got.l_er
    assert rev.tau_er == got.tau_er and rev.tau_lr == got.tau_lr
    assert rev.l_lr == got.l_lr


def test_query_requires_distance_bundle(box_scene):
    with pytest.raises(ConfigurationError):
        sp.query_params({}, box_scene, np.zeros(3), np.ones(3))


# ---------------------------------------------------------------------------
# One interpolation per query point
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def maze_bundles(maze_scene):
    """Untrained bundles of all three groups; their warm-started latents
    vary across the grid, which is all the query path needs."""
    families = {"distance": "riemann-diag", "levels": "riemann-diag", "decays": "dot-product"}
    return {g: sp.make_bundle(maze_scene, g, f, 8, seed=3) for g, f in families.items()}


def _off_centre_pairs(scene, count, seed):
    rng = np.random.default_rng(seed)
    return [(random_free_position(scene, rng), random_free_position(scene, rng))
            for _ in range(count)]


def test_query_scalars_match_per_bundle_interpolation(maze_scene, maze_bundles):
    """Reusing the corners and weights of ``a`` and ``b`` across bundles
    leaves every scalar output bit-identical."""
    for a, b in _off_centre_pairs(maze_scene, 40, seed=11):
        got = sp.query_params(maze_bundles, maze_scene, a, b)
        want = per_bundle_query(maze_bundles, a, b)
        for name in ("pi", "l_ds", "l_er", "tau_er", "tau_lr", "l_lr"):
            assert getattr(got, name) == want[name], name


def _falls_back(scene, p) -> bool:
    """Whether interpolating at ``p`` searches the fallback shells: no cell
    corner serves it, by the scalar reference."""
    try:
        _, corners, _ = oracle_masked_interp(np.zeros(scene.dims + (1,)), scene, p)
    except IsolationError:
        return True
    except InputError:
        return False
    base = np.floor((p - scene.origin) / scene.spacing)
    return not np.isin(corners - base, (0, 1)).all()


def _near_degenerate(scene, p) -> bool:
    """Whether ``p`` resolves to a free voxel and two of its offsets from
    the voxel centre tie or one nears a face, within 1e-6 voxel: the
    corners of such a point are walked, not read from the chain table."""
    if not scene.contains(p) or scene.occupancy[scene.voxel_of(p)]:
        return False
    beta = np.abs((p - scene.origin) / scene.spacing - scene.voxel_of(p))
    gaps = np.abs(beta - np.roll(beta, 1))
    return bool((gaps <= 1e-6).any() or (beta >= 0.5 - 1e-6).any())


def test_query_interpolates_each_point_once(maze_scene, maze_bundles, monkeypatch):
    """One interpolation over ``a``, ``b`` and the 12 DOA stencil points,
    no ray walk unless a point is near-degenerate or falls back, one 1x13
    block of ``a`` against ``b`` and the stencil on the distance bundle and
    one 1x1 pair block on each other bundle."""
    from soundprop import latentfield

    batches, rays, decodes = [], [], []
    interp = runtime.interp_points
    monkeypatch.setattr(
        runtime, "interp_points", lambda s, P, m=None: batches.append(np.array(P)) or interp(s, P, m)
    )
    cast = latentfield._walk
    monkeypatch.setattr(
        latentfield, "_walk", lambda s, a, b, *cells: rays.append(len(b)) or cast(s, a, b, *cells)
    )
    for head in {type(bundle.head) for bundle in maze_bundles.values()}:
        def counting(self, U, V, _predict=head.predict):
            decodes.append((type(self).__name__, len(U), len(V)))
            return _predict(self, U, V)
        monkeypatch.setattr(head, "predict", counting)

    h = maze_scene.spacing
    for a, b in _off_centre_pairs(maze_scene, 20, seed=12):
        batches.clear(), rays.clear(), decodes.clear()
        sp.query_params(maze_bundles, maze_scene, a, b)
        assert len(batches) == 1
        assert np.array_equal(batches[0], np.vstack([a, b, b + h * DOA_STENCIL]))
        fell_back = any(_falls_back(maze_scene, p) for p in batches[0])
        walked = any(_near_degenerate(maze_scene, p) for p in batches[0])
        assert len(rays) == walked + fell_back
        assert sorted(decodes) == [
            ("DecaysModel", 1, 1), ("DistanceModel", 1, 13), ("LevelsModel", 1, 1)
        ]


@pytest.mark.parametrize("spacing,origin", [(1.0, (0.0, 0.0, 0.0)), (0.37, (-3.1, 2.2, 0.7))])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_query_at_voxel_centres_reads_predict_fields(spacing, origin, n):
    """``query_params`` at 30 voxel-centre pairs returns, bit for bit,
    ``predict_fields(bundle, a)[head]`` at b's voxel, for every group and
    family: a point on a voxel centre reads that voxel on both paths, and
    a pair decodes to the same bits in a 1x1, a 1x13 and a 1xF block."""
    scene = sp.build_scene(sp.SceneSpec(kind="maze", dims=(15, 4, 15), spacing=spacing, origin=origin, seed=2))
    free = scene.free_indices()
    rng = np.random.default_rng(n)
    for group, family in TRAIN_CASES:
        bundles = {g: sp.make_bundle(scene, g, f, n, seed=7) for g, f in (("distance", "riemann-diag"), (group, family))}
        for ia in rng.choice(len(free), 5, replace=False):
            a = scene.voxel_center(free[ia])
            fields = sp.predict_fields(bundles[group], a)
            for ib in rng.choice(len(free), 6, replace=False):
                q = sp.query_params(bundles, scene, a, scene.voxel_center(free[ib]))
                for head, field in fields.items():
                    assert getattr(q, head) == field.values[tuple(free[ib])], (group, family, head)


def test_query_builds_no_grid_table(maze_scene, maze_bundles, monkeypatch):
    """After the scene is built, neither ``lines_of_sight`` nor a query
    pads the grid again."""
    def no_pad(*args, **kwargs):
        raise AssertionError("np.pad called after the scene was built")

    monkeypatch.setattr(np, "pad", no_pad)
    rng = np.random.default_rng(8)
    a = random_free_position(maze_scene, rng)
    sp.lines_of_sight(maze_scene, a, maze_scene.voxel_center(maze_scene.free_indices()[:40]))
    for a, b in _off_centre_pairs(maze_scene, 10, seed=8):
        sp.query_params(maze_bundles, maze_scene, a, b)


def test_query_rejects_bundle_over_other_grid(maze_scene, maze_bundles, box_scene):
    a = maze_scene.voxel_center(maze_scene.free_indices()[0])
    bundles = dict(maze_bundles, levels=sp.make_bundle(box_scene, "levels", "euclidean", 8))
    with pytest.raises(InputError):
        sp.query_params(bundles, maze_scene, a, a)


def test_query_doa_one_sided_is_second_order():
    """At a receiver whose +x neighbour is a wall the x derivative uses the
    second-order one-sided stencil on ``b - h`` and ``b - 2h``."""
    scene = sp.build_scene(sp.SceneSpec(kind="maze", dims=(16, 6, 16), seed=7))
    occ = scene.occupancy
    free = [tuple(i) for i in scene.free_indices()]
    idx = next(
        (i, j, k) for i, j, k in free
        if occ[i + 1, j, k] and not (occ[i - 1, j, k] or occ[i - 2, j, k])
        and not (occ[i, j - 1, k] or occ[i, j + 1, k] or occ[i, j, k - 1] or occ[i, j, k + 1])
    )
    b = scene.voxel_center(idx)
    a = scene.voxel_center(free[0])
    dist = sp.make_bundle(scene, "distance", "riemann-diag", 8, seed=3)
    h = scene.spacing
    u = latent_at(dist.grid, scene, a)

    def pi_at(axis, k):
        step = np.zeros(3)
        step[axis] = k * h
        v = latent_at(dist.grid, scene, b + step)
        return float(dist.head.predict(u[None, :], v[None, :])["pi"][0, 0])

    c = pi_at(0, 0)
    gy, gz = ((pi_at(ax, 1) - pi_at(ax, -1)) / (2.0 * h) for ax in (1, 2))
    second = np.array([(3.0 * c - 4.0 * pi_at(0, -1) + pi_at(0, -2)) / (2.0 * h), gy, gz])
    first = np.array([(c - pi_at(0, -1)) / h, gy, gz])

    got = sp.query_params({"distance": dist}, scene, a, b).doa
    assert np.allclose(got, -second / np.linalg.norm(second), rtol=0.0, atol=1e-12)
    assert not np.allclose(got, -first / np.linalg.norm(first), rtol=0.0, atol=1e-6)


def test_query_doa_ignores_unresolvable_stencil_points(box_scene):
    """Next to the shell the receiver's ``-h`` points are walls and its
    ``-2h`` points lie outside the scene: the query still answers, with the
    one-sided stencils on the points that resolve."""
    b = box_scene.voxel_center((1, 1, 3))
    a = box_scene.voxel_center((6, 2, 5))
    h = box_scene.spacing
    assert not box_scene.contains(b - 2 * h * np.eye(3)[0])
    dist = sp.make_bundle(box_scene, "distance", "riemann-diag", 8, seed=3)
    u = latent_at(dist.grid, box_scene, a)

    def pi_at(axis, k):
        v = latent_at(dist.grid, box_scene, b + k * h * np.eye(3)[axis])
        return float(dist.head.predict(u[None, :], v[None, :])["pi"][0, 0])

    c = pi_at(0, 0)
    g = np.array([
        (-3.0 * c + 4.0 * pi_at(0, 1) - pi_at(0, 2)) / (2.0 * h),  # x: -h wall, -2h outside
        (pi_at(1, 1) - c) / h,  # y: -h wall, -2h outside, +2h wall
        (pi_at(2, 1) - pi_at(2, -1)) / (2.0 * h),
    ])
    got = sp.query_params({"distance": dist}, box_scene, a, b).doa
    assert np.allclose(got, -g / np.linalg.norm(g), rtol=0.0, atol=1e-12)


def test_renders_of_one_input_share_one_fft_length(monkeypatch):
    """Blends of short and long tails pad one input to one FFT length, the
    smallest 5-smooth length that holds the output."""
    lengths = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, n=None: lengths.append(n) or rfft(a, n))
    x = np.random.default_rng(4).normal(size=1500)
    for tau_er, tau_lr in [(0.05, 0.4), (0.2, 1.2), (0.6, 1.4), (2.0, 3.0)]:
        rp, refs = _params(tau_er=tau_er, tau_lr=tau_lr)
        out = sp.render_offline(x, rp, refs, sp.octahedral_layout())
    assert set(lengths) == {runtime._fft_size(out.shape[1])}
