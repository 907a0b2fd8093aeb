"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line
per criterion while the suite executes.
"""

import time

import numpy as np
import pytest

import soundprop as sp
from soundprop.decoders import (
    DiagDecoder,
    DotProductDecoder,
    PsdDecoder,
    make_distance_decoder,
)
from soundprop.oracle import FieldVolume

from oracles import doa_error, interp_backward, visible_voxels


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} - {description}{detail}")
    assert ok, f"criterion {number}: {description}{detail}"


# ---------------------------------------------------------------------------
# Shared trained fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_box_run():
    """Criterion 7 setup: euclidean n=4 on the 8x4x8 empty box."""
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(8, 4, 8)))
    train_s, val_s, test_s = sp.make_splits(scene, seed=3)
    train_ds = sp.build_dataset(scene, train_s, "train")
    val_ds = sp.build_dataset(scene, val_s, "val")
    test_ds = sp.build_dataset(scene, test_s, "test")
    t0 = time.perf_counter()
    bundle = sp.make_bundle(scene, "distance", "euclidean", 4, seed=0)
    sp.train(bundle, train_ds, sp.TrainConfig(epochs=2000, seed=0), val_ds=val_ds)
    elapsed = time.perf_counter() - t0
    return scene, bundle, test_ds, elapsed


@pytest.fixture(scope="module")
def wall_runs():
    """Criterion 8 setup: both families at n in {4, 8, 16}, same configs."""
    scene = sp.build_scene(sp.SceneSpec(kind="wall-with-aperture", dims=(16, 4, 16)))
    train_s, val_s, test_s = sp.make_splits(scene, seed=5)
    train_ds = sp.build_dataset(scene, train_s, "train")
    val_ds = sp.build_dataset(scene, val_s, "val")
    test_ds = sp.build_dataset(scene, test_s, "test")
    maes = {}
    t0 = time.perf_counter()
    for family in ("euclidean", "riemann-diag"):
        for n in (4, 8, 16):
            bundle = sp.make_bundle(scene, "distance", family, n, seed=0)
            sp.train(bundle, train_ds, sp.TrainConfig(epochs=2000, seed=0), val_ds=val_ds)
            maes[(family, n)] = sp.evaluate_mae(bundle, test_ds)["pi"]
    elapsed = time.perf_counter() - t0
    return maes, elapsed


@pytest.fixture(scope="module")
def doa_box_run():
    """Criterion 11 setup: euclidean n=4 on a 12x6x12 empty box."""
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(12, 6, 12)))
    train_s, val_s, test_s = sp.make_splits(scene, seed=3)
    train_ds = sp.build_dataset(scene, train_s, "train")
    val_ds = sp.build_dataset(scene, val_s, "val")
    bundle = sp.make_bundle(scene, "distance", "euclidean", 4, seed=0)
    sp.train(bundle, train_ds, sp.TrainConfig(epochs=2000, seed=0), val_ds=val_ds)
    return scene, bundle, test_s


def _analytic_doa_volume(scene, src):
    centers = scene.voxel_centers()
    diff = src - centers
    norm = np.linalg.norm(diff, axis=-1)
    vals = np.full(centers.shape, np.nan)
    ok = (norm > 1e-9) & scene.free_mask()
    vals[ok] = diff[ok] / norm[ok][..., None]
    return FieldVolume(source=src, kind="doa", values=vals,
                       spacing=scene.spacing, origin=scene.origin)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_memory_accounting():
    t0 = time.perf_counter()
    gym = sp.cost_report((59, 8, 59), 16)
    wal = sp.cost_report((173, 8, 154), 16)
    got = (gym.wavecoding_memory, gym.rlf_memory, wal.wavecoding_memory, wal.rlf_memory)
    want = ("3.1 GB", "1.8 MB", "182 GB", "14 MB")
    elapsed = time.perf_counter() - t0
    report(1, "memory accounting reproduces the reference figures",
           got == want and elapsed < 1.0, f" (got {got}, {elapsed:.3f}s)")


def test_criterion_02_parameter_counts():
    t0 = time.perf_counter()
    got = {
        "riemann-psd": make_distance_decoder("riemann-psd", 16).param_count(),
        "riemann-diag": make_distance_decoder("riemann-diag", 16).param_count(),
        "mlp-small": make_distance_decoder("mlp-small", 16).param_count(),
        "mlp-large": make_distance_decoder("mlp-large", 16).param_count(),
        "euclidean": make_distance_decoder("euclidean", 16).param_count(),
        "dot-product": DotProductDecoder(16).param_count(),
    }
    want = {
        "riemann-psd": 4096,
        "riemann-diag": 256,
        "mlp-small": 2145,
        "mlp-large": 14593,
        "euclidean": 0,
        "dot-product": 0,
    }
    elapsed = time.perf_counter() - t0
    report(2, "decoder parameter counts exact", got == want and elapsed < 1.0,
           f" (got {got})")


def test_criterion_03_flop_accounting():
    t0 = time.perf_counter()
    checks = [
        ("euclidean", make_distance_decoder("euclidean", 16).flop_count(), 46),
        ("riemann-diag", make_distance_decoder("riemann-diag", 16).flop_count(), 335),
        ("dot-product", DotProductDecoder(16).flop_count(), 32),
    ]
    ok = all(abs(got - ref) <= 0.15 * ref for _, got, ref in checks)
    elapsed = time.perf_counter() - t0
    report(3, "FLOP counts within 15% of the reference figures",
           ok and elapsed < 1.0,
           f" ({', '.join(f'{f}={g} vs {r}' for f, g, r in checks)})")


def test_criterion_04_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    families = ("euclidean", "riemann-psd", "riemann-diag", "mlp", "dot-product")
    worst = 0.0
    for family in families:
        for i in range(100):
            n = (2, 8, 16)[i % 3]
            decoder = make_distance_decoder(family, n, seed=i)
            u = rng.normal(size=n)
            v = rng.normal(size=n)
            up = float(rng.normal())
            gU, gV, gP = decoder.backward(decoder.forward(u[None], v[None])[1], np.full((1, 1), up))
            g = {"u": gU[0], "v": gV[0], "params": gP}

            def objective():
                return float(np.atleast_1d(decoder.forward(u[None], v[None])[0][0])[0] * up)

            # central differences cannot certify entries much below 1e-4 at
            # any step size; smaller entries are checked absolutely. Probes
            # whose interval straddles a ReLU kink (one-sided slopes
            # disagree) are skipped: the function is not differentiable
            # there and no finite-difference reference exists.
            eps = 1e-5
            f0 = objective()

            def probe(fp, fm, an):
                nonlocal worst
                left = (f0 - fm) / eps
                right = (fp - f0) / eps
                if abs(left - right) > 1.5e-4 * max(abs(left), abs(right), 1.0):
                    return
                fd = (fp - fm) / (2 * eps)
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-4))

            for key, vec in (("u", u), ("v", v)):
                for j in rng.integers(n, size=min(3, n)):
                    old = vec[j]
                    vec[j] = old + eps
                    fp = objective()
                    vec[j] = old - eps
                    fm = objective()
                    vec[j] = old
                    probe(fp, fm, g[key][j])
            for name, arr in decoder.trainable().items():
                flat = arr.ravel()
                for j in rng.integers(flat.size, size=2):
                    old = flat[j]
                    flat[j] = old + eps
                    fp = objective()
                    flat[j] = old - eps
                    fm = objective()
                    flat[j] = old
                    probe(fp, fm, g["params"][name].ravel()[j])

    # interpolation adjoint on 100 random instances
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(8, 4, 8)))
    for i in range(100):
        n = (2, 8, 16)[i % 3]
        grid = sp.init_latent_grid(scene, n, seed=i)
        p = scene.voxel_center((2, 1, 2)) + rng.uniform(0.0, 1.0, size=3)
        phi = rng.normal(size=n)
        r = sp.interp_points(scene, p[None])
        corners = r.corners[0, r.weights[0] > 0]
        contribs = np.zeros_like(grid.values)
        interp_backward(r, phi[None, :], contribs)
        contribs = contribs[tuple(corners.T)]
        ci = int(rng.integers(len(corners)))
        comp = int(rng.integers(n))
        corner = tuple(corners[ci])
        eps = 1e-6
        vp = grid.values.copy()
        vm = grid.values.copy()
        vp[corner + (comp,)] += eps
        vm[corner + (comp,)] -= eps
        gp = sp.LatentGrid(values=vp)
        gm = sp.LatentGrid(values=vm)
        jp = phi @ r.sample(gp.values)[0]
        jm = phi @ r.sample(gm.values)[0]
        fd = (jp - jm) / (2 * eps)
        an = contribs[ci, comp]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-4))

    elapsed = time.perf_counter() - t0
    report(4, "gradients match central finite differences",
           worst <= 1e-4 and elapsed < 30.0,
           f" (max rel err {worst:.2e}, {elapsed:.1f}s)")


def _paired(decoder, U, V) -> np.ndarray:
    """The decoder's output on each pair ``(U[i], V[i])``, each a 1x1 block."""
    return np.array([decoder.forward(u[None], v[None])[0][0, 0] for u, v in zip(U, V)])


def test_criterion_05_metric_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 8
    U, V, W = rng.normal(size=(3, 10_000, n))
    d = make_distance_decoder("euclidean", n)
    d_uv = _paired(d, U, V)
    ok = bool(
        np.all(d_uv >= 0.0)
        and np.all(_paired(d, U, U) == 0.0)
        and np.all(d_uv == _paired(d, V, U))
        and np.all(_paired(d, U, W) <= d_uv + _paired(d, V, W) + 1e-9)
    )
    for family in ("riemann-psd", "riemann-diag", "mlp"):
        dec = make_distance_decoder(family, n, seed=1)
        a = _paired(dec, U[:500], V[:500])
        b = _paired(dec, V[:500], U[:500])
        ok = ok and bool(np.allclose(a, b, atol=1e-12))
    K = 2.0
    dot = DotProductDecoder(n)
    taus = _paired(dot, U * 4.0, V * 4.0)
    ok = ok and bool(np.all((taus > 0.0) & (taus < K)))
    ok = ok and bool(np.all(taus == _paired(dot, V * 4.0, U * 4.0)))
    elapsed = time.perf_counter() - t0
    report(5, "pseudo-metric axioms, symmetry and strict decay range",
           ok and elapsed < 10.0, f" ({elapsed:.1f}s)")


def test_criterion_06_reduction_identities():
    t0 = time.perf_counter()
    n = 16
    rng = np.random.default_rng(11)
    U, V = rng.normal(size=(2, 1000, n))
    euclid = make_distance_decoder("euclidean", n)
    base = _paired(euclid, U, V)
    psd = PsdDecoder(n, np.zeros((n * n, n)))
    diag = DiagDecoder(n, np.zeros((n, n)))
    err_psd = float(np.max(np.abs(_paired(psd, U, V) - base)))
    err_diag = float(np.max(np.abs(_paired(diag, U, V) - base)))
    elapsed = time.perf_counter() - t0
    report(6, "identity-metric decoders reduce to the Euclidean decoder",
           err_psd <= 1e-12 and err_diag <= 1e-12 and elapsed < 5.0,
           f" (max errs psd {err_psd:.1e}, diag {err_diag:.1e})")


def test_criterion_07_open_scene_training(small_box_run):
    scene, bundle, test_ds, elapsed = small_box_run
    mae = sp.evaluate_mae(bundle, test_ds)["pi"]
    bound = 0.05 * scene.diagonal
    report(7, "open-scene held-out path-distance MAE within 5% of the diagonal",
           mae <= bound and elapsed <= 120.0,
           f" (MAE {mae:.3f} m vs {bound:.3f} m, train {elapsed:.0f}s)")


def test_criterion_08_occluded_scene_families(wall_runs):
    maes, elapsed = wall_runs
    dominated = all(
        maes[("riemann-diag", n)] <= maes[("euclidean", n)] for n in (4, 8, 16)
    )
    e8, e16 = maes[("euclidean", 8)], maes[("euclidean", 16)]
    saturation = (e8 - e16) / e8 < 0.20
    detail = ", ".join(
        f"n={n}: diag {maes[('riemann-diag', n)]:.3f} vs euclid {maes[('euclidean', n)]:.3f}"
        for n in (4, 8, 16)
    )
    report(8, "occluded scene: local-metric decoder dominates, Euclidean saturates",
           dominated and saturation and elapsed <= 900.0,
           f" ({detail}; euclid 8->16 gain {(e8 - e16) / e8:.1%}; {elapsed:.0f}s)")


def test_criterion_09_stop_gradient_and_determinism():
    t0 = time.perf_counter()
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(8, 4, 8)))
    src_idx, recv_idx = (2, 1, 2), (5, 2, 5)
    src = scene.voxel_center(src_idx)
    geo = sp.geodesic_field(scene, src)
    lone = np.full(scene.dims, np.nan)
    lone[recv_idx] = geo.values[recv_idx]
    pi = FieldVolume(source=src, kind="path-distance", values=lone,
                     spacing=scene.spacing, origin=scene.origin)
    ds = sp.Dataset(scene=scene, sources=[src], fields=[{"pi": pi}])
    bundle = sp.make_bundle(scene, "distance", "euclidean", 4, seed=0)
    before = bundle.grid.values[src_idx].copy()
    sp.train(bundle, ds, sp.TrainConfig(epochs=25, eval_interval=0, seed=0))
    frozen = np.array_equal(bundle.grid.values[src_idx], before)

    full = sp.build_dataset(scene, [scene.voxel_center(i) for i in ((2, 1, 2), (5, 2, 5))])
    snaps = []
    for _ in range(2):
        b2 = sp.make_bundle(scene, "distance", "riemann-diag", 4, seed=0)
        sp.train(b2, full, sp.TrainConfig(epochs=60, eval_interval=0, seed=3))
        snaps.append(b2.snapshot())
    identical = all(
        np.array_equal(snaps[0][name], snaps[1][name]) for name in snaps[0]
    )
    elapsed = time.perf_counter() - t0
    report(9, "stop-gradient freezes the source latent; runs are bit-identical",
           frozen and identical and elapsed < 60.0,
           f" ({elapsed:.1f}s)")


def test_criterion_10_ir_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = {"pi": 0.0, "l_ds": 0.0, "l_er": 0.0, "tau_er": 0.0, "tau_lr": 0.0}
    for trial in range(50):
        truth = sp.AcousticParamSet(
            pi=float(rng.uniform(0.5, 30.0)),
            l_ds=float(rng.uniform(-30.0, 0.0)),
            l_er=float(rng.uniform(-36.0, -6.0)),
            tau_er=float(rng.uniform(0.25, 1.2)),
            tau_lr=float(rng.uniform(0.5, 1.8)),
        )
        ir = sp.synth_ir(truth, seed=trial)
        got = sp.extract_params(ir)
        worst["pi"] = max(worst["pi"], abs(got.pi - truth.pi))
        worst["l_ds"] = max(worst["l_ds"], abs(got.l_ds - truth.l_ds))
        worst["l_er"] = max(worst["l_er"], abs(got.l_er - truth.l_er))
        worst["tau_er"] = max(worst["tau_er"], abs(got.tau_er - truth.tau_er) / truth.tau_er)
        worst["tau_lr"] = max(worst["tau_lr"], abs(got.tau_lr - truth.tau_lr) / truth.tau_lr)
    fs = ir.sample_rate
    ok = (
        worst["pi"] <= 343.0 / fs
        and worst["l_ds"] <= 0.5
        and worst["l_er"] <= 0.5
        and worst["tau_lr"] <= 0.05
        and worst["tau_er"] <= 0.10
    )
    elapsed = time.perf_counter() - t0
    report(10, "synthetic IR round trip within stated tolerances",
           ok and elapsed < 60.0,
           f" (worst: pi {worst['pi']:.3f} m, L_DS {worst['l_ds']:.2f} dB, "
           f"L_ER {worst['l_er']:.2f} dB, tau_ER {worst['tau_er']:.1%}, "
           f"tau_LR {worst['tau_lr']:.1%}; {elapsed:.1f}s)")


def test_criterion_11_doa(doa_box_run):
    t0 = time.perf_counter()
    scene, bundle, test_sources = doa_box_run
    # analytic free-field distance volume through the stencil estimator
    src = scene.voxel_center((6, 3, 6))
    centers = scene.voxel_centers()
    anal = np.linalg.norm(centers - src, axis=-1)
    anal[scene.occupancy] = np.nan
    fv = FieldVolume(source=src, kind="path-distance", values=anal,
                     spacing=scene.spacing, origin=scene.origin)
    analytic_err = doa_error(sp.doa_field(scene, fv), _analytic_doa_volume(scene, src))

    errs = []
    for s in test_sources:
        pred = sp.doa_field(scene, sp.predict_fields(bundle, s)["pi"])
        truth = _analytic_doa_volume(scene, np.asarray(s, float))
        errs.append(doa_error(pred, truth))
    model_err = float(np.mean(errs))
    elapsed = time.perf_counter() - t0
    report(11, "direction-of-arrival accuracy (analytic and trained model)",
           analytic_err <= 2.0 and model_err <= 10.0 and elapsed < 120.0,
           f" (analytic {analytic_err:.2f} deg, trained {model_err:.2f} deg over "
           f"{len(errs)} held-out sources)")


def test_criterion_12_rendering():
    t0 = time.perf_counter()
    ok = abs(sp.dry_gain(-6.0206) - 0.5) < 5e-6
    ok = ok and sp.dry_gain(20.0 * np.log10(0.5)) == pytest.approx(0.5, abs=1e-15)

    refs = (0.1, 0.3, 0.9)
    prev = None
    for tau in np.linspace(0.01, 1.2, 1000):
        w = sp.wet_weights(float(tau), refs)
        ok = ok and w.sum() == pytest.approx(1.0, abs=1e-12)
        ok = ok and np.all(w >= 0.0) and np.count_nonzero(w) <= 2
        if prev is not None:
            ok = ok and np.max(np.abs(w - prev)) < 0.02
        prev = w

    layout = sp.octahedral_layout()
    rng = np.random.default_rng(21)
    for _ in range(100):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        g = sp.vbap_gains(d, layout)
        ok = ok and abs(float(np.sum(g * g)) - 1.0) <= 1e-9
        recon = layout.directions.T @ g
        recon /= np.linalg.norm(recon)
        ok = ok and bool(np.all(np.abs(recon - d) <= 1e-9))
        wet = float(rng.uniform(0.2, 2.0))
        s = wet * sp.spatialize_wet(sp.vbap_gains(d, layout))
        ok = ok and abs(float(np.sum(s * s)) - wet * wet) <= 1e-9 * wet * wet
        panned_share = float(np.sum((s * s) * (g > 0)))
        # a third of the energy follows the panned triple plus its omni share
        omni = wet * wet * 2.0 / (3.0 * layout.n_speakers)
        expect = wet * wet / 3.0 + omni * np.count_nonzero(g > 0)
        ok = ok and abs(panned_share - expect) <= 1e-9
    elapsed = time.perf_counter() - t0
    report(12, "rendering gains, weights, panning and energy split",
           ok and elapsed < 10.0, f" ({elapsed:.1f}s)")


def test_criterion_13_source_sampling():
    t0 = time.perf_counter()
    ok = True
    for dims in ((12, 4, 10), (14, 4, 12)):
        scene = sp.build_scene(
            sp.SceneSpec(kind="coupled-rooms", dims=dims, geometry={"door": 1})
        )
        for seed in range(5):
            sources = sp.sample_sources(scene, seed=seed)
            covered = np.zeros(scene.dims, bool)
            for src in sources:
                covered |= visible_voxels(scene, src)
            ok = ok and bool((covered | scene.occupancy).all())
    box = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(8, 4, 8)))
    n_box = len(sp.sample_sources(box, seed=0))
    ok = ok and n_box == 20
    elapsed = time.perf_counter() - t0
    report(13, "adaptive sampling covers sealed rooms; open box needs exactly 20",
           ok and elapsed < 30.0, f" (box sources {n_box}, {elapsed:.1f}s)")
