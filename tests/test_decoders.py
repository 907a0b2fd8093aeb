import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundprop.decoders import (
    DecaysModel,
    DiagDecoder,
    DistanceModel,
    DotProductDecoder,
    EuclideanDecoder,
    LevelsModel,
    MlpDecoder,
    PsdDecoder,
    make_distance_decoder,
)

FAMILIES = ("euclidean", "riemann-psd", "riemann-diag", "mlp")


# ---------------------------------------------------------------------------
# Euclidean
# ---------------------------------------------------------------------------


def test_euclid_identity_and_pythagoras():
    d = EuclideanDecoder(8)
    u = np.zeros(8)
    assert d.pairwise(u, u)[0] == 0.0
    v = np.zeros(8)
    v[0], v[1] = 3.0, 4.0
    assert d.pairwise(u, v)[0] == pytest.approx(5.0, abs=1e-12)


def test_euclid_matches_two_pass_sum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.normal(size=16)
        v = rng.normal(size=16)
        total = 0.0
        for i in range(16):
            total += (u[i] - v[i]) * (u[i] - v[i])
        assert EuclideanDecoder(16).pairwise(u, v)[0] == pytest.approx(np.sqrt(total), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_euclid_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    u, v, w = rng.normal(size=(3, 8))

    def d(a, b):
        return EuclideanDecoder(8).pairwise(a, b)[0]

    assert d(u, v) >= 0.0
    assert d(u, u) == 0.0
    assert d(u, v) == d(v, u)
    assert d(u, w) <= d(u, v) + d(v, w) + 1e-9


# ---------------------------------------------------------------------------
# Riemannian families
# ---------------------------------------------------------------------------


def test_psd_identity_map_reduces_to_euclid():
    n = 16
    model = PsdDecoder(n, np.zeros((n * n, n)))  # A(m) = I exactly
    rng = np.random.default_rng(1)
    for _ in range(50):
        u, v = rng.normal(size=(2, n))
        assert model.pairwise(u, v)[0] == pytest.approx(
            EuclideanDecoder(n).pairwise(u, v)[0], abs=1e-12
        )


def test_diag_unit_weights_reduce_to_euclid():
    n = 16
    model = DiagDecoder(n, np.zeros((n, n)))  # lambda(m) = 1 exactly
    rng = np.random.default_rng(2)
    for _ in range(50):
        u, v = rng.normal(size=(2, n))
        assert model.pairwise(u, v)[0] == pytest.approx(
            EuclideanDecoder(n).pairwise(u, v)[0], abs=1e-12
        )


def test_diag_constant_two_doubles_distance():
    """A lambda field of constant 2 scales the distance by exactly 2."""
    n = 8
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=(2, n))
    # residual form: lambda(m) = 1 + M m; choose M so that M m = 1 for the
    # specific midpoint of this pair, giving lambda(m) = 2 there
    m = 0.5 * (u + v)
    row = m / (m @ m)
    model = DiagDecoder(n, np.tile(row, (n, 1)))
    base = EuclideanDecoder(n).pairwise(u, v)[0]
    assert model.pairwise(u, v)[0] == pytest.approx(2.0 * base, rel=1e-12)


def test_riemann_symmetry_and_positivity():
    rng = np.random.default_rng(4)
    for family in ("riemann-psd", "riemann-diag"):
        model = make_distance_decoder(family, 8, seed=9)
        for _ in range(50):
            u, v = rng.normal(size=(2, 8))
            d_uv = model.pairwise(u, v)[0]
            d_vu = model.pairwise(v, u)[0]
            assert d_uv == pytest.approx(d_vu, abs=1e-12)
            assert d_uv >= 0.0
            assert model.pairwise(u, u)[0] == 0.0


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------


def test_mlp_swap_bit_identical():
    model = make_distance_decoder("mlp", 8, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(50):
        u, v = rng.normal(size=(2, 8))
        assert model.pairwise(u, v)[0] == model.pairwise(v, u)[0]


def test_mlp_zero_weights_constant_bias():
    model = make_distance_decoder("mlp", 4, seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.biases[-1][:] = -2.5
    rng = np.random.default_rng(7)
    u, v = rng.normal(size=(2, 4))
    assert model.pairwise(u, v)[0] == pytest.approx(-2.5, abs=1e-15)


def test_mlp_matches_independent_forward():
    """Hand-rolled forward pass, written without the production helpers."""
    model = make_distance_decoder("mlp", 6, seed=11)
    rng = np.random.default_rng(8)
    u, v = rng.normal(size=(2, 6))

    def phi(z):
        a = z
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            pre = w @ a + b
            a = np.where(pre > 0, pre, 0.0) if i < len(model.weights) - 1 else pre
        return a[0]

    expected = 0.5 * (phi(np.concatenate([u, v])) + phi(np.concatenate([v, u])))
    assert model.pairwise(u, v)[0] == pytest.approx(expected, abs=1e-10)


def test_mlp_standard_shapes():
    small = make_distance_decoder("mlp-small", 16)
    large = make_distance_decoder("mlp-large", 16)
    assert [w.shape[0] for w in small.weights] == [32, 32, 1]
    assert [w.shape[0] for w in large.weights] == [128, 64, 32, 1]


# ---------------------------------------------------------------------------
# Decay dot product
# ---------------------------------------------------------------------------


def test_decay_dot_pinned_values():
    n = 4
    d = DotProductDecoder(n, K=2.0)
    u = np.zeros(n)
    v = np.zeros(n)
    assert d.pairwise(u, v)[0] == pytest.approx(1.0, abs=1e-12)  # K/2
    u = np.array([np.log(3.0), 0.0, 0.0, 0.0])
    v = np.array([1.0, 0.0, 0.0, 0.0])
    assert d.pairwise(u, v)[0] == pytest.approx(1.5, abs=1e-12)
    u = np.array([30.0, 0.0, 0.0, 0.0])
    assert d.pairwise(u, v)[0] == pytest.approx(2.0, abs=1e-9 * 2.0)


def test_decay_dot_strict_range_and_symmetry():
    rng = np.random.default_rng(9)
    K = 2.0
    d = DotProductDecoder(8, K)
    for _ in range(200):
        u, v = rng.normal(size=(2, 8)) * 3.0
        tau = d.pairwise(u, v)[0]
        assert 0.0 < tau < K
        assert tau == d.pairwise(v, u)[0]


# ---------------------------------------------------------------------------
# Level heads
# ---------------------------------------------------------------------------


def test_level_heads_identity_pair():
    model = LevelsModel(EuclideanDecoder(6), 6, seed=0)
    model.l0[0] = -3.0
    u = np.random.default_rng(10).normal(size=6)
    l_ds = model.predict(u, u)["l_ds"][0]
    assert l_ds == pytest.approx(-3.0, abs=1e-12)


def test_level_heads_constant_local_field():
    model = LevelsModel(EuclideanDecoder(4), 4, seed=0)
    model.w[:] = 0.0
    model.beta[0] = -10.0
    u = np.array([2.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 0.0, 0.0])  # h(Pu, Pv) with P = I-ish
    model.proj[:] = np.eye(4)
    l_er = model.predict(u, v)["l_er"][0]
    assert l_er == pytest.approx(-12.0, abs=1e-12)


def test_level_heads_symmetric():
    rng = np.random.default_rng(11)
    for family in FAMILIES:
        k = 2 if family == "mlp" else 1
        model = LevelsModel(make_distance_decoder(family, 8, seed=1, k=k), 8, seed=1)
        u, v = rng.normal(size=(2, 8))
        uv, vu = model.predict(u, v), model.predict(v, u)
        assert (uv["l_ds"][0], uv["l_er"][0]) == (vu["l_ds"][0], vu["l_er"][0])


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_euclid_gradient_pinned():
    u = np.array([3.0, 4.0])
    v = np.zeros(2)
    gU, gV, _ = EuclideanDecoder(2).pairwise_backward(u, v, 1.0)
    assert np.allclose(gU[0], [0.6, 0.8], atol=1e-12)
    assert np.allclose(gV[0], [-0.6, -0.8], atol=1e-12)


def test_decay_dot_gradient_pinned():
    n = 3
    u = np.zeros(n)
    v = np.array([1.0, -2.0, 0.5])
    gU, _, _ = DotProductDecoder(n, K=2.0).pairwise_backward(u, v, 1.0)
    assert np.allclose(gU[0], 0.25 * 2.0 * v, atol=1e-12)


def _finite_difference_check(decoder, n, rng, k=1, trials=10, tol=1e-4):
    worst = 0.0
    for _ in range(trials):
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        up = rng.normal(size=k) if k > 1 else float(rng.normal())
        gU, gV, gP = decoder.pairwise_backward(u, v, np.reshape(up, (1, k)) if k > 1 else up)
        g = {"u": gU[0], "v": gV[0], "params": gP}

        def objective():
            out = np.atleast_1d(decoder.pairwise(u, v)[0])
            return float(out @ np.atleast_1d(up))

        eps = 1e-5
        f0 = objective()

        def probe(fp, fm, an):
            nonlocal worst
            # skip probes straddling a ReLU kink: not differentiable there
            left = (f0 - fm) / eps
            right = (fp - f0) / eps
            if abs(left - right) > 1.5e-4 * max(abs(left), abs(right), 1.0):
                return
            fd = (fp - fm) / (2 * eps)
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-4))

        for vec, key in ((u, "u"), (v, "v")):
            for i in range(n):
                old = vec[i]
                vec[i] = old + eps
                fp = objective()
                vec[i] = old - eps
                fm = objective()
                vec[i] = old
                probe(fp, fm, g[key][i])
        for name, arr in decoder.trainable().items():
            flat = arr.ravel()
            for i in rng.integers(flat.size, size=min(6, flat.size)):
                old = flat[i]
                flat[i] = old + eps
                fp = objective()
                flat[i] = old - eps
                fm = objective()
                flat[i] = old
                probe(fp, fm, g["params"][name].ravel()[i])
    return worst


@pytest.mark.parametrize("family", FAMILIES + ("dot-product",))
@pytest.mark.parametrize("n", [2, 8, 16])
def test_gradients_match_finite_differences(family, n):
    seed = n * 101 + (FAMILIES + ("dot-product",)).index(family)
    rng = np.random.default_rng(seed)
    decoder = make_distance_decoder(family, n, seed=13)
    assert _finite_difference_check(decoder, n, rng) <= 1e-4


def test_gradient_zero_at_coincident_inputs():
    rng = np.random.default_rng(12)
    u = rng.normal(size=8)
    for family in ("euclidean", "riemann-psd", "riemann-diag"):
        gU, gV, _ = make_distance_decoder(family, 8, seed=2).pairwise_backward(u, u.copy(), 1.0)
        assert np.all(gU == 0.0) and np.all(gV == 0.0)


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


def test_param_counts_pinned():
    assert make_distance_decoder("riemann-psd", 16).param_count() == 4096
    assert make_distance_decoder("riemann-diag", 16).param_count() == 256
    assert make_distance_decoder("mlp-small", 16).param_count() == 2145
    assert make_distance_decoder("mlp-large", 16).param_count() == 14593
    assert make_distance_decoder("euclidean", 16).param_count() == 0
    assert DotProductDecoder(16).param_count() == 0


def test_flop_counts_within_reported_band():
    assert abs(make_distance_decoder("euclidean", 16).flop_count() - 46) <= 0.15 * 46
    assert abs(make_distance_decoder("riemann-diag", 16).flop_count() - 335) <= 0.15 * 335
    assert abs(DotProductDecoder(16).flop_count() - 32) <= 0.15 * 32


HEAD_CASES = (
    [(DistanceModel, f) for f in FAMILIES]
    + [(LevelsModel, f) for f in FAMILIES + ("dot-product",)]
    + [(DecaysModel, f) for f in ("dot-product", "mlp")]
)


@pytest.mark.parametrize(
    "kind,family", HEAD_CASES, ids=[f"{k.__name__}-{f}" for k, f in HEAD_CASES]
)
def test_head_gradients_match_finite_differences(kind, family):
    """``backward`` of each head against central differences of ``predict``,
    on every entry of ``U``, ``V`` and of every trainable array."""
    n, rows, eps = 4, 3, 1e-5
    rng = np.random.default_rng(HEAD_CASES.index((kind, family)))
    k = 2 if family == "mlp" and kind is not DistanceModel else 1
    decoder = make_distance_decoder(family, n, seed=3, hidden=(8, 8), k=k)
    head = DistanceModel(decoder) if kind is DistanceModel else kind(decoder, n, seed=3)
    # move every parameter off its initial value (zeros, identity) so that
    # no gradient term hides behind a zero
    for p in head.trainable().values():
        p += rng.normal(0.0, 0.1, size=p.shape)
    U, V = rng.normal(size=(2, rows, n))
    up = {h: rng.normal(size=rows) for h in head.predict(U, V)}
    gU, gV, grads = head.backward(U, V, up)
    assert set(grads) == set(head.trainable())

    def objective():
        return sum(float(out @ up[h]) for h, out in head.predict(U, V).items())

    f0 = objective()
    worst, probed = 0.0, 0
    arrays = [(U, gU), (V, gV)] + [(p, grads[name]) for name, p in head.trainable().items()]
    for arr, grad in arrays:
        flat = arr.ravel()
        assert np.shares_memory(flat, arr) and grad.shape == arr.shape
        for i, an in enumerate(grad.ravel()):
            old = flat[i]
            flat[i] = old + eps
            fp = objective()
            flat[i] = old - eps
            fm = objective()
            flat[i] = old
            # skip probes straddling a ReLU kink: not differentiable there
            left, right = (f0 - fm) / eps, (fp - f0) / eps
            if abs(left - right) > 1.5e-4 * max(abs(left), abs(right), 1.0):
                continue
            fd = (fp - fm) / (2 * eps)
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-4))
            probed += 1
    assert probed >= 0.9 * sum(arr.size for arr, _ in arrays)
    assert worst <= 1e-4


def test_head_models_declare_their_params():
    levels = LevelsModel(make_distance_decoder("riemann-diag", 8, seed=0), 8, seed=0)
    names = set(levels.trainable())
    assert {"l0", "w", "beta", "proj", "decoder.weights"} == names
    decays = DecaysModel(DotProductDecoder(8), 8, seed=0)
    assert set(decays.trainable()) == {"proj"}
    dist = DistanceModel(make_distance_decoder("riemann-psd", 8, seed=0))
    assert set(dist.trainable()) == {"decoder.weights"}
