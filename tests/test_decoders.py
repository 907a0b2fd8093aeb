import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundprop.decoders import (
    DEFAULT_MAX_DECAY,
    DecaysModel,
    DiagDecoder,
    DistanceModel,
    DotProductDecoder,
    EuclideanDecoder,
    LevelsModel,
    MlpDecoder,
    PsdDecoder,
    _norm_adjoint,
    _sigmoid,
    make_distance_decoder,
)
from soundprop.errors import ConfigurationError

from oracles import levels_decode, masked_norm_adjoint, masked_sigmoid, midpoint_diag_decode, norm_decode
from precompute_digests import configuration

FAMILIES = ("euclidean", "riemann-psd", "riemann-diag", "mlp")


# ---------------------------------------------------------------------------
# Euclidean
# ---------------------------------------------------------------------------


def test_euclid_identity_and_pythagoras():
    d = EuclideanDecoder(8)
    u = np.zeros(8)
    assert d.pairwise(u, u)[0, 0] == 0.0
    v = np.zeros(8)
    v[0], v[1] = 3.0, 4.0
    assert d.pairwise(u, v)[0, 0] == pytest.approx(5.0, abs=1e-12)


def test_euclid_matches_two_pass_sum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.normal(size=16)
        v = rng.normal(size=16)
        total = 0.0
        for i in range(16):
            total += (u[i] - v[i]) * (u[i] - v[i])
        assert EuclideanDecoder(16).pairwise(u, v)[0, 0] == pytest.approx(np.sqrt(total), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_euclid_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    u, v, w = rng.normal(size=(3, 8))

    def d(a, b):
        return EuclideanDecoder(8).pairwise(a, b)[0, 0]

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
        assert model.pairwise(u, v)[0, 0] == pytest.approx(
            EuclideanDecoder(n).pairwise(u, v)[0, 0], abs=1e-12
        )


def test_diag_unit_weights_reduce_to_euclid():
    n = 16
    model = DiagDecoder(n, np.zeros((n, n)))  # lambda(m) = 1 exactly
    rng = np.random.default_rng(2)
    for _ in range(50):
        u, v = rng.normal(size=(2, n))
        assert model.pairwise(u, v)[0, 0] == pytest.approx(
            EuclideanDecoder(n).pairwise(u, v)[0, 0], abs=1e-12
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
    base = EuclideanDecoder(n).pairwise(u, v)[0, 0]
    assert model.pairwise(u, v)[0, 0] == pytest.approx(2.0 * base, rel=1e-12)


def test_riemann_symmetry_and_positivity():
    rng = np.random.default_rng(4)
    for family in ("riemann-psd", "riemann-diag"):
        model = make_distance_decoder(family, 8, seed=9)
        for _ in range(50):
            u, v = rng.normal(size=(2, 8))
            d_uv = model.pairwise(u, v)[0, 0]
            d_vu = model.pairwise(v, u)[0, 0]
            assert d_uv == pytest.approx(d_vu, abs=1e-12)
            assert d_uv >= 0.0
            assert model.pairwise(u, u)[0, 0] == 0.0


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------


def test_mlp_swap_bit_identical():
    model = make_distance_decoder("mlp", 8, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(50):
        u, v = rng.normal(size=(2, 8))
        assert model.pairwise(u, v)[0, 0] == model.pairwise(v, u)[0, 0]


def test_mlp_zero_weights_constant_bias():
    model = make_distance_decoder("mlp", 4, seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.biases[-1][:] = -2.5
    rng = np.random.default_rng(7)
    u, v = rng.normal(size=(2, 4))
    assert model.pairwise(u, v)[0, 0] == pytest.approx(-2.5, abs=1e-15)


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
    assert model.pairwise(u, v)[0, 0] == pytest.approx(expected, abs=1e-10)


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
    d = DotProductDecoder(n)
    u = np.zeros(n)
    v = np.zeros(n)
    assert d.pairwise(u, v)[0, 0] == pytest.approx(1.0, abs=1e-12)  # K/2
    u = np.array([np.log(3.0), 0.0, 0.0, 0.0])
    v = np.array([1.0, 0.0, 0.0, 0.0])
    assert d.pairwise(u, v)[0, 0] == pytest.approx(1.5, abs=1e-12)
    u = np.array([30.0, 0.0, 0.0, 0.0])
    assert d.pairwise(u, v)[0, 0] == pytest.approx(2.0, abs=1e-9 * 2.0)


def test_decay_dot_strict_range_and_symmetry():
    rng = np.random.default_rng(9)
    K = 2.0
    d = DotProductDecoder(8)
    for _ in range(200):
        u, v = rng.normal(size=(2, 8)) * 3.0
        tau = d.pairwise(u, v)[0, 0]
        assert 0.0 < tau < K
        assert tau == d.pairwise(v, u)[0, 0]


# ---------------------------------------------------------------------------
# Level heads
# ---------------------------------------------------------------------------


def test_level_heads_identity_pair():
    model = LevelsModel(EuclideanDecoder(6), 6, seed=0)
    model.l0[0] = -3.0
    u = np.random.default_rng(10).normal(size=6)
    l_ds = model.predict(u, u)["l_ds"][0, 0]
    assert l_ds == pytest.approx(-3.0, abs=1e-12)


def test_level_heads_constant_local_field():
    model = LevelsModel(EuclideanDecoder(4), 4, seed=0)
    model.w[:] = 0.0
    model.beta[0] = -10.0
    u = np.array([2.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 0.0, 0.0])  # h(Pu, Pv) with P = I-ish
    model.proj[:] = np.eye(4)
    l_er = model.predict(u, v)["l_er"][0, 0]
    assert l_er == pytest.approx(-12.0, abs=1e-12)


def test_level_heads_symmetric():
    rng = np.random.default_rng(11)
    for family in FAMILIES:
        k = 2 if family == "mlp" else 1
        model = LevelsModel(make_distance_decoder(family, 8, seed=1, k=k), 8, seed=1)
        u, v = rng.normal(size=(2, 8))
        uv, vu = model.predict(u, v), model.predict(v, u)
        assert (uv["l_ds"][0, 0], uv["l_er"][0, 0]) == (vu["l_ds"][0, 0], vu["l_er"][0, 0])


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_euclid_gradient_pinned():
    u = np.array([3.0, 4.0])
    v = np.zeros(2)
    d = EuclideanDecoder(2)
    gU, gV, _ = d.backward(d.forward(u, v)[1], 1.0)
    assert np.allclose(gU[0], [0.6, 0.8], atol=1e-12)
    assert np.allclose(gV[0], [-0.6, -0.8], atol=1e-12)


def test_decay_dot_gradient_pinned():
    n = 3
    u = np.zeros(n)
    v = np.array([1.0, -2.0, 0.5])
    d = DotProductDecoder(n)
    gU, _, _ = d.backward(d.forward(u, v)[1], 1.0)
    assert np.allclose(gU[0], 0.25 * 2.0 * v, atol=1e-12)


def test_sigmoid_matches_the_masked_oracle():
    """The mask-free sigmoid returns the masked one's values at the branch
    point, where ``exp`` underflows or saturates, and at random points."""
    edge = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 700.0, -700.0, 800.0, -800.0]
    x = np.concatenate([edge, np.random.default_rng(5).normal(0.0, 20.0, size=2000)])
    assert np.array_equal(_sigmoid(x), masked_sigmoid(x))


def test_norm_adjoint_matches_the_masked_oracle():
    """Handing the forward's norm to the adjoint, with the zero subgradient
    taken by ``where``, returns the masked adjoint's values."""
    rng = np.random.default_rng(6)
    y = rng.normal(size=(60, 4))
    y[::7] = 0.0
    up = rng.normal(size=60)
    assert np.array_equal(_norm_adjoint(y, np.linalg.norm(y, axis=1), up), masked_norm_adjoint(y, up))


def _finite_difference_check(decoder, n, rng, k=1, trials=10, tol=1e-4):
    worst = 0.0
    for _ in range(trials):
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        up = rng.normal(size=k) if k > 1 else float(rng.normal())
        gU, gV, gP = decoder.backward(decoder.forward(u, v)[1], np.reshape(up, (1, k)) if k > 1 else up)
        g = {"u": gU[0], "v": gV[0], "params": gP}

        def objective():
            out = np.atleast_1d(decoder.pairwise(u, v)[0, 0])
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
        d = make_distance_decoder(family, 8, seed=2)
        gU, gV, _ = d.backward(d.forward(u, u.copy())[1], 1.0)
        assert np.all(gU == 0.0) and np.all(gV == 0.0)


def _row_cases(rng, n):
    """Row pairs to decode: 40 random rows with every third pair
    coincident, one random row and one coincident row as 1-D vectors."""
    U, V = rng.normal(size=(2, 40, n))
    V[::3] = U[::3]
    u, v = rng.normal(size=(2, n))
    return [(U, V), (u, v), (u, u.copy())]


def _assert_relative(pairs, what):
    """Each ``(name, actual, expected)`` within 1e-12 of each entry of
    ``expected``; gradients (every name but the outputs') of a block with
    more than one pair within 1e-12 of their largest entry instead, as they
    are sums over the block's pairs whose terms may cancel."""
    for name, actual, expected in pairs:
        actual, expected = np.asarray(actual), np.asarray(expected)
        assert actual.shape == expected.shape, (*what, name)
        scale = np.abs(expected)
        if name not in ("d", "l_ds", "l_er") and what[-1] != (1, 1):
            scale = scale.max()
        assert np.all(np.abs(actual - expected) <= 1e-12 * scale), (*what, name)


def _blocks(U, V):
    """A 1-D pair as it is; of rows, each pair ``(U[i], V[i])`` as a 1x1
    block, then the block of every row of ``U`` against every row of ``V``."""
    if U.ndim == 1:
        return [(U, V)]
    return list(zip(U[:, None], V[:, None])) + [(U, V)]


@pytest.mark.parametrize("family", ["euclidean", "riemann-psd", "riemann-diag"])
def test_row_norm_decoders_match_the_linalg_norm_forms(family):
    """Outputs and backward gradients of the einsum row norms against
    ``np.linalg.norm`` and the masked adjoint on flat pair rows, to 1e-12
    relative: entry by entry for every pair as a 1x1 block, and on the
    40x40 block of all rows."""
    rng = np.random.default_rng(21)
    decoder = make_distance_decoder(family, 8, seed=4)
    for p in decoder.trainable().values():
        p += rng.normal(0.0, 0.1, size=p.shape)
    for U, V in _row_cases(rng, 8):
        for u, v in _blocks(U, V):
            out, cache = decoder.forward(u, v)
            up = rng.normal(size=out.shape)
            gU, gV, grads = decoder.backward(cache, up)
            ref, rU, rV, rgrads = norm_decode(decoder, u, v, up)
            assert set(grads) == set(rgrads)
            _assert_relative([("d", out, ref), ("gU", gU, rU), ("gV", gV, rV)]
                             + [(name, grads[name], rgrads[name]) for name in rgrads], (family, out.shape))
            assert np.all(out[np.all(np.atleast_2d(u)[:, None] == np.atleast_2d(v)[None], axis=2)] == 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_levels_head_matches_the_column_sum_forms(family):
    """``LevelsModel`` outputs and gradients, ``w`` taken by two
    vector-matrix products, against column sums and ``norm_decode``: entry
    by entry for every pair as a 1x1 block, and on the 40x40 block of all
    rows."""
    rng = np.random.default_rng(22)
    k = 2 if family == "mlp" else 1
    head = LevelsModel(make_distance_decoder(family, 8, seed=5, hidden=(8, 8), k=k), 8, seed=5)
    for p in head.trainable().values():
        p += rng.normal(0.0, 0.1, size=p.shape)
    for U, V in _row_cases(rng, 8):
        for u, v in _blocks(U, V):
            m = (len(np.atleast_2d(u)), len(np.atleast_2d(v)))
            up = {"l_ds": rng.normal(size=m), "l_er": rng.normal(size=m)}
            out, cache = head.forward(u, v)
            gU, gV, grads = head.backward(cache, up)
            ref, rU, rV, rgrads = levels_decode(head, u, v, up)
            assert set(grads) == set(rgrads)
            _assert_relative([(h, out[h], ref[h]) for h in ref] + [("gU", gU, rU), ("gV", gV, rV)]
                             + [(name, grads[name], rgrads[name]) for name in rgrads], (family, m))


# ---------------------------------------------------------------------------
# Seeded construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 17])
@pytest.mark.parametrize("family,k", [("riemann-psd", 1), ("riemann-diag", 1), ("mlp-small", 1),
                                      ("mlp-small", 2), ("mlp-large", 1), ("mlp-large", 2)])
def test_factory_draws_are_pinned(family, k, seed):
    """Same-seed checkpoints rest on these draws: normal(0, 1e-3) metric
    maps, and He-normal MLP layers from input to output with zero biases,
    all from one ``default_rng(seed)``."""
    n = 5
    rng = np.random.default_rng(seed)
    decoder = make_distance_decoder(family, n, seed=seed, k=k)
    if family.startswith("riemann"):
        shape = (n * n, n) if family == "riemann-psd" else (n, n)
        assert np.array_equal(decoder.weights, rng.normal(0.0, 1e-3, size=shape))
        return
    hidden = (32, 32) if family == "mlp-small" else (128, 64, 32)
    sizes = [2 * n, *hidden, k]
    assert len(decoder.weights) == len(decoder.biases) == len(sizes) - 1
    for w, b, fan_in, fan_out in zip(decoder.weights, decoder.biases, sizes[:-1], sizes[1:]):
        assert np.array_equal(w, rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
        assert np.array_equal(b, np.zeros(fan_out))


@pytest.mark.parametrize("family", FAMILIES + ("dot-product", "mlp-large"))
def test_factory_rejects_a_non_positive_latent_size(family):
    for n in (0, -1):
        with pytest.raises(ConfigurationError):
            make_distance_decoder(family, n)


def test_factory_builds_the_bounded_dot_product():
    d = make_distance_decoder("dot-product", 4)
    assert isinstance(d, DotProductDecoder) and d.K == DEFAULT_MAX_DECAY == 2.0


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
    up = {h: rng.normal(size=(rows, rows)) for h in head.predict(U, V)}
    gU, gV, grads = head.backward(head.forward(U, V)[1], up)
    assert set(grads) == set(head.trainable())

    def objective():
        return sum(float(np.sum(out * up[h])) for h, out in head.predict(U, V).items())

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


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

BLOCK_SIZES = (1, 2, 4, 13)
PER_PAIR_FAMILIES = ("euclidean", "riemann-psd", "riemann-diag", "mlp", "dot-product")


def _block_heads(n=8):
    """Every decoder family bare and under every head that takes it."""
    out = []
    for family in PER_PAIR_FAMILIES:
        out.append((f"decoder-{family}", make_distance_decoder(family, n, seed=3, hidden=(8, 8))))
    for kind, families in ((DistanceModel, FAMILIES), (LevelsModel, FAMILIES + ("dot-product",)),
                           (DecaysModel, ("dot-product", "mlp"))):
        for family in families:
            k = 2 if family == "mlp" and kind is not DistanceModel else 1
            decoder = make_distance_decoder(family, n, seed=3, hidden=(8, 8), k=k)
            head = kind(decoder) if kind is DistanceModel else kind(decoder, n, seed=3)
            out.append((f"{kind.__name__}-{family}", head))
    rng = np.random.default_rng(31)
    for _, model in out:  # off their initial values, so no term hides behind a zero
        for p in model.trainable().values():
            p += rng.normal(0.0, 0.1, size=p.shape)
    return out


BLOCK_MODELS = _block_heads()
BLOCK_LATENTS = (4, 8, 16)
BLOCK_MODELS_AT = {n: dict(_block_heads(n)) for n in BLOCK_LATENTS}


def _outputs(model, U, V) -> dict:
    out = model.forward(U, V)[0]
    return out if isinstance(out, dict) else {"out": out}


@pytest.mark.parametrize("name,model", BLOCK_MODELS, ids=[name for name, _ in BLOCK_MODELS])
def test_block_matches_per_pair_decodes(name, model):
    """A pair decodes to the same bits in every block: every entry of a
    (B, R) block equals the pair's 1x1 decode, for B, R in {1, 2, 4, 13},
    and the 1x1, 1x2 and 1x13 blocks of one source equal their entries of
    its 1x300 block, at n = 4, 8 and 16. A failure names the numpy and
    BLAS builds: it says that their products are not row-stable."""
    build = configuration()
    for n in BLOCK_LATENTS:
        head = BLOCK_MODELS_AT[n][name]
        rng = np.random.default_rng(BLOCK_MODELS.index((name, model)) + 100 * n)
        for B in BLOCK_SIZES:
            for R in BLOCK_SIZES:
                U, V = rng.normal(size=(B, n)), rng.normal(size=(R, n))
                V[: min(B, R) : 3] = U[: min(B, R) : 3]  # a few coincident pairs
                for key, out in _outputs(head, U, V).items():
                    assert out.shape[:2] == (B, R), (key, B, R)
                    pairs = np.array([[_outputs(head, u, v)[key][0, 0] for v in V] for u in U])
                    assert np.array_equal(out, pairs), (key, n, B, R, build)
        U, V = rng.normal(size=(1, n)), rng.normal(size=(300, n))
        V[::7] = U
        wide = _outputs(head, U, V)
        for width in (1, 2, 13):
            for j in range(0, 300 - width + 1, width):
                for key, out in _outputs(head, U, V[j : j + width]).items():
                    assert np.array_equal(out, wide[key][:, j : j + width]), (key, n, width, j, build)


@pytest.mark.parametrize("name,model", BLOCK_MODELS, ids=[name for name, _ in BLOCK_MODELS])
def test_swapped_block_is_the_transpose(name, model):
    """Decoding ``(V, U)`` gives the transpose of ``(U, V)``, bit for bit,
    for every block size: reciprocity holds on blocks as on pairs."""
    rng = np.random.default_rng(40 + BLOCK_MODELS.index((name, model)))
    for B in BLOCK_SIZES:
        for R in BLOCK_SIZES:
            U, V = rng.normal(size=(B, 8)), rng.normal(size=(R, 8))
            uv, vu = _outputs(model, U, V), _outputs(model, V, U)
            for key in uv:
                assert np.array_equal(uv[key], np.swapaxes(vu[key], 0, 1)), (key, B, R)


@pytest.mark.parametrize("name,model", BLOCK_MODELS, ids=[name for name, _ in BLOCK_MODELS])
def test_block_backward_matches_finite_differences(name, model):
    """The block adjoint of a 2x3 block, ``gU`` summed over receivers and
    ``gV`` over sources, against central differences of the outputs on
    every entry of ``U``, ``V`` and every trainable array."""
    rng = np.random.default_rng(60 + BLOCK_MODELS.index((name, model)))
    U, V = rng.normal(size=(2, 8)), rng.normal(size=(3, 8))
    block, cache = model.forward(U, V)
    up = {key: rng.normal(size=out.shape) for key, out in _outputs(model, U, V).items()}
    gU, gV, grads = model.backward(cache, up if isinstance(block, dict) else up["out"])

    def objective():
        return sum(float(np.sum(out * up[key])) for key, out in _outputs(model, U, V).items())

    eps, worst = 1e-6, 0.0
    arrays = [(U, gU), (V, gV)] + [(p, grads[key]) for key, p in model.trainable().items()]
    for arr, grad in arrays:
        assert grad.shape == arr.shape
        flat = arr.reshape(-1)
        for i, an in enumerate(grad.reshape(-1)):
            old = flat[i]
            flat[i] = old + eps
            fp = objective()
            flat[i] = old - eps
            fm = objective()
            flat[i] = old
            fd = (fp - fm) / (2 * eps)
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-4))
    assert worst <= 1e-5


DIAG_BLOCKS = [(B, R) for B in BLOCK_SIZES for R in BLOCK_SIZES] + [(4, 365)]


def _diag_decoder(rng, n=8):
    decoder = make_distance_decoder("riemann-diag", n, seed=7)
    decoder.weights += rng.normal(0.0, 0.1, size=decoder.weights.shape)
    return decoder


@pytest.mark.parametrize("B,R", DIAG_BLOCKS)
def test_diag_block_matches_the_midpoint_oracle(B, R):
    """The per-side ``riemann-diag`` block against the per-pair-midpoint
    decode it replaced (``midpoint_diag_decode``): outputs, ``gU`` and
    ``gV`` entry by entry to 1e-12 relative. ``gW`` holds to 1e-12 of its
    largest entry: per side it is ``[(sum_r g_lambda)^T U + (sum_s
    g_lambda)^T V] / 2``, two side sums whose terms largely cancel, so a
    small entry keeps only the absolute error of the large terms."""
    rng = np.random.default_rng(B * 100 + R)
    decoder = _diag_decoder(rng)
    U, V = rng.normal(size=(B, 8)), rng.normal(size=(R, 8))
    V[: min(B, R) : 3] = U[: min(B, R) : 3]  # a few coincident pairs
    up = rng.normal(size=(B, R))
    out, cache = decoder.forward(U, V)
    gU, gV, grads = decoder.backward(cache, up)
    ref, rU, rV, rW = midpoint_diag_decode(decoder, U, V, up)
    for got, want in ((out, ref), (gU, rU), (gV, rV)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    assert np.all(np.abs(grads["weights"] - rW) <= 1e-12 * np.abs(rW).max())


def test_diag_lambda_has_one_value_per_pair():
    """A pair's ``lambda`` has the same bits in both input orders and in
    every block of two or more pairs that holds it."""
    rng = np.random.default_rng(8)
    decoder = _diag_decoder(rng)
    U, V = rng.normal(size=(13, 8)), rng.normal(size=(365, 8))
    whole = decoder._lam(U, V).reshape(13, 365, 8)
    for B, R in DIAG_BLOCKS:
        if B * R < 2:
            continue
        lam = decoder._lam(U[:B], V[:R]).reshape(B, R, 8)
        swapped = decoder._lam(V[:R], U[:B]).reshape(R, B, 8)
        assert np.array_equal(lam, np.swapaxes(swapped, 0, 1)), (B, R)
        assert np.array_equal(lam, whole[:B, :R]), (B, R)
