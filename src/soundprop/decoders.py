"""Symmetric decoders from latent pairs to acoustic parameters.

Every decoder is symmetric under swapping the two latent inputs, which
makes each predicted parameter reciprocal by construction. Distances come
in four families:

* ``euclidean`` — plain norm of the latent difference, parameter free.
* ``riemann-psd`` — Mahalanobis-style distance with a full local metric
  ``G(m) = A(m)^T A(m)`` evaluated at the latent midpoint ``m``. ``A`` is a
  residual linear map ``A(m) = I + reshape(W m)`` so the metric starts at
  (and can exactly represent) the identity; ``W`` holds the n^3 trainable
  weights.
* ``riemann-diag`` — diagonal metric ``lambda(m) = 1 + M m`` with n^2
  trainable weights; reduces to a locally weighted Euclidean distance.
* ``mlp`` — a ReLU network on the concatenated pair, symmetrized by
  averaging both input orders.

Decay times use a sigmoid-squashed dot product bounded by the longest
admissible decay ``K``. Level heads subtract a distance from a reference
level (global for direct sound, a latent-projected local field for early
reflections).

Decoders and heads decode *blocks*: ``B`` source latents against ``R``
receiver latents, every source with every receiver. Every decoder and
head has one forward/backward pair:

* ``forward(U, V) -> (out, cache)`` decodes the ``(B, n)`` rows ``U``
  against the ``(R, n)`` rows ``V`` (a single pair is a 1x1 block, a 1-D
  vector one row) into ``(B, R)`` outputs, and returns, beside them, the
  intermediates its adjoint needs (midpoints, metric values, norms,
  activations, sigmoids).
* ``backward(cache, upstream) -> (gU, gV, grads)`` is the analytic adjoint
  for the ``(B, R)`` ``upstream`` gradient of the outputs: ``gU`` holds
  each source's gradient summed over its receivers, and ``gV`` each
  receiver's summed over the sources, each in a fixed order. It
  reads every intermediate from ``cache`` and recomputes none, so a
  training step decodes once. The cache does not copy the parameters, so
  a training step updates them only after its backward.

Work that reads one side runs once per side: the projection of the pair
heads, the levels head's local term, the diagonal metric's products and
its adjoint's ``n x n`` products, and the dot product's ``(B, R)`` inner
products and gradient contractions. The metric and MLP families form
each pair's difference (the full metric also its midpoint) or
concatenation, and every product on their rows goes through
``_product``, so a pair decodes to the same bits in every block, a 1x1
block included, and a block swaps into its transpose bit for bit.

The three metric distances are one core, ``_MetricDecoder``: its
forward and backward take the difference, the row norm and its adjoint;
each family supplies only its metric map and that map's adjoint, summed
per side. Every decoder
inherits ``pairwise`` (``forward(...)[0]``) and ``param_count`` from
``_Decoder``, every head ``family`` and ``predict`` (``forward(...)[0]``)
from ``_Head``. ``make_distance_decoder`` builds every family and is the
one place decoder weights are drawn. Gradients at coincident inputs use
the zero subgradient so the source voxel never produces NaNs.

``flop_count`` approximates the float operations of one inference. Dense
linear maps and matrix-vector products count one fused multiply-add per
weight; every other elementwise operation, square root and nonlinearity
counts one. Trilinear interpolation is excluded, as it is shared by all
methods.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

DISTANCE_FAMILIES = ("euclidean", "riemann-psd", "riemann-diag", "mlp")
ALL_FAMILIES = DISTANCE_FAMILIES + ("dot-product",)

MLP_SMALL_HIDDEN = (32, 32)
MLP_LARGE_HIDDEN = (128, 64, 32)
DEFAULT_MAX_DECAY = 2.0  # s, matches the longest reference tail


def _sigmoid(x):
    """Logistic function without overflow: ``1 / (1 + e^-x)`` for ``x >= 0``
    and ``e^x / (1 + e^x)`` below, both as ``where(x >= 0, 1, e) / (1 + e)``
    with ``e = exp(-|x|)``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _as_rows(u) -> np.ndarray:
    a = np.asarray(u, dtype=float)
    return a[None, :] if a.ndim == 1 else a


def _row_norm(y: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``y``: one ``einsum`` pass, about three
    times faster than ``np.linalg.norm(y, axis=1)`` on narrow rows."""
    return np.sqrt(np.einsum("ij,ij->i", y, y))


def _norm_adjoint(y: np.ndarray, d: np.ndarray, upstream) -> np.ndarray:
    """Adjoint of the row norm ``d = |y|``: ``upstream * y / d``, with the
    zero subgradient where ``d == 0``."""
    upstream = np.atleast_1d(np.asarray(upstream, dtype=float))
    scale = np.divide(upstream, d, out=np.zeros_like(d), where=d > 0)
    return y * scale[:, None]


def _pair_upstream(upstream, B: int, R: int, k: int = 1) -> np.ndarray:
    """The upstream gradient of a ``(B, R)`` block (``(B, R, k)`` for ``k``
    outputs; a scalar broadcasts) as one row per pair, source by source."""
    shape = (B, R) if k == 1 else (B, R, k)
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != shape:
        upstream = np.broadcast_to(upstream, shape)
    return upstream.reshape(B * R, -1)


def _source_sums(rows: np.ndarray, B: int, R: int) -> np.ndarray:
    """``(B, c)`` sums of per-pair rows, source by source, over each
    source's ``R`` receivers in order (``einsum`` sums in order, about
    three times faster than ``sum(axis=1)`` on narrow rows)."""
    return np.einsum("brc->bc", rows.reshape(B, R, -1))


def _receiver_sums(rows: np.ndarray, B: int, R: int) -> np.ndarray:
    """``(R, c)`` sums of per-pair rows, source by source, over each
    receiver's ``B`` sources in order."""
    return rows.reshape(B, R, -1).sum(axis=0)


def _product(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``X @ W`` on latent or pair rows ``X``, each row's bits independent
    of the row count. A one-row or narrow product would take BLAS's
    matrix-vector path (gemv), whose rows can differ in the last bit from
    a matrix product's (gemm). So a ``W`` of one or two columns goes
    through ``einsum``, which sums each entry in one order, a one-row
    ``X`` is padded to two rows, and ``W`` is made contiguous: every other
    product is one gemm layout, whose rows the block gate
    (``test_block_matches_per_pair_decodes``) checks on the BLAS build."""
    if W.shape[1] <= 2:
        return np.einsum("ij,jk->ik", X, W)
    W = np.ascontiguousarray(W)
    if len(X) == 1:
        return (np.concatenate([X, X]) @ W)[:1]
    return X @ W


# ---------------------------------------------------------------------------
# Decoders
# ---------------------------------------------------------------------------


class _Decoder:
    """Base of every decoder: latent size ``n``, parameters (none unless a
    family adds them), their count, and ``pairwise``."""

    def __init__(self, n: int):
        self.n = int(n)

    def trainable(self) -> dict[str, np.ndarray]:
        return {}

    def param_count(self) -> int:
        return sum(p.size for p in self.trainable().values())

    def pairwise(self, U, V) -> np.ndarray:
        return self.forward(U, V)[0]


class _MetricDecoder(_Decoder):
    """Metric distance ``d = |T(m) delta|`` with midpoint ``m = (u + v)/2``
    and difference ``delta = u - v``.

    ``delta`` holds one row per pair, source by source. A family supplies
    its metric map ``_map(U, V, delta) -> (y, T)``, the rows ``y = T(m)
    delta`` and the values ``T`` its adjoint reads, and that adjoint
    ``_map_adjoint(U, V, delta, T, gy) -> (gU, gV, grads)``, the side
    gradients summed in order and the parameter gradients. Since ``u`` and
    ``v`` enter as ``m +- delta/2``, a per-pair gradient ``g_m`` of the
    midpoint goes half to each side.
    """

    def forward(self, U, V):
        U, V = _as_rows(U), _as_rows(V)
        B, R = len(U), len(V)
        delta = U.repeat(R, axis=0).reshape(B, R, self.n)
        delta -= V  # V broadcasts over the sources
        delta = delta.reshape(B * R, self.n)
        y, T = self._map(U, V, delta)
        d = _row_norm(y)
        return d.reshape(B, R), (U, V, delta, T, y, d)

    def backward(self, cache, upstream):
        U, V, delta, T, y, d = cache
        gy = _norm_adjoint(y, d, _pair_upstream(upstream, len(U), len(V))[:, 0])
        return self._map_adjoint(U, V, delta, T, gy)


class EuclideanDecoder(_MetricDecoder):
    """Parameter-free Euclidean distance between latents: ``T = I``."""

    family = "euclidean"

    def flop_count(self) -> int:
        # n subtractions, n squarings, n-1 adds, one sqrt
        return 3 * self.n

    def _map(self, U, V, delta):
        return delta, None

    def _map_adjoint(self, U, V, delta, T, gy):
        B, R = len(U), len(V)
        return _source_sums(gy, B, R), -_receiver_sums(gy, B, R), {}


class PsdDecoder(_MetricDecoder):
    """Full positive semi-definite local metric at the latent midpoint:
    ``T = A(m) = I + reshape(W m)``, with ``m`` formed per pair."""

    family = "riemann-psd"

    def __init__(self, n: int, weights: np.ndarray):
        super().__init__(n)
        w = np.asarray(weights, dtype=float)
        if w.shape != (n * n, n):
            raise ConfigurationError(f"psd weights must have shape {(n * n, n)}")
        self.weights = w

    def trainable(self):
        return {"weights": self.weights}

    def flop_count(self) -> int:
        n = self.n
        # midpoint (2n), dense map (n^3 fused multiply-adds), residual add
        # (n^2), difference (n), matrix-vector (n^2), norm (2n)
        return n**3 + 2 * n**2 + 5 * n

    def _map(self, U, V, delta):
        B, R, n = len(U), len(V), self.n
        M = U.repeat(R, axis=0).reshape(B, R, n)
        M += V
        M *= 0.5
        M = M.reshape(B * R, n)
        A = _product(M, self.weights.T).reshape(B * R, n, n)
        A[:, np.arange(n), np.arange(n)] += 1.0
        return np.einsum("bij,bj->bi", A, delta), (A, M)

    def _map_adjoint(self, U, V, delta, T, gy):
        (A, M), B, R, n = T, len(U), len(V), self.n
        g_delta = np.einsum("bij,bi->bj", A, gy)
        gA = np.einsum("bi,bj->bij", gy, delta)
        # the weight gradient sums per pair: its per-side split cancels
        gW = np.einsum("bij,bk->ijk", gA, M).reshape(n * n, n)
        half_gm = gA.reshape(-1, n * n) @ self.weights
        half_gm *= 0.5
        gU = _source_sums(g_delta + half_gm, B, R)
        return gU, _receiver_sums(np.subtract(half_gm, g_delta, out=half_gm), B, R), {"weights": gW}


class DiagDecoder(_MetricDecoder):
    """Diagonal local metric, a locally weighted Euclidean distance:
    ``T = diag(lambda(m))`` with ``lambda(m) = 1 + W m``.

    ``lambda`` is affine in the midpoint, so a pair's ``lambda`` is
    ``(a_u + a_v) + 1`` with ``a = W x / 2`` taken once per side, and its
    adjoint is reduced per side before the ``n x n`` products:
    ``gU = sum_r g_delta + (sum_r g_lambda) W / 2``, ``gV = (sum_s
    g_lambda) W / 2 - sum_s g_delta`` and ``gW = [(sum_r g_lambda)^T U +
    (sum_s g_lambda)^T V] / 2``.
    """

    family = "riemann-diag"

    def __init__(self, n: int, weights: np.ndarray):
        super().__init__(n)
        w = np.asarray(weights, dtype=float)
        if w.shape != (n, n):
            raise ConfigurationError(f"diag weights must have shape {(n, n)}")
        self.weights = w

    def trainable(self):
        return {"weights": self.weights}

    def flop_count(self) -> int:
        n = self.n
        # midpoint (2n), dense map (n^2), residual add (n), difference (n),
        # weighting (n), squares (n), sum (n-1), sqrt (1)
        return n**2 + 7 * n

    def _lam(self, U, V) -> np.ndarray:
        """``lambda`` of every pair of the block, one row per pair, source
        by source. Both sides go through one ``_product`` and the sum
        commutes, so a pair has the same bits in either input order and
        in every block. The sources' rows are repeated, not broadcast, so
        every elementwise op runs on contiguous rows."""
        B, R = len(U), len(V)
        half = _product(np.concatenate([U, V]), 0.5 * self.weights.T)  # both sides in one product
        lam = half[:B].repeat(R, axis=0).reshape(B, R, self.n)
        lam += half[B:]
        lam += 1.0
        return lam.reshape(B * R, self.n)

    def _map(self, U, V, delta):
        lam = self._lam(U, V)
        return lam * delta, lam

    def _map_adjoint(self, U, V, delta, lam, gy):
        B, R, n = len(U), len(V), self.n
        g_lam = delta * gy
        g_delta = np.multiply(gy, lam, out=gy)  # gy is the backward's own temporary
        # side sums as products with ones: a source's sum does not depend on the other sources
        ones_R, ones_B = np.ones(R), np.ones(B)
        dU, lU = (ones_R @ g.reshape(B, R, n) for g in (g_delta, g_lam))
        dV, lV = ((ones_B @ g.reshape(B, R * n)).reshape(R, n) for g in (g_delta, g_lam))
        half = 0.5 * self.weights
        gU = lU @ half
        gU += dU
        gV = lV @ half
        gV -= dV
        gW = lU.T @ U
        gW += lV.T @ V
        gW *= 0.5
        return gU, gV, {"weights": gW}


class MlpDecoder(_Decoder):
    """Symmetrized multilayer perceptron on concatenated latent pairs.

    ``phi`` is applied to both input orders and averaged, which makes the
    output exactly swap-invariant. ``k`` output units emit one value per
    predicted parameter. Outputs carry no metric guarantee.
    """

    family = "mlp"

    def __init__(self, n: int, weights: list[np.ndarray], biases: list[np.ndarray]):
        super().__init__(n)
        if len(weights) != len(biases) or not weights:
            raise ConfigurationError("mlp needs matching weight/bias lists")
        if weights[0].shape[1] != 2 * n:
            raise ConfigurationError("mlp input width must be 2n")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]

    @property
    def k(self) -> int:
        return self.weights[-1].shape[0]

    def trainable(self):
        params = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params[f"w{i}"] = w
            params[f"b{i}"] = b
        return params

    def flop_count(self) -> int:
        total = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            total += w.size + b.size  # fused multiply-adds plus bias adds
            if i < len(self.weights) - 1:
                total += b.size  # ReLU evaluations
        return 2 * total + 2  # both input orders, final add and halving

    def _forward_pass(self, z: np.ndarray):
        acts = [z]
        pre = []
        a = z
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            s = _product(a, w.T) + b
            if i < len(self.weights) - 1:
                pre.append(s)
                a = np.maximum(s, 0.0)
                acts.append(a)
            else:
                a = s
        return a, acts, pre

    def _backward_pass(self, upstream, acts, pre, grads):
        g = upstream
        for i in reversed(range(len(self.weights))):
            grads[f"w{i}"] += g.T @ acts[i]
            grads[f"b{i}"] += g.sum(axis=0)
            if i > 0:
                g = (g @ self.weights[i]) * (pre[i - 1] > 0)
        return g @ self.weights[0]

    def forward(self, U, V):
        """Symmetrized outputs, shape (B, R) if k == 1 else (B, R, k)."""
        U, V = _as_rows(U), _as_rows(V)
        B, R = len(U), len(V)
        U_pairs, V_pairs = np.repeat(U, R, axis=0), np.tile(V, (B, 1))  # source by source
        out1, acts1, pre1 = self._forward_pass(np.concatenate([U_pairs, V_pairs], axis=1))
        out2, acts2, pre2 = self._forward_pass(np.concatenate([V_pairs, U_pairs], axis=1))
        out = (0.5 * (out1 + out2)).reshape(B, R, self.k)
        return (out[..., 0] if self.k == 1 else out), (acts1, pre1, acts2, pre2, B, R)

    def backward(self, cache, upstream):
        acts1, pre1, acts2, pre2, B, R = cache
        upstream = _pair_upstream(upstream, B, R, self.k)
        n = self.n
        grads = {name: np.zeros_like(p) for name, p in self.trainable().items()}
        gz1 = self._backward_pass(0.5 * upstream, acts1, pre1, grads)
        gz2 = self._backward_pass(0.5 * upstream, acts2, pre2, grads)
        gU = _source_sums(gz1[:, :n] + gz2[:, n:], B, R)
        return gU, _receiver_sums(gz1[:, n:] + gz2[:, :n], B, R), grads


class DotProductDecoder(_Decoder):
    """Bounded decay-time decoder: ``K * sigmoid(u . v)``, ``K = DEFAULT_MAX_DECAY``."""

    family = "dot-product"
    K = DEFAULT_MAX_DECAY

    def flop_count(self) -> int:
        # n products, n-1 adds, sigmoid, scale by K
        return 2 * self.n + 1

    def forward(self, U, V):
        U, V = _as_rows(U), _as_rows(V)
        # every inner product sums in the same order in any block and in
        # either input order, unlike a BLAS block product
        s = _sigmoid(np.einsum("bi,ri->br", U, V))
        # keep the output strictly inside (0, K) even where the sigmoid
        # saturates to 1.0 in float64
        return self.K * np.clip(s, 1e-300, 1.0 - 1e-15), (U, V, s)

    def backward(self, cache, upstream):
        U, V, s = cache
        gs = np.asarray(upstream, dtype=float) * self.K * s * (1.0 - s)
        return gs @ V, gs.T @ U, {}


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def make_distance_decoder(family: str, n: int, seed: int = 0, hidden=None, k: int = 1):
    """Construct a decoder of any family; the one place decoder weights are
    drawn.

    ``family`` is one of ``ALL_FAMILIES`` or the aliases ``"mlp-small"`` and
    ``"mlp-large"`` for the two standard network sizes (``hidden``
    overrides the hidden widths). ``k`` is the number of MLP output units,
    one per predicted parameter. Metric maps draw normal(0, 1e-3) weights
    and MLP layers He-normal weights, input layer first, with zero biases,
    all from ``default_rng(seed)``.
    """
    if family not in ALL_FAMILIES + ("mlp-small", "mlp-large"):
        raise ConfigurationError(f"unknown decoder family {family!r}")
    if n < 1:
        raise ConfigurationError(f"latent dimension must be >= 1, got {n}")
    if family == "euclidean":
        return EuclideanDecoder(n)
    if family == "dot-product":
        return DotProductDecoder(n)
    rng = np.random.default_rng(seed)
    if family == "riemann-psd":
        return PsdDecoder(n, rng.normal(0.0, 1e-3, size=(n * n, n)))
    if family == "riemann-diag":
        return DiagDecoder(n, rng.normal(0.0, 1e-3, size=(n, n)))
    sizes = [2 * n, *(hidden or (MLP_LARGE_HIDDEN if family == "mlp-large" else MLP_SMALL_HIDDEN)), k]
    weights = [rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
               for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]
    return MlpDecoder(n, weights, [np.zeros(fan_out) for fan_out in sizes[1:]])


# ---------------------------------------------------------------------------
# Parameter-head models (distance, levels, decays)
# ---------------------------------------------------------------------------


class _Head:
    """Base of the parameter heads: the decoder's ``family`` and
    ``predict``."""

    @property
    def family(self) -> str:
        return self.decoder.family

    def predict(self, U, V) -> dict[str, np.ndarray]:
        return self.forward(U, V)[0]


class _PairHead(_Head):
    """Core shared by the two-output heads.

    A 2-output MLP emits both outputs from the raw latents; any other
    decoder decodes the raw pair for the first output and the pair under a
    trainable projection ``proj`` (identity at init) for the second.
    """

    def _init_core(self, decoder, n: int, rng, group: str) -> None:
        self.decoder = decoder
        self.n = int(n)
        if decoder.family == "mlp":
            if decoder.k != 2:
                raise ConfigurationError(f"mlp {group} model needs a 2-output network")
            self.proj = None
        else:
            self.proj = np.eye(n) + rng.normal(0.0, 1e-3, size=(n, n))

    def _core_trainable(self, params: dict) -> dict:
        if self.proj is not None:
            params["proj"] = self.proj
        for name, p in self.decoder.trainable().items():
            params[f"decoder.{name}"] = p
        return params

    def _decode(self, U, V):
        """The two ``(B, R)`` decoder outputs for the blocks ``U``, ``V``, and
        the cache ``(U, V, decoder caches)`` that ``_decode_backward``
        reads. The projection runs once per side."""
        if self.proj is None:
            h, cache = self.decoder.forward(U, V)  # (B, R, 2)
            return h[..., 0], h[..., 1], (U, V, [cache])
        h1, c1 = self.decoder.forward(U, V)
        P = _product(np.concatenate([U, V]), self.proj.T)  # both sides in one product
        h2, c2 = self.decoder.forward(P[: len(U)], P[len(U) :])
        return h1, h2, (U, V, [c1, c2])

    def _decode_backward(self, cache, up1, up2, grads, gU=None, gV=None):
        """Add the adjoint of ``_decode`` for the ``(B, R)`` upstreams
        ``up1``, ``up2`` to ``gU``, ``gV`` (``None`` starts them), and put
        the projection's and the decoder's gradients into ``grads``."""
        U, V, caches = cache
        if self.proj is None:
            dU, dV, dP = self.decoder.backward(caches[0], np.stack([up1, up2], axis=-1))
        else:
            dU, dV, dP = self.decoder.backward(caches[0], up1)
            pU, pV, pP = self.decoder.backward(caches[1], up2)
            grads["proj"] = pU.T @ U + pV.T @ V
            for name, g in dP.items():
                g += pP[name]
        gU = dU if gU is None else gU + dU
        gV = dV if gV is None else gV + dV
        if self.proj is not None:
            gU += pU @ self.proj
            gV += pV @ self.proj
        grads.update((f"decoder.{name}", g) for name, g in dP.items())
        return gU, gV

    @staticmethod
    def _upstreams(cache, upstream: dict, names) -> list:
        """The heads' ``(B, R)`` upstream gradients (a scalar broadcasts)."""
        B, R = len(cache[0]), len(cache[1])
        return [_pair_upstream(upstream[h], B, R).reshape(B, R) for h in names]


class LevelsModel(_PairHead):
    """Two level heads over one shared latent grid.

    Direct sound: global reference minus the latent distance. Early
    reflections: the average of a local reference field (a linear
    projection of each endpoint latent) minus the distance computed on
    head-projected latents. Both heads are symmetric in the pair.
    """

    def __init__(self, decoder, n: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.l0 = np.zeros(1)
        self.w = rng.normal(0.0, 1e-3, size=n)
        self.beta = np.zeros(1)
        self._init_core(decoder, n, rng, "levels")

    def trainable(self):
        return self._core_trainable({"l0": self.l0, "w": self.w, "beta": self.beta})

    def forward(self, U, V):
        U, V = _as_rows(U), _as_rows(V)
        uw = _product(np.concatenate([U, V]), self.w[:, None])[:, 0]  # both sides in one product
        local = 0.5 * (uw[: len(U), None] + uw[None, len(U) :]) + self.beta[0]
        h_ds, h_er, cache = self._decode(U, V)
        return {"l_ds": self.l0[0] - h_ds, "l_er": local - h_er}, cache

    def backward(self, cache, upstream: dict[str, np.ndarray]):
        U, V, _ = cache
        up_ds, up_er = self._upstreams(cache, upstream, ("l_ds", "l_er"))
        # the local term reads each side once: its upstream sums over the other side
        er_U, er_V = up_er.sum(axis=1), up_er.sum(axis=0)
        grads = {"l0": np.array([up_ds.sum()]), "w": 0.5 * (er_U @ U + er_V @ V), "beta": np.array([up_er.sum()])}
        gU, gV = 0.5 * er_U[:, None] * self.w, 0.5 * er_V[:, None] * self.w
        gU, gV = self._decode_backward(cache, -up_ds, -up_er, grads, gU, gV)
        return gU, gV, grads


class DecaysModel(_PairHead):
    """Two decay-time heads over one shared latent grid.

    The early head uses the raw latents, the late head a trainable
    projection of them (identity at init). With a dot-product core both
    heads stay strictly inside ``(0, K)``; an MLP core emits the two decay
    values directly from its output units.
    """

    def __init__(self, decoder, n: int, seed: int = 0):
        if decoder.family not in ("dot-product", "mlp"):
            raise ConfigurationError(f"decay decoders are dot-product or mlp, not {decoder.family!r}")
        self._init_core(decoder, n, np.random.default_rng(seed), "decays")

    def trainable(self):
        return self._core_trainable({})

    def forward(self, U, V):
        tau_er, tau_lr, cache = self._decode(_as_rows(U), _as_rows(V))
        return {"tau_er": tau_er, "tau_lr": tau_lr}, cache

    def backward(self, cache, upstream: dict[str, np.ndarray]):
        up_er, up_lr = self._upstreams(cache, upstream, ("tau_er", "tau_lr"))
        grads = {}
        gU, gV = self._decode_backward(cache, up_er, up_lr, grads)
        return gU, gV, grads


class DistanceModel(_Head):
    """Path-distance head: the bare distance decoder."""

    def __init__(self, decoder):
        if decoder.family not in DISTANCE_FAMILIES:
            raise ConfigurationError("path distance needs a distance family")
        self.decoder = decoder
        self.n = decoder.n

    def trainable(self):
        return {f"decoder.{name}": p for name, p in self.decoder.trainable().items()}

    def forward(self, U, V):
        pi, cache = self.decoder.forward(U, V)
        return {"pi": pi}, cache

    def backward(self, cache, upstream):
        gU, gV, dP = self.decoder.backward(cache, upstream["pi"])
        return gU, gV, {f"decoder.{name}": g for name, g in dP.items()}
