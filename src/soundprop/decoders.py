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

The batched decoder objects are the only API: every forward pass takes
rows of pairs (a single pair is a one-row call, ``d.pairwise(u, v)[0]``)
and every family ships its analytic adjoint; gradients at coincident
inputs use the zero subgradient so the source voxel never produces NaNs.

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
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _as_rows(u) -> np.ndarray:
    a = np.asarray(u, dtype=float)
    return a[None, :] if a.ndim == 1 else a


def _norm_adjoint(y: np.ndarray, upstream) -> np.ndarray:
    """Adjoint of the row norm ``|y|``: ``upstream * y / |y|``, with the zero
    subgradient where ``|y| == 0``."""
    upstream = np.atleast_1d(np.asarray(upstream, dtype=float))
    d = np.linalg.norm(y, axis=1)
    scale = np.zeros_like(d)
    nz = d > 0
    scale[nz] = upstream[nz] / d[nz]
    return y * scale[:, None]


# ---------------------------------------------------------------------------
# Distance families
# ---------------------------------------------------------------------------


class EuclideanDecoder:
    """Parameter-free Euclidean distance between latents."""

    family = "euclidean"

    def __init__(self, n: int):
        self.n = int(n)

    def trainable(self) -> dict[str, np.ndarray]:
        return {}

    def param_count(self) -> int:
        return 0

    def flop_count(self) -> int:
        # n subtractions, n squarings, n-1 adds, one sqrt
        return 3 * self.n

    def pairwise(self, U, V) -> np.ndarray:
        U, V = _as_rows(U), _as_rows(V)
        return np.linalg.norm(U - V, axis=1)

    def pairwise_backward(self, U, V, upstream):
        U, V = _as_rows(U), _as_rows(V)
        gU = _norm_adjoint(U - V, upstream)
        return gU, -gU, {}


class PsdDecoder:
    """Full positive semi-definite local metric at the latent midpoint."""

    family = "riemann-psd"

    def __init__(self, n: int, weights: np.ndarray):
        self.n = int(n)
        w = np.asarray(weights, dtype=float)
        if w.shape != (n * n, n):
            raise ConfigurationError(f"psd weights must have shape {(n * n, n)}")
        self.weights = w

    @classmethod
    def create(cls, n: int, seed: int = 0, init_scale: float = 1e-3):
        rng = np.random.default_rng(seed)
        return cls(n, rng.normal(0.0, init_scale, size=(n * n, n)))

    def trainable(self):
        return {"weights": self.weights}

    def param_count(self) -> int:
        return self.n**3

    def flop_count(self) -> int:
        n = self.n
        # midpoint (2n), dense map (n^3 fused multiply-adds), residual add
        # (n^2), difference (n), matrix-vector (n^2), norm (2n)
        return n**3 + 2 * n**2 + 5 * n

    def _metric_map(self, M: np.ndarray) -> np.ndarray:
        """A(m) = I + reshape(W m) for each midpoint row."""
        B = M.shape[0]
        A = (M @ self.weights.T).reshape(B, self.n, self.n)
        A[:, np.arange(self.n), np.arange(self.n)] += 1.0
        return A

    def pairwise(self, U, V) -> np.ndarray:
        U, V = _as_rows(U), _as_rows(V)
        A = self._metric_map(0.5 * (U + V))
        y = np.einsum("bij,bj->bi", A, U - V)
        return np.linalg.norm(y, axis=1)

    def pairwise_backward(self, U, V, upstream):
        U, V = _as_rows(U), _as_rows(V)
        M = 0.5 * (U + V)
        delta = U - V
        A = self._metric_map(M)
        gy = _norm_adjoint(np.einsum("bij,bj->bi", A, delta), upstream)
        g_delta = np.einsum("bij,bi->bj", A, gy)
        gA = np.einsum("bi,bj->bij", gy, delta)
        gW = np.einsum("bij,bk->ijk", gA, M).reshape(self.n * self.n, self.n)
        gm = gA.reshape(-1, self.n * self.n) @ self.weights
        gU = g_delta + 0.5 * gm
        gV = -g_delta + 0.5 * gm
        return gU, gV, {"weights": gW}


class DiagDecoder:
    """Diagonal local metric: locally weighted Euclidean distance."""

    family = "riemann-diag"

    def __init__(self, n: int, weights: np.ndarray):
        self.n = int(n)
        w = np.asarray(weights, dtype=float)
        if w.shape != (n, n):
            raise ConfigurationError(f"diag weights must have shape {(n, n)}")
        self.weights = w

    @classmethod
    def create(cls, n: int, seed: int = 0, init_scale: float = 1e-3):
        rng = np.random.default_rng(seed)
        return cls(n, rng.normal(0.0, init_scale, size=(n, n)))

    def trainable(self):
        return {"weights": self.weights}

    def param_count(self) -> int:
        return self.n**2

    def flop_count(self) -> int:
        n = self.n
        # midpoint (2n), dense map (n^2), residual add (n), difference (n),
        # weighting (n), squares (n), sum (n-1), sqrt (1)
        return n**2 + 7 * n

    def _lam(self, M: np.ndarray) -> np.ndarray:
        """lambda(m) = 1 + M m per midpoint row."""
        return 1.0 + M @ self.weights.T

    def pairwise(self, U, V) -> np.ndarray:
        U, V = _as_rows(U), _as_rows(V)
        lam = self._lam(0.5 * (U + V))
        t = lam * (U - V)
        return np.linalg.norm(t, axis=1)

    def pairwise_backward(self, U, V, upstream):
        U, V = _as_rows(U), _as_rows(V)
        M = 0.5 * (U + V)
        delta = U - V
        lam = self._lam(M)
        gt = _norm_adjoint(lam * delta, upstream)
        g_delta = lam * gt
        g_lam = delta * gt
        gW = g_lam.T @ M
        gm = g_lam @ self.weights
        gU = g_delta + 0.5 * gm
        gV = -g_delta + 0.5 * gm
        return gU, gV, {"weights": gW}


class MlpDecoder:
    """Symmetrized multilayer perceptron on concatenated latent pairs.

    ``phi`` is applied to both input orders and averaged, which makes the
    output exactly swap-invariant. ``k`` output units emit one value per
    predicted parameter. Outputs carry no metric guarantee.
    """

    family = "mlp"

    def __init__(self, n: int, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.n = int(n)
        if len(weights) != len(biases) or not weights:
            raise ConfigurationError("mlp needs matching weight/bias lists")
        if weights[0].shape[1] != 2 * n:
            raise ConfigurationError("mlp input width must be 2n")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]

    @classmethod
    def create(cls, n: int, hidden=MLP_SMALL_HIDDEN, k: int = 1, seed: int = 0):
        rng = np.random.default_rng(seed)
        sizes = [2 * n, *hidden, k]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            std = np.sqrt(2.0 / fan_in)
            weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(n, weights, biases)

    @property
    def k(self) -> int:
        return self.weights[-1].shape[0]

    def trainable(self):
        params = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params[f"w{i}"] = w
            params[f"b{i}"] = b
        return params

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

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
            s = a @ w.T + b
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

    def pairwise(self, U, V) -> np.ndarray:
        """Symmetrized outputs, shape (B,) if k == 1 else (B, k)."""
        U, V = _as_rows(U), _as_rows(V)
        out1, _, _ = self._forward_pass(np.concatenate([U, V], axis=1))
        out2, _, _ = self._forward_pass(np.concatenate([V, U], axis=1))
        out = 0.5 * (out1 + out2)
        return out[:, 0] if self.k == 1 else out

    def pairwise_backward(self, U, V, upstream):
        U, V = _as_rows(U), _as_rows(V)
        upstream = np.atleast_1d(np.asarray(upstream, dtype=float))
        if upstream.ndim == 1:
            upstream = upstream[:, None]
        n = self.n
        grads = {name: np.zeros_like(p) for name, p in self.trainable().items()}
        _, acts1, pre1 = self._forward_pass(np.concatenate([U, V], axis=1))
        _, acts2, pre2 = self._forward_pass(np.concatenate([V, U], axis=1))
        gz1 = self._backward_pass(0.5 * upstream, acts1, pre1, grads)
        gz2 = self._backward_pass(0.5 * upstream, acts2, pre2, grads)
        gU = gz1[:, :n] + gz2[:, n:]
        gV = gz1[:, n:] + gz2[:, :n]
        return gU, gV, grads


class DotProductDecoder:
    """Bounded decay-time decoder: ``K * sigmoid(u . v)``."""

    family = "dot-product"

    def __init__(self, n: int, K: float = DEFAULT_MAX_DECAY):
        if K <= 0:
            raise ConfigurationError("K must be positive")
        self.n = int(n)
        self.K = float(K)

    def trainable(self):
        return {}

    def param_count(self) -> int:
        return 0

    def flop_count(self) -> int:
        # n products, n-1 adds, sigmoid, scale by K
        return 2 * self.n + 1

    def pairwise(self, U, V) -> np.ndarray:
        U, V = _as_rows(U), _as_rows(V)
        s = _sigmoid(np.einsum("bi,bi->b", U, V))
        # keep the output strictly inside (0, K) even where the sigmoid
        # saturates to 1.0 in float64
        return self.K * np.clip(s, 1e-300, 1.0 - 1e-15)

    def pairwise_backward(self, U, V, upstream):
        U, V = _as_rows(U), _as_rows(V)
        upstream = np.atleast_1d(np.asarray(upstream, dtype=float))
        s = _sigmoid(np.einsum("bi,bi->b", U, V))
        gs = upstream * self.K * s * (1.0 - s)
        return gs[:, None] * V, gs[:, None] * U, {}


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def make_distance_decoder(family: str, n: int, seed: int = 0, hidden=None, k: int = 1):
    """Construct one distance-family decoder.

    ``family`` accepts the aliases ``"mlp-small"`` and ``"mlp-large"`` for
    the two standard network sizes.
    """
    if family == "euclidean":
        return EuclideanDecoder(n)
    if family == "riemann-psd":
        return PsdDecoder.create(n, seed=seed)
    if family == "riemann-diag":
        return DiagDecoder.create(n, seed=seed)
    if family in ("mlp", "mlp-small"):
        return MlpDecoder.create(n, hidden=hidden or MLP_SMALL_HIDDEN, k=k, seed=seed)
    if family == "mlp-large":
        return MlpDecoder.create(n, hidden=hidden or MLP_LARGE_HIDDEN, k=k, seed=seed)
    if family == "dot-product":
        return DotProductDecoder(n)
    raise ConfigurationError(f"unknown decoder family {family!r}")


# ---------------------------------------------------------------------------
# Parameter-head models (distance, levels, decays)
# ---------------------------------------------------------------------------


class _PairHead:
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

    @property
    def family(self) -> str:
        return self.decoder.family

    def _core_trainable(self, params: dict) -> dict:
        if self.proj is not None:
            params["proj"] = self.proj
        for name, p in self.decoder.trainable().items():
            params[f"decoder.{name}"] = p
        return params

    def _decode(self, U, V):
        """The two decoder outputs for rows ``U``, ``V``."""
        if self.proj is None:
            h = self.decoder.pairwise(U, V)  # (B, 2)
            return h[:, 0], h[:, 1]
        return self.decoder.pairwise(U, V), self.decoder.pairwise(U @ self.proj.T, V @ self.proj.T)

    def _decode_backward(self, U, V, up1, up2, grads, gU=None, gV=None):
        """Add the adjoint of ``_decode`` for upstreams ``up1``, ``up2`` to
        ``gU``, ``gV`` (``None`` starts them) and to ``grads``."""
        if self.proj is None:
            branches = [(U, V, np.stack([up1, up2], axis=1), None)]
        else:
            branches = [(U, V, up1, None), (U @ self.proj.T, V @ self.proj.T, up2, self.proj)]
        for Ub, Vb, up, proj in branches:
            dU, dV, dP = self.decoder.pairwise_backward(Ub, Vb, up)
            if proj is not None:
                grads["proj"] += dU.T @ U + dV.T @ V
                dU, dV = dU @ proj, dV @ proj
            gU = dU if gU is None else gU + dU
            gV = dV if gV is None else gV + dV
            for name, g in dP.items():
                grads[f"decoder.{name}"] += g
        return gU, gV


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

    def predict(self, U, V) -> dict[str, np.ndarray]:
        U, V = _as_rows(U), _as_rows(V)
        local = 0.5 * ((U @ self.w) + (V @ self.w)) + self.beta[0]
        h_ds, h_er = self._decode(U, V)
        return {"l_ds": self.l0[0] - h_ds, "l_er": local - h_er}

    def backward(self, U, V, upstream: dict[str, np.ndarray]):
        U, V = _as_rows(U), _as_rows(V)
        up_ds = np.atleast_1d(np.asarray(upstream["l_ds"], dtype=float))
        up_er = np.atleast_1d(np.asarray(upstream["l_er"], dtype=float))
        grads = {name: np.zeros_like(p) for name, p in self.trainable().items()}
        grads["l0"][0] = up_ds.sum()
        grads["beta"][0] = up_er.sum()
        grads["w"] += 0.5 * ((U * up_er[:, None]).sum(0) + (V * up_er[:, None]).sum(0))
        gU = 0.5 * up_er[:, None] * self.w[None, :]
        gV = 0.5 * up_er[:, None] * self.w[None, :]
        gU, gV = self._decode_backward(U, V, -up_ds, -up_er, grads, gU, gV)
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
            raise ConfigurationError("decay decoders are dot-product or mlp")
        self._init_core(decoder, n, np.random.default_rng(seed), "decays")

    def trainable(self):
        return self._core_trainable({})

    def predict(self, U, V) -> dict[str, np.ndarray]:
        U, V = _as_rows(U), _as_rows(V)
        tau_er, tau_lr = self._decode(U, V)
        return {"tau_er": tau_er, "tau_lr": tau_lr}

    def backward(self, U, V, upstream: dict[str, np.ndarray]):
        U, V = _as_rows(U), _as_rows(V)
        up_er = np.atleast_1d(np.asarray(upstream["tau_er"], dtype=float))
        up_lr = np.atleast_1d(np.asarray(upstream["tau_lr"], dtype=float))
        grads = {name: np.zeros_like(p) for name, p in self.trainable().items()}
        gU, gV = self._decode_backward(U, V, up_er, up_lr, grads)
        return gU, gV, grads


class DistanceModel:
    """Path-distance head: the bare distance decoder."""

    def __init__(self, decoder):
        if decoder.family not in DISTANCE_FAMILIES:
            raise ConfigurationError("path distance needs a distance family")
        self.decoder = decoder
        self.n = decoder.n

    @property
    def family(self) -> str:
        return self.decoder.family

    def trainable(self):
        return {f"decoder.{name}": p for name, p in self.decoder.trainable().items()}

    def predict(self, U, V) -> dict[str, np.ndarray]:
        return {"pi": self.decoder.pairwise(U, V)}

    def backward(self, U, V, upstream):
        gU, gV, dP = self.decoder.pairwise_backward(U, V, upstream["pi"])
        return gU, gV, {f"decoder.{name}": g for name, g in dP.items()}
