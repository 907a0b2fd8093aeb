"""Dataset assembly and gradient training of latent-grid models.

A *model bundle* couples one latent grid with one parameter head (path
distance, levels, or decay times). Groups are trained independently on
batches of sources: a batch decodes its source latents against their
shared receiver latents as one block, the per-source mean-squared error
against the oracle fields is backpropagated through the decoder and the
receiver-side latents in one backward pass, and the gradient flowing into
the source-position latent is zeroed (stop-gradient) to prevent it from
overfitting.

Training is deterministic for a fixed seed: batches are drawn from a
seeded generator and gradients are reduced in fixed source order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decoders import DecaysModel, DistanceModel, LevelsModel, make_distance_decoder
from .errors import ConfigurationError, DivergenceError, InputError
from .latentfield import RESOLVED, InterpBatch, LatentGrid, init_latent_grid, interp_points
from .oracle import PARAM_KINDS, FieldVolume, bake_source, mae_field
from .scene import VoxelScene, _segment_cells, _walk

GROUP_HEADS = {
    "distance": ("pi",),
    "levels": ("l_ds", "l_er"),
    "decays": ("tau_er", "tau_lr"),
}
# Decoder family a group trains with when none is named.
DEFAULT_FAMILY = {"distance": "euclidean", "levels": "euclidean", "decays": "dot-product"}
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass
class Dataset:
    """Oracle fields for a list of sources over one scene: every field has
    the scene's dims, spacing and origin (``InputError`` otherwise)."""

    scene: VoxelScene
    sources: list
    fields: list  # one {name: FieldVolume} dict per source
    split: str = "train"

    def __post_init__(self):
        if len(self.sources) != len(self.fields):
            raise InputError("one field dict per source required")
        if not self.sources:
            raise InputError(f"the {self.split} dataset has no sources")
        scene = self.scene
        for fields in self.fields:
            for name, fv in fields.items():
                if not (fv.dims == scene.dims and fv.spacing == scene.spacing and (fv.origin == scene.origin).all()):
                    raise InputError(f"a {self.split} {name} field was baked on another scene grid")

    def __len__(self) -> int:
        return len(self.sources)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    batch_sources: int = 4
    lr_decoder: float = 1e-3
    lr_grid: float = 1e-4
    seed: int = 0
    eval_interval: int = 50

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        for name in ("lr_decoder", "lr_grid"):  # a zero rate freezes its parameters
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ConfigurationError(f"{name} must be finite and non-negative")
        if self.eval_interval < 0:
            raise ConfigurationError("eval_interval must be >= 0")
        if self.lr_grid > self.lr_decoder:
            raise ConfigurationError(
                "grid learning rate must not exceed the decoder learning rate"
            )
        if self.batch_sources < 1:
            raise ConfigurationError("batch must contain at least one source")


class Adam:
    """Adaptive moment estimation (Kingma & Ba, 2015) over a named
    parameter dict, with the module's ``ADAM_*`` constants.

    The moments and learning rates of all parameters live in one flat
    buffer each. A step gathers the gradients into another and runs on
    them in place, with one more flat temporary, all allocated once; only
    the final update is written back into each parameter array.
    """

    def __init__(self, params: dict, lrs: dict):
        self.params = params
        self.lr = np.concatenate([np.full(p.size, float(lrs[name])) for name, p in params.items()])
        bounds = np.cumsum([0] + [p.size for p in params.values()])
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.m = np.zeros(bounds[-1])
        self.v = np.zeros(bounds[-1])
        self._g = np.empty(bounds[-1])
        self._tmp = np.empty(bounds[-1])
        self.t = 0

    def step(self, grads: dict) -> None:
        self.t += 1
        g, a, m, v = self._g, self._tmp, self.m, self.v
        for name, sl in zip(self.params, self._slices):
            g[sl] = grads[name].reshape(-1)
        m *= ADAM_BETA1
        m += np.multiply(1 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        np.multiply(1 - ADAM_BETA2, g, out=a)
        v += np.multiply(a, g, out=a)
        # update = lr * m_hat / (sqrt(v_hat) + eps); g is free from here on
        np.divide(m, 1 - ADAM_BETA1**self.t, out=a)
        a *= self.lr
        np.divide(v, 1 - ADAM_BETA2**self.t, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        a /= g
        for p, sl in zip(self.params.values(), self._slices):
            p -= a[sl].reshape(p.shape)


@dataclass(frozen=True)
class ModelBundle:
    """One latent grid plus the parameter head decoding it, over a scene
    of the grid's dims (``InputError`` otherwise)."""

    group: str
    grid: LatentGrid
    head: object  # DistanceModel | LevelsModel | DecaysModel
    scene: VoxelScene

    def __post_init__(self):
        if self.grid.dims != self.scene.dims:
            raise InputError("latent grid dims do not match scene dims")

    def trainable(self) -> dict:
        params = {"grid": self.grid.values}
        params.update(self.head.trainable())
        return params

    def snapshot(self) -> dict:
        return {k: p.copy() for k, p in self.trainable().items()}

    def restore(self, snapshot: dict) -> None:
        for k, p in self.trainable().items():
            np.copyto(p, snapshot[k])


def make_bundle(scene: VoxelScene, group: str, family: str, n: int, seed: int = 0, hidden=None) -> ModelBundle:
    """Fresh bundle for one parameter group.

    The decoder has one output per parameter of the group, and the head
    rejects a family it cannot use. The decay grid is initialized with
    coordinates scaled down by the scene diagonal so latent dot products
    start in the responsive range of the sigmoid; distance and level grids
    warm-start at physical scale.
    """
    if group not in GROUP_HEADS:
        raise ConfigurationError(f"unknown parameter group {group!r}")
    k = len(GROUP_HEADS[group])
    decoder = make_distance_decoder(family, n, seed=seed, hidden=hidden, k=k)
    if group == "distance":
        head = DistanceModel(decoder)
    else:
        head = (LevelsModel if group == "levels" else DecaysModel)(decoder, n, seed=seed)
    coord_scale = 1.0 / scene.diagonal if group == "decays" else 1.0
    grid = init_latent_grid(scene, n, seed=seed, coord_scale=coord_scale)
    return ModelBundle(group=group, grid=grid, head=head, scene=scene)


# ---------------------------------------------------------------------------
# Source sampling and dataset assembly
# ---------------------------------------------------------------------------


def _unseen(scene: VoxelScene, cells: np.ndarray, free: np.ndarray | None = None, coords=None):
    """The free voxels ``free`` (default: all) that no centre of ``cells`` sees, in order.

    Each free voxel casts a ray to its nearest cell (squared index distance,
    ties by index), those still unseen to their next-nearest cells in passes
    of width 2, 4, ...; what the cells see does not depend on that order.
    Rays reach the walker with ``lines_of_sight``'s cell coordinates, 4096
    at a time, and distances are ranked ~2**16 at a time, to stay in cache.
    ``coords``, the cell coordinates of the centres of ``cells`` and of
    ``free`` (``_segment_cells``), saves checking and placing them again;
    given it, the result is the unseen voxels and their cell coordinates."""
    free, k = (scene.free_indices() if free is None else free), len(cells)
    ca, cf = coords or (_segment_cells(scene, scene.voxel_center(x))[0] for x in (cells, free))
    ct, cq = -2.0 * cells.T, (cells * cells).sum(axis=1)  # f @ ct + cq ranks as |f - c|^2
    left, lo = np.arange(len(free)), 0
    while len(left) and lo < k:
        hi = min(2 * lo + 1, k)
        if lo < 2:  # every voxel's nearest cell, then a full ranking for those it missed
            d = (free[b] @ ct + cq for b in np.array_split(left, max(1, len(left) * k >> 16)))
            order = np.concatenate([x.argsort(1, kind="stable") if lo else x.argmin(1)[:, None] for x in d])
        near, far = order[:, lo:hi].ravel(), np.repeat(left, hi - lo)
        rays = (ca.take(near, 0), cf.take(far, 0), cells.take(near, 0), free.take(far, 0))
        hit = [_walk(scene, *(x[i : i + 4096] for x in rays)) for i in range(0, len(far), 4096)]
        hit = np.concatenate(hit).reshape(-1, hi - lo).any(axis=1)
        left, order, lo = left[~hit], order[~hit], hi
    return free[left] if coords is None else (free[left], cf[left])


def sample_sources(scene: VoxelScene, seed: int = 0, init_count: int = 20) -> list:
    """Adaptive source placement with full line-of-sight coverage.

    Starts from ``init_count`` random free voxels, marks everything they
    see, then repeatedly drops a source on a still-unseen free voxel until
    every free voxel is visible from at least one source. Deterministic
    for a fixed seed.

    Coverage can only change on voxels no earlier source sees, so every
    ray goes to a still-uncovered free voxel (``_unseen``); the placement
    is the same as with full visibility masks. The free voxels' cell
    coordinates are found once and kept next to the uncovered list.
    """
    if init_count < 0:
        raise ConfigurationError(f"init_count must be >= 0, got {init_count}")
    rng = np.random.default_rng(seed)
    free = scene.free_indices()
    cf = _segment_cells(scene, scene.voxel_center(free))[0]
    k = min(init_count, len(free))
    picks = np.sort(rng.choice(len(free), size=k, replace=False))
    cells = free[picks]
    sources = [scene.voxel_center(c) for c in cells]

    uncovered, cf = _unseen(scene, cells, free, (cf[picks], cf))  # C order, kept so by every drop
    while len(uncovered):
        i = rng.integers(len(uncovered))
        sources.append(scene.voxel_center(uncovered[i]))
        uncovered, cf = _unseen(scene, uncovered[i][None], uncovered, (cf[i][None], cf))
    return sources


def make_splits(
    scene: VoxelScene,
    seed: int = 0,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
    runs: int = 3,
) -> tuple[list, list, list]:
    """Disjoint train/validation/test source lists.

    The stochastic sampler runs ``runs`` times with consecutive seeds; the
    deduplicated pool is shuffled and split by ``fractions``. Raises
    ``ConfigurationError`` unless the fractions are non-negative and sum to
    1, and ``InputError`` when the pool holds fewer than three sources.
    """
    if min(fractions) < 0 or not abs(sum(fractions) - 1.0) <= 1e-9:  # NaN fails too
        raise ConfigurationError(f"split fractions must be non-negative and sum to 1, got {fractions}")
    seen = set()
    pool = []
    for r in range(runs):
        for src in sample_sources(scene, seed=seed + r):
            key = scene.voxel_of(src)
            if key not in seen:
                seen.add(key)
                pool.append(src)
    if len(pool) < 3:
        raise InputError(
            f"{len(pool)} distinct source voxels cannot fill three non-empty splits"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))
    pool = [pool[i] for i in order]
    n = len(pool)
    n_train = max(1, int(round(fractions[0] * n)))
    n_val = max(1, int(round(fractions[1] * n)))
    n_train = min(n_train, n - 2)
    n_val = min(n_val, n - n_train - 1)
    train = pool[:n_train]
    val = pool[n_train : n_train + n_val]
    test = pool[n_train + n_val :]
    return train, val, test


def build_dataset(scene: VoxelScene, sources, split: str = "train") -> Dataset:
    """Bake the five oracle parameter fields for every source."""
    fields = [bake_source(scene, src) for src in sources]
    return Dataset(scene=scene, sources=list(sources), fields=fields, split=split)


# ---------------------------------------------------------------------------
# Losses and metrics
# ---------------------------------------------------------------------------


def _source_stencils(scene: VoxelScene, sources) -> InterpBatch:
    """Stencils the source latents are read from, by ``interp_points``;
    raises for a source that does not resolve."""
    P = np.asarray(sources, dtype=float).reshape(-1, 3)
    stencils = interp_points(scene, P)
    for i in np.flatnonzero(stencils.status != RESOLVED):
        stencils.check(i, P[i])
    return stencils


def _predictions(bundle: ModelBundle, sources):
    """Predicted receiver fields of the bundle's heads, one dict per source:
    the source stencils are built once, then each source decodes one
    one-source block over the free voxels."""
    scene = bundle.scene
    latents = _source_stencils(scene, sources).sample(bundle.grid.values)
    free = tuple(scene.free_indices().T)
    V = bundle.grid.values[free]
    for source, u in zip(sources, latents):
        out = {}
        for head, vals in bundle.head.predict(u[None], V).items():
            grid_vals = np.full(scene.dims, np.nan)
            grid_vals[free] = vals[0]
            out[head] = FieldVolume(
                source=np.asarray(source, dtype=float),
                kind=PARAM_KINDS[head],
                values=grid_vals,
                spacing=scene.spacing,
                origin=scene.origin,
            )
        yield out


def predict_fields(bundle: ModelBundle, source) -> dict[str, FieldVolume]:
    """Predicted receiver fields of this bundle's heads for one source."""
    return next(_predictions(bundle, [source]))


def evaluate_mae(bundle: ModelBundle, ds: Dataset) -> dict[str, float]:
    """Mean absolute error per head, averaged over the dataset's sources."""
    totals = {h: 0.0 for h in GROUP_HEADS[bundle.group]}
    for preds, fields in zip(_predictions(bundle, ds.sources), ds.fields):
        for head in totals:
            totals[head] += mae_field(preds[head], fields[head])
    return {h: t / len(ds) for h, t in totals.items()}


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    bundle: ModelBundle
    history: list = field(default_factory=list)  # (epoch, group, loss, val_mae)


def train(
    bundle: ModelBundle,
    train_ds: Dataset,
    cfg: TrainConfig = TrainConfig(),
    val_ds: Dataset | None = None,
    on_eval=None,
) -> TrainResult:
    """Minimize the per-source field MSE with two-tier learning rates, and
    leave the bundle holding the eval it selects.

    Decoder parameters use ``lr_decoder``; the latent grid uses the smaller
    ``lr_grid``. The gradient is stopped at the source: the source latents
    are read from the grid, but no gradient flows back through that read.

    Every ``eval_interval`` epochs and at the last epoch the run evaluates
    the mean validation MAE and calls ``on_eval(epoch)``, if given, while
    the bundle holds that eval's parameters. It keeps one snapshot: the
    entry state until the first eval, then the eval with the lowest mean
    validation MAE (the earliest on ties), or the latest eval when there
    is no validation set. At the end the bundle is restored to it; with
    ``eval_interval`` 0 nothing is evaluated and the bundle keeps its final
    parameters. If the loss goes non-finite, which is checked block by
    block before its backward, or a step leaves a parameter non-finite,
    the bundle is restored to the kept snapshot and ``DivergenceError`` is
    raised carrying it as ``last_good``.

    A batch decodes its sources as one block against their shared
    receivers (one block per receiver set, in order of first appearance,
    when the sources' valid receivers differ). Adam steps a table of the
    grid rows training reads, the receivers and the source stencils'
    vertices; every other row has zero gradient and zero moments, so
    stepping it would not move it. Each batch reads its source latents
    from the table, and the table is written back into the grid before
    each eval and at the end.
    """
    scene = bundle.scene
    heads = GROUP_HEADS[bundle.group]
    stencils = _source_stencils(scene, train_ds.sources)
    # Receiver sets: the free voxels valid in every field of the group,
    # one entry per distinct set (usually one for all sources), and per
    # set a (sources of the set, receivers) truth table per head.
    receivers, set_of, known = [], [], {}
    for fields in train_ds.fields:
        valid = scene.free_mask()
        for head in heads:
            valid &= fields[head].valid_mask()
        k = known.setdefault(valid.tobytes(), len(known))
        if k == len(receivers):
            receivers.append(np.flatnonzero(valid))
        set_of.append(k)
    set_of = np.array(set_of)
    counts = np.array([len(receivers[k]) for k in set_of])
    if not counts.all():
        raise InputError("a training source has no receiver valid in every field of its group")
    row_in_set = np.zeros(len(set_of), dtype=int)
    truths = []
    for k, cells in enumerate(receivers):
        members = np.flatnonzero(set_of == k)
        row_in_set[members] = np.arange(len(members))
        truths.append({h: np.stack([train_ds.fields[i][h].values.reshape(-1)[cells] for i in members])
                       for h in heads})

    # The rows Adam steps: receivers and source stencil vertices, and each
    # grid vertex's row of that table. A vertex that is no receiver gets
    # zero gradient, so zero moments and a zero update.
    used = stencils.weights > 0.0
    live = np.zeros(scene.dims, dtype=bool)
    live.reshape(-1)[np.concatenate(receivers)] = True
    live[tuple(stencils.corners[used].T)] = True
    live_cells = np.nonzero(live)
    row_of = np.full(scene.dims, -1)
    row_of[live_cells] = np.arange(len(live_cells[0]))
    # A set of every row reads and adds to the table itself: an index array
    # of all rows would copy them on each read and make each step's add
    # about 10x slower (24 against 2.4 us for 365 rows of 8).
    at = [slice(None) if len(cells) == len(live_cells[0]) else row_of.reshape(-1)[cells] for cells in receivers]
    # Each source's stencil as table rows; an unused slot reads row 0 at
    # weight 0, which adds a zero as every row is finite.
    stencil_rows = np.where(used, row_of[tuple(stencils.corners.transpose(2, 0, 1))], 0)
    table = bundle.grid.values[live_cells]
    params = {"grid": table, **bundle.head.trainable()}
    lrs = {name: (cfg.lr_grid if name == "grid" else cfg.lr_decoder) for name in params}
    opt = Adam(params, lrs)
    rng = np.random.default_rng(cfg.seed)
    result = TrainResult(bundle=bundle)
    kept, kept_mae = bundle.snapshot(), None

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_ds))
        epoch_loss = 0.0
        n_batches = 0
        for b0 in range(0, len(order), cfg.batch_sources):
            batch = order[b0 : b0 + cfg.batch_sources]
            # each source's squared error is a mean over its receivers
            denom = (counts[batch] * float(len(heads) * len(batch)))[:, None]
            U = (stencils.weights[batch, None, :] @ table.take(stencil_rows[batch], axis=0))[:, 0]
            grid_grad, grads = np.zeros_like(table), None
            batch_loss = 0.0
            keys = set_of[batch]
            # A diverging batch overflows: the loss, checked per block before
            # its backward, or the parameters after the step report it.
            with np.errstate(over="ignore", invalid="ignore"):
                for k in dict.fromkeys(keys.tolist()):
                    block = np.flatnonzero(keys == k)
                    rows, d = row_in_set[batch[block]], denom[block]
                    half_d = d * 0.5  # r / (d / 2) is 2 r / d to the bit
                    preds, cache = bundle.head.forward(U[block], table[at[k]])
                    upstream = {}
                    for h in heads:
                        r = preds[h] - truths[k][h][rows]
                        sq = r * r
                        sq /= d
                        batch_loss += float(sq.sum())
                        upstream[h] = np.divide(r, half_d, out=r)
                    if not np.isfinite(batch_loss):
                        break
                    _, gV, head_grads = bundle.head.backward(cache, upstream)
                    grid_grad[at[k]] += gV
                    if grads is None:
                        grads = head_grads
                    else:
                        for name, g in head_grads.items():
                            grads[name] += g
                else:
                    grads["grid"] = grid_grad
                    opt.step(grads)
            if not (np.isfinite(batch_loss) and all(np.isfinite(p).all() for p in params.values())):
                bundle.restore(kept)
                what = "loss" if not np.isfinite(batch_loss) else "parameters"
                raise DivergenceError(f"non-finite {what} at epoch {epoch}", last_good=kept)
            epoch_loss += batch_loss
            n_batches += 1
        epoch_loss /= max(n_batches, 1)

        if cfg.eval_interval and (epoch % cfg.eval_interval == 0 or epoch == cfg.epochs):
            bundle.grid.values[live_cells] = table
            val_mae = evaluate_mae(bundle, val_ds) if val_ds is not None else None
            mean_val = (
                float(np.mean(list(val_mae.values()))) if val_mae is not None else None
            )
            if kept_mae is None or mean_val < kept_mae:  # unscored (no validation set), first or better
                kept, kept_mae = bundle.snapshot(), mean_val
            result.history.append((epoch, bundle.group, epoch_loss, mean_val))
            if on_eval is not None:
                on_eval(epoch)
        else:
            result.history.append((epoch, bundle.group, epoch_loss, None))
    if cfg.eval_interval:  # the last epoch evals, so the kept snapshot is an eval's
        bundle.restore(kept)
    else:
        bundle.grid.values[live_cells] = table
    return result
