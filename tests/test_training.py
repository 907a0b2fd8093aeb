import dataclasses
import tracemalloc

import numpy as np
import pytest

import soundprop as sp
from soundprop.errors import ConfigurationError, InputError
from soundprop.oracle import PARAM_KINDS, FieldVolume
from soundprop import training
from soundprop.training import GROUP_HEADS

from conftest import TRAIN_CASES
from oracles import Adam as PerArrayAdam
from oracles import (
    full_visibility_sources,
    per_source_sampler,
    per_source_train,
    reference_train,
    select_from_every_eval,
    visible_voxels,
)


# ---------------------------------------------------------------------------
# Source sampling
# ---------------------------------------------------------------------------


def test_sample_sources_empty_box_exactly_initial_batch(box_scene):
    sources = sp.sample_sources(box_scene, seed=0)
    assert len(sources) == 20  # everything is visible from the first batch
    for src in sources:
        assert not box_scene.occupancy[box_scene.voxel_of(src)]


def test_sample_sources_covers_sealed_rooms():
    scene = sp.build_scene(sp.SceneSpec(kind="coupled-rooms", dims=(14, 4, 10)))
    for seed in range(3):
        sources = sp.sample_sources(scene, seed=seed)
        covered = np.zeros(scene.dims, bool)
        for src in sources:
            covered |= visible_voxels(scene, src)
        assert (covered | scene.occupancy).all()


def test_sample_sources_deterministic_and_seed_sensitive(box_scene):
    a = sp.sample_sources(box_scene, seed=5)
    b = sp.sample_sources(box_scene, seed=5)
    c = sp.sample_sources(box_scene, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_make_splits_disjoint(box_scene):
    train_s, val_s, test_s = sp.make_splits(box_scene, seed=1)
    seen = set()
    for group in (train_s, val_s, test_s):
        for src in group:
            key = box_scene.voxel_of(src)
            assert key not in seen
            seen.add(key)
    assert len(train_s) > 0 and len(val_s) > 0 and len(test_s) > 0


def test_make_splits_needs_three_distinct_sources():
    """Two free voxels give a pool of two sources, too few for three
    non-empty splits."""
    occupancy = np.ones((4, 4, 4), dtype=bool)
    occupancy[1, 1, 1] = occupancy[2, 1, 1] = False
    scene = sp.VoxelScene(dims=(4, 4, 4), spacing=1.0, origin=np.zeros(3), occupancy=occupancy)
    with pytest.raises(InputError):
        sp.make_splits(scene, seed=0)


@pytest.mark.parametrize("fractions", [(0.6, 0.4, 0.2), (0.6, float("nan"), 0.2)])
def test_make_splits_fractions_must_sum_to_one(box_scene, fractions):
    with pytest.raises(ConfigurationError):
        sp.make_splits(box_scene, fractions=fractions)


def test_make_splits_rejects_negative_fractions(box_scene):
    with pytest.raises(ConfigurationError):
        sp.make_splits(box_scene, fractions=(2.0, -0.5, -0.5), runs=1)


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


def test_build_dataset_field_count(box_scene):
    sources = [box_scene.voxel_center(i) for i in ((2, 1, 2), (4, 2, 4), (6, 2, 6))]
    ds = sp.build_dataset(box_scene, sources)
    assert len(ds) == 3
    total = sum(len(f) for f in ds.fields)
    assert total == 15  # five parameter fields per source


def test_dataset_pi_reciprocity(box_scene):
    a_idx, b_idx = (2, 1, 2), (5, 2, 6)
    ds = sp.build_dataset(
        box_scene, [box_scene.voxel_center(a_idx), box_scene.voxel_center(b_idx)]
    )
    assert ds.fields[0]["pi"].values[b_idx] == pytest.approx(
        ds.fields[1]["pi"].values[a_idx], abs=1e-9
    )


# ---------------------------------------------------------------------------
# Training loop contracts
# ---------------------------------------------------------------------------


def _tiny_dataset(box_scene):
    sources = [box_scene.voxel_center(i) for i in ((2, 1, 2), (5, 2, 5), (3, 2, 5))]
    return sp.build_dataset(box_scene, sources)


def test_zero_learning_rates_are_a_no_op(box_scene):
    ds = _tiny_dataset(box_scene)
    bundle = sp.make_bundle(box_scene, "distance", "riemann-diag", 4, seed=0)
    before = bundle.snapshot()
    cfg = sp.TrainConfig(epochs=5, lr_decoder=0.0, lr_grid=0.0, eval_interval=0, seed=0)
    sp.train(bundle, ds, cfg)
    after = bundle.snapshot()
    for name in before:
        assert np.array_equal(before[name], after[name])


def test_same_seed_bit_identical(box_scene):
    ds = _tiny_dataset(box_scene)
    snaps = []
    for _ in range(2):
        bundle = sp.make_bundle(box_scene, "distance", "riemann-diag", 4, seed=0)
        sp.train(bundle, ds, sp.TrainConfig(epochs=30, eval_interval=0, seed=7))
        snaps.append(bundle.snapshot())
    for name in snaps[0]:
        assert np.array_equal(snaps[0][name], snaps[1][name])


def test_stop_gradient_source_latent_frozen(box_scene):
    """One source, one distinct receiver: the source latent must not move."""
    src_idx, recv_idx = (2, 1, 2), (5, 2, 5)
    src = box_scene.voxel_center(src_idx)
    geo = sp.geodesic_field(box_scene, src)
    # keep only the single receiver voxel valid
    lone = np.full(box_scene.dims, np.nan)
    lone[recv_idx] = geo.values[recv_idx]
    pi = FieldVolume(source=src, kind="path-distance", values=lone,
                     spacing=box_scene.spacing, origin=box_scene.origin)
    ds = sp.Dataset(scene=box_scene, sources=[src], fields=[{"pi": pi}])
    bundle = sp.make_bundle(box_scene, "distance", "euclidean", 4, seed=0)
    before_src = bundle.grid.values[src_idx].copy()
    before_recv = bundle.grid.values[recv_idx].copy()
    sp.train(bundle, ds, sp.TrainConfig(epochs=20, eval_interval=0, seed=0))
    assert np.array_equal(bundle.grid.values[src_idx], before_src)
    assert not np.array_equal(bundle.grid.values[recv_idx], before_recv)


def test_obstacle_vertices_never_move(box_scene):
    ds = _tiny_dataset(box_scene)
    bundle = sp.make_bundle(box_scene, "distance", "euclidean", 4, seed=0)
    frozen_before = bundle.grid.values[box_scene.occupancy].copy()
    sp.train(bundle, ds, sp.TrainConfig(epochs=30, eval_interval=0, seed=0))
    assert np.array_equal(bundle.grid.values[box_scene.occupancy], frozen_before)


@pytest.mark.parametrize(
    "group,family",
    [
        ("distance", "euclidean"),
        ("distance", "riemann-psd"),
        ("distance", "riemann-diag"),
        ("distance", "mlp"),
        ("decays", "dot-product"),
        ("levels", "euclidean"),
    ],
)
def test_loss_descends_for_every_family(box_scene, group, family):
    ds = _tiny_dataset(box_scene)
    bundle = sp.make_bundle(box_scene, group, family, 4, seed=1)
    result = sp.train(bundle, ds, sp.TrainConfig(epochs=100, eval_interval=0, seed=1))
    first = result.history[0][2]
    last = result.history[-1][2]
    assert np.isfinite(last)
    assert last < first


def test_make_bundle_decays_accepts_only_dot_product_and_mlp(box_scene):
    for family in ("dot-product", "mlp", "mlp-small"):
        assert sp.make_bundle(box_scene, "decays", family, 4).head.family in ("dot-product", "mlp")
    for family in ("riemann-psd", "euclidean", "spline"):
        with pytest.raises(ConfigurationError):
            sp.make_bundle(box_scene, "decays", family, 4)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        sp.TrainConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        sp.TrainConfig(lr_decoder=1e-4, lr_grid=1e-3)
    bad = [{"lr_grid": -1.0}, {"lr_grid": np.nan}, {"lr_decoder": np.inf}, {"lr_decoder": np.nan},
           {"lr_decoder": -1e-3, "lr_grid": -1e-2}, {"eval_interval": -5}]
    for kwargs in bad:
        with pytest.raises(ConfigurationError):
            sp.TrainConfig(**kwargs)
    sp.TrainConfig(lr_decoder=0.0, lr_grid=0.0, eval_interval=0)


def test_adam_moment_alignment():
    params = {"a": np.zeros((3, 2)), "b": np.zeros(5)}
    opt = sp.Adam(params, {"a": 1e-3, "b": 1e-3})
    assert opt.m.size == opt.v.size == sum(p.size for p in params.values())
    opt.step({"a": np.ones((3, 2)), "b": np.ones(5)})
    assert np.all(params["a"] != 0.0)


def test_flat_adam_matches_per_array_adam():
    """The flat in-place Adam steps a latent grid and decoder-sized arrays
    under two learning rates to the per-array Adam's values, step by step."""
    rng = np.random.default_rng(9)
    n = 5
    shapes = {"grid": (4, 4, 4, 3), "l0": (1,), "w": (n,), "proj": (n, n)}
    lrs = {name: (1e-4 if name == "grid" else 1e-3) for name in shapes}
    # parameters near zero, as the level offsets start, so that the last
    # bit of every update shows in them
    start = {name: rng.normal(size=shape) * 1e-6 for name, shape in shapes.items()}
    flat_params = {name: p.copy() for name, p in start.items()}
    ref_params = {name: p.copy() for name, p in start.items()}
    flat, ref = sp.Adam(flat_params, lrs), PerArrayAdam(ref_params, lrs)
    for step in range(50):
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-9, 3) for name, shape in shapes.items()}
        grads["grid"][..., step % 3] = 0.0
        flat.step(grads)
        ref.step(grads)
        for name in shapes:
            assert np.array_equal(flat_params[name], ref_params[name]), (step, name)
        assert np.array_equal(flat.m, np.concatenate([ref.m[name].reshape(-1) for name in shapes]))
        assert np.array_equal(flat.v, np.concatenate([ref.v[name].reshape(-1) for name in shapes]))


def test_adam_on_a_row_table_matches_the_full_grid():
    """Adam on a table of the grid rows that get gradients, written back
    after every step, moves the grid as Adam on the whole grid does, bit
    for bit, over 20 steps; no other row moves."""
    rng = np.random.default_rng(12)
    grid = rng.normal(size=(4, 4, 4, 3)) * 1e-6
    live = np.sort(rng.choice(64, size=23, replace=False))
    cells = np.unravel_index(live, grid.shape[:3])
    w = rng.normal(size=5)
    full = {"grid": grid.copy(), "w": w.copy()}
    rows = {"grid": grid[cells], "w": w.copy()}
    lrs = {"grid": 1e-4, "w": 1e-3}
    full_opt, rows_opt = sp.Adam(full, lrs), sp.Adam(rows, lrs)
    tabled = grid.copy()
    for step in range(20):
        g = rng.normal(size=(len(live), 3)) * 10.0 ** rng.integers(-9, 3)
        g[step % len(live)] = 0.0
        gw = rng.normal(size=5)
        full_grad = np.zeros_like(grid)
        full_grad[cells] = g
        full_opt.step({"grid": full_grad, "w": gw})
        rows_opt.step({"grid": g, "w": gw})
        tabled[cells] = rows["grid"]
        assert np.array_equal(tabled, full["grid"]), step
        assert np.array_equal(rows["w"], full["w"]), step
    dead = np.ones(64, bool)
    dead[live] = False
    assert np.array_equal(full["grid"].reshape(64, 3)[dead], grid.reshape(64, 3)[dead])


def test_train_keeps_the_eval_a_snapshot_per_eval_selects(box_scene, selection_run):
    """``train`` leaves the bundle holding, bit for bit, the eval that one
    snapshot per eval and the earliest-minimum rule select, on a run whose
    best eval is not its last."""
    train_ds, val_ds, cfg = selection_run
    got = sp.make_bundle(box_scene, "distance", "riemann-diag", 4, seed=0)
    sp.train(got, train_ds, cfg, val_ds=val_ds)
    want = sp.make_bundle(box_scene, "distance", "riemann-diag", 4, seed=0)
    assert select_from_every_eval(want, train_ds, cfg, val_ds) == 4 < cfg.epochs
    for name, arr in want.trainable().items():
        assert np.array_equal(got.trainable()[name], arr), name


def test_train_keeps_the_first_of_tied_evals(box_scene, selection_run, monkeypatch):
    """With zero learning rates every eval ties and the bundle holds the
    first eval's parameters. So it does when every eval scores alike while
    the parameters move, and then they differ from the last eval's."""
    train_ds, val_ds, cfg = selection_run

    def run(cfg):
        bundle = sp.make_bundle(box_scene, "distance", "riemann-diag", 4, seed=0)
        snapshots = {}
        result = sp.train(bundle, train_ds, cfg, val_ds=val_ds,
                          on_eval=lambda epoch: snapshots.setdefault(epoch, bundle.snapshot()))
        assert len({mae for _, _, _, mae in result.history if mae is not None}) == 1
        for name, arr in bundle.trainable().items():
            assert np.array_equal(arr, snapshots[cfg.eval_interval][name]), name
        return bundle, snapshots

    run(dataclasses.replace(cfg, lr_decoder=0.0, lr_grid=0.0))
    monkeypatch.setattr(training, "evaluate_mae", lambda bundle, ds: {"pi": 1.0})
    bundle, snapshots = run(cfg)
    assert not np.array_equal(bundle.grid.values, snapshots[cfg.epochs]["grid"])


def test_train_keeps_one_snapshot_however_often_it_evals(box_scene, selection_run):
    """Once ``train`` has returned, a 20-epoch run that evaluates every
    epoch holds no more traced memory than the same run evaluating once,
    give or take one grid snapshot."""
    train_ds, val_ds, _ = selection_run

    def live_after(eval_interval):
        bundle = sp.make_bundle(box_scene, "distance", "euclidean", 8, seed=0)
        cfg = sp.TrainConfig(epochs=20, eval_interval=eval_interval, seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = sp.train(bundle, train_ds, cfg, val_ds=val_ds)
            return tracemalloc.get_traced_memory()[0] - before, result  # measured with the result alive
        finally:
            tracemalloc.stop()

    live_after(20)  # first-call allocations
    every, _ = live_after(1)
    once, _ = live_after(20)
    grid = np.zeros((*box_scene.dims, 8)).nbytes
    assert every - once <= grid, (every, once, grid)


def test_generalization_held_out_sources_finite(box_scene, box_datasets, trained_box_euclid4):
    _, _, test_ds = box_datasets
    maes = sp.evaluate_mae(trained_box_euclid4, test_ds)
    for head in GROUP_HEADS["distance"]:
        assert np.isfinite(maes[head])


SAMPLER_SCENES = {
    "aperture": sp.SceneSpec(kind="wall-with-aperture", dims=(16, 4, 16)),
    "maze": sp.SceneSpec(kind="maze", dims=(16, 4, 16), seed=7),
    "rooms-door1": sp.SceneSpec(kind="coupled-rooms", dims=(14, 4, 10), geometry={"door": 1}),
    "rooms-door0": sp.SceneSpec(kind="coupled-rooms", dims=(14, 4, 10), geometry={"door": 0}),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_SCENES))
def test_sample_sources_matches_full_visibility_sampler(name):
    scene = sp.build_scene(SAMPLER_SCENES[name])
    for seed in range(3):
        for init_count in (1, 20):
            got = sp.sample_sources(scene, seed=seed, init_count=init_count)
            want = full_visibility_sources(scene, seed=seed, init_count=init_count)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_sample_sources_casts_one_ray_per_uncovered_voxel(monkeypatch):
    """The initial sources' rays: every free voxel casts one ray to its
    nearest source, and a voxel casts to its next-nearest sources, in
    passes of width 1, 2, 4, ..., only while no earlier pass has seen it.
    Each adaptive source then casts one ray per still-uncovered voxel.
    Rays are counted where they reach the walker, per ``_unseen`` call."""
    scene = sp.build_scene(SAMPLER_SCENES["maze"])
    walks = []  # the (start, end) voxels walked, one list per ``_unseen`` call
    walk, unseen = training._walk, training._unseen
    monkeypatch.setattr(training, "_unseen", lambda *args: walks.append([]) or unseen(*args))
    monkeypatch.setattr(
        training, "_walk",
        lambda s, a, b, start, end: walks[-1].append((start, end)) or walk(s, a, b, start, end),
    )
    sources = sp.sample_sources(scene, seed=2, init_count=20)
    monkeypatch.undo()
    initial = walks[0]
    adaptive = [sum(len(end) for _, end in calls) for calls in walks[1:]]
    assert len(adaptive) == len(sources) - 20

    cells = np.array([scene.voxel_of(src) for src in sources[:20]])
    cast_to = {}
    for start, end in initial:
        for cell, voxel in zip(map(tuple, start), map(tuple, end)):
            cast_to.setdefault(voxel, []).append(cell)
    sees = np.array([visible_voxels(scene, src) for src in sources[:20]])
    free = scene.free_indices()
    assert sorted(cast_to) == sorted(map(tuple, free))
    later = 0
    for voxel in map(tuple, free):
        d2 = ((cells - voxel) ** 2).sum(axis=1)
        ranked = np.lexsort((np.arange(20), d2))
        seen_at = np.flatnonzero(sees[(slice(None), *voxel)][ranked])
        first = seen_at[0] if seen_at.size else 19
        width_end = 1
        while width_end <= first:
            width_end = 2 * width_end + 1
        budget = ranked[: min(width_end, 20)]
        assert sorted(cast_to[voxel]) == sorted(map(tuple, cells[budget]))
        later += len(budget) - 1
    assert later > 0  # some voxels need more than the first pass

    expected = 0
    uncovered = scene.free_mask() & ~sees.any(axis=0)
    for src, count in zip(sources[20:], adaptive):
        assert count == np.count_nonzero(uncovered)
        expected += np.count_nonzero(uncovered)
        uncovered &= ~visible_voxels(scene, src)
    assert not uncovered.any()
    assert sum(adaptive) == expected


GYM_FOREST = sp.SceneSpec(kind="cylinder-forest", dims=(59, 8, 59), seed=11, geometry={"n_cylinders": 12})
COVERAGE_SCENES = dict(
    SAMPLER_SCENES,
    gym=GYM_FOREST,
    maze32=sp.SceneSpec(kind="maze", dims=(32, 4, 32), seed=7),
)


@pytest.mark.parametrize("init_count", [0, 1, 20, "all"])
@pytest.mark.parametrize("name", sorted(COVERAGE_SCENES))
def test_sample_sources_matches_per_source_sampler(name, init_count):
    """Nearest-first coverage passes leave the same voxels unseen as one
    ``visible_voxels`` call per initial source, and the placement is the
    same."""
    scene = sp.build_scene(COVERAGE_SCENES[name])
    free = scene.free_indices()
    count = len(free) + 5 if init_count == "all" else init_count
    seed = 4
    cells = free[np.sort(np.random.default_rng(seed).choice(len(free), min(count, len(free)), replace=False))]
    got = sp.sample_sources(scene, seed=seed, init_count=count)
    unseen = training._unseen(scene, cells)
    if name == "gym" and init_count == "all":
        # The per-source loop takes tens of seconds here; every free voxel
        # is a source and sees its own centre.
        assert unseen.shape == (0, 3)
        assert np.array_equal(np.array(got), scene.voxel_center(free))
        return
    want, after_initial = per_source_sampler(scene, seed=seed, init_count=count)
    assert np.array_equal(unseen, np.argwhere(after_initial))
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_sample_sources_rejects_negative_init_count(box_scene):
    with pytest.raises(ConfigurationError, match="init_count"):
        sp.sample_sources(box_scene, seed=0, init_count=-1)


def test_off_centre_source_latent_matches_predict_fields(box_scene):
    """Training reads an off-centre source latent by masked interpolation,
    the same latent that ``predict_fields`` (and so eval) uses."""
    src = box_scene.voxel_center((3, 1, 4)) + np.array([0.3, 0.2, -0.35]) * box_scene.spacing
    ds = sp.build_dataset(box_scene, [src])
    bundle = sp.make_bundle(box_scene, "distance", "euclidean", 4, seed=0)
    rows = []
    real = bundle.head.forward

    def recording(U, V):
        rows.append(np.array(U[0]))
        return real(U, V)

    bundle.head.forward = recording
    sp.predict_fields(bundle, src)
    sp.train(bundle, ds, sp.TrainConfig(epochs=1, eval_interval=0, seed=0))
    assert len(rows) == 2
    assert np.array_equal(rows[1], rows[0])
    assert not np.array_equal(rows[1], bundle.grid.values[box_scene.voxel_of(src)])


def test_off_centre_source_stencil_is_frozen(box_scene):
    """One off-centre source and one distant receiver: the stop-gradient
    freezes the source stencil, and only the receiver moves."""
    src = box_scene.voxel_center((3, 1, 4)) + np.array([0.3, 0.2, -0.35]) * box_scene.spacing
    recv_idx = (6, 2, 6)
    geo = sp.geodesic_field(box_scene, src)
    lone = np.full(box_scene.dims, np.nan)
    lone[recv_idx] = geo.values[recv_idx]
    pi = FieldVolume(source=src, kind="path-distance", values=lone,
                     spacing=box_scene.spacing, origin=box_scene.origin)
    ds = sp.Dataset(scene=box_scene, sources=[src], fields=[{"pi": pi}])
    stencil = sp.interp_points(box_scene, src[None])
    corners = stencil.corners[0, stencil.weights[0] > 0]
    assert len(corners) == 8 and recv_idx not in {tuple(c) for c in corners}
    bundle = sp.make_bundle(box_scene, "distance", "euclidean", 4, seed=0)
    before = bundle.grid.values.copy()
    sp.train(bundle, ds, sp.TrainConfig(epochs=3, eval_interval=0, seed=0))
    moved = np.any(bundle.grid.values != before, axis=-1)
    assert moved[recv_idx]
    assert np.count_nonzero(moved) == 1


def test_train_makes_one_decode_and_one_backward_per_batch(box_scene, monkeypatch):
    """A batch decodes its sources against their shared receivers as one
    block: one ``forward`` and one ``backward`` on that forward's cache,
    and never ``predict``; all sources, on voxel centres or off them,
    share one ``interp_points`` call, made once for the whole run."""
    offset = np.array([0.3, 0.2, -0.35]) * box_scene.spacing
    sources = [box_scene.voxel_center(i) for i in ((2, 1, 2), (5, 2, 5), (4, 1, 3))]
    sources += [box_scene.voxel_center(i) + offset for i in ((3, 1, 4), (5, 2, 2))]
    ds = sp.build_dataset(box_scene, sources)
    bundle = sp.make_bundle(box_scene, "levels", "riemann-diag", 4, seed=0)
    rows = {"forward": [], "backward": [], "predict": []}
    real_forward, real_backward = bundle.head.forward, bundle.head.backward

    def forward(U, V):
        rows["forward"].append((len(U), len(V)))
        return real_forward(U, V)

    def backward(cache, upstream):
        gU, gV, grads = real_backward(cache, upstream)
        rows["backward"].append((len(gU), len(gV)))
        return gU, gV, grads

    monkeypatch.setattr(bundle.head, "forward", forward)
    monkeypatch.setattr(bundle.head, "backward", backward)
    monkeypatch.setattr(bundle.head, "predict", lambda U, V: rows["predict"].append(len(U)))
    stencil_points = []
    real_interp = training.interp_points
    monkeypatch.setattr(training, "interp_points",
                        lambda scene, P: stencil_points.append(len(P)) or real_interp(scene, P))
    sp.train(bundle, ds, sp.TrainConfig(epochs=3, batch_sources=2, eval_interval=0, seed=0))
    assert len(rows["forward"]) == len(rows["backward"]) == 3 * 3  # 3 batches a epoch
    assert rows["forward"] == rows["backward"]
    assert rows["predict"] == []
    n_free = np.count_nonzero(box_scene.free_mask())
    assert sum(b for b, _ in rows["forward"][:3]) == len(sources)
    assert {r for _, r in rows["forward"]} == {n_free}
    assert stencil_points == [len(sources)]


@pytest.mark.parametrize("group,family", [
    ("levels", "riemann-diag"),
    ("distance", "riemann-psd"),
    ("decays", "mlp"),
])
def test_train_matches_per_source_reference(box_scene, group, family):
    """Stacked batches train the same parameters as the loop that decodes
    and scatters one source at a time, up to the float reduction order."""
    offset = np.array([0.3, 0.2, -0.35]) * box_scene.spacing
    sources = [box_scene.voxel_center(i) for i in ((2, 1, 2), (5, 2, 5), (4, 1, 3))]
    sources += [box_scene.voxel_center(i) + offset for i in ((3, 1, 4), (5, 2, 2))]
    ds = sp.build_dataset(box_scene, sources)
    cfg = sp.TrainConfig(epochs=8, batch_sources=2, eval_interval=0, seed=4)
    batched = sp.make_bundle(box_scene, group, family, 4, seed=1)
    reference = sp.make_bundle(box_scene, group, family, 4, seed=1)
    sp.train(batched, ds, cfg)
    per_source_train(reference, ds, cfg)
    for name, p in reference.trainable().items():
        assert np.allclose(batched.trainable()[name], p, rtol=0.0, atol=1e-12), name
    moved = reference.grid.values != sp.make_bundle(box_scene, group, family, 4, seed=1).grid.values
    assert moved.any()


@pytest.mark.parametrize("group,family", [
    ("distance", "riemann-diag"),
    ("levels", "riemann-diag"),
    ("decays", "dot-product"),
    ("levels", "mlp"),
])
def test_train_with_two_receiver_sets_matches_per_source_reference(box_scene, group, family):
    """One source whose fields are NaN at one receiver has a receiver set
    of its own, so batches with it decode two blocks: the parameters match
    the source-by-source loop up to the float reduction order, and the
    flat-row reference bit for bit."""
    offset = np.array([0.3, 0.2, -0.35]) * box_scene.spacing
    sources = [box_scene.voxel_center(i) for i in ((2, 1, 2), (5, 2, 5), (4, 1, 3))]
    sources += [box_scene.voxel_center(i) + offset for i in ((3, 1, 4), (5, 2, 2))]
    ds = sp.build_dataset(box_scene, sources)
    for field in ds.fields[1].values():
        field.values[6, 2, 1] = np.nan
    cfg = sp.TrainConfig(epochs=8, batch_sources=3, eval_interval=0, seed=4)
    batched, reference, flat = (sp.make_bundle(box_scene, group, family, 4, seed=1) for _ in range(3))
    history = sp.train(batched, ds, cfg).history
    per_source_train(reference, ds, cfg)
    assert [loss for _, _, loss, _ in history] == reference_train(flat, ds, cfg)
    for name, p in reference.trainable().items():
        assert np.allclose(batched.trainable()[name], p, rtol=0.0, atol=1e-12), name
        assert np.array_equal(batched.trainable()[name], flat.trainable()[name]), name
    assert batched.grid.values[6, 2, 1].any()  # the other sources' receiver


@pytest.fixture(scope="module")
def five_source_ds(box_scene):
    """Three sources on voxel centres and two off them."""
    offset = np.array([0.3, 0.2, -0.35]) * box_scene.spacing
    sources = [box_scene.voxel_center(i) for i in ((2, 1, 2), (5, 2, 5), (4, 1, 3))]
    sources += [box_scene.voxel_center(i) + offset for i in ((3, 1, 4), (5, 2, 2))]
    return sp.build_dataset(box_scene, sources)


# Each id ends in "stop", as the training stops the gradient at the source
# (so do the keys of ``train_digests.json``).
@pytest.mark.parametrize("group,family", TRAIN_CASES, ids=[f"{g}-{f}-stop" for g, f in TRAIN_CASES])
def test_train_is_bit_identical_to_the_two_forward_reference(box_scene, five_source_ds, group, family):
    """One forward per batch, its cache handed to the backward, the flat
    Adam and the one-``bincount`` scatter train the parameters and epoch
    losses of the loop that decodes twice, steps the per-array Adam and
    scatters channel by channel, to the bit."""
    cfg = sp.TrainConfig(epochs=6, batch_sources=2, eval_interval=0, seed=4)
    trained = sp.make_bundle(box_scene, group, family, 4, seed=1)
    reference = sp.make_bundle(box_scene, group, family, 4, seed=1)
    history = sp.train(trained, five_source_ds, cfg).history
    assert [loss for _, _, loss, _ in history] == reference_train(reference, five_source_ds, cfg)
    for name, p in reference.trainable().items():
        assert np.array_equal(trained.trainable()[name], p), name


def test_batch_source_latents_equal_the_stencil_sample_rows(box_scene, five_source_ds):
    """A batch samples only its own sources' latents, on and off voxel
    centres, once each: the block's source rows equal those of
    ``InterpBatch.sample`` over every source at that step, to the bit.
    Training writes the grid back only at its end, so the grid at a step
    is the initial one with the step's receiver rows, every free voxel's,
    written in."""
    cfg = sp.TrainConfig(epochs=3, batch_sources=2, eval_interval=0, seed=4)
    bundle = sp.make_bundle(box_scene, "levels", "riemann-diag", 4, seed=1)
    stencils = training._source_stencils(box_scene, five_source_ds.sources)
    rng = np.random.default_rng(cfg.seed)
    batches = [order[b0 : b0 + 2] for order in (rng.permutation(5) for _ in range(3)) for b0 in (0, 2, 4)]
    real = bundle.head.forward
    seen = []

    def forward(U, V):
        batch = batches[len(seen)]
        grid = bundle.grid.values.copy()
        grid[box_scene.free_mask()] = V
        expected = stencils.sample(grid)[batch]
        seen.append(np.array_equal(U, expected))
        return real(U, V)

    bundle.head.forward = forward
    sp.train(bundle, five_source_ds, cfg)
    assert seen == [True] * len(batches)
    on_centre = stencils.weights[:, 0] == 1.0
    assert on_centre.sum() == 3 and (~on_centre).sum() == 2


@pytest.mark.parametrize("entry", ["train", "predict_fields", "evaluate_mae"])
def test_grid_dims_mismatch_is_an_input_error(box_scene, entry):
    """A latent grid made for another scene is bad input to every entry
    point that reads it against the scene."""
    other = sp.make_bundle(sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(6, 4, 6))),
                           "distance", "euclidean", 4, seed=0)
    src = box_scene.voxel_center((2, 1, 2))
    ds = sp.build_dataset(box_scene, [src])

    def bundle():
        return sp.ModelBundle(group=other.group, grid=other.grid, head=other.head, scene=box_scene)

    calls = {
        "train": lambda: sp.train(bundle(), ds, sp.TrainConfig(epochs=1, eval_interval=0)),
        "predict_fields": lambda: sp.predict_fields(bundle(), src),
        "evaluate_mae": lambda: sp.evaluate_mae(bundle(), ds),
    }
    with pytest.raises(InputError, match="grid dims"):
        calls[entry]()


def test_source_reads_its_voxel_only_within_the_centre_tolerance():
    """1e-4 m off a voxel centre a source is interpolated (two corners
    there), not read from the voxel; within 1e-9 spacing it reads the
    voxel exactly."""
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(16, 4, 16)))
    bundle = sp.make_bundle(scene, "distance", "euclidean", 4, seed=0)
    rows = []
    real = bundle.head.predict
    bundle.head.predict = lambda U, V: rows.append(np.array(U[0])) or real(U, V)
    centre = scene.voxel_center((12, 2, 12))
    near = centre + np.array([1e-4, 0.0, 0.0])
    stencil = sp.interp_points(scene, near[None])
    assert np.count_nonzero(stencil.weights) == 2
    sp.predict_fields(bundle, near)
    sp.predict_fields(bundle, centre + np.array([0.5e-9, -0.5e-9, 0.0]) * scene.spacing)
    assert np.array_equal(rows[0], stencil.sample(bundle.grid.values)[0])
    assert not np.array_equal(rows[0], bundle.grid.values[12, 2, 12])
    assert np.array_equal(rows[1], bundle.grid.values[12, 2, 12])


def test_source_on_an_obstacle_voxel_centre_is_an_input_error(box_scene):
    """A source on the centre of an occupied voxel is rejected like one
    off it, so no stencil reads or moves an obstacle vertex."""
    wall = box_scene.voxel_center(tuple(np.argwhere(box_scene.occupancy)[0]))
    fields = sp.bake_source(box_scene, box_scene.voxel_center((2, 1, 2)))
    ds = sp.Dataset(scene=box_scene, sources=[wall], fields=[fields])
    bundle = sp.make_bundle(box_scene, "distance", "euclidean", 4, seed=0)
    with pytest.raises(InputError, match="occupied"):
        sp.train(bundle, ds, sp.TrainConfig(epochs=1, eval_interval=0))
    with pytest.raises(InputError, match="occupied"):
        sp.predict_fields(bundle, wall)


def test_empty_dataset_raises(box_scene):
    with pytest.raises(InputError):
        sp.Dataset(scene=box_scene, sources=[], fields=[])


def test_evaluate_mae_without_common_valid_voxels_raises(box_scene):
    src = box_scene.voxel_center((2, 1, 2))
    fields = sp.bake_source(box_scene, src)
    fields["pi"] = FieldVolume(source=src, kind="path-distance",
                               values=np.full(box_scene.dims, np.nan),
                               spacing=box_scene.spacing, origin=box_scene.origin)
    ds = sp.Dataset(scene=box_scene, sources=[src], fields=[fields])
    bundle = sp.make_bundle(box_scene, "distance", "euclidean", 4, seed=0)
    with pytest.raises(InputError, match="no valid voxels to compare"):  # oracle.valid_pairs
        sp.evaluate_mae(bundle, ds)


def test_train_source_without_common_valid_voxels_raises(box_scene):
    src = box_scene.voxel_center((2, 1, 2))
    fields = sp.bake_source(box_scene, src)
    fields["l_er"] = FieldVolume(source=src, kind="level", values=np.full(box_scene.dims, np.nan),
                                 spacing=box_scene.spacing, origin=box_scene.origin)
    other = box_scene.voxel_center((5, 2, 5))
    ds = sp.Dataset(scene=box_scene, sources=[other, src], fields=[sp.bake_source(box_scene, other), fields])
    bundle = sp.make_bundle(box_scene, "levels", "euclidean", 4, seed=0)
    with pytest.raises(InputError):
        sp.train(bundle, ds, sp.TrainConfig(epochs=2, eval_interval=0))


@pytest.mark.parametrize("group", sorted(GROUP_HEADS))
def test_predicted_and_baked_kinds_agree(box_scene, group):
    """Each head's predicted field has the kind its baked field has, and
    the bake yields one field per ``PARAM_KINDS`` entry, of that kind."""
    source = box_scene.voxel_center((2, 1, 5))
    baked = sp.bake_source(box_scene, source)
    assert {name: fv.kind for name, fv in baked.items()} == PARAM_KINDS
    bundle = sp.make_bundle(box_scene, group, training.DEFAULT_FAMILY[group], 3)
    predicted = sp.predict_fields(bundle, source)
    assert list(predicted) == list(GROUP_HEADS[group])
    assert {head: fv.kind for head, fv in predicted.items()} == {head: baked[head].kind for head in predicted}
