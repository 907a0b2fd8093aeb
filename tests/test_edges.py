"""Edge behaviors: unreachable regions, divergence recovery, tiny scenes."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soundprop as sp
from soundprop import fileio
from soundprop.errors import DivergenceError, FormatError, InputError


@pytest.fixture(scope="module")
def sealed_scene():
    return sp.build_scene(
        sp.SceneSpec(kind="wall-with-aperture", dims=(12, 4, 12),
                     geometry={"aperture": 0})
    )


def test_sealed_wall_makes_far_side_unreachable(sealed_scene):
    mid = sealed_scene.dims[0] // 2
    src = sealed_scene.voxel_center((2, 2, 2))
    geo = sp.geodesic_field(sealed_scene, src)
    near = geo.values[:mid]
    far = geo.values[mid + 1 :]
    free = sealed_scene.free_mask()
    assert np.all(np.isfinite(near[free[:mid]]))
    assert np.all(np.isnan(far[free[mid + 1 :]]))


def test_training_skips_unreachable_receivers(sealed_scene):
    src = sealed_scene.voxel_center((2, 2, 2))
    ds = sp.build_dataset(sealed_scene, [src])
    bundle = sp.make_bundle(sealed_scene, "distance", "euclidean", 3, seed=0)
    mid = sealed_scene.dims[0] // 2
    far_before = bundle.grid.values[mid + 1 :].copy()
    result = sp.train(bundle, ds, sp.TrainConfig(epochs=30, eval_interval=0, seed=0))
    assert np.isfinite(result.history[-1][2])
    # far-side latents never received gradient (their truth is a sentinel)
    assert np.array_equal(bundle.grid.values[mid + 1 :], far_before)


def test_synth_fields_on_partially_unreachable_scene(sealed_scene):
    src = sealed_scene.voxel_center((2, 2, 2))
    fields = sp.bake_source(sealed_scene, src)
    mid = sealed_scene.dims[0] // 2
    free_far = sealed_scene.free_mask()[mid + 1 :]
    for name in ("l_ds", "l_er", "tau_er", "tau_lr"):
        assert np.all(np.isnan(fields[name].values[mid + 1 :][free_far]))


def test_sample_sources_fewer_free_than_initial_batch():
    occ = np.ones((4, 4, 4), bool)
    occ[1, 1, 1] = occ[1, 1, 2] = occ[2, 1, 1] = False
    scene = sp.VoxelScene(dims=(4, 4, 4), spacing=1.0, origin=np.zeros(3), occupancy=occ)
    sources = sp.sample_sources(scene, seed=0)
    assert len(sources) == 3  # one per free voxel at most, all covered


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_and_rolls_back(box_scene, selection_run):
    sources = [box_scene.voxel_center((2, 1, 2)), box_scene.voxel_center((5, 2, 5))]
    ds = sp.build_dataset(box_scene, sources)
    bundle = sp.make_bundle(box_scene, "distance", "euclidean", 3, seed=0)
    sp.train(bundle, ds, sp.TrainConfig(epochs=10, eval_interval=5, seed=0))
    bundle.grid.values[3, 2, 3, 0] = np.inf  # corrupt the state in place
    entry = bundle.snapshot()
    with pytest.raises(DivergenceError) as exc:
        sp.train(bundle, ds, sp.TrainConfig(epochs=5, eval_interval=0, seed=0))
    # a clean error instead of NaN propagation, carrying the retained
    # snapshot; with no finite checkpoint inside the failed run, that is
    # the state the run started from
    assert exc.value.last_good is not None
    for name, arr in bundle.trainable().items():
        assert np.array_equal(arr, entry[name], equal_nan=True)

    # After scored evals it rolls back to the best eval so far, epoch 4,
    # not to the latest: a NaN decoder weight set at the epoch-10 eval
    # makes epoch 11 diverge.
    train_ds, val_ds, cfg = selection_run
    bundle = sp.make_bundle(box_scene, "distance", "riemann-diag", 4, seed=0)
    snapshots = {}

    def poison_at_10(epoch):
        snapshots[epoch] = bundle.snapshot()
        if epoch == 10:
            next(iter(bundle.head.trainable().values())).flat[0] = np.nan

    with pytest.raises(DivergenceError, match="epoch 11") as exc:
        sp.train(bundle, train_ds, cfg, val_ds=val_ds, on_eval=poison_at_10)
    for name, arr in bundle.trainable().items():
        assert np.array_equal(arr, snapshots[4][name]), name
        assert np.array_equal(exc.value.last_good[name], arr), name
    assert not np.array_equal(bundle.grid.values, snapshots[10]["grid"])


@pytest.mark.parametrize("group,family", [("distance", "euclidean"), ("levels", "riemann-diag"), ("decays", "mlp")])
def test_divergence_raises_before_numpy_warns(group, family):
    """At learning rates of 1e200 the second epoch's forward overflows: the
    run raises ``DivergenceError`` on that block's loss, with warnings as
    errors, so no backward ran on it, and the bundle holds its entry state."""
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(6, 3, 6)))
    ds = sp.build_dataset(scene, [scene.voxel_center(i) for i in ((1, 1, 1), (4, 1, 4), (2, 1, 3))])
    bundle = sp.make_bundle(scene, group, family, 4, seed=0)
    entry = bundle.snapshot()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="epoch 2"):
            sp.train(bundle, ds, sp.TrainConfig(epochs=5, eval_interval=0, lr_decoder=1e200, lr_grid=1e200))
    for name, arr in bundle.trainable().items():
        assert np.array_equal(arr, entry[name]), name


@pytest.mark.parametrize("group,family", [
    ("decays", "dot-product"), ("distance", "euclidean"), ("levels", "riemann-diag"), ("decays", "mlp"),
])
def test_divergence_with_a_finite_loss_raises(group, family):
    """At one source per batch and learning rates of 1e200 the first steps
    blow the parameters up. A dot product's sigmoid saturates on inf
    latents, so its loss stays finite while a step leaves NaN parameters:
    every family raises ``DivergenceError`` at epoch 1, with warnings as
    errors, and the bundle holds its entry state."""
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(6, 3, 6)))
    ds = sp.build_dataset(scene, [scene.voxel_center(i) for i in ((1, 1, 1), (4, 1, 4), (2, 1, 3))])
    bundle = sp.make_bundle(scene, group, family, 4, seed=0)
    entry = bundle.snapshot()
    cfg = sp.TrainConfig(epochs=5, batch_sources=1, eval_interval=0, lr_decoder=1e200, lr_grid=1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="epoch 1$"):
            sp.train(bundle, ds, cfg)
    for name, arr in bundle.trainable().items():
        assert np.array_equal(arr, entry[name]), name


def test_field_file_truncation_detected(tmp_path, box_scene):
    geo = sp.geodesic_field(box_scene, box_scene.voxel_center((4, 2, 4)))
    path = tmp_path / "pi.fld"
    fileio.write_field(path, geo)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        fileio.read_field(path)


def test_pgm_export_rejects_direction_fields(tmp_path, box_scene):
    doa = sp.doa_field(box_scene, sp.geodesic_field(box_scene, box_scene.voxel_center((4, 2, 4))))
    with pytest.raises(FormatError):
        fileio.write_pgm_slice(tmp_path / "bad.pgm", doa, 2)


def test_interp_grid_scene_mismatch(box_scene, maze_scene):
    bundle = sp.make_bundle(box_scene, "distance", "euclidean", 3, seed=0)
    with pytest.raises(InputError):
        mismatched = sp.ModelBundle(group=bundle.group, grid=sp.init_latent_grid(maze_scene, 3, seed=0),
                                    head=bundle.head, scene=box_scene)
        sp.predict_fields(mismatched, box_scene.voxel_center((4, 2, 4)))


def test_geodesic_matches_scipy_in_maze(maze_scene):
    """Cross-check the hardest geometry against the independent oracle."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

    free = maze_scene.free_indices()
    index_of = {tuple(v): i for i, v in enumerate(map(tuple, free))}
    rows, cols, weights = [], [], []
    offs = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)
            if (a, b, c) != (0, 0, 0)]
    for i, cell in enumerate(map(tuple, free)):
        for off in offs:
            nb = (cell[0] + off[0], cell[1] + off[1], cell[2] + off[2])
            j = index_of.get(nb)
            if j is not None:
                rows.append(i)
                cols.append(j)
                weights.append(np.sqrt(off[0] ** 2 + off[1] ** 2 + off[2] ** 2))
    graph = coo_matrix((weights, (rows, cols)), shape=(len(free), len(free)))
    src_idx = tuple(free[len(free) // 2])
    dist = scipy_dijkstra(graph, indices=index_of[src_idx])
    geo = sp.geodesic_field(maze_scene, maze_scene.voxel_center(src_idx))
    ours = geo.values[free[:, 0], free[:, 1], free[:, 2]]
    assert np.allclose(ours, dist, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.01, 3.0),
    st.floats(0.02, 0.5),
    st.floats(0.05, 1.0),
)
def test_wet_weights_properties_hypothesis(tau, gap1, gap2):
    refs = (0.1, 0.1 + gap1, 0.1 + gap1 + gap2)
    w = sp.wet_weights(tau, refs)
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(w) <= 2
    # reconstruction: inside the knots the blended decay matches tau
    if refs[0] <= tau <= refs[2]:
        assert float(w @ np.asarray(refs)) == pytest.approx(tau, abs=1e-9)
