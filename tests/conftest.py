import numpy as np
import pytest
from hypothesis import settings

import soundprop as sp

# Every group with every family it trains.
TRAIN_CASES = (
    [("distance", f) for f in ("euclidean", "riemann-psd", "riemann-diag", "mlp")]
    + [("levels", f) for f in ("euclidean", "riemann-psd", "riemann-diag", "mlp", "dot-product")]
    + [("decays", f) for f in ("dot-product", "mlp")]
)

# Property and fuzz tests draw the same examples on every run and have no
# per-example deadline, so a slow machine cannot fail them on timing.
settings.register_profile("soundprop", derandomize=True, deadline=None)
settings.load_profile("soundprop")


@pytest.fixture(scope="session")
def box_scene():
    return sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(8, 4, 8)))


@pytest.fixture(scope="session")
def aperture_scene():
    return sp.build_scene(sp.SceneSpec(kind="wall-with-aperture", dims=(16, 4, 16)))


@pytest.fixture(scope="session")
def maze_scene():
    return sp.build_scene(sp.SceneSpec(kind="maze", dims=(32, 4, 32), seed=7))


@pytest.fixture(scope="session")
def box_datasets(box_scene):
    train_s, val_s, test_s = sp.make_splits(box_scene, seed=3)
    return (
        sp.build_dataset(box_scene, train_s, "train"),
        sp.build_dataset(box_scene, val_s, "val"),
        sp.build_dataset(box_scene, test_s, "test"),
    )


@pytest.fixture(scope="session")
def trained_box_euclid4(box_scene, box_datasets):
    """Euclidean n=4 distance model trained on the small empty box."""
    train_ds, val_ds, _ = box_datasets
    bundle = sp.make_bundle(box_scene, "distance", "euclidean", 4, seed=0)
    sp.train(bundle, train_ds, sp.TrainConfig(epochs=600, seed=0), val_ds=val_ds)
    return bundle


@pytest.fixture(scope="session")
def selection_run(box_scene):
    """Three training and two validation sources on the small box, and a
    config under which a riemann-diag n=4 distance model (seed 0) scores
    its lowest validation MAE at the second of six evals, epoch 4."""
    train_ds = sp.build_dataset(box_scene, [box_scene.voxel_center(i) for i in ((2, 1, 2), (5, 2, 5), (3, 2, 5))])
    val_ds = sp.build_dataset(box_scene, [box_scene.voxel_center(i) for i in ((6, 1, 2), (1, 2, 6))], "val")
    cfg = sp.TrainConfig(epochs=12, eval_interval=2, lr_decoder=0.05, lr_grid=0.05, seed=0)
    return train_ds, val_ds, cfg


def random_free_position(scene, rng):
    """Uniform random point inside a random free voxel."""
    free = scene.free_indices()
    idx = free[rng.integers(len(free))]
    center = scene.voxel_center(idx)
    return center + rng.uniform(-0.49, 0.49, size=3) * scene.spacing


def latent_at(grid, scene, p):
    """Latent of ``grid`` at ``p``: a one-point ``interp_points`` call that
    raises for a point that does not resolve."""
    p = np.asarray(p, dtype=float)
    batch = sp.interp_points(scene, p[None])
    batch.check(0, p)
    return batch.sample(grid.values)[0]
