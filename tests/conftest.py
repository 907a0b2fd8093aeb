import numpy as np
import pytest
from hypothesis import settings

import soundprop as sp

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
    result = sp.train(bundle, train_ds, sp.TrainConfig(epochs=600, seed=0), val_ds=val_ds)
    bundle.restore(sp.select_best(result.checkpoints)["params"])
    return bundle


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
