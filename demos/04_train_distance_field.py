"""Train the distance field on an occluded scene and compare decoders.

Runs two short trainings (a few hundred epochs) so the script finishes in
well under a minute; the full benchmark settings live in the test suite.
"""

import time

import soundprop as sp

scene = sp.build_scene(sp.SceneSpec(kind="wall-with-aperture", dims=(16, 4, 16)))
train_s, val_s, test_s = sp.make_splits(scene, seed=5)
print(f"sources: {len(train_s)} train / {len(val_s)} val / {len(test_s)} test")

train_ds = sp.build_dataset(scene, train_s, "train")
val_ds = sp.build_dataset(scene, val_s, "val")
test_ds = sp.build_dataset(scene, test_s, "test")

cfg = sp.TrainConfig(epochs=500, seed=0, eval_interval=50)
print(f"{'decoder':14s} {'n':>3s} {'test MAE (m)':>13s} {'time':>7s}")
for family, n in (("euclidean", 8), ("riemann-diag", 8)):
    t0 = time.perf_counter()
    bundle = sp.make_bundle(scene, "distance", family, n, seed=0)
    sp.train(bundle, train_ds, cfg, val_ds=val_ds)
    mae = sp.evaluate_mae(bundle, test_ds)["pi"]
    print(f"{family:14s} {n:3d} {mae:13.3f} {time.perf_counter() - t0:6.1f}s")

print("\nthe local-metric decoder bends around the wall that the plain")
print("Euclidean embedding cannot fold away; longer runs widen the gap")
