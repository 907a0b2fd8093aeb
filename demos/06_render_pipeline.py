"""End to end: train, query a pair, and render an impulse through the gains.

Writes the rendered multichannel impulse response next to this script.
"""

from pathlib import Path

import numpy as np

import soundprop as sp
from soundprop.fileio import write_ir
from soundprop.runtime import render_params

scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(8, 4, 8)))
train_s, val_s, _ = sp.make_splits(scene, seed=3)
train_ds = sp.build_dataset(scene, train_s, "train")
val_ds = sp.build_dataset(scene, val_s, "val")

cfg = sp.TrainConfig(epochs=300, seed=0, eval_interval=50)
bundles = {}
for group, family in (("distance", "euclidean"), ("levels", "euclidean"),
                      ("decays", "dot-product")):
    bundle = sp.make_bundle(scene, group, family, 4, seed=0)
    sp.train(bundle, train_ds, cfg, val_ds=val_ds)
    bundles[group] = bundle

a = scene.voxel_center((2, 1, 2))
b = scene.voxel_center((6, 2, 6))
params = sp.query_params(bundles, scene, a, b)
print("predicted parameters for", a, "->", b)
print(f"  pi     {params.pi:7.3f} m")
print(f"  l_ds   {params.l_ds:7.2f} dB   l_er {params.l_er:7.2f} dB   "
      f"l_lr {params.l_lr:7.2f} dB")
print(f"  tau_er {params.tau_er:7.3f} s    tau_lr {params.tau_lr:6.3f} s")
print(f"  doa    {np.round(params.doa, 3)}")

fs = 16000.0
refs = sp.default_reference_irs(sample_rate=fs, seed=0)
layout = sp.octahedral_layout()
rp = render_params(params, refs)
impulse = np.zeros(int(0.05 * fs))
impulse[0] = 1.0
out = sp.render_offline(impulse, rp, refs, layout)

print("\nper-speaker output energy:")
for s, energy in enumerate((out * out).sum(axis=1)):
    print(f"  speaker {s} ({np.round(layout.directions[s], 0)}): {energy:.4f}")

path = Path(__file__).parent / "rendered_impulse.ir"
write_ir(path, out, fs)
print("wrote", path.name, out.shape)
