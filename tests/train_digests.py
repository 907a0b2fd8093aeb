"""sha256 digests of short fixed-seed trainings, for the Tier-1 digest gate.

Trains one bundle per case below on a sealed 8x4x8 coupled-rooms scene,
with the gradient stopped at the source as ``train`` always does, and
digests the trained parameters and the epoch losses (keys end in
``/stop``). The rooms do not see each other, so the
sources of the two rooms have different receiver sets and a batch holds
one or two of them; two of the five sources sit off voxel centres, so
their latents are interpolated. Each training takes a few milliseconds.

Regenerate the committed digests, after an intended change of trained
bits only, with::

    PYTHONPATH=src python tests/train_digests.py

and record the regeneration, the entries it moved and its reason in
``CHANGES.md``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import soundprop as sp

from precompute_digests import configuration

DIGESTS = Path(__file__).with_name("train_digests.json")
SCENE = sp.SceneSpec(kind="coupled-rooms", dims=(8, 4, 8), geometry={"door": 0})
CASES = (
    [("distance", f) for f in ("euclidean", "riemann-diag", "riemann-psd", "mlp")]
    + [("levels", f) for f in ("riemann-diag", "mlp")]
    + [("decays", f) for f in ("dot-product", "mlp")]
)
CONFIG = dict(epochs=6, batch_sources=3, eval_interval=0, seed=7)


def dataset(scene) -> sp.Dataset:
    """Three sources in the first room and two in the second, one of each
    pair off its voxel centre."""
    offset = np.array([0.3, 0.2, -0.35]) * scene.spacing
    sources = [scene.voxel_center(i) for i in ((1, 1, 2), (2, 2, 5), (6, 1, 3))]
    sources += [scene.voxel_center(i) + offset for i in ((2, 1, 4), (6, 2, 5))]
    return sp.build_dataset(scene, sources)


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digests() -> dict:
    """sha256 of the trained parameters (by name) and of the epoch losses
    of every case."""
    scene = sp.build_scene(SCENE)
    ds = dataset(scene)
    out = {}
    for group, family in CASES:
        bundle = sp.make_bundle(scene, group, family, 4, seed=3)
        history = sp.train(bundle, ds, sp.TrainConfig(**CONFIG)).history
        key = f"{group}/{family}/stop"
        params = bundle.trainable()
        out[f"{key}/params"] = _sha(params[name] for name in sorted(params))
        out[f"{key}/losses"] = _sha([np.array([loss for _, _, loss, _ in history])])
    return out


if __name__ == "__main__":
    record = dict(configuration(), digests=digests())
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {DIGESTS}", file=sys.stderr)
