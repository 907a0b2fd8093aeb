"""sha256 digests of a query stream and of interpolation stencils, for the
Tier-1 digest gate.

Runs ``query_params`` on 400 off-centre pairs of a seeded 32x4x32 maze, in
both orders, with seeded untrained bundles (``riemann-diag`` distance and
levels, ``dot-product`` decays), and digests each predicted parameter and
the direction of arrival. It also digests the ``InterpBatch`` arrays of
``interp_points`` on one fixed point set per scene kind, with and without
a value mask. Nothing here trains, so it runs in a few seconds.

Regenerate the committed digests, after an intended output change only,
with::

    PYTHONPATH=src python tests/query_digests.py

and record the regeneration and its reason in ``CHANGES.md``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import soundprop as sp
from soundprop.scene import SCENE_KINDS

from precompute_digests import configuration

DIGESTS = Path(__file__).with_name("query_digests.json")
MAZE = sp.SceneSpec(kind="maze", dims=(32, 4, 32), seed=19)
FAMILIES = {"distance": "riemann-diag", "levels": "riemann-diag", "decays": "dot-product"}
PAIRS = 400
OUTPUTS = ("pi", "l_ds", "l_er", "tau_er", "tau_lr")


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def off_centre_pairs(scene, count, seed) -> np.ndarray:
    """``(count, 2, 3)`` points jittered by up to 0.4 spacing off the centres
    of free-voxel pairs that are neither equal nor adjacent."""
    rng = np.random.default_rng(seed)
    free = scene.free_indices()
    pairs = []
    while len(pairs) < count:
        i, j = rng.integers(len(free), size=2)
        if np.max(np.abs(free[i] - free[j])) >= 2:
            pairs.append([free[i], free[j]])
    jitter = rng.uniform(-0.4, 0.4, size=(count, 2, 3))
    return scene.origin + (np.array(pairs, dtype=float) + jitter) * scene.spacing


def query_digests() -> dict:
    """sha256 of each output of the query stream, both orders in turn."""
    scene = sp.build_scene(MAZE)
    bundles = {g: sp.make_bundle(scene, g, f, 8, seed=5) for g, f in FAMILIES.items()}
    pairs = off_centre_pairs(scene, PAIRS, seed=23)
    values = np.full((2, PAIRS, len(OUTPUTS)), np.nan)
    doas = np.full((2, PAIRS, 3), np.nan)
    for order in (0, 1):
        for i, (a, b) in enumerate(pairs[:, ::-1] if order else pairs):
            q = sp.query_params(bundles, scene, a, b)
            values[order, i] = [getattr(q, name) for name in OUTPUTS]
            doas[order, i] = q.doa
    out = {f"query/{name}": _sha(values[..., k]) for k, name in enumerate(OUTPUTS)}
    out["query/doa"] = _sha(doas)
    return out


def stencil_points(scene, rng) -> np.ndarray:
    """Uniform points over the bounding box and a margin around it, plus
    points on the quarter- and half-grid of the voxel centres."""
    lo, hi = scene._lo, scene._hi
    pad = 0.05 * (hi - lo)
    uniform = rng.uniform(lo - pad, hi + pad, size=(600, 3))
    grid = rng.integers(0, 4 * np.array(scene.dims) - 3, size=(600, 3)) / 4.0
    return np.vstack([uniform, scene.origin + grid * scene.spacing])


def interp_digests() -> dict:
    """sha256 of the corners, weights and status of one point set per scene
    kind, without and with a seeded value mask."""
    out = {}
    for k, kind in enumerate(SCENE_KINDS):
        scene = sp.build_scene(sp.SceneSpec(kind=kind, dims=(12, 5, 13), spacing=0.37,
                                            origin=(-3.1, 2.2, 0.7), seed=k))
        rng = np.random.default_rng(31 + k)
        points = stencil_points(scene, rng)
        mask = rng.random(scene.dims) < 0.8
        for name, m in (("all", None), ("masked", mask)):
            batch = sp.interp_points(scene, points, m)
            out[f"interp/{kind}/{name}"] = _sha(batch.corners, batch.weights, batch.status)
    return out


def digests() -> dict:
    return {**query_digests(), **interp_digests()}


if __name__ == "__main__":
    record = dict(configuration(), digests=digests())
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {DIGESTS}", file=sys.stderr)
