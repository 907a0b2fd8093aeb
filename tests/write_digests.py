"""sha256 digests of the files the array writers make, for the Tier-1 digest gate.

On one seeded 16x4x16 wall-with-aperture scene this writes a path-distance
field and its DOA field (``write_field``), a mono dry input
(``write_ir``), one seeded untrained checkpoint per group plus a levels
MLP with its ``hidden`` and ``k`` header (``save_checkpoint``), and runs a
CLI ``render`` of the dry input (a six-channel ``.ir`` of more than 2^18
samples) and a CLI ``export-slice`` of the distance field (``.pgm``). It
digests every file it writes but the manifests, whose paths name the
working directory. It runs in about a second.

Regenerate the committed digests, after an intended output change only,
with::

    PYTHONPATH=src python tests/write_digests.py

and record the regeneration and its reason in ``CHANGES.md``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import soundprop as sp
from soundprop import fileio
from soundprop.cli import main

from precompute_digests import configuration

DIGESTS = Path(__file__).with_name("write_digests.json")
SCENE = sp.SceneSpec(kind="wall-with-aperture", dims=(16, 4, 16), seed=5)
SOURCE = (3, 1, 5)
RATE = 8000.0
DRY_SAMPLES = 4001
BUNDLES = {  # checkpoint name: group, family, MLP hidden widths
    "distance": ("distance", "riemann-diag", None),
    "levels": ("levels", "riemann-diag", None),
    "decays": ("decays", "dot-product", None),
    "levels-mlp": ("levels", "mlp", (6, 5)),
}


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if main([str(a) for a in argv]) != 0:
            raise RuntimeError(f"{' '.join(map(str, argv))} failed")


def write_files(work: Path) -> list:
    """Every digested file, written under ``work``."""
    scene = sp.build_scene(SCENE)
    geo = sp.geodesic_field(scene, scene.voxel_center(SOURCE))
    fileio.write_field(work / "pi.fld", geo)
    fileio.write_field(work / "doa.fld", sp.doa_field(scene, geo))
    dry = 0.1 * np.random.default_rng(17).standard_normal(DRY_SAMPLES)
    fileio.write_ir(work / "dry.ir", dry, RATE, t0=0.25)
    for name, (group, family, hidden) in BUNDLES.items():
        bundle = sp.make_bundle(scene, group, family, 4, seed=9, hidden=hidden)
        fileio.save_checkpoint(work / f"{name}.ckpt", bundle, extra={"epochs": 0, "seed": 9})
    _cli("render", "--input", work / "dry.ir", "--l-ds=-6.5", "--l-er=-11.25", "--tau-er=0.35",
         "--tau-lr=1.1", "--doa=0.6,0.0,0.8", "--out", work / "render.ir")
    _cli("export-slice", "--field", work / "pi.fld", "--y-index", "1", "--out", work / "slice.pgm")
    return ["pi.fld", "doa.fld", "dry.ir", *(f"{name}.ckpt" for name in BUNDLES),
            "render.ir", "slice.pgm"]


def digests(work: Path) -> dict:
    """sha256 of every digested file written in ``work``."""
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in write_files(work)}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = dict(configuration(), files=digests(Path(tmp)))
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['files'])} digests to {DIGESTS}", file=sys.stderr)
