"""sha256 digests of CLI trainings with validation and of their evaluation,
for the Tier-1 digest gate.

Runs ``scene gen``, ``sources sample --splits`` and ``bake`` (train,
validation and test fields) through the CLI on one seeded 10x4x10
wall-with-aperture scene, then per case below a ``train`` with
``--val-fields``, ``--log`` and ``--dump-checkpoints`` that evaluates the
validation MAE every two epochs and keeps the best checkpoint, and an
``eval`` of that checkpoint on the test fields. It digests each
training's log CSV (the ``val_mae`` column at every eval interval), its
checkpoint, the checkpoint it dumped at each eval and its ``eval`` CSV.
It runs in a few seconds.

Regenerate the committed digests, after an intended output change only,
with::

    PYTHONPATH=src python tests/eval_digests.py

and record the regeneration and its reason in ``CHANGES.md``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from precompute_digests import configuration
from write_digests import _cli

DIGESTS = Path(__file__).with_name("eval_digests.json")
SCENE = ["--kind", "wall-with-aperture", "--dims", "10x4x10", "--seed", "5"]
CASES = {  # case name: group, family
    "distance": ("distance", "euclidean"),
    "levels": ("levels", "riemann-diag"),
    "decays": ("decays", "dot-product"),
    "decays-mlp": ("decays", "mlp"),
}
TRAIN = ["--n", "4", "--epochs", "6", "--eval-interval", "2", "--batch-sources", "3", "--seed", "7"]


def write_files(work: Path) -> list:
    """Every digested file, written under ``work``."""
    _cli("scene", "gen", *SCENE, "--out", work / "room.scn")
    _cli("sources", "sample", "--scene", work / "room.scn", "--seed", "3", "--splits", "0.6,0.2,0.2",
         "--runs", "1", "--out", work / "sources")
    for split in ("train", "val", "test"):
        _cli("bake", "--scene", work / "room.scn", "--sources", work / "sources" / f"sources_{split}.txt",
             "--out-dir", work / f"f{split}")
    names = []
    for name, (group, family) in CASES.items():
        _cli("train", "--scene", work / "room.scn", "--train-fields", work / "ftrain",
             "--val-fields", work / "fval", "--group", group, "--family", family, *TRAIN,
             "--out", work / f"{name}.ckpt", "--log", work / f"{name}-log.csv",
             "--dump-checkpoints", work / f"{name}-dump")
        _cli("eval", "--scene", work / "room.scn", "--checkpoint", work / f"{name}.ckpt",
             "--fields", work / "ftest", "--out", work / f"{name}-eval.csv")
        names += [f"{name}-log.csv", f"{name}.ckpt", f"{name}-eval.csv"]
        names += sorted(p.relative_to(work).as_posix() for p in (work / f"{name}-dump").iterdir())
    return names


def digests(work: Path) -> dict:
    """sha256 of every digested file written in ``work``."""
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in write_files(work)}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = dict(configuration(), files=digests(Path(tmp)))
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['files'])} digests to {DIGESTS}", file=sys.stderr)
