"""sha256 digests of a gym-size precompute, for the Tier-1 digest gate.

Runs ``scene gen``, ``sources sample`` and a single-worker ``bake`` through
the CLI on one 59x8x59 cylinder forest and digests the scene file, the
sources file and the baked ``pi``, ``tau_er`` and ``tau_lr`` fields. The
level fields (``l_ds``, ``l_er``) go through ``log10``, whose last bit can
depend on the CPU's SIMD path, so ``test_precompute_digests_are_pinned``
checks them against ``oracles.loop_synth_fields`` instead.

Regenerate the committed digests, after an intended output change only,
with::

    PYTHONPATH=src python tests/precompute_digests.py

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

from soundprop.cli import main

DIGESTS = Path(__file__).with_name("precompute_digests.json")
SCENE = ["--kind", "cylinder-forest", "--dims", "59x8x59", "--seed", "11", "--n-cylinders", "12"]
SEED = "11"
DIGESTED_FIELDS = ("pi", "tau_er", "tau_lr")


def configuration() -> dict:
    """The numpy and BLAS builds the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_precompute(work: Path) -> Path:
    """The scene, sources and baked fields under ``work``; the field directory."""
    steps = (
        ["scene", "gen", *SCENE, "--out", work / "gym.scn"],
        ["sources", "sample", "--scene", work / "gym.scn", "--seed", SEED, "--out", work / "sources.txt"],
        ["bake", "--scene", work / "gym.scn", "--sources", work / "sources.txt",
         "--out-dir", work / "fields", "--workers", "1"],
    )
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            if main([str(a) for a in argv]) != 0:
                raise RuntimeError(f"{' '.join(map(str, argv))} failed")
    return work / "fields"


def digests(work: Path) -> dict:
    """sha256 of every digested file of a precompute run in ``work``."""
    fields = run_precompute(work)
    files = [work / "gym.scn", work / "sources.txt"]
    files += sorted(p for name in DIGESTED_FIELDS for p in fields.glob(f"src*_{name}.fld"))
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = dict(configuration(), files=digests(Path(tmp)))
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['files'])} digests to {DIGESTS}", file=sys.stderr)
