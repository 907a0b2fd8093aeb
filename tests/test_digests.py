"""The committed precompute, query, training, writer and evaluation digests
(``precompute_digests.py``, ``query_digests.py``, ``train_digests.py``,
``write_digests.py``, ``eval_digests.py``)."""

import json

import numpy as np

import soundprop as sp
from soundprop import fileio

from oracles import loop_synth_fields
import precompute_digests
from precompute_digests import DIGESTS, configuration, digests
import eval_digests
import query_digests
import train_digests
import write_digests


def _regenerate(module) -> str:
    """The command that rewrites a digest file, for the failure messages."""
    return (f"; after an intended change only, regenerate with "
            f"`PYTHONPATH=src python tests/{module.__name__}.py` and record it in CHANGES.md")


def test_precompute_digests_are_pinned(tmp_path):
    """A gym-size ``scene gen``, ``sources sample`` and ``bake`` write the
    committed bytes, and the baked level fields are the float32 of the
    region-loop oracle's."""
    record = json.loads(DIGESTS.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(record["files"])
    changed = sorted(name for name in got if got[name] != record["files"][name])
    assert not changed, (
        f"{len(changed)} files differ from the digests made with numpy {record['numpy']} and "
        f"{record['blas']} (running {configuration()}), first {changed[:3]}" + _regenerate(precompute_digests)
    )
    scene = fileio.read_scene(tmp_path / "gym.scn")[0]
    for pi_path in sorted((tmp_path / "fields").glob("src*_pi.fld")):
        source = fileio.read_field(pi_path).source
        want = loop_synth_fields(scene, source, sp.geodesic_field(scene, source))
        for name in ("l_ds", "l_er"):
            got_level = fileio.read_field(pi_path.with_name(pi_path.name.replace("_pi", f"_{name}")))
            assert np.array_equal(got_level.values, want[name].values.astype(np.float32), equal_nan=True)


def test_query_digests_are_pinned():
    """A seeded maze query stream and the stencils of one point set per
    scene kind give the committed bits."""
    record = json.loads(query_digests.DIGESTS.read_text())
    got = query_digests.digests()
    assert sorted(got) == sorted(record["digests"])
    changed = sorted(name for name in got if got[name] != record["digests"][name])
    assert not changed, (
        f"{len(changed)} digests differ from those made with numpy {record['numpy']} and "
        f"{record['blas']} (running {configuration()}): {changed}" + _regenerate(query_digests)
    )


def test_train_digests_are_pinned():
    """Short fixed-seed trainings of every group with its families, with
    stop-gradient on and off, give the committed parameters and losses."""
    record = json.loads(train_digests.DIGESTS.read_text())
    got = train_digests.digests()
    assert sorted(got) == sorted(record["digests"])
    changed = sorted(name for name in got if got[name] != record["digests"][name])
    assert not changed, (
        f"{len(changed)} digests differ from those made with numpy {record['numpy']} and "
        f"{record['blas']} (running {configuration()}): {changed}" + _regenerate(train_digests)
    )


def test_write_digests_are_pinned(tmp_path):
    """A CLI ``render`` and ``export-slice``, a scalar and a DOA field, a mono
    IR and one checkpoint per group (and an MLP) write the committed bytes."""
    record = json.loads(write_digests.DIGESTS.read_text())
    got = write_digests.digests(tmp_path)
    assert sorted(got) == sorted(record["files"])
    changed = sorted(name for name in got if got[name] != record["files"][name])
    assert not changed, (
        f"{len(changed)} files differ from the digests made with numpy {record['numpy']} and "
        f"{record['blas']} (running {configuration()}): {changed}" + _regenerate(write_digests)
    )


def test_eval_digests_are_pinned(tmp_path):
    """CLI trainings with validation fields and a log, and the ``eval`` of
    their checkpoints, write the committed CSVs and checkpoints."""
    record = json.loads(eval_digests.DIGESTS.read_text())
    got = eval_digests.digests(tmp_path)
    assert sorted(got) == sorted(record["files"])
    changed = sorted(name for name in got if got[name] != record["files"][name])
    assert not changed, (
        f"{len(changed)} files differ from the digests made with numpy {record['numpy']} and "
        f"{record['blas']} (running {configuration()}): {changed}" + _regenerate(eval_digests)
    )
