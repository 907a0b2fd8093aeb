"""Self-test: every output check passes clean outputs and rejects a corrupted one.

Runs one round of each workload at a small size, checks its outputs, then
corrupts one output at a time (on disk or in memory), checks again and
expects a failure naming the corruption. Prints one PASS/FAIL line per
case; exits 1 if any case fails. Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import struct

import numpy as np
import reference as ref
import workloads as W
from soundprop import fileio, training
from soundprop.scene import SceneSpec, build_scene

SMALL = {
    "precompute-gym": W.GymConfig(dims="14x4x14", n_cylinders=3, coverage_samples=100),
    "author-aperture": None,  # fixed size: fewer epochs leave levels near the untrained MAE
    "serve-maze": W.ServeConfig(dims=(12, 4, 12), train_sources=6, epochs=5, pairs=20,
                                centre_pairs=8, dry_s=0.05),
}


@contextlib.contextmanager
def patched(path, mutate):
    """Replace a file's bytes by ``mutate(bytes)`` for the duration."""
    original = path.read_bytes()
    path.write_bytes(mutate(original))
    try:
        yield
    finally:
        path.write_bytes(original)


def one_round(name, ws, seed=7):
    cls, _ = W.WORKLOADS[name]
    wl = cls(ws / name, seed, SMALL[name])
    wl.ws.mkdir(parents=True)
    wl.prepare()
    wl.setup()
    wl.phase = "round"
    wl.run_round()
    wl.n_rounds = 1
    return wl


class Report:
    def __init__(self):
        self.failed = 0

    def expect(self, label, failures, needle):
        hits = [f for f in failures if needle in f]
        ok = bool(hits) if needle else not failures
        self.failed += not ok
        detail = hits[0] if hits else ("; ".join(failures[:2]) or "no check failed")
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail if needle or not ok else 'all checks pass'}")


def _bump_float(blob, offset, delta):
    (v,) = struct.unpack_from("<f", blob, offset)
    return blob[:offset] + struct.pack("<f", v + delta) + blob[offset + 4 :]


def _finite_voxel(path):
    values, _, _ = ref.read_field(path)
    return tuple(np.argwhere(np.isfinite(values))[1]), values.shape


def _perturb_voxel(path):
    index, dims = _finite_voxel(path)
    offset = ref.field_value_offset(index, dims)
    return lambda blob: _bump_float(blob, offset, 0.01)


def _swap_channels(blob):
    sep = blob.index(b"\n\n") + 2
    channels = int(dict(l.split(b"=") for l in blob[:sep].split(b"\n")[1:] if b"=" in l)[b"channels"])
    data = np.frombuffer(blob, dtype="<f4", offset=sep).reshape(-1, channels).copy()
    data[:, [0, 1]] = data[:, [1, 0]]
    return blob[:sep] + data.tobytes()


def _wrong_digest(blob):
    record = json.loads(blob)
    path = sorted(record["outputs"])[0]
    record["outputs"][path] = "0" * 64
    return json.dumps(record).encode()


def gym_cases(rep, ws):
    wl = one_round("precompute-gym", ws)
    rep.expect("gym clean outputs", wl.check(), "")
    d = wl.round_dir(0)
    with patched(d / "fields" / "src000_pi.fld", _perturb_voxel(d / "fields" / "src000_pi.fld")):
        rep.expect("gym perturbed distance voxel", wl.check(), "baked pi")
    with patched(d / "fields" / "src001_l_ds.fld", _perturb_voxel(d / "fields" / "src001_l_ds.fld")):
        rep.expect("gym perturbed level voxel", wl.check(), "baked l_ds")
    lines = (d / "sources.txt").read_text().splitlines()
    with patched(d / "sources.txt", lambda b: "\n".join([lines[0]] + lines[:1] + lines[2:]).encode() + b"\n"):
        rep.expect("gym duplicated source", wl.check(), "not distinct")
    with patched(d / "sources.txt", lambda b: b"0.25 " + b.split(b" ", 1)[1]):
        rep.expect("gym off-centre source", wl.check(), "not exactly at a voxel centre")
    with patched(d / "fields" / "bake.manifest.json", _wrong_digest):
        rep.expect("gym wrong manifest digest", wl.check(), "manifest digest")
    # one source behind a sealed wall cannot see the other room
    sealed = build_scene(SceneSpec(kind="wall-with-aperture", dims=(10, 4, 10), geometry={"aperture": 0}))
    fileio.write_scene(ws / "sealed.scn", sealed)
    scene = ref.read_scene(ws / "sealed.scn")
    rep.expect("coverage from one side of a sealed wall",
               W.check_coverage(scene, np.array([[2.0, 1.0, 2.0]]), np.random.default_rng(0), 50),
               "seen from no source")


def aperture_cases(rep, ws):
    wl = one_round("author-aperture", ws)
    rep.expect("aperture clean outputs", wl.check(), "")
    d = wl.round_dir(0)
    with patched(d / "ftrain" / "bake.manifest.json", _wrong_digest):
        rep.expect("aperture wrong manifest digest", wl.check(), "manifest digest")
    with patched(d / "distance_mae.csv", lambda b: b.replace(b",pi,", b",pi,1")):
        rep.expect("aperture wrong eval CSV", wl.check(), "eval CSV")
    scene, _ = fileio.read_scene(d / "ap.scn")
    untrained = d / "untrained.ckpt"
    fileio.save_checkpoint(untrained, training.make_bundle(scene, "distance", "riemann-diag", W.N_LATENT, seed=wl.seed))
    with patched(d / "distance.ckpt", lambda b: untrained.read_bytes()):
        rep.expect("aperture untrained distance checkpoint", wl.check(), "not below")
    header, params = ref.read_checkpoint(d / "decays.ckpt")
    params = dict(params, grid=params["grid"] * 1e3)
    rep.expect("aperture saturated decay predictions",
               W.check_decay_range(ref.read_scene(d / "ap.scn"), header, params,
                                   ref.read_points(d / "splits" / "sources_test.txt")),
               "outside (0,")
    with patched(d / "render.ir", _swap_channels):
        rep.expect("aperture swapped render channels", wl.check(), "render:")
    with patched(d / "query.json", lambda b: json.dumps(dict(json.loads(b), doa=[1.0, 0.01, 0.0])).encode()):
        rep.expect("aperture non-unit query DOA", wl.check(), "DOA")


def maze_cases(rep, ws):
    wl = one_round("serve-maze", ws)
    rep.expect("maze clean outputs", wl.check(), "")
    values, doas = wl.results[0]
    saved = values.copy(), doas.copy()
    values[1, 3, 0] = np.nextafter(values[1, 3, 0], np.inf)
    rep.expect("maze one-ulp reciprocity break", wl.check(), "reciprocity")
    np.copyto(values, saved[0])
    doas[0, 2] *= 1.001
    rep.expect("maze non-unit DOA", wl.check(), "DOA")
    np.copyto(doas, saved[1])
    grid = wl.state[1]["distance"].grid.values
    a = ref.read_scene(wl.scn).index_of(wl.centres[0][:1])[0]
    grid[tuple(a)] += 0.01
    rep.expect("maze perturbed latent behind a voxel-centre query", wl.check(), "voxel centre query")
    grid[tuple(a)] -= 0.01
    first = wl.renders[0]
    wl.renders[0] = first[[1, 0, 2, 3, 4, 5]]
    rep.expect("maze swapped render channels", wl.check(), "render:")
    wl.renders[0] = first
    layout = W.runtime.octahedral_layout()
    doa = np.array([0.6, 0.8, 0.0])
    gains = W.runtime.vbap_gains(doa, layout)
    rep.expect("VBAP gains scaled by 1.1", ref.vbap_failures(1.1 * gains, layout.directions, layout.triples, doa), "power")
    rep.expect("VBAP gains pointing elsewhere",
               ref.vbap_failures(gains[[2, 3, 0, 1, 4, 5]], layout.directions, layout.triples, doa), "direction")


def main(work_root) -> int:
    ws = work_root / "self-test"
    shutil.rmtree(ws, ignore_errors=True)
    ws.mkdir(parents=True)
    rep = Report()
    try:
        gym_cases(rep, ws)
        aperture_cases(rep, ws)
        maze_cases(rep, ws)
    finally:
        shutil.rmtree(ws, ignore_errors=True)
    print(f"self-test: {'all cases pass' if not rep.failed else f'{rep.failed} case(s) failed'}")
    return 1 if rep.failed else 0

