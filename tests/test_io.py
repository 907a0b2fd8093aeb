import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soundprop as sp
from soundprop import fileio
from soundprop.errors import FormatError


def test_scene_round_trip(tmp_path, maze_scene):
    path = tmp_path / "maze.scn"
    fileio.write_scene(path, maze_scene, kind="maze", seed=7)
    loaded, meta = fileio.read_scene(path)
    assert loaded.dims == maze_scene.dims
    assert loaded.spacing == maze_scene.spacing
    assert np.array_equal(loaded.origin, maze_scene.origin)
    assert np.array_equal(loaded.occupancy, maze_scene.occupancy)
    assert np.array_equal(loaded.regions, maze_scene.regions)
    assert loaded.region_params == maze_scene.region_params
    assert meta == {"kind": "maze", "seed": 7}


def test_scene_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.scn"
    path.write_bytes(b"not a scene")
    with pytest.raises(FormatError):
        fileio.read_scene(path)


def test_field_round_trip_scalar(tmp_path, box_scene):
    src = box_scene.voxel_center((4, 2, 4))
    geo = sp.geodesic_field(box_scene, src)
    path = tmp_path / "pi.fld"
    fileio.write_field(path, geo)
    loaded = fileio.read_field(path)
    assert loaded.kind == "path-distance"
    assert loaded.dims == geo.dims
    assert np.array_equal(loaded.source, geo.source)
    expect = geo.values.astype("<f4").astype(float)
    assert np.array_equal(
        np.isfinite(loaded.values), np.isfinite(expect)
    )
    assert np.allclose(
        loaded.values[np.isfinite(expect)], expect[np.isfinite(expect)]
    )


def test_field_round_trip_doa(tmp_path, box_scene):
    src = box_scene.voxel_center((4, 2, 4))
    doa = sp.doa_field(box_scene, sp.geodesic_field(box_scene, src))
    path = tmp_path / "doa.fld"
    fileio.write_field(path, doa)
    loaded = fileio.read_field(path)
    assert loaded.kind == "doa"
    assert loaded.values.shape == doa.values.shape
    valid = doa.valid_mask()
    assert np.allclose(loaded.values[valid], doa.values[valid], atol=1e-6)


def test_ir_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    path = tmp_path / "x.ir"
    fileio.write_ir(path, x, 16000.0, t0=0.25)
    ir = fileio.read_ir_mono(path)
    assert ir.sample_rate == 16000.0
    assert ir.t0 == 0.25
    assert np.array_equal(ir.samples, x.astype("<f4").astype(float))


def test_ir_multichannel_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 200))
    path = tmp_path / "multi.ir"
    fileio.write_ir(path, x, 8000.0)
    samples, rate, t0 = fileio.read_ir(path)
    assert samples.shape == (4, 200)
    assert np.array_equal(samples, x.astype("<f4").astype(float))
    with pytest.raises(FormatError):
        fileio.read_ir_mono(path)


@pytest.mark.parametrize(
    "group,family,n",
    [
        ("distance", "euclidean", 4),
        ("distance", "riemann-psd", 3),
        ("distance", "riemann-diag", 5),
        ("distance", "mlp", 4),
        ("levels", "riemann-diag", 4),
        ("decays", "dot-product", 4),
    ],
)
def test_checkpoint_round_trip(tmp_path, box_scene, group, family, n):
    bundle = sp.make_bundle(box_scene, group, family, n, seed=3)
    # make the state distinctive
    for arr in bundle.trainable().values():
        arr += np.random.default_rng(5).normal(0, 0.1, size=arr.shape)
    path = tmp_path / "model.ckpt"
    fileio.save_checkpoint(path, bundle, extra={"note": 1})
    loaded = fileio.load_checkpoint(path, box_scene)
    assert loaded.group == group
    assert loaded.head.decoder.family == bundle.head.decoder.family
    ours = bundle.trainable()
    theirs = loaded.trainable()
    assert set(ours) == set(theirs)
    for name in ours:
        assert np.array_equal(theirs[name], ours[name].astype("<f4").astype(float))


def test_checkpoint_scene_mismatch(tmp_path, box_scene, maze_scene):
    bundle = sp.make_bundle(box_scene, "distance", "euclidean", 2, seed=0)
    path = tmp_path / "model.ckpt"
    fileio.save_checkpoint(path, bundle)
    with pytest.raises(FormatError):
        fileio.load_checkpoint(path, maze_scene)


def test_layout_round_trip(tmp_path):
    layout = sp.octahedral_layout()
    path = tmp_path / "speakers.spk"
    fileio.write_layout(path, layout)
    loaded = fileio.read_layout(path)
    assert np.allclose(loaded.directions, layout.directions)
    assert loaded.triples == layout.triples


def test_pgm_slice(tmp_path, box_scene):
    geo = sp.geodesic_field(box_scene, box_scene.voxel_center((4, 2, 4)))
    path = tmp_path / "slice.pgm"
    vmin, vmax = fileio.write_pgm_slice(path, geo, 2)
    data = path.read_bytes()
    assert data.startswith(b"P5\n8 8\n255\n")
    assert len(data) == len(b"P5\n8 8\n255\n") + 64
    assert vmin < vmax


def test_manifest_digests(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("hello\n")
    out = tmp_path / "out.txt"
    out.write_text("world\n")
    manifest = tmp_path / "run.manifest.json"
    fileio.write_manifest(
        manifest, command="demo", config={"x": 1}, inputs=[src], outputs=[out],
        version="0.1.0",
    )
    record = json.loads(manifest.read_text())
    assert record["command"] == "demo"
    assert record["inputs"][str(src)] == fileio.sha256_file(src)
    assert record["outputs"][str(out)] == fileio.sha256_file(out)


def test_write_csv(tmp_path):
    path = tmp_path / "rows.csv"
    fileio.write_csv(path, [{"a": 1, "b": "x"}, {"a": 2}], ["a", "b"])
    assert path.read_text() == "a,b\n1,x\n2,\n"


# ---------------------------------------------------------------------------
# Corrupted files: a valid object or FormatError, nothing else
# ---------------------------------------------------------------------------


def _corrupted(blob: bytes, header_len: int):
    """Truncations and one to three byte flips of ``blob``, half of them
    aimed at the first ``header_len`` bytes."""
    at = st.one_of(st.integers(0, header_len - 1), st.integers(0, len(blob) - 1))
    truncated = at.map(lambda k: blob[:k])

    def flip(edits):
        out = bytearray(blob)
        for k, mask in edits:
            out[k] ^= mask
        return bytes(out)

    flipped = st.lists(st.tuples(at, st.integers(1, 255)), min_size=1, max_size=3).map(flip)
    return st.one_of(truncated, flipped)


def _file_bytes(write, obj, **kwargs) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        write(path, obj, **kwargs)
        return path.read_bytes()


_ROOMS = sp.build_scene(sp.SceneSpec(kind="coupled-rooms", dims=(8, 3, 6), seed=1))
_BOX = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(4, 3, 5)))
SCENE_BLOB = _file_bytes(fileio.write_scene, _ROOMS, kind="coupled-rooms", seed=1)
FIELD_BLOB = _file_bytes(
    fileio.write_field, sp.doa_field(_BOX, sp.geodesic_field(_BOX, _BOX.voxel_center((2, 1, 2))))
)


@settings(max_examples=300)
@given(_corrupted(SCENE_BLOB, SCENE_BLOB.find(b"\n\n") + 2))
def test_read_scene_corrupted_is_scene_or_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "corrupted.scn"
    path.write_bytes(blob)
    try:
        scene, meta = fileio.read_scene(path)
    except FormatError:
        return
    assert isinstance(scene, sp.VoxelScene)
    assert scene.occupancy.shape == scene.dims == scene.regions.shape
    assert set(meta) == {"kind", "seed"}


@settings(max_examples=300)
@given(_corrupted(FIELD_BLOB, len(fileio.FIELD_MAGIC) + fileio._FIELD_HEADER.size))
def test_read_field_corrupted_is_field_or_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "corrupted.fld"
    path.write_bytes(blob)
    try:
        fv = fileio.read_field(path)
    except FormatError:
        return
    assert isinstance(fv, sp.FieldVolume)
    assert fv.values.shape == fv.dims + ((3,) if fv.kind == "doa" else ())
    assert fv.spacing > 0 and np.isfinite(fv.origin).all() and np.isfinite(fv.source).all()


@pytest.mark.parametrize(
    "header, error",
    [
        (b"dims=8x3x6", b"dims=8x3"),  # IndexError before
        (b"dims=8x3x6", b"dims=8x3x\xff"),  # UnicodeDecodeError
        (b"dims=8x3x6", b"dimz=8x3x6"),  # KeyError
        (b"seed=1", b"seed=x"),  # ValueError
        (b"dims=8x3x6", b"dims=8x1x6"),  # ConfigurationError
        (b"dims=8x3x6", b"dims=99999x99999x99999"),  # MemoryError before
    ],
)
def test_read_scene_malformed_header_is_format_error(tmp_path, header, error):
    assert header in SCENE_BLOB
    path = tmp_path / "bad.scn"
    path.write_bytes(SCENE_BLOB.replace(header, error, 1))
    with pytest.raises(FormatError):
        fileio.read_scene(path)


def test_read_field_rejects_bad_kind_and_size(tmp_path):
    path = tmp_path / "bad.fld"
    kind_at = len(fileio.FIELD_MAGIC) + 12
    for blob in (
        FIELD_BLOB[:kind_at] + bytes([200]) + FIELD_BLOB[kind_at + 1 :],  # IndexError before
        FIELD_BLOB[:kind_at + 1] + bytes([1]) + FIELD_BLOB[kind_at + 2 :],  # doa with one channel
        FIELD_BLOB[:40],  # struct.error before
        FIELD_BLOB + b"\0\0\0\0",
    ):
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            fileio.read_field(path)
