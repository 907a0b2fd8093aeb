import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soundprop as sp
from soundprop import fileio
from soundprop.errors import FormatError, InputError

from oracles import (
    one_shot_save_checkpoint, one_shot_write_field, one_shot_write_ir, transient_bytes, write_layout,
)


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


# ---------------------------------------------------------------------------
# Streamed writers: the bytes of the one-shot writers, without their copies
# ---------------------------------------------------------------------------

_B = fileio._BLOCK


def _same_bytes(tmp_path, write, reference, obj, **kwargs):
    write(tmp_path / "streamed", obj, **kwargs)
    reference(tmp_path / "one-shot", obj, **kwargs)
    assert (tmp_path / "streamed").read_bytes() == (tmp_path / "one-shot").read_bytes()


@pytest.mark.parametrize("shape", [(_B + 3,), (1, 7), (6, _B - 1), (6, _B), (6, _B + 1),
                                   (2, 2 * _B + 1)])
def test_write_ir_matches_one_shot_writer(tmp_path, shape):
    x = np.random.default_rng(len(shape) + shape[-1]).normal(0.0, 0.3, size=shape)
    x.flat[::997] = 1e-40  # a float32 subnormal
    x.flat[1::997] = -1e-46  # underflows to float32 -0.0
    _same_bytes(tmp_path, fileio.write_ir, one_shot_write_ir, x, sample_rate=16000.0, t0=0.125)


def test_write_ir_matches_one_shot_writer_on_views_and_lists(tmp_path):
    x = np.random.default_rng(2).normal(size=(12, 5000))
    for samples in (x[::2, ::3], np.asfortranarray(x), x[3], x[3].tolist(), x.astype(np.float32)):
        _same_bytes(tmp_path, fileio.write_ir, one_shot_write_ir, samples, sample_rate=8000.0)


def _field(kind, dims, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 50.0, size=dims + ((3,) if kind == "doa" else ()))
    values[rng.random(dims) < 0.2] = np.nan
    return sp.FieldVolume(source=rng.normal(size=3), kind=kind, values=values, spacing=0.5,
                          origin=rng.normal(size=3))


def test_write_field_matches_one_shot_writer(tmp_path, box_scene):
    geo = sp.geodesic_field(box_scene, box_scene.voxel_center((4, 2, 4)))
    big_doa = _field("doa", (64, 8, 64), 1)  # 3 x 32768 values, across the block boundary
    fortran = sp.FieldVolume(source=geo.source, kind="level", values=np.asfortranarray(geo.values),
                             spacing=geo.spacing, origin=geo.origin)
    for fv in (geo, sp.doa_field(box_scene, geo), _field("decay-time", (5, 3, 7), 2), big_doa, fortran):
        _same_bytes(tmp_path, fileio.write_field, one_shot_write_field, fv)


@pytest.mark.parametrize(
    "group,family,kwargs",
    [
        ("distance", "euclidean", {}),
        ("distance", "riemann-diag", {}),
        ("distance", "mlp", {}),
        ("levels", "riemann-psd", {}),
        ("levels", "mlp", {"hidden": (7, 3)}),
        ("decays", "dot-product", {}),
        ("decays", "mlp", {"hidden": (4,)}),
    ],
)
def test_save_checkpoint_matches_one_shot_writer(tmp_path, box_scene, group, family, kwargs):
    bundle = sp.make_bundle(box_scene, group, family, 5, seed=8, **kwargs)
    _same_bytes(tmp_path, fileio.save_checkpoint, one_shot_save_checkpoint, bundle,
                extra={"epoch": 3, "seed": 8})


@pytest.mark.parametrize(
    "samples",
    [np.zeros(0), np.zeros((0, 5)), np.zeros((3, 0)), np.zeros((2, 3, 4)), np.float64(1.0),
     np.array([0.0, np.nan]), np.array([[0.0, 1.0], [-np.inf, 0.0]]), np.array([1.0, 3.5e38])],
    ids=["empty", "no-channels", "no-frames", "3-d", "0-d", "nan", "inf", "float32-overflow"],
)
def test_write_ir_rejects_what_read_ir_rejects(tmp_path, samples):
    path = tmp_path / "x.ir"
    with pytest.raises(InputError):
        fileio.write_ir(path, samples, 8000.0)
    assert not path.exists()


def test_write_ir_holds_no_copy_of_a_render(tmp_path):
    """A (6, 94 399) float64 render (4.5 MB) is written with under 1 MB of
    transient memory; the one-shot writer took 9.1 MB."""
    out = np.random.default_rng(0).normal(size=(6, 94_399))
    assert transient_bytes(lambda: fileio.write_ir(tmp_path / "r.ir", out, 16000.0)) < 1_000_000


def test_save_checkpoint_holds_no_copy_of_its_payload(tmp_path):
    """A gym-size (59x8x59, n=16) levels checkpoint, 1.78 MB of float32
    payload, is saved with under 1 MB of transient memory; the one-shot
    writer took 5.35 MB."""
    scene = sp.build_scene(sp.SceneSpec(kind="cylinder-forest", dims=(59, 8, 59), seed=11,
                                        geometry={"n_cylinders": 12}))
    bundle = sp.make_bundle(scene, "levels", "riemann-diag", 16, seed=1)
    path = tmp_path / "gym.ckpt"
    assert transient_bytes(lambda: fileio.save_checkpoint(path, bundle)) < 1_000_000
    assert path.stat().st_size > 1_780_000


def test_load_checkpoint_draws_no_grid_to_overwrite(tmp_path):
    """Loading that gym-size checkpoint holds its file, the float64 grid
    (3.57 MB) and no random grid beside them: under 6 MB of transient
    memory, where building the bundle by ``make_bundle`` and overwriting
    it took 8.10 MB."""
    scene = sp.build_scene(sp.SceneSpec(kind="cylinder-forest", dims=(59, 8, 59), seed=11,
                                        geometry={"n_cylinders": 12}))
    bundle = sp.make_bundle(scene, "levels", "riemann-diag", 16, seed=1)
    path = tmp_path / "gym.ckpt"
    fileio.save_checkpoint(path, bundle)
    assert transient_bytes(lambda: fileio.load_checkpoint(path, scene)) < 6_000_000


def test_checkpoint_scene_mismatch(tmp_path, box_scene, maze_scene):
    bundle = sp.make_bundle(box_scene, "distance", "euclidean", 2, seed=0)
    path = tmp_path / "model.ckpt"
    fileio.save_checkpoint(path, bundle)
    with pytest.raises(FormatError):
        fileio.load_checkpoint(path, maze_scene)


def test_layout_round_trip(tmp_path):
    layout = sp.octahedral_layout()
    path = tmp_path / "speakers.spk"
    write_layout(path, layout)
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


def test_write_csv_quotes_an_ablation_error(tmp_path):
    """An ablation cell's error message that holds a comma reads back with
    ``csv.reader`` as the 9 columns the CLI writes."""
    columns = ["family", "n", "param", "mae", "params", "flops", "rlf_bytes", "wavecoding_bytes", "error"]
    rows = [{"family": "mlp", "n": 2, "param": "", "mae": float("nan"), "params": 0, "flops": 0,
             "rlf_bytes": 0, "wavecoding_bytes": 0, "error": "non-finite loss at epoch 2, cell 1"}]
    path = tmp_path / "ablation.csv"
    fileio.write_csv(path, rows, columns)
    with open(path, newline="") as fh:
        header, *read = list(csv.reader(fh))
    assert header == columns
    assert read == [[str(row.get(c, "")) for c in columns] for row in rows]
    fileio.write_csv(path, [{"a": 'say "hi"', "b": "two\nlines"}], ["a", "b"])
    assert path.read_text() == 'a,b\n"say ""hi""","two\nlines"\n'


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
    _scene_or_format_error(path)


def _scene_or_format_error(path):
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
    _field_or_format_error(path)


def _field_or_format_error(path):
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
        (b"seed=1", b"seed=1\nwalls"),  # a line without "=", ignored before
        (b"region.1=0.15", b"region.1=-0.3"),  # negative decay time, loaded before
        (b"region.1=0.15,0.4", b"region.1=0.15,0.0"),  # zero decay time
        (b"region.1=0.15", b"region.1=nan"),  # NaN decay time
        (b"0.4,-12.0", b"0.4,inf"),  # infinite level
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


def _checkpoint_blob(group, family, n):
    bundle = sp.make_bundle(_BOX, group, family, n, seed=4)
    return _file_bytes(fileio.save_checkpoint, bundle)


CKPT_BLOBS = {
    "levels-mlp": _checkpoint_blob("levels", "mlp", 3),
    "decays-dot-product": _checkpoint_blob("decays", "dot-product", 2),
}


def _ckpt_header_end(blob: bytes) -> int:
    off = len(fileio.CKPT_MAGIC) + 4
    return off + int.from_bytes(blob[off - 4 : off], "little")


@pytest.mark.parametrize("which", sorted(CKPT_BLOBS))
@settings(max_examples=300)
@given(data=st.data())
def test_load_checkpoint_corrupted_is_bundle_or_format_error(tmp_path_factory, which, data):
    blob = CKPT_BLOBS[which]
    corrupted = data.draw(_corrupted(blob, _ckpt_header_end(blob)))
    path = tmp_path_factory.getbasetemp() / "corrupted.ckpt"
    path.write_bytes(corrupted)
    _checkpoint_or_format_error(path)


def _checkpoint_or_format_error(path):
    try:
        bundle = fileio.load_checkpoint(path, _BOX)
    except FormatError:
        return
    assert isinstance(bundle, sp.ModelBundle)
    assert bundle.grid.values.shape == _BOX.dims + (bundle.grid.n,)
    assert set(bundle.trainable()) >= {"grid"}


def _with_header(blob: bytes, edit) -> bytes:
    """``blob`` with its JSON header replaced by ``edit(header)``."""
    end = _ckpt_header_end(blob)
    header = json.loads(blob[len(fileio.CKPT_MAGIC) + 4 : end])
    text = json.dumps(edit(header)).encode()
    return fileio.CKPT_MAGIC + len(text).to_bytes(4, "little") + text + blob[end:]


def _edit(**changes):
    return lambda header: {**header, **changes}


def _drop(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _sections(edit):
    return lambda header: {**header, "sections": edit(header["sections"])}


_LEVELS = CKPT_BLOBS["levels-mlp"]


def _case(name, blob):
    return pytest.param(blob, id=name)


@pytest.mark.parametrize(
    "blob",
    [
        _case("truncated-length", _LEVELS[:10]),  # struct.error before
        _case("header-past-end", _LEVELS[:40]),  # JSONDecodeError before
        _case("header-not-utf8", _LEVELS[:20] + b"\xff" + _LEVELS[21:]),  # UnicodeDecodeError
        _case("header-a-list", _with_header(_LEVELS, lambda h: [h])),  # TypeError before
        _case("no-group", _with_header(_LEVELS, _drop("group"))),  # KeyError before
        _case("no-hidden", _with_header(_LEVELS, _drop("hidden"))),
        _case("n-a-string", _with_header(_LEVELS, _edit(n="3"))),
        _case("dims-null", _with_header(_LEVELS, _edit(dims=None))),
        _case("hidden-a-string", _with_header(_LEVELS, _edit(hidden=[32, "32"]))),
        _case("K-nan", _with_header(_LEVELS, _edit(K=float("nan")))),
        _case("K-3.5", _with_header(CKPT_BLOBS["decays-dot-product"], _edit(K=3.5))),  # loaded before
        _case("unknown-group", _with_header(_LEVELS, _edit(group="pressure"))),
        _case("unknown-family", _with_header(_LEVELS, _edit(family="spline"))),
        _case("distance-dot-product",
              _with_header(_LEVELS, _edit(group="distance", family="dot-product"))),
        _case("huge-n", _with_header(_LEVELS, _edit(n=10**9))),  # MemoryError before
        _case("extra-section",
              _with_header(_LEVELS, _sections(lambda s: s + [{"name": "extra", "shape": [4]}]))),
        _case("duplicate-section", _with_header(_LEVELS, _sections(lambda s: s + [s[-1]]))),
        _case("missing-section", _with_header(_LEVELS, _sections(lambda s: s[:-1]))),
        _case("reversed-shapes", _with_header(
            _LEVELS, _sections(lambda s: [{**x, "shape": x["shape"][::-1]} for x in s]))),
        _case("negative-shape",
              _with_header(_LEVELS, _sections(lambda s: [{**s[0], "shape": [-1]}] + s[1:]))),
        _case("section-past-end", _LEVELS[:-4]),  # ValueError before
        _case("trailing-bytes", _LEVELS + b"\0\0\0\0"),  # accepted before
    ],
)
def test_load_checkpoint_malformed_is_format_error(tmp_path, blob):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        fileio.load_checkpoint(path, _BOX)


def test_load_checkpoint_edited_header_round_trip(tmp_path):
    """The header rewrite the malformed cases use keeps a valid file valid."""
    path = tmp_path / "ok.ckpt"
    path.write_bytes(_with_header(_LEVELS, lambda h: h))
    bundle = fileio.load_checkpoint(path, _BOX)
    assert bundle.group == "levels" and bundle.head.decoder.family == "mlp"


@pytest.mark.parametrize("corrupt", ["nan-latent", "inf-decoder-weight"])
def test_load_checkpoint_refuses_a_non_finite_parameter(tmp_path, corrupt):
    """A checkpoint that stores a NaN latent or an infinite decoder weight
    is refused, not loaded into a bundle that scores over fewer voxels."""
    bundle = sp.make_bundle(_BOX, "levels", "mlp", 3, seed=0)
    if corrupt == "nan-latent":
        bundle.grid.values[1, 1, 2, 0] = np.nan
    else:
        bundle.head.decoder.trainable()["w0"].flat[0] = np.inf
    path = tmp_path / "model.ckpt"
    fileio.save_checkpoint(path, bundle)
    with pytest.raises(FormatError, match="non-finite"):
        fileio.load_checkpoint(path, _BOX)


# ---------------------------------------------------------------------------
# Impulse responses and speaker layouts
# ---------------------------------------------------------------------------


IR_BLOB = _file_bytes(fileio.write_ir, np.linspace(-1.0, 1.0, 24).reshape(2, 12), sample_rate=8000.0)
LAYOUT_BLOB = _file_bytes(write_layout, sp.octahedral_layout())


@settings(max_examples=300)
@given(_corrupted(IR_BLOB, IR_BLOB.find(b"\n\n") + 2))
def test_read_ir_corrupted_is_ir_or_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "corrupted.ir"
    path.write_bytes(blob)
    _ir_or_format_error(path)


def _ir_or_format_error(path):
    try:
        samples, rate, t0 = fileio.read_ir(path)
    except FormatError:
        return
    assert samples.size > 0 and np.isfinite(samples).all()
    assert samples.ndim in (1, 2)
    assert np.isfinite(rate) and rate > 0 and np.isfinite(t0)


@settings(max_examples=300)
@given(_corrupted(LAYOUT_BLOB, len(LAYOUT_BLOB)))
def test_read_layout_corrupted_is_layout_or_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "corrupted.spk"
    path.write_bytes(blob)
    _layout_or_format_error(path)


def _layout_or_format_error(path):
    try:
        layout = fileio.read_layout(path)
    except FormatError:
        return
    assert isinstance(layout, sp.SpeakerLayout)
    assert np.isfinite(layout.directions).all()


def _spliced(a: bytes, b: bytes):
    """A prefix of one of ``a``, ``b`` joined to a suffix of the other, cut
    at independent offsets or at the same one."""

    def splice(pair):
        x, y = pair
        same = st.integers(0, min(len(x), len(y))).map(lambda k: x[:k] + y[k:])
        apart = st.tuples(st.integers(0, len(x)), st.integers(0, len(y))).map(lambda ij: x[: ij[0]] + y[ij[1] :])
        return st.one_of(same, apart)

    return st.sampled_from([(a, b), (b, a)]).flatmap(splice)


_TETRA = sp.SpeakerLayout(directions=np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0),
                          triples=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
SPLICES = {
    "scn": (SCENE_BLOB, _file_bytes(fileio.write_scene, _BOX, kind="empty-box", seed=0), _scene_or_format_error),
    "fld": (FIELD_BLOB, _file_bytes(fileio.write_field, sp.bake_source(_ROOMS, _ROOMS.voxel_center((1, 1, 1)))["l_er"]),
            _field_or_format_error),
    "ckpt": (*CKPT_BLOBS.values(), _checkpoint_or_format_error),
    "ir": (IR_BLOB, _file_bytes(fileio.write_ir, np.linspace(0.5, -0.5, 30), sample_rate=16000.0, t0=0.01),
           _ir_or_format_error),
    "spk": (LAYOUT_BLOB, _file_bytes(write_layout, _TETRA), _layout_or_format_error),
}


@pytest.mark.parametrize("fmt", sorted(SPLICES))
@settings(max_examples=300)
@given(data=st.data())
def test_spliced_files_are_read_or_format_error(tmp_path_factory, fmt, data):
    """Two valid files of one format, one's head joined to the other's
    tail: the reader returns a valid object or raises ``FormatError``."""
    a, b, read = SPLICES[fmt]
    path = tmp_path_factory.getbasetemp() / f"spliced.{fmt}"
    path.write_bytes(data.draw(_spliced(a, b)))
    read(path)


@pytest.mark.parametrize(
    "header, error",
    [
        (b"t0=0.0", b"t0"),  # line without '='
        (b"t0=0.0", b"t1=0.0"),  # missing key
        (b"t0=0.0", b"t0=\xff"),  # not UTF-8
        (b"sample_rate=8000.0", b"sample_rate=inf"),
        (b"sample_rate=8000.0", b"sample_rate=-8000"),
        (b"sample_rate=8000.0", b"sample_rate=nan"),
        (b"channels=2", b"channels=0"),
        (b"channels=2", b"channels=5"),  # 24 samples are not whole frames of 5
        (b"channels=2", b"channels=two"),
    ],
)
def test_read_ir_malformed_header_is_format_error(tmp_path, header, error):
    assert header in IR_BLOB
    path = tmp_path / "bad.ir"
    path.write_bytes(IR_BLOB.replace(header, error, 1))
    with pytest.raises(FormatError):
        fileio.read_ir(path)


def test_read_ir_rejects_bad_payload(tmp_path):
    path = tmp_path / "bad.ir"
    body = IR_BLOB.find(b"\n\n") + 2
    nan = np.array([np.nan], dtype="<f4").tobytes()
    for blob in (IR_BLOB[:-2], IR_BLOB[:-4], IR_BLOB[:body], IR_BLOB[:body] + nan * 2):
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            fileio.read_ir(path)


@pytest.mark.parametrize(
    "text",
    [
        "s 1.0 0.0\n",  # short
        "s 1.0 0.0 0.0 0.0\n",  # long
        "s 1.0 zero 0.0\n",
        "s nan 0.0 0.0\n",
        "t 0 1\n",
        "t 0 1 x\n",
        "t 0 1 9\n",  # no such speaker
        "q 1 2 3\n",
        "",  # no speakers
    ],
)
def test_read_layout_malformed_is_format_error(tmp_path, text):
    path = tmp_path / "bad.spk"
    path.write_text(LAYOUT_BLOB.decode().replace("t 0 2 4\n", "") + text if text else text)
    with pytest.raises(FormatError):
        fileio.read_layout(path)
