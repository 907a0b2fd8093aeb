"""Artifact file formats.

All binary payloads are little-endian. Formats:

* Scene (``.scn``): text header (``key=value`` lines: dims, spacing,
  origin, kind, seed, per-region acoustic constants) terminated by a blank
  line, then run-length-encoded occupancy as ``(uint32 count, uint8 value)``
  pairs and the region map as ``(uint32 count, int32 value)`` pairs, both
  in x-fastest order.
* Field (``.fld``): 16-byte magic+version, dims as 3 x uint32, a kind code
  and channel count, source position, spacing and origin as float64, then
  float32 values in x-fastest order (one full volume per channel).
* Impulse response (``.ir``): small text header (sample_rate, t0,
  channels) then float32 samples, channel-interleaved.
* Checkpoint (``.ckpt``): 8-byte magic, uint32 JSON-header length, a JSON
  header describing the bundle (group, family, n, dims, section table),
  then flat float32 parameter payloads in the order listed.
* Speaker layout (``.spk``): text lines ``s x y z`` per speaker and
  ``t i j k`` per panning triple. Layouts are only read here; the tests'
  oracle writes them.

Every other format's write has a matching read; reading back yields the
float32-rounded values that were stored. Array payloads are cast to
float32 through one buffer of ``_BLOCK`` values, so a writer holds no copy
of what it writes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .decoders import ALL_FAMILIES, DEFAULT_MAX_DECAY
from .errors import ConfigurationError, FormatError, InputError
from .irparams import ImpulseResponse
from .latentfield import LatentGrid
from .oracle import FIELD_KINDS, FieldVolume
from .runtime import SpeakerLayout
from .scene import RegionAcoustics, VoxelScene
from .training import GROUP_HEADS, ModelBundle, _make_head

SCENE_MAGIC = b"SPSCENE1"
FIELD_MAGIC = b"SPFIELD1\x00\x00\x00\x00\x00\x00\x00\x01"  # 16 bytes incl. version
IR_MAGIC = b"SPIR1"
CKPT_MAGIC = b"SPCKPT1\x00"

_KIND_CODES = {kind: i for i, kind in enumerate(FIELD_KINDS)}
# After the magic: dims, kind code, channel count, 2 pad bytes, source,
# spacing, origin.
_FIELD_HEADER = struct.Struct("<3IBB2x3dd3d")
# float32 values per block of an array payload: 256 KiB, a few writes per render
_BLOCK = 1 << 16


def _read_input(path) -> bytes:
    """The bytes of input file ``path``; ``InputError`` when it cannot be
    read (missing, a directory, no permission)."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None


@contextmanager
def _writing(path):
    """Writing output file or directory ``path``; an ``OSError`` becomes ``InputError``."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _f4_blocks(arr: np.ndarray):
    """``arr`` in C order as blocks of at most ``_BLOCK`` little-endian
    float32 values, each cast (as ``astype("<f4")`` casts) into the one
    buffer the iterator reuses."""
    return np.nditer(arr, flags=["external_loop", "buffered", "zerosize_ok"], op_dtypes=["<f4"],
                     casting="same_kind", buffersize=_BLOCK, order="C")


def _write_f4(fh, arr: np.ndarray) -> None:
    """Write ``arr`` to open file ``fh`` as little-endian float32 in C order."""
    for block in _f4_blocks(arr):
        fh.write(block)


def _read_f4(blob, count: int, offset: int, out: np.ndarray | None = None) -> np.ndarray:
    """The ``count`` little-endian float32 values of ``blob`` at byte
    ``offset`` as float64, cast into ``out`` (in C order) when given; a
    signalling NaN reads as NaN, without a warning."""
    out = np.empty(count) if out is None else out
    with np.errstate(invalid="ignore"):
        np.copyto(out, np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(out.shape))
    return out


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Run-length encoding
# ---------------------------------------------------------------------------


def _rle_encode(flat: np.ndarray, value_fmt: str) -> bytes:
    out = bytearray()
    run_val = flat[0]
    run_len = 0
    for v in flat:
        if v == run_val and run_len < 0xFFFFFFFF:
            run_len += 1
        else:
            out += struct.pack("<I" + value_fmt, run_len, run_val)
            run_val, run_len = v, 1
    out += struct.pack("<I" + value_fmt, run_len, run_val)
    return bytes(out)


def _rle_decode(buf: memoryview, offset: int, count: int, value_fmt: str, dtype):
    # Runs are read before anything is allocated, so a header that claims
    # more voxels than the runs hold fails without a large allocation.
    item = struct.calcsize("<I" + value_fmt)
    lengths, values = [], []
    pos = 0
    while pos < count:
        if offset + item > len(buf):
            raise FormatError("truncated run-length data")
        run_len, run_val = struct.unpack_from("<I" + value_fmt, buf, offset)
        offset += item
        if pos + run_len > count:
            raise FormatError("run-length data overruns the array")
        lengths.append(run_len)
        values.append(run_val)
        pos += run_len
    return np.repeat(np.array(values, dtype=dtype), lengths), offset


# ---------------------------------------------------------------------------
# Scene files
# ---------------------------------------------------------------------------


def write_scene(path, scene: VoxelScene, kind: str = "custom", seed: int = 0) -> None:
    origin = [float(x) for x in scene.origin]
    lines = [
        SCENE_MAGIC.decode(),
        f"dims={scene.dims[0]}x{scene.dims[1]}x{scene.dims[2]}",
        f"spacing={float(scene.spacing)!r}",
        f"origin={origin[0]!r},{origin[1]!r},{origin[2]!r}",
        f"kind={kind}",
        f"seed={seed}",
    ]
    if scene.region_params:
        for rid, acoustics in sorted(scene.region_params.items()):
            lines.append(
                f"region.{rid}={float(acoustics.tau_er)!r},"
                f"{float(acoustics.tau_lr)!r},{float(acoustics.l_er_ref)!r}"
            )
    header = ("\n".join(lines) + "\n\n").encode()
    occ = scene.occupancy.ravel(order="F").astype(np.uint8)
    body = _rle_encode(occ, "B")
    body += _rle_encode(scene.regions.ravel(order="F").astype(np.int64), "i")
    with _writing(path), open(path, "wb") as fh:
        fh.write(header + body)


def read_scene(path) -> tuple[VoxelScene, dict]:
    """Scene plus its header metadata (kind, seed).

    Raises ``FormatError`` for a file that is not a well-formed scene.
    """
    blob = _read_input(path)
    sep = blob.find(b"\n\n")
    if sep < 0 or not blob.startswith(SCENE_MAGIC):
        raise FormatError(f"{path} is not a scene file")
    meta = {}
    region_params = {}
    try:
        for line in blob[:sep].decode().splitlines()[1:]:
            key, value = line.split("=", 1)  # a line without "=" is malformed
            if key.startswith("region."):
                te, tl, ler = (float(x) for x in value.split(","))
                region_params[int(key.split(".", 1)[1])] = RegionAcoustics(te, tl, ler)
            else:
                meta[key] = value
        dims = tuple(int(x) for x in meta["dims"].split("x"))
        spacing = float(meta["spacing"])
        origin = np.array([float(x) for x in meta["origin"].split(",")])
        info = {"kind": meta.get("kind", "custom"), "seed": int(meta.get("seed", 0))}
    except (KeyError, ValueError, ConfigurationError) as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"{path}: malformed scene header ({exc!r})") from exc
    if len(dims) != 3 or min(dims) < 2 or origin.shape != (3,) or not np.isfinite(origin).all():
        raise FormatError(f"{path}: malformed scene header")
    count = dims[0] * dims[1] * dims[2]
    buf = memoryview(blob)
    occ_flat, offset = _rle_decode(buf, sep + 2, count, "B", np.uint8)
    reg_flat, _ = _rle_decode(buf, offset, count, "i", np.int32)
    try:
        scene = VoxelScene(
            dims=dims,
            spacing=spacing,
            origin=origin,
            occupancy=occ_flat.reshape(dims, order="F").astype(bool),
            regions=reg_flat.reshape(dims, order="F"),
            region_params=region_params or None,
        )
    except ConfigurationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return scene, info


# ---------------------------------------------------------------------------
# Field files
# ---------------------------------------------------------------------------


def write_field(path, fv: FieldVolume) -> None:
    channels = 3 if fv.kind == "doa" else 1
    header = FIELD_MAGIC + _FIELD_HEADER.pack(
        *fv.dims, _KIND_CODES[fv.kind], channels, *fv.source, fv.spacing, *fv.origin
    )
    with _writing(path), open(path, "wb") as fh:
        fh.write(header)
        # (channels, nz, ny, nx) in C order: one x-fastest volume per channel
        _write_f4(fh, fv.values.reshape(*fv.dims, channels).T)


def read_field(path) -> FieldVolume:
    """Field volume; ``FormatError`` for a file that is not a well-formed field."""
    blob = _read_input(path)
    if not blob.startswith(FIELD_MAGIC):
        raise FormatError(f"{path} is not a field file")
    off = len(FIELD_MAGIC)
    if len(blob) < off + _FIELD_HEADER.size:
        raise FormatError(f"{path}: truncated field header")
    nx, ny, nz, kind_code, channels, *rest = _FIELD_HEADER.unpack_from(blob, off)
    off += _FIELD_HEADER.size
    dims = (nx, ny, nz)
    source, spacing, origin = rest[0:3], rest[3], rest[4:7]
    if kind_code >= len(FIELD_KINDS):
        raise FormatError(f"{path}: unknown field kind code {kind_code}")
    kind = FIELD_KINDS[kind_code]
    if channels != (3 if kind == "doa" else 1):
        raise FormatError(f"{path}: {channels} channels for a {kind} field")
    if min(dims) < 1 or not (spacing > 0) or not np.isfinite(rest).all():
        raise FormatError(f"{path}: malformed field header")
    count = nx * ny * nz
    if len(blob) - off != count * channels * 4:
        raise FormatError(f"{path}: field payload size does not match its header")
    shape = dims if channels == 1 else (*dims, channels)  # x fastest, the channel slowest
    values = _read_f4(blob, count * channels, off).reshape(shape, order="F")
    return FieldVolume(
        source=np.array(source), kind=kind, values=values, spacing=spacing, origin=np.array(origin)
    )


# ---------------------------------------------------------------------------
# Impulse-response files
# ---------------------------------------------------------------------------


def write_ir(path, samples: np.ndarray, sample_rate: float, t0: float = 0.0) -> None:
    """Write mono ``(N,)`` or ``(C, N)`` samples, channel-interleaved.

    Raises ``InputError``, before the file is opened, for samples that
    ``read_ir`` would reject: none, no channels, more than two dimensions,
    or a sample that is not finite as float32.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim not in (1, 2) or samples.size == 0:
        raise InputError(f"cannot write {path}: samples of shape {samples.shape} are not non-empty "
                         "(N,) or (C, N)")
    _write_ir_blocks(path, (samples,), 1 if samples.ndim == 1 else samples.shape[0], sample_rate, t0)


def _write_ir_blocks(path, blocks, channels: int, sample_rate: float, t0: float) -> None:
    """Write the IR whose frames are those of the ``(N,)`` or ``(channels,
    N)`` arrays of the iterable ``blocks``, in order, in one pass; a block
    may be a buffer that the next one overwrites. The file is written
    beside ``path`` and moved onto it once whole, so a sample that is not
    finite as float32 raises ``InputError`` and leaves ``path`` as it was."""
    header = (
        f"{IR_MAGIC.decode()}\nsample_rate={float(sample_rate)!r}\nt0={float(t0)!r}\n"
        f"channels={channels}\n\n"
    ).encode()
    staging = f"{os.fspath(path)}.partial"
    try:
        with _writing(path):
            with open(staging, "wb") as fh, np.errstate(over="ignore"):
                fh.write(header)
                for block in blocks:
                    for f4 in _f4_blocks(block.T):  # (N, C) in C order: interleaved frames
                        if not np.isfinite(f4).all():
                            raise InputError(f"cannot write {path}: a sample is not finite as float32")
                        fh.write(f4)
            os.replace(staging, path)
    except BaseException:
        if os.path.exists(staging):
            os.remove(staging)
        raise


def read_ir(path):
    """Returns ``(samples, sample_rate, t0)``; samples are (C, N) if C > 1.

    Raises ``FormatError`` for a file that is not a well-formed impulse
    response: a malformed header, a payload that is not whole frames of
    ``channels`` float32 samples, no samples, or a non-finite sample.
    """
    blob = _read_input(path)
    sep = blob.find(b"\n\n")
    if sep < 0 or not blob.startswith(IR_MAGIC):
        raise FormatError(f"{path} is not an impulse-response file")
    try:  # dict() raises ValueError for a line without "="
        meta = dict(line.split("=", 1) for line in blob[:sep].decode().splitlines()[1:])
        rate = float(meta["sample_rate"])
        t0 = float(meta["t0"])
        channels = int(meta.get("channels", 1))
    except (KeyError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"{path}: malformed impulse-response header ({exc!r})") from None
    if not (math.isfinite(rate) and rate > 0 and math.isfinite(t0) and channels >= 1):
        raise FormatError(f"{path}: malformed impulse-response header")
    payload = len(blob) - sep - 2
    if payload == 0 or payload % (4 * channels):
        raise FormatError(f"{path}: payload is not whole frames of {channels} float32 samples")
    raw = _read_f4(blob, payload // 4, sep + 2)
    if not np.isfinite(raw).all():
        raise FormatError(f"{path}: non-finite sample")
    if channels > 1:
        raw = raw.reshape(-1, channels).T
    return raw, rate, t0


def read_ir_mono(path) -> ImpulseResponse:
    samples, rate, t0 = read_ir(path)
    if samples.ndim != 1:
        raise FormatError("expected a mono impulse response")
    return ImpulseResponse(samples=samples, sample_rate=rate, t0=t0)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, bundle: ModelBundle, extra: dict | None = None) -> None:
    params = bundle.trainable()
    sections = [{"name": name, "shape": list(params[name].shape)} for name in sorted(params)]
    decoder = bundle.head.decoder
    header = {
        "version": 1,
        "group": bundle.group,
        "family": decoder.family,
        "n": bundle.grid.n,
        "dims": list(bundle.grid.dims),
        "spacing": bundle.scene.spacing,
        "origin": list(bundle.scene.origin),
        "sections": sections,
    }
    if decoder.family == "mlp":
        header["hidden"] = [w.shape[0] for w in decoder.weights[:-1]]
        header["k"] = decoder.k
    if hasattr(decoder, "K"):
        header["K"] = decoder.K
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True).encode()
    with _writing(path), open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in sorted(params):
            _write_f4(fh, params[name])


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_checkpoint(path, scene: VoxelScene) -> ModelBundle:
    """Model bundle over ``scene``; ``FormatError`` for a file that is not a
    well-formed checkpoint of one."""
    blob = _read_input(path)
    if not blob.startswith(CKPT_MAGIC):
        raise FormatError(f"{path} is not a checkpoint")
    off = len(CKPT_MAGIC) + 4
    if len(blob) < off:
        raise FormatError(f"{path}: truncated checkpoint header")
    (hlen,) = struct.unpack_from("<I", blob, off - 4)
    if len(blob) < off + hlen:
        raise FormatError(f"{path}: checkpoint header runs past the end")
    try:
        header = json.loads(blob[off : off + hlen].decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise FormatError(f"{path}: checkpoint header is not UTF-8 JSON ({exc})") from None
    off += hlen
    if not isinstance(header, dict):
        raise FormatError(f"{path}: checkpoint header is not a JSON object")
    group, family, n, dims, sections = (
        header.get(key) for key in ("group", "family", "n", "dims", "sections")
    )
    hidden = header.get("hidden") if family == "mlp" else []
    if not (
        isinstance(group, str) and group in GROUP_HEADS
        and family in ALL_FAMILIES
        and _is_int(n) and n >= 1
        and isinstance(dims, list) and all(map(_is_int, dims))
        and isinstance(hidden, list) and all(_is_int(h) and h >= 1 for h in hidden)
        and header.get("K", DEFAULT_MAX_DECAY) == DEFAULT_MAX_DECAY
        and isinstance(sections, list)
    ):
        raise FormatError(f"{path}: malformed checkpoint header")
    if tuple(dims) != scene.dims:
        raise FormatError("checkpoint dims do not match the scene")
    if header.get("spacing") != scene.spacing or header.get("origin") != scene.origin.tolist():
        raise FormatError("checkpoint spacing or origin does not match the scene")
    arrays = {}  # name: (shape, payload offset)
    for section in sections:
        name = section.get("name") if isinstance(section, dict) else None
        shape = section.get("shape") if isinstance(section, dict) else None
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(_is_int(s) and s >= 0 for s in shape)):
            raise FormatError(f"{path}: malformed checkpoint section {section!r}")
        if name in arrays:
            raise FormatError(f"{path}: duplicate checkpoint section {name!r}")
        count = math.prod(shape)
        if off + 4 * count > len(blob):
            raise FormatError(f"{path}: checkpoint section {name!r} runs past the end")
        arrays[name] = (tuple(shape), off)
        off += 4 * count
    if off != len(blob):
        raise FormatError(f"{path}: {len(blob) - off} trailing bytes after the checkpoint")
    # every stored grid value and hidden unit has a float in the payload, so
    # a header claiming more fails here rather than in the allocation
    if n * math.prod(dims) + sum(hidden) > sum(math.prod(s) for s, _ in arrays.values()):
        raise FormatError(f"{path}: checkpoint header claims more parameters than it stores")
    try:
        head = _make_head(group, family, n, hidden=tuple(hidden))
    except ConfigurationError as exc:
        raise FormatError(f"{path}: {exc}") from None
    # the grid is read straight into its array, with no draw to overwrite
    params = {"grid": np.empty((*scene.dims, n)), **head.trainable()}
    if head.decoder.family != family or set(arrays) != set(params):
        raise FormatError(f"{path}: checkpoint sections do not match a {group}/{family} bundle")
    for name, (shape, at) in arrays.items():
        if shape != params[name].shape:
            raise FormatError(f"{path}: checkpoint section {name!r} has shape {shape}")
        if not np.isfinite(_read_f4(blob, math.prod(shape), at, out=params[name])).all():
            raise FormatError(f"{path}: checkpoint section {name!r} holds a non-finite value")
    return ModelBundle(group=group, grid=LatentGrid(params["grid"]), head=head, scene=scene)


# ---------------------------------------------------------------------------
# Speaker layouts, slices, manifests
# ---------------------------------------------------------------------------


def read_layout(path) -> SpeakerLayout:
    """Speaker layout; ``FormatError`` for a file that is not a well-formed
    layout: a line other than ``s x y z`` or ``t i j k``, a non-finite
    direction, or a layout ``SpeakerLayout`` rejects."""
    rows = {"s": [], "t": []}
    blob = _read_input(path)
    try:
        for parts in map(str.split, blob.decode("utf-8").splitlines()):
            if parts and (parts[0] not in rows or len(parts) != 4):
                raise ValueError(f"malformed layout line {' '.join(parts)!r}")
            if parts:
                rows[parts[0]].append(parts[1:])
        directions = np.array(rows["s"], dtype=float)
        if not np.isfinite(directions).all():
            raise ValueError("non-finite speaker direction")
        triples = tuple(tuple(map(int, t)) for t in rows["t"])
        return SpeakerLayout(directions=directions, triples=triples)
    except (ValueError, ConfigurationError) as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"{path}: {exc}") from None


def write_pgm_slice(path, fv: FieldVolume, j: int) -> tuple[float, float]:
    """8-bit grayscale PGM of the horizontal slice at vertical index ``j``.

    Min-max normalized over the slice's valid voxels; returns the (min,
    max) used so callers can record the normalization.
    """
    if fv.kind == "doa":
        raise FormatError("slice export works on scalar fields")
    plane = fv.values[:, j, :]
    valid = np.isfinite(plane)
    if not valid.any():
        raise FormatError("slice contains no valid voxels")
    vmin = float(plane[valid].min())
    vmax = float(plane[valid].max())
    span = vmax - vmin if vmax > vmin else 1.0
    img = np.zeros(plane.shape, dtype=np.uint8)
    img[valid] = np.clip((plane[valid] - vmin) / span * 255.0, 0, 255).astype(np.uint8)
    with _writing(path), open(path, "wb") as fh:
        fh.write(f"P5\n{plane.shape[0]} {plane.shape[1]}\n255\n".encode())
        fh.write(img.T.tobytes())  # rows are z lines, x fastest
    return vmin, vmax


def write_manifest(path, command: str, config: dict, inputs, outputs, version: str) -> None:
    """JSON run record with sha256 digests of every input and output file."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {str(p): sha256_file(p) for p in outputs},
        "version": version,
    }
    with _writing(path), open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, rows: list[dict], fieldnames: list[str]) -> None:
    import csv  # not at module level: only the commands writing a CSV load it
    with _writing(path), open(path, "w", newline="") as fh:
        values = ([str(row.get(f, "")) for f in fieldnames] for row in rows)
        csv.writer(fh, lineterminator="\n").writerows([fieldnames, *values])
