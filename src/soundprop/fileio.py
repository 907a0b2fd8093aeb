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
  ``t i j k`` per panning triple.

Every write has a matching read; reading back yields the float32-rounded
values that were stored.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .decoders import ALL_FAMILIES, DEFAULT_MAX_DECAY
from .errors import ConfigurationError, FormatError
from .irparams import ImpulseResponse
from .oracle import FIELD_KINDS, FieldVolume
from .runtime import SpeakerLayout
from .scene import RegionAcoustics, VoxelScene
from .training import GROUP_HEADS, ModelBundle, make_bundle

SCENE_MAGIC = b"SPSCENE1"
FIELD_MAGIC = b"SPFIELD1\x00\x00\x00\x00\x00\x00\x00\x01"  # 16 bytes incl. version
IR_MAGIC = b"SPIR1"
CKPT_MAGIC = b"SPCKPT1\x00"

_KIND_CODES = {kind: i for i, kind in enumerate(FIELD_KINDS)}
# After the magic: dims, kind code, channel count, 2 pad bytes, source,
# spacing, origin.
_FIELD_HEADER = struct.Struct("<3IBB2x3dd3d")


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
    regions = scene.regions if scene.regions is not None else np.ones(scene.dims, np.int32)
    body += _rle_encode(regions.ravel(order="F").astype(np.int64), "i")
    with open(path, "wb") as fh:
        fh.write(header + body)


def read_scene(path) -> tuple[VoxelScene, dict]:
    """Scene plus its header metadata (kind, seed).

    Raises ``FormatError`` for a file that is not a well-formed scene.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = blob.find(b"\n\n")
    if sep < 0 or not blob.startswith(SCENE_MAGIC):
        raise FormatError(f"{path} is not a scene file")
    meta = {}
    region_params = {}
    try:
        for line in blob[:sep].decode().splitlines()[1:]:
            key, _, value = line.partition("=")
            if key.startswith("region."):
                te, tl, ler = (float(x) for x in value.split(","))
                region_params[int(key.split(".", 1)[1])] = RegionAcoustics(te, tl, ler)
            else:
                meta[key] = value
        dims = tuple(int(x) for x in meta["dims"].split("x"))
        spacing = float(meta["spacing"])
        origin = np.array([float(x) for x in meta["origin"].split(",")])
        info = {"kind": meta.get("kind", "custom"), "seed": int(meta.get("seed", 0))}
    except (KeyError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
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
    with open(path, "wb") as fh:
        fh.write(header)
        if channels == 1:
            fh.write(fv.values.astype("<f4").ravel(order="F").tobytes())
        else:
            for c in range(channels):
                fh.write(fv.values[..., c].astype("<f4").ravel(order="F").tobytes())


def read_field(path) -> FieldVolume:
    """Field volume; ``FormatError`` for a file that is not a well-formed field."""
    with open(path, "rb") as fh:
        blob = fh.read()
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
    raw = np.frombuffer(blob, dtype="<f4", count=count * channels, offset=off)
    with np.errstate(invalid="ignore"):  # a signalling NaN reads as NaN
        if channels == 1:
            values = raw.reshape(dims, order="F").astype(float)
        else:
            values = np.stack(
                [raw[c * count : (c + 1) * count].reshape(dims, order="F") for c in range(channels)],
                axis=-1,
            ).astype(float)
    return FieldVolume(
        source=np.array(source), kind=kind, values=values, spacing=spacing, origin=np.array(origin)
    )


# ---------------------------------------------------------------------------
# Impulse-response files
# ---------------------------------------------------------------------------


def write_ir(path, samples: np.ndarray, sample_rate: float, t0: float = 0.0) -> None:
    samples = np.asarray(samples, dtype=float)
    channels = 1 if samples.ndim == 1 else samples.shape[0]
    header = (
        f"{IR_MAGIC.decode()}\nsample_rate={float(sample_rate)!r}\nt0={float(t0)!r}\n"
        f"channels={channels}\n\n"
    ).encode()
    data = samples if samples.ndim == 1 else samples.T.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.astype("<f4").tobytes())


def read_ir(path):
    """Returns ``(samples, sample_rate, t0)``; samples are (C, N) if C > 1."""
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = blob.find(b"\n\n")
    if sep < 0 or not blob.startswith(IR_MAGIC):
        raise FormatError(f"{path} is not an impulse-response file")
    meta = dict(
        line.split("=", 1) for line in blob[:sep].decode().splitlines()[1:]
    )
    rate = float(meta["sample_rate"])
    t0 = float(meta["t0"])
    channels = int(meta.get("channels", 1))
    raw = np.frombuffer(blob, dtype="<f4", offset=sep + 2).astype(float)
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
    sections = []
    payload = bytearray()
    for name in sorted(params):
        arr = params[name].astype("<f4")
        sections.append({"name": name, "shape": list(arr.shape)})
        payload += arr.tobytes()
    decoder = bundle.head.decoder
    header = {
        "version": 1,
        "group": bundle.group,
        "family": decoder.family,
        "n": bundle.grid.n,
        "dims": list(bundle.grid.dims),
        "spacing": bundle.grid.spacing,
        "origin": list(bundle.grid.origin),
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
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(bytes(payload))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_checkpoint(path, scene: VoxelScene) -> ModelBundle:
    """Model bundle over ``scene``; ``FormatError`` for a file that is not a
    well-formed checkpoint of one."""
    with open(path, "rb") as fh:
        blob = fh.read()
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
    K = header.get("K", DEFAULT_MAX_DECAY)
    if not (
        isinstance(group, str) and group in GROUP_HEADS
        and family in ALL_FAMILIES
        and _is_int(n) and n >= 1
        and isinstance(dims, list) and all(map(_is_int, dims))
        and isinstance(hidden, list) and all(_is_int(h) and h >= 1 for h in hidden)
        and isinstance(K, (int, float)) and not isinstance(K, bool) and np.isfinite(K)
        and isinstance(sections, list)
    ):
        raise FormatError(f"{path}: malformed checkpoint header")
    if tuple(dims) != scene.dims:
        raise FormatError("checkpoint dims do not match the scene")
    arrays = {}
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
        arrays[name] = np.frombuffer(blob, dtype="<f4", count=count, offset=off).reshape(shape)
        off += 4 * count
    if off != len(blob):
        raise FormatError(f"{path}: {len(blob) - off} trailing bytes after the checkpoint")
    # every stored grid value and hidden unit has a float in the payload, so
    # a header claiming more fails here rather than in the allocation
    if n * math.prod(dims) + sum(hidden) > sum(a.size for a in arrays.values()):
        raise FormatError(f"{path}: checkpoint header claims more parameters than it stores")
    try:
        bundle = make_bundle(scene, group, family, n, K=K, hidden=tuple(hidden))
    except ConfigurationError as exc:
        raise FormatError(f"{path}: {exc}") from None
    params = bundle.trainable()
    if bundle.head.decoder.family != family or set(arrays) != set(params):
        raise FormatError(f"{path}: checkpoint sections do not match a {group}/{family} bundle")
    for name, arr in arrays.items():
        if arr.shape != params[name].shape:
            raise FormatError(f"{path}: checkpoint section {name!r} has shape {arr.shape}")
        with np.errstate(invalid="ignore"):  # a signalling NaN reads as NaN
            np.copyto(params[name], arr.astype(float))
    return bundle


# ---------------------------------------------------------------------------
# Speaker layouts, slices, manifests
# ---------------------------------------------------------------------------


def write_layout(path, layout: SpeakerLayout) -> None:
    lines = [f"s {float(d[0])!r} {float(d[1])!r} {float(d[2])!r}" for d in layout.directions]
    lines += [f"t {a} {b} {c}" for a, b, c in layout.triples]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_layout(path) -> SpeakerLayout:
    directions, triples = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "s":
                directions.append([float(x) for x in parts[1:4]])
            elif parts[0] == "t":
                triples.append(tuple(int(x) for x in parts[1:4]))
            else:
                raise FormatError(f"unknown layout line {line!r}")
    return SpeakerLayout(directions=np.array(directions), triples=tuple(triples))


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
    with open(path, "wb") as fh:
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
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, rows: list[dict], fieldnames: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(f, "")) for f in fieldnames) + "\n")
