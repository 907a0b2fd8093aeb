"""Pipeline command-line interface.

Subcommands: ``scene gen``, ``sources sample``, ``bake``, ``train``,
``eval``, ``ablate``, ``query``, ``render``, ``export-slice``,
``params extract`` and ``cost``. Each command returns its input files, its
output files and the file its manifest is named after; once the command
succeeds, ``main`` writes the run manifest with their digests, and no
manifest is written on an error. Identical command, seed and inputs
yield byte-identical outputs and manifests.

Exit codes: 0 success, 2 usage error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FormatError, InputError, SoundPropError
from .evalkit import ablation_run, cost_report
from .fileio import (
    _read_input,
    _write_ir_blocks,
    _writing,
    read_field,
    read_ir_mono,
    read_layout,
    read_scene,
    load_checkpoint,
    save_checkpoint,
    write_csv,
    write_field,
    write_manifest,
    write_pgm_slice,
    write_scene,
)
from .irparams import extract_params
from .oracle import PARAM_KINDS, bake_source
from .runtime import (
    _render_blocks,
    default_reference_irs,
    octahedral_layout,
    query_params,
    render_params,
)
from .scene import GEOMETRY_KEY, SceneSpec, build_scene
from .training import (
    DEFAULT_FAMILY,
    GROUP_HEADS,
    Dataset,
    TrainConfig,
    evaluate_mae,
    make_bundle,
    make_splits,
    sample_sources,
    train,
)

def _list_type(kind, count: int | None = None, sep: str = ","):
    """Argparse type reading ``sep``-separated ``kind`` values (exactly
    ``count`` of them when given) into a tuple; case-insensitive."""
    def parse(text: str) -> tuple:
        values = tuple(kind(p) for p in text.lower().split(sep))
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(f"expected {count} values separated by {sep!r}, got {text!r}")
        return values
    parse.__name__ = f"{kind.__name__} list"  # argparse names the type in its error
    return parse


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seeds are non-negative integers, got {text!r}")
    return seed


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _print_out(args, text: str) -> list:
    """Print ``text`` and write it to ``--out`` when given; the files written."""
    print(text)
    if not args.out:
        return []
    with _writing(args.out):
        Path(args.out).write_text(text + "\n")
    return [args.out]


def _write_sources(path, sources) -> None:
    with _writing(path), open(path, "w") as fh:
        for s in sources:
            fh.write(f"{float(s[0])!r} {float(s[1])!r} {float(s[2])!r}\n")


def _read_sources(path) -> list:
    """Source positions, one ``x y z`` line each; blank lines are skipped."""
    try:
        lines = _read_input(path).decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text sources file") from exc
    out = []
    for number, line in enumerate(lines, 1):
        parts = line.split()
        if not parts:
            continue
        try:
            point = np.array(parts, dtype=float)
        except ValueError:
            point = np.empty(0)
        if point.shape != (3,) or not np.all(np.isfinite(point)):
            raise FormatError(f"{path}:{number}: expected three finite numbers, got {line.strip()!r}")
        out.append(point)
    return out


def _load_field_dataset(scene, directory: Path, split: str, group: str) -> Dataset:
    """Dataset of the ``group``'s fields from a directory of
    ``srcNNN_<param>.fld`` files, in the numeric order of ``NNN`` (the
    order of the baked sources file). Only the group's parameters are
    read, and a source with a file of one of them must have them all.
    ``InputError`` for a file of the group not named so, or for a number
    that two names share (``src0`` and ``src000``)."""
    directory = Path(directory)
    names = GROUP_HEADS[group]
    prefixes = {}  # source number: its file names' prefix
    for name in names:
        for path in sorted(directory.glob(f"src*_{name}.fld")):
            prefix = path.name[: -len(f"_{name}.fld")]
            if not re.fullmatch(r"src[0-9]+", prefix):
                raise InputError(f"field file {path.name} is not named srcNNN_{name}.fld")
            number = int(prefix[3:])
            if prefixes.setdefault(number, prefix) != prefix:
                raise InputError(f"field files {prefixes[number]}_* and {path.name} share source number {number}")
    fields = [{name: read_field(directory / f"{prefixes[i]}_{name}.fld") for name in names}
              for i in sorted(prefixes)]
    return Dataset(scene=scene, sources=[f[names[0]].source for f in fields], fields=fields, split=split)


# ---------------------------------------------------------------------------
# Command implementations: each returns (inputs, outputs, primary), the
# files its manifest digests and the path the manifest is named after.
# ---------------------------------------------------------------------------


def _cmd_scene_gen(args):
    key = GEOMETRY_KEY.get(args.kind)
    geometry = {} if key is None or getattr(args, key) is None else {key: getattr(args, key)}
    spec = SceneSpec(
        kind=args.kind,
        dims=args.dims,
        spacing=args.spacing,
        seed=args.seed,
        geometry=geometry,
    )
    scene = build_scene(spec)
    write_scene(args.out, scene, kind=args.kind, seed=args.seed)
    print(f"wrote {args.out}: {scene.dims} spacing {scene.spacing}, "
          f"{int(scene.free_mask().sum())} free voxels")
    return [], [args.out], args.out


def _cmd_sources_sample(args):
    scene, _ = read_scene(args.scene)
    outputs = []
    if args.splits:
        train_s, val_s, test_s = make_splits(
            scene, seed=args.seed, fractions=args.splits, runs=args.runs
        )
        out_dir = Path(args.out)
        with _writing(out_dir):
            out_dir.mkdir(parents=True, exist_ok=True)
        for name, srcs in (("train", train_s), ("val", val_s), ("test", test_s)):
            path = out_dir / f"sources_{name}.txt"
            _write_sources(path, srcs)
            outputs.append(path)
            print(f"{name}: {len(srcs)} sources -> {path}")
    else:
        sources = sample_sources(scene, seed=args.seed)
        _write_sources(args.out, sources)
        outputs = [args.out]
        print(f"{len(sources)} sources -> {args.out}")
    return [args.scene], outputs, outputs[0]


def _cmd_bake(args):
    scene, _ = read_scene(args.scene)
    sources = _read_sources(args.sources)
    if not sources:
        raise InputError(f"{args.sources} holds no sources")
    out_dir = Path(args.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i, source in enumerate(sources):
        fields = bake_source(scene, source)
        for name in PARAM_KINDS:
            path = out_dir / f"src{i:03d}_{name}.fld"
            write_field(path, fields[name])
            outputs.append(path)
    print(f"baked {len(sources)} sources x {len(PARAM_KINDS)} fields -> {out_dir}")
    return [args.scene, args.sources], outputs, out_dir / "bake"


def _cmd_train(args):
    scene, _ = read_scene(args.scene)
    train_ds = _load_field_dataset(scene, args.train_fields, "train", args.group)
    val_ds = _load_field_dataset(scene, args.val_fields, "val", args.group) if args.val_fields else None
    args.family = args.family or DEFAULT_FAMILY[args.group]
    bundle = make_bundle(scene, args.group, args.family, args.n, seed=args.seed)
    cfg = TrainConfig(
        epochs=args.epochs,
        batch_sources=args.batch_sources,
        lr_decoder=args.lr_decoder,
        lr_grid=args.lr_grid,
        seed=args.seed,
        eval_interval=args.eval_interval,
    )
    outputs = []
    dump = None
    if args.dump_checkpoints:
        dump_dir = Path(args.dump_checkpoints)
        with _writing(dump_dir):
            dump_dir.mkdir(parents=True, exist_ok=True)

        def dump(epoch):
            path = dump_dir / f"epoch{epoch:06d}.ckpt"
            save_checkpoint(path, bundle, extra={"epoch": epoch, "seed": args.seed})
            outputs.append(path)

    result = train(bundle, train_ds, cfg, val_ds=val_ds, on_eval=dump)
    save_checkpoint(args.out, bundle, extra={"epochs": args.epochs, "seed": args.seed})
    outputs.append(args.out)
    if args.log:
        rows = [
            {"epoch": e, "group": g, "train_loss": lo, "val_mae": "" if v is None else v}
            for e, g, lo, v in result.history
        ]
        write_csv(args.log, rows, ["epoch", "group", "train_loss", "val_mae"])
        outputs.append(args.log)
    final_loss = result.history[-1][2]
    print(f"trained {args.group}/{args.family} n={args.n}: final loss {final_loss:.6g} -> {args.out}")
    return [args.scene], outputs, args.out


def _cmd_eval(args):
    scene, _ = read_scene(args.scene)
    bundle = load_checkpoint(args.checkpoint, scene)
    ds = _load_field_dataset(scene, args.fields, "test", bundle.group)
    maes = evaluate_mae(bundle, ds)
    rows = [
        {"family": bundle.head.decoder.family, "n": bundle.grid.n, "param": k, "mae": v}
        for k, v in maes.items()
    ]
    write_csv(args.out, rows, ["family", "n", "param", "mae"])
    for row in rows:
        print(f"{row['param']}: MAE {row['mae']:.6g}")
    return [args.scene, args.checkpoint], [args.out], args.out


def _cmd_ablate(args):
    scene, _ = read_scene(args.scene)
    families = args.families.split(",")
    train_ds = _load_field_dataset(scene, args.train_fields, "train", args.group)
    val_ds = _load_field_dataset(scene, args.val_fields, "val", args.group)
    test_ds = _load_field_dataset(scene, args.test_fields, "test", args.group)
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed, eval_interval=args.eval_interval)
    rows = ablation_run(scene, train_ds, val_ds, test_ds, families, args.n_values, cfg, group=args.group)
    write_csv(
        args.out,
        rows,
        ["family", "n", "param", "mae", "params", "flops", "rlf_bytes", "wavecoding_bytes", "error"],
    )
    print(f"{len(rows)} ablation rows -> {args.out}")
    return [args.scene], [args.out], args.out


def _cmd_query(args):
    scene, _ = read_scene(args.scene)
    bundles = {"distance": load_checkpoint(args.distance, scene)}
    if args.levels:
        bundles["levels"] = load_checkpoint(args.levels, scene)
    if args.decays:
        bundles["decays"] = load_checkpoint(args.decays, scene)
    params = query_params(bundles, scene, args.a, args.b)
    # A parameter of a group without a checkpoint is NaN (l_lr None); JSON
    # has no NaN, so it prints null.
    record = {
        name: None if value is None or math.isnan(value) else value
        for name, value in vars(params).items() if name != "doa"
    }
    record["doa"] = None if params.doa is None else list(params.doa)
    inputs = [args.scene, args.distance] + [p for p in (args.levels, args.decays) if p]
    return inputs, _print_out(args, json.dumps(record, sort_keys=True)), args.out


def _cmd_render(args):
    from .irparams import AcousticParamSet

    ir = read_ir_mono(args.input)
    samples, rate, t0 = ir.samples, ir.sample_rate, ir.t0
    refs = default_reference_irs(sample_rate=rate, seed=args.refs_seed)
    layout = read_layout(args.layout) if args.layout else octahedral_layout()
    pset = AcousticParamSet(
        pi=0.0,  # the render reads no path distance
        l_ds=args.l_ds,
        l_er=args.l_er,
        tau_er=args.tau_er,
        tau_lr=args.tau_lr,
        doa=args.doa,
        l_lr=args.l_lr,
    )
    shape, blocks = _render_blocks(samples, render_params(pset, refs), refs, layout)
    _write_ir_blocks(args.out, blocks, shape[0], rate, t0)
    print(f"rendered {shape[0]} channels x {shape[1]} samples -> {args.out}")
    return [args.input] + ([args.layout] if args.layout else []), [args.out], args.out


def _cmd_export_slice(args):
    fv = read_field(args.field)
    if args.y_meters is not None:
        j = np.rint((args.y_meters - fv.origin[1]) / fv.spacing)
    else:
        j = args.y_index if args.y_index is not None else fv.dims[1] // 2
    if not 0 <= j < fv.dims[1]:
        raise InputError(f"slice y index {j} is outside the field's 0..{fv.dims[1] - 1}")
    j = int(j)
    vmin, vmax = write_pgm_slice(args.out, fv, j)
    args.normalization = {"min": vmin, "max": vmax, "y_index": j}
    print(f"slice j={j} normalized [{vmin:.4g}, {vmax:.4g}] -> {args.out}")
    return [args.field], [args.out], args.out


def _cmd_params_extract(args):
    ir = read_ir_mono(args.ir)
    params = extract_params(ir)
    header = "pi,l_ds,l_er,l_lr,tau_er,tau_lr"
    line = (
        f"{params.pi:.6g},{params.l_ds:.6g},{params.l_er:.6g},"
        f"{params.l_lr:.6g},{params.tau_er:.6g},{params.tau_lr:.6g}"
    )
    return [args.ir], _print_out(args, header + "\n" + line), args.out


def _cmd_cost(args):
    report = cost_report(args.dims, args.n, family=args.family)
    lines = [
        f"grid dims: {report.dims[0]}x{report.dims[1]}x{report.dims[2]}, n={report.n}",
        f"decoder family: {report.family}",
        f"decoder params: {report.params}",
        f"decoder flops: {report.flops}",
        f"latent-grid memory: {report.rlf_memory} ({report.rlf_bytes} bytes)",
        f"wave-coding memory: {report.wavecoding_memory} ({report.wavecoding_bytes} bytes)",
    ]
    outputs = _print_out(args, "\n".join(lines))
    if args.csv:
        write_csv(args.csv, [vars(report)],
                  ["family", "n", "params", "flops", "rlf_bytes", "wavecoding_bytes"])
        outputs.append(args.csv)
    return [], outputs, args.out or args.csv


def vars_config(args) -> dict:
    return {key: value for key, value in vars(args).items() if key not in ("func", "command")}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soundprop",
        description="Latent-grid sound-propagation pipelines",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="topcmd", required=True)

    def add_common(p):
        p.add_argument("--manifest", help="run-manifest path override")

    scene = sub.add_parser("scene", help="scene construction").add_subparsers(
        dest="subcmd", required=True
    )
    gen = scene.add_parser("gen", help="generate a synthetic scene")
    gen.add_argument("--kind", required=True,
                     choices=["empty-box", "wall-with-aperture", "maze", "coupled-rooms", "cylinder-forest"])
    gen.add_argument("--dims", type=_list_type(int, 3, sep="x"), default=(8, 4, 8))
    gen.add_argument("--spacing", type=float, default=1.0)
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--aperture", type=int, default=None)
    gen.add_argument("--door", type=int, default=None)
    gen.add_argument("--n-cylinders", type=int, default=None)
    gen.add_argument("--out", required=True)
    add_common(gen)
    gen.set_defaults(func=_cmd_scene_gen, command="scene gen")

    sources = sub.add_parser("sources", help="source sampling").add_subparsers(
        dest="subcmd", required=True
    )
    samp = sources.add_parser("sample", help="adaptive source sampling")
    samp.add_argument("--scene", required=True)
    samp.add_argument("--seed", type=_seed, default=0)
    samp.add_argument("--out", required=True,
                      help="output file, or directory when --splits is given")
    samp.add_argument("--splits", type=_list_type(float, 3), default=None, help="e.g. 0.6,0.2,0.2")
    samp.add_argument("--runs", type=int, default=3,
                      help="sampler repetitions pooled before splitting")
    add_common(samp)
    samp.set_defaults(func=_cmd_sources_sample, command="sources sample")

    bake = sub.add_parser("bake", help="bake oracle fields for sources")
    bake.add_argument("--scene", required=True)
    bake.add_argument("--sources", required=True)
    bake.add_argument("--out-dir", required=True)
    bake.add_argument("--workers", type=_positive, default=1, help="accepted; the bake runs in one process")
    add_common(bake)
    bake.set_defaults(func=_cmd_bake, command="bake")

    tr = sub.add_parser("train", help="train one parameter group")
    tr.add_argument("--scene", required=True)
    tr.add_argument("--train-fields", required=True)
    tr.add_argument("--val-fields", default=None)
    tr.add_argument("--group", default="distance", choices=list(GROUP_HEADS))
    tr.add_argument("--family", default=None,
                    help="decoder family (default: dot-product for decays, euclidean otherwise)")
    tr.add_argument("--n", type=int, default=8)
    tr.add_argument("--epochs", type=int, default=2000)
    tr.add_argument("--batch-sources", type=int, default=4)
    tr.add_argument("--lr-decoder", type=float, default=1e-3)
    tr.add_argument("--lr-grid", type=float, default=1e-4)
    tr.add_argument("--eval-interval", type=int, default=50)
    tr.add_argument("--seed", type=_seed, default=0)
    tr.add_argument("--out", required=True)
    tr.add_argument("--log", default=None, help="CSV loss/metric log")
    tr.add_argument("--dump-checkpoints", default=None,
                    help="directory for periodic checkpoints (one per eval interval)")
    add_common(tr)
    tr.set_defaults(func=_cmd_train, command="train")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on baked fields")
    ev.add_argument("--scene", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--fields", required=True)
    ev.add_argument("--out", required=True)
    add_common(ev)
    ev.set_defaults(func=_cmd_eval, command="eval")

    ab = sub.add_parser("ablate", help="latent-size / family sweep")
    ab.add_argument("--scene", required=True)
    ab.add_argument("--train-fields", required=True)
    ab.add_argument("--val-fields", required=True)
    ab.add_argument("--test-fields", required=True)
    ab.add_argument("--families", default="euclidean,riemann-diag")
    ab.add_argument("--n-values", type=_list_type(int), default="2,4,8")
    ab.add_argument("--group", default="distance", choices=list(GROUP_HEADS))
    ab.add_argument("--epochs", type=int, default=500)
    ab.add_argument("--eval-interval", type=int, default=50)
    ab.add_argument("--seed", type=_seed, default=0)
    ab.add_argument("--out", required=True)
    add_common(ab)
    ab.set_defaults(func=_cmd_ablate, command="ablate")

    qu = sub.add_parser("query", help="predict parameters for one pair")
    qu.add_argument("--scene", required=True)
    qu.add_argument("--distance", required=True, help="distance checkpoint")
    qu.add_argument("--levels", default=None)
    qu.add_argument("--decays", default=None)
    qu.add_argument("--a", type=_list_type(float, 3), required=True)
    qu.add_argument("--b", type=_list_type(float, 3), required=True)
    qu.add_argument("--out", default=None)
    add_common(qu)
    qu.set_defaults(func=_cmd_query, command="query")

    rn = sub.add_parser("render", help="offline parametric render")
    rn.add_argument("--input", required=True, help="mono input .ir file")
    rn.add_argument("--l-ds", type=float, required=True)
    rn.add_argument("--l-er", type=float, required=True)
    rn.add_argument("--l-lr", type=float, default=None)
    rn.add_argument("--tau-er", type=float, required=True)
    rn.add_argument("--tau-lr", type=float, required=True)
    rn.add_argument("--doa", type=_list_type(float, 3), default="1,0,0")
    rn.add_argument("--layout", default=None, help="speaker layout file (default octahedral)")
    rn.add_argument("--refs-seed", type=_seed, default=0)
    rn.add_argument("--out", required=True)
    add_common(rn)
    rn.set_defaults(func=_cmd_render, command="render")

    ex = sub.add_parser("export-slice", help="PGM slice of a field volume")
    ex.add_argument("--field", required=True)
    ex.add_argument("--y-index", type=int, default=None)
    ex.add_argument("--y-meters", type=float, default=None)
    ex.add_argument("--out", required=True)
    add_common(ex)
    ex.set_defaults(func=_cmd_export_slice, command="export-slice")

    pa = sub.add_parser("params", help="IR parameter tools").add_subparsers(
        dest="subcmd", required=True
    )
    px = pa.add_parser("extract", help="extract the six parameters from an IR")
    px.add_argument("--ir", required=True)
    px.add_argument("--out", default=None)
    add_common(px)
    px.set_defaults(func=_cmd_params_extract, command="params extract")

    co = sub.add_parser("cost", help="memory/compute accounting")
    co.add_argument("--dims", type=_list_type(int, 3, sep="x"), required=True)
    co.add_argument("--n", type=int, required=True)
    co.add_argument("--family", default="euclidean")
    co.add_argument("--out", default=None)
    co.add_argument("--csv", default=None, help="also write a one-row costs CSV")
    add_common(co)
    co.set_defaults(func=_cmd_cost, command="cost")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "scene gen":
        for key in GEOMETRY_KEY.values():
            if getattr(args, key) is not None and key != GEOMETRY_KEY.get(args.kind):
                parser.error(f"scene gen: --{key.replace('_', '-')} does not apply to --kind {args.kind}")
    try:
        inputs, outputs, primary = args.func(args)
        if args.manifest:
            path = args.manifest
        elif primary:
            path = f"{primary}.manifest.json"
        else:
            path = f"{args.command.replace(' ', '-')}-manifest.json"
        write_manifest(path, command=args.command, config=vars_config(args),
                       inputs=inputs, outputs=outputs, version=__version__)
    except SoundPropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
