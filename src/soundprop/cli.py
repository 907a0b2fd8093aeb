"""Pipeline command-line interface.

Subcommands: ``scene gen``, ``sources sample``, ``bake``, ``train``,
``eval``, ``ablate``, ``query``, ``render``, ``export-slice``,
``params extract`` and ``cost``. Every command writes a run manifest with
input/output digests so pipelines are reproducible; identical command,
seed and inputs yield byte-identical outputs.

Exit codes: 0 success, 2 usage error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError, SoundPropError
from .evalkit import ablation_run, cost_report
from .fileio import (
    read_field,
    read_ir_mono,
    read_layout,
    read_scene,
    load_checkpoint,
    save_checkpoint,
    write_csv,
    write_field,
    write_ir,
    write_manifest,
    write_pgm_slice,
    write_scene,
)
from .irparams import extract_params
from .oracle import bake_source
from .runtime import (
    default_reference_irs,
    octahedral_layout,
    query_params,
    render_offline,
    render_params,
)
from .scene import SceneSpec, build_scene
from .training import (
    Dataset,
    TrainConfig,
    evaluate_mae,
    make_bundle,
    make_splits,
    sample_sources,
    select_best,
    train,
)

FIELD_NAMES = ("pi", "l_ds", "l_er", "tau_er", "tau_lr")


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("dims must look like 8x4x8")
    return tuple(int(p) for p in parts)


def _parse_vec(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("positions must look like x,y,z")
    return np.array([float(p) for p in parts])


def _manifest_path(args, primary: Path | None) -> Path:
    if args.manifest:
        return Path(args.manifest)
    if primary is not None:
        return Path(str(primary) + ".manifest.json")
    return Path(f"{args.command.replace(' ', '-')}-manifest.json")


def _emit_manifest(args, config: dict, inputs: list, outputs: list, primary=None):
    path = _manifest_path(args, Path(primary) if primary else None)
    write_manifest(
        path,
        command=args.command,
        config=config,
        inputs=inputs,
        outputs=outputs,
        version=__version__,
    )


def _write_sources(path, sources) -> None:
    with open(path, "w") as fh:
        for s in sources:
            fh.write(f"{float(s[0])!r} {float(s[1])!r} {float(s[2])!r}\n")


def _read_sources(path) -> list:
    out = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts:
                out.append(np.array([float(x) for x in parts[:3]]))
    return out


def _load_field_dataset(scene, directory: Path, split: str) -> Dataset:
    """Dataset from a directory of ``srcNNN_<param>.fld`` files, in the
    numeric order of ``NNN`` (the order of the baked sources file)."""
    directory = Path(directory)
    prefixes = {p.name.split("_")[0] for p in directory.glob("src*_pi.fld")}
    for prefix in prefixes:
        if not re.fullmatch(r"src[0-9]+", prefix):
            raise InputError(f"field file {prefix}_pi.fld is not named srcNNN_pi.fld")
    indices = sorted(prefixes, key=lambda prefix: int(prefix[3:]))
    sources, fields = [], []
    for idx in indices:
        per_source = {}
        for name in FIELD_NAMES:
            per_source[name] = read_field(directory / f"{idx}_{name}.fld")
        sources.append(per_source["pi"].source)
        fields.append(per_source)
    return Dataset(scene=scene, sources=sources, fields=fields, split=split)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_scene_gen(args) -> int:
    geometry = {}
    if args.aperture is not None:
        geometry["aperture"] = args.aperture
    if args.door is not None:
        geometry["door"] = args.door
    if args.n_cylinders is not None:
        geometry["n_cylinders"] = args.n_cylinders
    spec = SceneSpec(
        kind=args.kind,
        dims=args.dims,
        spacing=args.spacing,
        seed=args.seed,
        geometry=geometry,
    )
    scene = build_scene(spec)
    write_scene(args.out, scene, kind=args.kind, seed=args.seed)
    _emit_manifest(args, vars_config(args), [], [args.out], primary=args.out)
    print(f"wrote {args.out}: {scene.dims} spacing {scene.spacing}, "
          f"{int(scene.free_mask().sum())} free voxels")
    return 0


def _cmd_sources_sample(args) -> int:
    scene, _ = read_scene(args.scene)
    outputs = []
    if args.splits:
        fractions = tuple(float(x) for x in args.splits.split(","))
        train_s, val_s, test_s = make_splits(
            scene, seed=args.seed, fractions=fractions, runs=args.runs
        )
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, srcs in (("train", train_s), ("val", val_s), ("test", test_s)):
            path = out_dir / f"sources_{name}.txt"
            _write_sources(path, srcs)
            outputs.append(path)
            print(f"{name}: {len(srcs)} sources -> {path}")
        primary = outputs[0]
    else:
        sources = sample_sources(scene, seed=args.seed)
        _write_sources(args.out, sources)
        outputs = [args.out]
        primary = args.out
        print(f"{len(sources)} sources -> {args.out}")
    _emit_manifest(args, vars_config(args), [args.scene], outputs, primary=primary)
    return 0


def _cmd_bake(args) -> int:
    scene, _ = read_scene(args.scene)
    sources = _read_sources(args.sources)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i, source in enumerate(sources):
        fields = bake_source(scene, source)
        for name in FIELD_NAMES:
            path = out_dir / f"src{i:03d}_{name}.fld"
            write_field(path, fields[name])
            outputs.append(path)
    _emit_manifest(
        args, vars_config(args), [args.scene, args.sources], outputs,
        primary=out_dir / "bake",
    )
    print(f"baked {len(sources)} sources x {len(FIELD_NAMES)} fields -> {out_dir}")
    return 0


def _cmd_train(args) -> int:
    scene, _ = read_scene(args.scene)
    train_ds = _load_field_dataset(scene, args.train_fields, "train")
    val_ds = _load_field_dataset(scene, args.val_fields, "val") if args.val_fields else None
    bundle = make_bundle(scene, args.group, args.family, args.n, seed=args.seed)
    cfg = TrainConfig(
        epochs=args.epochs,
        batch_sources=args.batch_sources,
        lr_decoder=args.lr_decoder,
        lr_grid=args.lr_grid,
        seed=args.seed,
        eval_interval=args.eval_interval,
    )
    result = train(bundle, train_ds, cfg, val_ds=val_ds)
    outputs = []
    if args.dump_checkpoints:
        dump_dir = Path(args.dump_checkpoints)
        dump_dir.mkdir(parents=True, exist_ok=True)
        snapshot = bundle.snapshot()
        for ck in result.checkpoints:
            bundle.restore(ck["params"])
            path = dump_dir / f"epoch{ck['epoch']:06d}.ckpt"
            save_checkpoint(path, bundle, extra={"epoch": ck["epoch"], "seed": args.seed})
            outputs.append(path)
        bundle.restore(snapshot)
    if val_ds is not None and result.checkpoints:
        bundle.restore(select_best(result.checkpoints)["params"])
    save_checkpoint(args.out, bundle, extra={"epochs": args.epochs, "seed": args.seed})
    outputs.append(args.out)
    if args.log:
        rows = [
            {"epoch": e, "group": g, "train_loss": lo, "val_mae": "" if v is None else v}
            for e, g, lo, v in result.history
        ]
        write_csv(args.log, rows, ["epoch", "group", "train_loss", "val_mae"])
        outputs.append(args.log)
    inputs = [args.scene]
    _emit_manifest(args, vars_config(args), inputs, outputs, primary=args.out)
    final_loss = result.history[-1][2]
    print(f"trained {args.group}/{args.family} n={args.n}: final loss {final_loss:.6g} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    scene, _ = read_scene(args.scene)
    bundle = load_checkpoint(args.checkpoint, scene)
    ds = _load_field_dataset(scene, args.fields, "test")
    maes = evaluate_mae(bundle, ds)
    rows = [
        {"family": bundle.head.decoder.family, "n": bundle.grid.n, "param": k, "mae": v}
        for k, v in maes.items()
    ]
    write_csv(args.out, rows, ["family", "n", "param", "mae"])
    _emit_manifest(args, vars_config(args), [args.scene, args.checkpoint], [args.out], primary=args.out)
    for row in rows:
        print(f"{row['param']}: MAE {row['mae']:.6g}")
    return 0


def _cmd_ablate(args) -> int:
    scene, _ = read_scene(args.scene)
    train_ds = _load_field_dataset(scene, args.train_fields, "train")
    val_ds = _load_field_dataset(scene, args.val_fields, "val")
    test_ds = _load_field_dataset(scene, args.test_fields, "test")
    families = args.families.split(",")
    n_values = [int(x) for x in args.n_values.split(",")]
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed, eval_interval=args.eval_interval)
    rows = ablation_run(scene, train_ds, val_ds, test_ds, families, n_values, cfg, group=args.group)
    write_csv(
        args.out,
        rows,
        ["family", "n", "param", "mae", "params", "flops", "rlf_bytes", "wavecoding_bytes", "error"],
    )
    _emit_manifest(args, vars_config(args), [args.scene], [args.out], primary=args.out)
    print(f"{len(rows)} ablation rows -> {args.out}")
    return 0


def _cmd_query(args) -> int:
    scene, _ = read_scene(args.scene)
    bundles = {"distance": load_checkpoint(args.distance, scene)}
    if args.levels:
        bundles["levels"] = load_checkpoint(args.levels, scene)
    if args.decays:
        bundles["decays"] = load_checkpoint(args.decays, scene)
    params = query_params(bundles, scene, args.a, args.b)
    record = {
        "pi": params.pi,
        "l_ds": params.l_ds,
        "l_er": params.l_er,
        "l_lr": params.l_lr,
        "tau_er": params.tau_er,
        "tau_lr": params.tau_lr,
        "doa": None if params.doa is None else list(params.doa),
    }
    text = json.dumps(record, sort_keys=True)
    print(text)
    outputs = []
    if args.out:
        Path(args.out).write_text(text + "\n")
        outputs.append(args.out)
    inputs = [args.scene, args.distance] + [p for p in (args.levels, args.decays) if p]
    _emit_manifest(args, vars_config(args), inputs, outputs, primary=args.out)
    return 0


def _cmd_render(args) -> int:
    from .irparams import AcousticParamSet

    ir = read_ir_mono(args.input)
    samples, rate, t0 = ir.samples, ir.sample_rate, ir.t0
    refs = default_reference_irs(sample_rate=rate, seed=args.refs_seed)
    layout = read_layout(args.layout) if args.layout else octahedral_layout()
    pset = AcousticParamSet(
        pi=args.pi,
        l_ds=args.l_ds,
        l_er=args.l_er,
        tau_er=args.tau_er,
        tau_lr=args.tau_lr,
        doa=_parse_vec(args.doa),
        l_lr=args.l_lr,
    )
    rp = render_params(pset, refs)
    out = render_offline(samples, rp, refs, layout)
    write_ir(args.out, out, rate, t0)
    inputs = [args.input] + ([args.layout] if args.layout else [])
    _emit_manifest(args, vars_config(args), inputs, [args.out], primary=args.out)
    print(f"rendered {out.shape[0]} channels x {out.shape[1]} samples -> {args.out}")
    return 0


def _cmd_export_slice(args) -> int:
    fv = read_field(args.field)
    if args.y_meters is not None:
        j = int(round((args.y_meters - fv.origin[1]) / fv.spacing))
    else:
        j = args.y_index if args.y_index is not None else fv.dims[1] // 2
    vmin, vmax = write_pgm_slice(args.out, fv, j)
    config = vars_config(args)
    config["normalization"] = {"min": vmin, "max": vmax, "y_index": j}
    _emit_manifest(args, config, [args.field], [args.out], primary=args.out)
    print(f"slice j={j} normalized [{vmin:.4g}, {vmax:.4g}] -> {args.out}")
    return 0


def _cmd_params_extract(args) -> int:
    ir = read_ir_mono(args.ir)
    params = extract_params(ir)
    header = "pi,l_ds,l_er,l_lr,tau_er,tau_lr"
    line = (
        f"{params.pi:.6g},{params.l_ds:.6g},{params.l_er:.6g},"
        f"{params.l_lr:.6g},{params.tau_er:.6g},{params.tau_lr:.6g}"
    )
    print(header)
    print(line)
    outputs = []
    if args.out:
        Path(args.out).write_text(header + "\n" + line + "\n")
        outputs.append(args.out)
    _emit_manifest(args, vars_config(args), [args.ir], outputs, primary=args.out)
    return 0


def _cmd_cost(args) -> int:
    report = cost_report(args.dims, args.n, family=args.family)
    lines = [
        f"grid dims: {report.dims[0]}x{report.dims[1]}x{report.dims[2]}, n={report.n}",
        f"decoder family: {report.family}",
        f"decoder params: {report.params}",
        f"decoder flops: {report.flops}",
        f"latent-grid memory: {report.rlf_memory} ({report.rlf_bytes} bytes)",
        f"wave-coding memory: {report.wavecoding_memory} ({report.wavecoding_bytes} bytes)",
    ]
    text = "\n".join(lines)
    print(text)
    outputs = []
    if args.out:
        Path(args.out).write_text(text + "\n")
        outputs.append(args.out)
    if args.csv:
        row = {
            "family": report.family,
            "n": report.n,
            "params": report.params,
            "flops": report.flops,
            "rlf_bytes": report.rlf_bytes,
            "wavecoding_bytes": report.wavecoding_bytes,
        }
        write_csv(args.csv, [row],
                  ["family", "n", "params", "flops", "rlf_bytes", "wavecoding_bytes"])
        outputs.append(args.csv)
    _emit_manifest(args, vars_config(args), [], outputs, primary=args.out or args.csv)
    return 0


def vars_config(args) -> dict:
    skip = {"func", "command"}
    out = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


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
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; commands run in one process")

    scene = sub.add_parser("scene", help="scene construction").add_subparsers(
        dest="subcmd", required=True
    )
    gen = scene.add_parser("gen", help="generate a synthetic scene")
    gen.add_argument("--kind", required=True,
                     choices=["empty-box", "wall-with-aperture", "maze", "coupled-rooms", "cylinder-forest"])
    gen.add_argument("--dims", type=_parse_dims, default=(8, 4, 8))
    gen.add_argument("--spacing", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
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
    samp.add_argument("--seed", type=int, default=0)
    samp.add_argument("--out", required=True,
                      help="output file, or directory when --splits is given")
    samp.add_argument("--splits", default=None, help="e.g. 0.6,0.2,0.2")
    samp.add_argument("--runs", type=int, default=3,
                      help="sampler repetitions pooled before splitting")
    add_common(samp)
    samp.set_defaults(func=_cmd_sources_sample, command="sources sample")

    bake = sub.add_parser("bake", help="bake oracle fields for sources")
    bake.add_argument("--scene", required=True)
    bake.add_argument("--sources", required=True)
    bake.add_argument("--out-dir", required=True)
    add_common(bake)
    bake.set_defaults(func=_cmd_bake, command="bake")

    tr = sub.add_parser("train", help="train one parameter group")
    tr.add_argument("--scene", required=True)
    tr.add_argument("--train-fields", required=True)
    tr.add_argument("--val-fields", default=None)
    tr.add_argument("--group", default="distance", choices=["distance", "levels", "decays"])
    tr.add_argument("--family", default="euclidean")
    tr.add_argument("--n", type=int, default=8)
    tr.add_argument("--epochs", type=int, default=2000)
    tr.add_argument("--batch-sources", type=int, default=4)
    tr.add_argument("--lr-decoder", type=float, default=1e-3)
    tr.add_argument("--lr-grid", type=float, default=1e-4)
    tr.add_argument("--eval-interval", type=int, default=50)
    tr.add_argument("--seed", type=int, default=0)
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
    ab.add_argument("--n-values", default="2,4,8")
    ab.add_argument("--group", default="distance", choices=["distance", "levels", "decays"])
    ab.add_argument("--epochs", type=int, default=500)
    ab.add_argument("--eval-interval", type=int, default=50)
    ab.add_argument("--seed", type=int, default=0)
    ab.add_argument("--out", required=True)
    add_common(ab)
    ab.set_defaults(func=_cmd_ablate, command="ablate")

    qu = sub.add_parser("query", help="predict parameters for one pair")
    qu.add_argument("--scene", required=True)
    qu.add_argument("--distance", required=True, help="distance checkpoint")
    qu.add_argument("--levels", default=None)
    qu.add_argument("--decays", default=None)
    qu.add_argument("--a", type=_parse_vec, required=True)
    qu.add_argument("--b", type=_parse_vec, required=True)
    qu.add_argument("--out", default=None)
    add_common(qu)
    qu.set_defaults(func=_cmd_query, command="query")

    rn = sub.add_parser("render", help="offline parametric render")
    rn.add_argument("--input", required=True, help="mono input .ir file")
    rn.add_argument("--pi", type=float, default=0.0)
    rn.add_argument("--l-ds", type=float, required=True)
    rn.add_argument("--l-er", type=float, required=True)
    rn.add_argument("--l-lr", type=float, default=None)
    rn.add_argument("--tau-er", type=float, required=True)
    rn.add_argument("--tau-lr", type=float, required=True)
    rn.add_argument("--doa", default="1,0,0")
    rn.add_argument("--layout", default=None, help="speaker layout file (default octahedral)")
    rn.add_argument("--refs-seed", type=int, default=0)
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
    co.add_argument("--dims", type=_parse_dims, required=True)
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
    try:
        return args.func(args)
    except SoundPropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
