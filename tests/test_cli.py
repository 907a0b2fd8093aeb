import argparse
import dataclasses
import inspect
import json
import shutil

import numpy as np
import pytest

import soundprop as sp
from soundprop import fileio, runtime
from soundprop.cli import _load_field_dataset, build_parser, main
from soundprop.oracle import PARAM_KINDS
from soundprop.training import DEFAULT_FAMILY, GROUP_HEADS

from oracles import transient_bytes


def run(args):
    return main(args)


def test_cost_command(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["cost", "--dims", "59x8x59", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "1.8 MB" in out and "3.1 GB" in out
    assert run(["cost", "--dims", "173x8x154", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "14 MB" in out and "182 GB" in out
    csv = tmp_path / "costs.csv"
    assert run(["cost", "--dims", "59x8x59", "--n", "16",
                "--family", "riemann-diag", "--csv", str(csv)]) == 0
    rows = csv.read_text().splitlines()
    assert rows[0] == "family,n,params,flops,rlf_bytes,wavecoding_bytes"
    assert rows[1].startswith("riemann-diag,16,256,")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["cost", "--dims", "59x8x59"])  # missing --n
    assert exc.value.code == 2


def test_domain_error_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", str(scene)])
    ckpt = tmp_path / "model.ckpt"
    bundle = sp.make_bundle(fileio.read_scene(scene)[0], "distance", "euclidean", 2)
    fileio.save_checkpoint(ckpt, bundle)
    # query a point inside an obstacle: domain error, exit code 3
    code = run([
        "query", "--scene", str(scene), "--distance", str(ckpt),
        "--a", "0,0,0", "--b", "4,2,4",
    ])
    assert code == 3


def test_bake_corrupted_scene_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", str(scene)])
    sources = tmp_path / "one.txt"
    sources.write_text("4.0 2.0 4.0\n")
    blob = scene.read_bytes()
    for header, error in ((b"dims=8x4x8", b"dims=8x4"), (b"spacing=", b"spacing\xff"),
                          (b"seed=0", b"seed=0\nwalls"), (b"region.1=0.3", b"region.1=-0.3")):
        assert header in blob
        scene.write_bytes(blob.replace(header, error, 1))
        capsys.readouterr()
        code = run(["bake", "--scene", str(scene), "--sources", str(sources),
                    "--out-dir", str(tmp_path / "fields")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")


def test_eval_corrupted_checkpoint_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", str(scene_path)])
    sources = tmp_path / "one.txt"
    sources.write_text("4.0 2.0 4.0\n")
    run(["bake", "--scene", str(scene_path), "--sources", str(sources),
         "--out-dir", str(tmp_path / "fields")])
    ckpt = tmp_path / "model.ckpt"
    scene, _ = fileio.read_scene(scene_path)
    fileio.save_checkpoint(ckpt, sp.make_bundle(scene, "distance", "euclidean", 2))
    blob = ckpt.read_bytes()
    args = ["eval", "--scene", str(scene_path), "--checkpoint", str(ckpt),
            "--fields", str(tmp_path / "fields"), "--out", str(tmp_path / "m.csv")]
    assert run(args) == 0
    for bad in (blob[:30], blob.replace(b'"group"', b'"grouq"', 1), blob + b"\0"):
        ckpt.write_bytes(bad)
        capsys.readouterr()
        assert run(args) == 3
        assert capsys.readouterr().err.startswith("error: ")


def test_query_checkpoint_of_another_grid_exit_code(tmp_path, capsys, monkeypatch):
    """A checkpoint trained on an 8x4x8 box at spacing 1.0 decodes latents of
    other voxel positions on an 8x4x8 box at spacing 0.5, or with another
    origin: ``query`` refuses it as a format error, like other dims."""
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", str(scene_path)])
    ckpt = tmp_path / "model.ckpt"
    fileio.save_checkpoint(ckpt, sp.make_bundle(fileio.read_scene(scene_path)[0], "distance", "euclidean", 2))
    query = ["query", "--distance", str(ckpt), "--a", "1.2,1,1.3", "--b", "2.1,1.1,2.2"]
    assert run([*query, "--scene", str(scene_path)]) == 0
    fine = tmp_path / "fine.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--spacing", "0.5", "--out", str(fine)])
    moved = tmp_path / "moved.scn"
    blob = scene_path.read_bytes()
    assert b"origin=0.0,0.0,0.0" in blob
    moved.write_bytes(blob.replace(b"origin=0.0,0.0,0.0", b"origin=0.25,0.0,0.0", 1))
    for other in (fine, moved):
        capsys.readouterr()
        assert run([*query, "--scene", str(other)]) == 3
        assert "spacing or origin" in capsys.readouterr().err


def test_query_checkpoint_of_another_group_exit_code(tmp_path, capsys, monkeypatch):
    """A checkpoint given for another group than its own is refused with
    exit 3, as ``--distance`` or as ``--levels``."""
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", str(scene_path)])
    scene = fileio.read_scene(scene_path)[0]
    distance, levels = tmp_path / "distance.ckpt", tmp_path / "levels.ckpt"
    fileio.save_checkpoint(distance, sp.make_bundle(scene, "distance", "euclidean", 2))
    fileio.save_checkpoint(levels, sp.make_bundle(scene, "levels", "euclidean", 2))
    query = ["query", "--scene", str(scene_path), "--a", "1.2,1,1.3", "--b", "2.1,1.1,2.2"]
    assert run([*query, "--distance", str(distance), "--levels", str(levels)]) == 0
    for swapped in (["--distance", str(levels)], ["--distance", str(distance), "--levels", str(distance)]):
        assert "checkpoint holds a" in _exits_3(capsys, [*query, *swapped])


def test_fields_of_another_scene_grid_exit_code(tmp_path, capsys, monkeypatch):
    """Fields baked on an 8x4x8 box at spacing 1.0 do not describe a 9x4x8
    box or an 8x4x8 box at spacing 2.0: ``train`` and ``eval`` on either
    refuse them with exit 3 and write nothing."""
    monkeypatch.chdir(tmp_path)
    _, fields = _baked_box(tmp_path)
    for dims, spacing in (("9x4x8", "1.0"), ("8x4x8", "2.0")):
        other = tmp_path / f"box-{dims}-{spacing}.scn"
        run(["scene", "gen", "--kind", "empty-box", "--dims", dims, "--spacing", spacing, "--out", str(other)])
        ckpt = tmp_path / f"box-{dims}-{spacing}.ckpt"
        fileio.save_checkpoint(ckpt, sp.make_bundle(fileio.read_scene(other)[0], "distance", "euclidean", 2))
        before = set(tmp_path.rglob("*"))
        for args in (["train", "--train-fields", str(fields), "--epochs", "2", "--out", "t.ckpt"],
                     ["eval", "--checkpoint", str(ckpt), "--fields", str(fields), "--out", "e.csv"]):
            assert "another scene grid" in _exits_3(capsys, [*args, "--scene", str(other)])
        assert set(tmp_path.rglob("*")) == before


def test_scene_gen_and_bake_single_source(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    assert run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8",
                "--out", str(scene_path)]) == 0
    assert scene_path.exists()
    manifest = json.loads((tmp_path / "box.scn.manifest.json").read_text())
    assert manifest["command"] == "scene gen"
    assert manifest["outputs"][str(scene_path)] == fileio.sha256_file(scene_path)

    sources = tmp_path / "one.txt"
    sources.write_text("4.0 2.0 4.0\n")
    out_dir = tmp_path / "fields"
    assert run(["bake", "--scene", str(scene_path), "--sources", str(sources),
                "--out-dir", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.glob("*.fld"))
    assert files == [
        "src000_l_ds.fld",
        "src000_l_er.fld",
        "src000_pi.fld",
        "src000_tau_er.fld",
        "src000_tau_lr.fld",
    ]


def test_bake_writes_one_field_per_parameter(tmp_path):
    """``bake`` writes one file per source and ``PARAM_KINDS`` entry, each
    holding a field of that entry's kind."""
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", str(scene_path)])
    sources = tmp_path / "two.txt"
    sources.write_text("4.0 2.0 4.0\n1.0 1.0 6.0\n")
    assert run(["bake", "--scene", str(scene_path), "--sources", str(sources),
                "--out-dir", str(tmp_path / "fields")]) == 0
    files = {p.name: fileio.read_field(p).kind for p in (tmp_path / "fields").glob("*.fld")}
    assert files == {f"src{i:03d}_{name}.fld": kind for i in (0, 1) for name, kind in PARAM_KINDS.items()}


def test_full_pipeline_smoke(tmp_path, monkeypatch):
    """gen -> sample -> bake -> train -> eval on the aperture scene."""
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "ap.scn"
    assert run(["scene", "gen", "--kind", "wall-with-aperture", "--dims", "10x4x10",
                "--out", str(scene_path)]) == 0
    splits = tmp_path / "splits"
    assert run(["sources", "sample", "--scene", str(scene_path), "--seed", "2",
                "--out", str(splits), "--splits", "0.6,0.2,0.2", "--runs", "2"]) == 0
    for name in ("train", "val", "test"):
        assert (splits / f"sources_{name}.txt").exists()
    for name in ("train", "val", "test"):
        assert run(["bake", "--scene", str(scene_path),
                    "--sources", str(splits / f"sources_{name}.txt"),
                    "--out-dir", str(tmp_path / f"f{name}")]) == 0
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "train.csv"
    assert run(["train", "--scene", str(scene_path),
                "--train-fields", str(tmp_path / "ftrain"),
                "--val-fields", str(tmp_path / "fval"),
                "--family", "riemann-diag", "--n", "4",
                "--epochs", "120", "--eval-interval", "40",
                "--out", str(ckpt), "--log", str(log)]) == 0
    assert ckpt.exists()
    header = log.read_text().splitlines()[0]
    assert header == "epoch,group,train_loss,val_mae"
    metrics = tmp_path / "metrics.csv"
    assert run(["eval", "--scene", str(scene_path), "--checkpoint", str(ckpt),
                "--fields", str(tmp_path / "ftest"), "--out", str(metrics)]) == 0
    rows = metrics.read_text().splitlines()
    assert rows[0] == "family,n,param,mae"
    mae = float(rows[1].split(",")[-1])
    assert np.isfinite(mae)


def test_sources_sample_single_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8",
         "--out", str(scene_path)])
    out = tmp_path / "sources.txt"
    assert run(["sources", "sample", "--scene", str(scene_path), "--seed", "1",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 20  # open box: the initial batch already covers


def test_ablate_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8",
         "--out", str(scene_path)])
    sources = tmp_path / "s.txt"
    sources.write_text("4.0 2.0 4.0\n2.0 1.0 2.0\n5.0 2.0 3.0\n")
    run(["bake", "--scene", str(scene_path), "--sources", str(sources),
         "--out-dir", str(tmp_path / "fields")])
    out = tmp_path / "ablation.csv"
    assert run(["ablate", "--scene", str(scene_path),
                "--train-fields", str(tmp_path / "fields"),
                "--val-fields", str(tmp_path / "fields"),
                "--test-fields", str(tmp_path / "fields"),
                "--families", "euclidean", "--n-values", "2,3",
                "--epochs", "30", "--eval-interval", "30",
                "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("family,n,param,mae")
    assert len(rows) == 3  # header + one row per latent size
    for row in rows[1:]:
        assert row.split(",")[-1] == ""  # no cell errors


def test_ablate_without_evals_scores_each_final_model(tmp_path, monkeypatch):
    """With ``--eval-interval 0`` nothing is evaluated during training, and
    each cell reports the test MAE of the model its training ends with."""
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "6x3x6", "--out", str(scene_path)])
    (tmp_path / "s.txt").write_text("1.0 1.0 1.0\n4.0 1.0 3.0\n2.0 1.0 4.0\n")
    run(["bake", "--scene", str(scene_path), "--sources", "s.txt", "--out-dir", "fields"])
    assert run(["ablate", "--scene", str(scene_path), "--train-fields", "fields",
                "--val-fields", "fields", "--test-fields", "fields", "--families", "euclidean",
                "--n-values", "2", "--epochs", "3", "--eval-interval", "0", "--out", "a.csv"]) == 0
    header, *rows = [line.split(",") for line in (tmp_path / "a.csv").read_text().splitlines()]
    assert [row[header.index("error")] for row in rows] == [""]
    scene = fileio.read_scene(scene_path)[0]
    ds = _load_field_dataset(scene, tmp_path / "fields", "train", "distance")
    bundle = sp.make_bundle(scene, "distance", "euclidean", 2)
    sp.train(bundle, ds, sp.TrainConfig(epochs=3, eval_interval=0))
    assert float(rows[0][header.index("mae")]) == sp.evaluate_mae(bundle, ds)["pi"]


def test_train_byte_identical_and_periodic_checkpoints(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8",
         "--out", str(scene_path)])
    sources = tmp_path / "s.txt"
    sources.write_text("4.0 2.0 4.0\n2.0 1.0 2.0\n5.0 2.0 3.0\n")
    run(["bake", "--scene", str(scene_path), "--sources", str(sources),
         "--out-dir", str(tmp_path / "fields")])
    for tag in ("a", "b"):
        assert run(["train", "--scene", str(scene_path),
                    "--train-fields", str(tmp_path / "fields"),
                    "--val-fields", str(tmp_path / "fields"),
                    "--family", "euclidean", "--n", "3", "--epochs", "40",
                    "--eval-interval", "20", "--seed", "9",
                    "--dump-checkpoints", str(tmp_path / f"cks_{tag}"),
                    "--out", str(tmp_path / f"model_{tag}.ckpt")]) == 0
    assert (tmp_path / "model_a.ckpt").read_bytes() == (tmp_path / "model_b.ckpt").read_bytes()
    dumps = sorted(p.name for p in (tmp_path / "cks_a").glob("*.ckpt"))
    assert dumps == ["epoch000020.ckpt", "epoch000040.ckpt"]


def test_bake_deterministic_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8",
         "--out", str(scene_path)])
    sources = tmp_path / "s.txt"
    sources.write_text("4.0 2.0 4.0\n2.0 1.0 2.0\n")
    for d in ("a", "b"):
        run(["bake", "--scene", str(scene_path), "--sources", str(sources),
             "--out-dir", str(tmp_path / d)])
    for f in sorted((tmp_path / "a").glob("*.fld")):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_bake_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8",
         "--out", str(scene_path)])
    sources = tmp_path / "s.txt"
    sources.write_text("4.0 2.0 4.0\n2.0 1.0 2.0\n5.0 2.0 3.0\n")
    run(["bake", "--scene", str(scene_path), "--sources", str(sources),
         "--out-dir", str(tmp_path / "serial")])
    run(["bake", "--scene", str(scene_path), "--sources", str(sources),
         "--out-dir", str(tmp_path / "par"), "--workers", "2"])
    for f in sorted((tmp_path / "serial").glob("*.fld")):
        assert f.read_bytes() == (tmp_path / "par" / f.name).read_bytes()


def test_params_extract_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    truth = sp.AcousticParamSet(pi=6.86, l_ds=-8.0, l_er=-14.0, tau_er=0.4, tau_lr=1.0)
    ir = sp.synth_ir(truth, seed=3)
    path = tmp_path / "x.ir"
    fileio.write_ir(path, ir.samples, ir.sample_rate, ir.t0)
    assert run(["params", "extract", "--ir", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pi,l_ds,l_er,l_lr,tau_er,tau_lr"
    vals = dict(zip(out[0].split(","), (float(v) for v in out[1].split(","))))
    assert vals["pi"] == pytest.approx(6.86, abs=343.0 / ir.sample_rate)
    assert vals["l_ds"] == pytest.approx(-8.0, abs=0.5)
    assert vals["tau_lr"] == pytest.approx(1.0, rel=0.05)


def test_export_slice(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(8, 4, 8)))
    geo = sp.geodesic_field(scene, scene.voxel_center((4, 2, 4)))
    field_path = tmp_path / "pi.fld"
    fileio.write_field(field_path, geo)
    out = tmp_path / "slice.pgm"
    assert run(["export-slice", "--field", str(field_path), "--y-meters", "2.0",
                "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"P5\n8 8\n255\n")
    manifest = json.loads((tmp_path / "slice.pgm.manifest.json").read_text())
    assert manifest["config"]["normalization"]["y_index"] == 2


def test_render_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    imp = np.zeros(800)
    imp[0] = 1.0
    ir_path = tmp_path / "imp.ir"
    fileio.write_ir(ir_path, imp, 8000.0)
    out = tmp_path / "rendered.ir"
    assert run(["render", "--input", str(ir_path), "--l-ds", "-6", "--l-er", "-12",
                "--tau-er", "0.3", "--tau-lr", "0.9", "--doa", "0,1,0",
                "--out", str(out)]) == 0
    samples, rate, _ = fileio.read_ir(out)
    assert rate == 8000.0
    assert samples.shape[0] == 6  # octahedral default layout
    assert np.sum(samples**2) > 0


def test_render_corrupted_input_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ir_path = tmp_path / "imp.ir"
    fileio.write_ir(ir_path, np.ones(64), 8000.0)
    blob = ir_path.read_bytes()
    for bad in (blob[:-2], blob.replace(b"sample_rate=", b"sample_rate", 1),
                blob.replace(b"channels=1", b"channels=0", 1)):
        ir_path.write_bytes(bad)
        capsys.readouterr()
        code = run(["render", "--input", str(ir_path), "--l-ds", "-6", "--l-er", "-12",
                    "--tau-er", "0.3", "--tau-lr", "0.9", "--doa", "0,1,0",
                    "--out", str(tmp_path / "out.ir")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("bad", [["--l-er", "nan"], ["--tau-lr", "nan"], ["--l-lr", "nan"],
                                 ["--l-ds", "1e308"], ["--l-lr", "1e308"]])
def test_render_non_finite_parameters_exit_code(tmp_path, capsys, monkeypatch, bad):
    monkeypatch.chdir(tmp_path)
    ir_path = tmp_path / "imp.ir"
    fileio.write_ir(ir_path, np.eye(1, 64)[0], 8000.0)
    args = {"--l-ds": "-6", "--l-er": "-12", "--tau-er": "0.3", "--tau-lr": "0.9"}
    args[bad[0]] = bad[1]
    out = tmp_path / "out.ir"
    _exits_3(capsys, ["render", "--input", str(ir_path), *(s for kv in args.items() for s in kv),
                      "--doa", "0,1,0", "--out", str(out)])
    assert not out.exists()


def test_render_that_overflows_float32_exit_code(tmp_path, capsys, monkeypatch):
    """A render whose samples overflow float32 is refused before any file is
    written, rather than written as an IR that ``read_ir`` rejects."""
    monkeypatch.chdir(tmp_path)
    fileio.write_ir(tmp_path / "dry.ir", np.random.default_rng(0).normal(size=400), 8000.0)
    err = _exits_3(capsys, ["render", "--input", "dry.ir", "--l-ds=900", "--l-er=-20", "--tau-er=0.3",
                            "--tau-lr=1.0", "--doa=0,0,1", "--out", "big.ir"])
    assert "not finite" in err
    assert not (tmp_path / "big.ir").exists()
    assert not (tmp_path / "big.ir.manifest.json").exists()


RENDER_ARGS = ["--l-ds=-6", "--l-er=-12", "--tau-er=0.3", "--tau-lr=0.9", "--doa=0.6,0,0.8"]


def test_render_that_fails_leaves_the_earlier_output(tmp_path, capsys, monkeypatch):
    """A render refused part way through its write, for a sample that
    overflows float32, leaves the file an earlier render wrote at
    ``--out``, and its manifest, byte for byte, and no other file."""
    monkeypatch.chdir(tmp_path)
    fileio.write_ir("dry.ir", np.random.default_rng(0).normal(size=400), 8000.0)
    assert run(["render", "--input", "dry.ir", *RENDER_ARGS, "--out", "out.ir"]) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert {"dry.ir", "out.ir"} < set(before)
    err = _exits_3(capsys, ["render", "--input", "dry.ir", *RENDER_ARGS, "--l-ds=900", "--out", "out.ir"])
    assert "not finite" in err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("frames", [6000, runtime._BLOCK_FRAMES, 3 * runtime._BLOCK_FRAMES + 17],
                         ids=["under-one-block", "one-block", "several-blocks"])
def test_render_file_is_write_ir_of_render_offline(tmp_path, monkeypatch, frames):
    """The CLI makes and writes a render a block of frames at a time, and
    its file is byte-identical to ``write_ir`` of ``render_offline``."""
    monkeypatch.chdir(tmp_path)
    rate = 1000.0
    refs = runtime.default_reference_irs(sample_rate=rate, seed=0)
    longest = max(ir.samples.size for ir in (*refs.er_irs, *refs.lr_irs))
    fileio.write_ir("dry.ir", np.random.default_rng(5).normal(size=frames - longest + 1), rate, 0.25)
    assert run(["render", "--input", "dry.ir", *RENDER_ARGS, "--out", "cli.ir"]) == 0
    pset = sp.AcousticParamSet(pi=0.0, l_ds=-6.0, l_er=-12.0, tau_er=0.3, tau_lr=0.9, doa=(0.6, 0.0, 0.8))
    x = fileio.read_ir_mono("dry.ir").samples
    out = sp.render_offline(x, runtime.render_params(pset, refs), refs, sp.octahedral_layout())
    assert out.shape == (6, frames)
    fileio.write_ir("lib.ir", out, rate, 0.25)
    assert (tmp_path / "cli.ir").read_bytes() == (tmp_path / "lib.ir").read_bytes()


def test_render_holds_no_copy_of_its_output(tmp_path, monkeypatch):
    """A 0.5 s input at 16 kHz renders to (6, 94 399) frames, 4.5 MB as
    float64. The CLI renders it with under 5.2 MB of transient memory, the
    reference tails and the wet convolution included; making the whole
    array and then writing it took 7.2 MB."""
    monkeypatch.chdir(tmp_path)
    fileio.write_ir("dry.ir", 0.1 * np.random.default_rng(0).normal(size=8000), 16000.0)
    codes = []
    peak = transient_bytes(lambda: codes.append(run(["render", "--input", "dry.ir", *RENDER_ARGS,
                                                     "--out", "r.ir"])))
    assert codes == [0] and fileio.read_ir("r.ir")[0].shape == (6, 94_399)
    assert peak < 5_200_000


def _three_source_box(tmp_path) -> None:
    """A 6x3x6 box, ``box.scn``, and the fields of three sources in ``fields``."""
    run(["scene", "gen", "--kind", "empty-box", "--dims", "6x3x6", "--out", str(tmp_path / "box.scn")])
    (tmp_path / "s.txt").write_text("1.0 1.0 1.0\n4.0 1.0 3.0\n2.0 1.0 4.0\n")
    run(["bake", "--scene", str(tmp_path / "box.scn"), "--sources", str(tmp_path / "s.txt"),
         "--out-dir", str(tmp_path / "fields")])


def _group_commands(group: str, fields: str, tag: str) -> list:
    """A ``train``, an ``eval`` of ``model.ckpt`` and an ``ablate`` of
    ``group`` on the fields in ``fields``, writing files tagged ``tag``."""
    family = DEFAULT_FAMILY[group]
    return [
        ["train", "--scene", "box.scn", "--train-fields", fields, "--val-fields", fields, "--group", group,
         "--family", family, "--n", "3", "--epochs", "4", "--eval-interval", "2",
         "--out", f"{tag}.ckpt", "--log", f"{tag}.csv"],
        ["eval", "--scene", "box.scn", "--checkpoint", "model.ckpt", "--fields", fields,
         "--out", f"{tag}_mae.csv"],
        ["ablate", "--scene", "box.scn", "--train-fields", fields, "--val-fields", fields,
         "--test-fields", fields, "--group", group, "--families", family, "--n-values", "2",
         "--epochs", "3", "--eval-interval", "3", "--out", f"{tag}_ablate.csv"],
    ]


@pytest.mark.parametrize("group", list(GROUP_HEADS))
def test_group_commands_read_only_their_group_fields(tmp_path, monkeypatch, group):
    """``train``, ``eval`` and ``ablate`` write the same bytes with the
    other groups' field files deleted."""
    monkeypatch.chdir(tmp_path)
    _three_source_box(tmp_path)
    scene = fileio.read_scene("box.scn")[0]
    fileio.save_checkpoint("model.ckpt", sp.make_bundle(scene, group, DEFAULT_FAMILY[group], 3, seed=2))
    shutil.copytree("fields", "own")
    for path in (tmp_path / "own").iterdir():
        if not any(path.name.endswith(f"_{name}.fld") for name in GROUP_HEADS[group]):
            path.unlink()
    for fields in ("fields", "own"):
        for args in _group_commands(group, fields, tag=fields):
            assert run(args) == 0
    for suffix in (".ckpt", ".csv", "_mae.csv", "_ablate.csv"):
        assert (tmp_path / f"fields{suffix}").read_bytes() == (tmp_path / f"own{suffix}").read_bytes()


@pytest.mark.parametrize("group, name", [(g, n) for g in ("levels", "decays") for n in GROUP_HEADS[g]])
def test_group_commands_missing_a_group_field_exit_code(tmp_path, capsys, monkeypatch, group, name):
    """A source with a file of one of the group's parameters but not the
    other is an input error for ``train``, ``eval`` and ``ablate``: exit 3.
    (The distance group has one parameter, so its missing file is a
    missing source.)"""
    monkeypatch.chdir(tmp_path)
    _three_source_box(tmp_path)
    scene = fileio.read_scene("box.scn")[0]
    fileio.save_checkpoint("model.ckpt", sp.make_bundle(scene, group, DEFAULT_FAMILY[group], 3, seed=2))
    (tmp_path / "fields" / f"src001_{name}.fld").unlink()
    for args in _group_commands(group, "fields", tag="out"):
        assert f"src001_{name}.fld" in _exits_3(capsys, args)
    assert not list(tmp_path.glob("out*"))


def test_two_names_of_one_source_number_exit_code(tmp_path, capsys, monkeypatch):
    """``src0_*`` and ``src000_*`` name one source number, so their load
    order is not defined: ``train``, ``eval`` and ``ablate`` refuse them
    (exit 3) instead of loading them in a hash-seed-dependent order."""
    monkeypatch.chdir(tmp_path)
    _three_source_box(tmp_path)
    scene = fileio.read_scene("box.scn")[0]
    fileio.save_checkpoint("model.ckpt", sp.make_bundle(scene, "distance", "euclidean", 3, seed=2))
    for path in (tmp_path / "fields").glob("src001_*"):
        path.rename(path.with_name(path.name.replace("src001_", "src0_")))
    for args in _group_commands("distance", "fields", tag="out"):
        assert "share source number 0" in _exits_3(capsys, args)
    assert not list(tmp_path.glob("out*"))


def test_train_family_defaults_to_the_group_family(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", str(scene_path)])
    sources = tmp_path / "s.txt"
    sources.write_text("4.0 2.0 4.0\n2.0 1.0 2.0\n")
    run(["bake", "--scene", str(scene_path), "--sources", str(sources),
         "--out-dir", str(tmp_path / "fields")])
    scene, _ = fileio.read_scene(scene_path)
    for group, family in (("decays", "dot-product"), ("distance", "euclidean")):
        out = tmp_path / f"{group}.ckpt"
        assert run(["train", "--scene", str(scene_path), "--train-fields", str(tmp_path / "fields"),
                    "--group", group, "--n", "3", "--epochs", "2", "--eval-interval", "0",
                    "--out", str(out)]) == 0
        assert fileio.load_checkpoint(out, scene).head.decoder.family == family
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["config"]["family"] == family


def test_query_command_reciprocal(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8",
         "--out", str(scene_path)])
    scene, _ = fileio.read_scene(scene_path)
    bundle = sp.make_bundle(scene, "distance", "euclidean", 3, seed=0)
    ckpt = tmp_path / "model.ckpt"
    fileio.save_checkpoint(ckpt, bundle)
    capsys.readouterr()  # drop the scene-gen output
    assert run(["query", "--scene", str(scene_path), "--distance", str(ckpt),
                "--a", "2,1.5,2", "--b", "5,2,5"]) == 0
    fwd = json.loads(capsys.readouterr().out)
    assert run(["query", "--scene", str(scene_path), "--distance", str(ckpt),
                "--a", "5,2,5", "--b", "2,1.5,2"]) == 0
    bwd = json.loads(capsys.readouterr().out)
    assert fwd["pi"] == bwd["pi"]
    assert len(fwd["doa"]) == 3


def test_field_sets_load_in_numeric_source_order(tmp_path):
    from soundprop.errors import InputError

    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(6, 4, 6)))
    names = ["src099", "src100", "src101", "src1000"]
    sources = [scene.voxel_center(idx) for idx in ((1, 1, 1), (2, 1, 1), (1, 2, 3), (4, 2, 4))]
    for name, src in zip(names, sources):
        for field_name, fv in sp.bake_source(scene, src).items():
            fileio.write_field(tmp_path / f"{name}_{field_name}.fld", fv)
    ds = _load_field_dataset(scene, tmp_path, "train", "distance")
    assert [tuple(s) for s in ds.sources] == [tuple(s) for s in sources]

    (tmp_path / "srcx_pi.fld").write_bytes(b"")
    with pytest.raises(InputError):
        _load_field_dataset(scene, tmp_path, "train", "distance")


def _baked_box(tmp_path):
    """An 8x4x8 box scene and the baked fields of one source in it."""
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", str(scene_path)])
    sources = tmp_path / "one.txt"
    sources.write_text("4.0 2.0 4.0\n")
    run(["bake", "--scene", str(scene_path), "--sources", str(sources),
         "--out-dir", str(tmp_path / "fields")])
    return scene_path, tmp_path / "fields"


def _exits_3(capsys, args) -> str:
    capsys.readouterr()
    assert run(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


def test_empty_field_directory_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path, _ = _baked_box(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    ckpt = tmp_path / "model.ckpt"
    fileio.save_checkpoint(ckpt, sp.make_bundle(fileio.read_scene(scene_path)[0], "distance", "euclidean", 2))
    _exits_3(capsys, ["train", "--scene", str(scene_path), "--train-fields", str(empty),
                      "--epochs", "2", "--out", str(tmp_path / "t.ckpt")])
    _exits_3(capsys, ["eval", "--scene", str(scene_path), "--checkpoint", str(ckpt),
                      "--fields", str(empty), "--out", str(tmp_path / "m.csv")])
    assert not (tmp_path / "t.ckpt").exists() and not (tmp_path / "m.csv").exists()


def test_sources_sample_empty_pool_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", str(scene_path)])
    _exits_3(capsys, ["sources", "sample", "--scene", str(scene_path), "--splits", "0.6,0.2,0.2",
                      "--runs", "0", "--out", str(tmp_path / "splits")])
    assert not (tmp_path / "splits").exists()


@pytest.mark.parametrize("line", ["1.0 2.0", "a b c", "1 1 1 junk", "4.0 nan 4.0"])
def test_bake_malformed_sources_exit_code(tmp_path, capsys, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    scene_path, _ = _baked_box(tmp_path)
    sources = tmp_path / "bad.txt"
    sources.write_text(f"4.0 2.0 4.0\n{line}\n")
    _exits_3(capsys, ["bake", "--scene", str(scene_path), "--sources", str(sources),
                      "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("args", [
    ["sources", "sample", "--scene", "x.scn", "--out", "o", "--splits", "0.6,x,0.2"],
    ["sources", "sample", "--scene", "x.scn", "--out", "o", "--splits", "0.6,0.4"],
    ["sources", "sample", "--scene", "x.scn", "--out", "o", "--splits", "0.6,0.2,0.2,0"],
    ["ablate", "--scene", "x.scn", "--train-fields", "t", "--val-fields", "v",
     "--test-fields", "s", "--n-values", "2,x", "--out", "o"],
    ["render", "--input", "x.ir", "--l-ds", "-6", "--l-er", "-12", "--tau-er", "0.3",
     "--tau-lr", "0.9", "--doa", "1,0", "--out", "o"],
    ["render", "--input", "x.ir", "--l-ds", "-6", "--l-er", "-12", "--tau-er", "0.3",
     "--tau-lr", "0.9", "--doa", "1,0,x", "--out", "o"],
])
def test_malformed_list_arguments_are_usage_errors(args):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [("--lr-grid", "-1"), ("--lr-grid", "nan"),
                                        ("--lr-decoder", "inf"), ("--eval-interval", "-5")])
def test_train_bad_hyper_parameters_exit_code(tmp_path, capsys, monkeypatch, flag, value):
    """Gradient ascent, an infinite step or a negative evaluation interval
    is a configuration error before any training."""
    monkeypatch.chdir(tmp_path)
    scene_path, fields = _baked_box(tmp_path)
    out = tmp_path / "t.ckpt"
    _exits_3(capsys, ["train", "--scene", str(scene_path), "--train-fields", str(fields),
                      "--epochs", "2", flag, value, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("family", ["euclidean", "riemann-diag", "riemann-psd", "mlp"])
def test_train_non_positive_latent_size_exit_code(tmp_path, capsys, monkeypatch, family):
    monkeypatch.chdir(tmp_path)
    scene_path, fields = _baked_box(tmp_path)
    out = tmp_path / "t.ckpt"
    _exits_3(capsys, ["train", "--scene", str(scene_path), "--train-fields", str(fields),
                      "--family", family, "--n", "-1", "--epochs", "2", "--out", str(out)])
    assert not out.exists()


def test_export_slice_outside_the_field_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, fields = _baked_box(tmp_path)
    out = tmp_path / "slice.pgm"
    for flag, value in (("--y-index", "99"), ("--y-index", "-1"), ("--y-index", "4"),
                        ("--y-meters", "99"), ("--y-meters", "-1")):
        err = _exits_3(capsys, ["export-slice", "--field", str(fields / "src000_pi.fld"),
                                flag, value, "--out", str(out)])
        assert "outside" in err
    assert not out.exists()
    assert run(["export-slice", "--field", str(fields / "src000_pi.fld"),
                "--y-index", "2", "--out", str(out)]) == 0


def test_corrupted_inputs_exit_code(tmp_path, capsys, monkeypatch):
    """``sources sample``, ``train``, ``query``, ``export-slice`` and
    ``params extract`` on a corrupted scene, field, checkpoint or IR file."""
    monkeypatch.chdir(tmp_path)
    scene_path, fields = _baked_box(tmp_path)
    scene = fileio.read_scene(scene_path)[0]
    ckpt = tmp_path / "model.ckpt"
    fileio.save_checkpoint(ckpt, sp.make_bundle(scene, "distance", "euclidean", 2))
    ir = sp.synth_ir(sp.AcousticParamSet(pi=6.86, l_ds=-8.0, l_er=-14.0, tau_er=0.4, tau_lr=1.0),
                     seed=3)
    ir_path = tmp_path / "x.ir"
    fileio.write_ir(ir_path, ir.samples, ir.sample_rate, ir.t0)

    bad_scene = tmp_path / "bad.scn"
    bad_scene.write_bytes(scene_path.read_bytes().replace(b"dims=8x4x8", b"dims=8x4", 1))
    _exits_3(capsys, ["sources", "sample", "--scene", str(bad_scene), "--out", str(tmp_path / "s.txt")])

    field = fields / "src000_pi.fld"
    field.write_bytes(field.read_bytes()[:-8])
    _exits_3(capsys, ["train", "--scene", str(scene_path), "--train-fields", str(fields),
                      "--epochs", "2", "--out", str(tmp_path / "t.ckpt")])
    _exits_3(capsys, ["export-slice", "--field", str(field), "--out", str(tmp_path / "s.pgm")])

    ckpt.write_bytes(ckpt.read_bytes()[:30])
    _exits_3(capsys, ["query", "--scene", str(scene_path), "--distance", str(ckpt),
                      "--a", "2,1.5,2", "--b", "5,2,5"])

    ir_path.write_bytes(ir_path.read_bytes()[:-2])
    _exits_3(capsys, ["params", "extract", "--ir", str(ir_path)])


@pytest.mark.parametrize("command", ["render", "query", "bake-scene", "bake-sources"])
def test_missing_input_file_exit_code(tmp_path, capsys, monkeypatch, command):
    """An input path that cannot be read is an input error: exit 3, an
    ``error:`` line naming the path, and no manifest."""
    monkeypatch.chdir(tmp_path)
    scene_path, _ = _baked_box(tmp_path)
    missing = str(tmp_path / "missing.file")
    args = {
        "render": ["render", "--input", missing, "--l-ds", "-6", "--l-er", "-12",
                   "--tau-er", "0.3", "--tau-lr", "0.9", "--out", "o.ir"],
        "query": ["query", "--scene", str(scene_path), "--distance", missing,
                  "--a", "2,1.5,2", "--b", "5,2,5", "--out", "q.json"],
        "bake-scene": ["bake", "--scene", missing, "--sources", str(tmp_path / "one.txt"),
                       "--out-dir", "baked"],
        "bake-sources": ["bake", "--scene", str(scene_path), "--sources", missing,
                         "--out-dir", "baked"],
    }[command]
    before = set(tmp_path.rglob("*"))
    assert missing in _exits_3(capsys, args)
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("bad", [
    ["--families", "nope"],
    ["--families", "euclidean,nope"],
    ["--n-values", "0"],
    ["--n-values", "2,-1"],
    ["--group", "decays", "--families", "euclidean"],
])
def test_ablate_configuration_no_cell_can_train_exit_code(tmp_path, capsys, monkeypatch, bad):
    """A family the group cannot use or a latent size below 1 is refused
    before any training: exit 3, no CSV and no manifest."""
    monkeypatch.chdir(tmp_path)
    scene_path, fields = _baked_box(tmp_path)
    before = set(tmp_path.rglob("*"))
    _exits_3(capsys, ["ablate", "--scene", str(scene_path), "--train-fields", str(fields),
                      "--val-fields", str(fields), "--test-fields", str(fields),
                      "--epochs", "2", "--eval-interval", "2", "--out", "ablation.csv", *bad])
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("args", [
    ["scene", "gen", "--kind", "maze", "--seed", "-1", "--out", "o.scn"],
    ["scene", "gen", "--kind", "cylinder-forest", "--seed", "-1", "--out", "o.scn"],
    ["sources", "sample", "--scene", "x.scn", "--seed", "-1", "--out", "o"],
    ["train", "--scene", "x.scn", "--train-fields", "t", "--seed", "-1", "--out", "o"],
    ["ablate", "--scene", "x.scn", "--train-fields", "t", "--val-fields", "v",
     "--test-fields", "s", "--seed", "-1", "--out", "o"],
    ["render", "--input", "x.ir", "--l-ds", "-6", "--l-er", "-12", "--tau-er", "0.3",
     "--tau-lr", "0.9", "--refs-seed", "-1", "--out", "o"],
])
def test_negative_seeds_are_usage_errors(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_render_manifest_records_doa_as_a_list(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fileio.write_ir(tmp_path / "imp.ir", np.eye(1, 64)[0], 8000.0)
    assert run(["render", "--input", "imp.ir", "--l-ds", "-6", "--l-er", "-12",
                "--tau-er", "0.3", "--tau-lr", "0.9", "--doa", "0,1,0", "--out", "r.ir"]) == 0
    manifest = json.loads((tmp_path / "r.ir.manifest.json").read_text())
    assert manifest["config"]["doa"] == [0.0, 1.0, 0.0]


def test_sources_sample_negative_split_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", str(scene_path)])
    _exits_3(capsys, ["sources", "sample", "--scene", str(scene_path), "--splits", "2,-0.5,-0.5",
                      "--runs", "1", "--out", str(tmp_path / "splits")])
    assert not (tmp_path / "splits").exists()


@pytest.mark.parametrize("dims", ["6x4x6", "6x4x20"])
def test_small_cylinder_forest_exit_code(tmp_path, capsys, monkeypatch, dims):
    monkeypatch.chdir(tmp_path)
    _exits_3(capsys, ["scene", "gen", "--kind", "cylinder-forest", "--dims", dims, "--out", "f.scn"])
    assert list(tmp_path.iterdir()) == []  # neither the scene nor a manifest


@pytest.mark.parametrize("args", [["--kind", "cylinder-forest", "--n-cylinders", "-3"],
                                  ["--kind", "wall-with-aperture", "--aperture", "-3"],
                                  ["--kind", "coupled-rooms", "--door", "-3"]])
def test_negative_scene_sizes_exit_code(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    _exits_3(capsys, ["scene", "gen", *args, "--dims", "8x4x8", "--out", "s.scn"])
    assert list(tmp_path.iterdir()) == []  # neither the scene nor a manifest


@pytest.mark.parametrize("kind,option", [
    ("empty-box", "--n-cylinders"),
    ("maze", "--aperture"),
    ("wall-with-aperture", "--door"),
    ("coupled-rooms", "--aperture"),
    ("cylinder-forest", "--door"),
])
def test_scene_gen_rejects_a_geometry_option_its_kind_ignores(tmp_path, capsys, monkeypatch, kind, option):
    """A geometry option that the kind's builder does not read is a usage
    error, not a manifest entry; the kind's own option is still read."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["scene", "gen", "--kind", kind, "--dims", "8x4x8", option, "2", "--out", "s.scn"])
    assert exc.value.code == 2
    assert f"{option} does not apply to --kind {kind}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    own = {"wall-with-aperture": "--aperture", "coupled-rooms": "--door", "cylinder-forest": "--n-cylinders"}
    extra = [own[kind], "2"] if kind in own else []
    assert run(["scene", "gen", "--kind", kind, "--dims", "8x4x8", *extra, "--out", "s.scn"]) == 0


@pytest.mark.parametrize("workers", ["-5", "0", "two"])
def test_bake_workers_must_be_a_positive_integer(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["bake", "--scene", "x.scn", "--sources", "s.txt", "--out-dir", "f", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# Every subcommand's option strings. A new option shows up here as a
# reviewed change; ``bake --workers`` is kept for the callers that pass it.
OPTIONS = {
    "scene gen": "--aperture --dims --door --kind --manifest --n-cylinders --out --seed --spacing",
    "sources sample": "--manifest --out --runs --scene --seed --splits",
    "bake": "--manifest --out-dir --scene --sources --workers",
    "train": "--batch-sources --dump-checkpoints --epochs --eval-interval --family --group --log "
             "--lr-decoder --lr-grid --manifest --n --out --scene --seed --train-fields --val-fields",
    "eval": "--checkpoint --fields --manifest --out --scene",
    "ablate": "--epochs --eval-interval --families --group --manifest --n-values --out --scene --seed "
              "--test-fields --train-fields --val-fields",
    "query": "--a --b --decays --distance --levels --manifest --out --scene",
    "render": "--doa --input --l-ds --l-er --l-lr --layout --manifest --out --refs-seed --tau-er --tau-lr",
    "export-slice": "--field --manifest --out --y-index --y-meters",
    "params extract": "--ir --manifest --out",
    "cost": "--csv --dims --family --manifest --n --out",
}


def _subcommand_options(parser, prefix=()):
    """(subcommand, sorted option strings without ``--help``) per leaf parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommand_options(sub, prefix + (name,))
            return
    options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    yield " ".join(prefix), " ".join(sorted(options))


def test_option_census():
    assert dict(_subcommand_options(build_parser())) == OPTIONS


# The public names of the package, submodules aside. A helper that only
# tests call belongs in ``tests/oracles.py``, so a name added here is a
# reviewed change.
PUBLIC_SURFACE = """
AcousticParamSet Adam ConfigurationError CostReport Dataset DegenerateGradientError
DivergenceError FieldVolume FormatError ImpulseResponse InputError InterpBatch LatentGrid
ModelBundle NoArrivalError ReferenceIRSet RegionAcoustics RenderParams SceneSpec
SoundPropError SpeakerLayout TrainConfig UndefinedDecayError VoxelScene ablation_run
arrival_and_distance bake_source build_dataset build_scene cost_report decay_time
default_reference_irs derive_l_lr doa_field doa_from_samples dry_gain evaluate_mae
extract_params fd_derivative geodesic_field init_latent_grid interp_points level_lr_matched
lines_of_sight mae_field make_bundle make_distance_decoder make_splits octahedral_layout
predict_fields query_params render_offline sample_sources schroeder_curve spatialize_wet
synth_acoustic_fields synth_ir train vbap_gains wet_weights window_level
""".split()


def test_public_surface_census():
    found = sorted(name for name, value in vars(sp).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert found == PUBLIC_SURFACE


# The settable values of library entry points that no CLI option reaches:
# the training config's fields and these functions' parameters. The IR
# analysis windows, the synthetic IR's rate, clock and speed of sound, and
# the stop-gradient are constants, so a setting shows up here as a
# reviewed change.
SETTINGS = {
    "TrainConfig": "batch_sources epochs eval_interval lr_decoder lr_grid seed",
    "arrival_and_distance": "ir",
    "extract_params": "ir",
    "level_lr_matched": "ir t_ds",
    "derive_l_lr": "l_er tau_er",
    "render_params": "params refs",
    "synth_ir": "params seed",
}


def test_settings_census():
    functions = [sp.arrival_and_distance, sp.extract_params, sp.level_lr_matched, sp.derive_l_lr,
                 runtime.render_params, sp.synth_ir]
    found = {fn.__qualname__: " ".join(sorted(inspect.signature(fn).parameters)) for fn in functions}
    found["TrainConfig"] = " ".join(sorted(f.name for f in dataclasses.fields(sp.TrainConfig)))
    assert found == SETTINGS


def test_query_prints_strict_json(tmp_path, capsys, monkeypatch):
    """Parameters of groups without a checkpoint print null, not NaN."""
    monkeypatch.chdir(tmp_path)
    scene_path = tmp_path / "box.scn"
    run(["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", str(scene_path)])
    ckpt = tmp_path / "model.ckpt"
    fileio.save_checkpoint(ckpt, sp.make_bundle(fileio.read_scene(scene_path)[0], "distance", "euclidean", 3))
    capsys.readouterr()
    out = tmp_path / "q.json"
    assert run(["query", "--scene", str(scene_path), "--distance", str(ckpt),
                "--a", "2,1.5,2", "--b", "5,2,5", "--out", str(out)]) == 0

    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    for text in (capsys.readouterr().out, out.read_text()):
        record = json.loads(text, parse_constant=no_constants)
        assert {k for k, v in record.items() if v is None} == {"l_ds", "l_er", "l_lr", "tau_er", "tau_lr"}
        assert np.isfinite(record["pi"]) and len(record["doa"]) == 3


WRITE_CASES = {
    "scene-gen": ["scene", "gen", "--kind", "empty-box", "--dims", "8x4x8", "--out", "{missing}/s.scn"],
    "sources-sample": ["sources", "sample", "--scene", "{scene}", "--out", "{missing}/s.txt"],
    "sources-splits": ["sources", "sample", "--scene", "{scene}", "--splits", "0.6,0.2,0.2",
                       "--out", "{under_file}/splits"],
    "bake": ["bake", "--scene", "{scene}", "--sources", "one.txt", "--out-dir", "{under_file}/baked"],
    "train": ["train", "--scene", "{scene}", "--train-fields", "fields", "--epochs", "2",
              "--out", "{missing}/t.ckpt"],
    "train-log": ["train", "--scene", "{scene}", "--train-fields", "fields", "--epochs", "2",
                  "--out", "t.ckpt", "--log", "{missing}/log.csv"],
    "train-dump": ["train", "--scene", "{scene}", "--train-fields", "fields", "--epochs", "2",
                   "--val-fields", "fields", "--eval-interval", "1", "--out", "t.ckpt",
                   "--dump-checkpoints", "{under_file}/dump"],
    "eval": ["eval", "--scene", "{scene}", "--checkpoint", "m.ckpt", "--fields", "fields",
             "--out", "{missing}/m.csv"],
    "ablate": ["ablate", "--scene", "{scene}", "--train-fields", "fields", "--val-fields", "fields",
               "--test-fields", "fields", "--families", "euclidean", "--n-values", "2",
               "--epochs", "2", "--out", "{missing}/a.csv"],
    "query": ["query", "--scene", "{scene}", "--distance", "m.ckpt", "--a", "2,1.5,2", "--b", "5,2,5",
              "--out", "{missing}/q.json"],
    "render": ["render", "--input", "imp.ir", "--l-ds", "-6", "--l-er", "-12", "--tau-er", "0.3",
               "--tau-lr", "0.9", "--out", "{missing}/o.ir"],
    "export-slice": ["export-slice", "--field", "fields/src000_pi.fld", "--out", "{missing}/s.pgm"],
    "params-extract": ["params", "extract", "--ir", "imp.ir", "--out", "{missing}/p.csv"],
    "cost": ["cost", "--dims", "8x4x8", "--n", "4", "--out", "{missing}/c.txt"],
    "cost-csv": ["cost", "--dims", "8x4x8", "--n", "4", "--csv", "{missing}/c.csv"],
    "manifest": ["cost", "--dims", "8x4x8", "--n", "4", "--manifest", "{missing}/c.json"],
}


@pytest.mark.parametrize("case", sorted(WRITE_CASES))
def test_unwritable_output_exit_code(tmp_path, capsys, monkeypatch, case):
    """Every writing subcommand, given an output in a missing directory (or,
    for an output directory, under a regular file), exits 3 with an
    ``error:`` line naming the output."""
    monkeypatch.chdir(tmp_path)
    scene_path, _ = _baked_box(tmp_path)
    scene = fileio.read_scene(scene_path)[0]
    fileio.save_checkpoint(tmp_path / "m.ckpt", sp.make_bundle(scene, "distance", "euclidean", 2))
    ir = sp.synth_ir(sp.AcousticParamSet(pi=6.86, l_ds=-8.0, l_er=-14.0, tau_er=0.4, tau_lr=1.0),
                     seed=3)
    fileio.write_ir(tmp_path / "imp.ir", ir.samples, ir.sample_rate, ir.t0)
    (tmp_path / "a_file").write_text("")
    paths = {"scene": str(scene_path), "missing": "nowhere", "under_file": "a_file"}
    args = [a.format(**paths) for a in WRITE_CASES[case]]
    err = _exits_3(capsys, args)
    assert "cannot write" in err
    assert not (tmp_path / "nowhere").exists()


def test_bake_empty_sources_file_exit_code(tmp_path, capsys, monkeypatch):
    """A sources file with no sources is an input error: exit 3, no
    manifest and no field."""
    monkeypatch.chdir(tmp_path)
    scene_path, _ = _baked_box(tmp_path)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    _exits_3(capsys, ["bake", "--scene", str(scene_path), "--sources", str(empty),
                      "--out-dir", str(tmp_path / "none")])
    assert not (tmp_path / "none").exists()
