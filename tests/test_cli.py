import json

import numpy as np
import pytest

import soundprop as sp
from soundprop import fileio
from soundprop.cli import main


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
    for header, error in ((b"dims=8x4x8", b"dims=8x4"), (b"spacing=", b"spacing\xff")):
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
    ir = sp.synth_ir(truth, sp.SyntheticIRConfig(seed=3))
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
    from soundprop.cli import _load_field_dataset
    from soundprop.errors import InputError

    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(6, 4, 6)))
    names = ["src099", "src100", "src101", "src1000"]
    sources = [scene.voxel_center(idx) for idx in ((1, 1, 1), (2, 1, 1), (1, 2, 3), (4, 2, 4))]
    for name, src in zip(names, sources):
        for field_name, fv in sp.bake_source(scene, src).items():
            fileio.write_field(tmp_path / f"{name}_{field_name}.fld", fv)
    ds = _load_field_dataset(scene, tmp_path, "train")
    assert [tuple(s) for s in ds.sources] == [tuple(s) for s in sources]

    (tmp_path / "srcx_pi.fld").write_bytes(b"")
    with pytest.raises(InputError):
        _load_field_dataset(scene, tmp_path, "train")
