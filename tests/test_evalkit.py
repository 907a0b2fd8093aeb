import numpy as np
import pytest

import soundprop as sp
from soundprop import evalkit
from soundprop.errors import ConfigurationError, InputError
from soundprop.evalkit import format_bytes_si
from soundprop.oracle import FieldVolume

from oracles import doa_error


def _scalar_field(scene, values):
    return FieldVolume(source=scene.voxel_center((4, 2, 4)), kind="level",
                       values=values, spacing=scene.spacing, origin=scene.origin)


def _doa_field(scene, values):
    return FieldVolume(source=scene.voxel_center((4, 2, 4)), kind="doa",
                       values=values, spacing=scene.spacing, origin=scene.origin)


def test_mae_identical_and_offset(box_scene):
    base = np.where(box_scene.free_mask(), 0.5, np.nan)
    f = _scalar_field(box_scene, base)
    assert sp.mae_field(f, f) == 0.0
    g = _scalar_field(box_scene, base + 1.18)
    assert sp.mae_field(g, f) == pytest.approx(1.18, abs=1e-12)


def test_mae_matches_two_loop_reference(box_scene):
    rng = np.random.default_rng(1)
    a = np.where(box_scene.free_mask(), rng.normal(size=box_scene.dims), np.nan)
    b = np.where(box_scene.free_mask(), rng.normal(size=box_scene.dims), np.nan)
    total, count = 0.0, 0
    nx, ny, nz = box_scene.dims
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                if np.isfinite(a[i, j, k]) and np.isfinite(b[i, j, k]):
                    total += abs(a[i, j, k] - b[i, j, k])
                    count += 1
    got = sp.mae_field(_scalar_field(box_scene, a), _scalar_field(box_scene, b))
    assert got == pytest.approx(total / count, abs=1e-12)


def test_doa_error_identical_orthogonal(box_scene):
    free = box_scene.free_mask()
    x = np.full(box_scene.dims + (3,), np.nan)
    x[free] = [1.0, 0.0, 0.0]
    y = np.full(box_scene.dims + (3,), np.nan)
    y[free] = [0.0, 1.0, 0.0]
    fx, fy = _doa_field(box_scene, x), _doa_field(box_scene, y)
    assert doa_error(fx, fx) == 0.0
    assert doa_error(fx, fy) == pytest.approx(90.0, abs=1e-9)


def test_doa_error_fixed_rotation(box_scene):
    rng = np.random.default_rng(2)
    free = box_scene.free_mask()
    vecs = rng.normal(size=box_scene.dims + (3,))
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    vecs[~free] = np.nan
    theta = np.radians(10.0)
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    rotated = np.einsum("ij,...j->...i", rot, vecs)
    err = doa_error(_doa_field(box_scene, rotated), _doa_field(box_scene, vecs))
    # rotation about a fixed axis turns each vector by at most theta
    assert 0.0 < err <= 10.0 + 1e-6
    aligned = np.full(box_scene.dims + (3,), np.nan)
    aligned[free] = [0.0, 0.0, 1.0]
    spun = np.einsum("ij,...j->...i", rot, aligned)
    err_axis = doa_error(_doa_field(box_scene, spun), _doa_field(box_scene, aligned))
    assert err_axis == pytest.approx(0.0, abs=1e-6)
    perp = np.full(box_scene.dims + (3,), np.nan)
    perp[free] = [1.0, 0.0, 0.0]
    spun_perp = np.einsum("ij,...j->...i", rot, perp)
    err_perp = doa_error(_doa_field(box_scene, spun_perp), _doa_field(box_scene, perp))
    assert err_perp == pytest.approx(10.0, abs=1e-6)


def test_doa_error_rejects_non_unit(box_scene):
    free = box_scene.free_mask()
    bad = np.full(box_scene.dims + (3,), np.nan)
    bad[free] = [2.0, 0.0, 0.0]
    good = np.full(box_scene.dims + (3,), np.nan)
    good[free] = [1.0, 0.0, 0.0]
    with pytest.raises(InputError):
        doa_error(_doa_field(box_scene, bad), _doa_field(box_scene, good))


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


def test_cost_report_reproduces_reference_memory_figures():
    gym = sp.cost_report((59, 8, 59), 16)
    assert gym.rlf_memory == "1.8 MB"
    assert gym.wavecoding_memory == "3.1 GB"
    wal = sp.cost_report((173, 8, 154), 16)
    assert wal.rlf_memory == "14 MB"
    assert wal.wavecoding_memory == "182 GB"


def test_cost_report_exact_byte_formulas():
    r = sp.cost_report((59, 8, 59), 16)
    assert r.rlf_bytes == 59 * 8 * 59 * 16 * 4
    assert r.wavecoding_bytes == (59 * 8 * 59) ** 2 * 4
    zero = sp.cost_report((59, 8, 59), 0)
    assert zero.rlf_bytes == 0


def test_cost_report_families():
    diag = sp.cost_report((59, 8, 59), 16, family="riemann-diag")
    assert diag.params == 256
    assert abs(diag.flops - 335) <= 0.15 * 335


def test_format_bytes_si():
    assert format_bytes_si(1_782_272) == "1.8 MB"
    assert format_bytes_si(3_102_044_416) == "3.1 GB"
    assert format_bytes_si(13_640_704) == "14 MB"
    assert format_bytes_si(181_707_817_984) == "182 GB"
    assert format_bytes_si(999) == "999 B"
    assert format_bytes_si(1000) == "1.0 kB"


def test_ablation_single_cell(box_scene, box_datasets):
    train_ds, val_ds, test_ds = box_datasets
    cfg = sp.TrainConfig(epochs=60, eval_interval=30, seed=0)
    rows = sp.ablation_run(
        box_scene, train_ds, val_ds, test_ds, ["euclidean"], [2], cfg
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["family"] == "euclidean" and row["n"] == 2
    assert row["param"] == "pi" and np.isfinite(row["mae"])
    assert row["rlf_bytes"] == np.prod(box_scene.dims) * 2 * 4
    assert row["error"] == ""


def test_ablation_records_cell_failures(box_scene, box_datasets):
    """A diverging cell is a row that records the error; any other error,
    such as an unknown family, is a defect of the sweep and propagates."""
    train_ds, val_ds, test_ds = box_datasets
    cfg = sp.TrainConfig(epochs=10, eval_interval=10, seed=0, lr_decoder=1e200, lr_grid=1e200)
    rows = sp.ablation_run(
        box_scene, train_ds, val_ds, test_ds, ["euclidean"], [2], cfg
    )
    assert len(rows) == 1
    assert rows[0]["error"].startswith("non-finite loss") and np.isnan(rows[0]["mae"])
    with pytest.raises(ConfigurationError, match="no-such-family"):
        sp.ablation_run(box_scene, train_ds, val_ds, test_ds, ["no-such-family"], [2], cfg)


def test_ablation_builds_every_cell_before_any_trains(box_scene, box_datasets, monkeypatch):
    """A family that cannot be built, listed after one that can, is
    refused before any cell trains."""
    train_ds, val_ds, test_ds = box_datasets
    trained = []
    monkeypatch.setattr(evalkit, "train", lambda bundle, *args, **kwargs: trained.append(bundle))
    cfg = sp.TrainConfig(epochs=2, eval_interval=0, seed=0)
    with pytest.raises(ConfigurationError, match="bogus"):
        sp.ablation_run(box_scene, train_ds, val_ds, test_ds, ["euclidean", "bogus"], [2, 4], cfg)
    assert trained == []
