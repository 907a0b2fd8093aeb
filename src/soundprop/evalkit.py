"""Error metrics, cost accounting, and the latent-size ablation driver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoders import make_distance_decoder
from .errors import InputError
from .oracle import FieldVolume, valid_pairs
from .training import (
    Dataset,
    TrainConfig,
    evaluate_mae,
    make_bundle,
    select_best,
    train,
)

BYTES_PER_VALUE = 4  # float32 storage


def mae_field(pred: FieldVolume, truth: FieldVolume) -> float:
    """Mean absolute error over voxels valid in both fields."""
    p, t = valid_pairs(pred, truth)
    return float(np.mean(np.abs(p - t)))


def doa_error(pred: FieldVolume, truth: FieldVolume) -> float:
    """Mean angular error between two direction fields, in degrees."""
    p, t = valid_pairs(pred, truth)
    for name, vecs in (("pred", p), ("truth", t)):
        norms = np.linalg.norm(vecs, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-3):
            raise InputError(f"{name} directions are not unit vectors")
    dots = np.clip(np.einsum("ij,ij->i", p, t), -1.0, 1.0)
    return float(np.degrees(np.arccos(dots)).mean())


def format_bytes_si(n_bytes: float) -> str:
    """Decimal (SI) byte formatting at two significant digits.

    Values of 100 or more in their unit keep integer precision (so sizes
    just under the next unit don't round away their leading digits).
    """
    units = [("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("kB", 1e3), ("B", 1.0)]
    for unit, scale in units:
        value = n_bytes / scale
        if value >= 1.0 or unit == "B":
            if value < 10:
                return f"{value:.1f} {unit}"
            return f"{value:.0f} {unit}"
    return f"{n_bytes:.0f} B"


@dataclass(frozen=True)
class CostReport:
    """Memory and compute accounting for one decoder configuration.

    Latent-grid memory is one n-vector of float32 per grid point; the
    dense-table baseline stores one float32 per source-receiver grid pair
    for the same parameter family.
    """

    dims: tuple[int, int, int]
    n: int
    family: str
    params: int
    flops: int
    rlf_bytes: int
    wavecoding_bytes: int

    @property
    def rlf_memory(self) -> str:
        return format_bytes_si(self.rlf_bytes)

    @property
    def wavecoding_memory(self) -> str:
        return format_bytes_si(self.wavecoding_bytes)


def cost_report(dims, n: int, model=None, family: str = "euclidean") -> CostReport:
    """Cost accounting from grid dims and latent size.

    ``model`` may be a ready decoder; otherwise one is built from
    ``family``. Head projections and level references are excluded: the
    report covers the core decoder and the grid storage only.
    """
    nx, ny, nz = (int(d) for d in dims)
    if min(nx, ny, nz) < 1 or n < 0:
        raise InputError(f"invalid dims {dims} or latent size {n}")
    if model is None:
        model = make_distance_decoder(family, max(n, 1))
    n_points = nx * ny * nz
    return CostReport(
        dims=(nx, ny, nz),
        n=n,
        family=model.family,
        params=model.param_count(),
        flops=model.flop_count(),
        rlf_bytes=n_points * n * BYTES_PER_VALUE,
        wavecoding_bytes=n_points * n_points * BYTES_PER_VALUE,
    )


def ablation_run(
    scene,
    train_ds: Dataset,
    val_ds: Dataset,
    test_ds: Dataset,
    families,
    n_values,
    cfg: TrainConfig = TrainConfig(),
    group: str = "distance",
) -> list[dict]:
    """Train every (family, latent-size) cell with identical configs.

    Returns one row dict per (cell, head): ``family, n, param, mae`` plus
    cost columns. Cells that fail record the error and the run continues.
    """
    rows = []
    for family in families:
        for n in n_values:
            try:
                bundle = make_bundle(scene, group, family, n, seed=cfg.seed)
                result = train(bundle, train_ds, cfg, val_ds=val_ds)
                best = select_best(result.checkpoints)
                bundle.restore(best["params"])
                maes = evaluate_mae(bundle, test_ds)
                report = cost_report(scene.dims, n, model=bundle.head.decoder)
                for head, mae in maes.items():
                    rows.append(
                        {
                            "family": family,
                            "n": n,
                            "param": head,
                            "mae": mae,
                            "params": report.params,
                            "flops": report.flops,
                            "rlf_bytes": report.rlf_bytes,
                            "wavecoding_bytes": report.wavecoding_bytes,
                            "error": "",
                        }
                    )
            except Exception as exc:  # noqa: BLE001 - cell failures are data
                rows.append(
                    {
                        "family": family,
                        "n": n,
                        "param": "",
                        "mae": float("nan"),
                        "params": 0,
                        "flops": 0,
                        "rlf_bytes": 0,
                        "wavecoding_bytes": 0,
                        "error": str(exc),
                    }
                )
    return rows
