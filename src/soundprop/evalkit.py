"""The field error metric (``mae_field``, re-exported from ``oracle``),
cost accounting, and the latent-size ablation driver."""

from __future__ import annotations

from dataclasses import dataclass

from .decoders import make_distance_decoder
from .errors import DivergenceError, InputError
from .oracle import mae_field  # noqa: F401 - mae_field is public here
from .training import (
    Dataset,
    TrainConfig,
    evaluate_mae,
    make_bundle,
    train,
)

BYTES_PER_VALUE = 4  # float32 storage


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

    Every cell's bundle is built before any cell trains, so a family the
    group cannot use or a latent size below 1 raises before any training.
    Returns one row dict per (cell, head): ``family, n, param, mae`` plus
    cost columns. A cell whose training diverges records the error and the
    run continues; any other error propagates.
    """
    cells = [(family, n, make_bundle(scene, group, family, n, seed=cfg.seed))
             for family in families for n in n_values]
    rows = []
    for family, n, bundle in cells:
        row = {"family": family, "n": n, "param": "", "mae": float("nan"), "params": 0, "flops": 0,
               "rlf_bytes": 0, "wavecoding_bytes": 0, "error": ""}
        try:
            train(bundle, train_ds, cfg, val_ds=val_ds)
        except DivergenceError as exc:
            rows.append(dict(row, error=str(exc)))
            continue
        report = cost_report(scene.dims, n, model=bundle.head.decoder)
        row.update(params=report.params, flops=report.flops, rlf_bytes=report.rlf_bytes,
                   wavecoding_bytes=report.wavecoding_bytes)
        rows += [dict(row, param=head, mae=mae) for head, mae in evaluate_mae(bundle, test_ds).items()]
    return rows
