"""Per-layer metrics: the hooks that count work, and the metric table.

Every metric is reported for every workload, as its cost in one set-up
plus one round: totals recorded during the set-up repetitions are divided
by their number, totals recorded during the timed rounds by the number of
rounds. Ratios use the round totals only. A layer a workload never enters
reads 0. ``cli.*`` step times come from the benchmark's own timers around
each ``soundprop.cli.main`` call; the rest from ``tracing.Tracer``.
"""

from __future__ import annotations

import os

import numpy as np

DECODER_CLASSES = ("EuclideanDecoder", "PsdDecoder", "DiagDecoder", "MlpDecoder", "DotProductDecoder")

# (name, unit); every name is printed by every traced run.
PER_LAYER = [
    ("bench.round_s.traced", "s"),
    ("training.sample_sources.s", "s"),
    ("training.sample_sources.placed", "count"),
    ("scene.visible_voxels.calls", "count"),
    ("scene.visible_voxels.s", "s"),
    ("scene.line_of_sight.calls", "count"),
    ("scene.coverage.useful_ratio", "voxel/ray"),
    ("oracle.bake_source.s", "s"),
    ("oracle.geodesic_field.s", "s"),
    ("oracle.synth_acoustic_fields.s", "s"),
    ("fileio.write_field.s", "s"),
    ("fileio.write_field.bytes", "B"),
    ("fileio.write_manifest.s", "s"),
    ("cli.scene_gen.s", "s"),
    ("cli.sources_sample.s", "s"),
    ("cli.bake.s", "s"),
    ("cli.train_distance.s", "s"),
    ("cli.train_levels.s", "s"),
    ("cli.train_decays.s", "s"),
    ("cli.eval.s", "s"),
    ("cli.query.s", "s"),
    ("cli.render.s", "s"),
    ("decoders.pairwise.calls", "count"),
    ("decoders.pairwise.rows_per_call", "rows"),
    ("decoders.pairwise.s", "s"),
    ("decoders.pairwise_backward.calls", "count"),
    ("decoders.pairwise_backward.rows_per_call", "rows"),
    ("decoders.pairwise_backward.s", "s"),
    ("training.Adam.step.calls", "count"),
    ("training.Adam.step.s", "s"),
    ("training.evaluate_mae.s", "s"),
    ("training.heldout_mae.pi", "m"),
    ("training.heldout_mae.l_ds", "dB"),
    ("training.heldout_mae.tau_er", "s"),
    ("fileio.read_field.s", "s"),
    ("fileio.save_checkpoint.s", "s"),
    ("fileio.sha256_file.bytes", "B"),
    ("fileio.read_scene.s", "s"),
    ("fileio.load_checkpoint.s", "s"),
    ("latentfield.interp_latent.calls_per_query", "calls"),
    ("latentfield.interp_latent.s", "s"),
    ("latentfield.distinct_point_ratio", "ratio"),
    ("latentfield.fallback.count", "count"),
    ("scene.line_of_sight.calls_per_query", "calls"),
    ("decoders.pairwise.calls_per_query", "calls"),
    ("runtime.query_doa.s", "s"),
    ("runtime.query_params.p50_ms", "ms"),
    ("runtime.query_params.p99_ms", "ms"),
    ("runtime.render_offline.s", "s"),
    ("runtime.render_offline.rtf", "s/s"),
    ("runtime.render.conv_macs", "MAC_computed"),
]

# Figures a workload computes itself (held-out MAE, query percentiles, render
# speed); 0 on the workloads that do not produce them.
WORKLOAD_FIGURES = (
    "training.heldout_mae.pi",
    "training.heldout_mae.l_ds",
    "training.heldout_mae.tau_er",
    "runtime.query_params.p50_ms",
    "runtime.query_params.p99_ms",
    "runtime.render_offline.rtf",
)


def install_hooks(tr) -> None:
    """Counters measured at the layer boundaries where the work happens."""
    sampling, query = {}, {}

    def sample_begin(scene, *args, **kwargs):
        sampling["covered"] = np.zeros(scene.dims, dtype=bool)
        sampling["rays0"] = tr.calls("scene.line_of_sight")

    def sample_end(result, *args, **kwargs):
        tr.add("sample.placed", len(result))
        tr.add("sample.rays", tr.calls("scene.line_of_sight") - sampling.pop("rays0"))
        sampling.pop("covered")

    def visible_end(mask, scene, p):
        covered = sampling.get("covered")
        if covered is not None:
            tr.add("sample.new_covered", int(np.count_nonzero(mask & ~covered)))
            covered |= mask

    def query_counts():
        return {
            "query.interp_calls": tr.calls("latentfield.interp_latent"),
            "query.los_calls": tr.calls("scene.line_of_sight"),
            "query.pairwise_calls": sum(tr.calls(f"decoders.{c}.pairwise") for c in DECODER_CLASSES),
        }

    def query_begin(*args, **kwargs):
        query["points"] = set()
        query["start"] = query_counts()

    def query_end(result, *args, **kwargs):
        tr.add("query.distinct_points", len(query.pop("points")))
        start = query.pop("start")
        for counter, now in query_counts().items():
            tr.add(counter, now - start[counter])

    def interp_begin(grid, scene, p):
        points = query.get("points")
        if points is not None:
            points.add(tuple(np.asarray(p, dtype=float).tolist()))

    def masked_interp_end(result, data, scene, p, value_mask=None):
        # The trilinear path keeps only cell corners of positive weight; a
        # single vertex outside that set came from the nearest-vertex search.
        _, corners, weights = result
        if len(weights) != 1:
            return
        v = (np.asarray(p, dtype=float) - scene.origin) / scene.spacing
        base = np.clip(np.floor(v).astype(int), 0, np.asarray(scene.dims) - 2)
        t = np.clip(v - base, 0.0, 1.0)
        off = corners[0] - base
        if np.any((off != 0) & (off != 1)) or np.any(np.where(off == 1, t, 1.0 - t) <= 0.0):
            tr.add("interp.fallbacks", 1)

    def rows(counter):
        def hook(self, U, V, *args, **kwargs):
            tr.add(counter, 1 if np.ndim(U) == 1 else int(np.shape(U)[0]))
        return hook

    def file_bytes(counter):
        def hook(result, path, *args, **kwargs):
            tr.add(counter, os.path.getsize(path))
        return hook

    def render_end(result, x_in, params, refs, layout):
        n = np.size(x_in)
        macs = sum(
            n * ir.samples.size
            for irs, weights in ((refs.er_irs, params.er_weights), (refs.lr_irs, params.lr_weights))
            for ir, w in zip(irs, weights)
            if w != 0.0
        )
        tr.add("render.conv_macs", macs)

    tr.before("training.sample_sources", sample_begin)
    tr.after("training.sample_sources", sample_end)
    tr.after("scene.visible_voxels", visible_end)
    tr.before("runtime.query_params", query_begin)
    tr.after("runtime.query_params", query_end)
    tr.before("latentfield.interp_latent", interp_begin)
    tr.after("latentfield.masked_interp", masked_interp_end)
    for cls in DECODER_CLASSES:
        tr.before(f"decoders.{cls}.pairwise", rows("decoders.pairwise.rows"))
        tr.before(f"decoders.{cls}.pairwise_backward", rows("decoders.pairwise_backward.rows"))
    tr.after("fileio.write_field", file_bytes("fileio.write_field.bytes"))
    tr.after("fileio.sha256_file", file_bytes("fileio.sha256_file.bytes"))
    tr.after("runtime.render_offline", render_end)


def _calls(phase, name) -> int:
    return phase[0].get(name, [0])[0]


def _seconds(phase, name) -> float:
    return phase[0].get(name, [0, 0.0])[1]


def _group(phase, suffix, field) -> float:
    """Sum over the decoder classes of one method's calls (0) or seconds (1)."""
    return sum(phase[0].get(f"decoders.{cls}.{suffix}", [0, 0.0])[field] for cls in DECODER_CLASSES)


def _counter(phase, name) -> float:
    return phase[1].get(name, 0)


def per_layer_metrics(setup, rounds, reps: int, n_rounds: int, wl, round_s) -> dict:
    """Every ``PER_LAYER`` metric for one traced run of workload ``wl``.

    ``setup`` and ``rounds`` are the ``(spans, counters)`` that
    ``Tracer.take`` returned at the end of each phase.
    """

    def per(getter):
        return getter(setup) / reps + getter(rounds) / n_rounds

    def ratio(num, den):
        return num / den if den else 0.0

    queries = _calls(rounds, "runtime.query_params")
    pair_calls = _group(rounds, "pairwise", 0)
    back_calls = _group(rounds, "pairwise_backward", 0)
    values = {
        "bench.round_s.traced": round_s,
        "training.sample_sources.placed": _counter(rounds, "sample.placed") / n_rounds,
        "scene.coverage.useful_ratio": ratio(_counter(rounds, "sample.new_covered"), _counter(rounds, "sample.rays")),
        "fileio.write_field.bytes": per(lambda s: _counter(s, "fileio.write_field.bytes")),
        "fileio.sha256_file.bytes": per(lambda s: _counter(s, "fileio.sha256_file.bytes")),
        "decoders.pairwise.calls": per(lambda s: _group(s, "pairwise", 0)),
        "decoders.pairwise.s": per(lambda s: _group(s, "pairwise", 1)),
        "decoders.pairwise.rows_per_call": ratio(_counter(rounds, "decoders.pairwise.rows"), pair_calls),
        "decoders.pairwise_backward.calls": per(lambda s: _group(s, "pairwise_backward", 0)),
        "decoders.pairwise_backward.s": per(lambda s: _group(s, "pairwise_backward", 1)),
        "decoders.pairwise_backward.rows_per_call": ratio(_counter(rounds, "decoders.pairwise_backward.rows"), back_calls),
        "latentfield.interp_latent.calls_per_query": ratio(_counter(rounds, "query.interp_calls"), queries),
        "latentfield.distinct_point_ratio": ratio(_counter(rounds, "query.distinct_points"), _counter(rounds, "query.interp_calls")),
        "latentfield.fallback.count": _counter(rounds, "interp.fallbacks") / n_rounds,
        "scene.line_of_sight.calls_per_query": ratio(_counter(rounds, "query.los_calls"), queries),
        "decoders.pairwise.calls_per_query": ratio(_counter(rounds, "query.pairwise_calls"), queries),
        "runtime.render.conv_macs": _counter(rounds, "render.conv_macs") / n_rounds,
    }
    values.update({name: 0.0 for name in WORKLOAD_FIGURES})
    values.update(wl.layer_figures())
    for name, _ in PER_LAYER:
        if name in values:
            continue
        layer_name, _, field = name.rpartition(".")
        if name.startswith("cli."):
            step = layer_name[4:]
            values[name] = wl.step_s.get(("setup", step), 0.0) / reps + wl.step_s.get(("round", step), 0.0) / n_rounds
        elif field == "calls":
            values[name] = per(lambda s: _calls(s, layer_name))
        elif field == "s":
            values[name] = per(lambda s: _seconds(s, layer_name))
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return values
