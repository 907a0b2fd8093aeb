"""The three workloads: seeded inputs, timed rounds and output checks.

Each workload has an untimed ``prepare`` (inputs that are not part of the
measured job), a ``setup`` that the runner repeats and times, and a
``run_round`` that the runner repeats until the run's seconds are spent.
Every round runs the same operations. ``check`` looks at every output
against ``reference`` (computed apart from soundprop) or against
properties the method must have, and returns one message per failure.

The program is called through module attributes (``cli.main``,
``runtime.query_params``) so that a traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import reference as ref
from soundprop import cli, fileio, runtime, training
from soundprop.irparams import AcousticParamSet
from soundprop.scene import SceneSpec, build_scene

FIELDS = ("pi", "l_ds", "l_er", "tau_er", "tau_lr")
GROUPS = (("distance", "riemann-diag"), ("levels", "riemann-diag"), ("decays", "dot-product"))
SPLITS = ("train", "val", "test")
N_LATENT = 8  # latent width of every trained model, as in the README pipeline
RATE = 16000.0  # sample rate of the dry inputs and the reference tails


def _vec(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class Workload:
    def __init__(self, ws, seed: int, cfg):
        self.ws, self.seed, self.cfg = ws, seed, cfg
        self.attempted = self.failed = 0
        self.errors = []
        self.step_s = defaultdict(float)  # (phase, step) -> seconds in cli.main
        self.phase = "setup"
        self.n_rounds = 0

    def rng(self, stream: int):
        return np.random.default_rng([self.seed, stream])

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> None:
        raise NotImplementedError

    def check(self) -> list:
        raise NotImplementedError

    def layer_figures(self) -> dict:
        return {}

    def summary(self) -> str:
        return ""

    def round_dir(self, r=None):
        d = self.ws / f"round{self.n_rounds if r is None else r}"
        d.mkdir(exist_ok=True)
        return d

    def cli(self, step: str, *argv) -> bool:
        """One ``soundprop`` command in-process; a round's commands are its operations."""
        args = [str(a) for a in argv]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(args)
        except Exception as exc:  # a crash inside the program is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        self.step_s[(self.phase, step)] += time.perf_counter() - t0
        if self.phase != "round":
            if rc != 0:
                raise RuntimeError(f"set-up command {' '.join(args)} failed: {rc}")
            return True
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(args[:2])}: {rc}")
        return rc == 0


# ---------------------------------------------------------------------------
# Checks shared by the workloads (also driven by the self-test)
# ---------------------------------------------------------------------------


def check_manifests(paths, expected: int) -> list:
    out = []
    if len(paths) != expected:
        out.append(f"manifest: found {len(paths)} run manifests, expected {expected}")
    for m in paths:
        record = json.load(open(m))
        for kind in ("inputs", "outputs"):
            for path, digest in record[kind].items():
                if ref.sha256(path) != digest:
                    out.append(f"manifest digest: {m.name} records a wrong sha256 for {path}")
    return out


def check_sources(scene, sources) -> list:
    out = []
    idx = scene.index_of(sources)
    inside = np.all((idx >= 0) & (idx < np.asarray(scene.dims)), axis=1)
    if not inside.all():
        return [f"sources: {int((~inside).sum())} sources lie outside the scene"]
    if not np.array_equal(scene.centers(idx), sources):
        out.append("sources: a source is not exactly at a voxel centre")
    if scene.occ[idx[:, 0], idx[:, 1], idx[:, 2]].any():
        out.append("sources: a source lies in an occupied voxel")
    if len(np.unique(idx, axis=0)) != len(idx):
        out.append("sources: sources are not distinct")
    return out


def _field_mismatch(name, i, got, want, atol, rtol) -> list:
    if not np.array_equal(np.isnan(got), np.isnan(want)):
        return [f"baked {name}: source {i} has NaN on other voxels than the reference"]
    ok = np.isnan(want) | (np.abs(got - want) <= atol + rtol * np.abs(np.nan_to_num(want)))
    if not ok.all():
        worst = float(np.nanmax(np.abs(got - want)))
        return [f"baked {name}: source {i} differs from the reference at {int((~ok).sum())} voxels (max {worst:.3g})"]
    return []


def check_baked(scene, sources, field_dir) -> list:
    """pi against scipy Dijkstra; levels and decays against their formulas."""
    out = []
    files = sorted(p.name for p in field_dir.glob("*.fld"))
    if len(files) != len(FIELDS) * len(sources):
        out.append(f"baked fields: {len(files)} files for {len(sources)} sources")
    dist = ref.geodesic(scene, scene.index_of(sources))
    for i, src in enumerate(sources):
        pi = np.where(np.isfinite(dist[i]), dist[i], np.nan)
        want = {"pi": pi, **ref.oracle_fields(scene, src, pi)}
        for name in FIELDS:
            got, stored_src, _ = ref.read_field(field_dir / f"src{i:03d}_{name}.fld")
            if not np.array_equal(stored_src, src):
                out.append(f"baked {name}: source {i} records another source position")
            out += _field_mismatch(name, i, got, want[name], 1e-6 if name == "pi" else 1e-5, 1e-6)
    return out


def check_coverage(scene, sources, rng, samples: int) -> list:
    """Each sampled free voxel is seen from some source by a fine-step test.

    The package's voxel walk blocks every segment that touches an obstacle,
    so a voxel it counts as covered passes this test too.
    """
    free = np.argwhere(~scene.occ)
    pick = free[rng.choice(len(free), size=min(samples, len(free)), replace=False)]
    targets = scene.centers(pick)
    seen = np.zeros(len(targets), dtype=bool)
    for src in sources:
        todo = np.flatnonzero(~seen)
        if todo.size == 0:
            break
        seen[todo] = ref.segment_clear(scene, src, targets[todo])
    if not seen.all():
        return [f"coverage: {int((~seen).sum())} of {len(seen)} sampled free voxels are seen from no source"]
    return []


def check_decay_range(scene, header, params, sources) -> list:
    grid, K = params["grid"], float(header["K"])
    free = ~scene.occ
    for src in sources:
        i, j, k = scene.index_of(src)
        V = grid[free]
        for head, tau in ref.decode(header, params, np.broadcast_to(grid[i, j, k], V.shape), V).items():
            if not np.all((tau > 0) & (tau < K)):
                return [f"decays: a {head} prediction lies outside (0, {K})"]
    return []


def check_render(out, x, rate, pset, tol: float) -> list:
    """Render against an FFT-convolution reconstruction with checked VBAP gains.

    ``tol`` bounds the largest sample error relative to the peak.
    """
    l_ds, l_er, tau_er, tau_lr, doa = pset
    layout = runtime.octahedral_layout()
    gains = runtime.vbap_gains(doa, layout)
    bad = ref.vbap_failures(gains, layout.directions, layout.triples, doa)
    refs = runtime.default_reference_irs(sample_rate=rate, seed=0)
    want = ref.render(
        x, gains, l_ds, l_er, None, tau_er, tau_lr,
        [ir.samples for ir in refs.er_irs], refs.er_taus,
        [ir.samples for ir in refs.lr_irs], refs.lr_taus,
    )
    err = ref.render_mismatch(out, want)
    if err > tol:
        bad.append(f"render: output differs from the FFT reconstruction by {err:.3g} of its peak")
    return bad


# ---------------------------------------------------------------------------
# precompute-gym
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GymConfig:
    dims: str = "59x8x59"
    n_cylinders: int = 12
    coverage_samples: int = 200


class PrecomputeGym(Workload):
    """``sources sample`` then single-worker ``bake`` on a 59x8x59 forest."""

    def setup(self):
        self.scn = self.ws / "gym.scn"
        c = self.cfg
        self.cli(
            "scene_gen", "scene", "gen", "--kind", "cylinder-forest", "--dims", c.dims,
            "--seed", self.seed, "--n-cylinders", c.n_cylinders, "--out", self.scn,
        )

    def run_round(self):
        d = self.round_dir()
        self.cli("sources_sample", "sources", "sample", "--scene", self.scn, "--seed", self.seed,
                 "--out", d / "sources.txt")
        self.cli("bake", "bake", "--scene", self.scn, "--sources", d / "sources.txt",
                 "--out-dir", d / "fields", "--workers", 1)

    def check(self):
        scene = ref.read_scene(self.scn)
        out = check_manifests([self.ws / "gym.scn.manifest.json"], 1)
        for r in range(self.n_rounds):
            d = self.round_dir(r)
            sources = ref.read_points(d / "sources.txt")
            self.placed = len(sources)
            out += check_manifests([d / "sources.txt.manifest.json", d / "fields" / "bake.manifest.json"], 2)
            out += check_sources(scene, sources)
            out += check_baked(scene, sources, d / "fields")
            out += check_coverage(scene, sources, self.rng(1), self.cfg.coverage_samples)
        return out

    def summary(self):
        return f"placed_sources={getattr(self, 'placed', '?')}"


# ---------------------------------------------------------------------------
# author-aperture
# ---------------------------------------------------------------------------


AP_DIMS = "16x4x16"
AP_EPOCHS = 200  # fewer leave the level MAEs too near the untrained model's
AP_DRY_S = 0.25
# Trained held-out MAE must be below this share of the same-seed untrained
# model's. Over 60 seeds the largest shares seen were 0.65 (pi) and 0.49
# (l_ds); training that does not learn stays near 1.
PI_FRACTION = 0.8
LEVELS_FRACTION = 0.75


class AuthorAperture(Workload):
    """The README's CLI pipeline, scene to render, on a 16x4x16 aperture."""

    def prepare(self):
        rng = self.rng(1)
        nx, ny, nz = (int(v) for v in AP_DIMS.split("x"))
        # one query endpoint on each side of the wall at x = nx // 2
        sides = ((1, nx // 2 - 1), (nx // 2 + 1, nx - 2))
        self.query = [
            np.array([rng.integers(lo, hi + 1), rng.integers(1, ny - 1), rng.integers(1, nz - 1)])
            + rng.uniform(-0.4, 0.4, 3)
            for lo, hi in sides
        ]
        self.pset = (
            rng.uniform(-30.0, -3.0), rng.uniform(-30.0, -8.0),
            rng.uniform(0.05, 1.2), rng.uniform(0.3, 2.0), _unit(rng),
        )
        self.untrained = {}

    def setup(self):
        self.dry = self.ws / "dry.ir"
        ref.write_ir(self.dry, 0.1 * self.rng(2).standard_normal(int(AP_DRY_S * RATE)), RATE)

    def run_round(self):
        d = self.round_dir()
        scn = d / "ap.scn"
        self.cli("scene_gen", "scene", "gen", "--kind", "wall-with-aperture", "--dims", AP_DIMS,
                 "--seed", self.seed, "--out", scn)
        self.cli("sources_sample", "sources", "sample", "--scene", scn, "--seed", self.seed,
                 "--out", d / "splits", "--splits", "0.6,0.2,0.2")
        for split in SPLITS:
            self.cli("bake", "bake", "--scene", scn, "--sources", d / "splits" / f"sources_{split}.txt",
                     "--out-dir", d / f"f{split}")
        for group, family in GROUPS:
            self.cli(f"train_{group}", "train", "--scene", scn, "--train-fields", d / "ftrain",
                     "--val-fields", d / "fval", "--group", group, "--family", family,
                     "--n", N_LATENT, "--epochs", AP_EPOCHS, "--seed", self.seed,
                     "--out", d / f"{group}.ckpt", "--log", d / f"{group}.csv")
        for group, _ in GROUPS:
            self.cli("eval", "eval", "--scene", scn, "--checkpoint", d / f"{group}.ckpt",
                     "--fields", d / "ftest", "--out", d / f"{group}_mae.csv")
        a, b = self.query
        self.cli("query", "query", "--scene", scn, "--distance", d / "distance.ckpt",
                 "--levels", d / "levels.ckpt", "--decays", d / "decays.ckpt",
                 f"--a={_vec(a)}", f"--b={_vec(b)}", "--out", d / "query.json")
        l_ds, l_er, tau_er, tau_lr, doa = self.pset
        self.cli("render", "render", "--input", self.dry, f"--l-ds={l_ds!r}", f"--l-er={l_er!r}",
                 f"--tau-er={tau_er!r}", f"--tau-lr={tau_lr!r}", f"--doa={_vec(doa)}",
                 "--out", d / "render.ir")

    def _untrained_mae(self, d, group, family, test_src, truths):
        """Held-out MAE of a fresh bundle with the same seed, by the reference decoder."""
        if group not in self.untrained:
            scene, _ = fileio.read_scene(d / "ap.scn")
            bundle = training.make_bundle(scene, group, family, N_LATENT, seed=self.seed)
            header = {"group": group, "family": family, "K": getattr(bundle.head.decoder, "K", None)}
            self.untrained[group] = ref.heldout_mae(
                ref.read_scene(d / "ap.scn"), header, bundle.trainable(), test_src, truths
            )
        return self.untrained[group]

    def check(self):
        out = []
        for r in range(self.n_rounds):
            d = self.round_dir(r)
            out += check_manifests(sorted(d.rglob("*.manifest.json")), 13)
            scene = ref.read_scene(d / "ap.scn")
            test_src = ref.read_points(d / "splits" / "sources_test.txt")
            truths = [
                {f: ref.read_field(d / "ftest" / f"src{i:03d}_{f}.fld")[0] for f in FIELDS}
                for i in range(len(test_src))
            ]
            self.mae = {}
            for group, family in GROUPS:
                header, params = ref.read_checkpoint(d / f"{group}.ckpt")
                mae = ref.heldout_mae(scene, header, params, test_src, truths)
                self.mae.update(mae)
                csv = ref.read_mae_csv(d / f"{group}_mae.csv")
                for head, value in mae.items():
                    if abs(csv.get(head, np.inf) - value) > 1e-9 * max(1.0, abs(value)):
                        out.append(f"eval CSV: {group} {head} MAE {csv.get(head)} != recomputed {value!r}")
                untrained = self._untrained_mae(d, group, family, test_src, truths)
                if group == "decays":
                    K = float(header["K"])
                    out += check_decay_range(scene, header, params, test_src)
                    continue
                frac = PI_FRACTION if group == "distance" else LEVELS_FRACTION
                for head, base in untrained.items():
                    if not mae[head] < frac * base:
                        out.append(f"training: {head} MAE {mae[head]:.4g} is not below {frac} x untrained {base:.4g}")
            q = json.load(open(d / "query.json"))
            if abs(float(np.linalg.norm(q["doa"])) - 1.0) > 1e-12:
                out.append("query: DOA is not a unit vector")
            if not (q["pi"] > 0 and 0 < q["tau_er"] < K and 0 < q["tau_lr"] < K):
                out.append(f"query: parameters out of range: {q}")
            rendered, rate = ref.read_ir(d / "render.ir")
            x, _ = ref.read_ir(self.dry)
            out += check_render(rendered, x[0], rate, self.pset, tol=1e-5)  # float32 file
        return out

    def layer_figures(self):
        mae = getattr(self, "mae", {})
        return {f"training.heldout_mae.{h}": mae.get(h, 0.0) for h in ("pi", "l_ds", "tau_er")}

    def summary(self):
        mae = getattr(self, "mae", {})
        untrained = {h: v for m in self.untrained.values() for h, v in m.items()}
        return " ".join(f"mae_{h}={v:.4f}(untrained {untrained.get(h, float('nan')):.4f})" for h, v in mae.items())


# ---------------------------------------------------------------------------
# serve-maze
# ---------------------------------------------------------------------------

# Decay-time strata: below, between each pair of, and above the three
# reference times, so one-tail and two-tail blends both occur and every
# seed renders with the same tails.
ER_STRATA = ((0.05, 0.1), (0.1, 0.3), (0.3, 0.9), (0.9, 1.2))
LR_STRATA = ((0.2, 0.4), (0.4, 1.0), (1.0, 1.8), (1.8, 2.4))


# Runs ``train_maze`` in a fresh interpreter: argv is the package's parent
# directory, this directory and the JSON-encoded arguments.
TRAIN_MAZE = (
    "import json, sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.train_maze(*json.loads(sys.argv[3]))"
)


def train_maze(ws, seed, dims, train_sources, epochs) -> None:
    """Write ``maze.scn`` and one trained checkpoint per group to ``ws``."""
    ws = Path(ws)
    scene = build_scene(SceneSpec(kind="maze", dims=tuple(dims), seed=seed))
    fileio.write_scene(ws / "maze.scn", scene, kind="maze", seed=seed)
    free = scene.free_indices()
    picks = sorted(np.random.default_rng([seed, 1]).choice(len(free), size=train_sources, replace=False))
    ds = training.build_dataset(scene, [scene.voxel_center(free[i]) for i in picks])
    for group, family in GROUPS:
        bundle = training.make_bundle(scene, group, family, N_LATENT, seed=seed)
        training.train(bundle, ds, training.TrainConfig(epochs=epochs, seed=seed, eval_interval=0))
        fileio.save_checkpoint(ws / f"{group}.ckpt", bundle)


@dataclass(frozen=True)
class ServeConfig:
    dims: tuple = (32, 4, 32)
    train_sources: int = 24
    epochs: int = 40
    pairs: int = 400
    centre_pairs: int = 64
    dry_s: float = 0.5


class ServeMaze(Workload):
    """Off-centre ``query_params`` stream plus ``render_offline`` on a maze."""

    def prepare(self):
        c = self.cfg
        # Training runs in a child process, so that its memory stays out of
        # this process's measured peak.
        paths = (Path(fileio.__file__).resolve().parents[1], Path(__file__).resolve().parent)
        train_args = [str(self.ws), self.seed, list(c.dims), c.train_sources, c.epochs]
        subprocess.run([sys.executable, "-c", TRAIN_MAZE, *map(str, paths), json.dumps(train_args)],
                       check=True, timeout=120)
        self.scn = self.ws / "maze.scn"
        scene, _ = fileio.read_scene(self.scn)

        rng = self.rng(2)
        jitter = rng.uniform(-0.4, 0.4, size=(c.pairs, 2, 3)) * scene.spacing
        self.pairs = self._voxel_pairs(scene, rng, c.pairs) + jitter

        rng = self.rng(3)
        self.psets = []
        for i in range(len(ER_STRATA)):
            for j in (i, len(LR_STRATA) - 1 - i):
                self.psets.append((
                    rng.uniform(-30.0, -3.0), rng.uniform(-30.0, -8.0),
                    rng.uniform(*ER_STRATA[i]), rng.uniform(*LR_STRATA[j]), _unit(rng),
                ))
        self.dry = self.ws / "dry.ir"
        ref.write_ir(self.dry, 0.1 * self.rng(4).standard_normal(int(c.dry_s * RATE)), RATE)
        self.centres = self._voxel_pairs(scene, self.rng(5), c.centre_pairs)
        self.latency = []
        self.results = []  # per round: (2, pairs, 5) values and (2, pairs, 3) DOAs
        self.render_s = 0.0
        self.render_digests = []

    @staticmethod
    def _voxel_pairs(scene, rng, count):
        """Centres of ``count`` free-voxel pairs that are neither equal nor adjacent."""
        free = scene.free_indices()
        pairs = []
        while len(pairs) < count:
            i, j = rng.integers(len(free), size=2)
            if np.max(np.abs(free[i] - free[j])) >= 2:
                pairs.append([free[i], free[j]])
        return scene.origin + np.array(pairs, dtype=float) * scene.spacing

    def setup(self):
        scene, _ = fileio.read_scene(self.scn)
        bundles = {g: fileio.load_checkpoint(self.ws / f"{g}.ckpt", scene) for g, _ in GROUPS}
        refs = runtime.default_reference_irs(sample_rate=RATE, seed=0)
        layout = runtime.octahedral_layout()
        x = fileio.read_ir_mono(self.dry).samples
        self.state = (scene, bundles, refs, layout, x)

    def run_round(self):
        scene, bundles, refs, layout, x = self.state
        perf = time.perf_counter
        values = np.full((2, len(self.pairs), 5), np.nan)
        doas = np.full((2, len(self.pairs), 3), np.nan)
        for order in (0, 1):  # every pair, then every pair swapped
            for i, (a, b) in enumerate(self.pairs):
                if order:
                    a, b = b, a
                self.attempted += 1
                t0 = perf()
                try:
                    q = runtime.query_params(bundles, scene, a, b)
                except Exception as exc:  # a refused query is a failed operation
                    self.failed += 1
                    self.errors.append(f"query_params({_vec(a)}; {_vec(b)}): {type(exc).__name__}: {exc}")
                    continue
                finally:
                    self.latency.append(perf() - t0)
                values[order, i] = (q.pi, q.l_ds, q.l_er, q.tau_er, q.tau_lr)
                doas[order, i] = q.doa
        self.results.append((values, doas))
        self.renders, digests = [], []
        for l_ds, l_er, tau_er, tau_lr, doa in self.psets:
            self.attempted += 1
            t0 = perf()
            try:
                params = AcousticParamSet(pi=0.0, l_ds=l_ds, l_er=l_er, tau_er=tau_er, tau_lr=tau_lr, doa=doa)
                out = runtime.render_offline(x, runtime.render_params(params, refs), refs, layout)
            except Exception as exc:
                self.failed += 1
                self.errors.append(f"render_offline: {type(exc).__name__}: {exc}")
                out = None
            self.render_s += perf() - t0
            self.renders.append(out)
            digests.append(None if out is None else hashlib.sha256(out.tobytes()).hexdigest())
        self.render_digests.append(digests)

    def check(self):
        scene, bundles, _, _, x = self.state
        ckpt = {g: ref.read_checkpoint(self.ws / f"{g}.ckpt") for g, _ in GROUPS}
        K = float(ckpt["decays"][0]["K"])
        out = []
        for values, doas in self.results:
            done = np.all(np.isfinite(values), axis=2).all(axis=0)
            if not np.array_equal(values[0, done], values[1, done]):
                bad = int(np.sum(np.any(values[0, done] != values[1, done], axis=1)))
                out.append(f"reciprocity: {bad} queries change when a and b are swapped")
            norms = np.linalg.norm(doas[:, done], axis=2)
            if np.any(np.abs(norms - 1.0) > 1e-12):
                out.append("query DOA: not a unit vector")
            v = values[:, done]
            if not (np.all(v[..., 0] > 0) and np.all((v[..., 3:] > 0) & (v[..., 3:] < K))):
                out.append("query: pi or decay times out of range")
        rscene = ref.read_scene(self.scn)
        for a, b in self.centres:
            q = runtime.query_params(bundles, scene, a, b)
            got = {"pi": q.pi, "l_ds": q.l_ds, "l_er": q.l_er, "tau_er": q.tau_er, "tau_lr": q.tau_lr}
            ia, ib = rscene.index_of([a, b])
            for header, params in ckpt.values():
                grid = params["grid"]
                want = ref.decode(header, params, grid[tuple(ia)][None], grid[tuple(ib)][None])
                for head, w in want.items():
                    if abs(got[head] - w[0]) > 1e-9 * max(1.0, abs(w[0])):
                        out.append(f"voxel centre query: {head} {got[head]!r} != decoder on grid latents {w[0]!r}")
                        break
        if any(d != self.render_digests[-1] for d in self.render_digests):
            out.append("render: rounds rendered the same inputs differently")
        for rendered, pset in zip(self.renders, self.psets):
            if rendered is not None:
                out += check_render(rendered, x, RATE, pset, tol=1e-9)
        return out

    def layer_figures(self):
        return {
            "runtime.query_params.p50_ms": 1e3 * float(np.percentile(self.latency, 50)),
            "runtime.query_params.p99_ms": 1e3 * float(np.percentile(self.latency, 99)),
            "runtime.render_offline.rtf": self.rtf(),
        }

    def rtf(self) -> float:
        return self.render_s / (self.n_rounds * len(self.psets) * self.cfg.dry_s)

    def summary(self):
        f = self.layer_figures()
        return (f"queries={len(self.latency)} query_p50_ms={f['runtime.query_params.p50_ms']:.4f} "
                f"query_p99_ms={f['runtime.query_params.p99_ms']:.4f} render_rtf={self.rtf():.4f}")


WORKLOADS = {
    "precompute-gym": (PrecomputeGym, GymConfig()),
    "author-aperture": (AuthorAperture, None),
    "serve-maze": (ServeMaze, ServeConfig()),
}
