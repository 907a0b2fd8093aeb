#!/usr/bin/env python3
"""soundprop benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload precompute-gym --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a soundprop source tree; the package is imported from
``src/`` next to this directory. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Scratch files go to ``.perfbench-work/`` and traces to
``.perfbench-out/`` under the root; the scratch directory of a run is
removed when it ends.
"""

import os

# One BLAS thread: steadier timings on a small machine, and the program's
# work is mostly single-threaded numpy and Python anyway.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 11
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("round_s", "s"))
WORKLOAD_NAMES = ("precompute-gym", "author-aperture", "serve-maze")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="show that every output check rejects a corrupted output")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import numpy, soundprop.cli; print(time.perf_counter() - t0)"
)


def import_program() -> None:
    if not (ROOT / "src" / "soundprop" / "__init__.py").is_file():
        raise SystemExit(f"error: no soundprop package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import soundprop.cli  # noqa: F401  (imports every layer)


def import_seconds() -> float:
    """Median time to import numpy and every soundprop module in a fresh
    interpreter; one import is too noisy to compare on its own."""
    times = []
    for _ in range(SETUP_REPS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def run(args) -> dict:
    import_program()
    import_s = import_seconds()
    from layers import PER_LAYER, install_hooks, per_layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    seed = args.seed % 2**32
    ws = ROOT / ".perfbench-work" / f"{args.workload}-{seed}-{os.getpid()}"
    ws.mkdir(parents=True)
    try:
        cls, cfg = WORKLOADS[args.workload]
        wl = cls(ws, seed, cfg)
        wl.prepare()

        tracer = None
        if args.trace:
            tracer = Tracer()
            install_hooks(tracer)
            tracer.install()
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        if tracer:
            setup_totals = tracer.take()

        wl.phase = "round"
        round_times = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wl.run_round()
            round_times.append(time.perf_counter() - t0)
            wl.n_rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            round_totals = tracer.take()

        failures = []
        try:
            failures = wl.check()
        except Exception as exc:  # a missing or unreadable output fails the check
            failures = [f"check aborted: {type(exc).__name__}: {exc}"]
        for msg in wl.errors[:20] + failures[:50]:
            print(f"{args.workload}: {msg}", file=sys.stderr)

        round_s = statistics.median(round_times)
        if tracer:
            values = per_layer_metrics(setup_totals, round_totals, SETUP_REPS, wl.n_rounds, wl, round_s)
            units = dict(PER_LAYER)
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / f"trace-{args.workload}-seed{seed}.json", "w") as fh:
                phases = (("setup", setup_totals), ("rounds", round_totals))
                trace = {k: {"spans": spans, "counters": counters} for k, (spans, counters) in phases}
                json.dump({**trace, "metrics": values}, fh, indent=1)
        else:
            values = {
                "setup_s": import_s + statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
                "round_s": round_s,
            }
            units = dict(END_TO_END)
        print(
            f"# {args.workload} seed={seed} trace={args.trace} rounds={wl.n_rounds} "
            f"round_s={[round(t, 3) for t in round_times]} import_s={import_s:.3f} "
            f"setup_reps_s={[round(t, 4) for t in setup_times]} {wl.summary()}"
        )
        return {
            "correct": not failures,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
        }
    finally:
        shutil.rmtree(ws, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_test:
        import_program()
        import selftest

        return selftest.main(ROOT / ".perfbench-work")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
