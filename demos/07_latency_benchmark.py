"""Measure block decode throughput and full query latency.

A decode is a block: every source latent against every receiver latent,
as one training batch decodes its sources against their shared
receivers. The decoder math amortizes to far below a microsecond per
pair on a large block; a single cold query from Python costs a few
hundred microseconds, dominated by interpolation and the visibility rays,
not by the decoder.
"""

import time

import numpy as np

import soundprop as sp
from soundprop.decoders import make_distance_decoder

n = 16
decoder = make_distance_decoder("riemann-diag", n, seed=0)
rng = np.random.default_rng(0)

for sources, receivers in ((1, 1), (1, 64), (4, 1024), (16, 4096)):
    U = rng.normal(size=(sources, n))
    V = rng.normal(size=(receivers, n))
    decoder.forward(U, V)[0]  # warm up
    pairs = sources * receivers
    reps = max(1, 200_000 // pairs)
    t0 = time.perf_counter()
    for _ in range(reps):
        decoder.forward(U, V)[0]
    per_pair = (time.perf_counter() - t0) / (reps * pairs) * 1e6
    print(f"block decode, {sources:2d} x {receivers:4d} pairs: {per_pair:9.3f} us/pair")

scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(8, 4, 8)))
bundle = sp.make_bundle(scene, "distance", "riemann-diag", n, seed=0)
bundles = {"distance": bundle}
a = scene.voxel_center((2, 1, 2)) + 0.21
b = scene.voxel_center((5, 2, 5)) + 0.13
sp.query_params(bundles, scene, a, b)  # warm up
t0 = time.perf_counter()
reps = 200
for _ in range(reps):
    sp.query_params(bundles, scene, a, b)
full = (time.perf_counter() - t0) / reps * 1e6
print(f"\nfull single query (interp + rays + stencil): {full:.0f} us")
print("the arithmetic cost per pair is the block figure; the Python")
print("query path spends its time on interpolation and line-of-sight rays")
