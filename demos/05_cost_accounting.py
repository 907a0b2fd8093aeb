"""Memory and compute accounting for the two reference map sizes."""

import soundprop as sp
from soundprop.decoders import DotProductDecoder, make_distance_decoder

maps = {
    "gym (59x8x59)": (59, 8, 59),
    "wal (173x8x154)": (173, 8, 154),
}
families = ["euclidean", "riemann-psd", "riemann-diag", "mlp-small", "mlp-large"]

print(f"{'decoder':14s} {'params':>8s} {'flops':>8s}")
for family in families:
    d = make_distance_decoder(family, 16)
    print(f"{family:14s} {d.param_count():8d} {d.flop_count():8d}")
d = DotProductDecoder(16)
print(f"{'dot-product':14s} {d.param_count():8d} {d.flop_count():8d}")

print()
print(f"{'map':18s} {'latent grid':>12s} {'dense table':>12s}  ratio")
for name, dims in maps.items():
    r = sp.cost_report(dims, 16)
    ratio = r.wavecoding_bytes / r.rlf_bytes
    print(f"{name:18s} {r.rlf_memory:>12s} {r.wavecoding_memory:>12s}  {ratio:8.0f}x")
