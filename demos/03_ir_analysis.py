"""Synthesize an impulse response with known parameters and re-extract them."""


import soundprop as sp

truth = sp.AcousticParamSet(
    pi=12.0, l_ds=-14.0, l_er=-20.0, tau_er=0.45, tau_lr=1.1
)
ir = sp.synth_ir(truth, seed=42)
got = sp.extract_params(ir)

print(f"{'parameter':10s} {'truth':>10s} {'extracted':>10s}")
for name in ("pi", "l_ds", "l_er", "tau_er", "tau_lr"):
    print(f"{name:10s} {getattr(truth, name):10.3f} {getattr(got, name):10.3f}")
print(f"{'l_lr':10s} {'(matched)':>10s} {got.l_lr:10.3f}")

curve = sp.schroeder_curve(ir)
t_ds, _ = sp.arrival_and_distance(ir)
print("\nbackward energy curve (dB re total):")
for t in (t_ds, t_ds + 0.1, t_ds + 0.4, t_ds + 1.0):
    i = int(t * curve.sample_rate)
    print(f"  S({t:5.3f} s) = {curve.values_db[i]:8.2f} dB")
