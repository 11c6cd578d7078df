"""Learning a near-optimal average-reward policy from samples.

The pipeline: pick a discount calibrated to the bias span, perturb the known
rewards by a tiny seeded amount, estimate transitions from a fixed number of
draws per state-action pair, plan on the empirical discounted model, and
measure the exact optimality gap of the returned policy on the truth.
"""

import numpy as np

import amdp_lab as lab
from amdp_lab.hard_instances import HardInstanceSpec

spec = HardInstanceSpec(S=6, A=3, D=32, epsilon=1 / 32, variant="M1")
truth = lab.hard_instance(spec)
opt = lab.amdp_optimal(truth)
H = max(opt.H, 1.0)
print(f"truth: optimal gain {float(opt.gain[0]):.6f}, bias span H = {opt.H:.4f}")

params = lab.reduction_params(epsilon=0.25, delta=0.05, H_bound=H,
                              num_states=6, num_actions=3, n_override=20_000)
print(f"schedule: gamma = {params.gamma:.6f}, eps_gamma = {params.eps_gamma:.4f}, "
      f"xi = {params.xi:.3e}, N = {params.n_per_pair} per pair")

gm = lab.GenerativeModel(truth, 2024)
policy = lab.algorithm1(gm, params)
gap = float(np.max(opt.gain)) - float(np.min(lab.amdp_gain_bias(truth, policy).gain))
print(f"\none run: learned policy {list(policy.actions)}, exact gap = {gap:.6f}")
print(f"samples drawn: {int(gm.sample_counter.sum())} "
      f"({params.n_per_pair} at each of the {6 * 3} pairs)")

print("\nsweep over the per-pair budget, 20 seeds each:")
for n in (100, 1_000, 10_000):
    p = lab.reduction_params(0.25, 0.05, H, 6, 3, n_override=n)
    records = lab.empirical_error(lab.GenerativeModel(truth, 7), p, trials=20)
    gaps = np.array([r.gap for r in records])
    print(f"  N = {n:>6}: median gap {np.median(gaps):.4f}, "
          f"max gap {gaps.max():.4f}, "
          f"failure rate at eps=0.25: {lab.failure_rate(records, 0.25):.2f}")
print("\nidentical seeds replay identically; the records above are a pure "
      "function of (instance, schedule, seed)")
