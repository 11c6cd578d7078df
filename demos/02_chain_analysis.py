"""Structure of induced chains: recurrent classes, limiting matrix, diameter,
and the worst-case mixing time, including the lazy transform that trades
periodicity for slow mixing.
"""

import numpy as np

import amdp_lab as lab

cycle = lab.two_state_cycle()
pi = lab.DeterministicPolicy(np.array([0, 0]))

print("== decomposition of the deterministic cycle ==")
st = lab.decompose_chain(lab.induce_chain(cycle, pi))
print(f"recurrent classes: {[list(c) for c in st.recurrent_classes]}, "
      f"period {st.period[0]}, stationary {st.stationary[0]}")
print("limiting matrix:\n", st.limiting_matrix)

print("\n== diameter vs mixing time pull apart ==")
D, t_mix, H = lab.diameter(cycle), lab.mixing_time(cycle), lab.amdp_optimal(cycle).H
print(f"cycle: D = {D}, t_mix = {t_mix}, H = {H}")
print("periodicity makes t_mix infinite even though the diameter is 1")

slow = lab.two_state_slow_chain(100)
D, t_mix, H = lab.diameter(slow), lab.mixing_time(slow), lab.amdp_optimal(slow).H
print(f"slow chain (D parameter 100): D = {D:.0f}, t_mix = {t_mix:.0f}, H = {H:.4f}")
print("here the diameter is huge while one step already mixes")

print("\n== lazy transform: bounded diameter, exploding mixing time ==")
for tau in (0.25, 0.1, 0.01):
    lazy = lab.aperiodicity_transform(cycle, tau)
    print(f"tau = {tau:<5}: t_mix = {lab.mixing_time(lazy):>4.0f},  "
          f"diameter = {lab.diameter(lazy):.4f}")
print("the lazy chains stay within diameter 2 while t_mix grows without bound")

print("\n== order relations on a random batch ==")
violations = 0
for iid, m in lab.standard_corpus(count=50, master_seed=11):
    D, t_mix, H = lab.diameter(m), lab.mixing_time(m), lab.amdp_optimal(m).H
    if H > D + 1e-6:
        violations += 1
    if np.isfinite(t_mix) and H > 8 * t_mix + 1e-6:
        violations += 1
print(f"H <= D and H <= 8 t_mix held on all 50 instances "
      f"({violations} violations)")
