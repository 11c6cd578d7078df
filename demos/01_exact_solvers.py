"""Exact planning on two tiny chains.

Walks through discounted policy evaluation, Q-value iteration, average-reward
gain/bias, the shifted discounted value, and finite-horizon values, printing
each quantity next to its closed form.
"""

import numpy as np

import amdp_lab as lab
from amdp_lab.solvers import horizon_iterates

cycle = lab.two_state_cycle()          # deterministic 2-cycle, rewards (1, 0)
pi = lab.DeterministicPolicy(np.array([0, 0]))

print("== discounted evaluation ==")
gamma = 0.9
V = lab.dmdp_policy_value(cycle, pi, gamma)
print(f"V_{gamma} = {V}   (closed form: 1/(1-g^2), g/(1-g^2) = "
      f"{1/(1-gamma**2):.6f}, {gamma/(1-gamma**2):.6f})")

print("\n== average reward: gain and bias ==")
gb = lab.amdp_gain_bias(cycle, pi)
print(f"gain = {gb.gain}   bias = {gb.bias}   sp(bias) = {lab.span(gb.bias)}")
print("the bias span 1/2 is exactly the long-run advantage of starting on the"
      " rewarding side of the cycle")

print("\n== optimal control: policy iteration, and relative VI to compare ==")
opt_pi = lab.amdp_optimal(cycle)
rho_rvi, h_rvi, _ = lab.relative_value_iteration(cycle)
print(f"policy iteration: rho* = {opt_pi.gain[0]:.12f}, H = {opt_pi.H:.12f}")
print(f"relative VI:      rho* = {rho_rvi:.12f}, H = {lab.span(h_rvi):.12f}")

print("\n== shifted discounted value ==")
h_gamma = lab.dmdp_policy_iteration(cycle, gamma)[1] - opt_pi.gain / (1.0 - gamma)
print(f"V*_g - rho*/(1-g) = {h_gamma}")
print("its span equals sp(V*_g); the vector itself solves the discounted "
      "optimality equation rewritten with the average-reward gain")

print("\n== finite horizon ==")
chain = lab.induce_chain(cycle, pi)
for T in (1, 2, 5):
    print(f"V_{T} = {horizon_iterates(chain.matrix, chain.reward, T)[-1]}")
print("V_T tracks T * gain + bias - P^T bias exactly, at every horizon")

print("\n== a slowly-leaving chain ==")
slow = lab.two_state_slow_chain(4)
gb = lab.amdp_gain_bias(slow, pi)
print(f"gain = {gb.gain}  (stationary mass of the rewarding state is 4/5)")
