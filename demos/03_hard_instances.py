"""The lower-bound instance family.

Builds the tree-of-components skeleton and its two perturbed variants,
and confirms the closed-form component gains against the exact solver.
"""

from dataclasses import replace

import numpy as np

import amdp_lab as lab
from amdp_lab.hard_instances import HardInstanceSpec

spec = HardInstanceSpec(S=14, A=4, D=32, epsilon=1 / 32, variant="M0")
print(f"spec: S={spec.S} A={spec.A} D={spec.D} eps={spec.epsilon}")
print(f"derived: {spec.A_prime} component actions, component slowness "
      f"D' = {spec.D_prime}, K = {spec.K} components, "
      f"{spec.num_internal} router states")

m0 = lab.hard_instance(spec)
print(f"\nM0: x states {m0.metadata['x_states']}, "
      f"y states {m0.metadata['y_states']}, "
      f"routers {m0.metadata['internal_states']}")
print(f"diameter = {lab.diameter(m0):.3f} (must stay below D = 32)")

m1 = lab.hard_instance(replace(spec, variant="M1"))
opt = lab.amdp_optimal(m1)
print(f"\nM1 optimal gain = {float(opt.gain[0]):.12f}")
print(f"closed form (1+8e)/(2+8e) = {(1 + 8/32) / (2 + 8/32):.12f}")
print(f"optimal actions at x states: "
      f"{[int(opt.policy.actions[x]) for x in m1.metadata['x_states']]} "
      "(the slowed-down first action everywhere)")

mkl = lab.hard_instance(replace(spec, variant="MKL", k=2, l=3))
opt_kl = lab.amdp_optimal(mkl)
x = mkl.metadata["x_states"][1]
print(f"\nM_(2,3) optimal gain = {float(opt_kl.gain[0]):.12f} "
      f"(closed form (1+8e)/2 = {(1 + 8/32)/2})")
print(f"optimal action at the distinguished x state: "
      f"{int(opt_kl.policy.actions[x])} (index l-1 = 2)")

diff = np.argwhere(np.any(mkl.transitions != m1.transitions, axis=2))
print(f"rows where M_(2,3) differs from M1: {diff.tolist()} "
      "(exactly one state-action pair)")

margin = lab.closed_form_component_gain(1 / spec.D_prime,
                                        (1 + 8 * spec.epsilon) / spec.D_prime) \
    - lab.closed_form_component_gain((1 + 8 * spec.epsilon) / spec.D_prime,
                                     (1 + 8 * spec.epsilon) / spec.D_prime)
print(f"\nper-component action margin = {margin:.6f} > eps = {spec.epsilon}")
print("so distinguishing the best action at one x state forces estimating a "
      "transition probability to within O(eps/D')")
