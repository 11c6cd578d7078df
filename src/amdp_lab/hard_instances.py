"""Generators for the lower-bound instance family.

The family is built from a two-state component (a reward state x and a dull
state y exchanging mass slowly) whose copies sit under the leaves of a
bounded-arity tree of zero-reward router states.  Variant M0 is the
symmetric skeleton; M1 makes the first component action strictly best at
every x state; MKL further makes action l strictly best at the single
component k.  Every instance is communicating with diameter at most D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import InfeasibleInstanceError, TabularMdp

EPSILON_CAP = 1.0 / 32.0  # strictest admissible perturbation size


def _ceil_log(base: int, x: int) -> int:
    """Smallest t with base**t >= x, computed in exact integers."""
    t, power = 0, 1
    while power < x:
        power *= base
        t += 1
    return t


@dataclass(frozen=True)
class HardInstanceSpec:
    """Admissible parameter set for the hard family.

    Derived quantities: A' = A - 1 component actions, D' = D / 8 component
    slowness, K = ceil(S / 3) components.
    """

    S: int
    A: int
    D: float
    epsilon: float
    variant: str = "M0"
    k: int | None = None
    l: int | None = None

    def __post_init__(self):
        if self.A < 3:
            raise InfeasibleInstanceError(f"A must be at least 3, got {self.A}")
        floor_D = max(16 * _ceil_log(self.A, self.S), 16)
        if self.D < floor_D:
            raise InfeasibleInstanceError(
                f"D = {self.D} inadmissible: need D >= max(16*ceil(log_A S), 16) = {floor_D}")
        if not 0.0 < self.epsilon <= EPSILON_CAP:
            raise InfeasibleInstanceError(
                f"epsilon must lie in (0, 1/32], got {self.epsilon}")
        if self.variant not in ("M0", "M1", "MKL"):
            raise InfeasibleInstanceError(f"unknown variant {self.variant!r}")
        if self.variant == "MKL":
            if self.k is None or self.l is None:
                raise InfeasibleInstanceError("variant MKL needs both k and l")
            if not 1 <= self.k <= self.K:
                raise InfeasibleInstanceError(f"k must lie in [1, {self.K}], got {self.k}")
            if not 2 <= self.l <= self.A_prime:
                raise InfeasibleInstanceError(
                    f"l must lie in [2, {self.A_prime}], got {self.l}")
        # a feasible tree must exist; raises otherwise
        _plan_tree(self.num_internal, self.K, self.A_prime)

    @property
    def A_prime(self) -> int:
        return self.A - 1

    @property
    def D_prime(self) -> float:
        return self.D / 8.0

    @property
    def K(self) -> int:
        return math.ceil(self.S / 3)

    @property
    def num_internal(self) -> int:
        return self.S - 2 * self.K


def _plan_tree(n_internal: int, n_leaves: int, arity: int):
    """Deterministic tree with exactly n_internal non-leaf nodes and
    n_leaves leaves, each node holding at most ``arity`` children.

    Internal nodes fill breadth-first; every childless internal node then
    receives one leaf before the remaining leaves fill breadth-first.
    Returns (children, parent) over node ids 0..n_internal-1 (internal,
    root = 0) and n_internal..n_internal+n_leaves-1 (leaves).
    """
    if n_internal < 1:
        raise InfeasibleInstanceError(
            f"S and A leave {n_internal} non-leaf tree nodes; at least 1 is needed")
    if arity * n_internal < n_internal - 1 + n_leaves:
        raise InfeasibleInstanceError(
            f"a tree with {n_internal} internal nodes of arity {arity} cannot "
            f"hold {n_leaves} leaves")
    children: list[list[int]] = [[] for _ in range(n_internal)]
    parent: dict[int, int] = {}

    def attach(node: int) -> None:
        for p in range(n_internal):
            if len(children[p]) < arity:
                children[p].append(node)
                parent[node] = p
                return
        raise InfeasibleInstanceError("tree arity exhausted")  # guarded above

    for node in range(1, n_internal):
        attach(node)
    leaves = list(range(n_internal, n_internal + n_leaves))
    childless = [p for p in range(n_internal) if not children[p]]
    if len(childless) > n_leaves:
        raise InfeasibleInstanceError(
            f"{len(childless)} internal nodes would stay childless with "
            f"{n_leaves} leaves")
    pending = list(leaves)
    for p in childless:
        leaf = pending.pop(0)
        children[p].append(leaf)
        parent[leaf] = p
    for leaf in pending:
        attach(leaf)
    return children, parent


def closed_form_component_gain(q_xy: float, q_yx: float) -> float:
    """Gain of the two-state component with exchange rates q_xy (x to y) and
    q_yx (y to x): the stationary mass of x, q_yx / (q_xy + q_yx), since x
    pays 1 and y pays 0."""
    if not (0.0 < q_xy <= 1.0 and 0.0 < q_yx <= 1.0):
        raise ValueError("exchange probabilities must lie in (0, 1]")
    return q_yx / (q_xy + q_yx)


def component_mdp(D_prime: float, epsilon: float, A_prime: int) -> TabularMdp:
    """Standalone two-state component: A' identical actions swapping x and y
    with probability (1 + 8 eps) / D', reward 1 at x and 0 at y."""
    p = (1.0 + 8.0 * epsilon) / D_prime
    if p > 1.0:
        raise InfeasibleInstanceError(
            f"(1 + 8 eps) / D' = {p} exceeds 1; component probabilities invalid")
    P = np.zeros((2, A_prime, 2))
    P[0, :, 1] = p
    P[0, :, 0] = 1.0 - p
    P[1, :, 0] = p
    P[1, :, 1] = 1.0 - p
    r = np.zeros((2, A_prime))
    r[0, :] = 1.0
    return TabularMdp(2, A_prime, P, r,
                      metadata={"name": "component", "D_prime": D_prime,
                                "epsilon": epsilon})


def build_m0(spec: HardInstanceSpec) -> TabularMdp:
    """Assemble the M0 skeleton for the given spec (any variant shares it)."""
    S, A = spec.S, spec.A
    arity = spec.A_prime
    n_int, K = spec.num_internal, spec.K
    children, parent = _plan_tree(n_int, K, arity)

    # state ids: internal tree nodes keep 0..n_int-1; leaf j becomes the
    # component pair (x, y) = (n_int + 2j, n_int + 2j + 1)
    def state_of(node: int) -> int:
        return node if node < n_int else n_int + 2 * (node - n_int)

    x_states = [n_int + 2 * j for j in range(K)]
    y_states = [n_int + 2 * j + 1 for j in range(K)]

    P = np.zeros((S, A, S))
    r = np.zeros((S, A))
    p_swap = (1.0 + 8.0 * spec.epsilon) / spec.D_prime

    for node in range(n_int):
        s = state_of(node)
        acts = [state_of(c) for c in children[node]]
        if node != 0:
            acts.append(state_of(parent[node]))
        for a in range(A):
            P[s, a, acts[a] if a < len(acts) else s] = 1.0

    for j in range(K):
        x, y = x_states[j], y_states[j]
        for a in range(arity):
            P[x, a, y] = p_swap
            P[x, a, x] = 1.0 - p_swap
            r[x, a] = 1.0
            P[y, a, x] = p_swap
            P[y, a, y] = 1.0 - p_swap
        P[x, A - 1, state_of(parent[n_int + j])] = 1.0  # back up the tree
        P[y, A - 1, y] = 1.0

    meta = {"name": "M0", "S": S, "A": A, "D": spec.D, "epsilon": spec.epsilon,
            "variant": "M0", "x_states": x_states, "y_states": y_states,
            "internal_states": list(range(n_int))}
    return TabularMdp(S, A, P, r, metadata=meta)


def _lower_swap(m: TabularMdp, x: int, y: int, action: int, p_new: float,
                meta_update: dict) -> TabularMdp:
    P = m.transitions.copy()
    P[x, action, y] = p_new
    P[x, action, x] = 1.0 - p_new  # self-loop takes the freed mass exactly
    meta = dict(m.metadata)
    meta.update(meta_update)
    return TabularMdp(m.num_states, m.num_actions, P, m.rewards, metadata=meta)


def build_m1(spec: HardInstanceSpec) -> TabularMdp:
    """M1: at every x state, the first component action leaks to y only with
    probability 1 / D', making it the strictly best action there."""
    m = build_m0(spec)
    p_slow = 1.0 / spec.D_prime
    for x, y in zip(m.metadata["x_states"], m.metadata["y_states"]):
        m = _lower_swap(m, x, y, 0, p_slow, {})
    meta = dict(m.metadata)
    meta.update({"name": "M1", "variant": "M1"})
    return TabularMdp(m.num_states, m.num_actions, m.transitions, m.rewards,
                      metadata=meta)


def build_mkl(spec: HardInstanceSpec, k: int, l: int) -> TabularMdp:
    """MKL: M1 with the swap probability of action l at component k lowered
    to (1 - 8 eps) / D', which makes action l the best choice at that x."""
    if not 1 <= k <= spec.K:
        raise InfeasibleInstanceError(f"k must lie in [1, {spec.K}], got {k}")
    if not 2 <= l <= spec.A_prime:
        raise InfeasibleInstanceError(f"l must lie in [2, {spec.A_prime}], got {l}")
    m = build_m1(spec)
    x = m.metadata["x_states"][k - 1]
    y = m.metadata["y_states"][k - 1]
    p_fast = (1.0 - 8.0 * spec.epsilon) / spec.D_prime
    return _lower_swap(m, x, y, l - 1, p_fast,
                       {"name": f"M_{k},{l}", "variant": "MKL", "k": k, "l": l})


def hard_instance(spec: HardInstanceSpec) -> TabularMdp:
    """Build the instance named by spec.variant."""
    if spec.variant == "M0":
        return build_m0(spec)
    if spec.variant == "M1":
        return build_m1(spec)
    return build_mkl(spec, spec.k, spec.l)
