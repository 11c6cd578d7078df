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
        if not floor_D <= self.D < math.inf:
            raise InfeasibleInstanceError(
                f"D = {self.D} inadmissible: need finite "
                f"D >= max(16*ceil(log_A S), 16) = {floor_D}")
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


def hard_instance(spec: HardInstanceSpec) -> TabularMdp:
    """Build the instance named by spec.variant in one pass.

    Component action a moves x_j to y_j with probability leak[j, a], and
    y_j back with (1 + 8 eps) / D'; the last action climbs the tree from
    x_j and stays at y_j.  leak is (1 + 8 eps) / D' in M0; M1 and MKL lower
    column 0 to 1 / D', and MKL entry (k - 1, l - 1) to (1 - 8 eps) / D'.
    """
    S, A, K, n_int = spec.S, spec.A, spec.K, spec.num_internal
    children, parent = _plan_tree(n_int, K, spec.A_prime)
    p_swap = (1.0 + 8.0 * spec.epsilon) / spec.D_prime
    leak = np.full((K, spec.A_prime), p_swap)
    if spec.variant != "M0":
        leak[:, 0] = 1.0 / spec.D_prime
    if spec.variant == "MKL":
        leak[spec.k - 1, spec.l - 1] = (1.0 - 8.0 * spec.epsilon) / spec.D_prime

    # state ids: internal tree nodes keep 0..n_int-1; leaf j becomes the
    # component pair (x, y) = (n_int + 2j, n_int + 2j + 1)
    def state_of(node: int) -> int:
        return node if node < n_int else n_int + 2 * (node - n_int)

    P = np.zeros((S, A, S))
    r = np.zeros((S, A))
    for node in range(n_int):
        acts = [state_of(c) for c in children[node]]
        if node != 0:
            acts.append(state_of(parent[node]))
        for a in range(A):
            P[node, a, acts[a] if a < len(acts) else node] = 1.0

    x = n_int + 2 * np.arange(K)
    y = x + 1
    xc, yc, comp = x[:, None], y[:, None], np.arange(spec.A_prime)
    P[xc, comp, yc] = leak
    P[xc, comp, xc] = 1.0 - leak
    P[yc, comp, xc] = p_swap
    P[yc, comp, yc] = 1.0 - p_swap
    r[x, :-1] = 1.0
    P[x, A - 1, [state_of(parent[n_int + j]) for j in range(K)]] = 1.0
    P[y, A - 1, y] = 1.0

    mkl = spec.variant == "MKL"
    meta = {"name": f"M_{spec.k},{spec.l}" if mkl else spec.variant, "S": S, "A": A,
            "D": spec.D, "epsilon": spec.epsilon, "variant": spec.variant,
            "x_states": x.tolist(), "y_states": y.tolist(),
            "internal_states": list(range(n_int))}
    if mkl:
        meta.update(k=spec.k, l=spec.l)
    return TabularMdp(S, A, P, r, metadata=meta)

