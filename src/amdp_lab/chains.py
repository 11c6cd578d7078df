"""Structural analysis of Markov chains and tabular MDPs.

Covers recurrent-class decomposition, per-class stationary distributions and
periods, the Cesaro limiting matrix, minimal expected hitting times and the
MDP diameter, worst-case-policy mixing time, the lazy (aperiodicity)
transformation, and connectivity classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .mdp import (
    EnumerationBudgetError,
    InducedChain,
    SolverConvergenceError,
    TabularMdp,
)

#: expected-hitting-time iterates above this are treated as divergent
HITTING_TIME_CAP = 1e9


@dataclass(frozen=True)
class ChainStructure:
    """Recurrent decomposition of a finite Markov chain.

    recurrent_classes are sorted by smallest member; stationary[k] is the
    distribution over recurrent_classes[k] (in that index order); period[k]
    is the gcd of cycle lengths inside class k; limiting_matrix is the Cesaro
    limit of the chain's powers.
    """

    recurrent_classes: tuple[np.ndarray, ...]
    transient_states: np.ndarray
    stationary: tuple[np.ndarray, ...]
    limiting_matrix: np.ndarray
    period: tuple[int, ...]

    @property
    def is_unichain(self) -> bool:
        return len(self.recurrent_classes) == 1

    @property
    def is_aperiodic(self) -> bool:
        return all(p == 1 for p in self.period)


@dataclass(frozen=True)
class MdpParameters:
    """Bundle of structural parameters: diameter, worst-case mixing time, and
    the optimal bias span."""

    diameter: float
    t_mix: float
    H: float


# ---------------------------------------------------------------------------
# reachability / recurrence primitives


def _closure(support: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean adjacency matrix.

    Works on a single (S, S) matrix or a batch (..., S, S); uses repeated
    boolean squaring, so the cost is O(log S) matrix products.
    """
    S = support.shape[-1]
    eye = np.eye(S, dtype=bool)
    C = support | eye
    steps = max(1, int(math.ceil(math.log2(S))) if S > 1 else 1)
    for _ in range(steps):
        C = C | (np.matmul(C.astype(np.float32), C.astype(np.float32)) > 0)
    return C


def _structure_masks(support: np.ndarray):
    """Return (comm, recurrent) masks from a support matrix or batch.

    comm[s, t] marks mutual reachability; recurrent[s] marks states whose
    communicating class is closed (every reachable state can reach back).
    """
    C = _closure(support)
    comm = C & np.swapaxes(C, -1, -2)
    recurrent = ~np.any(C & ~np.swapaxes(C, -1, -2), axis=-1)
    return comm, recurrent


def _class_period(support: np.ndarray, states: np.ndarray) -> int:
    """Period of one closed class: gcd of (level[u] + 1 - level[v]) over its
    edges, with BFS levels measured from the smallest state."""
    local = {int(s): i for i, s in enumerate(states)}
    sub = support[np.ix_(states, states)]
    n = len(states)
    level = np.full(n, -1, dtype=int)
    level[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in np.flatnonzero(sub[u]):
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(int(v))
    g = 0
    for u in range(n):
        for v in np.flatnonzero(sub[u]):
            g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g != 0 else 1


def _stationary_on_class(P: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Stationary distribution of the chain restricted to one closed class,
    by replacing the last balance equation with normalization."""
    sub = P[np.ix_(states, states)]
    n = len(states)
    M = sub.T - np.eye(n)
    M[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(M, b)


def decompose_chain(chain: InducedChain | np.ndarray) -> ChainStructure:
    """Full recurrent decomposition of a stochastic matrix.

    Recurrent classes are the closed strongly-connected components of the
    support digraph; transient rows of the limiting matrix mix the class
    stationary distributions with the absorption probabilities obtained from
    the transient sub-block.
    """
    P = chain.matrix if isinstance(chain, InducedChain) else np.asarray(chain, dtype=float)
    S = P.shape[0]
    support = P > 0
    comm, recurrent = _structure_masks(support)

    classes: list[np.ndarray] = []
    seen = np.zeros(S, dtype=bool)
    for s in range(S):
        if recurrent[s] and not seen[s]:
            members = np.flatnonzero(comm[s] & recurrent)
            classes.append(members)
            seen[members] = True
    transient = np.flatnonzero(~recurrent)

    stationary = [_stationary_on_class(P, members) for members in classes]
    periods = [_class_period(support, members) for members in classes]

    limiting = np.zeros((S, S))
    for members, nu in zip(classes, stationary):
        limiting[np.ix_(members, members)] = np.tile(nu, (len(members), 1))
    if len(transient) > 0:
        Q = P[np.ix_(transient, transient)]
        # absorption probabilities into each class, column k per class
        R = np.stack([P[np.ix_(transient, members)].sum(axis=1) for members in classes],
                     axis=1)
        absorb = np.linalg.solve(np.eye(len(transient)) - Q, R)
        for k, (members, nu) in enumerate(zip(classes, stationary)):
            limiting[np.ix_(transient, members)] += np.outer(absorb[:, k], nu)

    return ChainStructure(
        recurrent_classes=tuple(classes),
        transient_states=transient,
        stationary=tuple(stationary),
        limiting_matrix=limiting,
        period=tuple(periods),
    )


# ---------------------------------------------------------------------------
# batched policy enumeration (shared with the exact solvers)


def all_deterministic_policies(num_states: int, num_actions: int,
                               budget: int = 10**6) -> np.ndarray:
    """All deterministic policies as an (A^S, S) int array in lexicographic
    order of the action arrays."""
    count = num_actions ** num_states
    if count > budget:
        raise EnumerationBudgetError(
            f"{num_actions}^{num_states} = {count} policies exceeds budget {budget}")
    return np.array(list(product(range(num_actions), repeat=num_states)),
                    dtype=int).reshape(count, num_states)


def induced_chain_batch(m: TabularMdp, policies: np.ndarray):
    """Induced transition matrices (n, S, S) and rewards (n, S) for a batch
    of deterministic policies given as an (n, S) action array."""
    idx = np.arange(m.num_states)[None, :]
    return m.transitions[idx, policies], m.rewards[idx, policies]


def _policy_batch(m: TabularMdp, budget: int):
    """Every deterministic policy with its induced chains, classified in one
    batch: (policies, P_all, r_all, recurrent, multi), where recurrent[i]
    marks the states in closed classes of policy i's chain and multi[i] is
    True when that chain has more than one closed class."""
    policies = all_deterministic_policies(m.num_states, m.num_actions, budget)
    P_all, r_all = induced_chain_batch(m, policies)
    comm, recurrent = _structure_masks(P_all > 0)
    multi = np.any(~comm & recurrent[:, :, None] & recurrent[:, None, :], axis=(1, 2))
    return policies, P_all, r_all, recurrent, multi


def _batch_aperiodic(support: np.ndarray, recurrent: np.ndarray) -> np.ndarray:
    """Aperiodicity of the single closed class of each chain in a batch.

    support is (n, S, S) and recurrent (n, S) marks each chain's one closed
    class.  A self-loop inside the class settles it.  Otherwise the class,
    restricted support R, is aperiodic iff R^k > 0 on class x class for
    k = 2^ceil(log2((S-1)^2 + 1)): by Wielandt's bound a primitive n-state
    matrix has A^k > 0 for every k >= (n-1)^2 + 1, and a periodic one never
    does.  The power is taken by repeated boolean squaring, as in _closure.
    """
    aperiodic = np.any(np.diagonal(support, axis1=1, axis2=2) & recurrent, axis=1)
    rest = np.flatnonzero(~aperiodic)
    if rest.size:
        S = support.shape[-1]
        block = recurrent[rest, :, None] & recurrent[rest, None, :]
        X = support[rest] & block
        for _ in range(math.ceil(math.log2((S - 1) ** 2 + 1))):
            Xf = X.astype(np.float32)
            X = np.matmul(Xf, Xf) > 0
        aperiodic[rest] = np.all(X | ~block, axis=(1, 2))
    return aperiodic


def _batch_unichain_stationary(P_all: np.ndarray) -> np.ndarray:
    """Stationary distributions for a batch of unichain matrices.

    Solves min ||(P^T - I) nu|| s.t. sum(nu) = 1 through the nonsingular
    normal system (A^T A + 11^T) nu = 1, valid whenever the chain has a
    single recurrent class.
    """
    n, S, _ = P_all.shape
    A = np.swapaxes(P_all, 1, 2) - np.eye(S)
    G = np.matmul(np.swapaxes(A, 1, 2), A) + 1.0
    return np.linalg.solve(G, np.ones((n, S, 1)))[:, :, 0]


# ---------------------------------------------------------------------------
# diameter


def _almost_sure_reach_set(m: TabularMdp, target: int) -> np.ndarray:
    """States from which some policy hits ``target`` with probability one.

    Iterated backward reachability: shrink the candidate set to the states
    that can reach the target through actions whose whole support stays
    inside the candidates, until stable.  Exactly these states have a finite
    minimal expected hitting time.
    """
    S = m.num_states
    supports = [[np.flatnonzero(m.transitions[s, a] > 0)
                 for a in range(m.num_actions)] for s in range(S)]
    candidates = np.ones(S, dtype=bool)
    while True:
        reached = np.zeros(S, dtype=bool)
        reached[target] = True
        grew = True
        while grew:
            grew = False
            for s in np.flatnonzero(candidates & ~reached):
                for supp in supports[s]:
                    if candidates[supp].all() and reached[supp].any():
                        reached[s] = True
                        grew = True
                        break
        if np.array_equal(reached, candidates):
            return candidates
        candidates = reached


def min_expected_hitting_times(m: TabularMdp, target: int,
                               tol: float = 1e-9,
                               max_sweeps: int = 10**7) -> np.ndarray:
    """Minimal expected hitting times T(s) to ``target`` over all policies.

    Value-iterates T(s) = min_a { 1 + sum_{s' != target} P(s'|s,a) T(s') }
    from zero.  States with no policy reaching the target almost surely are
    pinned to +inf up front (their iterates would otherwise diverge), and
    iterates exceeding HITTING_TIME_CAP are declared infinite as a backstop.
    Raises SolverConvergenceError when max_sweeps pass without convergence.
    """
    S = m.num_states
    finite = _almost_sure_reach_set(m, target)
    P = m.transitions.copy()
    P[:, :, target] = 0.0
    sentinel = 10.0 * HITTING_TIME_CAP
    T = np.where(finite, 0.0, sentinel)
    T[target] = 0.0
    for _ in range(max_sweeps):
        candidates = 1.0 + np.einsum("sat,t->sa", P, T)
        T_new = candidates.min(axis=1)
        T_new[target] = 0.0
        T_new[~finite] = sentinel
        if np.max(T_new[finite]) > HITTING_TIME_CAP:
            break
        if np.max(np.abs(T_new - T)[finite]) <= tol:
            T = T_new
            break
        T = T_new
    else:
        raise SolverConvergenceError(
            f"hitting times to {target} did not converge in {max_sweeps} sweeps")
    out = np.where(finite, T, math.inf)
    out[out > HITTING_TIME_CAP] = math.inf
    return out


def diameter(m: TabularMdp) -> float:
    """MDP diameter: max over ordered pairs s1 != s2 of the minimal expected
    hitting time from s1 to s2; +inf when some pair is unreachable."""
    worst = 0.0
    for target in range(m.num_states):
        T = min_expected_hitting_times(m, target)
        others = np.delete(T, target)
        if others.size and np.max(others) > worst:
            worst = float(np.max(others))
        if math.isinf(worst):
            return math.inf
    return worst


# ---------------------------------------------------------------------------
# mixing time


def chain_mixing_time(chain: InducedChain | np.ndarray, threshold: float = 0.5,
                      t_cap: int = 100_000) -> float:
    """Mixing time of one chain: least t >= 1 with
    max_s ||e_s P^t - nu||_1 <= threshold.

    Returns +inf for periodic chains and for chains with more than one
    recurrent class (no single invariant limit exists from all starts).
    Raises SolverConvergenceError when the distance is still above the
    threshold at t = t_cap.
    """
    P = chain.matrix if isinstance(chain, InducedChain) else np.asarray(chain, dtype=float)
    structure = decompose_chain(P)
    if not structure.is_unichain or not structure.is_aperiodic:
        return math.inf
    nu = structure.limiting_matrix[structure.recurrent_classes[0][0]]
    X = P.copy()
    for t in range(1, t_cap + 1):
        if np.max(np.abs(X - nu).sum(axis=1)) <= threshold:
            return float(t)
        X = X @ P
    raise SolverConvergenceError(f"chain did not mix within t_cap = {t_cap}")


def mixing_time(m: TabularMdp, threshold: float = 0.5, t_cap: int = 100_000,
                budget: int = 10**6) -> float:
    """Worst-case mixing time over all deterministic policies.

    Returns +inf when some policy's chain has several recurrent classes or a
    periodic one; raises SolverConvergenceError when some policy is still
    farther than the threshold from stationarity at t = t_cap.  The
    threshold bounds the l1 distance ||e_s P^t - nu||_1 itself.

    Aperiodicity is decided for the whole policy stack at once (see
    _batch_aperiodic): a self-loop in the closed class settles a policy, and
    the rest take O(log S) batched boolean squarings.
    """
    _, P_all, _, recurrent, multi = _policy_batch(m, budget)
    if np.any(multi) or not np.all(_batch_aperiodic(P_all > 0, recurrent)):
        return math.inf

    n = P_all.shape[0]
    nus = _batch_unichain_stationary(P_all)
    hit = np.zeros(n)
    pending = np.ones(n, dtype=bool)
    X = P_all.copy()
    for t in range(1, t_cap + 1):
        dist = np.abs(X - nus[:, None, :]).sum(axis=2).max(axis=1)
        newly = pending & (dist <= threshold)
        hit[newly] = t
        pending &= ~newly
        if not pending.any():
            return float(hit.max())
        X = np.matmul(X, P_all)
    raise SolverConvergenceError(
        f"{int(pending.sum())} policies did not mix within t_cap = {t_cap}")


# ---------------------------------------------------------------------------
# lazy transform and connectivity


def aperiodicity_transform(m: TabularMdp, tau: float) -> TabularMdp:
    """Lazy-chain mixture P_tau = (1 - tau) P + tau I per action; rewards are
    unchanged, so stationary distributions and gains are preserved."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    P = (1.0 - tau) * m.transitions
    P = P + tau * np.eye(m.num_states)[:, None, :]
    meta = dict(m.metadata)
    meta["lazy_tau"] = meta.get("lazy_tau", 0.0) + tau * (1.0 - meta.get("lazy_tau", 0.0))
    return TabularMdp(m.num_states, m.num_actions, P, m.rewards, meta)


def union_support(m: TabularMdp) -> np.ndarray:
    """Boolean digraph with an edge s -> s' when some action moves s to s'."""
    return np.any(m.transitions > 0, axis=1)


def is_communicating(m: TabularMdp) -> bool:
    """True when every ordered pair of states is connected under some policy
    (equivalently, the diameter is finite)."""
    return bool(np.all(_closure(union_support(m))))


def is_weakly_communicating(m: TabularMdp) -> bool:
    """True when the states split into one communicating closed set plus
    states that are transient under every policy."""
    support = union_support(m)
    comm, recurrent = _structure_masks(support)
    if not np.any(recurrent):
        return False
    rec_states = np.flatnonzero(recurrent)
    if not np.all(comm[np.ix_(rec_states, rec_states)]):
        return False  # more than one closed class in the union digraph
    # Outside the closed class, no subset may be closable by some policy:
    # greatest fixed point of "keep u if some action stays inside".
    outside = np.flatnonzero(~recurrent)
    alive = set(int(u) for u in outside)
    changed = True
    while changed and alive:
        changed = False
        for u in list(alive):
            stays = False
            for a in range(m.num_actions):
                supp = np.flatnonzero(m.transitions[u, a] > 0)
                if all(int(v) in alive for v in supp):
                    stays = True
                    break
            if not stays:
                alive.remove(u)
                changed = True
    return not alive


def structural_parameters(m: TabularMdp, threshold: float = 0.5,
                          t_cap: int = 100_000, budget: int = 10**6) -> MdpParameters:
    """Bundle (diameter, t_mix, H) for one MDP.

    H is the optimal bias span from the exact average-reward solver; both
    order relations H <= D and H <= 8 t_mix (when the right side is finite)
    are expected to hold and are asserted by the certification suite.
    """
    from .solvers import amdp_optimal  # local import: solvers builds on chains

    D = diameter(m)
    t_mix = mixing_time(m, threshold=threshold, t_cap=t_cap, budget=budget)
    params = MdpParameters(diameter=D, t_mix=t_mix,
                           H=amdp_optimal(m, budget=budget).H)
    if math.isfinite(D) and params.H > D + 1e-6:
        raise ArithmeticError(
            f"internal inconsistency: bias span {params.H} exceeds diameter {D}")
    if math.isfinite(t_mix) and params.H > 8.0 * t_mix + 1e-6:
        raise ArithmeticError(
            f"internal inconsistency: bias span {params.H} exceeds 8 * t_mix "
            f"= {8.0 * t_mix}")
    return params
