"""Structural analysis of Markov chains and tabular MDPs.

Covers recurrent-class decomposition, per-class stationary distributions and
periods, the Cesaro limiting matrix, minimal expected hitting times and the
MDP diameter, worst-case-policy mixing time, the lazy (aperiodicity)
transformation, and connectivity classification.

Stationary distributions and limiting matrices, of one chain or of every
policy's chain at once, come from one linear solve for the closed classes
(_stationary) and one absorption solve for the transient states
(_cesaro_limit).  _policy_iteration is the one Howard policy-iteration loop:
it gives the hitting times to every target (stochastic shortest paths) and
the solvers' exact discounted optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mdp import (
    EnumerationBudgetError,
    InducedChain,
    SolverConvergenceError,
    TabularMdp,
)

#: policy evaluations _policy_iteration may make before raising
#: SolverConvergenceError (a handful in practice)
PI_MAX_ITERATIONS = 1000

#: most deterministic policies an enumeration may list before raising
#: EnumerationBudgetError; amdp_optimal's "auto" enumerates up to this many
ENUMERATION_BUDGET = 10**6

#: l1 distance ||e_s P^t - nu||_1 at which a chain counts as mixed: the
#: convention under which H <= 8 t_mix is stated
MIXING_THRESHOLD = 0.5

#: steps mixing_time may take before raising SolverConvergenceError
MIXING_MAX_STEPS = 100_000

#: bytes one chunk of the hitting-time solve, or of the enumeration's tie
#: set, may hold in each (chunk, S, S) float64 stack, so peak memory stays a
#: few times this for any S (at S = 200, 2 MB chunks also ran faster than
#: 8 MB ones)
_CHUNK_BYTES = 1 << 21


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


def _stationary(P: np.ndarray, comm: np.ndarray, recurrent: np.ndarray) -> np.ndarray:
    """Stationary distribution of every closed class of a chain (S, S) or a
    batch of chains (..., S, S), from one linear solve per chain.

    comm and recurrent are the _structure_masks of the support.  Each
    recurrent state keeps its balance row of P^T - I, except the smallest
    member of each closed class, whose row becomes the class indicator with
    right-hand side 1; each transient row is the identity with right-hand
    side 0.  The result holds each class's distribution on its members and
    zero on transient states.
    """
    S = P.shape[-1]
    eye = np.eye(S)
    leader = recurrent & (np.argmax(comm, axis=-1) == np.arange(S))
    M = np.swapaxes(P, -1, -2) - eye
    M[~recurrent] = eye[np.nonzero(~recurrent)[-1]]
    M[leader] = comm[leader]
    return np.linalg.solve(M, leader[..., None].astype(float))[..., 0]


def _cesaro_limit(P: np.ndarray, comm: np.ndarray, recurrent: np.ndarray,
                  r: np.ndarray | None = None,
                  nu: np.ndarray | None = None) -> np.ndarray:
    """Cesaro limit P* of a chain or batch of chains, or the gain P* r when
    rewards r (..., S) are given.

    Rows of recurrent states are their class's stationary distribution nu
    (_stationary, solved here unless given); transient rows follow from the
    absorption system (I - diag(transient) P) x = y, solved once with y the
    class-masked stationary rows, or those rows applied to r.
    """
    if nu is None:
        nu = _stationary(P, comm, recurrent)
    y = (comm & recurrent[..., None]) * nu[..., None, :]
    if r is not None:
        y = y @ r[..., None]
    x = y  # without transient states the absorption system is I x = y
    if not np.all(recurrent):
        A = np.eye(P.shape[-1]) - np.where(recurrent[..., None], 0.0, P)
        x = np.linalg.solve(A, y)
    return x if r is None else x[..., 0]


def decompose_chain(chain: InducedChain | np.ndarray) -> ChainStructure:
    """Full recurrent decomposition of a stochastic matrix.

    Recurrent classes are the closed strongly-connected components of the
    support digraph; the stationary distributions and the limiting matrix
    come from _cesaro_limit, the periods from one BFS per class.
    """
    P = chain.matrix if isinstance(chain, InducedChain) else np.asarray(chain, dtype=float)
    support = P > 0
    comm, recurrent = _structure_masks(support)
    leaders = np.flatnonzero(recurrent & (np.argmax(comm, axis=1) == np.arange(len(P))))
    classes = tuple(np.flatnonzero(comm[s]) for s in leaders)
    limiting = _cesaro_limit(P, comm, recurrent)
    return ChainStructure(
        recurrent_classes=classes,
        transient_states=np.flatnonzero(~recurrent),
        stationary=tuple(limiting[c[0], c] for c in classes),
        limiting_matrix=limiting,
        period=tuple(_class_period(support, c) for c in classes),
    )


# ---------------------------------------------------------------------------
# batched policy enumeration (shared with the exact solvers)


def all_deterministic_policies(num_states: int, num_actions: int) -> np.ndarray:
    """All deterministic policies as an (A^S, S) int array in lexicographic
    order of the action arrays; more than ENUMERATION_BUDGET of them raise
    EnumerationBudgetError."""
    count = num_actions ** num_states
    if count > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{num_actions}^{num_states} = {count} policies exceeds budget "
            f"{ENUMERATION_BUDGET}")
    # state j's action is digit j of the policy's index in base A, most
    # significant first, so the last state varies fastest
    place = num_actions ** np.arange(num_states - 1, -1, -1)
    return np.arange(count)[:, None] // place % num_actions


def induced_chain_batch(m: TabularMdp, policies: np.ndarray):
    """Induced transition matrices (n, S, S) and rewards (n, S) for a batch
    of deterministic policies given as an (n, S) action array."""
    idx = np.arange(m.num_states)[None, :]
    return m.transitions[idx, policies], m.rewards[idx, policies]


class _PolicyBatch(NamedTuple):
    """Every deterministic policy of an MDP with its induced chains: comm and
    recurrent are the _structure_masks of each chain's support, multi[i] is
    True when policy i's chain has more than one closed class, and nu holds
    each chain's _stationary rows."""

    policies: np.ndarray
    P_all: np.ndarray
    r_all: np.ndarray
    comm: np.ndarray
    recurrent: np.ndarray
    multi: np.ndarray
    nu: np.ndarray


def _policy_batch(m: TabularMdp) -> _PolicyBatch:
    """Every deterministic policy with its induced chains, classified and
    given their stationary distributions in one batch, which the mixing time
    and the enumerated optimum both read."""
    policies = all_deterministic_policies(m.num_states, m.num_actions)
    P_all, r_all = induced_chain_batch(m, policies)
    comm, recurrent = _structure_masks(P_all > 0)
    multi = np.any(~comm & recurrent[:, :, None] & recurrent[:, None, :], axis=(1, 2))
    return _PolicyBatch(policies, P_all, r_all, comm, recurrent, multi,
                        _stationary(P_all, comm, recurrent))


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


# ---------------------------------------------------------------------------
# diameter


def _stays_inside(support: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """(K, S, A) mask: action a at state s keeps its whole support inside
    set k, for a support (S, A, S) and a batch of state sets (K, S)."""
    S, A, _ = support.shape
    leaves = support.reshape(S * A, S).astype(np.float32) @ (~sets).T.astype(np.float32)
    return np.moveaxis(leaves.reshape(S, A, -1) == 0, -1, 0)


def _almost_sure_reach(support: np.ndarray):
    """(reach, policy), both (S, S) and indexed [target, state]: reach[t]
    marks the states from which some policy hits t with probability one.

    Per target, the candidates shrink to the states that reach t in backward
    layers through actions whose whole support stays inside the candidates,
    until stable; all targets iterate together.  policy[t, s] is the first
    such action of s that touches an earlier layer, a proper policy on
    reach[t].
    """
    S = support.shape[0]
    candidates = np.ones((S, S), dtype=bool)
    policy = np.zeros((S, S), dtype=int)
    while True:
        stays = _stays_inside(support, candidates)
        reached = np.eye(S, dtype=bool)
        while True:
            # an action touches reached iff it does not stay inside ~reached
            layer_actions = stays & ~_stays_inside(support, ~reached)
            layer = candidates & ~reached & layer_actions.any(axis=-1)
            if not layer.any():
                break
            policy[layer] = np.argmax(layer_actions, axis=-1)[layer]
            reached |= layer
        if np.array_equal(reached, candidates):
            return candidates, policy
        candidates = reached


def _policy_iteration(P: np.ndarray, cost: np.ndarray, discount: float,
                      policy: np.ndarray, allowed, active: np.ndarray):
    """Howard policy iteration minimizing expected discounted cost, for K
    problems on one transition tensor P (S, A, S) at once.

    policy (K, S) is the start, which must have finite cost; cost is (S, A).
    Rows off active (K, S) are held at value 0; actions off allowed (a mask
    broadcasting to (K, S, A)) get Q = +inf.  Each round solves
    (I - discount P_pi) V = cost_pi for all K policies in one batched dense
    solve, then switches an action only where the best Q beats the current
    one by more than a few ulps, so rounding noise cannot make it cycle.
    Returns (Q, V) of the last evaluation.
    """
    K, S = policy.shape
    states, problems = np.arange(S), np.arange(K)[:, None]
    identity = np.eye(S)
    tie = 8.0 * np.finfo(float).eps
    for _ in range(PI_MAX_ITERATIONS):
        M = np.where(active[..., None], identity - discount * P[states, policy],
                     identity)
        b = np.where(active, cost[states, policy], 0.0)
        V = np.linalg.solve(M, b[..., None])[..., 0]
        # one matrix-vector product per problem and state, so each problem's
        # Q is rounded the same way whatever K is (chunks change no bits)
        Q = np.where(allowed, cost + discount * (P @ V[:, None, :, None])[..., 0],
                     math.inf)
        best = Q.min(axis=-1)
        current = Q[problems, states, policy]
        improves = active & (current - best > tie * np.abs(best))
        if not improves.any():
            return Q, V
        policy = np.where(improves, np.argmin(Q, axis=-1), policy)
    raise SolverConvergenceError(
        f"policy iteration still improving after {PI_MAX_ITERATIONS} iterations")


def _hitting_times(m: TabularMdp, targets: np.ndarray, reach: np.ndarray,
                   policy: np.ndarray) -> np.ndarray:
    """Minimal expected hitting times (K, S) to K targets: _policy_iteration
    at unit cost and discount 1 from the targets' rows of _almost_sure_reach,
    active on each reach set less its target.  Actions leaving the reach set
    are not allowed, so every policy stays proper.  Targets go through in
    chunks whose (chunk, S, S) float64 stacks fit in _CHUNK_BYTES.
    """
    P = m.transitions
    K, S = reach.shape
    active = reach.copy()
    active[np.arange(K), targets] = False
    # every action is allowed on held rows, so their Q stays finite
    allowed = _stays_inside(P > 0, reach) | ~active[..., None]
    cost = np.ones((S, m.num_actions))
    step = max(1, _CHUNK_BYTES // (8 * S * S))
    T = np.concatenate([
        _policy_iteration(P, cost, 1.0, policy[k:k + step], allowed[k:k + step],
                          active[k:k + step])[1]
        for k in range(0, K, step)])
    return np.where(reach, T, math.inf)


def min_expected_hitting_times(m: TabularMdp, target: int) -> np.ndarray:
    """Minimal expected hitting times T(s) to ``target`` over all policies,
    +inf where no policy reaches it almost surely: one target of diameter's
    solve."""
    reach, policy = _almost_sure_reach(m.transitions > 0)
    return _hitting_times(m, np.array([target]), reach[[target]],
                          policy[[target]])[0]


def diameter(m: TabularMdp) -> float:
    """MDP diameter: max over ordered pairs s1 != s2 of the minimal expected
    hitting time from s1 to s2, solved exactly for all targets at once; +inf
    when some pair is not almost surely reachable, 0.0 for one state."""
    reach, policy = _almost_sure_reach(m.transitions > 0)
    if not reach.all():
        return math.inf
    return float(_hitting_times(m, np.arange(m.num_states), reach, policy).max())


# ---------------------------------------------------------------------------
# mixing time


def mixing_time(m: TabularMdp) -> float:
    """Worst-case mixing time over all deterministic policies: the first t
    at which every policy's chain is within MIXING_THRESHOLD of its
    stationary distribution, in l1 distance from every start state.

    Returns +inf when some policy's chain has several recurrent classes or a
    periodic one; raises SolverConvergenceError when some policy has not
    mixed at t = MIXING_MAX_STEPS.

    Aperiodicity is decided for the whole policy stack at once (see
    _batch_aperiodic): a self-loop in the closed class settles a policy, and
    the rest take O(log S) batched boolean squarings.  Each step multiplies
    only the powers of the policies that have not mixed yet.
    """
    return _mixing_time(_policy_batch(m))


def _mixing_time(batch: _PolicyBatch) -> float:
    """mixing_time from the _policy_batch of the MDP."""
    if np.any(batch.multi) or not np.all(_batch_aperiodic(batch.P_all > 0,
                                                          batch.recurrent)):
        return math.inf

    P, nu = batch.P_all, batch.nu
    X = P
    for t in range(1, MIXING_MAX_STEPS + 1):
        dist = np.abs(X - nu[:, None, :]).sum(axis=2).max(axis=1)
        pending = ~(dist <= MIXING_THRESHOLD)  # a nan distance has not mixed
        if not pending.any():
            return float(t)
        if not pending.all():
            X, P, nu = X[pending], P[pending], nu[pending]
        X = np.matmul(X, P)
    raise SolverConvergenceError(
        f"{len(P)} policies did not mix within {MIXING_MAX_STEPS} steps")


# ---------------------------------------------------------------------------
# lazy transform and connectivity


def aperiodicity_transform(m: TabularMdp, tau: float) -> TabularMdp:
    """Lazy-chain mixture P_tau = (1 - tau) P + tau I per action; rewards are
    unchanged, so stationary distributions and gains are preserved."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    P = (1.0 - tau) * m.transitions + tau * np.eye(m.num_states)[:, None, :]
    return TabularMdp(m.num_states, m.num_actions, P, m.rewards, dict(m.metadata))


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
    comm, recurrent = _structure_masks(union_support(m))
    rec_states = np.flatnonzero(recurrent)  # never empty: some class is closed
    if not np.all(comm[np.ix_(rec_states, rec_states)]):
        return False  # more than one closed class in the union digraph
    # Outside the closed class, no subset may be closable by some policy:
    # greatest fixed point of "keep u if some action stays inside".
    alive = ~recurrent[None]
    while alive.any():
        kept = alive & _stays_inside(m.transitions > 0, alive).any(axis=-1)
        if np.array_equal(kept, alive):
            return False
        alive = kept
    return True

