"""Structural analysis of Markov chains and tabular MDPs.

Covers recurrent-class decomposition, per-class stationary distributions and
periods, the Cesaro limiting matrix, minimal expected hitting times and the
MDP diameter, worst-case-policy mixing time, the lazy (aperiodicity)
transformation, and connectivity classification.

Stationary distributions and limiting matrices, of one chain or of every
policy's chain at once, come from one linear solve for the closed classes
(_stationary) and one absorption solve for the transient states
(_cesaro_limit).  _policy_iteration is the one Howard loop for discounted and
total costs, with forbidden actions (cost +inf) and terminal states
(discount 0, cost 0) as data: it gives the hitting times to every target
(stochastic shortest paths) and the solvers' exact discounted optimum.
"""

from __future__ import annotations

import functools
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
#: EnumerationBudgetError; it binds only mixing_time, whose worst case runs
#: over every policy
ENUMERATION_BUDGET = 10**6

#: l1 distance ||e_s P^t - nu||_1 at which a chain counts as mixed: the
#: convention under which H <= 8 t_mix is stated
MIXING_THRESHOLD = 0.5

#: steps mixing_time may take before raising SolverConvergenceError
MIXING_MAX_STEPS = 100_000

#: bytes one chunk may hold in each (chunk, S, S) float64 stack of the
#: hitting-time solve, and in its whole working set in mixing_time (a
#: stack there holds an eighth), so peak memory stays a few times this at
#: any S and policy count (at S = 200, 2 MB chunks beat 8 MB ones)
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
    steps = max(1, math.ceil(math.log2(S)))
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
    recurrent = ~_fold(np.logical_or, C & ~np.swapaxes(C, -1, -2), -1)
    return comm, recurrent


def _leaders(comm: np.ndarray, recurrent: np.ndarray) -> np.ndarray:
    """Mask of the smallest member of each closed class, from the
    _structure_masks of a chain or a batch of chains."""
    return recurrent & (np.argmax(comm, axis=-1) == np.arange(comm.shape[-1]))


def _fold(ufunc, x: np.ndarray, axis: int) -> np.ndarray:
    """ufunc.reduce(x, axis) as a fold over the slices along a short axis:
    a few whole-array calls, about twice as fast as one per output element."""
    return functools.reduce(ufunc, np.moveaxis(x, axis, 0))


def _class_periods(support: np.ndarray, comm: np.ndarray,
                   recurrent: np.ndarray) -> np.ndarray:
    """Period of each recurrent state's class, 0 on transient states, for a
    batch of supports (n, S, S) with their _structure_masks: the gcd of
    level[u] + 1 - level[v] over the class's edges u -> v, BFS levels from its
    smallest member taken for every class at once, one boolean frontier step
    per level; a chain with a self-loop on every recurrent state skips it."""
    periods = recurrent.astype(np.min_scalar_type(-support.shape[-1] - 1))
    rest = np.flatnonzero((recurrent & ~np.diagonal(support, 0, 1, 2)).any(axis=1))
    if rest.size:
        # edges out of a recurrent state stay inside its closed class
        edges = support[rest] & recurrent[rest, :, None]
        frontier = _leaders(comm[rest], recurrent[rest])
        level = np.where(frontier, 0, -1).astype(periods.dtype)
        depth = 0
        while frontier.any():
            depth += 1
            frontier = _fold(np.logical_or, frontier[..., None] & edges, 1) & (level < 0)
            level[frontier] = depth
        # masks multiply: gcd(0, x) = x, so entries off the mask drop out
        gap = edges * (level[:, :, None] + 1 - level[:, None, :])
        periods[rest] = _fold(np.gcd, comm[rest] * _fold(np.gcd, gap, 2)[:, None, :], 2)
    return periods


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
    leader = _leaders(comm, recurrent)
    M = np.swapaxes(P, -1, -2) - eye
    M[~recurrent] = eye[np.nonzero(~recurrent)[-1]]
    M[leader] = comm[leader]
    return np.linalg.solve(M, leader[..., None].astype(float))[..., 0]


def _cesaro_limit(P: np.ndarray, comm: np.ndarray, recurrent: np.ndarray,
                  nu: np.ndarray | None = None) -> np.ndarray:
    """Cesaro limit P* of a chain or batch of chains.

    Rows of recurrent states are their class's stationary distribution nu
    (_stationary, solved here unless given); transient rows follow from the
    absorption system (I - diag(transient) P) x = y, solved once with y the
    class-masked stationary rows.
    """
    if nu is None:
        nu = _stationary(P, comm, recurrent)
    y = (comm & recurrent[..., None]) * nu[..., None, :]
    if np.all(recurrent):  # the absorption system is I x = y
        return y
    A = np.eye(P.shape[-1]) - np.where(recurrent[..., None], 0.0, P)
    return np.linalg.solve(A, y)


def decompose_chain(chain: InducedChain | np.ndarray) -> ChainStructure:
    """Full recurrent decomposition of a stochastic matrix.

    Recurrent classes are the closed strongly-connected components of the
    support digraph; the stationary distributions and the limiting matrix
    come from _cesaro_limit, the periods from _class_periods.
    """
    P = chain.matrix if isinstance(chain, InducedChain) else np.asarray(chain, dtype=float)
    support = P > 0
    comm, recurrent = _structure_masks(support)
    classes = tuple(np.flatnonzero(comm[s])
                    for s in np.flatnonzero(_leaders(comm, recurrent)))
    limiting = _cesaro_limit(P, comm, recurrent)
    period = _class_periods(support[None], comm[None], recurrent[None])[0]
    return ChainStructure(
        recurrent_classes=classes,
        transient_states=np.flatnonzero(~recurrent),
        stationary=tuple(limiting[c[0], c] for c in classes),
        limiting_matrix=limiting,
        period=tuple(int(period[c[0]]) for c in classes),
    )


# ---------------------------------------------------------------------------
# batched policy enumeration (for the mixing time)


def all_deterministic_policies(num_states: int, num_actions: int) -> np.ndarray:
    """All deterministic policies as an (A^S, S) array of the smallest
    unsigned dtype that holds A - 1, in lexicographic order of the action
    arrays; more than ENUMERATION_BUDGET of them raise
    EnumerationBudgetError."""
    count = num_actions ** num_states
    if count > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{num_actions}^{num_states} = {count} policies exceeds budget "
            f"{ENUMERATION_BUDGET}")
    actions = np.arange(num_actions, dtype=np.min_scalar_type(num_actions - 1))
    table = np.empty((count, num_states), dtype=actions.dtype)
    # state j's action is digit j of the policy's index in base A, most
    # significant first, so the last state varies fastest
    for j in range(num_states):
        digits = table.reshape(num_actions**j, num_actions, -1, num_states)
        digits[..., j] = actions[:, None]
    return table


def induced_chain_batch(m: TabularMdp, policies: np.ndarray):
    """Induced transition matrices (n, S, S) and rewards (n, S) for a batch
    of deterministic policies given as an (n, S) action array."""
    idx = np.arange(m.num_states)[None, :]
    return m.transitions[idx, policies], m.rewards[idx, policies]


class _PolicyBatch(NamedTuple):
    """The induced chains of a batch of deterministic policies of an MDP, in
    the batch's order: comm and recurrent are the _structure_masks of each
    chain's support, multi[i] is True when policy i's chain has more than
    one closed class, and nu holds each chain's _stationary rows."""

    P_all: np.ndarray
    comm: np.ndarray
    recurrent: np.ndarray
    multi: np.ndarray
    nu: np.ndarray


def _policy_batch(m: TabularMdp, policies: np.ndarray) -> _PolicyBatch:
    """The induced chains of the deterministic policies (n, S), classified
    and given their stationary distributions in one batch: one chunk of
    mixing_time's enumeration."""
    P_all = m.transitions[np.arange(m.num_states), policies]
    comm, recurrent = _structure_masks(P_all > 0)
    multi = np.any(~comm & recurrent[:, :, None] & recurrent[:, None, :], axis=(1, 2))
    return _PolicyBatch(P_all, comm, recurrent, multi, _stationary(P_all, comm, recurrent))


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


def _policy_iteration(P: np.ndarray, cost: np.ndarray, discount: np.ndarray,
                      policy: np.ndarray):
    """Howard policy iteration minimizing expected discounted cost, for K
    problems at once on a shared P (S, A, S) or one each, P (K, S, A, S).

    cost (K, S, A) is +inf on a forbidden action; discount (K, S) is per
    problem and state, and a state with discount 0 and cost 0 is terminal,
    with value 0.  policy (K, S) is the start, which must have finite cost.
    Each round solves (I - discount P_pi) V = cost_pi for all K policies in
    one batched dense solve, then switches an action only where the best Q
    beats the current one by more than a few ulps, so rounding noise cannot
    make it cycle.  Returns (Q, V) of the last evaluation.
    """
    K, S = policy.shape
    # a (K, S, A, S) view to gather from; matmul broadcasts P itself faster
    P_each = np.broadcast_to(P, (K, *P.shape[-3:]))
    states, problems = np.arange(S), np.arange(K)[:, None]
    identity = np.eye(S)
    tie = 8.0 * np.finfo(float).eps
    for _ in range(PI_MAX_ITERATIONS):
        M = identity - discount[..., None] * P_each[problems, states, policy]
        V = np.linalg.solve(M, cost[problems, states, policy][..., None])[..., 0]
        # one matrix-vector product per problem and state, so each problem's
        # Q is rounded the same way whatever K is (chunks change no bits)
        Q = cost + discount[..., None] * (P @ V[:, None, :, None])[..., 0]
        best = Q.min(axis=-1)
        improves = Q[problems, states, policy] - best > tie * np.abs(best)
        if not improves.any():
            return Q, V
        policy = np.where(improves, np.argmin(Q, axis=-1), policy)
    raise SolverConvergenceError(
        f"policy iteration still improving after {PI_MAX_ITERATIONS} iterations")


def _hitting_times(m: TabularMdp, targets: np.ndarray) -> np.ndarray:
    """Minimal expected hitting times (K, S) to K targets, +inf off each
    target's _almost_sure_reach set: _policy_iteration at unit cost and
    discount 1 from the reach step's proper policies.  Each target and every
    state off its reach set are terminal; an action leaving the reach set
    costs +inf, so every policy stays proper.  Targets go through in chunks
    whose (chunk, S, S) float64 stacks fit in _CHUNK_BYTES.
    """
    support = m.transitions > 0
    reach, policy = (x[targets] for x in _almost_sure_reach(support))
    terminal = ~reach
    terminal[np.arange(len(targets)), targets] = True
    cost = np.where(_stays_inside(support, reach), 1.0, math.inf)
    cost[terminal] = 0.0
    discount = np.where(terminal, 0.0, 1.0)
    S = m.num_states
    step = max(1, _CHUNK_BYTES // (8 * S * S))
    T = np.concatenate([
        _policy_iteration(m.transitions, cost[k:k + step], discount[k:k + step],
                          policy[k:k + step])[1]
        for k in range(0, len(targets), step)])
    return np.where(reach, T, math.inf)


def min_expected_hitting_times(m: TabularMdp, target: int) -> np.ndarray:
    """Minimal expected hitting times T(s) to ``target`` over all policies,
    +inf where no policy reaches it almost surely: one target of diameter's
    solve.  A target outside [0, S) raises IndexError."""
    if not 0 <= target < m.num_states:
        raise IndexError(f"target {target} out of range for {m.num_states} states")
    return _hitting_times(m, np.array([target]))[0]


def diameter(m: TabularMdp) -> float:
    """MDP diameter: the largest minimal expected hitting time over ordered
    pairs, solved exactly for all targets at once: +inf, before any solve,
    when the MDP is not communicating, 0.0 for one state."""
    return (float(_hitting_times(m, np.arange(m.num_states)).max())
            if is_communicating(m) else math.inf)


# ---------------------------------------------------------------------------
# mixing time


def mixing_time(m: TabularMdp) -> float:
    """Worst-case mixing time over all deterministic policies: the first t
    at which every policy's chain is within MIXING_THRESHOLD of its
    stationary distribution, in l1 distance from every start state.

    Returns +inf when some policy's chain has several recurrent classes or a
    periodic one; otherwise raises SolverConvergenceError when some policy
    has not mixed at t = MIXING_MAX_STEPS.

    The policies are enumerated once and walked in chunks of
    max(1, _CHUNK_BYTES // (64 S^2)), so memory stays flat at any policy
    count.  Each chunk is one _policy_batch, screened by one _class_periods
    call, then stepped by _steps_to_mix; every step is per matrix or per
    row, so t_mix does not depend on the chunk size.
    """
    S = m.num_states
    policies = all_deterministic_policies(S, m.num_actions)
    step = max(1, _CHUNK_BYTES // (64 * S * S))
    worst, stuck = 0, None
    for k in range(0, len(policies), step):
        batch = _policy_batch(m, policies[k:k + step])
        if np.any(batch.multi) or np.any(
                _class_periods(batch.P_all > 0, batch.comm, batch.recurrent) > 1):
            return math.inf
        if stuck is None:  # once a chunk is stuck, later ones are only screened
            try:
                worst = max(worst, _steps_to_mix(batch.P_all, batch.nu))
            except SolverConvergenceError as exc:
                stuck = exc
    if stuck is not None:
        raise stuck
    return float(worst)


def _steps_to_mix(P: np.ndarray, nu: np.ndarray) -> int:
    """The first t at which every chain of the stack P (n, S, S) is within
    MIXING_THRESHOLD of its stationary rows nu (n, S) from every start
    state; SolverConvergenceError past MIXING_MAX_STEPS.  Each step
    multiplies only the powers of the chains that have not mixed yet."""
    X = P
    for t in range(1, MIXING_MAX_STEPS + 1):
        dist = np.abs(X - nu[:, None, :]).sum(axis=2).max(axis=1)
        pending = ~(dist <= MIXING_THRESHOLD)  # a nan distance has not mixed
        if not pending.any():
            return t
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

