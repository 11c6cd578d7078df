"""Exact planning for tabular MDPs.

Discounted: policy evaluation by dense linear solve; the exact optimum by
Howard policy iteration (the one loop, in chains); and Q-value iteration to
a stated accuracy, for callers that want a deliberately inexact solve.
Average-reward: gain/bias of a policy through the limiting and deviation
matrices, and the optimal gain/bias/policy by bias-optimal policy iteration,
exact at every size: each round is three dense evaluations of one policy, and
the returned policy's own bias is the optimal bias (Veinott 1969; Puterman
1994, ch. 10).  Relative value iteration on a lazy transform of the MDP is
kept as a standalone routine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chains
from .chains import (
    _cesaro_limit,
    _policy_iteration,
    _stationary,
    _structure_masks,
    aperiodicity_transform,
)
from .mdp import (
    DeterministicPolicy,
    InducedChain,
    SolverConvergenceError,
    TabularMdp,
    induce_chain,
    span,
)

#: relative near-tie width of bias-optimal policy iteration: at each level an
#: action within GAIN_TIE_TOL * max(1, |best|) of the best is tied with it, and
#: a state keeps its action unless the best beats it by more than that
GAIN_TIE_TOL = 1e-9

#: largest residual ||(I - gamma P_pi) V - r_pi||_inf dmdp_policy_value
#: accepts from its dense solve before raising SolverConvergenceError
POLICY_VALUE_RESIDUAL_TOL = 1e-10

#: sweeps dmdp_value_iteration may make before raising SolverConvergenceError
VI_MAX_SWEEPS = 10**7

#: relative value iteration: lazy weight tau of its transform, the span of
#: successive differences at which it stops, and its sweep cap
RVI_TAU = 0.5
RVI_SPAN_TOL = 1e-10
RVI_MAX_SWEEPS = 2_000_000


@dataclass(frozen=True)
class GainBias:
    """Average-reward evaluation of one policy: gain vector and bias vector.

    The bias is normalized so that on every recurrent class the entries sum
    to zero under the class stationary distribution.
    """

    gain: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class AmdpOptimum:
    """Optimal average-reward solution: the optimal gain (as a vector,
    constant when weakly communicating), a bias-optimal deterministic policy,
    its own bias (chain_gain_bias, whose gain is ``gain``), which is the
    optimal bias and solves the Bellman optimality equation on a weakly
    communicating input, and H = sp(bias).  It does not classify the input;
    chains.is_weakly_communicating does."""

    gain: np.ndarray
    bias: np.ndarray
    policy: DeterministicPolicy
    H: float


# ---------------------------------------------------------------------------
# discounted MDPs


def dmdp_policy_value(m: TabularMdp, pi: DeterministicPolicy,
                      gamma: float) -> np.ndarray:
    """Discounted value of a policy: the unique solution of
    (I - gamma P_pi) V = r_pi."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    chain = induce_chain(m, pi)
    A = np.eye(m.num_states) - gamma * chain.matrix
    V = np.linalg.solve(A, chain.reward)
    residual = float(np.max(np.abs(A @ V - chain.reward)))
    if residual > POLICY_VALUE_RESIDUAL_TOL:
        raise SolverConvergenceError(
            f"policy evaluation residual {residual:.3e} exceeds "
            f"{POLICY_VALUE_RESIDUAL_TOL:.1e}")
    return V


def dmdp_value_iteration(m: TabularMdp, gamma: float, target_accuracy: float):
    """Q-value iteration from Q = 0 until ||Q_{k+1} - Q_k||_inf is below
    target_accuracy * (1 - gamma) / (2 gamma), which certifies that the
    greedy policy is target_accuracy-optimal.

    Returns (Q, V, policy) with V the row max and greedy ties broken toward
    the lowest action index.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if target_accuracy <= 0.0:
        raise ValueError("target_accuracy must be positive")
    threshold = target_accuracy * (1.0 - gamma) / (2.0 * gamma)
    P, r = m.transitions, m.rewards
    Q = np.zeros_like(r)
    for _ in range(VI_MAX_SWEEPS):
        V = Q.max(axis=1)
        Q_next = r + gamma * np.einsum("sat,t->sa", P, V)
        delta = float(np.max(np.abs(Q_next - Q)))
        Q = Q_next
        if delta <= threshold:
            break
    else:
        raise SolverConvergenceError(
            f"value iteration did not reach {threshold:.3e} in {VI_MAX_SWEEPS} sweeps")
    V = Q.max(axis=1)
    policy = DeterministicPolicy(np.argmax(Q, axis=1))
    return Q, V, policy


def dmdp_policy_iteration(m: TabularMdp, gamma: float):
    """Exact discounted optimum by Howard policy iteration: the one-problem
    case of _dmdp_optimal_q.

    Returns (Q, V, policy) as dmdp_value_iteration does: V the row max of Q
    and the greedy policy with ties broken toward the lowest action index.
    """
    Q = _dmdp_optimal_q(m.transitions, m.rewards[None], gamma)[0]
    return Q, Q.max(axis=1), DeterministicPolicy(np.argmax(Q, axis=1))


def _dmdp_optimal_q(P: np.ndarray, r: np.ndarray, gamma: float) -> np.ndarray:
    """Optimal discounted Q (K, S, A), each problem with the bits of its own
    K = 1 solve, of rewards r (K, S, A) on P (S, A, S) or (K, S, A, S): one
    _policy_iteration on cost -r from each reward-greedy policy."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return -_policy_iteration(P, -r, np.full(r.shape[:2], gamma),
                              np.argmax(r, axis=-1))[0]


# ---------------------------------------------------------------------------
# average-reward evaluation


def chain_gain_bias(chain: InducedChain) -> GainBias:
    """Gain and bias of a Markov reward chain.

    gain = P* r with P* the limiting matrix; bias solves
    (I - P + P*) h = (I - P*) r, the deviation-matrix form, which enforces
    P* h = 0 (stationary-weighted zero mean on every recurrent class).
    """
    P = chain.matrix
    return _gain_bias(P, chain.reward, *_structure_masks(P > 0))


def _gain_bias(P: np.ndarray, r: np.ndarray, comm: np.ndarray,
               recurrent: np.ndarray, nu: np.ndarray | None = None) -> GainBias:
    """chain_gain_bias of the chain (P, r), or of each chain of a batch
    (..., S, S), given the _structure_masks of its support and, optionally,
    its _stationary rows nu."""
    P_star = _cesaro_limit(P, comm, recurrent, nu=nu)
    gain = (P_star @ r[..., None])[..., 0]
    bias = np.linalg.solve(np.eye(P.shape[-1]) - P + P_star,
                           (r - gain)[..., None])[..., 0]
    return GainBias(gain=gain, bias=bias)


def amdp_gain_bias(m: TabularMdp, pi: DeterministicPolicy) -> GainBias:
    """Gain and bias of a policy on an MDP; see chain_gain_bias."""
    return chain_gain_bias(induce_chain(m, pi))


def horizon_iterates(P: np.ndarray, r: np.ndarray, T: int) -> np.ndarray:
    """Stacked iterates V_1..V_T of the backward recursion V_k = r + P V_{k-1}
    from V_0 = 0, as a (T, S) array."""
    if T < 1:
        raise ValueError("T must be a positive integer")
    out = np.zeros((T + 1, P.shape[0]))
    for k in range(T):
        np.dot(P, out[k], out=out[k + 1])
        out[k + 1] += r
    return out[1:]


def _power_iterates(P: np.ndarray, x: np.ndarray, T: int) -> np.ndarray:
    """Stacked P^1 x .. P^T x as a (T, S) array, by doubling: with the first
    k rows and Q = P^k in hand, the next k rows are P^k applied to them, and
    Q is squared, so it takes about 2 log2(T) matrix products."""
    out, Q = (P @ x)[None], P
    while len(out) < T:
        out = np.concatenate([out, out[:T - len(out)] @ Q.T])
        if len(out) < T:
            Q = Q @ Q
    return out


# ---------------------------------------------------------------------------
# average-reward optimal control


def bellman_optimality_residual(m: TabularMdp, gain: np.ndarray,
                                bias: np.ndarray) -> float:
    """max_s | (gain + bias)(s) - max_a { r(s,a) + P_{s,a} bias } |."""
    lookahead = m.rewards + np.einsum("sat,t->sa", m.transitions, bias)
    return float(np.max(np.abs(gain + bias - lookahead.max(axis=1))))


def relative_value_iteration(m: TabularMdp):
    """Relative value iteration on the lazy, reward-scaled transform
    (P <- (1-tau) P + tau I, r <- (1-tau) r) with tau = RVI_TAU.

    The transform removes periodicity, scales the gain by (1-tau), and keeps
    both the bias and the greedy action sets unchanged, so the original gain
    is recovered by dividing out (1-tau).  Iterates until the span of
    successive Bellman differences drops below RVI_SPAN_TOL; non-convergence
    within RVI_MAX_SWEEPS signals a multichain or non-weakly-communicating
    input.

    Returns (gain_scalar, bias, greedy_policy).
    """
    tau = RVI_TAU
    P = aperiodicity_transform(m, tau).transitions
    r = (1.0 - tau) * m.rewards
    v = np.zeros(m.num_states)
    for _ in range(RVI_MAX_SWEEPS):
        Q = r + np.einsum("sat,t->sa", P, v)
        w = Q.max(axis=1)
        delta = w - v
        if span(delta) <= RVI_SPAN_TOL:
            gain_scaled = 0.5 * float(delta.max() + delta.min())
            policy = DeterministicPolicy(np.argmax(Q, axis=1))
            return gain_scaled / (1.0 - tau), v, policy
        v = w - w[0]
    raise SolverConvergenceError(
        f"relative value iteration did not converge in {RVI_MAX_SWEEPS} sweeps "
        "(multichain or non-weakly-communicating input?)")


def amdp_optimal(m: TabularMdp) -> AmdpOptimum:
    """Optimal average-reward solution by bias-optimal policy iteration
    (Veinott 1969; Puterman 1994, ch. 10) from the reward-greedy policy.

    Each round evaluates the policy's gain g and bias h, and improves on
    (P g, r + P h, P w) in that order: at each level only the previous
    level's near-ties stay candidates (_near_ties), and a state whose
    current action drops out moves to its first remaining candidate.  The
    next term w, the bias of the chain under reward -h, shares the round's
    masks and stationary rows; it is solved only when some state still has
    two candidates after the bias level, since a lone candidate stays
    whatever its finite score.  A round in which no state moves returns;
    after chains.PI_MAX_ITERATIONS rounds SolverConvergenceError is raised.

    The result is exact at every size (dense linear algebra, not iteration),
    and H does not depend on which optimal policy is returned, since the
    policy is bias-optimal and its own bias is the optimal bias.
    """
    P, r = m.transitions, m.rewards
    states = np.arange(m.num_states)
    policy = np.argmax(r, axis=1)
    for _ in range(chains.PI_MAX_ITERATIONS):
        P_pi = P[states, policy]
        masks = _structure_masks(P_pi > 0)
        nu = _stationary(P_pi, *masks)
        gb = _gain_bias(P_pi, r[states, policy], *masks, nu)
        keep = _near_ties(P @ gb.gain, np.ones(r.shape, dtype=bool))
        keep = _near_ties(r + P @ gb.bias, keep)
        if keep.sum(axis=1).max() > 1:
            keep = _near_ties(P @ _gain_bias(P_pi, -gb.bias, *masks, nu).bias, keep)
        stays = keep[states, policy]
        if stays.all():
            return AmdpOptimum(gain=gb.gain, bias=gb.bias,
                               policy=DeterministicPolicy(policy), H=span(gb.bias))
        policy = np.where(stays, policy, np.argmax(keep, axis=1))
    raise SolverConvergenceError(
        f"bias-optimal policy iteration still improving after "
        f"{chains.PI_MAX_ITERATIONS} rounds")


def _near_ties(q: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """keep (S, A) narrowed to the actions whose score q is within
    GAIN_TIE_TOL * max(1, |best|) of the best kept score at their state."""
    best = np.where(keep, q, -np.inf).max(axis=1, keepdims=True)
    return keep & (q >= best - GAIN_TIE_TOL * np.maximum(1.0, np.abs(best)))


def _analysis(m: TabularMdp):
    """(D, t_mix, optimum) of one MDP; t_mix, which needs every policy's
    chain, is None over chains.ENUMERATION_BUDGET."""
    over = m.num_actions**m.num_states > chains.ENUMERATION_BUDGET
    return (chains.diameter(m), None if over else chains.mixing_time(m),
            amdp_optimal(m))
