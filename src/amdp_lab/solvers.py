"""Exact planning for tabular MDPs.

Discounted: policy evaluation by dense linear solve; the exact optimum by
Howard policy iteration (the one loop, in chains); and Q-value iteration to
a stated accuracy, for callers that want a deliberately inexact solve.
Average-reward: gain/bias of a policy through the limiting and deviation
matrices, and the optimal gain/bias/policy either by brute-force policy
enumeration or by relative value iteration on a lazy transform of the MDP.
The enumeration is exact throughout: on a weakly communicating MDP its bias
is the elementwise max of the gain-optimal (tied) policies' biases, which is
the bias of a bias-optimal policy (Puterman 1994, ch. 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chains
from .chains import (
    _cesaro_limit,
    _policy_batch,
    _policy_iteration,
    _structure_masks,
    aperiodicity_transform,
    is_weakly_communicating,
)
from .mdp import (
    DeterministicPolicy,
    InducedChain,
    SolverConvergenceError,
    TabularMdp,
    induce_chain,
    span,
)

#: policies whose worst-state gains differ by at most this much are tied;
#: amdp_optimal's enumeration returns the first of them, and on a weakly
#: communicating MDP the elementwise max of all their biases
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
    """Optimal average-reward solution: constant optimal gain (as a vector),
    a bias solving the Bellman optimality equation, a gain-optimal
    deterministic policy, H = sp(bias), and that policy's own bias
    (chain_gain_bias, whose gain is ``gain``).  From the enumeration of a
    weakly communicating MDP, ``bias`` is the elementwise max of the tied
    policies' biases, the optimal bias; otherwise it is ``policy_bias``
    (enumeration) or the relative-VI bias."""

    gain: np.ndarray
    bias: np.ndarray
    policy: DeterministicPolicy
    H: float
    weakly_communicating: bool
    policy_bias: np.ndarray


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
    """Exact discounted optimum by Howard policy iteration (chains'
    _policy_iteration on cost -r, started from the reward-greedy policy).

    Returns (Q, V, policy) as dmdp_value_iteration does: V the row max of Q
    and the greedy policy with ties broken toward the lowest action index.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    r = m.rewards
    every = np.ones((1, m.num_states), dtype=bool)
    cost_Q, _ = _policy_iteration(m.transitions, -r, gamma,
                                  np.argmax(r, axis=1)[None], True, every)
    Q = -cost_Q[0]
    return Q, Q.max(axis=1), DeterministicPolicy(np.argmax(Q, axis=1))


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
    V = np.zeros(P.shape[0])
    out = np.empty((T, P.shape[0]))
    for k in range(T):
        V = r + P @ V
        out[k] = V
    return out


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


def amdp_optimal(m: TabularMdp, method: str = "auto") -> AmdpOptimum:
    """Gain-optimal solution of the average-reward problem.

    method="enumerate": evaluate every deterministic policy and take the
    first, in lexicographic order of the action arrays, whose worst-state
    gain is within GAIN_TIE_TOL of the best; more than
    chains.ENUMERATION_BUDGET policies raise EnumerationBudgetError.
    method="relative_vi": relative value iteration on the lazy transform,
    greedy policy extraction.  The default method="auto" enumerates when
    A^S <= chains.ENUMERATION_BUDGET and runs relative VI otherwise.

    Either way the returned gain is the exact per-state gain of the returned
    policy (dense linear algebra, not iteration), and policy_bias is that
    policy's own bias.  The returned bias solves the Bellman optimality
    equation.  From the enumeration of a weakly communicating MDP it is the
    elementwise max of every tied policy's bias, the bias of a bias-optimal
    policy, so H is exact and does not depend on which tied policy is
    returned; from relative VI it is the iterate's bias.
    """
    if method == "auto":
        method = ("enumerate"
                  if m.num_actions**m.num_states <= chains.ENUMERATION_BUDGET
                  else "relative_vi")
    if method == "enumerate":
        return _enumerated_optimum(m, _policy_batch(m))
    if method != "relative_vi":
        raise ValueError(f"unknown method {method!r}")
    _, bias, policy = relative_value_iteration(m)
    gb = chain_gain_bias(induce_chain(m, policy))
    return AmdpOptimum(gain=gb.gain, bias=bias, policy=policy, H=span(bias),
                       weakly_communicating=is_weakly_communicating(m),
                       policy_bias=gb.bias)


def _enumerated_optimum(m: TabularMdp, batch) -> AmdpOptimum:
    """amdp_optimal's enumeration, over the _policy_batch of m: every
    policy's per-state gain from one batched Cesaro-limit solve on the
    batch's stationary rows, then the gain/bias of the tied policies from
    batched deviation solves on those rows too (of the first alone when m
    is not weakly communicating), in chunks whose (chunk, S, S) stacks fit
    in chains._CHUNK_BYTES."""
    worst = _cesaro_limit(batch.P_all, batch.comm, batch.recurrent, batch.r_all,
                          nu=batch.nu).min(axis=1)
    tied = np.flatnonzero(worst >= worst.max() - GAIN_TIE_TOL)
    wc = is_weakly_communicating(m)
    if not wc:
        tied = tied[:1]
    # the bias-optimal policy's bias is the elementwise max of the
    # gain-optimal policies' biases (Puterman 1994, ch. 10)
    step = max(1, chains._CHUNK_BYTES // (8 * m.num_states**2))
    chunk_max = []
    for k in range(0, len(tied), step):
        part = tied[k:k + step]
        gb = _gain_bias(batch.P_all[part], batch.r_all[part], batch.comm[part],
                        batch.recurrent[part], batch.nu[part])
        if k == 0:
            gain, policy_bias = gb.gain[0], gb.bias[0]
        chunk_max.append(gb.bias.max(axis=0))
    bias = np.max(chunk_max, axis=0)
    return AmdpOptimum(gain=gain, bias=bias,
                       policy=DeterministicPolicy(batch.policies[tied[0]]),
                       H=span(bias), weakly_communicating=wc,
                       policy_bias=policy_bias)


def _analysis(m: TabularMdp):
    """(D, t_mix, optimum) of one MDP, t_mix and the optimum from one
    _policy_batch; over the budget t_mix is None and relative VI solves."""
    D = chains.diameter(m)
    if m.num_actions**m.num_states > chains.ENUMERATION_BUDGET:
        return D, None, amdp_optimal(m, method="relative_vi")
    batch = _policy_batch(m)
    return D, chains._mixing_time(batch), _enumerated_optimum(m, batch)


def h_gamma_star(m: TabularMdp, gamma: float, opt: AmdpOptimum) -> np.ndarray:
    """Shifted optimal discounted value V*_gamma - gain / (1 - gamma).

    For a weakly communicating MDP this vector satisfies the discounted
    optimality equation rewritten in average-reward form,
    (gain + h)(s) = max_a { r(s,a) + gamma P_{s,a} h }.
    """
    _, V, _ = dmdp_policy_iteration(m, gamma)
    return V - opt.gain / (1.0 - gamma)
