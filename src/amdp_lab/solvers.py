"""Exact planning for tabular MDPs.

Discounted: policy evaluation by dense linear solve and optimal control by
Q-value iteration.  Average-reward: gain/bias of a policy through the
limiting and deviation matrices, and the optimal gain/bias/policy either by
brute-force policy enumeration or by relative value iteration on a lazy
transform of the MDP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import (
    _cesaro_limit,
    _policy_batch,
    _structure_masks,
    aperiodicity_transform,
    is_weakly_communicating,
)
from .mdp import (
    DeterministicPolicy,
    InducedChain,
    Policy,
    SolverConvergenceError,
    TabularMdp,
    induce_chain,
    span,
)

#: policies whose worst-state gains differ by at most this much are tied;
#: amdp_optimal's enumeration returns the first of them
GAIN_TIE_TOL = 1e-9


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
    deterministic policy, and H = sp(bias)."""

    gain: np.ndarray
    bias: np.ndarray
    policy: DeterministicPolicy
    H: float
    weakly_communicating: bool


# ---------------------------------------------------------------------------
# discounted MDPs


def dmdp_policy_value(m: TabularMdp, pi: Policy, gamma: float,
                      residual_tol: float = 1e-10) -> np.ndarray:
    """Discounted value of a policy: the unique solution of
    (I - gamma P_pi) V = r_pi."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    chain = induce_chain(m, pi)
    A = np.eye(m.num_states) - gamma * chain.matrix
    V = np.linalg.solve(A, chain.reward)
    residual = float(np.max(np.abs(A @ V - chain.reward)))
    if residual > residual_tol:
        raise SolverConvergenceError(
            f"policy evaluation residual {residual:.3e} exceeds {residual_tol:.1e}")
    return V


def dmdp_value_iteration(m: TabularMdp, gamma: float, target_accuracy: float,
                         max_sweeps: int = 10**7):
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
    for _ in range(max_sweeps):
        V = Q.max(axis=1)
        Q_next = r + gamma * np.einsum("sat,t->sa", P, V)
        delta = float(np.max(np.abs(Q_next - Q)))
        Q = Q_next
        if delta <= threshold:
            break
    else:
        raise SolverConvergenceError(
            f"value iteration did not reach {threshold:.3e} in {max_sweeps} sweeps")
    V = Q.max(axis=1)
    policy = DeterministicPolicy(np.argmax(Q, axis=1))
    return Q, V, policy


# ---------------------------------------------------------------------------
# average-reward evaluation


def chain_gain_bias(chain: InducedChain) -> GainBias:
    """Gain and bias of a Markov reward chain.

    gain = P* r with P* the limiting matrix; bias solves
    (I - P + P*) h = (I - P*) r, the deviation-matrix form, which enforces
    P* h = 0 (stationary-weighted zero mean on every recurrent class).
    """
    P, r = chain.matrix, chain.reward
    P_star = _cesaro_limit(P, *_structure_masks(P > 0))
    gain = P_star @ r
    S = P.shape[0]
    bias = np.linalg.solve(np.eye(S) - P + P_star, r - gain)
    return GainBias(gain=gain, bias=bias)


def amdp_gain_bias(m: TabularMdp, pi: Policy) -> GainBias:
    """Gain and bias of a policy on an MDP; see chain_gain_bias."""
    return chain_gain_bias(induce_chain(m, pi))


def horizon_iterates(P: np.ndarray, r: np.ndarray | float, T: int,
                     start: np.ndarray | None = None) -> np.ndarray:
    """Stacked iterates V_1..V_T of the backward recursion V_k = r + P V_{k-1}
    from V_0 = start (zero by default), as a (T, S) array."""
    if T < 1:
        raise ValueError("T must be a positive integer")
    V = np.zeros(P.shape[0]) if start is None else start
    out = np.empty((T, P.shape[0]))
    for k in range(T):
        V = r + P @ V
        out[k] = V
    return out


def finite_horizon_value(m: TabularMdp, pi: Policy, T: int) -> np.ndarray:
    """Undiscounted T-step value V_T; the last row of horizon_iterates."""
    chain = induce_chain(m, pi)
    return horizon_iterates(chain.matrix, chain.reward, T)[-1]


# ---------------------------------------------------------------------------
# average-reward optimal control


def bellman_optimality_residual(m: TabularMdp, gain: np.ndarray,
                                bias: np.ndarray) -> float:
    """max_s | (gain + bias)(s) - max_a { r(s,a) + P_{s,a} bias } |."""
    lookahead = m.rewards + np.einsum("sat,t->sa", m.transitions, bias)
    return float(np.max(np.abs(gain + bias - lookahead.max(axis=1))))


def relative_value_iteration(m: TabularMdp, tau: float = 0.5,
                             span_tol: float = 1e-10,
                             max_iter: int = 2_000_000):
    """Relative value iteration on the lazy, reward-scaled transform
    (P <- (1-tau) P + tau I, r <- (1-tau) r).

    The transform removes periodicity, scales the gain by (1-tau), and keeps
    both the bias and the greedy action sets unchanged, so the original gain
    is recovered by dividing out (1-tau).  Iterates until the span of
    successive Bellman differences drops below span_tol; non-convergence
    within max_iter signals a multichain or non-weakly-communicating input.

    Returns (gain_scalar, bias, greedy_policy).
    """
    P = aperiodicity_transform(m, tau).transitions
    r = (1.0 - tau) * m.rewards
    v = np.zeros(m.num_states)
    for _ in range(max_iter):
        Q = r + np.einsum("sat,t->sa", P, v)
        w = Q.max(axis=1)
        delta = w - v
        if span(delta) <= span_tol:
            gain_scaled = 0.5 * float(delta.max() + delta.min())
            policy = DeterministicPolicy(np.argmax(Q, axis=1))
            return gain_scaled / (1.0 - tau), v, policy
        v = w - w[0]
    raise SolverConvergenceError(
        f"relative value iteration did not converge in {max_iter} sweeps "
        "(multichain or non-weakly-communicating input?)")


def _enumerate_gains(m: TabularMdp, budget: int):
    """Per-state gain of every deterministic policy, (A^S, S), from one
    batched Cesaro-limit solve over all policies, unichain or not."""
    policies, P_all, r_all, comm, recurrent, _ = _policy_batch(m, budget)
    return policies, _cesaro_limit(P_all, comm, recurrent, r_all)


def amdp_optimal(m: TabularMdp, method: str = "auto",
                 budget: int = 10**6) -> AmdpOptimum:
    """Gain-optimal solution of the average-reward problem.

    method="enumerate": evaluate every deterministic policy and take the
    first, in lexicographic order of the action arrays, whose worst-state
    gain is within GAIN_TIE_TOL of the best; more than `budget` policies
    raise EnumerationBudgetError.  method="relative_vi": relative value
    iteration on the lazy transform, greedy policy extraction.  The default
    method="auto" enumerates when A^S <= budget and runs relative VI
    otherwise.

    Either way the returned gain is the exact per-state gain of the returned
    policy (dense linear algebra, not iteration), and the returned bias
    solves the Bellman optimality equation: when the argmax policy's own
    bias fails that equation (possible with tie policies), the relative-VI
    solution is substituted.
    """
    if method == "auto":
        method = ("enumerate" if m.num_actions**m.num_states <= budget
                  else "relative_vi")
    wc = is_weakly_communicating(m)
    if method == "relative_vi":
        _, bias, policy = relative_value_iteration(m)
        gain = chain_gain_bias(induce_chain(m, policy)).gain
        return AmdpOptimum(gain=gain, bias=bias, policy=policy,
                           H=span(bias), weakly_communicating=wc)
    if method != "enumerate":
        raise ValueError(f"unknown method {method!r}")

    policies, gains = _enumerate_gains(m, budget)
    worst = gains.min(axis=1)
    best = int(np.argmax(worst >= worst.max() - GAIN_TIE_TOL))
    policy = DeterministicPolicy(policies[best])
    gb = chain_gain_bias(induce_chain(m, policy))
    bias = gb.bias
    # tie-heavy instances can make the argmax policy non-greedy w.r.t. its
    # own bias; the optimality equation only has a constant-gain solution in
    # the weakly communicating case, so the substitution is gated on that
    if wc and bellman_optimality_residual(m, gb.gain, bias) > 1e-8:
        _, bias, _ = relative_value_iteration(m)
    return AmdpOptimum(gain=gb.gain, bias=bias, policy=policy,
                       H=span(bias), weakly_communicating=wc)


def h_gamma_star(m: TabularMdp, gamma: float, opt: AmdpOptimum,
                 vi_accuracy: float = 1e-9) -> np.ndarray:
    """Shifted optimal discounted value V*_gamma - gain / (1 - gamma).

    For a weakly communicating MDP this vector satisfies the discounted
    optimality equation rewritten in average-reward form,
    (gain + h)(s) = max_a { r(s,a) + gamma P_{s,a} h }.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    _, V, _ = dmdp_value_iteration(m, gamma, vi_accuracy)
    return V - opt.gain / (1.0 - gamma)
