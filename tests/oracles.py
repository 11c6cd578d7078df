"""Independent oracles used to freeze expected values.

Everything here recomputes quantities from first principles (iterative
fixed points, Cesaro averages, hand linear solves) without touching the
production solve paths, so tests can cross-validate closed forms against a
second route.
"""

from __future__ import annotations

import numpy as np


def bellman_evaluation(P: np.ndarray, r: np.ndarray, gamma: float,
                       tol: float = 1e-13, max_iter: int = 10**7) -> np.ndarray:
    """Discounted policy value by straight fixed-point iteration."""
    v = np.zeros(len(r))
    for _ in range(max_iter):
        w = r + gamma * P @ v
        if np.max(np.abs(w - v)) <= tol:
            return w
        v = w
    raise RuntimeError("oracle evaluation did not converge")


def finite_values(P: np.ndarray, r: np.ndarray, T: int) -> np.ndarray:
    """Undiscounted T-step value by direct recursion."""
    V = np.zeros(len(r))
    for _ in range(T):
        V = r + P @ V
    return V


def cesaro_gain(P: np.ndarray, r: np.ndarray, N: int = 100_000) -> np.ndarray:
    """Gain as V_N / N."""
    return finite_values(P, r, N) / N


def cesaro_bias(P: np.ndarray, r: np.ndarray, rho: np.ndarray | float,
                N: int = 100_000) -> np.ndarray:
    """Bias as the Cesaro average of V_t - t rho over t <= N."""
    V = np.zeros(len(r))
    acc = np.zeros(len(r))
    for t in range(1, N + 1):
        V = r + P @ V
        acc += V - t * np.asarray(rho)
    return acc / N


def hitting_time_single_chain(P: np.ndarray, target: int) -> np.ndarray:
    """Expected hitting times of one chain by direct linear solve."""
    S = P.shape[0]
    others = [s for s in range(S) if s != target]
    Q = P[np.ix_(others, others)]
    t_others = np.linalg.solve(np.eye(len(others)) - Q, np.ones(len(others)))
    T = np.zeros(S)
    T[others] = t_others
    return T


def slow_path_best_gain(m) -> tuple[np.ndarray, float]:
    """Brute-force optimal gain via a per-policy loop (no batching):
    argmax over policies of the worst-state gain, gains from the exact
    per-chain decomposition."""
    from itertools import product

    from amdp_lab import DeterministicPolicy, amdp_gain_bias

    best_actions, best_score = None, -np.inf
    for actions in product(range(m.num_actions), repeat=m.num_states):
        gain = amdp_gain_bias(m, DeterministicPolicy(np.array(actions))).gain
        score = float(np.min(gain))
        if score > best_score:
            best_actions, best_score = actions, score
    return np.array(best_actions), best_score


def policy_loop_aperiodic(support: np.ndarray, recurrent: np.ndarray) -> np.ndarray:
    """Aperiodicity of each chain's single closed class from its integer
    period, one BFS per chain: the per-policy loop that the batched test in
    mixing_time replaced."""
    from amdp_lab.chains import _class_period

    return np.array([_class_period(sup, np.flatnonzero(rec)) == 1
                     for sup, rec in zip(support, recurrent)])


def finite_horizon_span_loop(P: np.ndarray, r: np.ndarray, horizon: int) -> float:
    """max_{T <= horizon} sp(V_T), one recursion step and one span per T: the
    per-step loop that certify_span_bounds replaced."""
    from amdp_lab import span

    V = np.zeros(len(r))
    worst = 0.0
    for _ in range(horizon):
        V = r + P @ V
        worst = max(worst, span(V))
    return worst


def finite_horizon_identity_loop(P: np.ndarray, r: np.ndarray,
                                 gain: np.ndarray, bias: np.ndarray,
                                 horizon: int) -> float:
    """max_{T <= horizon} ||V_T - (T gain + bias - P^T bias)||_inf, stepping
    V_T and P^T bias together: the per-step loop that
    certify_finite_horizon_identity replaced."""
    V = np.zeros(len(r))
    propagated = bias.copy()
    worst = 0.0
    for T in range(1, horizon + 1):
        V = r + P @ V
        propagated = P @ propagated
        predicted = T * gain + bias - propagated
        worst = max(worst, float(np.max(np.abs(V - predicted))))
    return worst
