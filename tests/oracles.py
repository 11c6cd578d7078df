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


def normal_equation_stationary(P_all: np.ndarray) -> np.ndarray:
    """Stationary distributions of a batch of unichain matrices through the
    nonsingular normal system (A^T A + 11^T) nu = 1 with A = P^T - I: the
    batched solve that the enumeration and mixing_time used before the
    replace-one-row solve."""
    n, S, _ = P_all.shape
    A = np.swapaxes(P_all, 1, 2) - np.eye(S)
    G = np.matmul(np.swapaxes(A, 1, 2), A) + 1.0
    return np.linalg.solve(G, np.ones((n, S, 1)))[:, :, 0]


def per_class_limiting_matrix(P: np.ndarray) -> np.ndarray:
    """Cesaro limit of one chain class by class: a replace-the-last-row
    stationary solve restricted to each closed class, then one absorption
    solve of the transient block into the classes (the decomposition that
    decompose_chain used before the batched routine)."""
    from amdp_lab.chains import _structure_masks

    S = P.shape[0]
    comm, recurrent = _structure_masks(P > 0)
    classes, seen = [], np.zeros(S, dtype=bool)
    for s in np.flatnonzero(recurrent):
        if not seen[s]:
            members = np.flatnonzero(comm[s] & recurrent)
            classes.append(members)
            seen[members] = True
    limiting = np.zeros((S, S))
    stationary = []
    for members in classes:
        M = P[np.ix_(members, members)].T - np.eye(len(members))
        M[-1, :] = 1.0
        b = np.zeros(len(members))
        b[-1] = 1.0
        nu = np.linalg.solve(M, b)
        stationary.append(nu)
        limiting[np.ix_(members, members)] = nu
    transient = np.flatnonzero(~recurrent)
    if len(transient) > 0:
        Q = P[np.ix_(transient, transient)]
        R = np.stack([P[np.ix_(transient, members)].sum(axis=1) for members in classes],
                     axis=1)
        absorb = np.linalg.solve(np.eye(len(transient)) - Q, R)
        for k, (members, nu) in enumerate(zip(classes, stationary)):
            limiting[np.ix_(transient, members)] += np.outer(absorb[:, k], nu)
    return limiting


def slow_path_best_gain(m) -> tuple[np.ndarray, float]:
    """Brute-force optimal gain via a per-policy loop (no batching): the
    first policy, in lexicographic order, whose worst-state gain is within
    1e-9 of the best, gains from the class-by-class limiting matrix."""
    from itertools import product

    candidates = list(product(range(m.num_actions), repeat=m.num_states))
    idx = np.arange(m.num_states)
    scores = np.array([
        float(np.min(per_class_limiting_matrix(m.transitions[idx, actions])
                     @ m.rewards[idx, actions]))
        for actions in candidates])
    best = int(np.flatnonzero(scores >= scores.max() - 1e-9)[0])
    return np.array(candidates[best]), float(scores[best])


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
