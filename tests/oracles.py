"""Independent oracles used to freeze expected values.

Everything here recomputes quantities from first principles (iterative
fixed points, Cesaro averages, hand linear solves) without touching the
production solve paths, so tests can cross-validate closed forms against a
second route.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class OracleOptimum(NamedTuple):
    """An optimum found by an oracle route: gain, bias, policy, H = sp(bias),
    and the policy's own bias, which the route's bias need not equal."""

    gain: np.ndarray
    bias: np.ndarray
    policy: object
    H: float
    policy_bias: np.ndarray


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


def policies_and_rewards(m) -> tuple[np.ndarray, np.ndarray]:
    """Every deterministic policy of m (n, S), in the order of its
    whole_policy_batch, with the rewards (n, S) it induces."""
    from amdp_lab.chains import all_deterministic_policies, induced_chain_batch

    policies = all_deterministic_policies(m.num_states, m.num_actions)
    return policies, induced_chain_batch(m, policies)[1]


def whole_policy_batch(m):
    """The _policy_batch of every deterministic policy of m at once, in
    all_deterministic_policies order."""
    from amdp_lab.chains import _policy_batch, all_deterministic_policies

    return _policy_batch(m, all_deterministic_policies(m.num_states, m.num_actions))


def policy_gains(m, batch) -> np.ndarray:
    """Per-state gains (n, S) of every policy of m, given its whole_policy_batch:
    each chain's Cesaro limit, from the batch's stationary rows, applied to
    its rewards."""
    from amdp_lab.chains import _cesaro_limit

    P_star = _cesaro_limit(batch.P_all, batch.comm, batch.recurrent, nu=batch.nu)
    return (P_star @ policies_and_rewards(m)[1][..., None])[..., 0]


def first_tie_optimum(m):
    """The enumeration's first tied policy with its own gain/bias from one
    unbatched deviation solve, and a bias repaired to solve the optimality
    equation: that own bias, or on a weakly communicating input whose own
    bias misses the equation by more than 1e-8, the relative-VI bias.
    Returns (actions, gain, policy_bias, bias)."""
    from amdp_lab import solvers
    from amdp_lab.chains import _cesaro_limit, is_weakly_communicating

    b = whole_policy_batch(m)
    policies, r_all = policies_and_rewards(m)
    worst = policy_gains(m, b).min(axis=1)
    i = int(np.argmax(worst >= worst.max() - solvers.GAIN_TIE_TOL))
    P, r = b.P_all[i], r_all[i]
    P_star = _cesaro_limit(P, b.comm[i], b.recurrent[i], nu=b.nu[i])
    gain = P_star @ r
    own = np.linalg.solve(np.eye(len(P)) - P + P_star, r - gain)
    bias = own
    if (is_weakly_communicating(m)
            and solvers.bellman_optimality_residual(m, gain, own) > 1e-8):
        _, bias, _ = solvers.relative_value_iteration(m)
    return policies[i], gain, own, bias


def enumerated_optimum(m, batch):
    """The enumerated optimum over the whole_policy_batch of m, the route
    amdp_optimal took within the enumeration budget before bias-optimal
    policy iteration: every policy's per-state gain from one batched
    Cesaro-limit solve on the batch's stationary rows, then the gain/bias of
    the tied policies from batched deviation solves on those rows too (of
    the first alone when m is not weakly communicating), in chunks whose
    (chunk, S, S) stacks fit in chains._CHUNK_BYTES.  Its policy is the
    first tied one, and on a weakly communicating input its bias is the
    elementwise max of the tied policies' biases."""
    from amdp_lab import chains
    from amdp_lab.chains import is_weakly_communicating
    from amdp_lab.mdp import DeterministicPolicy, span
    from amdp_lab.solvers import GAIN_TIE_TOL, _gain_bias

    policies, r_all = policies_and_rewards(m)
    worst = policy_gains(m, batch).min(axis=1)
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
        gb = _gain_bias(batch.P_all[part], r_all[part], batch.comm[part],
                        batch.recurrent[part], batch.nu[part])
        if k == 0:
            gain, policy_bias = gb.gain[0], gb.bias[0]
        chunk_max.append(gb.bias.max(axis=0))
    bias = np.max(chunk_max, axis=0)
    return OracleOptimum(gain=gain, bias=bias,
                         policy=DeterministicPolicy(policies[tied[0]]),
                         H=span(bias), policy_bias=policy_bias)


def relative_vi_optimum(m):
    """The optimum by relative value iteration on the lazy transform, the
    route amdp_optimal's method="relative_vi" took: the greedy policy with
    its exact gain, and the iterate's bias, which solves the optimality
    equation but need not be the policy's own bias."""
    from amdp_lab.mdp import span
    from amdp_lab.solvers import amdp_gain_bias, relative_value_iteration

    _, bias, policy = relative_value_iteration(m)
    gb = amdp_gain_bias(m, policy)
    return OracleOptimum(gain=gb.gain, bias=bias, policy=policy, H=span(bias),
                         policy_bias=gb.bias)


def bfs_class_period(support: np.ndarray, states: np.ndarray) -> int:
    """Period of one closed class, one Python BFS: the gcd of
    (level[u] + 1 - level[v]) over its edges, with BFS levels measured from
    the smallest state.  The per-class loop decompose_chain ran before the
    batched chains._class_periods."""
    import math

    adjacency = [np.flatnonzero(row).tolist()
                 for row in support[np.ix_(states, states)]]
    level = [-1] * len(states)
    level[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in adjacency[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u, row in enumerate(adjacency):
        for v in row:
            g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g != 0 else 1


def bfs_periods(support: np.ndarray, comm: np.ndarray,
                recurrent: np.ndarray) -> np.ndarray:
    """(n, S) period of each recurrent state's class, 0 on transient states,
    for a batch of supports with their class masks: one bfs_class_period
    per closed class, run once per distinct support (a period depends on the
    support alone)."""
    _, first, inverse = np.unique(support.reshape(len(support), -1), axis=0,
                                  return_index=True, return_inverse=True)
    out = np.zeros((len(first), support.shape[-1]), dtype=int)
    for i, row in zip(first, out):
        for s in np.flatnonzero(recurrent[i]):
            if row[s] == 0:
                members = np.flatnonzero(comm[i, s])
                row[members] = bfs_class_period(support[i], members)
    return out[inverse.reshape(-1)]


def power_loop_mixing_time(P: np.ndarray, threshold: float = 0.5,
                           t_cap: int = 100_000) -> float:
    """Mixing time of one chain by its own power loop, with its classes read
    off decompose_chain and the period from bfs_class_period: the per-chain
    route chain_mixing_time took before it became mixing_time on the chain's
    one-action MDP.  None when t_cap is reached."""
    from amdp_lab import decompose_chain

    structure = decompose_chain(P)
    classes = structure.recurrent_classes
    if len(classes) != 1 or bfs_class_period(P > 0, classes[0]) != 1:
        return float("inf")
    nu = structure.limiting_matrix[classes[0][0]]
    X = P.copy()
    for t in range(1, t_cap + 1):
        if np.max(np.abs(X - nu).sum(axis=1)) <= threshold:
            return float(t)
        X = X @ P
    return None


def full_stack_mixing_time(m, threshold: float = 0.5,
                           t_cap: int = 100_000) -> float:
    """Worst-case mixing time over every deterministic policy, stepping the
    whole (n, S, S) stack of powers until the slowest policy mixes: the loop
    mixing_time ran before it stepped only the unmixed policies.  Multichain
    verdicts come from the production batch, periods from bfs_periods.  None
    when t_cap is reached."""
    from amdp_lab.chains import _stationary

    P_all, comm, recurrent, multi, _ = whole_policy_batch(m)
    if np.any(multi) or np.any(bfs_periods(P_all > 0, comm, recurrent) > 1):
        return float("inf")
    nus = _stationary(P_all, comm, recurrent)
    hit = np.zeros(len(P_all))
    pending = np.ones(len(P_all), dtype=bool)
    X = P_all.copy()
    for t in range(1, t_cap + 1):
        dist = np.abs(X - nus[:, None, :]).sum(axis=2).max(axis=1)
        newly = pending & (dist <= threshold)
        hit[newly] = t
        pending &= ~newly
        if not pending.any():
            return float(hit.max())
        X = np.matmul(X, P_all)
    return None


def whole_batch_mixing_time(m) -> float:
    """Worst-case mixing time from one batch of every policy's chain: one
    multichain and period screen of the whole stack, then one power loop
    that steps only the unmixed policies, under chains.MIXING_THRESHOLD and
    chains.MIXING_MAX_STEPS.  The route mixing_time took before it walked
    the enumeration in chunks; +inf or SolverConvergenceError as it
    gives."""
    import math

    from amdp_lab import chains
    from amdp_lab.mdp import SolverConvergenceError

    batch = whole_policy_batch(m)
    if np.any(batch.multi) or np.any(
            chains._class_periods(batch.P_all > 0, batch.comm, batch.recurrent) > 1):
        return math.inf
    P, nu = batch.P_all, batch.nu
    X = P
    for t in range(1, chains.MIXING_MAX_STEPS + 1):
        dist = np.abs(X - nu[:, None, :]).sum(axis=2).max(axis=1)
        pending = ~(dist <= chains.MIXING_THRESHOLD)
        if not pending.any():
            return float(t)
        if not pending.all():
            X, P, nu = X[pending], P[pending], nu[pending]
        X = np.matmul(X, P)
    raise SolverConvergenceError(
        f"{len(P)} policies did not mix within {chains.MIXING_MAX_STEPS} steps")


def stepped_power_iterates(P: np.ndarray, x: np.ndarray, T: int) -> np.ndarray:
    """Stacked P^1 x .. P^T x, one matrix-vector step per power: the
    recursion the finite-horizon identity used for P^T bias before it
    doubled."""
    out = np.empty((T, len(x)))
    for k in range(T):
        x = P @ x
        out[k] = x
    return out


def product_policies(num_states: int, num_actions: int) -> np.ndarray:
    """All deterministic policies in lexicographic order from
    itertools.product: the listing all_deterministic_policies made before it
    used index arithmetic."""
    from itertools import product

    return np.array(list(product(range(num_actions), repeat=num_states)),
                    dtype=int).reshape(num_actions**num_states, num_states)


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


def searchsorted_draws(row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next states for uniforms u under one transition row by inverse CDF:
    searchsorted over the whole CDF, with the u >= cum[-1] float corner sent
    to the last state of positive mass (the draw GenerativeModel.sample_batch
    made before it searched the support boundaries alone)."""
    idx = np.searchsorted(np.cumsum(row), u, side="right")
    idx[idx >= len(row)] = np.flatnonzero(row > 0)[-1]
    return idx


def per_row_pair_rows(P: np.ndarray) -> dict:
    """generative._PairTables(P).rows worked out one pair at a time, in
    (s, a) order: (index, support, CDF at all but the last support state,
    support probabilities over their own sum), the loop _PairTables ran
    before it grouped the rows by support size."""
    positive = P > 0
    multi = np.count_nonzero(positive, axis=2) > 1
    cum = np.cumsum(P, axis=2)
    rows = {}
    for i, (s, a) in enumerate(zip(*np.nonzero(multi))):
        support = np.flatnonzero(positive[s, a])
        p = P[s, a, support]
        rows[int(s), int(a)] = (i, support, cum[s, a, support[:-1]], p / p.sum())
    return rows


def _int_seeded_stream(gm, s: int, a: int):
    """The pair's generator in gm._streams, built there on first use as
    Generator(PCG64(int(seed))) on its transition seed, so NumPy's
    SeedSequence hashes that seed itself."""
    gen = gm._streams.get((s, a))
    if gen is None:
        gen = gm._streams[s, a] = np.random.Generator(
            np.random.PCG64(int(gm.seed_spec.transition_seed(s, a))))
    return gen


def drawn_counts(gm, s: int, a: int, n: int) -> np.ndarray:
    """Next-state counts of n draws at (s, a) as one multinomial(n, p) on
    the pair's int-seeded stream (_int_seeded_stream), p the row's
    probabilities over its support scaled to sum to 1, worked out from the
    truth on every call, at every pair, one-state pairs included: there
    the stream is built and the draw reads none of its bits."""
    row = gm._truth.transitions[s, a]
    support = np.flatnonzero(row > 0)
    p = row[support]
    counts = np.zeros(gm.num_states, dtype=np.int64)
    counts[support] = _int_seeded_stream(gm, s, a).multinomial(n, p / p.sum())
    gm.sample_counter[s, a] += n
    return counts


def int_seeded_multinomial_counts(gm, s: int, a: int, n: int) -> np.ndarray:
    """drawn_counts at a pair with two or more next states; a one-state
    pair takes n at its state and builds no stream."""
    row = gm._truth.transitions[s, a]
    if np.count_nonzero(row) > 1:
        return drawn_counts(gm, s, a, n)
    gm.sample_counter[s, a] += n
    return (row > 0) * np.int64(n)


def int_seeded_counts(gm, s: int, a: int, n: int) -> np.ndarray:
    """Next-state counts of n per-draw samples at (s, a): n uniforms from
    the pair's int-seeded stream (_int_seeded_stream), tallied at the
    support's CDF boundaries worked out from the truth's row on every call,
    so they equal the bincount of sample_batch(s, a, n).  A one-state pair
    draws nothing and builds no stream."""
    row = gm._truth.transitions[s, a]
    support = np.flatnonzero(row > 0)
    u = _int_seeded_stream(gm, s, a).random(n) if len(support) > 1 else None
    gm.sample_counter[s, a] += n
    bounds = np.cumsum(row)[support[:-1]]
    beyond = np.array([n] + [np.count_nonzero(u >= b) for b in bounds] + [0])
    counts = np.zeros(gm.num_states, dtype=np.int64)
    counts[support] = beyond[:-1] - beyond[1:]
    return counts


def per_pair_empirical(gm, n: int, rewards: np.ndarray, pair_counts):
    """The empirical MDP of n draws at every pair, in (s, a) order, one-state
    pairs included, each pair's counts from pair_counts(gm, s, a, n) (one of
    the count oracles above): the build build_empirical makes, pair by pair
    with no shared tables."""
    from amdp_lab import TabularMdp

    S, A = gm.num_states, gm.num_actions
    counts = np.array([[pair_counts(gm, s, a, n) for a in range(A)]
                       for s in range(S)])
    return TabularMdp(S, A, counts / float(n), np.asarray(rewards, dtype=float),
                      metadata={"empirical_n": n})


def uniform_tally_empirical(gm, n: int, rewards: np.ndarray):
    """The per-draw empirical build, the one build_empirical ran before it
    drew each pair's counts as one multinomial: one-state pairs take n at
    their state, and each other pair draws n uniforms from its own stream
    (gm._stream) and tallies them at its support's CDF boundaries (a draw
    lands on the first support state whose boundary exceeds its uniform,
    and on the last one past every boundary).  Its counts equal the
    bincount of sample_batch(s, a, n) at every pair, its streams end where
    those draws leave them, and its cost grows with n."""
    from amdp_lab import TabularMdp

    counts = gm._tables.positive * n
    for (s, a), (index, support, bounds, _) in gm._tables.rows.items():
        u = gm._stream(s, a, index).random(n)
        beyond = np.array([n, *(np.count_nonzero(u >= b) for b in bounds), 0])
        counts[s, a, support] = beyond[:-1] - beyond[1:]
    gm.sample_counter += n
    return TabularMdp(gm.num_states, gm.num_actions, counts / float(n),
                      np.asarray(rewards, dtype=float), metadata={"empirical_n": n})


def multinomial_pmf(n: int, p) -> dict[tuple[int, ...], "Fraction"]:
    """The exact pmf of Multinomial(n, p) at every count vector, as
    Fractions, p given as floats and taken at their exact values over
    their exact sum."""
    from fractions import Fraction
    from itertools import product
    from math import comb, prod

    p = [Fraction(x) for x in p]
    p = [x / sum(p) for x in p]
    out = {}
    for head in product(range(n + 1), repeat=len(p) - 1):
        if sum(head) <= n:
            k = (*head, n - sum(head))
            coef = prod(comb(n - sum(k[:i]), k[i]) for i in range(len(k)))
            out[k] = coef * prod(x**ki for x, ki in zip(p, k))
    return out


#: value-iteration hitting-time iterates above this are treated as divergent
HITTING_TIME_CAP = 1e9


def almost_sure_reach_set(m, target: int) -> np.ndarray:
    """States from which some policy hits ``target`` with probability one,
    by a per-state set loop: shrink the candidates to the states that reach
    the target through actions whose whole support stays inside the
    candidates, until stable."""
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


def value_iteration_hitting_times(m, tol: float = 1e-9,
                                  max_sweeps: int = 10**7) -> np.ndarray:
    """Minimal expected hitting times (S, S), indexed [target, state], by
    value iteration of T(s) = min_a {1 + sum_{s' != t} P(s'|s,a) T(s')}
    from zero, +inf outside each target's almost-sure reach set and, as a
    backstop, above HITTING_TIME_CAP: the per-target solve diameter used
    before its policy iteration, swept for all targets at once.  Each target
    keeps its own reach set, sentinel, cap and tol stop, and leaves the
    sweep when it stops; it stops about tol short of the true value."""
    S = m.num_states
    finite = np.array([almost_sure_reach_set(m, t) for t in range(S)])
    # P_a^T per action; T[t, t] stays 0, so the product drops each target's
    # own column of P
    PT = np.transpose(m.transitions, (1, 2, 0))
    swept = finite & ~np.eye(S, dtype=bool)
    held = np.where(finite, 0.0, 10.0 * HITTING_TIME_CAP)  # sentinel off the set
    T, running = held, np.ones((S, 1), dtype=bool)
    for _ in range(max_sweeps):
        # 1 + min equals min of 1 + x: rounding is monotone
        T_new = np.where(swept, 1.0 + np.matmul(T, PT).min(axis=0), held)
        # a capped target keeps its last iterate; the others take the sweep
        running &= T_new.max(axis=1, where=finite, initial=0.0, keepdims=True) <= HITTING_TIME_CAP
        step = np.abs(T_new - T).max(axis=1, keepdims=True)
        T = np.where(running, T_new, T)
        running &= step > tol
        if not running.any():
            break
    else:
        raise RuntimeError(f"oracle hitting times to {np.flatnonzero(running)} "
                           "did not converge")
    out = np.where(finite, T, np.inf)
    out[out > HITTING_TIME_CAP] = np.inf
    return out


def masked_policy_iteration(P: np.ndarray, cost: np.ndarray, discount: float,
                            policy: np.ndarray, allowed, active: np.ndarray,
                            max_iterations: int = 1000):
    """Howard policy iteration with masks, for K problems on one (S, A, S)
    tensor: the loop the lab ran before terminal states and forbidden
    actions became data.  cost is (S, A) and discount one scalar; rows off
    active (K, S) are held at value 0 and actions off allowed (broadcasting
    to (K, S, A)) get Q = +inf.  Returns (Q, V) of the last evaluation."""
    K, S = policy.shape
    states, problems = np.arange(S), np.arange(K)[:, None]
    identity = np.eye(S)
    tie = 8.0 * np.finfo(float).eps
    for _ in range(max_iterations):
        M = np.where(active[..., None], identity - discount * P[states, policy],
                     identity)
        b = np.where(active, cost[states, policy], 0.0)
        V = np.linalg.solve(M, b[..., None])[..., 0]
        Q = np.where(allowed, cost + discount * (P @ V[:, None, :, None])[..., 0],
                     np.inf)
        best = Q.min(axis=-1)
        current = Q[problems, states, policy]
        improves = active & (current - best > tie * np.abs(best))
        if not improves.any():
            return Q, V
        policy = np.where(improves, np.argmin(Q, axis=-1), policy)
    raise RuntimeError("oracle policy iteration did not converge")


def masked_hitting_times(m) -> np.ndarray:
    """Minimal expected hitting times (S, S), indexed [target, state], by
    masked_policy_iteration for all targets at once from the reach step's
    policies: active on each reach set less its target, actions leaving
    the reach set not allowed, +inf off the reach set."""
    from amdp_lab.chains import _almost_sure_reach, _stays_inside

    S = m.num_states
    reach, policy = _almost_sure_reach(m.transitions > 0)
    active = reach & ~np.eye(S, dtype=bool)
    allowed = _stays_inside(m.transitions > 0, reach) | ~active[..., None]
    _, T = masked_policy_iteration(m.transitions, np.ones((S, m.num_actions)),
                                   1.0, policy, allowed, active)
    return np.where(reach, T, np.inf)


def masked_dmdp_policy_iteration(m, gamma: float):
    """(Q, V, actions) of the discounted optimum by masked_policy_iteration
    with every row active and every action allowed, from the reward-greedy
    policy."""
    r = m.rewards
    every = np.ones((1, m.num_states), dtype=bool)
    cost_Q, _ = masked_policy_iteration(m.transitions, -r, gamma,
                                        np.argmax(r, axis=1)[None], True, every)
    Q = -cost_Q[0]
    return Q, Q.max(axis=1), np.argmax(Q, axis=1)


def bfs_communicating(m) -> bool:
    """True when every state reaches every other along the edges of
    union_support: one breadth-first search from each state."""
    from amdp_lab.chains import union_support

    edges = union_support(m)
    for start in range(m.num_states):
        seen = np.zeros(m.num_states, dtype=bool)
        seen[start] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def set_loop_weakly_communicating(m) -> bool:
    """Weak communication with the greatest fixed point "keep u if some
    action stays inside" taken over a Python set, one flatnonzero per
    action: the loop is_weakly_communicating used before the batched
    stays-inside mask."""
    from amdp_lab.chains import _structure_masks, union_support

    comm, recurrent = _structure_masks(union_support(m))
    if not np.any(recurrent):
        return False
    rec_states = np.flatnonzero(recurrent)
    if not np.all(comm[np.ix_(rec_states, rec_states)]):
        return False
    alive = set(int(u) for u in np.flatnonzero(~recurrent))
    changed = True
    while changed and alive:
        changed = False
        for u in list(alive):
            if not any(all(int(v) in alive
                           for v in np.flatnonzero(m.transitions[u, a] > 0))
                       for a in range(m.num_actions)):
                alive.remove(u)
                changed = True
    return not alive


def serial_empirical_error(gm, params, trials: int, opt=None) -> list[tuple[int, float]]:
    """(seed, exact gap) of each sampled trial, run one after another in
    trial order, each with its own solve and evaluation: the loop
    empirical_error ran before its batched solve."""
    from amdp_lab import GenerativeModel, algorithm1, amdp_gain_bias, amdp_optimal

    truth = gm._truth
    if opt is None:
        opt = amdp_optimal(truth)
    rho_star = float(np.max(opt.gain))
    out = []
    for trial in range(trials):
        seed = gm.seed_spec.trial_seed(trial)
        policy = algorithm1(GenerativeModel(truth, seed), params)
        out.append((seed, rho_star - float(np.min(amdp_gain_bias(truth, policy).gain))))
    return out


def separate_instance_certificates(m, instance_id: str, epsilon: float) -> list:
    """The certify command's per-instance certificates with every quantity
    computed on its own: amdp_optimal, the four certificate builders,
    diameter and mixing_time (None over the enumeration budget), each
    called on its own."""
    import math

    from amdp_lab import EnumerationBudgetError, chains, reduction, solvers

    opt = solvers.amdp_optimal(m)
    certs = [
        reduction.certify_gain_discount_gap(m, opt.policy, 0.9, instance_id),
        *reduction.certify_span_bounds(m, epsilon, instance_id, opt=opt),
        reduction.certify_finite_horizon_identity(m, opt.policy, instance_id),
        reduction.certify_reduction_bound(m, epsilon, 0.0, instance_id, opt=opt),
    ]
    D = chains.diameter(m)
    certs.append(reduction._certificate("bias_span_le_diameter", opt.H, D,
                                        1e-6, instance_id))
    try:
        t_mix = chains.mixing_time(m)
    except EnumerationBudgetError:
        t_mix = None
    if t_mix is not None and math.isfinite(t_mix):
        certs.append(reduction._certificate("bias_span_le_mixing", opt.H,
                                            8.0 * t_mix, 1e-6, instance_id))
    return certs


def scan_plan_tree(n_internal: int, n_leaves: int, arity: int):
    """The hard family's router tree laid out by scanning: each internal
    node, then each leaf, attaches to the first node with a free slot, and
    every internal node left childless first takes one leaf (the O(n^2)
    layout _plan_tree had before its closed form).  Returns (children,
    parent) as _plan_tree does."""
    from amdp_lab import InfeasibleInstanceError

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
        raise InfeasibleInstanceError("tree arity exhausted")

    for node in range(1, n_internal):
        attach(node)
    childless = [p for p in range(n_internal) if not children[p]]
    if len(childless) > n_leaves:
        raise InfeasibleInstanceError(
            f"{len(childless)} internal nodes would stay childless with "
            f"{n_leaves} leaves")
    pending = list(range(n_internal, n_internal + n_leaves))
    for p in childless:
        leaf = pending.pop(0)
        children[p].append(leaf)
        parent[leaf] = p
    for leaf in pending:
        attach(leaf)
    return children, parent


def multipass_hard_instance(spec):
    """The hard-family instance built in passes: fill the M0 skeleton state
    by state, then rewrite one x row per lowered swap (every component for
    M1, then component k for MKL), copying the tensor and metadata each
    time, the route the builders took before the one-pass leak table; its
    router tree comes from scan_plan_tree."""
    from amdp_lab import TabularMdp

    S, A, arity = spec.S, spec.A, spec.A_prime
    n_int, K = spec.num_internal, spec.K
    children, parent = scan_plan_tree(n_int, K, arity)

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
        P[x, A - 1, state_of(parent[n_int + j])] = 1.0
        P[y, A - 1, y] = 1.0
    m = TabularMdp(S, A, P, r, metadata={
        "name": "M0", "S": S, "A": A, "D": spec.D, "epsilon": spec.epsilon,
        "variant": "M0", "x_states": x_states, "y_states": y_states,
        "internal_states": list(range(n_int))})

    def lower_swap(m, x, y, action, p_new, meta_update):
        P = m.transitions.copy()
        P[x, action, y] = p_new
        P[x, action, x] = 1.0 - p_new
        meta = dict(m.metadata)
        meta.update(meta_update)
        return TabularMdp(m.num_states, m.num_actions, P, m.rewards, metadata=meta)

    if spec.variant == "M0":
        return m
    for x, y in zip(x_states, y_states):
        m = lower_swap(m, x, y, 0, 1.0 / spec.D_prime, {})
    m = TabularMdp(S, A, m.transitions, m.rewards,
                   metadata={**m.metadata, "name": "M1", "variant": "M1"})
    if spec.variant == "M1":
        return m
    k, l = spec.k, spec.l
    return lower_swap(m, x_states[k - 1], y_states[k - 1], l - 1,
                      (1.0 - 8.0 * spec.epsilon) / spec.D_prime,
                      {"name": f"M_{k},{l}", "variant": "MKL", "k": k, "l": l})


def loop_validate_mdp(m) -> list[str]:
    """validate_mdp as one Python loop over every (s, a): the check the
    lab ran before its masks were vectorized."""
    from amdp_lab.mdp import PROB_TOL

    violations: list[str] = []
    P, r = m.transitions, m.rewards
    if not np.all(np.isfinite(P)):
        violations.append("transitions contain non-finite entries")
    if not np.all(np.isfinite(r)):
        violations.append("rewards contain non-finite entries")
    if violations:
        return violations
    for s in range(m.num_states):
        for a in range(m.num_actions):
            row = P[s, a]
            if np.any(row < 0):
                j = int(np.argmin(row))
                violations.append(
                    f"P[{s}][{a}][{j}] = {row[j]:.6g} is negative")
            total = float(row.sum())
            if abs(total - 1.0) > PROB_TOL:
                violations.append(
                    f"row P[{s}][{a}] sums to {total!r}, not 1")
            rv = float(r[s, a])
            if rv < 0.0 or rv > 1.0:
                violations.append(f"r[{s}][{a}] = {rv:.6g} outside [0, 1]")
    return violations


def _spelled_float(x: float) -> str:
    """How _write_json spells a finite float: float(format_number(x)) as
    json.dumps writes it.  Between 1e-4 and 1e12 the text has the digits of
    format_number, plus ".0" when it has no point; in exponent form it may
    not (1e+12 -> 1000000000000.0, and a subnormal has fewer digits), so
    there it goes through repr."""
    from amdp_lab.reduction import format_number

    text = format_number(x)
    if "e" in text:
        return repr(float(text))
    return text if "." in text else text + ".0"


def spelled_certificates_report(certs, path) -> None:
    """The certificates report spelled out with f-strings, one space of
    indent per level: the summary write_certificates_report writes through
    _write_json, kept as the byte reference for that route."""
    import json
    from pathlib import Path

    quote = json.encoder.encode_basestring_ascii
    failed = [f'  {{\n   "instance_id": {quote(c.instance_id)},\n'
              f'   "name": {quote(c.name)}\n  }}' for c in certs if not c.passed]
    spelled = "[\n" + ",\n".join(failed) + "\n ]" if failed else "[]"
    Path(path).write_text(
        f'{{\n "total": {len(certs)},\n "passed": {len(certs) - len(failed)},\n'
        f' "failed": {spelled}\n}}\n')
