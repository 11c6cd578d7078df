"""Average-reward learning through a discounted solve, plus the machine
checks for every inequality the reduction rests on.

The sampled pipeline: pick gamma = 1 - eps / (12 H), perturb rewards by a
tiny seeded uniform, build an empirical MDP from a fixed number of draws per
state-action pair, solve the discounted problem on it exactly by policy
iteration, and return the optimal policy.  The perturbation makes that
optimum unique, so the exact solve has one answer.  The certification
operations evaluate both sides of each supporting inequality with the exact
solvers and record them as pass/fail certificates; only the deliberately
inexact solve at a positive eps_gamma runs Q-value iteration.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import chains, generative, solvers
from .generative import GenerativeModel, build_empirical, perturb_rewards
from .mdp import DeterministicPolicy, TabularMdp, span
from .solvers import (
    AmdpOptimum,
    GainBias,
    _analysis,
    _power_iterates,
    amdp_gain_bias,
    amdp_optimal,
    chain_gain_bias,
    dmdp_policy_iteration,
    dmdp_policy_value,
    dmdp_value_iteration,
    horizon_iterates,
    induce_chain,
)

#: the paper's universal constants: C_TILDE scales the per-pair sample
#: size, C_P the reward perturbation xi
C_TILDE = 1.0
C_P = 1.0


@dataclass(frozen=True)
class ReductionParams:
    """Parameter schedule for one reduction run.

    gamma = 1 - epsilon / (12 H_bound); eps_gamma = epsilon / (12 (1-gamma)),
    which simplifies to H_bound; xi is the reward-perturbation size; and
    n_per_pair the sample budget at each state-action pair.
    """

    epsilon: float
    delta: float
    H_bound: float
    gamma: float
    eps_gamma: float
    xi: float
    n_per_pair: int


def reduction_params(epsilon: float, delta: float, H_bound: float,
                     num_states: int, num_actions: int,
                     n_override: int | None = None) -> ReductionParams:
    """Derive the full schedule from (epsilon, delta, H_bound) and the sizes.

    The sample size defaults to ceil(C_TILDE * H * eps^-3 * ln(SA/(eps delta)))
    unless n_override pins it; xi carries the factor C_P.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if not 1.0 <= H_bound < math.inf:
        raise ValueError(f"H_bound must be finite and at least 1, got {H_bound}")
    gamma = 1.0 - epsilon / (12.0 * H_bound)
    eps_gamma = epsilon / (12.0 * (1.0 - gamma))
    xi = C_P * (1.0 - gamma) * eps_gamma / (num_states**5 * num_actions**5)
    if n_override is not None:
        if n_override < 1:
            raise ValueError(f"N (samples per pair) must be at least 1, got {n_override}")
        n = int(n_override)
    else:
        n = math.ceil(C_TILDE * H_bound * epsilon**-3
                      * math.log(num_states * num_actions / (epsilon * delta)))
    return ReductionParams(epsilon=epsilon, delta=delta, H_bound=H_bound,
                           gamma=gamma, eps_gamma=eps_gamma, xi=xi, n_per_pair=n)


def algorithm1(gm: GenerativeModel, params: ReductionParams) -> DeterministicPolicy:
    """Algorithm 1 on one model: the exact discounted-optimal policy of its
    perturbed empirical MDP, _plan of one _sample."""
    return DeterministicPolicy(_plan([_sample(gm, params)], params.gamma)[0])


def _sample(gm: GenerativeModel, params: ReductionParams) -> TabularMdp:
    """Algorithm 1's sampling half: the perturbed-reward empirical MDP."""
    r_p = perturb_rewards(gm.rewards, params.xi, gm.seed_spec.reward_seed())
    return build_empirical(gm, params.n_per_pair, r_p)


def _plan(emps: list[TabularMdp], gamma: float) -> np.ndarray:
    """Algorithm 1's planning half: the optimal actions (K, S) of K
    same-shape models, from one policy iteration over their stack."""
    Q = solvers._dmdp_optimal_q(np.stack([e.transitions for e in emps]),
                                np.stack([e.rewards for e in emps]), gamma)
    return np.argmax(Q, axis=-1)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """One checked inequality: passed iff lhs <= rhs + tolerance."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    instance_id: str


def _certificate(name: str, lhs: float, rhs: float, tolerance: float,
                 instance_id: str) -> Certificate:
    return Certificate(name=name, lhs=float(lhs), rhs=float(rhs),
                       tolerance=tolerance, passed=bool(lhs <= rhs + tolerance),
                       instance_id=instance_id)


def gamma_for_accuracy(epsilon: float, H: float) -> float:
    """Discount 1 - epsilon / H, guarded for tiny bias spans.

    When H <= epsilon that expression leaves (0, 1); gamma = 1/2 keeps every
    certified span bound valid there, since 4 (1-gamma) H <= 2 H <= 2 eps.
    """
    if H > epsilon:
        return 1.0 - epsilon / H
    return 0.5


#: last step T of the finite-horizon span bound and identity
HORIZON = 200


def _gain_gap(name, gain, scaled, tolerance, instance_id) -> Certificate:
    """||gain - scaled||_inf <= sp(scaled), scaled a (1-gamma) V_gamma."""
    return _certificate(name, float(np.max(np.abs(gain - scaled))), span(scaled),
                        tolerance, instance_id)


def _calibrated(m: TabularMdp, epsilon: float, opt: AmdpOptimum):
    """(gamma, V*_gamma, its greedy policy, V^{pi*}_gamma) at the calibrated
    gamma = gamma_for_accuracy(epsilon, H), pi* = opt.policy."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    gamma = gamma_for_accuracy(epsilon, opt.H)
    _, V_star, pi_hat = dmdp_policy_iteration(m, gamma)
    return gamma, V_star, pi_hat, dmdp_policy_value(m, opt.policy, gamma)


def _policy_horizon(m: TabularMdp, pi: DeterministicPolicy,
                    gb: GainBias | None = None):
    """(chain, gain/bias, iterates V_1..V_HORIZON) of one policy; gb, when
    given, is its gain/bias."""
    chain = induce_chain(m, pi)
    return (chain, chain_gain_bias(chain) if gb is None else gb,
            horizon_iterates(chain.matrix, chain.reward, HORIZON))


def _span_bounds(epsilon, calibrated, gb, V, instance_id) -> list[Certificate]:
    gamma, V_star, _, V_pi = calibrated
    return [
        _certificate("optimal_value_span", span((1.0 - gamma) * V_star),
                     4.0 * epsilon, 1e-7, instance_id),
        _certificate("optimal_policy_value_span", span((1.0 - gamma) * V_pi),
                     4.0 * epsilon, 1e-7, instance_id),
        _certificate("finite_horizon_span", float(np.max(V.max(axis=1) - V.min(axis=1))),
                     2.0 * span(gb.bias), 1e-7, instance_id),
    ]


def _horizon_identity(chain, gb, V, instance_id) -> Certificate:
    propagated = _power_iterates(chain.matrix, gb.bias, len(V))  # P^T bias
    predicted = np.arange(1, len(V) + 1)[:, None] * gb.gain + gb.bias - propagated
    return _certificate("finite_horizon_identity",
                        float(np.max(np.abs(V - predicted))), 0.0, 1e-8, instance_id)


def _reduction_links(m, epsilon, eps_gamma, calibrated, opt, instance_id):
    gamma, V_star, pi_hat, V_opt_pi = calibrated
    V_hat = V_star
    if eps_gamma > 0.0:  # the eps_gamma-accurate solve the argument allows
        _, _, pi_hat = dmdp_value_iteration(m, gamma, eps_gamma)
        V_hat = dmdp_policy_value(m, pi_hat, gamma)
    rho_hat = (opt.gain if np.array_equal(pi_hat.actions, opt.policy.actions)
               else amdp_gain_bias(m, pi_hat).gain)

    scale, tol = 1.0 - gamma, 1e-6
    return [
        _gain_gap("link_gain_gap_at_optimal_policy", opt.gain, scale * V_opt_pi,
                  tol, instance_id),
        _certificate("link_optimal_policy_value_span", span(scale * V_opt_pi),
                     4.0 * epsilon, tol, instance_id),
        _certificate("link_optimal_value_span", span(scale * V_star),
                     4.0 * epsilon, tol, instance_id),
        _certificate("link_policy_dominance",
                     float(np.max(V_opt_pi - V_star)), 0.0, tol, instance_id),
        _certificate("link_solver_accuracy", float(np.max(np.abs(V_star - V_hat))),
                     eps_gamma, tol, instance_id),
        _certificate("link_span_passing", span(scale * V_hat),
                     span(scale * V_star) + 2.0 * scale * eps_gamma, tol, instance_id),
        _gain_gap("link_gain_gap_at_solved_policy", rho_hat, scale * V_hat, tol,
                  instance_id),
        _certificate("reduction_bound",
                     float(np.max(opt.gain)) - float(np.min(rho_hat)),
                     8.0 * epsilon + 3.0 * scale * eps_gamma, tol, instance_id),
    ]


def _parameter_bounds(H, D, t_mix, instance_id) -> list[Certificate]:
    """H <= D, and H <= 8 t_mix when t_mix is finite (None: not computed)."""
    certs = [_certificate("bias_span_le_diameter", H, D, 1e-6, instance_id)]
    if t_mix is not None and math.isfinite(t_mix):
        certs.append(_certificate("bias_span_le_mixing", H, 8.0 * t_mix, 1e-6,
                                  instance_id))
    return certs


def certify_gain_discount_gap(m: TabularMdp, pi: DeterministicPolicy, gamma: float,
                              instance_id: str = "") -> Certificate:
    """Check ||gain - (1-gamma) V_gamma||_inf <= sp((1-gamma) V_gamma) for
    one policy at one discount."""
    return _discount_gap(m, pi, amdp_gain_bias(m, pi).gain, gamma, instance_id)


def _discount_gap(m, pi, gain, gamma, instance_id) -> Certificate:
    return _gain_gap("gain_discount_gap", gain,
                     (1.0 - gamma) * dmdp_policy_value(m, pi, gamma), 1e-8,
                     instance_id)


def certify_span_bounds(m: TabularMdp, epsilon: float, instance_id: str = "",
                        opt: AmdpOptimum | None = None) -> list[Certificate]:
    """Span bounds behind the reduction, at gamma = 1 - epsilon / H:

      * sp((1-gamma) V*_gamma)            <= 4 epsilon
      * sp((1-gamma) V^{pi*}_gamma)       <= 4 epsilon
      * max_{T <= HORIZON} sp(V_T^{pi*})  <= 2 sp(bias of pi*)
    """
    if opt is None:
        opt = amdp_optimal(m)
    _, gb, V = _policy_horizon(m, opt.policy, GainBias(opt.gain, opt.bias))
    return _span_bounds(epsilon, _calibrated(m, epsilon, opt), gb, V, instance_id)


def certify_finite_horizon_identity(m: TabularMdp, pi: DeterministicPolicy,
                                    instance_id: str = "") -> Certificate:
    """Check V_T = T gain + bias - P^T bias for all T up to HORIZON; the
    certificate carries the worst residual."""
    return _horizon_identity(*_policy_horizon(m, pi), instance_id)


def reduction_chain_certificates(m: TabularMdp, epsilon: float,
                                 eps_gamma: float, instance_id: str = "",
                                 opt: AmdpOptimum | None = None) -> list[Certificate]:
    """Link-by-link check of the reduction argument at one (epsilon,
    eps_gamma) pair, ending with the headline bound
    rho* - min_s rho^{pi_hat}(s) <= 8 epsilon + 3 (1-gamma) eps_gamma.

    pi_hat is the exact discounted optimum when eps_gamma is 0, and the
    greedy policy of a Q-value iteration run to accuracy eps_gamma
    otherwise."""
    if opt is None:
        opt = amdp_optimal(m)
    return _reduction_links(m, epsilon, eps_gamma, _calibrated(m, epsilon, opt),
                            opt, instance_id)


def certify_reduction_bound(m: TabularMdp, epsilon: float, eps_gamma: float,
                            instance_id: str = "",
                            opt: AmdpOptimum | None = None) -> Certificate:
    """The headline reduction certificate alone; see
    reduction_chain_certificates for the full argument."""
    return reduction_chain_certificates(m, epsilon, eps_gamma, instance_id, opt)[-1]


def certify_instance(m: TabularMdp, epsilon: float,
                     instance_id: str) -> list[Certificate]:
    """The certify command's certificates of one instance, in order.  D, t_mix
    and pi* (with its own gain/bias) come from one analysis, and the
    calibrated discounted solve and pi*'s horizon iterates are computed once
    and shared."""
    D, t_mix, opt = _analysis(m)
    calibrated = _calibrated(m, epsilon, opt)
    chain, gb, V = _policy_horizon(m, opt.policy, GainBias(opt.gain, opt.bias))
    return [
        _discount_gap(m, opt.policy, opt.gain, 0.9, instance_id),
        *_span_bounds(epsilon, calibrated, gb, V, instance_id),
        _horizon_identity(chain, gb, V, instance_id),
        _reduction_links(m, epsilon, 0.0, calibrated, opt, instance_id)[-1],
        *_parameter_bounds(opt.H, D, t_mix, instance_id),
    ]


# ---------------------------------------------------------------------------
# sampled trials


@dataclass(frozen=True)
class TrialRecord:
    """One sampled run: the seed it used, the exact optimality gap of the
    returned policy on the ground truth, and its sampling time plus an equal
    share of its batch's solve (measured, so left out of comparisons)."""

    seed: int
    gap: float
    wallclock_ms: int = field(compare=False)


def empirical_error(gm: GenerativeModel, params: ReductionParams,
                    trials: int, opt: AmdpOptimum | None = None) -> list[TrialRecord]:
    """Run the sampled reduction once per derived trial seed and record the
    exact gap rho* - min_s rho^{pi_hat}(s) for each run, in trial order.

    The trial models share gm's per-pair tables and one seed-word pass
    (generative._models).  The trials _sample one after another on this
    thread, each at a cost that does not grow with n_per_pair; one _plan
    solves all trials, and one batched gain evaluation on the hidden truth
    (never the samples) gives the gaps, with the bits of algorithm1 run
    once per trial.
    """
    if trials < 1:
        return []
    truth = gm._truth  # harness-side exact evaluation, not a consumer path
    if opt is None:
        opt = amdp_optimal(truth)
    rho_star = float(np.max(opt.gain))
    seeds = [gm.seed_spec.trial_seed(trial) for trial in range(trials)]

    def sample(model: GenerativeModel):  # (empirical MDP, seconds it took)
        start = time.perf_counter()
        return _sample(model, params), time.perf_counter() - start

    emps, seconds = zip(*map(sample, generative._models(gm, seeds)))
    start = time.perf_counter()
    P_pi, r_pi = chains.induced_chain_batch(truth, _plan(emps, params.gamma))
    gains = solvers._gain_bias(P_pi, r_pi, *chains._structure_masks(P_pi > 0)).gain
    share = (time.perf_counter() - start) / trials
    return [TrialRecord(seed=seed, gap=rho_star - float(np.min(gain)),
                        wallclock_ms=int(round(1000.0 * (own + share))))
            for seed, gain, own in zip(seeds, gains, seconds)]


# ---------------------------------------------------------------------------
# serialization


def format_number(x: float) -> str:
    """Render a value with 12 significant digits (file precision)."""
    return f"{x:.12g}"


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a header and rows to path as CSV, comma separated with LF line
    endings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_certificates_csv(certs: list[Certificate], path: str | Path) -> None:
    """Write certificates as CSV with columns instance_id, name, lhs, rhs,
    tolerance, passed; comma separated, LF line endings."""
    _write_csv(path, ["instance_id", "name", "lhs", "rhs", "tolerance", "passed"],
               ([c.instance_id, c.name, format_number(c.lhs), format_number(c.rhs),
                 format_number(c.tolerance), str(c.passed).lower()]
                for c in certs))


def _write_json(path: str | Path, payload) -> None:
    """Write a JSON payload (dicts, lists and scalars) as strict JSON, indented
    by one space, every float at file precision (format_number); a non-finite
    float raises ValueError.  Every result file in JSON goes through here;
    MDP and policy files keep full precision (mdp.write_mdp, write_policy)."""
    def render(obj):
        if isinstance(obj, float):
            return float(format_number(obj))
        if isinstance(obj, (list, tuple)):
            return [render(x) for x in obj]
        if isinstance(obj, dict):
            return {k: render(v) for k, v in obj.items()}
        return obj

    Path(path).write_text(json.dumps(render(payload), indent=1, allow_nan=False) + "\n")


def write_certificates_report(certs: list[Certificate], path: str | Path) -> None:
    """The summary of the certificates CSV, the one per-certificate record, as
    JSON: {"total", "passed", "failed": [{instance_id, name}]} in CSV order."""
    failed = [{"instance_id": c.instance_id, "name": c.name}
              for c in certs if not c.passed]
    _write_json(path, {"total": len(certs), "passed": len(certs) - len(failed),
                       "failed": failed})
