"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line (also echoed in the terminal summary).

The random corpus is 1000 seeded weakly-communicating MDPs with at most 6
states and 4 actions; hard instances cover both admissible shapes at
D = 32, eps = 1/32.
"""

import csv
import math
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import amdp_lab as lab
from amdp_lab.corpus import standard_corpus
from amdp_lab.hard_instances import HardInstanceSpec
from amdp_lab.cli import main
from amdp_lab.reduction import write_certificates_csv
from oracles import (cesaro_bias, cesaro_gain, enumerated_optimum, relative_vi_optimum,
                     whole_policy_batch)

RESULTS: list[str] = []

CORPUS_SEED = 7
CORPUS_SIZE = 1000
GAMMAS = (0.5, 0.9, 0.99)
EPSILONS = (0.5, 0.1)
HARD_EPS = 1.0 / 32.0

_corpus_cache = None
_opt_cache: dict[str, lab.AmdpOptimum] = {}
_span_cache: dict[tuple[str, float], list] = {}
_stash: dict[str, bytes] = {}


def note(num: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'} {name}"
    if detail:
        line += f" [{detail}]"
    RESULTS.append(line)
    print(line)


def corpus():
    global _corpus_cache
    if _corpus_cache is None:
        _corpus_cache = list(standard_corpus(
            count=CORPUS_SIZE, max_states=6, max_actions=4,
            master_seed=CORPUS_SEED))
    return _corpus_cache


def optimum(instance_id: str, m: lab.TabularMdp,
            fresh: bool = False) -> lab.AmdpOptimum:
    opt = None if fresh else _opt_cache.get(instance_id)
    if opt is None:
        opt = lab.amdp_optimal(m)
        _opt_cache[instance_id] = opt
    return opt


def span_certs(instance_id: str, m: lab.TabularMdp, eps: float):
    key = (instance_id, eps)
    if key not in _span_cache:
        _span_cache[key] = lab.certify_span_bounds(
            m, eps, instance_id, opt=optimum(instance_id, m))
    return _span_cache[key]


def hard_instances():
    out = []
    for S, A in ((6, 3), (14, 4)):
        base = HardInstanceSpec(S=S, A=A, D=32, epsilon=HARD_EPS)
        for variant in ("M0", "M1"):
            spec = HardInstanceSpec(S=S, A=A, D=32, epsilon=HARD_EPS,
                                    variant=variant)
            out.append((f"{variant}_S{S}", lab.hard_instance(spec)))
        for k in range(1, base.K + 1):
            for l in range(2, base.A_prime + 1):
                spec = HardInstanceSpec(S=S, A=A, D=32, epsilon=HARD_EPS,
                                        variant="MKL", k=k, l=l)
                out.append((f"MKL_S{S}_k{k}_l{l}", lab.hard_instance(spec)))
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_gain_discount_gap():
    start = time.perf_counter()
    violations = 0
    checked = 0
    for idx, (instance_id, m) in enumerate(corpus()):
        rng = np.random.Generator(np.random.PCG64(1000 + idx))
        pi = lab.DeterministicPolicy(rng.integers(0, m.num_actions, size=m.num_states))
        for gamma in GAMMAS:
            cert = lab.certify_gain_discount_gap(m, pi, gamma, instance_id)
            checked += 1
            if not cert.passed:
                violations += 1
    elapsed = time.perf_counter() - start
    passed = violations == 0 and elapsed <= 120.0
    note(1, "gain-vs-discounted-value gap bound", passed,
         f"{checked} checks, {violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed <= 120.0


def test_criterion_2_span_bounds():
    failures = []
    checked = 0
    for instance_id, m in corpus() + hard_instances():
        for eps in EPSILONS:
            for cert in span_certs(instance_id, m, eps)[:2]:
                checked += 1
                if not cert.passed:
                    failures.append((instance_id, eps, cert.name))
    note(2, "optimal-value span bounds at calibrated discount",
         not failures, f"{checked} checks, {len(failures)} violations")
    assert not failures, failures[:5]


def test_criterion_3_finite_horizon_bounds():
    failures = []
    for instance_id, m in corpus():
        cert = span_certs(instance_id, m, EPSILONS[0])[2]
        if not cert.passed:
            failures.append((instance_id, "finite_horizon_span"))
        opt = optimum(instance_id, m)
        ident = lab.certify_finite_horizon_identity(m, opt.policy, instance_id)
        if not ident.passed:
            failures.append((instance_id, "finite_horizon_identity"))
    note(3, "finite-horizon span bound and decomposition identity",
         not failures, f"{2 * len(corpus())} checks, {len(failures)} violations")
    assert not failures, failures[:5]


def test_criterion_4_reduction_chain():
    failures = []
    checked = 0
    for instance_id, m in corpus():
        opt = optimum(instance_id, m)
        for eps in EPSILONS:
            for eps_gamma in (0.0, opt.H):
                certs = lab.reduction_chain_certificates(
                    m, eps, eps_gamma, instance_id, opt=opt)
                checked += len(certs)
                failures.extend((instance_id, eps, eps_gamma, c.name)
                                for c in certs if not c.passed)
    note(4, "reduction bound with link-by-link proof chain",
         not failures, f"{checked} link checks, {len(failures)} violations")
    assert not failures, failures[:5]


def test_criterion_5_parameter_order():
    failures = []
    for instance_id, m in corpus():
        H = optimum(instance_id, m).H
        D = lab.diameter(m)
        if not (math.isinf(D) or H <= D + 1e-6):
            failures.append((instance_id, "H<=D", H, D))
        t_mix = lab.mixing_time(m)
        if math.isfinite(t_mix) and H > 8.0 * t_mix + 1e-6:
            failures.append((instance_id, "H<=8tmix", H, t_mix))

    cycle = lab.two_state_cycle()
    cyc_D, cyc_t_mix, cyc_H = (lab.diameter(cycle), lab.mixing_time(cycle),
                               lab.amdp_optimal(cycle).H)
    if not (cyc_D == pytest.approx(1.0, abs=1e-9) and math.isinf(cyc_t_mix)
            and cyc_H == pytest.approx(0.5, abs=1e-9)):
        failures.append(("cycle", cyc_D, cyc_t_mix, cyc_H))
    if lab.mixing_time(lab.two_state_slow_chain(100)) != 1.0:
        failures.append(("slow_chain_100", "t_mix != 1"))
    seq = []
    for tau in (0.25, 0.1, 0.01):
        lazy = lab.aperiodicity_transform(cycle, tau)
        t_mix = lab.mixing_time(lazy)
        seq.append(t_mix)
        if not (math.isfinite(t_mix) and lab.diameter(lazy) <= 2.0 + 1e-9):
            failures.append((f"lazy_{tau}", t_mix))
    if not (seq[0] < seq[1] < seq[2]):
        failures.append(("lazy_sequence_not_increasing", seq))

    note(5, "parameter order H <= D and H <= 8 t_mix, canonical chains",
         not failures, f"lazy-cycle t_mix sequence {seq}")
    assert not failures, failures[:5]


def _hard_instance_certificates(fresh: bool = False) -> list[lab.Certificate]:
    """Criterion-6 checks expressed as certificates (also the determinism
    payload for criterion 8, which recomputes everything from scratch)."""
    from amdp_lab.reduction import _certificate

    certs = []
    for S, A in ((6, 3), (14, 4)):
        spec1 = HardInstanceSpec(S=S, A=A, D=32, epsilon=HARD_EPS, variant="M1")
        m1 = lab.hard_instance(spec1)
        iid1 = f"M1_S{S}"
        opt1 = optimum(iid1, m1, fresh=fresh)
        certs.append(_certificate(f"gain_matches_closed_form",
                                  abs(float(np.max(opt1.gain)) - 5.0 / 9.0),
                                  0.0, 1e-10, iid1))
        x_states = m1.metadata["x_states"]
        best_is_first = all(opt1.policy.actions[x] == 0 for x in x_states)
        certs.append(_certificate("optimal_action_is_first_component_action",
                                  0.0 if best_is_first else 1.0, 0.0, 0.0, iid1))
        # component-local uniqueness: the first action's stationary gain beats
        # every other component action by more than eps
        gain_first = lab.closed_form_component_gain(
            1.0 / spec1.D_prime, (1 + 8 * HARD_EPS) / spec1.D_prime)
        gain_other = lab.closed_form_component_gain(
            (1 + 8 * HARD_EPS) / spec1.D_prime, (1 + 8 * HARD_EPS) / spec1.D_prime)
        certs.append(_certificate("component_action_margin_exceeds_eps",
                                  HARD_EPS, gain_first - gain_other, 0.0, iid1))
        certs.append(_certificate("diameter_bound", lab.diameter(m1), 32.0,
                                  1e-9, iid1))
        certs.append(_certificate("diameter_bound",
                                  lab.diameter(lab.hard_instance(
                                      HardInstanceSpec(S=S, A=A, D=32,
                                                       epsilon=HARD_EPS))),
                                  32.0, 1e-9, f"M0_S{S}"))
        for k in range(1, spec1.K + 1):
            for l in range(2, spec1.A_prime + 1):
                mkl = lab.hard_instance(replace(spec1, variant="MKL", k=k, l=l))
                iid = f"MKL_S{S}_k{k}_l{l}"
                opt = optimum(iid, mkl, fresh=fresh)
                certs.append(_certificate("gain_matches_closed_form",
                                          abs(float(np.max(opt.gain)) - 0.625),
                                          0.0, 1e-10, iid))
                x = mkl.metadata["x_states"][k - 1]
                right_action = opt.policy.actions[x] == l - 1
                certs.append(_certificate("optimal_action_is_distinguished",
                                          0.0 if right_action else 1.0, 0.0,
                                          0.0, iid))
                diff = np.argwhere(np.any(mkl.transitions != m1.transitions,
                                          axis=2))
                one_row = diff.shape == (1, 2) and diff[0][0] == x \
                    and diff[0][1] == l - 1
                certs.append(_certificate("differs_from_baseline_in_one_row",
                                          0.0 if one_row else 1.0, 0.0, 0.0, iid))
                certs.append(_certificate("diameter_bound", lab.diameter(mkl),
                                          32.0, 1e-9, iid))
    return certs


def _certs_csv_bytes(certs) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "certificates.csv"
        write_certificates_csv(certs, path)
        return path.read_bytes()


def test_criterion_6_hard_instances():
    certs = _hard_instance_certificates()
    failures = [(c.instance_id, c.name) for c in certs if not c.passed]
    _stash["hard_csv"] = _certs_csv_bytes(certs)
    note(6, "hard-instance family correctness", not failures,
         f"{len(certs)} checks across both shapes")
    assert not failures, failures


M1_S6 = HardInstanceSpec(S=6, A=3, D=32, epsilon=HARD_EPS, variant="M1")


def _monte_carlo_run():
    truth = lab.hard_instance(M1_S6)
    opt = optimum("M1_S6", truth)
    H = max(opt.H, 1.0)
    params = lab.reduction_params(0.25, 0.05, H, truth.num_states,
                                  truth.num_actions, n_override=20_000)
    records = lab.empirical_error(lab.GenerativeModel(truth, 20250809), params,
                                  100, opt=opt)
    medians = []
    for n in (100, 1000, 10_000):
        p = lab.reduction_params(0.25, 0.05, H, truth.num_states,
                                 truth.num_actions, n_override=n)
        recs = lab.empirical_error(lab.GenerativeModel(truth, 31337), p, 30,
                                   opt=opt)
        medians.append(float(np.median([r.gap for r in recs])))
    return records, medians


def test_criterion_7_monte_carlo():
    start = time.perf_counter()
    records, medians = _monte_carlo_run()
    elapsed = time.perf_counter() - start
    successes = sum(1 for r in records if r.gap <= 0.25)
    monotone = medians[0] >= medians[1] >= medians[2]
    passed = successes >= 95 and monotone and elapsed <= 600.0
    note(7, "sampled-reduction accuracy at desk scale", passed,
         f"{successes}/100 within eps, medians {medians}, {elapsed:.1f}s")
    assert successes >= 95
    assert monotone, medians
    assert elapsed <= 600.0


def _experiment_rows(mdp_path, out) -> list[list[str]]:
    """experiment.csv of one `amdp-lab experiment` run on M1_S6 at N = 20000,
    less its measured wallclock_ms column."""
    assert main(["experiment", "--mdp", str(mdp_path), "--N", "20000",
                 "--trials", "100", "--seed", "20250809", "--epsilon", "0.25",
                 "--H", "oracle", "--out", str(out)]) == 0
    with open(out / "experiment.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    i = rows[0].index("wallclock_ms")
    return [row[:i] + row[i + 1:] for row in rows]


def test_criterion_8_determinism(tmp_path):
    hard_identical = _stash.get("hard_csv") == _certs_csv_bytes(
        _hard_instance_certificates(fresh=True))

    mdp_path = tmp_path / "M1_S6.json"
    lab.write_mdp(lab.hard_instance(M1_S6), mdp_path)
    first = _experiment_rows(mdp_path, tmp_path / "first")
    trials_identical = len(first) == 101 and first == _experiment_rows(
        mdp_path, tmp_path / "second")

    note(8, "byte-identical reruns of hard-instance and trial CSVs",
         hard_identical and trials_identical,
         f"hard={hard_identical}, trials={trials_identical}")
    assert hard_identical
    assert trials_identical


def test_criterion_9_oracle_cross_validation():
    failures = []
    for instance_id, m in corpus():
        o1 = optimum(instance_id, m)
        o2 = relative_vi_optimum(m)
        if abs(float(np.max(o1.gain)) - float(np.max(o2.gain))) > 1e-8:
            failures.append((instance_id, "gain", float(np.max(o1.gain)),
                             float(np.max(o2.gain))))
        if abs(o1.H - o2.H) > 1e-6:
            failures.append((instance_id, "H", o1.H, o2.H))
        # the enumeration oracle: exact, so held to 1e-12
        enum = enumerated_optimum(m, whole_policy_batch(m))
        if np.max(np.abs(o1.gain - enum.gain)) > 1e-12:
            failures.append((instance_id, "enumerated gain"))
        if np.max(np.abs(o1.bias - enum.bias)) > 1e-12 * max(1.0, enum.H):
            failures.append((instance_id, "enumerated bias", o1.H, enum.H))

    # Cesaro-average oracle for the bias, on the cycle (with the hand-exact
    # gain 1/2) and on five random corpus instances
    cycle = lab.two_state_cycle()
    pi = lab.DeterministicPolicy(np.array([0, 0]))
    chain = lab.induce_chain(cycle, pi)
    gb = lab.amdp_gain_bias(cycle, pi)
    oracle = cesaro_bias(chain.matrix, chain.reward, 0.5, N=100_000)
    if np.max(np.abs(oracle - gb.bias)) > 1e-4:
        failures.append(("cycle", "cesaro"))
    if np.max(np.abs(cesaro_gain(chain.matrix, chain.reward, 100_000) - gb.gain)) > 1e-4:
        failures.append(("cycle", "cesaro-gain"))
    for idx, (instance_id, m) in enumerate(corpus()[:5]):
        rng = np.random.Generator(np.random.PCG64(555 + idx))
        pi = lab.DeterministicPolicy(rng.integers(0, m.num_actions, size=m.num_states))
        chain = lab.induce_chain(m, pi)
        gb = lab.amdp_gain_bias(m, pi)
        oracle = cesaro_bias(chain.matrix, chain.reward, gb.gain, N=50_000)
        if np.max(np.abs(oracle - gb.bias)) > 1e-4:
            failures.append((instance_id, "cesaro"))

    note(9, "policy iteration vs relative-VI and enumeration agreement and "
         "Cesaro bias oracle", not failures,
         f"{2 * len(corpus())} cross-method checks")
    assert not failures, failures[:5]
