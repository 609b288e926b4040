"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints exactly one pass/fail
line (visible under pytest -s or in the captured output of a failure)
and then asserts. Seeds are fixed so every run sees the same panels.
"""

import math
import time

import numpy as np

from votebounds import (
    ExpertPanel,
    ProductBernoulli,
    bhattacharyya,
    build_rule,
    counterexample_sweep,
    estimate_min_mass,
    fold_bias,
    full_report,
    lower_bound,
    min_mass,
    optimal_error,
    simulate_error,
    symmetric_lower_bound,
    upper_bound,
)
from votebounds.bounds import _envelopes

import oracles


def _report(num, name, conditions, elapsed):
    ok = all(flag for flag, _ in conditions)
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} ({elapsed * 1e3:.2f} ms)")
    failed = [label for flag, label in conditions if not flag]
    assert ok, f"criterion {num} failed: {failed}"


def _timed(fn, repeats=1):
    best = math.inf
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return out, best


def test_criterion_01_asymmetric_counterexample_exactness():
    grid = (0.3, 0.1, 0.01)

    def run():
        vals = []
        for eps in grid:
            p = ProductBernoulli([1.0, 0.0])
            q = ProductBernoulli([eps, 1.0 - eps])
            vals.append(min_mass(p, q))
        return vals

    run()
    vals, elapsed = _timed(run, repeats=3)
    conditions = [
        (abs(v - eps * eps) <= 1e-12, f"overlap at eps={eps}")
        for v, eps in zip(vals, grid)
    ]
    conditions.append((elapsed < 1e-3, f"runtime {elapsed:.6f}s < 1 ms"))
    _report(1, "asymmetric pair overlap equals eps^2", conditions, elapsed)


def test_criterion_02_symmetric_counterexample_exactness():
    grid = (0.3, 0.1, 0.01)

    def run():
        vals = []
        for eps in grid:
            p = ProductBernoulli([eps, eps])
            q = ProductBernoulli([1.0 - eps, 1.0 - eps])
            vals.append(min_mass(p, q))
        return vals

    run()
    vals, elapsed = _timed(run, repeats=3)
    conditions = [
        (abs(v - 2.0 * eps) <= 1e-12, f"overlap at eps={eps}")
        for v, eps in zip(vals, grid)
    ]
    conditions.append((elapsed < 1e-3, f"runtime {elapsed:.6f}s < 1 ms"))
    _report(2, "matched weak pair overlap equals 2 eps", conditions, elapsed)


def test_criterion_03_divergence_directions():
    grid = [0.1, 0.01, 0.001]

    def run():
        asym = counterexample_sweep("asym", grid)
        sym = counterexample_sweep("sym", grid)
        return [r.ratio for r in asym], [r.ratio for r in sym]

    run()
    (asym_ratios, sym_ratios), elapsed = _timed(run, repeats=3)
    conditions = [
        (asym_ratios[0] < asym_ratios[1] < asym_ratios[2],
         "asym ratio strictly increases as eps shrinks"),
        (sym_ratios[0] > sym_ratios[1] > sym_ratios[2],
         "sym ratio strictly decreases as eps shrinks"),
        (elapsed < 1e-3, f"runtime {elapsed:.6f}s < 1 ms"),
    ]
    _report(3, "candidate-to-overlap ratios diverge the right way",
            conditions, elapsed)


def test_criterion_04_uninformative_panel():
    def run():
        quads = []
        for n in range(1, 9):
            panel = ExpertPanel(psi=np.full(n, 0.5), eta=np.full(n, 0.5))
            quads.append((
                optimal_error(panel),
                upper_bound(panel),
                lower_bound(panel),
                symmetric_lower_bound(panel),
            ))
        return quads

    run()
    quads, elapsed = _timed(run, repeats=3)
    conditions = []
    for n, quad in zip(range(1, 9), quads):
        for label, v in zip(("exact", "upper", "lower", "symmetric lower"), quad):
            conditions.append((abs(v - 0.5) <= 1e-12, f"{label} at n={n}"))
    conditions.append((elapsed < 1e-2, f"runtime {elapsed:.6f}s < 10 ms"))
    _report(4, "all quantities equal one half on coin-flip panels",
            conditions, elapsed)


def test_criterion_05_sandwich_property():
    rng = np.random.default_rng(20260822)

    def run():
        worst_low = math.inf
        worst_high = math.inf
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            p_y = float(rng.choice([0.5, 0.7]))
            panel = oracles.random_panel(rng, n, low=0.01, high=0.99, p_y=p_y)
            folded = fold_bias(panel)
            err = optimal_error(panel)
            worst_low = min(worst_low, err - lower_bound(folded))
            worst_high = min(worst_high, upper_bound(folded) - err)
        return worst_low, worst_high

    start = time.perf_counter()
    (worst_low, worst_high) = run()
    elapsed = time.perf_counter() - start
    conditions = [
        (worst_low >= -1e-9, f"lower bound slack {worst_low:.3e}"),
        (worst_high >= -1e-9, f"upper bound slack {worst_high:.3e}"),
        (elapsed < 30.0, f"runtime {elapsed:.2f}s < 30 s"),
    ]
    _report(5, "bounds sandwich the exact error on 1000 panels",
            conditions, elapsed)


def test_criterion_06_optimality_oracle():
    rng = np.random.default_rng(603)

    def run():
        worst = math.inf
        checked = 0
        while checked < 200:
            n = int(rng.integers(1, 4))
            p_y = float(rng.choice([0.5, 0.5, 0.3, 0.7]))
            panel = oracles.random_panel(rng, n, low=0.05, high=0.95, p_y=p_y)
            if oracles.min_score_margin(panel, build_rule) < 1e-6:
                continue
            rule = build_rule(panel)
            built = oracles.rule_risk(panel, rule.decide)
            best = oracles.best_rule_risk(panel)
            worst = min(worst, best - built + 1e-12)
            checked += 1
        return worst

    start = time.perf_counter()
    worst = run()
    elapsed = time.perf_counter() - start
    conditions = [
        (worst >= 0.0, f"no rule beats the built rule (margin {worst:.3e})"),
        (elapsed < 10.0, f"runtime {elapsed:.2f}s < 10 s"),
    ]
    _report(6, "exhaustive rule search never beats the weighted vote",
            conditions, elapsed)


def test_criterion_07_half_min_mass_consistency():
    rng = np.random.default_rng(707)

    def run():
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 11))
            panel = oracles.random_panel(rng, n, low=0.0, high=1.0)
            rule = build_rule(panel)
            direct = oracles.rule_risk(panel, rule.decide)
            half = 0.5 * min_mass(panel.law_given_one(), panel.law_given_zero())
            worst = max(worst, abs(direct - half))
        return worst

    start = time.perf_counter()
    worst = run()
    elapsed = time.perf_counter() - start
    conditions = [
        (worst <= 1e-12, f"max |direct - half overlap| = {worst:.3e}"),
        (elapsed < 10.0, f"runtime {elapsed:.2f}s < 10 s"),
    ]
    _report(7, "rule error equals half the overlap on 200 panels",
            conditions, elapsed)


def test_criterion_08_identity_suite():
    rng = np.random.default_rng(808)

    def run():
        hell_ok = True
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            p = ProductBernoulli(rng.uniform(0.0, 1.0, n))
            q = ProductBernoulli(rng.uniform(0.0, 1.0, n))
            lower, upper = _envelopes(p, q)
            bc = bhattacharyya(p, q)
            hell_ok &= lower <= bc + 1e-12 and bc <= upper + 1e-12

        comp_ok = True
        for _ in range(100):
            n = int(rng.integers(1, 9))
            psi = ProductBernoulli(rng.uniform(0.0, 1.0, n))
            eta = ProductBernoulli(rng.uniform(0.0, 1.0, n))
            for r in (1.0, 2.0, math.inf):
                a, b = oracles.complement_symmetry_check(psi, eta, r)
                comp_ok &= abs(a - b) <= 1e-12

        tens_ok = True
        for _ in range(100):
            p = ProductBernoulli(rng.uniform(0.0, 1.0, int(rng.integers(1, 4))))
            p2 = ProductBernoulli(rng.uniform(0.0, 1.0, p.n))
            q = ProductBernoulli(rng.uniform(0.0, 1.0, int(rng.integers(1, 4))))
            q2 = ProductBernoulli(rng.uniform(0.0, 1.0, q.n))
            tens_ok &= oracles.tensorization_gap(p, p2, q, q2) >= -1e-12

        ident_ok = True
        for u, v in rng.uniform(1e-9, 1.0, (10_000, 2)):
            ident_ok &= abs(oracles.min_identity(u, v) - min(u, v)) <= 1e-12 * min(u, v)

        gap_ok = True
        for s, t in rng.uniform(0.0, 1.0, (10_000, 2)):
            gap_ok &= oracles.balanced_min_inequality_gap(s, t) >= -1e-12

        return hell_ok, comp_ok, tens_ok, ident_ok, gap_ok

    start = time.perf_counter()
    hell_ok, comp_ok, tens_ok, ident_ok, gap_ok = run()
    elapsed = time.perf_counter() - start
    conditions = [
        (hell_ok, "envelopes bracket the affinity"),
        (comp_ok, "complement symmetry r in {1,2,inf}"),
        (tens_ok, "tensorization gap nonnegative"),
        (ident_ok, "min identity sweep"),
        (gap_ok, "balanced min inequality sweep"),
        (elapsed < 10.0, f"runtime {elapsed:.2f}s < 10 s"),
    ]
    _report(8, "identity and inequality suite", conditions, elapsed)


def test_criterion_09_symmetric_sharpening():
    rng = np.random.default_rng(909)

    def run():
        sharp_ok = True
        below_ok = True
        upper_ok = True
        ratio_ok = True
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            panel = oracles.random_panel(rng, n, low=0.01, high=0.99, symmetric=True)
            sym = symmetric_lower_bound(panel)
            sharp_ok &= sym >= lower_bound(panel) - 1e-12
            below_ok &= sym <= optimal_error(panel) + 1e-9
            # the prior-art pair lives only in the report; the oracle
            # recomputes it one expert at a time
            report = full_report(panel)
            man_lower, man_upper = oracles.manino_bounds(panel.psi)
            upper_ok &= report.manino_upper == upper_bound(panel)
            upper_ok &= abs(man_upper - report.manino_upper) <= 1e-12 * max(man_upper, 1e-300)
            ratio_ok &= abs(sym / report.manino_lower - 0.5 / 0.36) <= 1e-12 * (0.5 / 0.36)
            ratio_ok &= abs(sym / man_lower - 0.5 / 0.36) <= 1e-12 * (0.5 / 0.36)
        return sharp_ok, below_ok, upper_ok, ratio_ok

    start = time.perf_counter()
    sharp_ok, below_ok, upper_ok, ratio_ok = run()
    elapsed = time.perf_counter() - start
    conditions = [
        (sharp_ok, "symmetric lower sharpens the general lower"),
        (below_ok, "symmetric lower stays below exact"),
        (upper_ok, "constant-free uppers coincide"),
        (ratio_ok, "lower-bound constants ratio 0.5/0.36"),
        (elapsed < 30.0, f"runtime {elapsed:.2f}s < 30 s"),
    ]
    _report(9, "symmetric sharpening identities on 1000 panels",
            conditions, elapsed)


def test_criterion_10_monte_carlo_agreement():
    rng = np.random.default_rng(1010)
    trials = 1_000_000

    def run():
        sim_hits = 0
        est_hits = 0
        for i in range(20):
            n = int(rng.integers(1, 13))
            panel = oracles.random_panel(rng, n, low=0.05, high=0.95)
            exact = optimal_error(panel)
            sim = simulate_error(panel, trials=trials, seed=1000 + i)
            if abs(sim.empirical_error - exact) <= 4.0 * max(sim.std_error, 1e-12):
                sim_hits += 1
            P = panel.law_given_one()
            Q = panel.law_given_zero()
            target = min_mass(P, Q)
            est, se = estimate_min_mass(P, Q, trials=trials, seed=2000 + i)
            if abs(est - target) <= 4.0 * max(se, 1e-12):
                est_hits += 1
        return sim_hits, est_hits

    start = time.perf_counter()
    sim_hits, est_hits = run()
    elapsed = time.perf_counter() - start

    panel = ExpertPanel(psi=[0.8, 0.7], eta=[0.75, 0.65])
    rep_a = simulate_error(panel, trials=100_000, seed=5)
    rep_b = simulate_error(panel, trials=100_000, seed=5)
    det_ok = (rep_a.empirical_error == rep_b.empirical_error
              and rep_a.std_error == rep_b.std_error)

    conditions = [
        (sim_hits >= 19, f"simulation within 4 se in {sim_hits}/20 cases"),
        (est_hits >= 19, f"overlap estimate within 4 se in {est_hits}/20 cases"),
        (det_ok, "bit-identical repeat under a fixed seed"),
        (elapsed < 120.0, f"runtime {elapsed:.2f}s < 2 min"),
    ]
    _report(10, "seeded Monte Carlo matches exact values", conditions, elapsed)


def test_criterion_11_scale_check():
    rng = np.random.default_rng(1111)
    p = ProductBernoulli(rng.uniform(0.05, 0.95, 24))
    q = ProductBernoulli(rng.uniform(0.05, 0.95, 24))

    start = time.perf_counter()
    first = min_mass(p, q)
    elapsed = time.perf_counter() - start

    repeat = min_mass(p, q)
    conditions = [
        (elapsed < 30.0, f"runtime {elapsed:.2f}s < 30 s"),
        (repeat == first, f"bit-identical repeat: {first!r} vs {repeat!r}"),
    ]
    _report(11, "full enumeration at 24 experts", conditions, elapsed)
