"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured values and runtime (run pytest with -s
to see them)."""

import math
import time

import numpy as np
import pytest

from usable_info import (
    BatchSpec,
    FamilyConfig,
    FitMode,
    PacConfig,
    SimulationConfig,
    brute_force_arborescence,
    cpc_estimate,
    edge_weights,
    empirical_conditional_entropy,
    empirical_information,
    fit_critic,
    gaussian_oracle_critic,
    gaussian_pair_information,
    max_arborescence,
    nwj_estimate,
    simulate,
    wrong_edges_ratio,
)

LOG_PI = math.log(math.pi)


def _gate(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail}; {elapsed:.2f}s "
          f"of {budget:.0f}s budget)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def _plugin_shannon_mi(xs, ys, cx, cy):
    """Plug-in mutual information of the empirical joint, in nats."""
    joint = np.zeros((cx, cy))
    np.add.at(joint, (xs, ys), 1.0)
    joint /= joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mi = 0.0
    for a in range(cx):
        for b in range(cy):
            if joint[a, b] > 0:
                mi += joint[a, b] * math.log(joint[a, b] / (px[a] * py[b]))
    return mi


def test_criterion_1_shannon_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        cx = int(rng.integers(2, 9))
        cy = int(rng.integers(2, 9))
        n = int(rng.integers(10, 201))
        pmf = rng.dirichlet(np.ones(cx * cy))
        flat = rng.choice(cx * cy, size=n, p=pmf)
        xs, ys = flat // cy, flat % cy
        cfg = FamilyConfig("tabular")
        est = empirical_information(cfg, xs, ys)
        mi = _plugin_shannon_mi(xs, ys, int(xs.max()) + 1, int(ys.max()) + 1)
        worst = max(worst, abs(est.point_estimate - mi))
    _gate(1, "tabular information equals plug-in Shannon MI",
          worst <= 1e-9, f"worst |diff| = {worst:.2e} over 50 joints",
          time.time() - t0, 1.0)


def test_criterion_2_r_squared_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 121))
        dx = int(rng.integers(1, 5))
        dy = int(rng.integers(1, 4))
        xs = rng.normal(size=(n, dx))
        coef = rng.normal(size=(dx, dy))
        ys = xs @ coef + rng.normal(scale=rng.uniform(0.1, 2.0), size=(n, dy))
        est = empirical_information(FamilyConfig("linear_gaussian"), xs, ys)
        # independent least-squares oracle
        design = np.hstack([xs, np.ones((n, 1))])
        resid = ys - design @ np.linalg.lstsq(design, ys, rcond=None)[0]
        rss = float((resid**2).sum())
        centered = ys - ys.mean(axis=0)
        tss = float((centered**2).sum())
        r_squared = 1.0 - rss / tss
        trace = tss / n
        worst = max(worst, abs(est.point_estimate - r_squared * trace))
    _gate(2, "linear information equals R^2 x covariance trace",
          worst <= 1e-8, f"worst |diff| = {worst:.2e} over 50 regressions",
          time.time() - t0, 1.0)


def test_criterion_3_arborescence_matches_enumeration():
    t0 = time.time()
    rng = np.random.default_rng(103)
    checked = 0
    exact = True
    for m in range(2, 7):
        for trial in range(100):
            w = rng.uniform(-1.0, 1.0, size=(m, m))
            if trial % 2 == 0:
                w = np.abs(w)
            fast = max_arborescence(w)
            slow = brute_force_arborescence(w)
            exact = exact and (fast.total_weight == slow.total_weight)
            checked += 1
    _gate(3, "Chu-Liu/Edmonds equals brute-force enumeration",
          exact, f"{checked} random matrices, m in 2..6, exact total match",
          time.time() - t0, 10.0)


def test_criterion_4_nonnegativity_and_monotonicity():
    t0 = time.time()
    rng = np.random.default_rng(104)
    min_info = math.inf
    worst_violation = -math.inf
    for _ in range(100):
        n = int(rng.integers(6, 50))
        xs_d = rng.integers(0, int(rng.integers(2, 5)), n)
        ys_d = rng.integers(0, int(rng.integers(2, 5)), n)
        min_info = min(min_info, empirical_information(
            FamilyConfig("tabular"), xs_d, ys_d).point_estimate)
        xs_c = rng.normal(size=n)
        ys_c = rng.normal(size=n)
        min_info = min(min_info, empirical_information(
            FamilyConfig("linear_gaussian"), xs_c, ys_c).point_estimate)
        min_info = min(min_info, empirical_information(
            FamilyConfig("polynomial_gaussian", order=3), xs_c,
            ys_c).point_estimate)
        entropies = [empirical_conditional_entropy(
            FamilyConfig("polynomial_gaussian", order=k), xs_c, ys_c)
            for k in (1, 2, 3)]
        for lo, hi in zip(entropies, entropies[1:]):
            worst_violation = max(worst_violation, hi - lo)
    ok = min_info >= -1e-9 and worst_violation <= 1e-9
    _gate(4, "non-negativity and nested-family monotonicity",
          ok, f"min estimate = {min_info:.2e}, worst order violation = "
              f"{worst_violation:.2e} over 100 datasets",
          time.time() - t0, 5.0)


def test_criterion_5_tree_recovery_at_scale():
    t0 = time.time()
    fam = FamilyConfig("linear_gaussian")
    ratios_300 = []
    zeros_5000 = 0
    for seed in range(10):
        for n in (300, 5000):
            dataset, truth = simulate(SimulationConfig(scenario="sim1", n=n,
                                                       seed=seed))
            tree = max_arborescence(edge_weights(dataset.variables, fam))
            ratio = wrong_edges_ratio(tree, truth.tree)
            if n == 300:
                ratios_300.append(ratio)
            else:
                zeros_5000 += ratio == 0.0
    mean_300 = float(np.mean(ratios_300))
    ok = mean_300 <= 0.05 and zeros_5000 >= 9
    _gate(5, "star-tree recovery (m=20, d=10)",
          ok, f"mean ratio at N=300: {mean_300:.4f} (<=0.05); exact at "
              f"N=5000: {zeros_5000}/10 (>=9)",
          time.time() - t0, 300.0)


def test_criterion_6_pac_coverage():
    t0 = time.time()
    delta = 0.1
    cfg = FamilyConfig("linear_gaussian", norm_radius=1.0, clip_b=50.0,
                       fit=FitMode(max_iters=4000, tolerance=1e-8))
    pac = PacConfig(delta=delta, b=50.0, k_x=1.0, k_y=1.0)
    true_info = gaussian_pair_information(0.8, 1.0)
    covered = 0
    for seed in range(500):
        dataset, _ = simulate(SimulationConfig(
            scenario="gaussian_pair", n=200, seed=seed, d=1, rho=0.8))
        est = empirical_information(cfg, dataset.variables[0],
                                    dataset.variables[1], pac=pac)
        covered += abs(est.point_estimate - true_info) <= est.pac.half_width
    ok = covered / 500 >= 1.0 - 2.0 * delta
    _gate(6, "PAC interval coverage (constrained linear)",
          ok, f"coverage {covered}/500 >= {1 - 2 * delta:.2f}",
          time.time() - t0, 60.0)


def test_criterion_7_cpc_saturation():
    t0 = time.time()
    rho = 0.999
    true_info = -0.5 * math.log(1.0 - rho * rho)
    assert true_info > math.log(8.0)
    rng = np.random.default_rng(107)
    x = rng.standard_normal(2048)
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(2048)
    x = x.reshape(-1, 1)
    y = y.reshape(-1, 1)
    spec = BatchSpec(batch_size=8, seed=107)
    critic = fit_critic("quadratic", "cpc", x[:1024], y[:1024], spec=spec)
    vals = np.asarray([cpc_estimate(critic, x[k:k + 8], y[k:k + 8])
                       for k in range(1024, 2048, 8)])
    ok = np.all(vals <= math.log(8.0) + 1e-9) and vals.mean() < math.log(8.0)
    _gate(7, "CPC saturates at log(batch size)",
          ok, f"true I = {true_info:.3f} > log 8 = {math.log(8.0):.3f}; all "
              f"{len(vals)} batch estimates <= log 8, mean = {vals.mean():.3f}",
          time.time() - t0, 60.0)


def test_criterion_8_nwj_variance_lower_bound():
    t0 = time.time()
    n = 100
    resamples = 500
    details = []
    ok = True
    for rho in (0.5, 0.9, 0.99):
        critic = gaussian_oracle_critic(rho)
        true_info = -0.5 * math.log(1.0 - rho * rho)
        vals = np.empty(resamples)
        for trial in range(resamples):
            rng = np.random.default_rng(108_000 + trial)
            x = rng.standard_normal(n)
            y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
            perm = rng.permutation(n)
            vals[trial] = nwj_estimate(critic, x.reshape(-1, 1),
                                       y.reshape(-1, 1), x.reshape(-1, 1),
                                       y[perm].reshape(-1, 1))
        variance = float(np.var(vals, ddof=1))
        floor = (math.exp(true_info) - 1.0) / n
        ok = ok and variance >= 0.5 * floor
        details.append(f"rho={rho}: var={variance:.4f} >= {0.5 * floor:.4f}")
    _gate(8, "NWJ estimator variance exceeds its lower bound",
          ok, "; ".join(details), time.time() - t0, 60.0)


def test_criterion_9_preprocessing_creates_information():
    t0 = time.time()
    rng = np.random.default_rng(109)
    x = rng.uniform(-1.5, 1.5, 4000)
    y = x**3 + 0.1 * rng.normal(size=4000)
    fam = FamilyConfig("linear_gaussian")
    raw = empirical_information(fam, x, y).point_estimate
    cubed = empirical_information(fam, x**3, y).point_estimate
    gain = cubed - raw
    _gate(9, "cubing the input raises linear-family information",
          gain >= 0.1, f"I(x^3 -> y) - I(x -> y) = {gain:.3f} >= 0.1 nats",
          time.time() - t0, 1.0)
