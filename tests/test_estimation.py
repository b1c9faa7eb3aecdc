import math

import numpy as np
import pytest

from usable_info.errors import InfiniteLogDensityError
from usable_info.estimation import (
    InfoEstimate,
    PacConfig,
    empirical_conditional_entropy,
    empirical_entropy,
    empirical_information,
    holdout_information,
    linear_pac_half_width,
)
from usable_info.families import FamilyConfig, FitMode

LOG_PI = math.log(math.pi)
LOG_2PI = math.log(2.0 * math.pi)


# ------------------------------------------------------------------ #
# Entropies
# ------------------------------------------------------------------ #


def test_entropy_uniform_binary():
    assert empirical_entropy(FamilyConfig("tabular"), [0, 1]) == pytest.approx(
        math.log(2.0))


def test_entropy_gaussian_two_points():
    h = empirical_entropy(FamilyConfig("gaussian_mean"), [-1.0, 1.0])
    assert h == pytest.approx(1.0 + 0.5 * LOG_PI)


def test_entropy_degenerate_point_mass():
    h = empirical_entropy(FamilyConfig("gaussian_mean"), np.zeros(10) + 3.0)
    assert h == pytest.approx(0.5 * LOG_PI)


def test_conditional_entropy_deterministic_tabular():
    h = empirical_conditional_entropy(FamilyConfig("tabular"), [0, 1], [0, 1])
    assert h == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_exact_linear():
    xs = np.linspace(-1, 1, 30)
    ys = 2.0 * xs + 1.0
    h = empirical_conditional_entropy(FamilyConfig("linear_gaussian"), xs, ys)
    assert h == pytest.approx(0.5 * LOG_PI, abs=1e-12)


def test_conditional_entropy_independent_tabular():
    xs = [0, 0, 1, 1]
    ys = [0, 1, 0, 1]
    h = empirical_conditional_entropy(FamilyConfig("tabular"), xs, ys)
    assert h == pytest.approx(math.log(2.0))


# ------------------------------------------------------------------ #
# Information
# ------------------------------------------------------------------ #


def test_information_deterministic_tabular():
    est = empirical_information(FamilyConfig("tabular"), [0, 1], [0, 1])
    assert est.point_estimate == pytest.approx(math.log(2.0))
    assert est.point_estimate == pytest.approx(est.h_marginal - est.h_conditional)
    assert est.sample_count == 2


def test_information_perfect_linear_equals_target_variance():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=200)
    xs = (xs - xs.mean()) / xs.std()  # unit biased variance
    est = empirical_information(FamilyConfig("linear_gaussian"), xs, xs)
    assert est.point_estimate == pytest.approx(1.0, abs=1e-12)


def test_information_requires_two_samples():
    with pytest.raises(ValueError):
        empirical_information(FamilyConfig("linear_gaussian"), [1.0], [1.0])
    with pytest.raises(ValueError):
        empirical_information(FamilyConfig("linear_gaussian"), [1.0, 2.0], [1.0])


def test_clamp_reports_flag_and_zero():
    # A one-step softmax fit leaves the conditional entropy near log(C),
    # above the exact marginal fit, so the raw difference is negative.
    rng = np.random.default_rng(1)
    xs = rng.normal(size=60)
    ys = (rng.random(60) < 0.9).astype(int)
    cfg = FamilyConfig("categorical_softmax",
                       fit=FitMode(max_iters=1, step_size=1e-6, tolerance=1e-15))
    with pytest.warns(UserWarning):
        raw = empirical_information(cfg, xs, ys)
        clamped = empirical_information(cfg, xs, ys, clamp=True)
    assert raw.point_estimate < 0.0
    assert not raw.clamped_nonnegative
    assert clamped.point_estimate == 0.0
    assert clamped.clamped_nonnegative
    assert clamped.h_marginal - clamped.h_conditional == raw.point_estimate


def test_infinite_log_density_instructs_clip():
    # Test split contains a symbol the training split never produced.
    with pytest.raises(InfiniteLogDensityError, match="clip"):
        holdout_information(FamilyConfig("tabular",), [0, 1, 0, 1], [0, 0, 0, 0],
                            [0, 1], [0, 1])
    est = holdout_information(
        FamilyConfig("tabular", clip_b=5.0), [0, 1, 0, 1], [0, 0, 0, 0],
        [0, 1], [0, 1])
    assert np.isfinite(est.point_estimate)


# ------------------------------------------------------------------ #
# PAC widths
# ------------------------------------------------------------------ #


def test_linear_pac_half_width_frozen_value():
    width = linear_pac_half_width(1.0, 1.0, math.exp(-1.0), 100)
    expected = (4.0 + LOG_2PI) / 20.0 * (1.0 + 4.0 * math.sqrt(2.0))
    assert width == pytest.approx(expected, abs=1e-12)
    assert width == pytest.approx(1.9431, abs=1e-4)


def test_linear_pac_half_width_sample_scaling():
    w1 = linear_pac_half_width(1.0, 2.0, 0.1, 50)
    w4 = linear_pac_half_width(1.0, 2.0, 0.1, 200)
    assert w4 == pytest.approx(w1 / 2.0)


def test_linear_pac_half_width_monotone_in_delta():
    n = 80
    widths = [linear_pac_half_width(1.0, 1.0, d, n)
              for d in (0.05, 0.1, 0.2, 0.3, 0.4, 0.499999)]
    assert all(a > b for a, b in zip(widths, widths[1:]))
    floor = ((2.0) ** 2 + LOG_2PI) / math.sqrt(4 * n) * (
        1.0 + 4.0 * math.sqrt(2.0 * math.log(2.0)))
    assert widths[-1] == pytest.approx(floor, rel=1e-4)


def test_linear_pac_half_width_domain():
    for bad in [(0.0, 1, 0.1, 10), (1, 1, 0.6, 10), (1, 1, 0.1, 0)]:
        with pytest.raises(ValueError):
            linear_pac_half_width(*bad)


def test_pac_config_exactly_one_driver():
    PacConfig(delta=0.1, b=5.0, rademacher_bound=0.2)
    PacConfig(delta=0.1, b=5.0, k_x=1.0, k_y=1.0)
    with pytest.raises(ValueError):
        PacConfig(delta=0.1, b=5.0)
    with pytest.raises(ValueError):
        PacConfig(delta=0.1, b=5.0, rademacher_bound=0.2, k_x=1.0, k_y=1.0)
    with pytest.raises(ValueError):
        PacConfig(delta=0.1, b=5.0, k_x=1.0)
    with pytest.raises(ValueError):
        PacConfig(delta=0.7, b=5.0, rademacher_bound=0.2)


def test_rademacher_width_formula():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=50)
    ys = rng.normal(size=50)
    cfg = FamilyConfig("linear_gaussian", clip_b=10.0)
    pac = PacConfig(delta=0.1, b=10.0, rademacher_bound=0.3)
    est = empirical_information(cfg, xs, ys, pac=pac)
    expected = 4 * 0.3 + 2 * 10.0 * math.sqrt(2 * math.log(10.0) / 50)
    assert est.pac.half_width == pytest.approx(expected)
    assert est.pac.bound_kind == "rademacher"
    assert est.pac.half_width > 0


def test_closed_form_width_requires_constrained_linear():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=50)
    ys = rng.normal(size=50)
    pac = PacConfig(delta=0.1, b=10.0, k_x=1.0, k_y=1.0)
    with pytest.raises(ValueError, match="norm constraint"):
        empirical_information(FamilyConfig("linear_gaussian", clip_b=10.0),
                              xs, ys, pac=pac)
    cfg = FamilyConfig("linear_gaussian", clip_b=10.0, norm_radius=1.0,
                       fit=FitMode(max_iters=2000, tolerance=1e-8))
    est = empirical_information(cfg, xs, ys, pac=pac)
    assert est.pac.bound_kind == "closed_form_linear"
    assert est.pac.half_width == pytest.approx(
        linear_pac_half_width(1.0, 1.0, 0.1, 50))


def test_pac_requires_clip_bound():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=30)
    ys = rng.normal(size=30)
    pac = PacConfig(delta=0.1, b=10.0, rademacher_bound=0.1)
    with pytest.raises(ValueError, match="clip_b"):
        empirical_information(FamilyConfig("linear_gaussian"), xs, ys, pac=pac)
    with pytest.raises(ValueError, match="exceeds"):
        empirical_information(FamilyConfig("linear_gaussian", clip_b=20.0),
                              xs, ys, pac=pac)


# ------------------------------------------------------------------ #
# Holdout
# ------------------------------------------------------------------ #


def test_holdout_equals_insample_on_identical_splits():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=80)
    ys = 1.5 * xs + rng.normal(size=80)
    cfg = FamilyConfig("linear_gaussian")
    insample = empirical_information(cfg, xs, ys)
    held = holdout_information(cfg, xs, ys, xs, ys)
    assert held.point_estimate == pytest.approx(insample.point_estimate)
    assert held.h_marginal == pytest.approx(insample.h_marginal)


def test_holdout_deterministic_relation_matches_insample():
    # Deterministic relation, test split a reshuffle of the train split:
    # the conditional term is exactly 0.5*log(pi) on both and the marginal
    # term sees the same multiset, so holdout equals in-sample.
    xs = np.linspace(-2, 2, 60)
    ys = 0.7 * xs - 0.2
    perm = np.random.default_rng(8).permutation(60)
    cfg = FamilyConfig("linear_gaussian")
    a = empirical_information(cfg, xs, ys)
    b = holdout_information(cfg, xs, ys, xs[perm], ys[perm])
    assert b.point_estimate == pytest.approx(a.point_estimate, abs=1e-9)


def test_holdout_independent_is_near_zero_and_consistent():
    # Population value is 0.  The holdout estimator carries an O(d/n)
    # negative bias (the train fit's parameter noise inflates the test
    # conditional term), so "near zero" is judged at the estimator's own
    # noise scale, and the bias must shrink as n grows.
    cfg = FamilyConfig("linear_gaussian")
    means = {}
    for n in (200, 2000):
        vals = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            xs = rng.standard_normal(2 * n)
            ys = rng.standard_normal(2 * n)
            est = holdout_information(cfg, xs[:n], ys[:n], xs[n:], ys[n:])
            vals.append(est.point_estimate)
        vals = np.asarray(vals)
        means[n] = float(vals.mean())
        assert abs(means[n]) <= 3.0 * float(vals.std(ddof=1))
        assert abs(means[n]) <= 3.0 / n
        # holdout estimates are genuinely signed
        assert vals.min() < 0.0
    assert abs(means[2000]) < abs(means[200])
    width = linear_pac_half_width(1.0, 1.0, 0.1, 200)
    assert abs(means[200]) <= 2.0 * width


# ------------------------------------------------------------------ #
# Order properties
# ------------------------------------------------------------------ #


def test_insample_nonnegativity_for_exact_families():
    rng = np.random.default_rng(6)
    for trial in range(50):
        n = int(rng.integers(5, 60))
        xs_d = rng.integers(0, 4, n)
        ys_d = rng.integers(0, 3, n)
        est = empirical_information(FamilyConfig("tabular"), xs_d, ys_d)
        assert est.point_estimate >= -1e-9
        xs_c = rng.normal(size=n)
        ys_c = rng.normal(size=n)
        for cfg in (FamilyConfig("linear_gaussian"),
                    FamilyConfig("polynomial_gaussian", order=2)):
            est = empirical_information(cfg, xs_c, ys_c)
            assert est.point_estimate >= -1e-9


def test_polynomial_order_monotonicity():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(10, 80))
        xs = rng.normal(size=n)
        ys = np.sin(xs) + 0.2 * rng.normal(size=n)
        entropies = [
            empirical_conditional_entropy(
                FamilyConfig("polynomial_gaussian", order=k), xs, ys)
            for k in (1, 2, 3, 4)
        ]
        for lo, hi in zip(entropies, entropies[1:]):
            assert hi <= lo + 1e-9


def test_info_estimate_to_dict_round_trips_pac():
    est = InfoEstimate(0.5, 1.0, 0.5, 10)
    d = est.to_dict()
    assert d["point_estimate"] == 0.5
    assert "pac" not in d
