import math
import warnings

import numpy as np
import pytest

from usable_info.errors import InfiniteLogDensityError
from usable_info.estimation import (
    InfoEstimate,
    PacConfig,
    empirical_conditional_entropy,
    empirical_entropy,
    empirical_information,
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
    # The fitted mean is 0 and each squared residual overflows, so both
    # observed samples get zero density in-sample.
    ys = [1e200, -1e200]
    with np.errstate(over="ignore"):
        with pytest.raises(InfiniteLogDensityError, match="clip"):
            empirical_entropy(FamilyConfig("gaussian_mean"), ys)
        assert np.isfinite(empirical_entropy(FamilyConfig("gaussian_mean", clip_b=5.0), ys))


def test_overflowing_squares_raise_only_the_infinite_density_error():
    # numpy's overflow warning must not come ahead of the error that explains it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfiniteLogDensityError):
            empirical_entropy(FamilyConfig("gaussian_mean"), [1e200, -1e200])
        with pytest.raises(InfiniteLogDensityError):
            empirical_conditional_entropy(FamilyConfig("linear_gaussian"), [0.0, 1.0, 2.0],
                                          [1e200, -1e200, 1e200])


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


@pytest.mark.parametrize("offset", [0.0, 5.0])
@pytest.mark.parametrize("config", [
    FamilyConfig("linear_gaussian", norm_radius=1.0),
    FamilyConfig("polynomial_gaussian", order=2, norm_radius=1.0),
], ids=["linear", "polynomial2"])
def test_norm_constrained_information_is_nonnegative(config, offset):
    # With the target mean outside the ball (offset 5), a marginal at the
    # unconstrained mean made the linear information -15.4 nats.
    rng = np.random.default_rng(0)
    xs = rng.normal(size=500)
    ys = offset + 0.1 * xs + rng.normal(size=500)
    assert empirical_information(config, xs, ys).point_estimate >= -1e-6


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
