import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from usable_info import baselines
from usable_info.errors import NumericalError
from usable_info.estimation import (
    empirical_conditional_entropy,
    empirical_entropy,
    empirical_information,
)
from usable_info.families import (
    _CATEGORICAL_KINDS,
    FAMILY_KINDS,
    FamilyConfig,
    FitMode,
    FitWarning,
    VariableSpec,
    fit_conditional,
    fit_marginal,
    geometric_median,
    laplace_log_normalizer,
    log_density,
)
from usable_info.synth import SimulationConfig, simulate

LOG_PI = math.log(math.pi)


# ------------------------------------------------------------------ #
# Config validation
# ------------------------------------------------------------------ #


def test_variable_spec_validation():
    with pytest.raises(ValueError):
        VariableSpec.real(0)
    with pytest.raises(ValueError):
        VariableSpec.categorical(1)
    with pytest.raises(ValueError):
        VariableSpec("weird")


def test_family_config_validation():
    with pytest.raises(ValueError):
        FamilyConfig("not_a_family")
    with pytest.raises(ValueError):
        FamilyConfig("polynomial_gaussian")  # order required
    with pytest.raises(ValueError):
        FamilyConfig("tabular", order=2)
    with pytest.raises(ValueError):
        FamilyConfig("gaussian_mean", clip_b=0.0)
    with pytest.raises(ValueError):
        FamilyConfig("tabular", norm_radius=1.0)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="clip bound B must be positive"):
            FamilyConfig("gaussian_mean", clip_b=bad)
        with pytest.raises(ValueError, match="norm_radius must be positive"):
            FamilyConfig("linear_gaussian", norm_radius=bad)
    # +inf means no clip and no constraint.
    FamilyConfig("linear_gaussian", clip_b=math.inf, norm_radius=math.inf)


# ------------------------------------------------------------------ #
# Marginal fits
# ------------------------------------------------------------------ #


def test_gaussian_marginal_symmetric_mean():
    pred = fit_marginal(FamilyConfig("gaussian_mean"), [-1.0, 1.0])
    assert pred.mu == pytest.approx([0.0], abs=0)


def test_tabular_marginal_counts():
    pred = fit_marginal(FamilyConfig("tabular"), [0, 0, 1, 1])
    assert np.allclose(pred.pmf, [0.5, 0.5])


def _grid_geometric_median(points, stages=10, grid=21):
    """Coarse-to-fine grid search; independent of Weiszfeld."""
    points = np.asarray(points, float)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    center = (lo + hi) / 2.0
    span = (hi - lo).max() / 2.0 + 1e-3

    def objective(candidates):
        d = np.linalg.norm(points[None, :, :] - candidates[:, None, :], axis=2)
        return d.mean(axis=1)

    for _ in range(stages):
        axes = [np.linspace(c - span, c + span, grid) for c in center]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        center = mesh[np.argmin(objective(mesh))]
        span = 2.0 * (2.0 * span / (grid - 1))
    return center


def test_laplace_marginal_matches_grid_search_oracle():
    rng = np.random.default_rng(42)
    pts = rng.normal(loc=(3.0, 3.0), scale=1.0, size=(100, 2))
    pred = fit_marginal(FamilyConfig("laplace_mean"), pts)
    oracle = _grid_geometric_median(pts)
    assert np.linalg.norm(pred.mu - oracle) < 1e-6


def test_linear_family_marginal_is_constant_gaussian_at_mean():
    rng = np.random.default_rng(0)
    ys = rng.normal(size=(40, 3))
    pred = fit_marginal(FamilyConfig("linear_gaussian"), ys)
    assert np.allclose(pred.mu, ys.mean(axis=0))


def test_norm_constrained_marginal_mean_is_pulled_into_the_ball():
    # The constant members (W, b) = (0, b) of a radius-r family have ||b|| <= r.
    ys = np.random.default_rng(1).normal(size=(40, 3))
    inside = fit_marginal(FamilyConfig("linear_gaussian", norm_radius=10.0), ys)
    assert inside.mu.tobytes() == ys.mean(axis=0).tobytes()
    mean = (ys + 5.0).mean(axis=0)
    outside = fit_marginal(FamilyConfig("polynomial_gaussian", order=2, norm_radius=1.0),
                           ys + 5.0)
    np.testing.assert_allclose(outside.mu, mean / np.linalg.norm(mean), rtol=1e-15)


def test_fit_marginal_errors():
    with pytest.raises(ValueError):
        fit_marginal(FamilyConfig("gaussian_mean"), [])
    with pytest.raises(ValueError):
        fit_marginal(
            FamilyConfig("gaussian_mean", y_spec=VariableSpec.real(2)),
            np.ones((5, 3)),
        )
    with pytest.raises(ValueError):
        fit_marginal(
            FamilyConfig("tabular", y_spec=VariableSpec.categorical(2)),
            [0, 1, 2],
        )
    with pytest.raises(ValueError):
        fit_marginal(FamilyConfig("gaussian_mean"), [1.0, np.inf])


# ------------------------------------------------------------------ #
# Conditional fits
# ------------------------------------------------------------------ #


def test_linear_identity_fit():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=60)
    pred = fit_conditional(FamilyConfig("linear_gaussian"), xs, xs)
    assert pred.weight == pytest.approx(np.array([[1.0]]), abs=1e-10)
    assert pred.bias == pytest.approx(np.array([0.0]), abs=1e-10)
    resid = xs.reshape(-1, 1) - pred.predict_mean(xs)
    assert float((resid**2).sum()) < 1e-18


def test_tabular_deterministic_relation():
    xs = [0, 1, 0, 1]
    ys = [0, 1, 0, 1]
    pred = fit_conditional(FamilyConfig("tabular"), xs, ys)
    assert np.allclose(pred.table[0], [1.0, 0.0])
    assert np.allclose(pred.table[1], [0.0, 1.0])


def test_polynomial_representable_cubic_has_zero_residual():
    xs = np.linspace(-2.0, 2.0, 50)
    ys = xs**3
    pred = fit_conditional(FamilyConfig("polynomial_gaussian", order=3), xs, ys)
    resid = ys.reshape(-1, 1) - pred.predict_mean(xs)
    assert float((resid**2).sum()) <= 1e-10


def test_tabular_unseen_input_falls_back_to_marginal():
    cfg = FamilyConfig(
        "tabular",
        x_spec=VariableSpec.categorical(3),
        y_spec=VariableSpec.categorical(2),
    )
    pred = fit_conditional(cfg, [0, 0, 1, 1], [0, 1, 1, 1])
    assert np.allclose(pred.table[2], [0.25, 0.75])  # marginal pmf
    assert np.isfinite(pred.log_density(2, 0))


def test_constant_families_ignore_input():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=30)
    ys = rng.normal(size=30)
    for kind in ("gaussian_mean", "laplace_mean"):
        pred = fit_conditional(FamilyConfig(kind), xs, ys)
        v1 = pred.log_density(0.0, ys[0])
        v2 = pred.log_density(123.0, ys[0])
        assert v1 == v2


def test_fit_conditional_length_mismatch():
    with pytest.raises(ValueError):
        fit_conditional(FamilyConfig("linear_gaussian"), [1.0, 2.0], [1.0])


def test_rank_deficient_design_uses_minimum_norm_solution():
    # Duplicated feature column: lstsq should split the weight evenly.
    xs = np.column_stack([np.arange(10.0), np.arange(10.0)])
    ys = 2.0 * np.arange(10.0)
    pred = fit_conditional(FamilyConfig("linear_gaussian"), xs, ys)
    assert pred.weight == pytest.approx(np.array([[1.0, 1.0]]), abs=1e-8)


def test_softmax_conditional_learns_separable_labels():
    # The optimum is not attained: the fit certifies once the in-sample
    # negative log-likelihood is within the tolerance of its infimum, 0.
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.normal(-2.0, 0.3, 60), rng.normal(2.0, 0.3, 60)])
    ys = np.concatenate([np.zeros(60, int), np.ones(60, int)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", FitWarning)
        pred = fit_conditional(FamilyConfig("categorical_softmax"), xs, ys)
    assert pred.diagnostics["converged"]
    assert -pred.log_densities(xs, ys).mean() < 1e-9
    probs_lo = np.exp(pred._log_probs([-2.0]))[0]
    probs_hi = np.exp(pred._log_probs([2.0]))[0]
    assert probs_lo[0] > 0.9
    assert probs_hi[1] > 0.9


def test_softmax_nonconvergence_warns_with_diagnostic(monkeypatch):
    # Separable labels take many Newton steps; two cannot certify the fit.
    monkeypatch.setattr(baselines, "_NEWTON_ITERATIONS", 2)
    rng = np.random.default_rng(4)
    xs = rng.normal(size=50)
    ys = (xs > 0).astype(int)
    with pytest.warns(FitWarning, match=r"^softmax fit stopped after 2 Newton steps "
                                        r"\(half squared decrement .* > tolerance 1\.000e-10\)$"):
        pred = fit_conditional(FamilyConfig("categorical_softmax"), xs, ys)
    assert pred.diagnostics["converged"] is False
    assert pred.diagnostics["iterations"] == 2
    assert pred.diagnostics["decrement"] > 1e-10


def test_softmax_whose_design_overflows_warns_that_it_diverged():
    # x * 1e200 overflows the first Hessian, so the fit is left with
    # non-finite parameters: the critics' DIVERGED state, in their words.
    rng = np.random.default_rng(0)
    xs = 1e200 * rng.normal(size=(50, 2))
    ys = rng.integers(0, 3, 50)
    with pytest.warns(FitWarning) as caught:
        pred = fit_conditional(FamilyConfig("categorical_softmax"), xs, ys)
    assert [str(w.message) for w in caught] == [
        baselines.DIVERGED.replace("critic", "softmax")]
    assert not np.isfinite(pred.theta).all()
    assert pred.diagnostics["converged"] is False


def _softmax_data(n, scale=1.0):
    """n rows of a 2-d real x and a 3-class y with logits [0, 2 x_0, -1.5 x_1]."""
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(n, 2))
    logits = np.column_stack([np.zeros(n), 2.0 * xs[:, 0], -1.5 * xs[:, 1]])
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    ys = (probs.cumsum(axis=1) > rng.random((n, 1))).argmax(axis=1)
    return scale * xs, ys


def test_softmax_fit_matches_the_scipy_optimum():
    optimize = pytest.importorskip("scipy.optimize")
    xs, ys = _softmax_data(300)
    pred = fit_conditional(FamilyConfig("categorical_softmax"), xs, ys)
    assert pred.diagnostics["converged"]
    design = np.hstack([xs, np.ones((300, 1))])
    onehot = np.eye(3)[ys]

    def nll(free):
        # The last class's logits are 0, as in the fit.
        logits = design @ np.vstack([free.reshape(2, 3), np.zeros(3)]).T
        top = logits.max(axis=1, keepdims=True)
        log_probs = logits - top - np.log(np.exp(logits - top).sum(axis=1, keepdims=True))
        grad = (np.exp(log_probs) - onehot).T @ design / 300
        return -np.mean(log_probs[np.arange(300), ys]), grad[:2].ravel()

    def hess(free):
        logits = design @ np.vstack([free.reshape(2, 3), np.zeros(3)]).T
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = (probs / probs.sum(axis=1, keepdims=True))[:, :2]
        cov = probs[:, :, None] * (np.eye(2) - probs[:, None, :])
        return np.einsum("nab,ni,nj->aibj", cov, design, design).reshape(6, 6) / 300

    best = optimize.minimize(nll, np.zeros(6), jac=True, hess=hess, method="trust-exact",
                             options={"gtol": 1e-13})
    assert -pred.log_densities(xs, ys).mean() == pytest.approx(best.fun, abs=1e-10)
    want = np.exp(pred._log_probs(xs))
    logits = design @ np.vstack([best.x.reshape(2, 3), np.zeros(3)]).T
    got = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.allclose(want, got / got.sum(axis=1, keepdims=True), rtol=0, atol=1e-8)


def test_softmax_estimate_is_invariant_to_rescaling_x():
    # The family is closed under invertible affine maps of x, and the Newton
    # system is solved on a unit diagonal, so no scale of x is special.
    config = FamilyConfig("categorical_softmax")
    with warnings.catch_warnings():
        warnings.simplefilter("error", FitWarning)
        values = [empirical_information(config, *_softmax_data(500, scale)).point_estimate
                  for scale in (1.0, 1e6, 1e-6)]
    assert values[0] == pytest.approx(0.3255975980665795, abs=1e-9)
    assert values[1:] == pytest.approx([values[0]] * 2, abs=1e-9)


def test_softmax_with_one_class_present_is_the_constant_pmf():
    xs = np.random.default_rng(5).normal(size=(40, 2))
    ys = np.full(40, 2)
    config = FamilyConfig("categorical_softmax", y_spec=VariableSpec.categorical(4))
    pred = fit_conditional(config, xs, ys)
    assert pred.diagnostics == {"iterations": 0, "converged": True, "decrement": 0.0}
    assert np.array_equal(pred.at(xs[0]).pmf, [0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(pred.log_densities(xs, ys), np.zeros(40))
    assert empirical_information(config, xs, ys).point_estimate == 0.0


# ------------------------------------------------------------------ #
# log_density
# ------------------------------------------------------------------ #


def test_gaussian_log_density_at_mean():
    pred = fit_marginal(FamilyConfig("gaussian_mean"), [0.0, 0.0])
    assert log_density(pred, 0.0) == pytest.approx(-0.5 * LOG_PI)
    assert log_density(pred, 0.0) == pytest.approx(-0.5724, abs=1e-4)


def test_tabular_log_density():
    pred = fit_marginal(FamilyConfig("tabular"), [0, 1])
    assert log_density(pred, 0) == pytest.approx(math.log(0.5))


def test_clip_bound_clamps():
    pred = fit_marginal(FamilyConfig("gaussian_mean", clip_b=1.0), [0.0, 0.0])
    # true log-density at y=2 is -0.5*log(pi) - 4 < -1
    assert log_density(pred, 2.0) == -1.0
    assert log_density(pred, 0.0) == pytest.approx(-0.5 * LOG_PI)


def test_log_density_x_presence_is_enforced():
    marg = fit_marginal(FamilyConfig("gaussian_mean"), [0.0, 1.0])
    cond = fit_conditional(FamilyConfig("linear_gaussian"), [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        log_density(marg, 0.0, x=1.0)
    with pytest.raises(ValueError):
        log_density(cond, 0.0)
    assert np.isfinite(log_density(cond, 0.0, x=0.0))


def test_categorical_out_of_range_rejected():
    pred = fit_marginal(FamilyConfig("tabular"), [0, 1])
    with pytest.raises(ValueError):
        log_density(pred, 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300])
def test_a_symbol_that_is_no_int64_raises_without_a_cast_warning(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must contain integer symbols"):
            fit_marginal(FamilyConfig("tabular"), [1.0, bad, 0.0])


# ------------------------------------------------------------------ #
# Optional ignorance
# ------------------------------------------------------------------ #


def _probe_pairs(kind, rng):
    if kind == "tabular":
        return rng.integers(0, 3, 40), rng.integers(0, 4, 40)
    if kind == "categorical_softmax":
        return rng.normal(size=(40, 2)), rng.integers(0, 3, 40)
    if kind in ("linear_gaussian", "polynomial_gaussian"):
        return rng.normal(size=(40, 2)), rng.normal(size=(40, 2))
    return rng.normal(size=(40, 2)), rng.normal(size=(40, 2))


@pytest.mark.parametrize("kind,order", [
    ("tabular", None),
    ("gaussian_mean", None),
    ("laplace_mean", None),
    ("linear_gaussian", None),
    ("polynomial_gaussian", 2),
    ("categorical_softmax", None),
])
def test_optional_ignorance(kind, order):
    rng = np.random.default_rng(11)
    xs, ys = _probe_pairs(kind, rng)
    cfg = FamilyConfig(kind, order=order)
    pred = fit_conditional(cfg, xs, ys)
    probe_xs, probe_ys = _probe_pairs(kind, np.random.default_rng(12))
    anchor = xs[0]
    const = pred.frozen(anchor)
    reference = pred.at(anchor)
    got = const.log_densities(probe_xs, probe_ys)
    want = reference.log_densities(probe_ys)
    assert np.allclose(got, want, atol=0, rtol=0)
    # all inputs give the same answer
    got2 = const.log_densities(probe_xs[::-1], probe_ys)
    assert np.array_equal(got, got2)


# ------------------------------------------------------------------ #
# Reductions to classical quantities
# ------------------------------------------------------------------ #


def _shannon(counts):
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def test_tabular_reduces_to_shannon_entropies():
    rng = np.random.default_rng(5)
    xs = rng.integers(0, 4, 200)
    ys = rng.integers(0, 3, 200)
    marg = fit_marginal(FamilyConfig("tabular"), ys)
    h_marg = -marg.log_densities(ys).mean()
    assert h_marg == pytest.approx(_shannon(np.bincount(ys)), abs=1e-9)

    cond = fit_conditional(FamilyConfig("tabular"), xs, ys)
    h_cond = -cond.log_densities(xs, ys).mean()
    joint = np.zeros((4, 3))
    np.add.at(joint, (xs, ys), 1.0)
    expected = _shannon(joint.ravel()) - _shannon(joint.sum(axis=1))
    assert h_cond == pytest.approx(expected, abs=1e-9)


def test_gaussian_entropy_is_covariance_trace_plus_constant():
    rng = np.random.default_rng(6)
    ys = rng.normal(size=(150, 4)) @ rng.normal(size=(4, 4))
    pred = fit_marginal(FamilyConfig("gaussian_mean"), ys)
    h = -pred.log_densities(ys).mean()
    trace = float(np.trace(np.cov(ys.T, bias=True)))
    assert h == pytest.approx(trace + 2.0 * LOG_PI, abs=1e-9)


def test_laplace_entropy_is_mean_deviation_plus_log_normalizer():
    rng = np.random.default_rng(7)
    ys = rng.normal(size=(120, 2))
    pred = fit_marginal(FamilyConfig("laplace_mean"), ys)
    h = -pred.log_densities(ys).mean()
    mad = float(np.linalg.norm(ys - pred.mu, axis=1).mean())
    assert h == pytest.approx(mad + laplace_log_normalizer(2), abs=1e-8)


def test_laplace_normalizer_one_dim_is_two_and_matches_quadrature():
    assert laplace_log_normalizer(1) == pytest.approx(math.log(2.0))
    for d in (1, 2, 3):
        surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        z, _ = integrate.quad(lambda r: surface * r ** (d - 1) * math.exp(-r),
                              0, 200)
        assert laplace_log_normalizer(d) == pytest.approx(math.log(z), abs=1e-10)


def test_categorical_softmax_marginal_is_shannon_entropy():
    rng = np.random.default_rng(8)
    ys = rng.integers(0, 5, 300)
    pred = fit_marginal(FamilyConfig("categorical_softmax"), ys)
    h = -pred.log_densities(ys).mean()
    assert h == pytest.approx(_shannon(np.bincount(ys)), abs=1e-9)


def _onehot_fit(xs, cardinality, ys, y_spec, clip_b=None):
    """Softmax on x's one-hot matrix passed as a real x: the design
    ``[onehot, 1]`` of softmax on a categorical x, fitted by Newton's
    method.  The design's columns are collinear, which the ridge of the
    Newton system absorbs."""
    onehot = np.eye(cardinality)[xs]
    cfg = FamilyConfig("categorical_softmax", y_spec=y_spec, clip_b=clip_b)
    return onehot, fit_conditional(cfg, onehot, ys)


def test_softmax_on_categorical_x_matches_the_plug_in_conditional():
    # One-hot x plus a bias is a saturated model, so the fit is the
    # empirical conditional pmf, counted; the Newton fit converges to it.
    rng = np.random.default_rng(14)
    xs = rng.integers(0, 3, 300)
    ys = (xs + (rng.random(300) < 0.35) * rng.integers(1, 3, 300)) % 3
    counts = np.zeros((3, 3))
    np.add.at(counts, (xs, ys), 1)
    assert counts.min() > 0
    spec = VariableSpec.categorical(3)
    softmax = FamilyConfig("categorical_softmax", x_spec=spec, y_spec=spec)
    tabular = FamilyConfig("tabular", x_spec=spec, y_spec=spec)
    assert (empirical_information(softmax, xs, ys).point_estimate
            == empirical_information(tabular, xs, ys).point_estimate)
    pred = fit_conditional(softmax, xs, ys)
    _, oracle = _onehot_fit(xs, 3, ys, spec)
    assert oracle.diagnostics["converged"]
    for x in range(3):
        assert np.array_equal(pred.at(x).pmf, counts[x] / counts[x].sum())
        assert np.allclose(oracle.at(np.eye(3)[x]).pmf, counts[x] / counts[x].sum(),
                           atol=1e-6)


@pytest.mark.parametrize("clip_b", [None, 1.0])
def test_counted_softmax_fit_matches_the_one_hot_descent(clip_b):
    # A clip bound that bites makes the in-sample mean first order in the
    # fit's error, so this needs the certified optimum.
    rng = np.random.default_rng(16)
    xs = rng.integers(0, 4, 600)
    ys = (xs + rng.choice(4, 600, p=[0.55, 0.25, 0.12, 0.08])) % 4
    counts = np.zeros((4, 4))
    np.add.at(counts, (xs, ys), 1)
    assert counts.min() > 0
    spec = VariableSpec.categorical(4)
    pred = fit_conditional(FamilyConfig("categorical_softmax", x_spec=spec, y_spec=spec,
                                        clip_b=clip_b), xs, ys)
    onehot, oracle = _onehot_fit(xs, 4, ys, spec, clip_b=clip_b)
    assert oracle.diagnostics["converged"]
    counted = pred.log_densities(xs, ys)
    if clip_b is not None:
        assert np.sum(counted == -clip_b) > 100  # the bound bites
    assert counted.mean() == pytest.approx(oracle.log_densities(onehot, ys).mean(),
                                           abs=1e-10)


def test_softmax_on_categorical_x_with_an_empty_cell_gives_the_plug_in_value():
    # An empty (x, y) cell has maximum-likelihood logit -inf, which a
    # Newton fit only approaches; the counted fit reaches it, whatever FitMode.
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 4, 2000)
    ys = np.where(rng.random(2000) < 0.9, xs, (xs + 1) % 4)
    counts = np.zeros((4, 4))
    np.add.at(counts, (xs, ys), 1)
    assert (counts == 0).any()
    seen = counts > 0
    plug_in = -float(np.sum(counts[seen] / 2000
                            * np.log((counts / counts.sum(axis=1, keepdims=True))[seen])))
    spec = VariableSpec.categorical(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FitWarning)
        for fit in (None, FitMode(max_iters=1)):
            softmax = FamilyConfig("categorical_softmax", fit=fit, x_spec=spec, y_spec=spec)
            assert empirical_conditional_entropy(softmax, xs, ys) == pytest.approx(
                plug_in, abs=1e-12)


def test_counted_softmax_at_an_unseen_x_symbol_is_the_marginal_pmf():
    xs, ys = [0, 0, 1, 1, 1], [0, 1, 1, 2, 2]
    spec = VariableSpec.categorical(3)
    pred = fit_conditional(FamilyConfig("categorical_softmax", x_spec=spec, y_spec=spec),
                           xs, ys)
    assert np.array_equal(pred.at(2).pmf, [0.2, 0.4, 0.4])
    assert np.array_equal(pred.at(2).pmf, fit_marginal(
        FamilyConfig("categorical_softmax", y_spec=spec), ys).pmf)


def test_softmax_gives_a_class_that_never_occurs_probability_zero():
    rng = np.random.default_rng(15)
    xs = rng.integers(0, 3, 300)
    ys = (xs + rng.choice(3, 300, p=[0.6, 0.25, 0.15])) % 3
    counts = np.zeros((3, 5))
    np.add.at(counts, (xs, ys), 1)
    assert counts[:, :3].min() > 0
    y_spec = VariableSpec.categorical(5)
    softmax = FamilyConfig("categorical_softmax", x_spec=VariableSpec.categorical(3),
                           y_spec=y_spec)
    pred = fit_conditional(softmax, xs, ys)
    _, oracle = _onehot_fit(xs, 3, ys, y_spec)
    assert oracle.diagnostics["converged"]
    for x in range(3):
        assert np.array_equal(pred.at(x).pmf, counts[x] / counts[x].sum())
        pmf = oracle.at(np.eye(3)[x]).pmf
        assert np.array_equal(pmf[3:], [0.0, 0.0])
        assert np.allclose(pmf, counts[x] / counts[x].sum(), atol=1e-6)
    assert pred.log_density(0, 4) == -math.inf
    assert oracle.log_density(np.eye(3)[0], 4) == -math.inf


# Each categorical fit, the argument that carries its symbols, and how to
# read the cardinality the fitted predictor ranges over.
_CATEGORICAL_FITS = {
    "marginal": (
        "ys",
        lambda spec, s: fit_marginal(FamilyConfig("tabular", y_spec=spec), s),
        lambda pred: pred.pmf.shape[0],
    ),
    "tabular x": (
        "xs",
        lambda spec, s: fit_conditional(FamilyConfig("tabular", x_spec=spec),
                                        s, np.arange(s.size) % 2),
        lambda pred: pred.table.shape[0],
    ),
    "tabular y": (
        "ys",
        lambda spec, s: fit_conditional(FamilyConfig("tabular", y_spec=spec),
                                        np.arange(s.size) % 2, s),
        lambda pred: pred.table.shape[1],
    ),
    "softmax y": (
        "ys",
        lambda spec, s: fit_conditional(
            FamilyConfig("categorical_softmax", y_spec=spec),
            np.zeros((s.size, 1)), s),
        lambda pred: pred.classes.shape[0],
    ),
}


@pytest.mark.parametrize("case", sorted(_CATEGORICAL_FITS))
def test_categorical_fits_share_one_symbol_rule(case):
    name, fit, cardinality = _CATEGORICAL_FITS[case]
    with pytest.raises(ValueError,
                       match=rf"^{name}: categorical symbol out of range \(cardinality 3\)$"):
        fit(VariableSpec.categorical(3), np.array([0, 1, 3]))
    with pytest.raises(ValueError, match="needs a categorical variable spec"):
        fit(VariableSpec.real(1), np.array([0, 1, 1]))
    assert cardinality(fit(VariableSpec.categorical(4), np.array([0, 1, 1]))) == 4
    assert cardinality(fit(None, np.array([0, 4, 1]))) == 5
    assert cardinality(fit(None, np.array([0, 0, 0]))) == 2


def test_least_squares_fit_is_locally_optimal():
    rng = np.random.default_rng(9)
    xs = rng.normal(size=(80, 3))
    ys = xs @ rng.normal(size=(3, 2)) + 0.3 * rng.normal(size=(80, 2))
    pred = fit_conditional(FamilyConfig("linear_gaussian"), xs, ys)

    def nll(weight, bias):
        resid = ys - xs @ weight.T - bias
        return float((resid**2).sum(axis=1).mean())

    base = nll(pred.weight, pred.bias)
    for _ in range(50):
        dw = rng.normal(size=pred.weight.shape)
        db = rng.normal(size=pred.bias.shape)
        scale = 1e-3 / math.sqrt(float((dw**2).sum() + (db**2).sum()))
        assert nll(pred.weight + scale * dw, pred.bias + scale * db) >= base - 1e-12


# ------------------------------------------------------------------ #
# Geometric median corner cases
# ------------------------------------------------------------------ #


def test_geometric_median_on_data_point():
    # The optimum coincides with a repeated data point; the tie-fix must
    # settle there instead of oscillating.
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-1.0, 0.0],
                    [0.0, 1.0], [0.0, -1.0]])
    med = geometric_median(pts)
    assert np.linalg.norm(med) < 1e-8


def test_geometric_median_all_identical_points():
    pts = np.tile([2.0, -1.0], (7, 1))
    assert np.allclose(geometric_median(pts), [2.0, -1.0])


def test_geometric_median_of_one_point_is_that_point():
    assert np.array_equal(geometric_median([[3.0, -2.0]]), [3.0, -2.0])


def test_geometric_median_moves_off_a_data_point_that_is_not_the_median():
    # The mean 0 is a data point, but the other points pull harder than its
    # own weight, so the tie-fix step leaves it for the 1-D median 1.
    pts = np.array([[-6.0], [0.0], [1.0], [2.0], [3.0]])
    assert geometric_median(pts) == pytest.approx([1.0], abs=1e-8)


def test_geometric_median_warns_when_out_of_iterations():
    pts = np.random.default_rng(15).normal(size=(20, 2))
    with pytest.warns(FitWarning, match="stopped after 1 iterations"):
        geometric_median(pts, max_iters=1)


def test_geometric_median_fails_at_once_when_the_mean_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^geometric median: the mean of the points "
                                                 "overflows float64$"):
            geometric_median([1e308, 1e308, -1e308])
        with pytest.raises(NumericalError, match="overflows"):
            empirical_entropy(FamilyConfig("laplace_mean"), [1e308, 1e308, -1e308])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_geometric_median_fails_at_the_first_overflowing_step():
    # The mean is 0, and every distance to it overflows.
    with pytest.raises(NumericalError, match="^geometric median: Weiszfeld step 1 "
                                             "overflows float64$"):
        geometric_median([1e308, -1e308, 1e308, -1e308])


def test_constrained_linear_fit_projects_into_ball():
    rng = np.random.default_rng(10)
    xs = rng.normal(size=(100, 2))
    ys = xs @ np.array([[3.0, 0.0], [0.0, 3.0]]) + 0.1 * rng.normal(size=(100, 2))
    cfg = FamilyConfig("linear_gaussian", norm_radius=1.0,
                       fit=FitMode(max_iters=3000, tolerance=1e-10))
    pred = fit_conditional(cfg, xs, ys)
    stacked = np.hstack([pred.weight, pred.bias[:, None]])
    assert np.linalg.norm(stacked, 2) <= 1.0 + 1e-9


def test_constrained_fit_defaults_to_gradient_mode():
    # norm_radius with fit=None must run gradient descent with FitMode().
    rng = np.random.default_rng(13)
    xs = rng.normal(size=(50, 1))
    ys = 0.4 * xs + 0.1 * rng.normal(size=(50, 1))
    pred = fit_conditional(FamilyConfig("linear_gaussian", norm_radius=1.0),
                           xs, ys)
    assert pred.diagnostics["converged"]


@pytest.mark.parametrize("kwargs", [{"max_iters": 0}, {"max_iters": -3}, {"tol": 0.0},
                                    {"tol": -1e-9}, {"tol": math.nan}, {"tol": math.inf}])
def test_geometric_median_rejects_bad_iteration_settings(kwargs):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        geometric_median(pts, **kwargs)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_no_fit_mode_is_the_default_fit_mode(kind):
    # laplace_mean's Weiszfeld iteration read its own defaults without a FitMode.
    dataset, _ = simulate(SimulationConfig("sim2", n=300, seed=1, m=7, d=2))
    xs, ys = dataset.variables[0], dataset.variables[1]
    if kind == "tabular":
        xs = (xs[:, 0] > np.median(xs[:, 0])).astype(int)
    if kind in _CATEGORICAL_KINDS:
        ys = (ys[:, 0] > np.median(ys[:, 0])).astype(int) + (ys[:, 1] > 0)
    order = 2 if kind == "polynomial_gaussian" else None
    default = empirical_information(FamilyConfig(kind, order=order), xs, ys)
    assert default == empirical_information(
        FamilyConfig(kind, order=order, fit=FitMode()), xs, ys)


@pytest.mark.parametrize("settings", [
    {"tolerance": math.nan}, {"tolerance": math.inf}, {"tolerance": 0.0},
    {"max_iters": 0},
])
def test_fit_mode_rejects_bad_settings(settings):
    (name,) = settings
    with pytest.raises(ValueError, match=name):
        FitMode(**settings)
