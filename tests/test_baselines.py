import dataclasses
import functools
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from usable_info import baselines
from usable_info.baselines import (
    BatchSpec,
    Critic,
    baseline_edge_weights,
    cpc_estimate,
    fit_and_estimate_stack,
    fit_critic,
    gaussian_oracle_critic,
    nwj_estimate,
)
from usable_info.errors import NumericalError
from usable_info.families import FamilyConfig, FitWarning
from usable_info.structure import edge_weights
from usable_info.synth import SimulationConfig, simulate


def _pair(rho, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    return x.reshape(-1, 1), y.reshape(-1, 1)


def _constant_critic(value):
    # Bilinear Theta on (x, y) scalars: free cells xy, x, y and 1, in that order.
    return Critic("bilinear", 1, 1, theta=[0.0, 0.0, 0.0, value])


# ------------------------------------------------------------------ #
# CPC
# ------------------------------------------------------------------ #


def test_cpc_constant_critic_is_zero():
    x, y = _pair(0.5, 16, 0)
    assert cpc_estimate(_constant_critic(3.0), x, y) == pytest.approx(0.0, abs=1e-12)


def test_cpc_two_by_two_hand_value():
    # scores: diagonal 1, off-diagonal 0; exponentiated ratio argument
    # becomes e vs 1, giving log(2e / (e + 1)).  Theta = [[2, -1], [-1, 1]]
    # scores 2xy - x - y + 1, which is 1 when x = y and 0 otherwise on {0, 1}.
    critic = Critic("bilinear", 1, 1, theta=[2.0, -1.0, -1.0, 1.0])
    batch = np.array([[0.0], [1.0]])
    want = math.log(2.0 * math.e / (math.e + 1.0))
    assert cpc_estimate(critic, batch, batch) == pytest.approx(want, abs=1e-12)


def test_cpc_never_exceeds_log_batch_size():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(2, 12))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 2))
        kind = ("bilinear", "quadratic")[trial % 2]
        critic = Critic(kind, 2, 2,
                        theta=rng.normal(size=Critic(kind, 2, 2).theta.shape))
        assert cpc_estimate(critic, x, y) <= math.log(n) + 1e-9


def test_cpc_needs_square_batch():
    critic = _constant_critic(0.0)
    with pytest.raises(ValueError):
        cpc_estimate(critic, np.zeros((1, 1)), np.zeros((1, 1)))


# ------------------------------------------------------------------ #
# NWJ
# ------------------------------------------------------------------ #


def test_nwj_constant_one_is_zero():
    x, y = _pair(0.3, 32, 2)
    assert nwj_estimate(_constant_critic(1.0), x, y, x, y) == pytest.approx(0.0)


def test_nwj_constant_zero():
    x, y = _pair(0.3, 32, 3)
    got = nwj_estimate(_constant_critic(0.0), x, y, x, y)
    assert got == pytest.approx(-math.exp(-1.0))


def test_nwj_oracle_critic_is_unbiased():
    rho = 0.8
    true_info = -0.5 * math.log(1.0 - rho * rho)
    critic = gaussian_oracle_critic(rho)
    vals = []
    for seed in range(400):
        x, y = _pair(rho, 500, seed)
        rng = np.random.default_rng(10_000 + seed)
        perm = rng.permutation(500)
        vals.append(nwj_estimate(critic, x, y, x, y[perm]))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - true_info) <= 3.0 * se + 1e-3


@pytest.mark.parametrize("rho", [-0.5, 0.5, 0.9, 0.99, 0.999])
def test_gaussian_oracle_critic_matches_density_ratio(rho):
    # The quadratic Theta scores 1 + log[p(x, y) / (p(x) p(y))] of the standard
    # bivariate Gaussian, on joint pairs and on pairs of independent rows.
    x, y = _pair(rho, 500, 0)
    x, y = np.vstack([x, x]), np.vstack([y, y[::-1]])
    critic = gaussian_oracle_critic(rho)
    log_ratio = (-0.5 * math.log(1.0 - rho * rho)
                 - (rho * rho * (x * x + y * y) - 2.0 * rho * x * y) / (2.0 * (1.0 - rho * rho)))
    np.testing.assert_allclose(critic.score(x, y), 1.0 + log_ratio[:, 0], rtol=0, atol=1e-10)
    assert critic.metadata == {"rho": rho, "oracle": True}


def test_an_overflowing_nwj_exp_score_is_a_named_failure():
    # Every score is 1e4, finite, but its exp-score overflows: the estimate
    # would be -inf.  It is reported, with no numpy warning ahead of it.
    x, y = _pair(0.1, 8, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"^{baselines.NON_FINITE_SCORES}$"):
            nwj_estimate(_constant_critic(1e4), x, y, x, y)


# ------------------------------------------------------------------ #
# Critic plumbing
# ------------------------------------------------------------------ #


def test_critic_validation():
    with pytest.raises(ValueError):
        Critic("mystery", 1, 1)
    with pytest.raises(ValueError):
        Critic("fixed", 1, 1)
    with pytest.raises(ValueError):
        Critic("bilinear", 2, 2, theta=np.zeros(3))


def test_score_matrix_agrees_with_scores():
    rng = np.random.default_rng(6)
    critic = Critic("bilinear", 2, 1,
                    theta=rng.normal(size=_n_feats("bilinear", 2, 1)))
    xs = rng.normal(size=(4, 2))
    ys = rng.normal(size=(3, 1))
    mat = critic.score_matrix(xs, ys)
    assert mat.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert mat[i, j] == pytest.approx(
                float(critic.score(xs[[i]], ys[[j]])[0]))


def _n_feats(kind, dx, dy):
    return Critic(kind, dx, dy).theta.shape[0]


def test_nonfinite_critic_output_rejected():
    critic = Critic("bilinear", 1, 1, theta=np.full(4, np.nan))
    with pytest.raises(NumericalError):
        critic.score(np.zeros((3, 1)), np.zeros((3, 1)))


def test_a_cpc_row_beyond_the_float_range_is_a_named_failure():
    # Row 1 scores +-1.7e308, finite, but its own pair's score less the row's
    # largest overflows to -inf, and so would the estimate.  Problem 1 of the
    # stack has a zero Theta and stays finite.
    x, y = np.ones((2, 1)), np.array([[1.7e8], [-1.7e8]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"^{baselines.NON_FINITE_SCORES}$"):
            cpc_estimate(Critic("bilinear", 1, 1, theta=[1e300, 0.0, 0.0, 0.0]), x, y)
        mat = np.zeros((2, 2, 2))
        mat[0, 0, 0] = 1e300
        values, non_finite = baselines._estimates("cpc", mat, np.stack([x, x]),
                                                  np.stack([y, y]), None, 2)
    assert non_finite.tolist() == [True, False] and values[1] == 0.0


# ------------------------------------------------------------------ #
# Fitting
# ------------------------------------------------------------------ #


def test_fit_critic_deterministic_given_seed():
    x, y = _pair(0.7, 256, 7)
    spec = BatchSpec(batch_size=8, seed=12)
    a = fit_critic("bilinear", "cpc", x, y, spec=spec)
    b = fit_critic("bilinear", "cpc", x, y, spec=spec)
    assert np.array_equal(a.theta, b.theta)
    c = fit_critic("bilinear", "cpc", x, y, spec=BatchSpec(batch_size=8, seed=13))
    assert not np.array_equal(a.theta, c.theta)
    assert a.metadata["objective"] == "cpc"
    assert 1 <= a.metadata["iterations"] <= baselines._NEWTON_ITERATIONS
    assert a.metadata["decrement"] <= baselines._NEWTON_TOLERANCE


def test_fit_critic_rejects_fixed_and_unknown_objective():
    x, y = _pair(0.2, 64, 8)
    with pytest.raises(ValueError):
        fit_critic("fixed", "cpc", x, y)
    with pytest.raises(ValueError):
        fit_critic("bilinear", "mine", x, y)


@pytest.mark.parametrize("objective", ["cpc", "nwj"])
def test_fitted_estimates_near_zero_on_independent_data(objective):
    # Fit on one half, evaluate on the other; the held-out estimate of an
    # independent pair should hover around zero.
    vals = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((512, 1))
        y = rng.standard_normal((512, 1))
        spec = BatchSpec(batch_size=8, seed=seed)
        critic = fit_critic("bilinear", objective, x[:256], y[:256], spec=spec)
        if objective == "cpc":
            batches = [(x[k:k + 8], y[k:k + 8]) for k in range(256, 512, 8)]
            vals.append(np.mean([cpc_estimate(critic, bx, by)
                                 for bx, by in batches]))
        else:
            perm = rng.permutation(256)
            vals.append(nwj_estimate(critic, x[256:], y[256:],
                                     x[256:], y[256:][perm]))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) <= 3.0 * se + 5e-3


def test_cpc_saturates_below_log_batch_on_strong_dependence():
    # At rho 0.999 the true information exceeds log(8), yet every batch
    # estimate is bounded by log(8) even for the richer quadratic critic.
    # Below that bound the held-out mean still rises with the dependence.
    means = []
    for rho in (0.9, 0.99, 0.999):
        x, y = _pair(rho, 2048, 9)
        spec = BatchSpec(batch_size=8, seed=9)
        critic = fit_critic("quadratic", "cpc", x[:1024], y[:1024], spec=spec)
        vals = np.asarray([cpc_estimate(critic, x[k:k + 8], y[k:k + 8])
                           for k in range(1024, 2048, 8)])
        assert np.all(vals <= math.log(8.0) + 1e-9), rho
        means.append(vals.mean())
    assert -0.5 * math.log(1.0 - 0.999 ** 2) > math.log(8.0)
    assert means[0] < means[1] < means[2] < math.log(8.0), means
    assert means[2] > 0.8  # it does learn something


def test_nwj_oracle_variance_grows_with_dependence():
    n = 100
    resamples = 300
    out = {}
    for rho in (0.5, 0.9):
        critic = gaussian_oracle_critic(rho)
        vals = []
        for seed in range(resamples):
            x, y = _pair(rho, n, 20_000 + seed)
            rng = np.random.default_rng(50_000 + seed)
            perm = rng.permutation(n)
            vals.append(nwj_estimate(critic, x, y, x, y[perm]))
        true_info = -0.5 * math.log(1.0 - rho * rho)
        variance = float(np.var(vals, ddof=1))
        out[rho] = (variance, (math.exp(true_info) - 1.0) / n)
        assert variance >= 0.5 * out[rho][1]
    assert out[0.9][0] > out[0.5][0]


def test_batch_spec_validation():
    with pytest.raises(ValueError):
        BatchSpec(batch_size=1)
    assert [f.name for f in dataclasses.fields(BatchSpec)] == ["batch_size", "seed"]


@pytest.mark.parametrize("settings", [
    {"batch_size": 0}, {"batch_size": -3}, {"iterations": 300},
    {"step_size": 0.05}, {"iterations": 1, "step_size": 0.1},
    {"batch_size": 8, "step_size": 0.2}, {"tolerance": 1e-10},
])
def test_batch_spec_rejects_bad_sizes_and_steps(settings):
    # Every fit is a Newton solve to a fixed tolerance, so there are no step
    # counts, step sizes or tolerances to set.
    error = TypeError if set(settings) - {"batch_size", "seed"} else ValueError
    with pytest.raises(error):
        BatchSpec(**settings)


# ------------------------------------------------------------------ #
# Fitted estimates and tree edge weights
# ------------------------------------------------------------------ #


# The per-pair references, one problem at a time, with the critic's features
# built explicitly as monomials of (x, y).  Each fit is checked against
# scipy's optimum of the same objective: Theta at THETA_RTOL (relative to the
# largest entry), the objective, and so an edge weight, at VALUE_ATOL and the
# held-out estimates of the two critics at WEIGHT_ATOL nats.
THETA_RTOL = 1e-6
VALUE_ATOL = 1e-10
WEIGHT_ATOL = 1e-8


def _assert_close(got, want, rtol=THETA_RTOL):
    got, want = np.asarray(got, float), np.asarray(want, float)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


def _assert_estimates_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=WEIGHT_ATOL)


def _products(a):
    """The products a_i a_j with i <= j of rows ``a`` (n, d), in row-major order."""
    iu = np.triu_indices(a.shape[1])
    return (a[:, :, None] * a[:, None, :])[:, iu[0], iu[1]]


def _reference_features(kind, xs, ys):
    """The monomials that Theta's free cells weigh, in Theta's row-major order:
    for each x_a, every x_a y_b and then x_a; for ``quadratic`` the x_i x_j;
    then every y_b, for ``quadratic`` the y_i y_j, and 1."""
    rows = [np.hstack([xs[:, [a]] * ys, xs[:, [a]]]) for a in range(xs.shape[1])]
    x_quad, y_quad = ([_products(xs)], [_products(ys)]) if kind == "quadratic" else ([], [])
    return np.hstack(rows + x_quad + [ys] + y_quad + [np.ones((xs.shape[0], 1))])


def _as_columns(a):
    a = np.asarray(a, dtype=float)
    return a.reshape(-1, 1) if a.ndim == 1 else a


def _reference_fit_critic(kind, objective, xs, ys, spec):
    """A fitted critic the long way: scipy's optimum of its objective."""
    xs, ys = _as_columns(xs), _as_columns(ys)
    if objective == "nwj":
        theta, value = _oracle_nwj_fit(kind, xs, ys, spec.seed)
    else:
        theta, value = _oracle_cpc_fit(kind, xs, ys, spec.seed, spec.batch_size)
    return Critic(kind, xs.shape[1], ys.shape[1], theta=theta,
                  metadata={"objective": objective, "final_value": value, "seed": spec.seed})


def _scipy_optimum(negated, hessian, size):
    """The minimum of a smooth convex ``negated`` (value and gradient) with
    Hessian ``hessian``, from 0: scipy's trust-exact, then plain Newton steps,
    since trust-exact can stop at a gradient near 1e-8 on a flat optimum."""
    from scipy.optimize import minimize

    theta = minimize(negated, np.zeros(size), jac=True, hess=hessian,
                     method="trust-exact", options={"gtol": 1e-13}).x
    for _ in range(3):
        theta = theta - np.linalg.lstsq(hessian(theta), negated(theta)[1], rcond=None)[0]
    value, grad = negated(theta)
    assert np.linalg.norm(grad) <= 1e-12, grad
    return theta, -value


def _oracle_nwj_fit(kind, xs, ys, seed):
    """The NWJ optimum by scipy: Theta's free cells and the objective there.

    The objective is the library's, on explicit features: the mean joint
    score minus e^-1 times the mean exp-score over the product pairs, which
    are the n diagonal pairs and then the pairs of each permutation that
    ``default_rng(seed)`` draws, ``baselines._NWJ_PERMUTATIONS`` of them.
    """
    n = xs.shape[0]
    rng = np.random.default_rng(seed)
    y_rows = np.concatenate([np.arange(n)] + [rng.permutation(n)
                                              for _ in range(baselines._NWJ_PERMUTATIONS)])
    joint = _reference_features(kind, xs, ys).mean(axis=0)
    product = _reference_features(kind, np.tile(xs, (len(y_rows) // n, 1)), ys[y_rows])
    c = math.exp(-1.0)

    def negated(theta):
        exp = np.exp(product @ theta)
        return (c * exp.mean() - joint @ theta,
                c * (exp @ product) / len(product) - joint)

    def hessian(theta):
        return c * (product.T * np.exp(product @ theta)) @ product / len(product)

    return _scipy_optimum(negated, hessian, product.shape[1])


def _cpc_batches(n, batch_size, seed):
    """The rows of a CPC fit's batches: one permutation of the n rows drawn
    from ``default_rng(seed)``, cut into n // b batches, the remainder dropped."""
    rows = np.random.default_rng(seed).permutation(n)[:n - n % batch_size]
    return rows.reshape(-1, batch_size)


def _varies_with_y(kind, dx, dy):
    """Which features change with y.  The others add the same to every score
    of a row, so they cannot change a CPC value; a CPC fit holds them at 0."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, dx))
    return np.any(_reference_features(kind, x, rng.normal(size=(5, dy)))
                  != _reference_features(kind, x, rng.normal(size=(5, dy))), axis=0)


def _reference_cpc_objective(kind, xs, ys, seed, batch_size):
    """The CPC objective on explicit features, as functions of the features
    that vary with y: (negated value, its gradient) and the negated Hessian.

    The value is the mean over the rows i of every batch of ``s_ii -
    logsumexp_j s_ij + log b``; the Hessian is each row's softmax covariance
    of its pairs' features, averaged over the rows."""
    batches = _cpc_batches(xs.shape[0], batch_size, seed)
    b = batch_size
    x_rows = np.repeat(batches, b, axis=1).ravel()  # pair (i, j) of each batch
    y_rows = np.tile(batches, (1, b)).ravel()
    free = _varies_with_y(kind, xs.shape[1], ys.shape[1])
    feats = _reference_features(kind, xs[x_rows], ys[y_rows])[:, free].reshape(-1, b, free.sum())
    joint = feats[np.arange(len(feats)), np.arange(len(feats)) % b].mean(axis=0)

    def softmax(theta):
        scores = feats @ theta
        top = scores.max(axis=1, keepdims=True)
        exp = np.exp(scores - top)
        return exp / exp.sum(axis=1, keepdims=True), top[:, 0] + np.log(exp.sum(axis=1))

    def negated(theta):
        probs, lse = softmax(theta)
        value = joint @ theta - lse.mean() + math.log(b)
        return -value, np.einsum("rj,rjq->q", probs, feats) / len(feats) - joint

    def hessian(theta):
        probs = softmax(theta)[0]
        centred = feats - np.einsum("rj,rjq->rq", probs, feats)[:, None]
        return np.einsum("rj,rjq,rjs->qs", probs, centred, centred) / len(feats)

    return negated, hessian, free


def _oracle_cpc_fit(kind, xs, ys, seed, batch_size):
    """The CPC optimum by scipy: Theta's free cells, those that do not vary
    with y held at 0, and the objective there."""
    negated, hessian, free = _reference_cpc_objective(kind, xs, ys, seed, batch_size)
    theta, value = _scipy_optimum(negated, hessian, free.sum())
    cells = np.zeros(len(free))
    cells[free] = theta
    return cells, value


def _reference_scores(critic, xs, ys):
    out = _reference_features(critic.kind, xs, ys) @ critic.theta
    if not np.all(np.isfinite(out)):
        raise ValueError("critic produced non-finite scores")
    return out


def _reference_cpc_scores(critic, xs, ys):
    n = xs.shape[0]
    return _reference_scores(critic, np.repeat(xs, n, axis=0),
                             np.tile(ys, (n, 1))).reshape(n, n)


def _reference_cpc_value(scores):
    """The CPC estimate of one batch's score grid."""
    row_max = scores.max(axis=1, keepdims=True)
    log_mean = row_max[:, 0] + np.log(np.exp(scores - row_max).mean(axis=1))
    return float(np.mean(np.diag(scores) - log_mean))


def _reference_nwj_estimate(critic, joint_xs, joint_ys, product_xs, product_ys):
    joint = _reference_scores(critic, joint_xs, joint_ys)
    prod = _reference_scores(critic, product_xs, product_ys)
    return float(joint.mean() - math.exp(-1.0) * np.exp(prod).mean())


def _reference_estimate(method, critic, xs, ys, perm, batch_size=8):
    if method == "cpc":
        return float(np.mean([
            _reference_cpc_value(_reference_cpc_scores(critic, xs[k:k + batch_size],
                                                       ys[k:k + batch_size]))
            for k in range(0, xs.shape[0] - batch_size + 1, batch_size)]))
    return _reference_nwj_estimate(critic, xs, ys, xs, ys[perm])


def _reference_pair_weight(method, variables, seed, i, j):
    """One edge weight the long way: per-pair seed, then scipy's optimum of
    the objective on all the pair's samples."""
    pair_seed = int(np.random.SeedSequence((seed, i, j)).generate_state(1)[0])
    spec = BatchSpec(batch_size=8, seed=pair_seed)
    xs, ys = _as_columns(variables[i]), _as_columns(variables[j])
    return _reference_fit_critic("bilinear", method, xs, ys, spec).metadata["final_value"]


def _reference_weights(method, variables, seed):
    m = len(variables)
    return np.array([[0.0 if i == j else _reference_pair_weight(method, variables, seed, i, j)
                      for j in range(m)] for i in range(m)])


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_match_per_pair_reference(method):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(37, 2))  # 37 samples: CPC drops a partial batch
    variables = [x, x[:, :1] + 0.5 * rng.normal(size=(37, 1)), rng.normal(size=(37, 1))]
    got = baseline_edge_weights(variables, method, seed=3).w
    for i in range(3):
        for j in range(3):
            want = 0.0 if i == j else _reference_pair_weight(method, variables, 3, i, j)
            assert abs(got[i, j] - want) <= VALUE_ATOL


def test_baseline_edge_weights_need_aligned_variables():
    with pytest.raises(ValueError, match="aligned"):
        baseline_edge_weights([np.zeros((16, 1)), np.zeros((17, 1))], "cpc", 0)
    with pytest.raises(ValueError, match="at least 2"):
        baseline_edge_weights([np.zeros((16, 1))], "nwj", 0)


def test_fit_and_estimate_validates_eval_pairs():
    x, y = _pair(0.5, 64, 0)
    spec = BatchSpec()
    with pytest.raises(ValueError, match="do not match"):
        fit_and_estimate_stack("cpc", x[None], y[None], x[None], y[None, :-1], [0], spec)
    with pytest.raises(ValueError, match="one batch"):
        fit_and_estimate_stack("cpc", x[None], y[None], x[None, :7], y[None, :7], [0], spec)
    with pytest.raises(ValueError, match="objective"):
        fit_and_estimate_stack("mine", x[None], y[None], x[None], y[None], [0], spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_every_entry_point_rejects_non_finite_samples(bad):
    # Checked as the families check samples, before any fit: a ValueError
    # (exit 2), not a diverged fit or non-finite scores (exit 4).
    x, y = _pair(0.5, 64, 0)
    x_bad = x.copy()
    x_bad[3] = bad
    critic = _constant_critic(1.0)
    spec = BatchSpec()
    calls = {
        "score": lambda: critic.score(x_bad, y),
        "score_matrix": lambda: critic.score_matrix(x, x_bad),
        "cpc_estimate": lambda: cpc_estimate(critic, x_bad[:8], y[:8]),
        "nwj_estimate": lambda: nwj_estimate(critic, x, y, x_bad, y),
        "fit_critic": lambda: fit_critic("bilinear", "nwj", x, x_bad, spec),
        "fit_and_estimate_stack": lambda: fit_and_estimate_stack(
            "cpc", np.stack([x, x]), np.stack([y, y]), np.stack([x, x_bad]), np.stack([y, y]),
            [0, 1], spec),
        "baseline_edge_weights": lambda: baseline_edge_weights([y, x_bad], "nwj", 0),
    }
    messages = {}
    for name, call in calls.items():
        with pytest.raises(ValueError) as raised:
            call()
        messages[name] = str(raised.value)
    assert messages == {
        "score": "xs contains non-finite values",
        "score_matrix": "ys contains non-finite values",
        "cpc_estimate": "xs contains non-finite values",
        "nwj_estimate": "xs contains non-finite values",
        "fit_critic": "ys contains non-finite values",
        "fit_and_estimate_stack": "eval_xs[1] contains non-finite values",
        "baseline_edge_weights": "ys contains non-finite values",
    }
    # The families' edge weights say the same of the same variables.
    with pytest.raises(ValueError, match="^ys contains non-finite values$"):
        edge_weights([y, x_bad], FamilyConfig("linear_gaussian"))


def test_critic_scores_check_each_side_against_its_dimension():
    critic = Critic("bilinear", 2, 1)
    with pytest.raises(ValueError, match="^xs has dimension 1, expected 2$"):
        critic.score(np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="^ys has dimension 2, expected 1$"):
        critic.score_matrix(np.zeros((3, 2)), np.zeros((3, 2)))


@pytest.mark.parametrize("n", [8, 37, 300])
@pytest.mark.parametrize("batch_size", [8, 2, 4], ids=["sizes0", "sizes1", "sizes2"])
@pytest.mark.parametrize("objective", ["cpc", "nwj"])
@pytest.mark.parametrize("kind", ["bilinear", "quadratic"])
def test_fit_critic_matches_reference_bitwise(kind, objective, batch_size, n):
    # Despite its id, this compares at the tolerances of the references: the
    # fit is scipy's optimum of the same objective.  n = 8 is exactly one
    # default CPC batch and 37 leaves a partial one.  An NWJ fit takes no
    # batch size.
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 2))
    y = 0.5 * x[:, :1] + rng.normal(size=(n, 1))
    spec = BatchSpec(batch_size=batch_size, seed=n + 1)
    got = fit_critic(kind, objective, x, y, spec=spec)
    want = _reference_fit_critic(kind, objective, x, y, spec)
    _assert_close(got.theta, want.theta)
    assert abs(got.metadata["final_value"] - want.metadata["final_value"]) <= VALUE_ATOL
    assert 1 <= got.metadata["iterations"] <= baselines._NEWTON_ITERATIONS
    assert got.metadata["decrement"] <= baselines._NEWTON_TOLERANCE
    assert got.metadata["final_grad_norm"] < 1e-4
    assert set(got.metadata) == {"objective", "final_value", "final_grad_norm", "iterations",
                                 "decrement", "seed"} | (
        {"batch_size"} if objective == "cpc" else set())
    if objective == "nwj":
        assert fit_critic(kind, objective, x, y, spec=BatchSpec(seed=n + 1)).metadata == (
            got.metadata)


@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 3), (3, 2)])
@pytest.mark.parametrize("kind", ["bilinear", "quadratic"])
def test_matrix_form_equals_feature_form(kind, dims):
    # On fixed parameters, the matrix form's scores are the feature form's,
    # and the CPC fit's value, gradient and Hessian on its pair features are
    # the reference's on explicit features, to rtol 1e-12 of the largest entry.
    rng = np.random.default_rng(sum(dims))
    dx, dy = dims
    theta = 0.3 * rng.normal(size=_n_feats(kind, dx, dy))
    critic = Critic(kind, dx, dy, theta=theta)
    xs, ys = rng.normal(size=(16, dx)), rng.normal(size=(16, dy))
    _assert_close(critic.score(xs, ys), _reference_features(kind, xs, ys) @ theta, rtol=1e-12)
    grid = _reference_features(kind, np.repeat(xs, 16, axis=0), np.tile(ys, (16, 1))) @ theta
    _assert_close(critic.score_matrix(xs, ys), grid.reshape(16, 16), rtol=1e-12)
    # Two batches of 8 rows, seed 3.
    negated, hessian, free = _reference_cpc_objective(kind, xs, ys, 3, 8)
    cells = baselines._cells("cpc", kind, dx, dy)
    assert np.array_equal(free, cells[baselines._mask(kind, dx, dy)])
    rows, y_rows = baselines._pair_rows("cpc", 3, 16, 8)
    feats = baselines._pair_features(kind, xs[None], ys[None], rows[None], y_rows[None], cells)
    joint = feats[:, :, :16].mean(axis=2)
    value, weights = baselines._value_and_weights("cpc", theta[free] @ feats, 8)
    grad, hess = baselines._derivatives("cpc", feats, joint, weights, 8)
    want_value, want_grad = negated(theta[free])
    _assert_close(value[0], -want_value, rtol=1e-12)
    _assert_close(grad[0], -want_grad, rtol=1e-12)
    _assert_close(hess[0], hessian(theta[free]), rtol=1e-12)


@pytest.mark.parametrize("n, size", [(8, 8), (37, 8), (37, 5), (300, 2), (1000, 7)])
@pytest.mark.parametrize("seed", [1, 3, 40])
def test_every_batch_holds_distinct_rows(n, size, seed):
    # The batches are one permutation of the rows, cut into n // size
    # batches, so the rows of every batch are distinct and all batches cover
    # n - n % size rows.  Block 0 pairs each row with itself, and a row's
    # pairs over the blocks are its batch's rows, each once.
    rows, y_rows = baselines._pair_rows("cpc", seed, n, size)
    batches = rows.reshape(-1, size)
    assert np.array_equal(batches, _cpc_batches(n, size, seed))
    assert len(set(rows)) == len(rows) == n - n % size
    assert rows.min() >= 0 and rows.max() < n
    partners = y_rows.reshape(size, len(rows))
    assert np.array_equal(partners[0], rows)
    assert np.array_equal(np.sort(partners.T.reshape(-1, size, size), axis=2),
                          np.sort(batches, axis=1)[:, None].repeat(size, axis=1))


@pytest.mark.parametrize("perm", [None, "given"])
@pytest.mark.parametrize("objective", ["cpc", "nwj"])
def test_fit_and_estimate_matches_reference_bitwise(objective, perm):
    # Despite its id, this compares at the tolerances of the references, as
    # above.  CPC takes no eval permutation, and NWJ has no default one.
    x, y = _pair(0.99, 600, 11)
    x = 4.0 * x
    spec = BatchSpec(seed=5)
    order = np.random.default_rng(3).permutation(300) if perm else None
    if objective == "nwj" and order is None:
        with pytest.raises(ValueError, match="^an NWJ estimate needs perms, one eval "
                                             "permutation per problem$"):
            fit_and_estimate_stack(objective, x[None, :300], y[None, :300], x[None, 300:],
                                   y[None, 300:], [spec.seed], spec)
        return
    values, failures = fit_and_estimate_stack(
        objective, x[None, :300], y[None, :300], x[None, 300:], y[None, 300:], [spec.seed],
        spec, perms=None if order is None else order[None])
    assert failures == [None]
    critic = _reference_fit_critic("bilinear", objective, x[:300], y[:300], spec)
    want = _reference_estimate(objective, critic, x[300:], y[300:], order)
    _assert_estimates_close(values[0], want)


@pytest.mark.parametrize("n", [8, 300])
@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_match_reference_with_mixed_dims(method, n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 2))
    variables = [x, x[:, :1] + 0.5 * rng.normal(size=(n, 1)), rng.normal(size=n)]
    got = baseline_edge_weights(variables, method, seed=4).w
    np.testing.assert_allclose(got, _reference_weights(method, variables, 4), rtol=0,
                               atol=VALUE_ATOL)


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_match_reference_on_sim2(method):
    # All 42 pairs, var0's too: it reaches |x| ~ 10.  Each pair's fit is
    # scipy's optimum: Theta and the objective, which is the weight, bit for
    # bit the lone fit's.
    variables = simulate(SimulationConfig(scenario="sim2", m=7, d=2, n=300, seed=1))[0].variables
    got = baseline_edge_weights(variables, method, seed=1).w
    for i in range(7):
        for j in range(7):
            if i != j:
                spec = BatchSpec(seed=int(np.random.SeedSequence((1, i, j)).generate_state(1)[0]))
                fit = fit_critic("bilinear", method, variables[i], variables[j], spec)
                want = _reference_fit_critic("bilinear", method, variables[i], variables[j], spec)
                _assert_close(fit.theta, want.theta)
                assert abs(got[i, j] - want.metadata["final_value"]) <= VALUE_ATOL
                assert got[i, j] == fit.metadata["final_value"]


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_critic_edge_weights_on_sim2_are_not_negative(method):
    # A weight is its certified fit's value, and each objective is 0 at a
    # critic of its family (Theta = 0 for CPC, the constant 1 for NWJ), so no
    # weight falls below 0.  A CPC value is at most log of its batch size, 8.
    for n in (30, 300):
        for seed in range(6):
            config = SimulationConfig(scenario="sim2", m=7, d=2, n=n, seed=seed)
            w = baseline_edge_weights(simulate(config)[0].variables, method, seed).w
            assert w.min() >= 0.0, (n, seed, w.min())
            if method == "cpc":
                assert w.max() <= math.log(8.0), (n, seed, w.max())


def test_a_separable_cpc_fit_is_certified_near_its_supremum():
    # The quadratic critic can rank every row's own pair first in its batch,
    # so the CPC objective's supremum, log 5, is attained by no finite Theta.
    # The fit is still certified: its decrement falls below the tolerance
    # while Theta grows, past 300 here, and its value approaches log 5.  That
    # value is the objective at the fitted Theta, as an edge weight is.
    rng = np.random.default_rng(8)
    x = rng.normal(size=(8, 2))
    y = 0.5 * x[:, :1] + rng.normal(size=(8, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", FitWarning)
        critic = fit_critic("quadratic", "cpc", x, y, BatchSpec(batch_size=5, seed=9))
    value = critic.metadata["final_value"]
    assert critic.metadata["decrement"] <= baselines._NEWTON_TOLERANCE
    assert math.isfinite(value) and value <= math.log(5.0)
    assert math.log(5.0) - value < 1e-9
    negated, _, free = _reference_cpc_objective("quadratic", x, y, 9, 5)
    assert abs(-negated(critic.theta[free])[0] - value) <= VALUE_ATOL


def _raises_one_numerical_error(call) -> str:
    """The message of the NumericalError ``call`` raises, checking that it
    sends no FitWarning first."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError) as raised:
            call()
    assert not [w for w in caught if issubclass(w.category, FitWarning)]
    return str(raised.value)


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_diverged_fits_name_their_pairs(method):
    # Gradients on var0's pairs overflow; var1 x var2 stays finite.
    rng = np.random.default_rng(0)
    variables = [1e300 * rng.normal(size=(40, 1)), 1e10 * rng.normal(size=(40, 1)),
                 1e10 * rng.normal(size=(40, 1))]
    message = _raises_one_numerical_error(
        lambda: baseline_edge_weights(variables, method, seed=0))
    assert message == (f"{method} critic fit diverged to non-finite parameters for pairs "
                       "(0, 1), (0, 2), (1, 0), (2, 0)")


@pytest.mark.parametrize("method,scale,newton_iterations,value,message", [
    # Each fit returns its finite Theta with an objective of -inf, as a last
    # full step whose exp-scores overflow would leave it.  The weight is the
    # fitted value, so it must not reach the weight matrix.
    ("cpc", 1.0, None, -np.inf, "cpc critic produced non-finite scores for pairs "
                                "(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)"),
    # var0's pairs diverge at once; the others stop after one Newton step.
    ("nwj", 1e300, 1, None, "nwj critic fit diverged to non-finite parameters for pairs "
                            "(0, 1), (0, 2), (1, 0), (2, 0); critic fit did not reach the "
                            "Newton decrement tolerance for pairs (1, 2), (2, 1)"),
], ids=["cpc-scores", "nwj-both"])
def test_failed_pairs_raise_one_error_naming_each_with_its_reason(method, scale,
                                                                  newton_iterations, value,
                                                                  message, monkeypatch):
    if newton_iterations is not None:
        monkeypatch.setattr(baselines, "_NEWTON_ITERATIONS", newton_iterations)
    if value is not None:
        real = baselines._newton

        def fit(*args):
            mat, fitted, *rest = real(*args)
            return (mat, np.full_like(fitted, value), *rest)

        monkeypatch.setattr(baselines, "_newton", fit)
    rng = np.random.default_rng(0)
    variables = [scale * rng.normal(size=(40, 1)), rng.normal(size=(40, 1)),
                 rng.normal(size=(40, 1))]
    assert _raises_one_numerical_error(
        lambda: baseline_edge_weights(variables, method, seed=0)) == message


def test_nwj_fit_that_stops_short_of_the_tolerance_is_a_named_failure(monkeypatch):
    # Two Newton steps do not reach the decrement tolerance from Theta = 0.
    monkeypatch.setattr(baselines, "_NEWTON_ITERATIONS", 2)
    x, y = _pair(0.9, 200, 5)
    values, failures = fit_and_estimate_stack("nwj", x[None], y[None], x[None], y[None], [5],
                                              BatchSpec(), perms=np.arange(200)[None])
    assert failures == [baselines.NOT_CONVERGED] and math.isnan(values[0])
    with pytest.warns(FitWarning, match="^critic fit did not reach the Newton decrement "
                                        "tolerance$"):
        critic = fit_critic("bilinear", "nwj", x, y, BatchSpec(seed=5))
    assert critic.metadata["iterations"] == 2
    assert critic.metadata["decrement"] > baselines._NEWTON_TOLERANCE
    assert _raises_one_numerical_error(lambda: baseline_edge_weights([x, y], "nwj", 0)) == (
        "nwj critic fit did not reach the Newton decrement tolerance for pairs (0, 1), (1, 0)")


@pytest.mark.parametrize("level", [0.0, 3.0])
def test_nwj_weights_of_constant_and_duplicated_coordinates(level):
    # A duplicated coordinate and a constant variable make the Newton
    # system rank-deficient; the ascent pinned pair (1, 0) at -50 here.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 2))
    variables = [x, np.hstack([x[:, :1], x[:, :1]]), np.full((200, 1), level)]
    w = baseline_edge_weights(variables, "nwj", 0).w
    # A weight is its fit's value, which is 0 at the constant critic 1: here
    # it falls below 0 only by rounding, as far as -2.2e-16.
    assert np.all(np.isfinite(w)) and np.all(w >= -1e-15)
    assert w[0, 1] > 0.09 and w[1, 0] > 0.09
    # Nothing is known of or from a constant.
    np.testing.assert_allclose(np.concatenate([w[2], w[:, 2]]), 0.0, atol=1e-12)
    for i in range(3):
        for j in range(3):
            if i != j:
                seed = int(np.random.SeedSequence((0, i, j)).generate_state(1)[0])
                lone = fit_critic("bilinear", "nwj", variables[i], variables[j],
                                  BatchSpec(seed=seed))
                assert lone.metadata["final_value"] == w[i, j]


@pytest.mark.parametrize("scale", [1e-7, 1e4, 1e7])
def test_nwj_weights_do_not_depend_on_the_scale_of_a_variable(scale):
    # Newton's method is affine invariant, and the least-squares solve is
    # scaled to a unit diagonal, so no coordinate's scale drops a direction.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(300, 2))
    y = x[:, :1] + rng.normal(size=(300, 1))
    z = rng.normal(size=(300, 1))
    want = baseline_edge_weights([x, y, z], "nwj", 0).w
    got = baseline_edge_weights([scale * x, y, z / scale], "nwj", 0).w
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_cpc_weights_ignore_scale_duplicates_and_constants():
    # Newton's method is affine invariant and the solve is scaled to a unit
    # diagonal, so rescaling a variable or duplicating a coordinate moves no
    # weight.  A constant target scores every pair of a row alike, so it
    # scores 0 up to the rounding of log b; a constant source has nothing to
    # tell.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 2))
    y = 0.8 * x[:, :1] + 0.6 * rng.standard_normal((200, 1))
    want = baseline_edge_weights([x, y], "cpc", 0).w
    assert want[0, 1] > 0.1 and want[1, 0] > 0.1
    constant = np.full((200, 1), 3.0)
    for variables in ([x, 1e6 * y], [1e-6 * x, y], [np.hstack([x, x[:, :1]]), y],
                      [x, y, constant]):
        w = baseline_edge_weights(variables, "cpc", 0).w
        np.testing.assert_allclose(w[:2, :2], want, rtol=0, atol=1e-8)
        for i, j in zip(*np.nonzero(~np.eye(len(variables), dtype=bool))):
            seed = int(np.random.SeedSequence((0, i, j)).generate_state(1)[0])
            lone = fit_critic("bilinear", "cpc", variables[i], variables[j],
                              BatchSpec(seed=seed))
            assert lone.metadata["final_value"] == w[i, j]
    np.testing.assert_allclose(w[:, 2], 0.0, atol=1e-15)
    np.testing.assert_allclose(w[2], 0.0, atol=1e-12)


def test_cpc_fit_that_stops_short_of_the_tolerance_is_a_named_failure(monkeypatch):
    monkeypatch.setattr(baselines, "_NEWTON_ITERATIONS", 1)
    x, y = _pair(0.9, 200, 5)
    values, failures = fit_and_estimate_stack("cpc", x[None], y[None], x[None], y[None], [5],
                                              BatchSpec())
    assert failures == [baselines.NOT_CONVERGED] and math.isnan(values[0])
    with pytest.warns(FitWarning, match="^critic fit did not reach the Newton decrement "
                                        "tolerance$"):
        critic = fit_critic("bilinear", "cpc", x, y, BatchSpec(seed=5))
    assert critic.metadata["iterations"] == 1
    assert critic.metadata["decrement"] > baselines._NEWTON_TOLERANCE


def test_cpc_estimates_score_uncapped(caplog):
    # Theta's (x, y) cell at 200 scores pairs in several of problem 0's 8
    # batches of 64 rows beyond +-50.  The estimate takes the scores as they
    # are: it is the reference's, and logs nothing.  Problem 1's zero Theta
    # scores 0.
    rng = np.random.default_rng(0)
    xs, ys = rng.normal(size=(2, 64, 1)), rng.normal(size=(2, 64, 1))
    mat = np.zeros((2, 2, 2))
    mat[0, 0, 0] = 200.0
    large = np.abs(200.0 * xs[0].reshape(8, 8, 1) * ys[0].reshape(8, 1, 8)) > 50.0
    assert np.count_nonzero(large.any(axis=(1, 2))) > 1
    with caplog.at_level(logging.DEBUG):
        values, non_finite = baselines._estimates("cpc", mat, xs, ys, None, 8)
    assert caplog.records == []
    assert not non_finite.any()
    critic = Critic("bilinear", 1, 1, theta=mat[0].ravel())
    assert values[0] == pytest.approx(_reference_estimate("cpc", critic, xs[0], ys[0], None),
                                      rel=1e-12)
    assert values[1] == 0.0


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_do_not_depend_on_stack_chunks(method, monkeypatch):
    # Large inputs fit their pairs in several stacked chunks; a tiny float
    # budget forces one pair per chunk here.
    rng = np.random.default_rng(9)
    variables = [rng.normal(size=(40, 2)), rng.normal(size=(40, 1)), rng.normal(size=(40, 2))]
    whole = baseline_edge_weights(variables, method, seed=2).w
    monkeypatch.setattr(baselines, "_NEWTON_FLOATS", 1)
    assert baseline_edge_weights(variables, method, seed=2).w.tobytes() == whole.tobytes()


@pytest.mark.parametrize("objective, solves", [("cpc", 6), ("nwj", 4)])
def test_a_stack_fits_within_its_float_budget(objective, solves, monkeypatch):
    # A sweep cell's stack (sim2, m=7, d=2, n=300): its 42 pairs are fitted in
    # chunks of as many problems as _NEWTON_FLOATS holds.  numpy reports its
    # arrays to tracemalloc, so the peak counts every array the call makes.
    variables = simulate(SimulationConfig(scenario="sim2", m=7, d=2, n=300, seed=1))[0].variables
    pairs = [(i, j) for i in range(7) for j in range(7) if i != j]
    xs = np.stack([variables[i] for i, _ in pairs])
    ys = np.stack([variables[j] for _, j in pairs])
    chunks = []
    real = baselines._newton
    monkeypatch.setattr(baselines, "_newton", lambda *args: chunks.append(1) or real(*args))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fit_and_estimate_stack(objective, xs, ys, xs, ys, list(range(42)), BatchSpec(),
                               perms=np.tile(np.arange(300), (42, 1)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(chunks) == solves
    assert peak <= 8 * baselines._NEWTON_FLOATS


@pytest.mark.parametrize("method, solves", [("cpc", 6), ("nwj", 3)])
def test_edge_weight_chunks_budget_no_eval_pairs(method, solves, monkeypatch):
    # The same sweep cell as edge weights: a weight is its fit's value, so a
    # chunk holds no eval pairs and fits at least as many problems as the 6
    # and 4 solves of the estimates above.
    variables = simulate(SimulationConfig(scenario="sim2", m=7, d=2, n=300, seed=1))[0].variables
    chunks = []
    real = baselines._newton
    monkeypatch.setattr(baselines, "_newton", lambda *args: chunks.append(1) or real(*args))
    baseline_edge_weights(variables, method, 1)
    assert len(chunks) == solves


def _chunk_peaks(monkeypatch):
    """Each ``_newton`` and ``_estimates`` call's name, problem count and its
    ``tracemalloc`` peak above the memory it started from, in bytes.  numpy
    reports its arrays to tracemalloc, so a peak counts every array a solve
    makes, its feature build's included."""
    peaks = []

    def traced(real):
        def call(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = real(*args)
            peaks.append((real.__name__, len(args[2]),
                          tracemalloc.get_traced_memory()[1] - before))
            return out
        return call

    monkeypatch.setattr(baselines, "_newton", traced(baselines._newton))
    monkeypatch.setattr(baselines, "_estimates", traced(baselines._estimates))
    return peaks


def _baselines_stack():
    """The fit and eval stacks of the baselines command at n=2048 and four
    rhos by three seeds: 12 problems of 1024 fit and 1024 eval pairs."""
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(12, 2048, 1))
    ys = 0.9 * xs + rng.normal(size=(12, 2048, 1))
    perms = np.stack([rng.permutation(1024) for _ in range(12)])
    return (xs[:, :1024], ys[:, :1024], xs[:, 1024:], ys[:, 1024:]), perms


@pytest.mark.parametrize("case", ["edge_cpc", "edge_nwj", "edge_nwj_9", "stack_cpc",
                                  "stack_nwj"])
def test_no_critic_chunk_passes_its_float_budget(case, monkeypatch):
    # A chunk's peak, feature build included, stays within _NEWTON_FLOATS: for
    # a sweep cell's edge weights (sim2, m=7, d=2, n=300), for the baselines
    # command's n=2048 stacks, and at a budget of exactly 9 NWJ problems of
    # the sweep cell.
    kind, objective = case.split("_")[:2]
    if case == "edge_nwj_9":
        fixed, floats = baselines._solve_floats("nwj", 300, 2, 2, BatchSpec().batch_size)
        monkeypatch.setattr(baselines, "_NEWTON_FLOATS", fixed + 9 * floats)
    if kind == "edge":
        variables = simulate(SimulationConfig(scenario="sim2", m=7, d=2, n=300,
                                              seed=1))[0].variables
        fit = functools.partial(baseline_edge_weights, variables, objective, 1)
    else:
        stacks, perms = _baselines_stack()
        fit = functools.partial(fit_and_estimate_stack, objective, *stacks, list(range(12)),
                                BatchSpec(), perms=perms)
    peaks = _chunk_peaks(monkeypatch)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        fit()
    finally:
        if not tracing:
            tracemalloc.stop()
    sizes = [size for name, size, _ in peaks if name == "_newton"]
    assert len(sizes) > 1 and max(sizes) > 1  # several chunks, of several problems
    if case == "edge_nwj_9":
        assert max(sizes) == 9
    assert max(peak for _, _, peak in peaks) <= 8 * baselines._NEWTON_FLOATS, peaks


def _stack_problems(n, dims=(1, 1)):
    """Three differently scaled aligned problems, stacked: (3, n, d) each."""
    rng = np.random.default_rng(n)
    xs = np.stack([scale * rng.normal(size=(n, dims[0])) for scale in (1.0, 2.0, 0.5)])
    ys = xs[..., :1] + rng.normal(size=(3, n, dims[1]))
    return xs, ys


@pytest.mark.parametrize("n", [37, 300])
@pytest.mark.parametrize("objective", ["cpc", "nwj"])
def test_ascent_with_a_shared_seed_equals_lone_fits(objective, n):
    # Problems 0 and 1 share a seed, so they draw their batches, or their
    # product pairs, once.
    xs, ys = _stack_problems(n, dims=(2, 1))
    seeds = [4, 4, 9]
    theta = baselines._newton(objective, "bilinear", xs, ys, seeds, 6)[0]
    for p, seed in enumerate(seeds):
        lone = fit_critic("bilinear", objective, xs[p], ys[p],
                          spec=BatchSpec(batch_size=6, seed=seed))
        assert theta[p][baselines._mask("bilinear", 2, 1)].tobytes() == lone.theta.tobytes()


@pytest.mark.parametrize("objective", ["cpc", "nwj"])
def test_stacked_estimates_equal_stacks_of_one(objective):
    xs, ys = _stack_problems(200)
    seeds = [3, 8, 3]
    spec = BatchSpec(batch_size=6)
    perms = np.stack([np.random.default_rng(p).permutation(100) for p in range(3)])
    values, failures = fit_and_estimate_stack(objective, xs[:, :100], ys[:, :100],
                                              xs[:, 100:], ys[:, 100:], seeds, spec,
                                              perms=perms)
    assert failures == [None, None, None]
    for p, seed in enumerate(seeds):
        one = slice(p, p + 1)
        want = fit_and_estimate_stack(objective, xs[one, :100], ys[one, :100],
                                      xs[one, 100:], ys[one, 100:], [seed], spec,
                                      perms=perms[one])
        assert values[p:p + 1].tobytes() == want[0].tobytes() and want[1] == [None]


@pytest.mark.parametrize("objective", ["cpc", "nwj"])
def test_stacked_estimates_do_not_depend_on_chunk_size(objective, monkeypatch):
    xs, ys = _stack_problems(64, dims=(2, 2))
    xs[1] *= 1e200  # one problem diverges; its report must not move either
    spec = BatchSpec()
    perms = np.stack([np.random.default_rng(p).permutation(64) for p in range(3)])
    whole = fit_and_estimate_stack(objective, xs, ys, xs, ys, [5, 5, 6], spec, perms=perms)
    monkeypatch.setattr(baselines, "_NEWTON_FLOATS", 1)
    chunked = fit_and_estimate_stack(objective, xs, ys, xs, ys, [5, 5, 6], spec, perms=perms)
    assert whole[1] == chunked[1] == [None, baselines.DIVERGED, None]
    assert whole[0].tobytes() == chunked[0].tobytes()
    assert math.isnan(whole[0][1])


def test_stacked_estimates_report_non_finite_scores_per_problem():
    # A finite critic overflows on an eval pair far outside the fit rows.
    xs, ys = _stack_problems(64)
    perms = np.tile(np.arange(64), (3, 1))
    eval_xs, eval_ys = xs.copy(), ys.copy()
    eval_xs[2, 5] = eval_ys[2, 5] = 1e308
    values, failures = fit_and_estimate_stack("nwj", xs, ys, eval_xs, eval_ys, [1, 2, 3],
                                              BatchSpec(), perms=perms)
    assert failures == [None, None, baselines.NON_FINITE_SCORES]
    assert np.isfinite(values[:2]).all() and math.isnan(values[2])
    # Problem 0 is positively dependent; one eval row scaled by 1e3 scores
    # finitely, about 1e6 times the critic's xy weight, but its exp-score
    # overflows, which would make the estimate -inf.
    clean, _ = fit_and_estimate_stack("nwj", xs, ys, xs, ys, [1, 2, 3], BatchSpec(),
                                      perms=perms)
    eval_xs, eval_ys = xs.copy(), ys.copy()
    eval_xs[0, 5] *= 1e3
    eval_ys[0, 5] *= 1e3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, failures = fit_and_estimate_stack("nwj", xs, ys, eval_xs, eval_ys, [1, 2, 3],
                                                  BatchSpec(), perms=perms)
    assert failures == [baselines.NON_FINITE_SCORES, None, None]
    assert math.isnan(values[0]) and values[1:].tobytes() == clean[1:].tobytes()


def test_stacked_estimates_validate_their_stacks():
    xs, ys = _stack_problems(32)
    spec = BatchSpec()
    with pytest.raises(ValueError, match="do not match"):
        fit_and_estimate_stack("cpc", xs, ys, xs, ys, [0, 1], spec)
    with pytest.raises(ValueError, match="do not match"):
        fit_and_estimate_stack("cpc", xs, ys[:2], xs, ys, [0, 1, 2], spec)
    with pytest.raises(ValueError, match="do not match"):
        fit_and_estimate_stack("nwj", xs, ys, xs, ys[:, :-1], [0, 1, 2], spec)
    for perms in (np.tile(np.arange(31), (3, 1)), None):
        with pytest.raises(ValueError, match="^an NWJ estimate needs perms, one eval "
                                             "permutation per problem$"):
            fit_and_estimate_stack("nwj", xs, ys, xs, ys, [0, 1, 2], spec, perms=perms)
    with pytest.raises(ValueError, match="not enough eval samples for one batch"):
        fit_and_estimate_stack("cpc", xs, ys, xs[:, :7], ys[:, :7], [0, 1, 2], spec)
    # Too few fit rows is reported first.
    with pytest.raises(ValueError, match="not enough samples for one batch"):
        fit_and_estimate_stack("cpc", xs[:, :7], ys[:, :7], xs[:, :7], ys[:, :7], [0, 1, 2],
                               spec)
