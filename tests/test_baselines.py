import logging
import math
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


def test_score_cap_prevents_overflow():
    critic = _constant_critic(1e4)
    x, y = _pair(0.1, 8, 4)
    got = nwj_estimate(critic, x, y, x, y)
    assert np.isfinite(got)
    assert got == pytest.approx(50.0 - math.exp(49.0))


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


# ------------------------------------------------------------------ #
# Fitting
# ------------------------------------------------------------------ #


def test_fit_critic_deterministic_given_seed():
    x, y = _pair(0.7, 256, 7)
    spec = BatchSpec(batch_size=8, iterations=100, step_size=0.05, seed=12)
    a = fit_critic("bilinear", "cpc", x, y, spec=spec)
    b = fit_critic("bilinear", "cpc", x, y, spec=spec)
    assert np.array_equal(a.theta, b.theta)
    c = fit_critic("bilinear", "cpc", x, y,
                   spec=BatchSpec(batch_size=8, iterations=100,
                                  step_size=0.05, seed=13))
    assert not np.array_equal(a.theta, c.theta)
    assert a.metadata["objective"] == "cpc"
    assert a.metadata["iterations"] == 100


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
        spec = BatchSpec(batch_size=8, iterations=150, step_size=0.05, seed=seed)
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
    # True information exceeds log(8), yet every batch estimate is capped
    # at log(8) even for the richer quadratic critic.
    rho = 0.999
    true_info = -0.5 * math.log(1.0 - rho * rho)
    assert true_info > math.log(8.0)
    x, y = _pair(rho, 2048, 9)
    spec = BatchSpec(batch_size=8, iterations=800, step_size=0.2, seed=9)
    critic = fit_critic("quadratic", "cpc", x[:1024], y[:1024], spec=spec)
    vals = [cpc_estimate(critic, x[k:k + 8], y[k:k + 8])
            for k in range(1024, 2048, 8)]
    vals = np.asarray(vals)
    assert np.all(vals <= math.log(8.0) + 1e-9)
    assert vals.mean() < math.log(8.0)
    assert vals.mean() > 0.8  # it does learn something


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
    with pytest.raises(ValueError):
        BatchSpec(iterations=0)


@pytest.mark.parametrize("settings", [
    {"batch_size": 0}, {"batch_size": -3}, {"iterations": -3},
    {"step_size": math.nan}, {"step_size": math.inf}, {"step_size": -math.inf},
    {"step_size": 0.0},
])
def test_batch_spec_rejects_bad_sizes_and_steps(settings):
    with pytest.raises(ValueError):
        BatchSpec(**settings)


# ------------------------------------------------------------------ #
# Fitted estimates and tree edge weights
# ------------------------------------------------------------------ #


# The per-pair reference: one problem at a time, on batches drawn by the
# scheme below, with the critic's features built explicitly as monomials of
# (x, y).  The library scores in matrix form, which rounds differently, so
# fits are compared at REFERENCE_RTOL (relative to the largest entry) on
# inputs whose fits converge; estimates of a fitted critic at the same rtol.
REFERENCE_RTOL = 1e-10
_baselines_log = logging.getLogger("usable_info.baselines")


def _assert_close(got, want, rtol=REFERENCE_RTOL):
    got, want = np.asarray(got, float), np.asarray(want, float)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


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


def _reference_draws(objective, n, spec):
    """Each step's rows: (batch,) for CPC, (joint, product x, product y) for NWJ.

    Mini-batch epochs: a permutation of the n rows cut into n // size
    batches, the remainder dropped.  The seed's generator draws a block of
    steps at a time, one permuted call for the epochs the block lacks, then
    for NWJ one integers call for the block's product rows.
    """
    rng = np.random.default_rng(spec.seed)
    size = spec.batch_size if objective == "cpc" else min(n, 256)
    width = size if objective == "cpc" else 3 * size
    block = max(1, min(spec.iterations, baselines._BLOCK_FLOATS // width))
    batches, steps = [], []
    while len(steps) < spec.iterations:
        if len(batches) < block:
            epochs = math.ceil((block - len(batches)) / (n // size))
            for perm in rng.permuted(np.tile(np.arange(n), (epochs, 1)), axis=1):
                batches += [perm[k:k + size] for k in range(0, n - size + 1, size)]
        joint, batches = batches[:block], batches[block:]
        if objective == "cpc":
            steps += [(rows,) for rows in joint]
        else:
            product = rng.integers(0, n, (block, 2 * size))
            steps += [(rows, p[:size], p[size:]) for rows, p in zip(joint, product)]
    return steps[:spec.iterations]


def _reference_fit_critic(kind, objective, xs, ys, spec, cap=50.0):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1)
    if ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    theta = Critic(kind, xs.shape[1], ys.shape[1]).theta.copy()
    value = math.nan
    grad_norm = math.inf
    for rows in _reference_draws(objective, xs.shape[0], spec):
        if objective == "cpc":
            idx, = rows
            value, grad = _reference_cpc_value_grad(kind, theta, xs[idx], ys[idx], cap)
        else:
            j_idx, px, py = rows
            value, grad = _reference_nwj_value_grad(kind, theta, xs[j_idx], ys[j_idx],
                                                    xs[px], ys[py], cap)
        theta = theta + spec.step_size * grad
        grad_norm = float(np.linalg.norm(grad))
    return Critic(kind, xs.shape[1], ys.shape[1], theta=theta, metadata={
        "objective": objective,
        "final_value": value,
        "final_grad_norm": grad_norm,
        "iterations": spec.iterations,
        "step_size": spec.step_size,
        "batch_size": spec.batch_size,
        "seed": spec.seed,
        "score_cap": cap,
    })


def _reference_cpc_value_grad(kind, theta, bx, by, cap):
    n = bx.shape[0]
    xx = np.repeat(bx, n, axis=0)
    yy = np.tile(by, (n, 1))
    feats = _reference_features(kind, xx, yy)  # (n*n, q), row i*n+j is (x_i, y_j)
    scores = (feats @ theta).reshape(n, n)
    scores = np.clip(scores, -cap, cap)
    row_max = scores.max(axis=1, keepdims=True)
    exp = np.exp(scores - row_max)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    log_mean = row_max[:, 0] + np.log(exp.mean(axis=1))
    value = float(np.mean(np.diag(scores) - log_mean))
    feats = feats.reshape(n, n, -1)
    diag = feats[np.arange(n), np.arange(n)]
    weighted = np.einsum("ij,ijq->iq", softmax, feats)
    grad = (diag - weighted).mean(axis=0)
    return value, grad


def _reference_nwj_value_grad(kind, theta, jx, jy, px, py, cap):
    j_feats = _reference_features(kind, jx, jy)
    p_feats = _reference_features(kind, px, py)
    j_scores = np.clip(j_feats @ theta, -cap, cap)
    p_scores = np.clip(p_feats @ theta, -cap, cap)
    exp_p = np.exp(p_scores)
    value = float(j_scores.mean() - math.exp(-1.0) * exp_p.mean())
    grad = j_feats.mean(axis=0) - math.exp(-1.0) * (exp_p[:, None] * p_feats).mean(axis=0)
    return value, grad


def _reference_scores(critic, xs, ys):
    out = _reference_features(critic.kind, xs, ys) @ critic.theta
    if not np.all(np.isfinite(out)):
        raise ValueError("critic produced non-finite scores")
    return out


def _reference_capped(scores, cap=50.0):
    clipped = np.count_nonzero(np.abs(scores) > cap)
    if clipped:
        _baselines_log.info("capped %d critic scores at +-%g", clipped, cap)
    return np.clip(scores, -cap, cap)


def _reference_cpc_estimate(critic, xs, ys):
    n = xs.shape[0]
    scores = _reference_scores(critic, np.repeat(xs, n, axis=0),
                               np.tile(ys, (n, 1))).reshape(n, n)
    scores = _reference_capped(scores)
    row_max = scores.max(axis=1, keepdims=True)
    log_mean = row_max[:, 0] + np.log(np.exp(scores - row_max).mean(axis=1))
    return float(np.mean(np.diag(scores) - log_mean))


def _reference_nwj_estimate(critic, joint_xs, joint_ys, product_xs, product_ys):
    joint = _reference_capped(_reference_scores(critic, joint_xs, joint_ys))
    prod = _reference_capped(_reference_scores(critic, product_xs, product_ys))
    return float(joint.mean() - math.exp(-1.0) * np.exp(prod).mean())


def _reference_estimate(method, critic, xs, ys, perm, batch_size=8):
    if method == "cpc":
        return float(np.mean([
            _reference_cpc_estimate(critic, xs[k:k + batch_size], ys[k:k + batch_size])
            for k in range(0, xs.shape[0] - batch_size + 1, batch_size)]))
    return _reference_nwj_estimate(critic, xs, ys, xs, ys[perm])


def _reference_pair_weight(method, variables, seed, i, j):
    """One edge weight the long way: per-pair seed, fit, then estimate."""
    pair_seed = int(np.random.SeedSequence((seed, i, j)).generate_state(1)[0])
    spec = BatchSpec(batch_size=8, iterations=200, step_size=0.05, seed=pair_seed)
    xs, ys = np.asarray(variables[i], float), np.asarray(variables[j], float)
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1)
    if ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    critic = _reference_fit_critic("bilinear", method, xs, ys, spec)
    perm = np.random.default_rng(pair_seed).permutation(ys.shape[0])
    return _reference_estimate(method, critic, xs, ys, perm)


def _reference_weights(method, variables, seed):
    m = len(variables)
    return np.array([[0.0 if i == j else _reference_pair_weight(method, variables, seed, i, j)
                      for j in range(m)] for i in range(m)])


def _capped_records(caplog):
    return sum(1 for r in caplog.records
               if r.name == "usable_info.baselines" and r.getMessage().startswith("capped"))


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_match_per_pair_reference(method):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(37, 2))  # 37 samples: CPC drops a partial batch
    variables = [x, x[:, :1] + 0.5 * rng.normal(size=(37, 1)), rng.normal(size=(37, 1))]
    got = baseline_edge_weights(variables, method, seed=3).w
    for i in range(3):
        for j in range(3):
            want = 0.0 if i == j else _reference_pair_weight(method, variables, 3, i, j)
            _assert_close(got[i, j], want)


def test_baseline_edge_weights_need_aligned_variables():
    with pytest.raises(ValueError, match="aligned"):
        baseline_edge_weights([np.zeros((16, 1)), np.zeros((17, 1))], "cpc", 0)
    with pytest.raises(ValueError, match="at least 2"):
        baseline_edge_weights([np.zeros((16, 1))], "nwj", 0)


def test_fit_and_estimate_validates_eval_pairs():
    x, y = _pair(0.5, 64, 0)
    spec = BatchSpec(iterations=5)
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
    spec = BatchSpec(iterations=5)
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
@pytest.mark.parametrize("sizes", [(8, 0.05), (2, 0.1), (5, 0.01)])
@pytest.mark.parametrize("objective", ["cpc", "nwj"])
@pytest.mark.parametrize("kind", ["bilinear", "quadratic"])
def test_fit_critic_matches_reference_bitwise(kind, objective, sizes, n):
    # Despite its id, this compares at REFERENCE_RTOL: the matrix form rounds
    # differently from the reference's features.  n = 8 is exactly one
    # default CPC batch, 37 leaves a partial one and 300 is above the NWJ
    # draw of 256 pairs.  ``sizes`` is the (batch, step) size pair; (8, 0.05)
    # is the default.
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 2))
    y = 0.5 * x[:, :1] + rng.normal(size=(n, 1))
    spec = BatchSpec(batch_size=sizes[0], step_size=sizes[1], iterations=40, seed=n + 1)
    got = fit_critic(kind, objective, x, y, spec=spec)
    want = _reference_fit_critic(kind, objective, x, y, spec)
    _assert_close(got.theta, want.theta)
    for key in ("final_value", "final_grad_norm"):
        _assert_close(got.metadata.pop(key), want.metadata.pop(key))
    assert got.metadata == want.metadata


@pytest.mark.parametrize("objective, n", [("cpc", 37), ("nwj", 600)])
def test_fit_critic_matches_reference_across_blocks(objective, n, monkeypatch):
    # A tiny block budget makes blocks of a few steps, so that batches left
    # over from one block's epochs start the next block.
    monkeypatch.setattr(baselines, "_BLOCK_FLOATS", 24)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 2))
    y = 0.5 * x[:, :1] + rng.normal(size=(n, 1))
    spec = BatchSpec(iterations=30, seed=n)
    got = fit_critic("bilinear", objective, x, y, spec=spec)
    _assert_close(got.theta, _reference_fit_critic("bilinear", objective, x, y, spec).theta)


@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 3), (3, 2)])
@pytest.mark.parametrize("kind", ["bilinear", "quadratic"])
def test_matrix_form_equals_feature_form(kind, dims):
    # On fixed batches and parameters, the matrix form's scores and
    # gradients are the feature form's to rtol 1e-12 of the largest entry
    # (CPC's gradient on the x-only terms is 0 up to rounding).
    rng = np.random.default_rng(sum(dims))
    dx, dy = dims
    theta = 0.3 * rng.normal(size=_n_feats(kind, dx, dy))
    critic = Critic(kind, dx, dy, theta=theta)
    xs, ys = rng.normal(size=(8, dx)), rng.normal(size=(8, dy))
    _assert_close(critic.score(xs, ys), _reference_features(kind, xs, ys) @ theta, rtol=1e-12)
    grid = _reference_features(kind, np.repeat(xs, 8, axis=0), np.tile(ys, (8, 1))) @ theta
    _assert_close(critic.score_matrix(xs, ys), grid.reshape(8, 8), rtol=1e-12)
    mask = baselines._mask(kind, dx, dy)
    mat = np.zeros((1,) + mask.shape)
    mat[:, mask] = theta
    phi, psi = baselines._side(kind, xs[None]), baselines._side(kind, ys[None])
    value, grad = baselines._cpc_value_grad(mat, phi, psi)
    want_value, want_grad = _reference_cpc_value_grad(kind, theta, xs, ys, cap=50.0)
    _assert_close(value[0], want_value, rtol=1e-12)
    _assert_close(grad[0][mask], want_grad, rtol=1e-12)
    prod_x, prod_y = rng.normal(size=(8, dx)), rng.normal(size=(8, dy))
    value, grad = baselines._nwj_value_grad(mat, phi, psi, baselines._side(kind, prod_x[None]),
                                            baselines._side(kind, prod_y[None]))
    want_value, want_grad = _reference_nwj_value_grad(kind, theta, xs, ys, prod_x, prod_y,
                                                      cap=50.0)
    _assert_close(value[0], want_value, rtol=1e-12)
    _assert_close(grad[0][mask], want_grad, rtol=1e-12)


@pytest.mark.parametrize("n, size", [(8, 8), (37, 8), (37, 5), (300, 2), (1000, 7)])
@pytest.mark.parametrize("steps", [1, 3, 40])
def test_every_batch_holds_distinct_rows(n, size, steps):
    # Each epoch's batches are disjoint, so the rows of every batch are
    # distinct; an epoch covers n - n % size rows.
    draws = baselines._draws(np.random.default_rng(n), "cpc", n, size, steps)
    batches = np.concatenate([next(draws) for _ in range(60 // steps + 1)])
    per_epoch = n // size
    assert all(len(set(batch)) == size for batch in batches)
    for k in range(0, len(batches) - per_epoch + 1, per_epoch):
        epoch = batches[k:k + per_epoch].ravel()
        assert len(set(epoch)) == per_epoch * size
        assert epoch.min() >= 0 and epoch.max() < n
    # NWJ: a batch of min(n, 256) distinct joint rows, then product rows.
    nwj = next(baselines._draws(np.random.default_rng(n), "nwj", n, size, steps))
    pairs = min(n, 256)
    assert nwj.shape == (steps, 3 * pairs)
    assert all(len(set(row[:pairs])) == pairs for row in nwj)
    assert nwj.min() >= 0 and nwj.max() < n


@pytest.mark.parametrize("perm", [None, "given"])
@pytest.mark.parametrize("objective", ["cpc", "nwj"])
def test_fit_and_estimate_matches_reference_bitwise(objective, perm, caplog):
    # Despite its id, this compares at REFERENCE_RTOL, as above.
    x, y = _pair(0.99, 600, 11)
    x = 4.0 * x  # large scores, so that some hit the cap
    spec = BatchSpec(iterations=60, step_size=0.2, seed=5)
    order = np.random.default_rng(3).permutation(300) if perm else None
    with caplog.at_level(logging.INFO, logger="usable_info.baselines"):
        values, failures = fit_and_estimate_stack(
            objective, x[None, :300], y[None, :300], x[None, 300:], y[None, 300:], [spec.seed],
            spec, perms=None if order is None else order[None])
        assert failures == [None]
        got = values[0]
        fast_records = _capped_records(caplog)
        caplog.clear()
        critic = _reference_fit_critic("bilinear", objective, x[:300], y[:300], spec)
        if order is None:
            order = np.random.default_rng(spec.seed).permutation(300)
        want = _reference_estimate(objective, critic, x[300:], y[300:], order)
        assert fast_records == _capped_records(caplog)
    _assert_close(got, want)


@pytest.mark.parametrize("n", [8, 300])
@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_match_reference_with_mixed_dims(method, n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 2))
    variables = [x, x[:, :1] + 0.5 * rng.normal(size=(n, 1)), rng.normal(size=n)]
    got = baseline_edge_weights(variables, method, seed=4).w
    _assert_close(got, _reference_weights(method, variables, 4))


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_match_reference_on_sim2(method, caplog):
    # var0 reaches |x| ~ 10, so NWJ scores pin at the cap and its fits on
    # var0's pairs do not converge: rounding moves those weights, so NWJ is
    # compared on the other pairs only.
    dataset, _ = simulate(SimulationConfig(scenario="sim2", m=7, d=2, n=300, seed=1))
    with caplog.at_level(logging.INFO, logger="usable_info.baselines"):
        got = baseline_edge_weights(dataset.variables, method, seed=1).w
        fast_records = _capped_records(caplog)
        caplog.clear()
        want = _reference_weights(method, dataset.variables, 1)
        reference_records = _capped_records(caplog)
    if method == "nwj":
        assert fast_records > 0 and reference_records > 0
        got, want = got[1:, 1:], want[1:, 1:]
    else:
        assert fast_records == reference_records
    _assert_close(got, want)


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


@pytest.mark.parametrize("method,scale,message", [
    # Each fit stays finite, and its scores on var0's largest rows overflow.
    ("cpc", 1e160, "cpc critic produced non-finite scores for pairs "
                   "(0, 1), (0, 2), (1, 0), (2, 0)"),
    # var0 as x diverges; var0 as y leaves finite critics that overflow.
    ("nwj", 1e150, "nwj critic fit diverged to non-finite parameters for pairs (0, 1), "
                   "(0, 2); critic produced non-finite scores for pairs (1, 0), (2, 0)"),
], ids=["cpc-scores", "nwj-both"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_pairs_raise_one_error_naming_each_with_its_reason(method, scale, message):
    rng = np.random.default_rng(0)
    variables = [scale * rng.normal(size=(40, 1)), rng.normal(size=(40, 1)),
                 rng.normal(size=(40, 1))]
    assert _raises_one_numerical_error(
        lambda: baseline_edge_weights(variables, method, seed=0)) == message


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_do_not_depend_on_stack_chunks(method, monkeypatch):
    # Large inputs fit their pairs in several stacked chunks; a tiny float
    # budget forces one pair per chunk here.
    rng = np.random.default_rng(9)
    variables = [rng.normal(size=(40, 2)), rng.normal(size=(40, 1)), rng.normal(size=(40, 2))]
    whole = baseline_edge_weights(variables, method, seed=2).w
    monkeypatch.setattr(baselines, "_STACK_FLOATS", 1)
    assert baseline_edge_weights(variables, method, seed=2).w.tobytes() == whole.tobytes()


def _stack_problems(n, dims=(1, 1)):
    """Three differently scaled aligned problems, stacked: (3, n, d) each."""
    rng = np.random.default_rng(n)
    xs = np.stack([scale * rng.normal(size=(n, dims[0])) for scale in (1.0, 2.0, 0.5)])
    ys = xs[..., :1] + rng.normal(size=(3, n, dims[1]))
    return xs, ys


@pytest.mark.parametrize("n", [37, 300])
@pytest.mark.parametrize("objective", ["cpc", "nwj"])
def test_ascent_with_a_shared_seed_equals_lone_fits(objective, n):
    # Problems 0 and 1 share a seed, so they draw their batches once.
    xs, ys = _stack_problems(n, dims=(2, 1))
    seeds = [4, 4, 9]
    spec = BatchSpec(iterations=30, step_size=0.1)
    theta = baselines._ascend("bilinear", objective, xs, ys, seeds, spec)[0]
    for p, seed in enumerate(seeds):
        lone = fit_critic("bilinear", objective, xs[p], ys[p], spec=BatchSpec(
            iterations=30, step_size=0.1, seed=seed))
        assert theta[p].tobytes() == lone.theta.tobytes()


@pytest.mark.parametrize("objective", ["cpc", "nwj"])
def test_stacked_estimates_equal_stacks_of_one(objective):
    xs, ys = _stack_problems(200)
    seeds = [3, 8, 3]
    spec = BatchSpec(iterations=40, batch_size=6)
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
    spec = BatchSpec(iterations=20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        whole = fit_and_estimate_stack(objective, xs, ys, xs, ys, [5, 5, 6], spec)
        monkeypatch.setattr(baselines, "_STACK_FLOATS", 1)
        chunked = fit_and_estimate_stack(objective, xs, ys, xs, ys, [5, 5, 6], spec)
    assert whole[1] == chunked[1] == [None, baselines.DIVERGED, None]
    assert whole[0].tobytes() == chunked[0].tobytes()
    assert math.isnan(whole[0][1])


def test_stacked_estimates_report_non_finite_scores_per_problem():
    # A finite critic overflows on an eval pair far outside the fit rows.
    xs, ys = _stack_problems(64)
    eval_xs, eval_ys = xs.copy(), ys.copy()
    eval_xs[2, 5] = eval_ys[2, 5] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        values, failures = fit_and_estimate_stack("nwj", xs, ys, eval_xs, eval_ys, [1, 2, 3],
                                                  BatchSpec(iterations=20))
    assert failures == [None, None, baselines.NON_FINITE_SCORES]
    assert np.isfinite(values[:2]).all() and math.isnan(values[2])


def test_stacked_estimates_validate_their_stacks():
    xs, ys = _stack_problems(32)
    spec = BatchSpec(iterations=2)
    with pytest.raises(ValueError, match="do not match"):
        fit_and_estimate_stack("cpc", xs, ys, xs, ys, [0, 1], spec)
    with pytest.raises(ValueError, match="do not match"):
        fit_and_estimate_stack("cpc", xs, ys[:2], xs, ys, [0, 1, 2], spec)
    with pytest.raises(ValueError, match="do not match"):
        fit_and_estimate_stack("nwj", xs, ys, xs, ys[:, :-1], [0, 1, 2], spec)
    with pytest.raises(ValueError, match="do not match"):
        fit_and_estimate_stack("nwj", xs, ys, xs, ys, [0, 1, 2], spec,
                               perms=np.tile(np.arange(31), (3, 1)))
    with pytest.raises(ValueError, match="not enough eval samples for one batch"):
        fit_and_estimate_stack("cpc", xs, ys, xs[:, :7], ys[:, :7], [0, 1, 2], spec)
    # Too few fit rows is reported first, as the ascent would.
    with pytest.raises(ValueError, match="not enough samples for one batch"):
        fit_and_estimate_stack("cpc", xs[:, :7], ys[:, :7], xs[:, :7], ys[:, :7], [0, 1, 2],
                               spec)
