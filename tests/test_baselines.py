import math

import numpy as np
import pytest

from usable_info.baselines import (
    BatchSpec,
    Critic,
    baseline_edge_weights,
    cpc_estimate,
    fit_and_estimate,
    fit_critic,
    gaussian_oracle_critic,
    nwj_estimate,
)


def _pair(rho, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    return x.reshape(-1, 1), y.reshape(-1, 1)


def _constant_critic(value):
    return Critic("fixed", 1, 1,
                  score_fn=lambda xs, ys: np.full(xs.shape[0], value))


# ------------------------------------------------------------------ #
# CPC
# ------------------------------------------------------------------ #


def test_cpc_constant_critic_is_zero():
    x, y = _pair(0.5, 16, 0)
    assert cpc_estimate(_constant_critic(3.0), x, y) == pytest.approx(0.0, abs=1e-12)


def test_cpc_two_by_two_hand_value():
    # scores: diagonal 1, off-diagonal 0; exponentiated ratio argument
    # becomes e vs 1, giving log(2e / (e + 1)).
    def score_fn(xs, ys):
        return (np.abs(xs[:, 0] - ys[:, 0]) < 1e-9).astype(float)

    critic = Critic("fixed", 1, 1, score_fn=score_fn)
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


def test_score_cap_prevents_overflow():
    critic = _constant_critic(1e4)
    x, y = _pair(0.1, 8, 4)
    got = nwj_estimate(critic, x, y, x, y, cap=50.0)
    assert np.isfinite(got)
    assert got == pytest.approx(50.0 - math.exp(49.0))


def test_cap_must_be_positive():
    x, y = _pair(0.1, 8, 5)
    with pytest.raises(ValueError):
        nwj_estimate(_constant_critic(0.0), x, y, x, y, cap=0.0)


# ------------------------------------------------------------------ #
# Critic plumbing
# ------------------------------------------------------------------ #


def test_critic_validation():
    with pytest.raises(ValueError):
        Critic("mystery", 1, 1)
    with pytest.raises(ValueError):
        Critic("fixed", 1, 1)  # needs a score function
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
    critic = Critic("fixed", 1, 1,
                    score_fn=lambda xs, ys: np.full(xs.shape[0], np.nan))
    with pytest.raises(ValueError):
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


# ------------------------------------------------------------------ #
# Fitted estimates and tree edge weights
# ------------------------------------------------------------------ #


def _reference_pair_weight(method, variables, seed, i, j):
    """One edge weight the long way: per-pair seed, fit, then estimate."""
    pair_seed = int(np.random.SeedSequence((seed, i, j)).generate_state(1)[0])
    spec = BatchSpec(batch_size=8, iterations=200, step_size=0.05, seed=pair_seed)
    xs, ys = variables[i], variables[j]
    critic = fit_critic("bilinear", method, xs, ys, spec=spec)
    if method == "cpc":
        return float(np.mean([cpc_estimate(critic, xs[k * 8:(k + 1) * 8],
                                           ys[k * 8:(k + 1) * 8])
                              for k in range(xs.shape[0] // 8)]))
    perm = np.random.default_rng(pair_seed).permutation(ys.shape[0])
    return nwj_estimate(critic, xs, ys, xs, ys[perm])


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_match_per_pair_reference(method):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(37, 2))  # 37 samples: CPC drops a partial batch
    variables = [x, x[:, :1] + 0.5 * rng.normal(size=(37, 1)), rng.normal(size=(37, 1))]
    got = baseline_edge_weights(variables, method, seed=3).w
    for i in range(3):
        for j in range(3):
            want = 0.0 if i == j else _reference_pair_weight(method, variables, 3, i, j)
            assert got[i, j] == want


def test_baseline_edge_weights_need_aligned_variables():
    with pytest.raises(ValueError, match="aligned"):
        baseline_edge_weights([np.zeros((16, 1)), np.zeros((17, 1))], "cpc", 0)
    with pytest.raises(ValueError, match="at least 2"):
        baseline_edge_weights([np.zeros((16, 1))], "nwj", 0)


def test_fit_and_estimate_validates_eval_pairs():
    x, y = _pair(0.5, 64, 0)
    spec = BatchSpec(iterations=5)
    with pytest.raises(ValueError, match="different lengths"):
        fit_and_estimate("cpc", x, y, x, y[:-1], spec)
    with pytest.raises(ValueError, match="one batch"):
        fit_and_estimate("cpc", x, y, x[:7], y[:7], spec)
    with pytest.raises(ValueError, match="objective"):
        fit_and_estimate("mine", x, y, x, y, spec)
