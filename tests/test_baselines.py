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
    fit_and_estimate,
    fit_critic,
    gaussian_oracle_critic,
    nwj_estimate,
)
from usable_info.errors import NumericalError
from usable_info.families import FitWarning
from usable_info.synth import SimulationConfig, simulate


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


# The per-pair fit and estimates as they ran before fits were stacked, kept
# as the oracle: the stacked ascent must reproduce them bit for bit.
_baselines_log = logging.getLogger("usable_info.baselines")


def _reference_features(kind, xs, ys):
    n = xs.shape[0]
    ones = np.ones((n, 1))
    if kind == "bilinear":
        outer = (xs[:, :, None] * ys[:, None, :]).reshape(n, -1)
        return np.hstack([outer, xs, ys, ones])
    z = np.hstack([xs, ys])
    d = z.shape[1]
    iu = np.triu_indices(d)
    quad = (z[:, :, None] * z[:, None, :])[:, iu[0], iu[1]]
    return np.hstack([z, quad, ones])


def _reference_fit_critic(kind, objective, xs, ys, spec, cap=50.0):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1)
    if ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    n = xs.shape[0]
    rng = np.random.default_rng(spec.seed)
    theta = Critic(kind, xs.shape[1], ys.shape[1]).theta.copy()
    value = math.nan
    grad_norm = math.inf
    for _ in range(spec.iterations):
        if objective == "cpc":
            idx = rng.choice(n, size=spec.batch_size, replace=False)
            value, grad = _reference_cpc_value_grad(kind, theta, xs[idx], ys[idx], cap)
        else:
            n_draw = min(n, 256)
            j_idx = rng.choice(n, size=n_draw, replace=False)
            px = rng.choice(n, size=n_draw, replace=True)
            py = rng.choice(n, size=n_draw, replace=True)
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


@pytest.mark.parametrize("n", [8, 37, 300])
@pytest.mark.parametrize("sizes", [(8, 0.05), (2, 0.3), (5, 0.01)])
@pytest.mark.parametrize("objective", ["cpc", "nwj"])
@pytest.mark.parametrize("kind", ["bilinear", "quadratic"])
def test_fit_critic_matches_reference_bitwise(kind, objective, sizes, n):
    # n = 8 is exactly one default CPC batch, 37 leaves a partial one and
    # 300 is above the NWJ draw of 256 pairs.  ``sizes`` is the (batch,
    # step) size pair; (8, 0.05) is the default.
    rng = np.random.default_rng(n)
    x = 3.0 * rng.normal(size=(n, 2))
    y = x[:, :1] + rng.normal(size=(n, 1))
    spec = BatchSpec(batch_size=sizes[0], step_size=sizes[1], iterations=40, seed=n + 1)
    got = fit_critic(kind, objective, x, y, spec=spec)
    want = _reference_fit_critic(kind, objective, x, y, spec)
    assert got.theta.tobytes() == want.theta.tobytes()
    assert got.metadata == want.metadata


@pytest.mark.parametrize("perm", [None, "given"])
@pytest.mark.parametrize("objective", ["cpc", "nwj"])
def test_fit_and_estimate_matches_reference_bitwise(objective, perm, caplog):
    x, y = _pair(0.99, 600, 11)
    x = 4.0 * x  # large scores, so that some hit the cap
    spec = BatchSpec(iterations=60, step_size=0.2, seed=5)
    order = np.random.default_rng(3).permutation(300) if perm else None
    with caplog.at_level(logging.INFO, logger="usable_info.baselines"):
        got = fit_and_estimate(objective, x[:300], y[:300], x[300:], y[300:], spec, perm=order)
        fast_records = _capped_records(caplog)
        caplog.clear()
        critic = _reference_fit_critic("bilinear", objective, x[:300], y[:300], spec)
        if order is None:
            order = np.random.default_rng(spec.seed).permutation(300)
        want = _reference_estimate(objective, critic, x[300:], y[300:], order)
        assert fast_records == _capped_records(caplog)
    assert got == want


@pytest.mark.parametrize("n", [8, 300])
@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_match_reference_with_mixed_dims(method, n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 2))
    variables = [x, x[:, :1] + 0.5 * rng.normal(size=(n, 1)), rng.normal(size=n)]
    got = baseline_edge_weights(variables, method, seed=4).w
    assert got.tobytes() == _reference_weights(method, variables, 4).tobytes()


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_match_reference_on_sim2(method, caplog):
    # var0 reaches |x| ~ 10, so NWJ scores pin at the cap and its fits on
    # var0's pairs do not converge; the weights must still match bitwise.
    dataset, _ = simulate(SimulationConfig(scenario="sim2", m=7, d=2, n=300, seed=1))
    with caplog.at_level(logging.INFO, logger="usable_info.baselines"):
        got = baseline_edge_weights(dataset.variables, method, seed=1).w
        fast_records = _capped_records(caplog)
        caplog.clear()
        want = _reference_weights(method, dataset.variables, 1)
        assert fast_records == _capped_records(caplog)
    assert got.tobytes() == want.tobytes()
    if method == "nwj":
        assert fast_records > 0


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_diverged_fits_name_their_pairs(method):
    rng = np.random.default_rng(0)
    variables = [1e200 * rng.normal(size=(40, 1)), rng.normal(size=(40, 1)),
                 rng.normal(size=(40, 1))]
    message = (f"{method} critic fit diverged to non-finite parameters for pairs "
               "(0, 1), (0, 2), (1, 0), (2, 0)")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        warnings.simplefilter("error", FitWarning)
        with pytest.raises(FitWarning) as raised:
            baseline_edge_weights(variables, method, seed=0)
    assert str(raised.value) == message
    # Left as a warning, it comes once, before the non-finite scores error.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="non-finite scores"):
            baseline_edge_weights(variables, method, seed=0)
    fit_warnings = [w for w in caught if issubclass(w.category, FitWarning)]
    assert [str(w.message) for w in fit_warnings] == [message]


@pytest.mark.parametrize("method", ["cpc", "nwj"])
def test_baseline_edge_weights_do_not_depend_on_stack_chunks(method, monkeypatch):
    # Large inputs fit their pairs in several stacked chunks; a tiny float
    # budget forces one pair per chunk here.
    rng = np.random.default_rng(9)
    variables = [rng.normal(size=(40, 2)), rng.normal(size=(40, 1)), rng.normal(size=(40, 2))]
    whole = baseline_edge_weights(variables, method, seed=2).w
    monkeypatch.setattr(baselines, "_STACK_FLOATS", 1)
    assert baseline_edge_weights(variables, method, seed=2).w.tobytes() == whole.tobytes()
