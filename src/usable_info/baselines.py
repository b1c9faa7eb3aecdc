"""Contrastive (CPC/InfoNCE) and NWJ mutual-information estimators.

These serve two jobs: comparison methods when building trees, and live
demonstrations of their known failure modes — the CPC estimate can never
exceed ``log(batch size)`` no matter the critic, and the NWJ estimator's
variance at the optimal critic grows at least like ``(e^I - 1) / N``.

Critics here are linear in their parameters: a feature map ``psi(x, y)``
dotted with a weight vector.  ``bilinear`` uses x (x) y outer products
plus linear terms; ``quadratic`` uses all degree-<=2 monomials of the
concatenated pair.  A ``fixed`` critic wraps an arbitrary score function
and cannot be fitted; :func:`gaussian_oracle_critic` builds the optimal
NWJ critic ``1 + log[p(x,y) / (p(x)p(y))]`` for a correlated Gaussian
pair.

CPC exponentiates critic scores internally (the contrastive ratio needs a
positive function); NWJ uses raw scores but caps them before
exponentiation to avoid overflow.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .families import FitWarning
from .structure import EdgeWeightMatrix, pairwise_weights

__all__ = [
    "Critic",
    "BatchSpec",
    "cpc_estimate",
    "nwj_estimate",
    "fit_critic",
    "fit_and_estimate",
    "baseline_edge_weights",
    "gaussian_oracle_critic",
]

logger = logging.getLogger(__name__)

DEFAULT_SCORE_CAP = 50.0
# Critic-fit iterations per ordered pair in baseline_edge_weights: fewer
# than BatchSpec's default, since an m-node tree fits m(m-1) critics.
EDGE_WEIGHT_ITERATIONS = 200


@dataclass(frozen=True)
class BatchSpec:
    """Optimizer and batching settings for critic fitting."""

    batch_size: int = 8
    n_joint: int | None = None
    n_product: int | None = None
    iterations: int = 300
    step_size: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.iterations < 1 or self.step_size <= 0:
            raise ValueError("iterations and step_size must be positive")


class Critic:
    """Score function f(x, y), linear in its parameters unless fixed."""

    def __init__(self, kind: str, x_dim: int, y_dim: int,
                 theta: np.ndarray | None = None, score_fn=None,
                 metadata: dict | None = None):
        if kind not in ("bilinear", "quadratic", "fixed"):
            raise ValueError(f"unknown critic kind {kind!r}")
        if kind == "fixed" and score_fn is None:
            raise ValueError("fixed critic needs a score function")
        self.kind = kind
        self.x_dim = x_dim
        self.y_dim = y_dim
        self._score_fn = score_fn
        if kind != "fixed":
            n_feat = _feature_count(kind, x_dim, y_dim)
            self.theta = np.zeros(n_feat) if theta is None else np.asarray(theta, float)
            if self.theta.shape != (n_feat,):
                raise ValueError("theta has the wrong length")
        else:
            self.theta = None
        self.metadata = metadata or {}

    def features(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Feature matrix for aligned (x, y) rows; shape (n, n_features)."""
        if self.kind == "fixed":
            raise ValueError("fixed critics have no feature map")
        return _features(self.kind, xs, ys)

    def score(self, xs, ys) -> np.ndarray:
        """Scores of aligned pairs; shape (n,)."""
        xs = _as_matrix(xs, self.x_dim)
        ys = _as_matrix(ys, self.y_dim)
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys have different lengths")
        if self.kind == "fixed":
            out = np.asarray(self._score_fn(xs, ys), dtype=float).reshape(-1)
        else:
            out = self.features(xs, ys) @ self.theta
        if not np.all(np.isfinite(out)):
            raise ValueError("critic produced non-finite scores")
        return out

    def score_matrix(self, xs, ys) -> np.ndarray:
        """All-pairs scores; entry (i, j) scores (x_i, y_j)."""
        xs = _as_matrix(xs, self.x_dim)
        ys = _as_matrix(ys, self.y_dim)
        n, k = xs.shape[0], ys.shape[0]
        xx = np.repeat(xs, k, axis=0)
        yy = np.tile(ys, (n, 1))
        return self.score(xx, yy).reshape(n, k)


def _as_matrix(a, dim: int) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected rows of dimension {dim}")
    return arr


def _feature_count(kind: str, x_dim: int, y_dim: int) -> int:
    if kind == "bilinear":
        return x_dim * y_dim + x_dim + y_dim + 1
    z = x_dim + y_dim
    return z + z * (z + 1) // 2 + 1


def _features(kind: str, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
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


# --------------------------------------------------------------------- #
# Estimators
# --------------------------------------------------------------------- #


def cpc_estimate(critic: Critic, xs, ys, cap: float = DEFAULT_SCORE_CAP) -> float:
    """Contrastive estimate on one batch of N aligned pairs.

    Scores are exponentiated (after capping at ``+-cap``) so the
    contrastive ratio is positive; computed in log space as

        mean_i [ s(x_i, y_i) - logmeanexp_j s(x_i, y_j) ]

    The result never exceeds log N.
    """
    scores = critic.score_matrix(xs, ys)
    n = scores.shape[0]
    if n < 2 or scores.shape[1] != n:
        raise ValueError("need a batch of N >= 2 aligned pairs")
    scores = _capped(scores, cap)
    row_max = scores.max(axis=1, keepdims=True)
    log_mean = row_max[:, 0] + np.log(np.exp(scores - row_max).mean(axis=1))
    return float(np.mean(np.diag(scores) - log_mean))


def nwj_estimate(critic: Critic, joint_xs, joint_ys, product_xs, product_ys,
                 cap: float = DEFAULT_SCORE_CAP) -> float:
    """NWJ estimate: mean score on joint pairs minus e^-1 mean exp-score
    on product-of-marginals pairs.

    Scores are capped at ``+-cap`` before exponentiation; hitting the cap
    is logged because it biases the estimate.
    """
    joint = _capped(critic.score(joint_xs, joint_ys), cap)
    prod = _capped(critic.score(product_xs, product_ys), cap)
    return float(joint.mean() - math.exp(-1.0) * np.exp(prod).mean())


def _capped(scores: np.ndarray, cap: float) -> np.ndarray:
    if cap <= 0:
        raise ValueError("cap must be positive")
    clipped = np.count_nonzero(np.abs(scores) > cap)
    if clipped:
        logger.info("capped %d critic scores at +-%g", clipped, cap)
    return np.clip(scores, -cap, cap)


def gaussian_oracle_critic(rho: float) -> Critic:
    """Optimal NWJ critic for a standard bivariate Gaussian pair.

    Scores 1 + log of the density ratio between the joint and the product
    of marginals for scalar (x, y) with correlation ``rho``.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    denom = 2.0 * (1.0 - rho * rho)

    def score_fn(xs, ys):
        x = xs[:, 0]
        y = ys[:, 0]
        log_ratio = (-0.5 * math.log(1.0 - rho * rho)
                     - (rho * rho * (x * x + y * y) - 2.0 * rho * x * y) / denom)
        return 1.0 + log_ratio

    return Critic("fixed", 1, 1, score_fn=score_fn,
                  metadata={"rho": rho, "oracle": True})


# --------------------------------------------------------------------- #
# Fitting
# --------------------------------------------------------------------- #


def fit_critic(kind: str, objective: str, xs, ys, spec: BatchSpec | None = None,
               cap: float = DEFAULT_SCORE_CAP) -> Critic:
    """Gradient-ascent critic fit on aligned (x, y) samples.

    ``objective`` is ``"cpc"`` (contrastive batches of ``spec.batch_size``)
    or ``"nwj"`` (joint batches plus product batches built by pairing
    independently drawn x and y rows).  Deterministic given ``spec.seed``;
    fit settings and the final objective value land in the critic's
    metadata.
    """
    if objective not in ("cpc", "nwj"):
        raise ValueError(f"unknown objective {objective!r}")
    if kind == "fixed":
        raise ValueError("fixed critics cannot be fitted")
    spec = spec or BatchSpec()
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1)
    if ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    n = xs.shape[0]
    if ys.shape[0] != n:
        raise ValueError("xs and ys have different lengths")
    if n < spec.batch_size:
        raise ValueError("not enough samples for one batch")

    critic = Critic(kind, xs.shape[1], ys.shape[1])
    rng = np.random.default_rng(spec.seed)
    theta = critic.theta.copy()
    value = math.nan
    grad_norm = math.inf
    for _ in range(spec.iterations):
        if objective == "cpc":
            idx = rng.choice(n, size=spec.batch_size, replace=False)
            value, grad = _cpc_value_grad(critic, theta, xs[idx], ys[idx], cap)
        else:
            n_joint = spec.n_joint or min(n, 256)
            n_prod = spec.n_product or min(n, 256)
            j_idx = rng.choice(n, size=n_joint, replace=n_joint > n)
            px = rng.choice(n, size=n_prod, replace=True)
            py = rng.choice(n, size=n_prod, replace=True)
            value, grad = _nwj_value_grad(critic, theta, xs[j_idx], ys[j_idx],
                                          xs[px], ys[py], cap)
        theta = theta + spec.step_size * grad
        grad_norm = float(np.linalg.norm(grad))
    fitted = Critic(kind, xs.shape[1], ys.shape[1], theta=theta, metadata={
        "objective": objective,
        "final_value": value,
        "final_grad_norm": grad_norm,
        "iterations": spec.iterations,
        "step_size": spec.step_size,
        "batch_size": spec.batch_size,
        "seed": spec.seed,
        "score_cap": cap,
    })
    if not np.all(np.isfinite(theta)):
        warnings.warn("critic fit diverged to non-finite parameters", FitWarning)
    return fitted


def _cpc_value_grad(critic, theta, bx, by, cap):
    n = bx.shape[0]
    xx = np.repeat(bx, n, axis=0)
    yy = np.tile(by, (n, 1))
    feats = critic.features(xx, yy)  # (n*n, q), row i*n+j is (x_i, y_j)
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


def _nwj_value_grad(critic, theta, jx, jy, px, py, cap):
    j_feats = critic.features(jx, jy)
    p_feats = critic.features(px, py)
    j_scores = np.clip(j_feats @ theta, -cap, cap)
    p_scores = np.clip(p_feats @ theta, -cap, cap)
    exp_p = np.exp(p_scores)
    value = float(j_scores.mean() - math.exp(-1.0) * exp_p.mean())
    grad = j_feats.mean(axis=0) - math.exp(-1.0) * (exp_p[:, None] * p_feats).mean(axis=0)
    return value, grad


# --------------------------------------------------------------------- #
# Fitted estimates and tree edge weights
# --------------------------------------------------------------------- #


def fit_and_estimate(objective: str, fit_xs, fit_ys, eval_xs, eval_ys,
                     spec: BatchSpec, perm=None) -> float:
    """Fit a bilinear critic on the fit pairs, then estimate on the eval pairs.

    ``"cpc"`` averages :func:`cpc_estimate` over consecutive full batches
    of ``spec.batch_size`` eval pairs, so it never exceeds the log batch
    size.  ``"nwj"`` takes product pairs ``(eval_xs, eval_ys[perm])``;
    ``perm`` defaults to a permutation drawn from ``spec.seed``.
    """
    critic = fit_critic("bilinear", objective, fit_xs, fit_ys, spec=spec)
    eval_xs = _as_matrix(eval_xs, critic.x_dim)
    eval_ys = _as_matrix(eval_ys, critic.y_dim)
    n = eval_xs.shape[0]
    if eval_ys.shape[0] != n:
        raise ValueError("eval xs and ys have different lengths")
    if objective == "cpc":
        size = spec.batch_size
        if n < size:
            raise ValueError("not enough eval samples for one batch")
        return float(np.mean([
            cpc_estimate(critic, eval_xs[k:k + size], eval_ys[k:k + size])
            for k in range(0, n - size + 1, size)
        ]))
    if perm is None:
        perm = np.random.default_rng(spec.seed).permutation(n)
    return nwj_estimate(critic, eval_xs, eval_ys, eval_xs, eval_ys[perm])


def baseline_edge_weights(variables, method: str, seed: int) -> EdgeWeightMatrix:
    """CPC or NWJ estimate for every ordered variable pair.

    Pair ``(i, j)`` fits and evaluates on all its samples with
    :func:`fit_and_estimate`, seeded from ``(seed, i, j)`` so that each
    weight is reproducible on its own.
    """
    def weight(i, j):
        pair_seed = int(np.random.SeedSequence((seed, i, j)).generate_state(1)[0])
        spec = BatchSpec(iterations=EDGE_WEIGHT_ITERATIONS, seed=pair_seed)
        xs, ys = variables[i], variables[j]
        return fit_and_estimate(method, xs, ys, xs, ys, spec)

    return pairwise_weights(variables, weight)
