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
positive function); both estimators cap scores at ``+-DEFAULT_SCORE_CAP``
before exponentiation to avoid overflow.  An NWJ fit step draws
``min(n, 256)`` joint pairs and as many product pairs.

Every fit runs through one gradient ascent over a stack of same-shape
problems, and every fitted estimate through :func:`fit_and_estimate_stack`,
which fits a stack, checks it and evaluates it in chunks.  A lone
:func:`fit_critic` is a stack of one, as is :func:`fit_and_estimate`;
:func:`baseline_edge_weights` stacks every ordered pair of the same
dimensions, and ``usable-info baselines`` every ``(rho, seed)`` row of an
objective.  Each problem sees exactly the floating-point operations of a
lone fit and the batches its own seed draws, so stacking changes no bit.
Problems that share a seed draw the same batches, so each step draws once
per distinct seed and gathers the draws into the stack.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .families import FitWarning
from .structure import EdgeWeightMatrix, _check_aligned

__all__ = [
    "Critic",
    "BatchSpec",
    "cpc_estimate",
    "nwj_estimate",
    "fit_critic",
    "fit_and_estimate",
    "fit_and_estimate_stack",
    "baseline_edge_weights",
    "gaussian_oracle_critic",
]

logger = logging.getLogger(__name__)

DEFAULT_SCORE_CAP = 50.0
# Critic-fit iterations per ordered pair in baseline_edge_weights: fewer
# than BatchSpec's default, since an m-node tree fits m(m-1) critics.
EDGE_WEIGHT_ITERATIONS = 200
# fit_and_estimate_stack fits its problems in chunks, so that one stacked
# (problems, rows, features) block holds at most this many floats.
_STACK_FLOATS = 1 << 22
# Why a stacked problem failed, as fit_and_estimate_stack reports it.
DIVERGED = "critic fit diverged to non-finite parameters"
NON_FINITE_SCORES = "critic produced non-finite scores"


@dataclass(frozen=True)
class BatchSpec:
    """Optimizer and batching settings for critic fitting."""

    batch_size: int = 8
    iterations: int = 300
    step_size: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.iterations < 1 or not (math.isfinite(self.step_size)
                                       and self.step_size > 0):
            raise ValueError("iterations and step_size must be positive and finite")


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

    def score(self, xs, ys) -> np.ndarray:
        """Scores of aligned pairs; shape (n,)."""
        xs = _as_matrix(xs, self.x_dim)
        ys = _as_matrix(ys, self.y_dim)
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys have different lengths")
        if self.kind == "fixed":
            out = np.asarray(self._score_fn(xs, ys), dtype=float).reshape(-1)
        else:
            out = _features(self.kind, xs, ys) @ self.theta
        return _finite(out)

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
    """Feature rows of aligned (x, y) rows: (..., n, n_features).

    Leading axes of ``xs`` and ``ys`` stack independent problems.
    """
    ones = np.ones(xs.shape[:-1] + (1,))
    if kind == "bilinear":
        outer = (xs[..., :, None] * ys[..., None, :]).reshape(xs.shape[:-1] + (-1,))
        return np.concatenate([outer, xs, ys, ones], axis=-1)
    z = np.concatenate([xs, ys], axis=-1)
    iu = np.triu_indices(z.shape[-1])
    quad = (z[..., :, None] * z[..., None, :])[..., iu[0], iu[1]]
    return np.concatenate([z, quad, ones], axis=-1)


def _grid_features(kind: str, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Features of every (x_i, y_j) of stacked batches (P, b, d): (P, b*b, q).

    Row ``i*b + j`` pairs ``x_i`` with ``y_j``.
    """
    b = bx.shape[1]
    return _features(kind, np.repeat(bx, b, axis=1), np.tile(by, (1, b, 1)))


def _matvec(feats: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Scores ``feats[p] @ theta[p]`` for every stacked problem p: (P, n)."""
    return (feats @ theta[..., None])[..., 0]


def _finite(scores: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(scores)):
        raise NumericalError(NON_FINITE_SCORES)
    return scores


# --------------------------------------------------------------------- #
# Estimators
# --------------------------------------------------------------------- #


def cpc_estimate(critic: Critic, xs, ys) -> float:
    """Contrastive estimate on one batch of N aligned pairs.

    Scores are exponentiated (after capping at ``+-DEFAULT_SCORE_CAP``)
    so the contrastive ratio is positive; computed in log space as

        mean_i [ s(x_i, y_i) - logmeanexp_j s(x_i, y_j) ]

    The result never exceeds log N.
    """
    scores = critic.score_matrix(xs, ys)
    n = scores.shape[0]
    if n < 2 or scores.shape[1] != n:
        raise ValueError("need a batch of N >= 2 aligned pairs")
    return float(_contrastive(_capped(scores[None]))[0][0])


def nwj_estimate(critic: Critic, joint_xs, joint_ys, product_xs, product_ys) -> float:
    """NWJ estimate: mean score on joint pairs minus e^-1 mean exp-score
    on product-of-marginals pairs.

    Scores are capped at ``+-DEFAULT_SCORE_CAP`` before exponentiation;
    hitting the cap is logged because it biases the estimate.
    """
    joint = _capped(critic.score(joint_xs, joint_ys)[None])
    prod = _capped(critic.score(product_xs, product_ys)[None])
    return float(_nwj_value(joint, np.exp(prod))[0])


def _contrastive(scores: np.ndarray):
    """CPC values of capped (P, b, b) score matrices, and exp(scores - row max)."""
    row_max = scores.max(axis=2, keepdims=True)
    exp = np.exp(scores - row_max)
    log_mean = row_max[..., 0] + np.log(exp.mean(axis=2))
    diag = np.diagonal(scores, axis1=1, axis2=2)
    return (diag - log_mean).mean(axis=1), exp


def _nwj_value(joint: np.ndarray, exp_prod: np.ndarray) -> np.ndarray:
    """NWJ values from capped joint scores and exp'd product scores, each (P, n)."""
    return joint.mean(axis=1) - math.exp(-1.0) * exp_prod.mean(axis=1)


def _capped(scores: np.ndarray) -> np.ndarray:
    """Scores clipped to the cap; one log record per stacked problem that hit it."""
    cap = DEFAULT_SCORE_CAP
    clipped = np.count_nonzero(np.abs(scores) > cap, axis=tuple(range(1, scores.ndim)))
    for count in clipped[clipped > 0]:
        logger.info("capped %d critic scores at +-%g", count, cap)
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


def fit_critic(kind: str, objective: str, xs, ys, spec: BatchSpec | None = None) -> Critic:
    """Gradient-ascent critic fit on aligned (x, y) samples.

    ``objective`` is ``"cpc"`` (contrastive batches of ``spec.batch_size``)
    or ``"nwj"`` (``min(n, 256)`` joint pairs plus as many product pairs
    built by pairing independently drawn x and y rows).  Deterministic
    given ``spec.seed``; fit settings and the final objective value land
    in the critic's metadata.
    """
    _check_objective(objective)
    if kind == "fixed":
        raise ValueError("fixed critics cannot be fitted")
    if kind not in ("bilinear", "quadratic"):
        raise ValueError(f"unknown critic kind {kind!r}")
    spec = spec or BatchSpec()
    xs = _as_columns(xs)
    ys = _as_columns(ys)
    if ys.shape[0] != xs.shape[0]:
        raise ValueError("xs and ys have different lengths")
    theta, value, grad = _ascend(kind, objective, xs[None], ys[None], [spec.seed], spec)
    fitted = Critic(kind, xs.shape[1], ys.shape[1], theta=theta[0], metadata={
        "objective": objective,
        "final_value": float(value[0]),
        "final_grad_norm": float(np.linalg.norm(grad[0])),
        "iterations": spec.iterations,
        "step_size": spec.step_size,
        "batch_size": spec.batch_size,
        "seed": spec.seed,
        "score_cap": DEFAULT_SCORE_CAP,
    })
    if not np.all(np.isfinite(theta)):
        warnings.warn(DIVERGED, FitWarning)
    return fitted


def _check_objective(objective: str) -> None:
    if objective not in ("cpc", "nwj"):
        raise ValueError(f"unknown objective {objective!r}")


def _as_columns(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    return arr.reshape(-1, 1) if arr.ndim == 1 else arr


def _ascend(kind, objective, xs, ys, seeds, spec: BatchSpec):
    """Gradient ascent on a stack of P same-shape critic problems.

    Problem p fits the aligned rows ``xs[p]`` (n, dx) and ``ys[p]`` (n, dy)
    and draws its batches from its own ``default_rng(seeds[p])``, in the
    order a lone fit draws them.  Returns theta (P, q) and the last step's
    objective values (P,) and gradients (P, q).
    """
    n_problems, n = xs.shape[:2]
    if n < spec.batch_size:
        raise ValueError("not enough samples for one batch")
    # Problems that share a seed draw the same rows: one stream per distinct
    # seed, its draws gathered into every problem that uses it.
    streams: dict = {}
    for seed in seeds:
        streams.setdefault(seed, len(streams))
    rngs = [np.random.default_rng(seed) for seed in streams]
    gather = np.array([streams[s] for s in seeds])
    # Draws index each problem's own rows of the flattened (P*n, d) stacks.
    offsets = np.arange(n_problems)[:, None] * n
    flat_xs = xs.reshape(-1, xs.shape[2])
    flat_ys = ys.reshape(-1, ys.shape[2])
    theta = np.zeros((n_problems, _feature_count(kind, xs.shape[2], ys.shape[2])))
    if objective == "cpc":
        draws = np.empty((len(rngs), spec.batch_size), dtype=np.int64)
    else:
        n_draw = min(n, 256)  # joint pairs, and product pairs, per step
        joint_feats = _features(kind, flat_xs, flat_ys)
        draws = np.empty((len(rngs), 3 * n_draw), dtype=np.int64)
    for _ in range(spec.iterations):
        if objective == "cpc":
            for k, rng in enumerate(rngs):
                draws[k] = rng.choice(n, size=spec.batch_size, replace=False)
        else:
            for k, rng in enumerate(rngs):
                draws[k, :n_draw] = rng.choice(n, size=n_draw, replace=False)
                # One call draws both product index sets, x's then y's.
                draws[k, n_draw:] = rng.integers(0, n, 2 * n_draw)
        flat = draws[gather] + offsets
        if objective == "cpc":
            value, grad = _cpc_value_grad(kind, theta, np.take(flat_xs, flat, axis=0),
                                          np.take(flat_ys, flat, axis=0))
        else:
            joint, px, py = np.split(flat, 3, axis=1)
            p_feats = _features(kind, np.take(flat_xs, px, axis=0),
                                np.take(flat_ys, py, axis=0))
            value, grad = _nwj_value_grad(theta, np.take(joint_feats, joint, axis=0),
                                          p_feats)
        theta = theta + spec.step_size * grad
    return theta, value, grad


def _cpc_value_grad(kind, theta, bx, by):
    n_problems, b = bx.shape[:2]
    feats = _grid_features(kind, bx, by)
    cap = DEFAULT_SCORE_CAP
    scores = np.clip(_matvec(feats, theta).reshape(n_problems, b, b), -cap, cap)
    value, exp = _contrastive(scores)
    softmax = exp / exp.sum(axis=2, keepdims=True)
    feats = feats.reshape(n_problems, b, b, -1)
    diag = feats[:, np.arange(b), np.arange(b)]
    weighted = np.einsum("pij,pijq->piq", softmax, feats)
    return value, (diag - weighted).mean(axis=1)


def _nwj_value_grad(theta, j_feats, p_feats):
    cap = DEFAULT_SCORE_CAP
    j_scores = np.clip(_matvec(j_feats, theta), -cap, cap)
    exp_p = np.exp(np.clip(_matvec(p_feats, theta), -cap, cap))
    value = _nwj_value(j_scores, exp_p)
    grad = (j_feats.mean(axis=1)
            - math.exp(-1.0) * (exp_p[..., None] * p_feats).mean(axis=1))
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
    ``perm`` defaults to a permutation drawn from ``spec.seed``.  A fit that
    diverges warns; a critic that scores an eval pair non-finitely raises
    :class:`NumericalError`.
    """
    _check_objective(objective)
    fit_xs, fit_ys = _as_columns(fit_xs), _as_columns(fit_ys)
    if fit_ys.shape[0] != fit_xs.shape[0]:
        raise ValueError("xs and ys have different lengths")
    eval_xs = _as_matrix(eval_xs, fit_xs.shape[1])
    eval_ys = _as_matrix(eval_ys, fit_ys.shape[1])
    if eval_ys.shape[0] != eval_xs.shape[0]:
        raise ValueError("eval xs and ys have different lengths")
    perms = None if perm is None else np.asarray(perm)[None]
    values, failures = fit_and_estimate_stack(
        objective, fit_xs[None], fit_ys[None], eval_xs[None], eval_ys[None], [spec.seed],
        spec, perms=perms)
    if failures[0] == DIVERGED:
        warnings.warn(DIVERGED, FitWarning)
    if failures[0] is not None:
        raise NumericalError(NON_FINITE_SCORES)
    return float(values[0])


def fit_and_estimate_stack(objective: str, fit_xs, fit_ys, eval_xs, eval_ys, seeds,
                           spec: BatchSpec, perms=None):
    """:func:`fit_and_estimate` for each of a stack of P problems.

    Problem p fits on ``fit_xs[p]`` (n, dx) and ``fit_ys[p]`` (n, dy) with
    ``seeds[p]`` in place of ``spec.seed``, then estimates on ``eval_xs[p]``
    (k, dx) and ``eval_ys[p]`` (k, dy); NWJ product pairs take
    ``eval_ys[p, perms[p]]``, with ``perms`` drawn from each seed when
    omitted.  The problems are fitted and evaluated in chunks of at most
    ``_STACK_FLOATS`` floats, each chunk one stacked ascent.

    Returns the values (P,) and, for each problem, ``None`` or why it
    failed: :data:`DIVERGED` when its critic fit left non-finite
    parameters, else :data:`NON_FINITE_SCORES` when its critic scored an
    eval pair non-finitely.  A failed problem's value is NaN.
    """
    _check_objective(objective)
    n_problems, n_fit, dx = fit_xs.shape
    dy = fit_ys.shape[2]
    n_eval = eval_xs.shape[1]
    if (fit_ys.shape[:2] != (n_problems, n_fit) or eval_xs.shape != (n_problems, n_eval, dx)
            or eval_ys.shape != (n_problems, n_eval, dy) or len(seeds) != n_problems
            or (perms is not None and np.shape(perms) != (n_problems, n_eval))):
        raise ValueError("fit and eval stacks do not match")
    if n_fit < spec.batch_size:
        raise ValueError("not enough samples for one batch")
    if objective == "cpc" and n_eval < spec.batch_size:
        raise ValueError("not enough eval samples for one batch")
    if objective == "nwj" and perms is None:
        perms = np.stack([np.random.default_rng(s).permutation(n_eval) for s in seeds])
    rows = max(n_fit, n_eval, spec.batch_size ** 2) * _feature_count("bilinear", dx, dy)
    size = max(1, _STACK_FLOATS // rows)
    values = np.empty(n_problems)
    failures = []
    for k in range(0, n_problems, size):
        chunk = slice(k, k + size)
        theta = _ascend("bilinear", objective, fit_xs[chunk], fit_ys[chunk],
                        seeds[chunk], spec)[0]
        diverged = ~np.all(np.isfinite(theta), axis=1)
        values[chunk], non_finite = _estimates(
            objective, theta, eval_xs[chunk], eval_ys[chunk],
            None if perms is None else perms[chunk], spec.batch_size)
        failures += [DIVERGED if d else NON_FINITE_SCORES if f else None
                     for d, f in zip(diverged, non_finite)]
    values[[why is not None for why in failures]] = np.nan
    return values, failures


def _estimates(objective, theta, xs, ys, perms, batch_size: int):
    """What :func:`fit_and_estimate` returns, for each stacked bilinear critic,
    and whether any of its scores was non-finite: two (P,) arrays.

    ``theta`` is (P, q); problem p evaluates on ``xs[p]``, ``ys[p]`` and,
    for NWJ, takes product pairs ``(xs[p], ys[p, perms[p]])``.
    """
    n_problems, n = xs.shape[:2]
    if objective == "cpc":
        b = batch_size
        values = np.empty((n_problems, n // b))
        non_finite = np.zeros(n_problems, dtype=bool)
        for t, k in enumerate(range(0, n - b + 1, b)):
            feats = _grid_features("bilinear", xs[:, k:k + b], ys[:, k:k + b])
            scores = _matvec(feats, theta).reshape(n_problems, b, b)
            non_finite |= ~np.all(np.isfinite(scores), axis=(1, 2))
            values[:, t] = _contrastive(_capped(scores))[0]
        return values.mean(axis=1), non_finite
    joint = _matvec(_features("bilinear", xs, ys), theta)
    rows = np.arange(n_problems)[:, None]
    prod = _matvec(_features("bilinear", xs, ys[rows, perms]), theta)
    non_finite = ~(np.all(np.isfinite(joint), axis=1) & np.all(np.isfinite(prod), axis=1))
    return _nwj_value(_capped(joint), np.exp(_capped(prod))), non_finite


def baseline_edge_weights(variables, method: str, seed: int) -> EdgeWeightMatrix:
    """CPC or NWJ estimate for every ordered variable pair.

    Pair ``(i, j)`` fits and evaluates on all its samples as
    :func:`fit_and_estimate` does, seeded from ``(seed, i, j)`` so that each
    weight is reproducible on its own.  Pairs of the same dimensions share
    one :func:`fit_and_estimate_stack` call; fits that diverge warn once,
    naming their pairs, before a non-finite score raises.
    """
    m = _check_aligned(variables)
    _check_objective(method)
    variables = [_as_columns(v) for v in variables]
    spec = BatchSpec(iterations=EDGE_WEIGHT_ITERATIONS)
    seeds = {(i, j): int(np.random.SeedSequence((seed, i, j)).generate_state(1)[0])
             for i in range(m) for j in range(m) if i != j}
    groups: dict = {}
    for i, j in seeds:
        groups.setdefault((variables[i].shape[1], variables[j].shape[1]), []).append((i, j))
    w = np.zeros((m, m))
    failures = {}
    for pairs in groups.values():
        xs = np.stack([variables[i] for i, _ in pairs])
        ys = np.stack([variables[j] for _, j in pairs])
        w[tuple(zip(*pairs))], why = fit_and_estimate_stack(
            method, xs, ys, xs, ys, [seeds[p] for p in pairs], spec)
        failures.update(zip(pairs, why))
    diverged = sorted(pair for pair, why in failures.items() if why == DIVERGED)
    if diverged:
        warnings.warn(f"{method} {DIVERGED} for pairs " + ", ".join(map(str, diverged)),
                      FitWarning)
    if any(why is not None for why in failures.values()):
        raise NumericalError(NON_FINITE_SCORES)
    return EdgeWeightMatrix(w)
