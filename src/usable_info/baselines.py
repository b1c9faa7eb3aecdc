"""Contrastive (CPC/InfoNCE) and NWJ mutual-information estimators.

These serve two jobs: comparison methods when building trees, and live
demonstrations of their known failure modes — the CPC estimate can never
exceed ``log(batch size)`` no matter the critic, and the NWJ estimator's
variance at the optimal critic grows at least like ``(e^I - 1) / N``.

Every critic scores in matrix form, ``phi(x)^T Theta psi(y)``, so a
batch's scores are one ``(Phi Theta) Psi^T`` and a gradient one
``Phi^T W Psi``.  ``bilinear`` takes ``phi(x) = [x, 1]`` and
``psi(y) = [y, 1]``; ``quadratic`` puts each side's degree-2 monomials
before the 1.  A cell of Theta is free when the degrees of its phi and psi
entries sum to at most 2, so the free cells weigh each degree-<=2 monomial
of z = [x, y] once; the other cells stay 0.  ``Critic.theta`` lists the
free cells in Theta's row-major order.  :func:`gaussian_oracle_critic`
builds the optimal NWJ critic ``1 + log[p(x,y) / (p(x)p(y))]`` of a
correlated Gaussian pair, a quadratic in (x, y), as a ``quadratic`` Theta.
Both estimators cap scores at ``+-DEFAULT_SCORE_CAP`` before exponentiation.

Fits draw batches in mini-batch epochs: each epoch is one permutation of
the n fit rows, cut into ``n // size`` disjoint batches of distinct rows.
A CPC step takes a batch of ``spec.batch_size`` rows, an NWJ step a batch
of ``min(n, 256)`` joint pairs and as many product pairs of independently
drawn x and y rows.  A seed draws a block of steps in two generator calls;
the block's length depends on the problem's shape alone.

Every fit is one gradient ascent over a stack of same-shape problems, and
every fitted estimate goes through :func:`fit_and_estimate_stack`.
:func:`fit_critic` is a stack of one; :func:`baseline_edge_weights` stacks
the ordered pairs of the same dimensions, and ``usable-info baselines`` the
``(rho, seed)`` rows of an objective.  Each problem sees the floating-point
operations of a lone fit and the batches of its own seed, so a stacked fit
equals a lone fit bit for bit; problems that share a seed draw their
batches once.

Samples are checked as the families check them (``families._real_matrix``):
every entry point, and every problem of a stack, raises ``ValueError`` on
an empty, mis-shaped or non-finite sample.  A numerical failure has one
report: :func:`fit_and_estimate_stack` says for each problem whether its
fit diverged (:data:`DIVERGED`) or its critic scored an eval pair
non-finitely (:data:`NON_FINITE_SCORES`), and :func:`baseline_edge_weights`
raises one :class:`NumericalError` that names every failed pair and why.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .families import FitWarning, VariableSpec, _real_matrix
from .structure import EdgeWeightMatrix, _check_aligned

__all__ = [
    "Critic",
    "BatchSpec",
    "cpc_estimate",
    "nwj_estimate",
    "fit_critic",
    "fit_and_estimate_stack",
    "baseline_edge_weights",
    "gaussian_oracle_critic",
]

logger = logging.getLogger(__name__)

DEFAULT_SCORE_CAP = 50.0
# Critic-fit iterations per ordered pair in baseline_edge_weights: fewer
# than BatchSpec's default, since an m-node tree fits m(m-1) critics.
EDGE_WEIGHT_ITERATIONS = 200
# Joint pairs, and product pairs, per NWJ step at most.
_NWJ_PAIRS = 256
# A seed draws its batches a block of steps at a time; one block holds at
# most this many row indices, and at least one step.
_BLOCK_FLOATS = 1 << 12
# fit_and_estimate_stack fits its problems in chunks, so that the arrays of
# one stacked chunk hold at most this many floats.
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
    """Score function f(x, y) = phi(x)^T Theta psi(y), linear in theta."""

    def __init__(self, kind: str, x_dim: int, y_dim: int,
                 theta: np.ndarray | None = None, metadata: dict | None = None):
        if kind not in ("bilinear", "quadratic"):
            raise ValueError(f"unknown critic kind {kind!r}")
        self.kind = kind
        self.x_dim = x_dim
        self.y_dim = y_dim
        n_feat = int(_mask(kind, x_dim, y_dim).sum())
        self.theta = np.zeros(n_feat) if theta is None else np.asarray(theta, float)
        if self.theta.shape != (n_feat,):
            raise ValueError("theta has the wrong length")
        self.metadata = metadata or {}

    def score(self, xs, ys) -> np.ndarray:
        """Scores of aligned pairs; shape (n,)."""
        xs = _real_matrix(xs, "xs", VariableSpec.real(self.x_dim))
        ys = _real_matrix(ys, "ys", VariableSpec.real(self.y_dim))
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys have different lengths")
        return _finite(_row_scores(_side(self.kind, xs) @ self._matrix(), _side(self.kind, ys)))

    def score_matrix(self, xs, ys) -> np.ndarray:
        """All-pairs scores; entry (i, j) scores (x_i, y_j)."""
        xs = _real_matrix(xs, "xs", VariableSpec.real(self.x_dim))
        ys = _real_matrix(ys, "ys", VariableSpec.real(self.y_dim))
        return _finite(_side(self.kind, xs) @ self._matrix() @ _side(self.kind, ys).T)

    def _matrix(self) -> np.ndarray:
        mask = _mask(self.kind, self.x_dim, self.y_dim)
        mat = np.zeros(mask.shape)
        mat[mask] = self.theta
        return mat


@functools.cache
def _mask(kind: str, x_dim: int, y_dim: int) -> np.ndarray:
    """Theta's free cells (px, py): those whose phi and psi entries' degrees
    sum to at most 2, one cell for each degree-<=2 monomial of z = [x, y]."""
    # Each entry of phi(2, ..., 2) is 2 to the power of its degree.
    mask = np.outer(_side(kind, np.full(x_dim, 2.0)), _side(kind, np.full(y_dim, 2.0))) <= 4
    mask.flags.writeable = False  # the cache hands this array to every caller
    return mask


def _side(kind: str, a: np.ndarray) -> np.ndarray:
    """phi or psi of rows ``a`` (..., d): [a, 1], with the upper-triangle
    products a_i a_j before the 1 for ``quadratic``."""
    parts = [a]
    if kind == "quadratic":
        iu = np.triu_indices(a.shape[-1])
        parts.append((a[..., :, None] * a[..., None, :])[..., iu[0], iu[1]])
    return np.concatenate(parts + [np.ones(a.shape[:-1] + (1,))], axis=-1)


def _row_scores(phi_theta: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Scores of aligned rows from ``phi @ Theta`` and psi, each (..., n, py): (..., n)."""
    return (phi_theta * psi) @ np.ones(psi.shape[-1])


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
    """CPC values of capped (P, b, b) score matrices, and exp(scores - row max)
    written over ``scores``."""
    row_max = scores.max(axis=2, keepdims=True)
    diag = np.diagonal(scores, axis1=1, axis2=2) - row_max[..., 0]
    exp = np.exp(np.subtract(scores, row_max, out=scores), out=scores)
    return (diag - np.log(exp.mean(axis=2))).mean(axis=1), exp


def _nwj_value(joint: np.ndarray, exp_prod: np.ndarray) -> np.ndarray:
    """NWJ values from capped joint scores and exp'd product scores, each (P, n)."""
    return joint.mean(axis=1) - math.exp(-1.0) * exp_prod.mean(axis=1)


def _capped(scores: np.ndarray) -> np.ndarray:
    """Scores clipped to the cap in place; one log record per stacked problem
    that hit it."""
    cap = DEFAULT_SCORE_CAP
    clipped = np.count_nonzero((scores > cap) | (scores < -cap),
                               axis=tuple(range(1, scores.ndim)))
    for count in clipped[clipped > 0]:
        logger.info("capped %d critic scores at +-%g", count, cap)
    return np.clip(scores, -cap, cap, out=scores)


def gaussian_oracle_critic(rho: float) -> Critic:
    """Optimal NWJ critic for a standard bivariate Gaussian pair.

    Scores 1 + log of the density ratio between the joint and the product
    of marginals for scalar (x, y) with correlation ``rho``, which is the
    quadratic ``1 - log(1 - rho^2)/2 + (2 rho xy - rho^2 (x^2 + y^2)) /
    (2 (1 - rho^2))``.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    var = 1.0 - rho * rho
    square = -rho * rho / (2.0 * var)
    # Theta's free cells in row-major order weigh xy, x, x^2, y, y^2 and 1.
    theta = [rho / var, 0.0, square, 0.0, square, 1.0 - 0.5 * math.log(var)]
    return Critic("quadratic", 1, 1, theta=theta, metadata={"rho": rho, "oracle": True})


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
    if kind not in ("bilinear", "quadratic"):
        raise ValueError(f"unknown critic kind {kind!r}")
    spec = spec or BatchSpec()
    xs = _real_matrix(xs, "xs")
    ys = _real_matrix(ys, "ys")
    if ys.shape[0] != xs.shape[0]:
        raise ValueError("xs and ys have different lengths")
    mat, value, grad = _ascend(kind, objective, xs[None], ys[None], [spec.seed], spec)
    mask = _mask(kind, xs.shape[1], ys.shape[1])
    theta = mat[0][mask]
    fitted = Critic(kind, xs.shape[1], ys.shape[1], theta=theta, metadata={
        "objective": objective,
        "final_value": float(value[0]),
        "final_grad_norm": float(np.linalg.norm(grad[0][mask])),
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


def _ascend(kind, objective, xs, ys, seeds, spec: BatchSpec):
    """Gradient ascent on a stack of P same-shape critic problems.

    Problem p fits the aligned rows ``xs[p]`` (n, dx) and ``ys[p]`` (n, dy)
    on the draws of ``default_rng(seeds[p])``.  Each step moves Theta's free
    cells only.  Returns Theta (P, px, py) and the last step's objective
    values (P,) and gradients (P, px, py).
    """
    n_problems, n, dx = xs.shape
    dy = ys.shape[2]
    if n < spec.batch_size:
        raise ValueError("not enough samples for one batch")
    # Draws index each problem's own rows of the flattened (P*n, .) maps.
    offsets = np.arange(n_problems)[:, None] * n
    phi = _side(kind, xs).reshape(n_problems * n, -1)
    psi = _side(kind, ys).reshape(n_problems * n, -1)
    # Problems that share a seed take the same rows: one stream per distinct
    # seed, its draws gathered into every problem that uses it.
    streams = {seed: k for k, seed in enumerate(dict.fromkeys(seeds))}
    gather = np.array([streams[seed] for seed in seeds])
    width = spec.batch_size if objective == "cpc" else 3 * min(n, _NWJ_PAIRS)
    steps = max(1, min(spec.iterations, _BLOCK_FLOATS // width))
    draws = [_draws(np.random.default_rng(seed), objective, n, spec.batch_size, steps)
             for seed in streams]
    block = np.empty((len(draws), steps, width), dtype=np.int64)
    mask = _mask(kind, dx, dy)
    mat = np.zeros((n_problems,) + mask.shape)
    for step in range(spec.iterations):
        if step % steps == 0:
            for k, stream in enumerate(draws):
                block[k] = next(stream)
        rows = block[:, step % steps][gather] + offsets
        if objective == "cpc":
            value, grad = _cpc_value_grad(mat, phi.take(rows, axis=0), psi.take(rows, axis=0))
        else:
            joint, px, py = np.split(rows, 3, axis=1)
            value, grad = _nwj_value_grad(mat, phi.take(joint, axis=0), psi.take(joint, axis=0),
                                          phi.take(px, axis=0), psi.take(py, axis=0))
        # Indexed, not multiplied by the mask: 0 * inf would be NaN.
        mat[:, mask] += spec.step_size * grad[:, mask]
    return mat, value, grad


def _draws(rng, objective, n: int, batch_size: int, steps: int):
    """Yield one seed's row draws, ``steps`` steps at a time: (steps, width).

    A CPC step draws a batch of ``batch_size`` rows; an NWJ step a batch of
    ``size = min(n, 256)`` joint rows, then the x and the y rows of ``size``
    product pairs.  An epoch is drawn only once the last is used up, so a
    step costs O(size) draws however large n is.
    """
    size = batch_size if objective == "cpc" else min(n, _NWJ_PAIRS)
    batches = np.empty((0, size), dtype=np.int64)
    while True:
        if len(batches) < steps:
            epochs = -(-(steps - len(batches)) // (n // size))
            perms = rng.permuted(np.tile(np.arange(n), (epochs, 1)), axis=1)
            batches = np.concatenate([batches, perms[:, :n - n % size].reshape(-1, size)])
            del perms  # not held while the generator waits
        joint, batches = batches[:steps], batches[steps:]
        if objective == "cpc":
            yield joint
        else:
            yield np.concatenate([joint, rng.integers(0, n, (steps, 2 * size))], axis=1)


def _cpc_value_grad(mat, phi, psi):
    """CPC values (P,) and gradients in Theta's shape on batches ``phi`` (P, b, px)
    and ``psi`` (P, b, py); the gradient passes the score cap unchanged."""
    b = phi.shape[1]
    cap = DEFAULT_SCORE_CAP
    value, exp = _contrastive(np.clip(phi @ mat @ psi.transpose(0, 2, 1), -cap, cap))
    weights = (np.eye(b) - exp / exp.sum(axis=2, keepdims=True)) / b
    return value, phi.transpose(0, 2, 1) @ weights @ psi


def _nwj_value_grad(mat, phi_joint, psi_joint, phi_prod, psi_prod):
    """NWJ values (P,) and gradients in Theta's shape on k joint pairs and k
    product pairs, each side (P, k, p); the gradient passes the cap unchanged."""
    cap = DEFAULT_SCORE_CAP
    joint = np.clip(_row_scores(phi_joint @ mat, psi_joint), -cap, cap)
    exp_p = np.exp(np.clip(_row_scores(phi_prod @ mat, psi_prod), -cap, cap))
    grad = (phi_joint.transpose(0, 2, 1) @ psi_joint
            - math.exp(-1.0) * (phi_prod * exp_p[..., None]).transpose(0, 2, 1) @ psi_prod)
    return _nwj_value(joint, exp_p), grad / joint.shape[1]


# --------------------------------------------------------------------- #
# Fitted estimates and tree edge weights
# --------------------------------------------------------------------- #


def fit_and_estimate_stack(objective: str, fit_xs, fit_ys, eval_xs, eval_ys, seeds,
                           spec: BatchSpec, perms=None):
    """Fit a bilinear critic per problem of a stack of P, then estimate on its eval pairs.

    Problem p fits on ``fit_xs[p]`` (n, dx) and ``fit_ys[p]`` (n, dy) with
    ``seeds[p]`` in place of ``spec.seed``, then estimates on ``eval_xs[p]``
    (k, dx) and ``eval_ys[p]`` (k, dy).  ``"cpc"`` averages
    :func:`cpc_estimate` over consecutive full batches of
    ``spec.batch_size`` eval pairs, so it never exceeds the log batch size.
    ``"nwj"`` takes product pairs ``(eval_xs[p], eval_ys[p, perms[p]])``,
    with ``perms[p]`` drawn from ``seeds[p]`` when ``perms`` is omitted.  A
    lone problem is a stack of one.  The problems are fitted and evaluated
    in chunks of at most ``_STACK_FLOATS`` floats, each chunk one stacked
    ascent.

    Returns the values (P,) and, for each problem, ``None`` or why it
    failed: :data:`DIVERGED` when its critic fit left non-finite
    parameters, else :data:`NON_FINITE_SCORES` when its critic scored an
    eval pair non-finitely.  A failed problem's value is NaN.
    """
    _check_objective(objective)
    fit_xs, fit_ys = _real_stack(fit_xs, "fit_xs"), _real_stack(fit_ys, "fit_ys")
    eval_xs, eval_ys = _real_stack(eval_xs, "eval_xs"), _real_stack(eval_ys, "eval_ys")
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
    # Floats one problem holds at once, at most: its fit and eval maps and
    # their products, a step's rows, a block of draws, and CPC score grids.
    floats = ((2 * (n_fit + n_eval) + 6 * _NWJ_PAIRS) * (dx + dy + 2) + _BLOCK_FLOATS
              + 3 * (n_eval + spec.batch_size) * spec.batch_size)
    size = max(1, _STACK_FLOATS // floats)
    values = np.empty(n_problems)
    failures = []
    for k in range(0, n_problems, size):
        chunk = slice(k, k + size)
        mat = _ascend("bilinear", objective, fit_xs[chunk], fit_ys[chunk],
                      seeds[chunk], spec)[0]
        diverged = ~np.all(np.isfinite(mat), axis=(1, 2))
        values[chunk], non_finite = _estimates(
            objective, mat, eval_xs[chunk], eval_ys[chunk],
            None if perms is None else perms[chunk], spec.batch_size)
        failures += [DIVERGED if d else NON_FINITE_SCORES if f else None
                     for d, f in zip(diverged, non_finite)]
    values[[why is not None for why in failures]] = np.nan
    return values, failures


def _real_stack(stack, name: str) -> np.ndarray:
    """A (P, n, d) stack whose every problem passes the families' sample check."""
    arr = np.asarray(stack, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"{name} must be a stack of (n, d) sample matrices")
    for p, problem in enumerate(arr):
        _real_matrix(problem, f"{name}[{p}]")
    return arr


def _estimates(objective, mat, xs, ys, perms, batch_size: int):
    """The estimates of :func:`fit_and_estimate_stack` from fitted Thetas,
    and whether any of a problem's scores was non-finite: two (P,) arrays.

    ``mat`` is Theta (P, px, py); problem p evaluates on ``xs[p]``,
    ``ys[p]`` and, for NWJ, takes product pairs ``(xs[p], ys[p, perms[p]])``.
    All CPC batches are scored at once.
    """
    n_problems, n = xs.shape[:2]
    if objective == "cpc":
        # Score grids of every full batch, (P * n // b, b, b).
        used, batches = n - n % batch_size, (-1, batch_size, mat.shape[2])
        scores = ((_side("bilinear", xs[:, :used]) @ mat).reshape(batches)
                  @ _side("bilinear", ys[:, :used]).reshape(batches).transpose(0, 2, 1))
        non_finite = ~np.all(np.isfinite(scores.reshape(n_problems, -1)), axis=1)
        values = _contrastive(_capped(scores))[0].reshape(n_problems, -1)
        return values.mean(axis=1), non_finite
    x_theta = _side("bilinear", xs) @ mat
    psi = _side("bilinear", ys)
    joint = _row_scores(x_theta, psi)
    prod = _row_scores(x_theta, psi[np.arange(n_problems)[:, None], perms])
    non_finite = ~(np.all(np.isfinite(joint), axis=1) & np.all(np.isfinite(prod), axis=1))
    return _nwj_value(_capped(joint), np.exp(_capped(prod))), non_finite


def baseline_edge_weights(variables, method: str, seed: int) -> EdgeWeightMatrix:
    """CPC or NWJ estimate for every ordered variable pair.

    Pair ``(i, j)`` fits and evaluates on all its samples as
    :func:`fit_and_estimate_stack` does, seeded from ``(seed, i, j)`` so
    that each weight is reproducible on its own.  Pairs of the same
    dimensions share one stack.  Each variable is checked as ``ys``, in
    index order, as :func:`structure.edge_weights` checks it; failed pairs
    raise one :class:`NumericalError` that names each with its reason.
    """
    m = _check_aligned(variables)
    _check_objective(method)
    variables = [_real_matrix(v, "ys") for v in variables]
    spec = BatchSpec(iterations=EDGE_WEIGHT_ITERATIONS)
    seeds = {(i, j): int(np.random.SeedSequence((seed, i, j)).generate_state(1)[0])
             for i in range(m) for j in range(m) if i != j}
    groups: dict = {}
    for i, j in seeds:
        groups.setdefault((variables[i].shape[1], variables[j].shape[1]), []).append((i, j))
    w = np.zeros((m, m))
    failed: dict = {}
    for pairs in groups.values():
        xs = np.stack([variables[i] for i, _ in pairs])
        ys = np.stack([variables[j] for _, j in pairs])
        w[tuple(zip(*pairs))], failures = fit_and_estimate_stack(
            method, xs, ys, xs, ys, [seeds[p] for p in pairs], spec)
        for pair, why in zip(pairs, failures):
            if why is not None:
                failed.setdefault(why, []).append(pair)
    if failed:
        raise NumericalError(f"{method} " + "; ".join(
            f"{why} for pairs " + ", ".join(map(str, sorted(failed[why])))
            for why in (DIVERGED, NON_FINITE_SCORES) if why in failed))
    return EdgeWeightMatrix(w)
