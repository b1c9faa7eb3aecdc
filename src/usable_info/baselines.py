"""Contrastive (CPC/InfoNCE) and NWJ mutual-information estimators.

These serve two jobs: comparison methods when building trees, and live
demonstrations of their known failure modes — the CPC estimate can never
exceed ``log(batch size)`` no matter the critic, and the NWJ estimator's
variance at the optimal critic grows at least like ``(e^I - 1) / N``.

Every critic scores in matrix form, ``phi(x)^T Theta psi(y)``, so a
batch's scores are one ``(Phi Theta) Psi^T``.  ``bilinear`` takes ``phi(x) = [x, 1]`` and
``psi(y) = [y, 1]``; ``quadratic`` puts each side's degree-2 monomials
before the 1.  A cell of Theta is free when the degrees of its phi and psi
entries sum to at most 2, so the free cells weigh each degree-<=2 monomial
of z = [x, y] once; the other cells stay 0.  ``Critic.theta`` lists the
free cells in Theta's row-major order.  :func:`gaussian_oracle_critic`
builds the optimal NWJ critic ``1 + log[p(x,y) / (p(x)p(y))]`` of a
correlated Gaussian pair, a quadratic in (x, y), as a ``quadratic`` Theta.
The held-out estimates (:func:`cpc_estimate`, :func:`nwj_estimate` and
:func:`fit_and_estimate_stack`) score with the estimators' formulas as
written, uncapped.  CPC subtracts each row's largest score before it
exponentiates, so its exponentials cannot overflow; an NWJ exp-score can.
A non-finite estimate is a failure, :data:`NON_FINITE_SCORES`, not a value.

Every fit is exact: Newton's method maximises the critic's objective, which
is concave in Theta, with a backtracking line search, to a certified
optimum: half the squared Newton decrement is at most ``_NEWTON_TOLERANCE``
(Boyd & Vandenberghe 2004, 9.5).  The NWJ objective (Nguyen, Wainwright &
Jordan 2010) runs over the n joint pairs and the product pairs of the
diagonal and ``_NWJ_PERMUTATIONS`` fixed permutations of the fit rows.  The
CPC objective (Poole et al. 2019) runs over fixed batches: one permutation
of the n fit rows, cut into ``n // batch_size`` batches of distinct rows.
Each of its batch terms is a log-sum-exp of scores linear in Theta.  A CPC
fit holds psi's constant column of Theta at 0: it adds the same to every
score of a row, so it cannot change a CPC value.  :class:`BatchSpec`'s
batch size applies to CPC only; its seed to both.  ``families`` fits a
real-x ``categorical_softmax`` by the same loop, :func:`_maximise`.

Every fit is one solve over a stack of same-shape problems, and
:func:`fit_critic` is a stack of one.  :func:`_fitted_chunks` fits a stack
in chunks; :func:`baseline_edge_weights` stacks the ordered pairs of the
same dimensions and takes each fit's value as the weight, the in-sample
optimum, as a family's weight is its in-sample fit.  The ``baselines``
table, :func:`gaussian_pair_baselines`, stacks synth's Gaussian pairs, one
per ``(rho, seed)`` row, in :func:`fit_and_estimate_stack`, which estimates
on held-out pairs, to measure each estimator's bias.  Each problem sees the
floating-point operations of a lone fit, the pairs of its own seed and its
own stop, so a stacked fit equals a lone fit bit for bit; problems that
share a seed draw once.  A solve holds each problem's pair features, one
contiguous row per moved cell of Theta, and builds one problem's Hessian at
a time.

Samples are checked as the families check them (``families._real_matrix``):
every entry point, and every problem of a stack, raises ``ValueError`` on
an empty, mis-shaped or non-finite sample.  A numerical failure has one
report, a reason per problem (:func:`_failure`), and
:func:`baseline_edge_weights` raises one :class:`NumericalError` that names
every failed pair and why.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .families import FitWarning, VariableSpec, _real_matrix
from .structure import EdgeWeightMatrix, _check_aligned
from .synth import SimulationConfig, _simulate_gaussian_pair, gaussian_pair_mutual_information

__all__ = [
    "Critic",
    "BatchSpec",
    "cpc_estimate",
    "nwj_estimate",
    "fit_critic",
    "fit_and_estimate_stack",
    "baseline_edge_weights",
    "gaussian_oracle_critic",
    "gaussian_pair_baselines",
]

# _fitted_chunks fits a stack in chunks of as many problems as this many floats
# (2 MB) hold: every step of a solve costs the same numpy calls however many
# problems it holds.  A chunk's floats are those _solve_floats counts, its
# feature build's included, and for a held-out estimate each problem's eval
# pairs.  2 MB is the knee of the measured curve: from 1 to 2, 3, 4 and 8 MB,
# a sweep cell's CPC and NWJ edge weights (sim2, m=7, d=2, n=300) and the
# baselines command at n=2048 took 115, 88, 84, 86 and 80 ms, and the
# sweep_fits benchmark's peak RSS read 44.1, 45.1, 46.3 and 46.8 MB to 4 MB
# (medians on 2 CPUs, numpy 2.4).
_NEWTON_FLOATS = 1 << 18
# An NWJ fit's product pairs are its n diagonal pairs and the pairs of this
# many fixed permutations of its rows.
_NWJ_PERMUTATIONS = 2
# Newton's method stops once half the squared Newton decrement is at most
# _NEWTON_TOLERANCE (Boyd & Vandenberghe 2004, 9.5), and fails after
# _NEWTON_ITERATIONS steps without that.
_NEWTON_TOLERANCE = 1e-10
_NEWTON_ITERATIONS = 50
# Armijo backtracking: a step must gain this fraction of its predicted gain,
# and halves at most _BACKTRACKS times.
_ARMIJO = 0.25
_BACKTRACKS = 60
# The ridge added to a unit-diagonal Newton system: it keeps the system
# nonsingular where coordinates are constant or duplicated, and moves the
# step only along directions whose curvature is below it.
_RIDGE = 1e-12
# Why a fit failed (_failure), and why an estimate did.
DIVERGED = "critic fit diverged to non-finite parameters"
NOT_CONVERGED = "critic fit did not reach the Newton decrement tolerance"
NON_FINITE_SCORES = "critic produced non-finite scores"


@dataclass(frozen=True)
class BatchSpec:
    """Critic-fit settings: the CPC batch size, of the fit's batches and the
    estimate's, and the seed that draws a fit's batches or product pairs."""

    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")


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


@np.errstate(over="ignore")
def cpc_estimate(critic: Critic, xs, ys) -> float:
    """Contrastive estimate on one batch of N aligned pairs.

    Scores are exponentiated so the contrastive ratio is positive;
    computed in log space, less each row's largest score, as

        mean_i [ s(x_i, y_i) - logmeanexp_j s(x_i, y_j) ]

    The result never exceeds log N.  A non-finite score, or a row whose
    scores span more than the float range and so a value of -inf, raises
    :class:`NumericalError` with :data:`NON_FINITE_SCORES`.
    """
    scores = critic.score_matrix(xs, ys)
    n = scores.shape[0]
    if n < 2 or scores.shape[1] != n:
        raise ValueError("need a batch of N >= 2 aligned pairs")
    return float(_finite(_contrastive(scores[None]))[0])


@np.errstate(over="ignore", invalid="ignore")
def nwj_estimate(critic: Critic, joint_xs, joint_ys, product_xs, product_ys) -> float:
    """NWJ estimate: mean score on joint pairs minus e^-1 mean exp-score
    on product-of-marginals pairs.

    A non-finite score, or an exp-score that overflows and so a value of
    -inf, raises :class:`NumericalError` with :data:`NON_FINITE_SCORES`.
    """
    joint = critic.score(joint_xs, joint_ys)
    prod = critic.score(product_xs, product_ys)
    return float(_finite(_nwj_value(joint[None], np.exp(prod[None]))[0]))


def _contrastive(scores: np.ndarray) -> np.ndarray:
    """CPC values of (P, b, b) score matrices; ``scores`` is overwritten.  Each
    row's largest score is subtracted first, so no exponential exceeds 1."""
    row_max = scores.max(axis=2, keepdims=True)
    diag = np.diagonal(scores, axis1=1, axis2=2) - row_max[..., 0]
    exp = np.exp(np.subtract(scores, row_max, out=scores), out=scores)
    return (diag - np.log(exp.mean(axis=2))).mean(axis=1)


def _nwj_value(joint: np.ndarray, exp_prod: np.ndarray) -> np.ndarray:
    """NWJ values from joint scores and exp'd product scores, each (P, n)."""
    return joint.mean(axis=1) - math.exp(-1.0) * exp_prod.mean(axis=1)


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
    theta = [rho / var, 0.0, square, 0.0, square, 1.0 + gaussian_pair_mutual_information(rho)]
    return Critic("quadratic", 1, 1, theta=theta, metadata={"rho": rho, "oracle": True})


# --------------------------------------------------------------------- #
# Fitting
# --------------------------------------------------------------------- #


def fit_critic(kind: str, objective: str, xs, ys, spec: BatchSpec | None = None) -> Critic:
    """Fit a critic on aligned (x, y) samples.

    ``objective`` is ``"cpc"``, on the fixed batches of ``spec.batch_size``
    rows, or ``"nwj"``, on the joint pairs and the product pairs, both of
    :func:`_pair_rows`.  Either is Newton's method to
    the objective's optimum, deterministic given ``spec.seed``.  The steps
    taken, the last half squared Newton decrement and the final objective
    value land in the critic's metadata.  A failed fit warns with its
    reason from :func:`_failure` as a ``FitWarning``.

    A separable CPC fit, whose critic ranks every row's own pair first in its
    batch, is certified while Theta grows: its value approaches the
    supremum, ``log(batch_size)``, which no finite Theta attains.
    """
    _check_objective(objective)
    if kind not in ("bilinear", "quadratic"):
        raise ValueError(f"unknown critic kind {kind!r}")
    spec = spec or BatchSpec()
    xs = _real_matrix(xs, "xs")
    ys = _real_matrix(ys, "ys")
    if ys.shape[0] != xs.shape[0]:
        raise ValueError("xs and ys have different lengths")
    mat, value, grad, steps, decrement = _newton(objective, kind, xs[None], ys[None],
                                                 [spec.seed], spec.batch_size)
    settings = {"batch_size": spec.batch_size} if objective == "cpc" else {}
    theta = mat[0][_mask(kind, xs.shape[1], ys.shape[1])]
    fitted = Critic(kind, xs.shape[1], ys.shape[1], theta=theta, metadata={
        "objective": objective,
        "final_value": float(value[0]),
        "final_grad_norm": float(np.linalg.norm(grad[0])),
        "iterations": int(steps[0]),
        "decrement": float(decrement[0]),
        **settings,
        "seed": spec.seed,
    })
    why = _failure(mat[0], value[0], decrement[0])
    if why is not None:
        warnings.warn(why, FitWarning)
    return fitted


def _failure(mat, value, decrement):
    """Why a fit failed, or None: its Theta ``mat`` is non-finite, its half
    squared Newton ``decrement`` above the tolerance, or its ``value`` non-finite."""
    return (DIVERGED if not np.all(np.isfinite(mat)) else NOT_CONVERGED
            if not decrement <= _NEWTON_TOLERANCE else None if np.isfinite(value)
            else NON_FINITE_SCORES)


def _check_objective(objective: str) -> None:
    if objective not in ("cpc", "nwj"):
        raise ValueError(f"unknown objective {objective!r}")


def _pair_rows(objective: str, seed: int, n: int, batch_size: int):
    """The pairs a fit of n rows scores, as its R fit rows (R,) and the y rows
    (K R,) of its K blocks of pairs: pair k R + r is (x_(rows[r]),
    y_(y_rows[k R + r])), and block 0 holds the joint pairs.

    Both draw from ``default_rng(seed)``.  NWJ takes rows 0..n-1, then the
    diagonal and ``_NWJ_PERMUTATIONS`` permutations of them.  CPC takes the
    rows of ``n // b`` batches, one permutation of the n rows with the
    remainder dropped, and b blocks: block k pairs each row with the row k
    places after it in its batch, cyclically, so that row r's b pairs are its
    batch's."""
    rng = np.random.default_rng(seed)
    if objective == "nwj":
        return np.arange(n), np.concatenate(
            [np.arange(n)] + [rng.permutation(n) for _ in range(_NWJ_PERMUTATIONS)])
    if n < batch_size:
        raise ValueError("not enough samples for one batch")
    batches = rng.permutation(n)[:n - n % batch_size]
    batches = batches.reshape(-1, batch_size)
    # shifted[k, i] is the place k after place i of a batch.
    shifted = (np.arange(batch_size) + np.arange(batch_size)[:, None]) % batch_size
    return batches.ravel(), batches[:, shifted].transpose(1, 0, 2).ravel()


def _pair_features(kind, xs, ys, rows, y_rows, cells) -> np.ndarray:
    """The fitted ``cells`` of phi psi^T of every pair of a stack of P
    problems, the pairs on the last axis: (P, q, K R), C-contiguous, so that
    each pass over a problem's features reads them in order.  Problem p's
    pairs are those of :func:`_pair_rows` with ``rows[p]`` and ``y_rows[p]``."""
    n_problems, n_rows = rows.shape
    width = _width(cells)
    cells = cells[:, :width]
    phi = _gathered(_side(kind, xs), rows)
    psi = _gathered(_side(kind, ys)[..., :width], y_rows)
    feats = np.empty((n_problems, cells.size, y_rows.shape[1]))
    np.multiply(phi[:, :, None, None], psi.reshape(n_problems, 1, width, -1, n_rows),
                out=feats.reshape(n_problems, cells.shape[0], width, -1, n_rows))
    return feats if cells.all() else feats[:, cells.ravel()]


def _width(cells) -> int:
    """How many of psi's entries a fit moves: all, or for CPC all but its
    constant last one."""
    return cells.shape[1] - (not cells[:, -1].any())


def _gathered(side, rows) -> np.ndarray:
    """Each problem's side map (P, n, s) at its ``rows`` (P, N): (P, s, N)."""
    out = np.empty((len(rows), side.shape[2], rows.shape[1]))
    for table, index, into in zip(side, rows, out):
        # Every index is in range; "clip" writes into ``out`` unbuffered.
        np.take(table.T, index, axis=1, out=into, mode="clip")
    return out


def _cells(objective: str, kind: str, x_dim: int, y_dim: int) -> np.ndarray:
    """The cells of Theta a fit moves: the free cells, less psi's constant
    column for CPC, whose cells add the same to every score of a row."""
    cells = _mask(kind, x_dim, y_dim)
    if objective == "cpc":
        cells = cells.copy()
        cells[:, -1] = False
    return cells


def _value_and_weights(objective: str, scores: np.ndarray, blocks: int):
    """Objective values (P,) at the pair scores (P, K R) of K blocks, and
    each pair's weight w (P, K R) in the gradient ``joint - F w``.

    NWJ: the mean joint score less e^-1 times the mean exp-score; w is
    ``e^-1 exp(s) / (K R)``.  CPC: the mean over rows r of ``s_rr -
    logsumexp_j s_rj + log b``; w is the softmax weight of a row's pairs
    over R.  A CPC row is shifted by its joint score, which keeps its sum of
    exponentials at least 1.  The weights are the one new (P, K R) array."""
    n_rows = scores.shape[1] // blocks
    if objective == "nwj":
        exp = np.exp(scores)
        value = _nwj_value(scores[:, :n_rows], exp)
        return value, np.multiply(exp, math.exp(-1.0) / scores.shape[1], out=exp)
    rows = scores.reshape(len(scores), blocks, n_rows)
    exp = np.subtract(rows, rows[:, :1])
    np.exp(exp, out=exp)
    total = exp.sum(axis=1)
    value = math.log(blocks) - np.log(total).mean(axis=1)
    return value, np.divide(exp, n_rows * total[:, None], out=exp).reshape(scores.shape)


def _derivatives(objective: str, feats, joint, weights, blocks: int):
    """The gradients (P, q) and negated Hessians (P, q, q) of a stack whose
    pairs' features are ``feats`` (P, q, K R), at the pair weights ``weights``
    (P, K R) of :func:`_value_and_weights`, ``joint`` being the joint pairs'
    mean feature (P, q).

    The gradient is ``joint - F w`` and the negated Hessian ``F diag(w)
    F^T``, less ``R G G^T`` for CPC, whose G (q, R) holds each row's sum of
    its pairs' w times their features.  Both negated Hessians are positive
    semidefinite: the objectives are concave.  The problems' ``F diag(w)``
    share one (q, K R) buffer, one problem at a time."""
    grad = joint - (feats @ weights[..., None])[..., 0]
    n_problems, q, n_pairs = feats.shape
    hess = np.empty((n_problems, q, q))
    weighted = np.empty((q, n_pairs))
    for f, w, h in zip(feats, weights, hess):
        np.multiply(f, w, out=weighted)
        np.matmul(weighted, f.T, out=h)
        if objective == "cpc":
            sums = weighted.reshape(q, blocks, -1).sum(axis=1)
            h -= sums.shape[1] * (sums @ sums.T)
    return grad, hess


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton(objective, kind, xs, ys, seeds, batch_size: int):
    """:func:`_maximise` on a stack of P critic problems, problem p moving the
    cells of :func:`_cells` on the pairs :func:`_pair_rows` draws from
    ``seeds[p]``; Theta (P, px, py) replaces its first result."""
    n_problems, n, dx = xs.shape
    cells = _cells(objective, kind, dx, ys.shape[2])
    drawn = {seed: _pair_rows(objective, seed, n, batch_size) for seed in dict.fromkeys(seeds)}
    rows, y_rows = (np.stack(a) for a in zip(*(drawn[seed] for seed in seeds)))
    del drawn
    feats = _pair_features(kind, xs, ys, rows, y_rows, cells)
    blocks = y_rows.shape[1] // rows.shape[1]
    del rows, y_rows
    theta, *rest = _maximise(objective, feats, blocks)
    mat = np.zeros((n_problems,) + cells.shape)
    mat[:, cells] = theta
    return (mat, *rest)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _maximise(objective, feats, blocks: int):
    """Newton's method on the objectives of a stack of P same-shape problems.

    ``feats`` (P, q, K R) holds each pair's features as a column of F, in
    ``blocks`` = K blocks of R pairs with block 0 the joint pairs, so the
    scores of parameters theta (q,) are ``theta F``; :func:`_derivatives`
    gives the gradient and Hessian.  A step solves the Newton system by
    least squares and backtracks until it gains ``_ARMIJO`` of its predicted
    gain; a problem stops once half its squared Newton decrement is at most
    ``_NEWTON_TOLERANCE``.  Each problem steps and stops on its own, so a
    stacked fit equals a lone fit bit for bit.  Each problem carries its
    scores, value and pair weights from the trial its line search accepted,
    starting from theta = 0 and scores of 0, so no step recomputes
    ``theta F``.  Finished problems are compacted out of ``feats`` in place,
    so it is overwritten.

    A converged problem still takes the full step it last computed, which
    costs no Hessian and, this close to the optimum, gains digits of theta.

    Returns theta (P, q), the objective there (P,), the gradient (P, q)
    at the iterate that computed the last step, the steps taken (P,) and
    that iterate's half squared Newton decrement (P,).  A problem converged
    when the decrement is at most the tolerance; it diverged when its theta
    is non-finite; otherwise it stopped at ``_NEWTON_ITERATIONS`` steps or at
    a line search that found no gain.
    """
    n_problems, _, n_pairs = feats.shape
    n_rows = n_pairs // blocks
    value_of = functools.partial(_value_and_weights, objective, blocks=blocks)
    joint = feats[:, :, :n_rows] @ np.full(n_rows, 1.0 / n_rows)
    theta = np.zeros(joint.shape)
    scores = np.zeros((n_problems, n_pairs))
    value, weights = value_of(scores)
    out = (np.zeros(theta.shape), np.full(n_problems, np.nan), np.full(theta.shape, np.nan),
           np.zeros(n_problems, dtype=int), np.full(n_problems, np.inf))
    live = np.arange(n_problems)
    for it in range(_NEWTON_ITERATIONS + 1):
        grad, hess = _derivatives(objective, feats, joint, weights, blocks)
        step = _least_squares_step(hess, grad)
        decrement = 0.5 * (grad * step).sum(axis=1)
        diverged = ~np.isfinite(decrement)
        converged = decrement <= _NEWTON_TOLERANCE
        # A converged problem takes its full Newton step: a slope of -inf
        # passes any finite value.
        searching = ~diverged & (converged | (it < _NEWTON_ITERATIONS))
        length = _line_search(scores, (step[:, None] @ feats)[:, 0], value_of, value, weights,
                              np.where(converged, -np.inf, 2.0 * decrement), searching)
        # A non-finite step is taken, so that the problem's theta reports it.
        theta += np.where(diverged, 1.0, length)[:, None] * step
        stop = ~searching | converged | (length == 0.0)
        steps = it + (diverged | (length > 0.0))
        if stop.any():
            for where, now in zip(out, (theta, value, grad, steps, decrement)):
                where[live[stop]] = now[stop]
            if stop.all():
                break
            live, joint, theta, value, feats, scores, weights = _compact(
                (live, joint, theta, value, feats, scores, weights), ~stop)
    return out


def _compact(arrays, keep):
    """The rows ``keep`` of each array, moved in order to its front in place:
    views of the first ``keep.sum()`` rows."""
    kept = np.flatnonzero(keep)
    for new, old in enumerate(kept):
        if new != old:
            for a in arrays:
                a[new] = a[old]
    return [a[:len(kept)] for a in arrays]


def _least_squares_step(hess, grad):
    """Newton steps (P, q): damped least-squares solutions of ``hess @ step
    = grad`` for the negated Hessians (P, q, q), NaN where either is
    non-finite.

    The system is scaled to a unit diagonal, so that no coordinate's scale
    matters, and solved with a ``_RIDGE`` ridge, so that constant or
    duplicated coordinates give a flat direction, not a failure.
    """
    diag = np.diagonal(hess, axis1=1, axis2=2)
    scale = np.zeros(diag.shape)
    np.divide(1.0, np.sqrt(diag), out=scale, where=diag > 0)
    scaled = scale[:, :, None] * hess * scale[:, None, :]
    finite = np.isfinite(scaled).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
    if not finite.all():
        scaled[~finite] = np.eye(hess.shape[1])
    system = scaled + _RIDGE * np.eye(hess.shape[1])
    step = scale * np.linalg.solve(system, (scale * grad)[..., None])[..., 0]
    step[~finite] = np.nan
    return step


def _line_search(scores, moves, value_of, value, weights, slope, searching):
    """Armijo backtracking for the rows of ``searching``: each row's step
    length t in 1, 1/2, 1/4, ... at which the objective ``value_of`` of
    ``scores + t * moves`` (P, N) gains at least ``_ARMIJO * t * slope`` over
    ``value``.  A row that passes takes the trial's scores, value and pair
    weights into ``scores``, ``value`` and ``weights`` in place.  A row that
    searches ``_BACKTRACKS`` lengths in vain, or does not search, gets length
    0 and keeps its own."""
    length = np.ones(len(value))
    pending = searching.copy()
    trial = np.empty(scores.shape)
    for _ in range(_BACKTRACKS):
        np.multiply(length[:, None], moves, out=trial)
        trial += scores
        trial_value, trial_weights = value_of(trial)
        passed = pending & (trial_value >= value + _ARMIJO * length * slope)
        value[passed] = trial_value[passed]
        np.copyto(scores, trial, where=passed[:, None])
        np.copyto(weights, trial_weights, where=passed[:, None])
        pending &= ~passed
        if not pending.any():
            break
        length[pending] *= 0.5
    length[pending | ~searching] = 0.0
    return length


# --------------------------------------------------------------------- #
# Fitted estimates and tree edge weights
# --------------------------------------------------------------------- #


def fit_and_estimate_stack(objective: str, fit_xs, fit_ys, eval_xs, eval_ys, seeds,
                           spec: BatchSpec, perms=None):
    """Fit a bilinear critic per problem of a stack of P, then estimate on its eval pairs.

    Problem p fits on ``fit_xs[p]`` (n, dx) and ``fit_ys[p]`` (n, dy) as
    :func:`fit_critic` does, with ``seeds[p]`` for ``spec.seed``, and
    estimates on ``eval_xs[p]`` (k, dx) and ``eval_ys[p]`` (k, dy).
    ``"cpc"`` averages :func:`cpc_estimate` over consecutive full batches of
    ``spec.batch_size`` eval pairs, so it never exceeds the log batch size;
    ``"nwj"`` takes product pairs ``(eval_xs[p], eval_ys[p, perms[p]])``;
    CPC ignores ``perms``.

    Returns the values (P,) and, for each problem, its fit's
    :func:`_failure`, else :data:`NON_FINITE_SCORES` if its critic scored
    an eval pair non-finitely or its estimate is non-finite (an NWJ
    exp-score can overflow), else None.  A failed problem's value is NaN.
    """
    _check_objective(objective)
    fit_xs, fit_ys = _real_stack(fit_xs, "fit_xs"), _real_stack(fit_ys, "fit_ys")
    eval_xs, eval_ys = _real_stack(eval_xs, "eval_xs"), _real_stack(eval_ys, "eval_ys")
    n_problems, n_fit, dx = fit_xs.shape
    dy = fit_ys.shape[2]
    n_eval = eval_xs.shape[1]
    if (fit_ys.shape[:2] != (n_problems, n_fit) or eval_xs.shape != (n_problems, n_eval, dx)
            or eval_ys.shape != (n_problems, n_eval, dy) or len(seeds) != n_problems):
        raise ValueError("fit and eval stacks do not match")
    if objective == "nwj" and np.shape(perms) != (n_problems, n_eval):
        raise ValueError("an NWJ estimate needs perms, one eval permutation per problem")
    if objective == "cpc" and n_fit < spec.batch_size:
        raise ValueError("not enough samples for one batch")
    if objective == "cpc" and n_eval < spec.batch_size:
        raise ValueError("not enough eval samples for one batch")
    values, failures = np.empty(n_problems), []
    chunks = _fitted_chunks(objective, fit_xs, fit_ys, seeds, spec.batch_size,
                            3 * n_eval * (dx + dy + 2))
    for chunk, mat, _, fit_failures in chunks:
        values[chunk], non_finite = _estimates(
            objective, mat, eval_xs[chunk], eval_ys[chunk],
            None if perms is None else perms[chunk], spec.batch_size)
        failures += [why or (NON_FINITE_SCORES if f else None)
                     for why, f in zip(fit_failures, non_finite)]
    values[[why is not None for why in failures]] = np.nan
    return values, failures


def _fitted_chunks(objective, xs, ys, seeds, batch_size: int, eval_floats: int = 0):
    """Fit a bilinear critic per problem p of a stack (P, n, d), seeded by
    ``seeds[p]``, in chunks whose :func:`_solve_floats`, with ``eval_floats``
    more per problem (an estimate's eval maps and scores), fit in
    ``_NEWTON_FLOATS``.  Yields, per chunk, its slice, Thetas (p, px, py),
    values (p,) and each problem's :func:`_failure`."""
    n_problems, n, dx = xs.shape
    fixed, floats = _solve_floats(objective, n, dx, ys.shape[2], batch_size)
    size = max(1, (_NEWTON_FLOATS - fixed) // (floats + eval_floats))
    for k in range(0, n_problems, size):
        chunk = slice(k, k + size)
        mat, value, _, _, decrement = _newton(objective, "bilinear", xs[chunk], ys[chunk],
                                              seeds[chunk], batch_size)
        yield chunk, mat, value, list(map(_failure, mat, value, decrement))


def _solve_floats(objective, n: int, dx: int, dy: int, batch_size: int):
    """The floats that :func:`_newton` holds at most for a bilinear critic on
    n rows of (dx, dy) samples: those it holds whatever its problem count,
    and those it holds per problem.

    Per pair, a problem holds a feature for each moved cell and either the
    five vectors of its solve (scores, weights, score moves, a trial and its
    weights) or, while its features are built, psi's gathered entries and
    their y row; per fit row, CPC's two row sums, or phi's gathered entries
    and their row; and per sample, psi's side map.  A solve also holds one
    problem's weighted features, and the multiply that builds the features
    two iterator buffers of ``np.getbufsize()`` items."""
    # Every seed draws as many rows, and _pair_rows refuses too few CPC rows.
    rows, y_rows = _pair_rows(objective, 0, n, batch_size)
    cells = _cells(objective, "bilinear", dx, dy)
    moved, pairs = int(cells.sum()), y_rows.size
    solve = pairs * 5 + rows.size * 2
    build = pairs * (_width(cells) + 1) + rows.size * (dx + 2) + n * (dy + 1)
    return pairs * moved + 2 * np.getbufsize(), pairs * moved + max(solve, build)


def _real_stack(stack, name: str) -> np.ndarray:
    """A (P, n, d) stack whose every problem passes the families' sample check."""
    arr = np.asarray(stack, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"{name} must be a stack of (n, d) sample matrices")
    for p, problem in enumerate(arr):
        _real_matrix(problem, f"{name}[{p}]")
    return arr


@np.errstate(over="ignore", invalid="ignore")
def _estimates(objective, mat, xs, ys, perms, batch_size: int):
    """The estimates of :func:`fit_and_estimate_stack` from fitted Thetas,
    and whether any of a problem's scores, or its estimate, was non-finite:
    two (P,) arrays.

    ``mat`` is Theta (P, px, py); problem p evaluates on ``xs[p]``,
    ``ys[p]`` and, for NWJ, takes product pairs ``(xs[p], ys[p, perms[p]])``.
    CPC scores every problem's batches in one product.  Finite scores can
    still give an estimate of -inf: an NWJ exp-score that overflows, or a
    CPC row whose scores span more than the float range.  numpy's overflow
    and invalid warnings are silenced, as the second array reports them.
    """
    n_problems, n = xs.shape[:2]
    if objective == "cpc":
        # Every problem's score grids at once: its full batches, (P, n // b, b, b).
        used, batches = n - n % batch_size, (n_problems, -1, batch_size, mat.shape[2])
        scores = ((_side("bilinear", xs[:, :used]) @ mat).reshape(batches)
                  @ _side("bilinear", ys[:, :used]).reshape(batches).swapaxes(2, 3))
        finite = np.isfinite(scores).all(axis=(1, 2, 3))
        values = _contrastive(scores.reshape((-1,) + scores.shape[2:]))
        values = values.reshape(n_problems, -1).mean(axis=1)
    else:
        x_theta = _side("bilinear", xs) @ mat
        psi = _side("bilinear", ys)
        joint = _row_scores(x_theta, psi)
        prod = _row_scores(x_theta, psi[np.arange(n_problems)[:, None], perms])
        finite = np.isfinite(joint).all(axis=1) & np.isfinite(prod).all(axis=1)
        values = _nwj_value(joint, np.exp(prod))
    return values, ~(finite & np.isfinite(values))


def baseline_edge_weights(variables, method: str, seed: int) -> EdgeWeightMatrix:
    """CPC or NWJ weight for every ordered variable pair: the value of its
    critic's fit on all its samples, seeded from ``(seed, i, j)``.

    Each objective is 0 at a critic of its family (Theta = 0 for CPC, the
    constant 1 for NWJ), so no weight is below 0 beyond the fit's tolerance,
    and CPC's is at most ``log(batch_size)``.  Pairs of the same dimensions
    share a stack.  Each variable is checked as ``ys``, in index order, as
    :func:`structure.edge_weights` checks it; failed pairs raise one
    :class:`NumericalError` naming each with its reason.
    """
    m = _check_aligned(variables)
    _check_objective(method)
    variables = [_real_matrix(v, "ys") for v in variables]
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
        chunks = _fitted_chunks(method, xs, ys, [seeds[p] for p in pairs],
                                BatchSpec().batch_size)
        for chunk, _, values, failures in chunks:
            for pair, value, why in zip(pairs[chunk], values, failures):
                w[pair] = value
                if why is not None:
                    failed.setdefault(why, []).append(pair)
    if failed:
        raise NumericalError(f"{method} " + "; ".join(
            f"{why} for pairs " + ", ".join(map(str, sorted(failed[why])))
            for why in (DIVERGED, NOT_CONVERGED, NON_FINITE_SCORES) if why in failed))
    return EdgeWeightMatrix(w)


def gaussian_pair_baselines(rhos, seeds, n: int, spec: BatchSpec) -> list[tuple]:
    """The ``usable-info baselines`` table: the CPC, NWJ and oracle-critic NWJ
    (``nwj_oracle``) estimates of each ``(rho, seed)`` row's mutual information.

    A row draws synth's scalar ``gaussian_pair`` of n samples from
    ``default_rng(seed)``, then its NWJ eval permutation.  The critics fit on
    the first ``n // 2`` pairs, one stack per objective, and estimate on the
    rest.  Rows ``(rho, seed, n, batch_size, estimator, value,
    true_information)`` come sorted by rho, seed and estimator; the first
    failed row in that order raises :class:`NumericalError`."""
    half = n // 2
    grid = [(rho, seed) for rho in rhos for seed in seeds]
    draws = []
    for rho, seed in grid:
        rng = np.random.default_rng(seed)
        config = SimulationConfig("gaussian_pair", n, seed, rho=rho, d=1)
        pair = _simulate_gaussian_pair(config, rng)[0].variables
        draws.append((*pair, rng.permutation(n - half)))
    xs, ys, perms = map(np.stack, zip(*draws))
    pairs = (xs[:, :half], ys[:, :half], xs[:, half:], ys[:, half:])
    row_seeds = [seed for _, seed in grid]
    fits = {"cpc": fit_and_estimate_stack("cpc", *pairs, row_seeds, spec),
            "nwj": fit_and_estimate_stack("nwj", *pairs, row_seeds, spec, perms=perms)}
    rows = []
    for k, (rho, seed) in enumerate(grid):
        for estimator, (_, failures) in fits.items():
            if failures[k] is not None:
                raise NumericalError(f"baselines rho={rho} seed={seed} "
                                     f"estimator={estimator}: {failures[k]}")
        values = {estimator: float(fit[0][k]) for estimator, fit in fits.items()}
        eval_x, eval_y = xs[k, half:, 0], ys[k, half:, 0]
        values["nwj_oracle"] = nwj_estimate(gaussian_oracle_critic(rho), eval_x, eval_y,
                                            eval_x, eval_y[perms[k]])
        true_info = gaussian_pair_mutual_information(rho)
        rows += [(rho, seed, n, spec.batch_size, estimator, value, true_info)
                 for estimator, value in values.items()]
    rows.sort(key=lambda r: (r[0], r[1], r[4]))
    return rows
