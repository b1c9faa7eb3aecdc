"""Predictive model families with exact or iterative fitting.

A predictive family is a set of models, each mapping a piece of side
information (or no side information at all) to a probability distribution
over a target variable.  Every family in this module satisfies *optional
ignorance*: whatever distribution a conditional predictor can output, the
family also contains a constant predictor emitting that distribution for
every input.  That closure is what makes the information measure built on
these families non-negative; ``ConditionalPredictor.frozen`` materialises
the constant member so tests can probe the property directly.

Family kinds
------------
``tabular``              empirical pmf lookup, categorical x and y
``gaussian_mean``        Gaussian with covariance fixed at I/2, fitted mean
``laplace_mean``         spherical Laplace, location at the geometric median
``linear_gaussian``      Gaussian with mean W x + b, covariance I/2
``polynomial_gaussian``  Gaussian with polynomial mean, covariance I/2
``categorical_softmax``  multinomial logistic conditional, pmf marginal

The Gaussian families keep the covariance fixed at I/2.  With that choice
the fitted negative log-likelihood of a sample equals the trace of its
biased empirical covariance plus a dimension constant, and the information
for the linear family is exactly the unnormalised coefficient of
determination.  Fitting a covariance would break both identities.

All fits minimise the empirical negative log-likelihood.  Closed-form
families solve exactly (sample mean, empirical pmf, ordinary least
squares); ``laplace_mean`` runs Weiszfeld iteration for the geometric
median; ``categorical_softmax`` and norm-constrained linear maps use
gradient descent and report a diagnostic when they stop on the iteration
cap rather than the tolerance.  A ``categorical_softmax`` class that never
occurs in the fitted sample gets probability 0, the limit of its logits,
and the descent runs over the classes that do occur.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import NumericalError

__all__ = [
    "VariableSpec",
    "FitMode",
    "FamilyConfig",
    "MarginalPredictor",
    "ConditionalPredictor",
    "ConstantConditional",
    "FitWarning",
    "fit_marginal",
    "fit_conditional",
    "log_density",
    "geometric_median",
    "laplace_log_normalizer",
]

LOG_PI = math.log(math.pi)

FAMILY_KINDS = (
    "tabular",
    "gaussian_mean",
    "laplace_mean",
    "linear_gaussian",
    "polynomial_gaussian",
    "categorical_softmax",
)
_CATEGORICAL_KINDS = ("tabular", "categorical_softmax")
_CONSTANT_KINDS = ("gaussian_mean", "laplace_mean")  # members cannot read x
_PMF_TOL = 1e-12


class FitWarning(UserWarning):
    """An iterative fit stopped at its iteration cap before the tolerance."""


# --------------------------------------------------------------------- #
# Configuration types
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class VariableSpec:
    """Shape of one variable: a real vector or a categorical symbol."""

    kind: str
    dim: int = 1
    cardinality: int | None = None

    def __post_init__(self):
        if self.kind == "real":
            if self.dim < 1:
                raise ValueError("real variable needs dim >= 1")
            if self.cardinality is not None:
                raise ValueError("real variable has no cardinality")
        elif self.kind == "categorical":
            if self.cardinality is None or self.cardinality < 2:
                raise ValueError("categorical variable needs cardinality >= 2")
        else:
            raise ValueError(f"unknown variable kind {self.kind!r}")

    @classmethod
    def real(cls, dim: int = 1) -> "VariableSpec":
        return cls("real", dim=dim)

    @classmethod
    def categorical(cls, cardinality: int) -> "VariableSpec":
        return cls("categorical", cardinality=cardinality)


@dataclass(frozen=True)
class FitMode:
    """Iteration cap, step and stopping tolerance of an iterative fit.

    Gradient descent (``categorical_softmax``, norm-constrained linear
    maps) and ``laplace_mean``'s Weiszfeld iteration read it; exact fits
    ignore it.  ``step_size=None`` picks a safe step from the design
    curvature.
    """

    max_iters: int = 5000
    step_size: float | None = None
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.step_size is not None and not _positive_finite(self.step_size):
            raise ValueError("step_size must be positive and finite")
        if not _positive_finite(self.tolerance):
            raise ValueError("tolerance must be positive and finite")


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class FamilyConfig:
    """Selects a family kind plus its fitting and evaluation options.

    ``clip_b`` bounds every log-density to [-B, B] at evaluation time
    (fits are unaffected).  ``norm_radius`` constrains the spectral norm
    of the stacked linear map (W, b) and switches the linear/polynomial
    conditional fit to projected gradient descent.
    """

    kind: str
    order: int | None = None
    fit: FitMode | None = None
    norm_radius: float | None = None
    clip_b: float | None = None
    x_spec: VariableSpec | None = None
    y_spec: VariableSpec | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "polynomial_gaussian":
            if self.order is None or self.order < 1:
                raise ValueError("polynomial_gaussian needs order >= 1")
        elif self.order is not None:
            raise ValueError("order is only meaningful for polynomial_gaussian")
        if self.clip_b is not None and self.clip_b <= 0:
            raise ValueError("clip bound B must be positive")
        if self.norm_radius is not None:
            if self.kind not in ("linear_gaussian", "polynomial_gaussian"):
                raise ValueError("norm_radius applies to linear/polynomial maps only")
            if self.norm_radius <= 0:
                raise ValueError("norm_radius must be positive")


# --------------------------------------------------------------------- #
# Input canonicalisation
# --------------------------------------------------------------------- #


def _real_matrix(samples, name: str, spec: VariableSpec | None = None) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError(f"{name} must be a vector or a matrix of row samples")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if spec is not None:
        if spec.kind != "real":
            raise ValueError(f"{name} declared categorical but treated as real")
        if arr.shape[1] != spec.dim:
            raise ValueError(
                f"{name} has dimension {arr.shape[1]}, expected {spec.dim}"
            )
    return arr


def _symbol_vector(samples, name: str, cardinality: int | None = None) -> np.ndarray:
    arr = np.asarray(samples)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a flat vector of symbols")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} is empty")
    if not np.issubdtype(arr.dtype, np.number):
        raise ValueError(f"{name} must contain integer symbols")
    ints = arr.astype(np.int64)
    if not np.all(ints == arr):
        raise ValueError(f"{name} must contain integer symbols")
    if np.any(ints < 0):
        raise ValueError(f"{name}: categorical symbol out of range (negative)")
    if cardinality is not None and np.any(ints >= cardinality):
        raise ValueError(
            f"{name}: categorical symbol out of range (cardinality {cardinality})"
        )
    return ints


def _categorical_symbols(samples, name: str, spec: VariableSpec | None):
    """Symbols of a categorical sample and their cardinality: the spec's, or
    without a spec the largest symbol plus one, and at least 2."""
    symbols = _symbol_vector(samples, name, None if spec is None else spec.cardinality)
    if spec is None:
        return symbols, max(int(symbols.max()) + 1, 2)
    if spec.kind != "categorical":
        raise ValueError("categorical family needs a categorical variable spec")
    return symbols, spec.cardinality


def _clipped(vals: np.ndarray, clip: float | None) -> np.ndarray:
    return vals if clip is None else np.clip(vals, -clip, clip)


# --------------------------------------------------------------------- #
# Predictors
# --------------------------------------------------------------------- #


class MarginalPredictor:
    """A single distribution over the target; evaluates log-densities."""

    clip: float | None

    def _raw_log_densities(self, ys) -> np.ndarray:
        raise NotImplementedError

    def log_densities(self, ys) -> np.ndarray:
        return _clipped(self._raw_log_densities(ys), self.clip)

    def log_density(self, y) -> float:
        return float(self.log_densities([y])[0])


class ConditionalPredictor:
    """A map from side information to distributions over the target."""

    clip: float | None

    def _raw_log_densities(self, xs, ys) -> np.ndarray:
        raise NotImplementedError

    def log_densities(self, xs, ys) -> np.ndarray:
        return _clipped(self._raw_log_densities(xs, ys), self.clip)

    def log_density(self, x, y) -> float:
        return float(self.log_densities([x], [y])[0])

    def at(self, x) -> MarginalPredictor:
        """The output distribution at input ``x``, as a marginal predictor."""
        raise NotImplementedError

    def frozen(self, x) -> "ConstantConditional":
        """Constant family member emitting this predictor's output at ``x``."""
        return ConstantConditional(self.at(x), clip=self.clip)


class TabularPmf(MarginalPredictor):
    """Explicit pmf over a finite symbol set."""

    def __init__(self, pmf, clip: float | None = None):
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.shape[0] < 2:
            raise ValueError("pmf must be a vector over >= 2 symbols")
        if np.any(pmf < 0) or abs(pmf.sum() - 1.0) > _PMF_TOL:
            raise ValueError("pmf entries must be non-negative and sum to 1")
        self.clip = clip
        self.pmf = pmf
        with np.errstate(divide="ignore"):
            self._log_pmf = np.log(pmf)

    def _raw_log_densities(self, ys) -> np.ndarray:
        idx = _symbol_vector(ys, "y", cardinality=self.pmf.shape[0])
        return self._log_pmf[idx]


class GaussianMean(MarginalPredictor):
    """Gaussian with covariance I/2; density y -> pi^{-d/2} exp(-||y - mu||^2)."""

    def __init__(self, mu, clip: float | None = None):
        self.clip = clip
        self.mu = np.asarray(mu, dtype=float).reshape(-1)

    def _raw_log_densities(self, ys) -> np.ndarray:
        y = _real_matrix(ys, "y", VariableSpec.real(self.mu.shape[0]))
        with np.errstate(over="ignore"):  # an infinite square is a zero density
            sq = np.sum((y - self.mu) ** 2, axis=1)
        return -0.5 * self.mu.shape[0] * LOG_PI - sq


class LaplaceMean(MarginalPredictor):
    """Spherical Laplace: density y -> exp(-||y - mu||_2) / Z(d)."""

    def __init__(self, mu, clip: float | None = None):
        self.clip = clip
        self.mu = np.asarray(mu, dtype=float).reshape(-1)
        self.log_normalizer = laplace_log_normalizer(self.mu.shape[0])

    def _raw_log_densities(self, ys) -> np.ndarray:
        y = _real_matrix(ys, "y", VariableSpec.real(self.mu.shape[0]))
        dist = np.linalg.norm(y - self.mu, axis=1)
        return -self.log_normalizer - dist


class LinearGaussianMap(ConditionalPredictor):
    """Gaussian conditional with mean W phi(x) + b and covariance I/2.

    ``exponents`` is None for the identity feature map, otherwise a tuple
    of monomial exponent vectors defining a polynomial expansion of x.
    """

    def __init__(self, weight, bias, x_dim: int, exponents=None,
                 clip: float | None = None, diagnostics: dict | None = None):
        self.clip = clip
        self.weight = np.asarray(weight, dtype=float)
        self.bias = np.asarray(bias, dtype=float).reshape(-1)
        self.x_dim = x_dim
        self.exponents = exponents
        self.diagnostics = diagnostics

    def _features(self, xs) -> np.ndarray:
        x = _real_matrix(xs, "x", VariableSpec.real(self.x_dim))
        return _expand(x, self.exponents)

    def predict_mean(self, xs) -> np.ndarray:
        return self._features(xs) @ self.weight.T + self.bias

    def _raw_log_densities(self, xs, ys) -> np.ndarray:
        mean = self.predict_mean(xs)
        y = _real_matrix(ys, "y", VariableSpec.real(self.bias.shape[0]))
        if y.shape[0] != mean.shape[0]:
            raise ValueError("xs and ys have different lengths")
        with np.errstate(over="ignore"):  # an infinite square is a zero density
            sq = np.sum((y - mean) ** 2, axis=1)
        return -0.5 * self.bias.shape[0] * LOG_PI - sq

    def at(self, x) -> GaussianMean:
        mu = self.predict_mean([x])[0]
        return GaussianMean(mu, clip=self.clip)


class SoftmaxMap(ConditionalPredictor):
    """Multinomial logistic conditional over a finite symbol set.

    ``classes`` marks which of the C symbols the rows of ``theta`` score,
    in order; every other symbol has probability 0.
    """

    def __init__(self, theta, classes, x_dim: int, x_cardinality: int | None = None,
                 clip: float | None = None, diagnostics: dict | None = None):
        self.clip = clip
        self.theta = np.asarray(theta, dtype=float)  # (k, q + 1), last col bias
        self.classes = np.asarray(classes, dtype=bool)  # (C,), k entries set
        self.x_dim = x_dim
        self.x_cardinality = x_cardinality
        self.diagnostics = diagnostics

    def _features(self, xs) -> np.ndarray:
        x = _encode_softmax_inputs(xs, self.x_dim, self.x_cardinality)
        return np.hstack([x, np.ones((x.shape[0], 1))])

    def _log_probs(self, xs) -> np.ndarray:
        logits = self._features(xs) @ self.theta.T
        logits -= logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(logits).sum(axis=1, keepdims=True))
        log_probs = np.full((logits.shape[0], self.classes.shape[0]), -np.inf)
        log_probs[:, self.classes] = logits - log_norm
        return log_probs

    def _raw_log_densities(self, xs, ys) -> np.ndarray:
        log_probs = self._log_probs(xs)
        idx = _symbol_vector(ys, "y", cardinality=self.classes.shape[0])
        if idx.shape[0] != log_probs.shape[0]:
            raise ValueError("xs and ys have different lengths")
        return log_probs[np.arange(idx.shape[0]), idx]

    def at(self, x) -> TabularPmf:
        pmf = np.exp(self._log_probs([x])[0])
        pmf = pmf / pmf.sum()
        return TabularPmf(pmf, clip=self.clip)


class TabularConditional(ConditionalPredictor):
    """Per-symbol empirical conditional pmf with a marginal fallback.

    Rows for x symbols never seen in training hold the fitted marginal
    pmf so their log-densities stay finite.
    """

    def __init__(self, table, clip: float | None = None):
        self.clip = clip
        self.table = np.asarray(table, dtype=float)  # (Cx, Cy)
        row_sums = self.table.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > _PMF_TOL):
            raise ValueError("conditional pmf rows must sum to 1")
        with np.errstate(divide="ignore"):
            self._log_table = np.log(self.table)

    def _raw_log_densities(self, xs, ys) -> np.ndarray:
        xi = _symbol_vector(xs, "x", cardinality=self.table.shape[0])
        yi = _symbol_vector(ys, "y", cardinality=self.table.shape[1])
        if xi.shape[0] != yi.shape[0]:
            raise ValueError("xs and ys have different lengths")
        return self._log_table[xi, yi]

    def at(self, x) -> TabularPmf:
        xi = int(_symbol_vector([x], "x", cardinality=self.table.shape[0])[0])
        return TabularPmf(self.table[xi], clip=self.clip)


class ConstantConditional(ConditionalPredictor):
    """Conditional predictor that ignores its input entirely.

    Families whose members carry no dependence on x (``gaussian_mean``,
    ``laplace_mean``) fit to this, and ``frozen`` returns one for any
    family; it witnesses the optional-ignorance closure.
    """

    def __init__(self, base: MarginalPredictor, clip: float | None = None):
        self.base = base
        self.clip = clip

    def _raw_log_densities(self, xs, ys) -> np.ndarray:
        vals = self.base._raw_log_densities(ys)
        n_x = np.atleast_1d(np.asarray(xs)).shape[0]
        if n_x != vals.shape[0]:
            raise ValueError("xs and ys have different lengths")
        return vals

    def at(self, x) -> MarginalPredictor:
        return self.base

    def frozen(self, x) -> "ConstantConditional":
        return self


# --------------------------------------------------------------------- #
# Fitting
# --------------------------------------------------------------------- #


def fit_marginal(config: FamilyConfig, ys) -> MarginalPredictor:
    """Fit the family member minimising empirical negative log-likelihood.

    Exact for every kind except ``laplace_mean``, whose geometric median
    comes from Weiszfeld iteration.  Linear and polynomial kinds fit their
    constant sub-family: a Gaussian centred on the sample mean, or with a
    ``norm_radius`` r, where ``(W, b) = (0, b)`` needs ``||b|| <= r``, on
    the sample mean pulled into that ball.
    """
    if config.kind in _CATEGORICAL_KINDS:
        symbols, card = _categorical_symbols(ys, "ys", config.y_spec)
        pmf = np.bincount(symbols, minlength=card) / symbols.shape[0]
        return TabularPmf(pmf, clip=config.clip_b)

    y = _real_matrix(ys, "ys", config.y_spec)
    if config.kind == "laplace_mean":
        fit = config.fit
        mu = (geometric_median(y) if fit is None
              else geometric_median(y, tol=fit.tolerance, max_iters=fit.max_iters))
        return LaplaceMean(mu, clip=config.clip_b)
    # gaussian_mean, linear_gaussian, polynomial_gaussian
    mu = y.mean(axis=0)
    if config.norm_radius is not None:
        norm = float(np.linalg.norm(mu))
        if norm > config.norm_radius:
            mu = mu * (config.norm_radius / norm)
    return GaussianMean(mu, clip=config.clip_b)


def fit_conditional(config: FamilyConfig, xs, ys) -> ConditionalPredictor:
    """Fit the conditional member minimising empirical negative log-likelihood.

    Least-squares kinds solve exactly (minimum-norm solution when the
    design is rank-deficient); ``categorical_softmax`` and norm-constrained
    linear maps run gradient descent.  A constant-map kind's conditional fit
    is its marginal fit wrapped to ignore x.
    """
    if config.kind in _CONSTANT_KINDS:
        if np.asarray(xs).shape[0] != np.asarray(ys).shape[0]:
            raise ValueError("xs and ys have different lengths")
        return ConstantConditional(fit_marginal(config, ys), clip=config.clip_b)

    if config.kind == "tabular":
        return _fit_tabular_conditional(config, xs, ys)
    if config.kind == "categorical_softmax":
        return _fit_softmax_conditional(config, xs, ys)
    return _fit_linear_conditional(config, xs, ys)


def log_density(predictor, y, *, x=None) -> float:
    """Log-density of ``y`` under ``predictor``, at side information ``x``.

    ``x`` must be given exactly when the predictor is conditional.  The
    predictor's clip bound, if any, is applied to the result.
    """
    if isinstance(predictor, ConditionalPredictor):
        if x is None:
            raise ValueError("conditional predictor needs side information x")
        return predictor.log_density(x, y)
    if isinstance(predictor, MarginalPredictor):
        if x is not None:
            raise ValueError("marginal predictor takes no side information")
        return predictor.log_density(y)
    raise TypeError(f"not a predictor: {type(predictor).__name__}")


# --------------------------------------------------------------------- #
# Family-specific fitting machinery
# --------------------------------------------------------------------- #


def _fit_tabular_conditional(config: FamilyConfig, xs, ys) -> TabularConditional:
    xi, cx = _categorical_symbols(xs, "xs", config.x_spec)
    yi, cy = _categorical_symbols(ys, "ys", config.y_spec)
    if xi.shape[0] != yi.shape[0]:
        raise ValueError("xs and ys have different lengths")
    counts = np.zeros((cx, cy))
    np.add.at(counts, (xi, yi), 1.0)
    row_totals = counts.sum(axis=1)
    seen = row_totals > 0
    marginal = np.bincount(yi, minlength=cy) / yi.shape[0]
    table = np.where(seen[:, None], counts / np.where(seen, row_totals, 1.0)[:, None],
                     marginal[None, :])
    return TabularConditional(table, clip=config.clip_b)


def _poly_exponents(x_dim: int, order: int) -> tuple:
    """Monomial exponent vectors of total degree 1..order, nested in order."""
    out = []
    for degree in range(1, order + 1):
        for combo in combinations_with_replacement(range(x_dim), degree):
            exps = [0] * x_dim
            for v in combo:
                exps[v] += 1
            out.append(tuple(exps))
    return tuple(out)


def _expand(x: np.ndarray, exponents) -> np.ndarray:
    if exponents is None:
        return x
    cols = [np.prod(x ** np.asarray(e, dtype=float), axis=1) for e in exponents]
    return np.column_stack(cols)


def _fit_linear_conditional(config: FamilyConfig, xs, ys) -> LinearGaussianMap:
    x = _real_matrix(xs, "xs", config.x_spec)
    y = _real_matrix(ys, "ys", config.y_spec)
    if x.shape[0] != y.shape[0]:
        raise ValueError("xs and ys have different lengths")
    exponents = None
    if config.kind == "polynomial_gaussian":
        exponents = _poly_exponents(x.shape[1], config.order)
    feats = _expand(x, exponents)
    if not np.all(np.isfinite(feats)):
        # LAPACK's least-squares SVD can spin forever on an infinite design.
        raise NumericalError("xs features overflow float64 (polynomial expansion)")
    design = np.hstack([feats, np.ones((feats.shape[0], 1))])
    # lstsq returns the minimum-norm solution on rank-deficient designs.
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    weight = coef[:-1].T
    bias = coef[-1]
    diagnostics = None
    if config.norm_radius is not None:
        weight, bias, diagnostics = _project_linear_fit(
            design, y, weight, bias, config.norm_radius, config.fit or FitMode()
        )
    return LinearGaussianMap(
        weight, bias, x_dim=x.shape[1], exponents=exponents,
        clip=config.clip_b, diagnostics=diagnostics,
    )


def _spectral_project(mat: np.ndarray, radius: float) -> np.ndarray:
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] <= radius:
        return mat
    return u @ np.diag(np.minimum(s, radius)) @ vt


def _project_linear_fit(design, y, weight, bias, radius, mode: FitMode):
    """Projected gradient descent on mean squared error over the spectral ball."""
    n = design.shape[0]
    gram = design.T @ design / n
    lam = float(np.linalg.eigvalsh(gram)[-1])
    step = mode.step_size if mode.step_size is not None else 1.0 / (2.0 * lam + 1e-12)
    params = _spectral_project(np.hstack([weight, bias[:, None]]), radius)
    converged = False
    it = 0
    for it in range(1, mode.max_iters + 1):
        resid = y - design @ params.T
        grad = -2.0 / n * resid.T @ design
        new = _spectral_project(params - step * grad, radius)
        move = float(np.linalg.norm(new - params))
        params = new
        if move <= mode.tolerance:
            converged = True
            break
    diagnostics = {"iterations": it, "converged": converged, "last_move": move,
                   "step_size": step}
    if not converged:
        warnings.warn(
            f"constrained linear fit stopped after {it} iterations "
            f"(last move {move:.3e} > tolerance {mode.tolerance:.3e})",
            FitWarning,
        )
    return params[:, :-1], params[:, -1], diagnostics


def _encode_softmax_inputs(xs, x_dim: int, x_cardinality: int | None) -> np.ndarray:
    if x_cardinality is not None:
        idx = _symbol_vector(xs, "x", cardinality=x_cardinality)
        onehot = np.zeros((idx.shape[0], x_cardinality))
        onehot[np.arange(idx.shape[0]), idx] = 1.0
        return onehot
    return _real_matrix(xs, "x", VariableSpec.real(x_dim))


def _fit_softmax_conditional(config: FamilyConfig, xs, ys) -> SoftmaxMap:
    yi, cy = _categorical_symbols(ys, "ys", config.y_spec)
    # A real spec has no cardinality, so x_card is set only for categorical x.
    x_card = None if config.x_spec is None else config.x_spec.cardinality
    x = (_encode_softmax_inputs(xs, x_dim=x_card, x_cardinality=x_card)
         if x_card is not None else _real_matrix(xs, "xs", config.x_spec))
    if x.shape[0] != yi.shape[0]:
        raise ValueError("xs and ys have different lengths")
    mode = config.fit or FitMode()

    n = x.shape[0]
    feats = np.hstack([x, np.ones((n, 1))])
    gram = feats.T @ feats / n
    lam = float(np.linalg.eigvalsh(gram)[-1])
    step = mode.step_size if mode.step_size is not None else 1.0 / (lam + 1e-12)
    # An absent class's maximum-likelihood logit is -inf: fit only those present.
    classes = np.bincount(yi, minlength=cy) > 0
    onehot = np.zeros((n, int(classes.sum())))
    onehot[np.arange(n), (np.cumsum(classes) - 1)[yi]] = 1.0
    theta = np.zeros((onehot.shape[1], feats.shape[1]))
    converged = False
    it = 0
    grad_norm = math.inf
    for it in range(1, mode.max_iters + 1):
        logits = feats @ theta.T
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        grad = (probs - onehot).T @ feats / n
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= mode.tolerance:
            converged = True
            break
        theta -= step * grad
    diagnostics = {"iterations": it, "converged": converged,
                   "grad_norm": grad_norm, "step_size": step}
    if not converged:
        warnings.warn(
            f"softmax fit stopped after {it} iterations "
            f"(gradient norm {grad_norm:.3e} > tolerance {mode.tolerance:.3e})",
            FitWarning,
        )
    return SoftmaxMap(theta, classes, x_dim=x.shape[1], x_cardinality=x_card,
                      clip=config.clip_b, diagnostics=diagnostics)


# --------------------------------------------------------------------- #
# Geometric median and Laplace normaliser
# --------------------------------------------------------------------- #


def laplace_log_normalizer(dim: int) -> float:
    """log of the normaliser of exp(-||y||_2) over R^d.

    Z(d) = 2 pi^{d/2} Gamma(d) / Gamma(d/2); Z(1) = 2.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    return math.log(2.0) + 0.5 * dim * LOG_PI + math.lgamma(dim) - math.lgamma(dim / 2)


def geometric_median(points, tol: float = 1e-9, max_iters: int = 10_000) -> np.ndarray:
    """Point minimising the mean Euclidean distance to the rows of ``points``.

    Weiszfeld iteration with the Vardi-Zhang correction when an iterate
    coincides with a data point; stops when the iterate moves less than
    ``tol``.  Raises :class:`NumericalError` as soon as the start point
    (the mean) or an iterate is not finite.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    if not _positive_finite(tol):
        raise ValueError("tol must be positive and finite")
    pts = _real_matrix(points, "points")
    with np.errstate(over="ignore"):
        mu = pts.mean(axis=0)
    if not np.all(np.isfinite(mu)):
        raise NumericalError("geometric median: the mean of the points overflows float64")
    eps = 1e-12
    for it in range(1, max_iters + 1):
        diff = pts - mu
        dist = np.linalg.norm(diff, axis=1)
        coincident = dist < eps
        n_hit = int(coincident.sum())
        if n_hit == pts.shape[0]:
            return mu
        inv = 1.0 / dist[~coincident]
        tilde = (pts[~coincident] * inv[:, None]).sum(axis=0) / inv.sum()
        if n_hit == 0:
            new = tilde
        else:
            # Landed on a data point: move only if the pull of the other
            # points beats the point's own weight.
            r_vec = (diff[~coincident] * inv[:, None]).sum(axis=0)
            r = float(np.linalg.norm(r_vec))
            if r <= n_hit:
                return mu
            gamma = min(1.0, n_hit / r)
            new = (1.0 - gamma) * tilde + gamma * mu
        move = float(np.linalg.norm(new - mu))
        if not math.isfinite(move):
            raise NumericalError(f"geometric median: Weiszfeld step {it} overflows float64")
        mu = new
        if move <= tol:
            return mu
    warnings.warn(
        f"geometric median stopped after {max_iters} iterations "
        f"(last move {move:.3e} > tolerance {tol:.3e})",
        FitWarning,
    )
    return mu
