"""Empirical predictive information with optional PAC half-widths.

The empirical information carried by x about y, relative to a family of
predictors, is the drop in best achievable in-sample negative
log-likelihood when predictors may read x:

    I_hat = [min over marginal members of mean -log f(y_i)]
          - [min over conditional members of mean -log f(y_i | x_i)]

Both infima are taken over the same dataset the predictors are fitted on.
The marginal infimum runs over the family's constant members, so a
``norm_radius`` family's marginal is a constant mean inside its ball.  The
estimate is then non-negative up to the accuracy of an iterative
conditional fit, and up to the clipping of a ``clip_b`` bound, which is
applied at evaluation only.

When a :class:`PacConfig` is supplied, the estimate carries a half-width
such that the population quantity lies within ``point +/- half_width``
with probability at least ``1 - 2 delta``, assuming every log-density in
the family is bounded by ``B`` in absolute value (enforce this with the
family's clip bound).  Two bounds are available:

* a generic one, ``4 R + 2 B sqrt(2 log(1/delta) / n)``, where ``R`` is a
  user-supplied Rademacher-complexity bound for the family — never
  invented by this module;
* a closed form for norm-constrained linear-Gaussian predictors on inputs
  and targets with norm radii ``k_x`` and ``k_y``, computed by
  :func:`linear_pac_half_width`.

All values are in nats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InfiniteLogDensityError
from .families import FamilyConfig, fit_conditional, fit_marginal

__all__ = [
    "PacConfig",
    "PacBound",
    "InfoEstimate",
    "empirical_entropy",
    "empirical_conditional_entropy",
    "empirical_information",
    "linear_pac_half_width",
]

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PacConfig:
    """Inputs for the PAC half-width.

    Exactly one of ``rademacher_bound`` or the ``(k_x, k_y)`` pair must be
    given; the pair selects the closed-form linear-Gaussian bound.  ``b``
    is the assumed bound on absolute log-densities.
    """

    delta: float
    b: float
    rademacher_bound: float | None = None
    k_x: float | None = None
    k_y: float | None = None

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5)")
        if self.b <= 0:
            raise ValueError("log-density bound b must be positive")
        has_radii = self.k_x is not None or self.k_y is not None
        if has_radii and (self.k_x is None or self.k_y is None):
            raise ValueError("k_x and k_y must be given together")
        if has_radii == (self.rademacher_bound is not None):
            raise ValueError(
                "exactly one of rademacher_bound or (k_x, k_y) must drive the bound"
            )
        if self.rademacher_bound is not None and self.rademacher_bound < 0:
            raise ValueError("rademacher_bound must be non-negative")
        if has_radii and (self.k_x <= 0 or self.k_y <= 0):
            raise ValueError("norm radii must be positive")


@dataclass(frozen=True)
class PacBound:
    delta: float
    half_width: float
    bound_kind: str  # "rademacher" | "closed_form_linear"


@dataclass(frozen=True)
class InfoEstimate:
    """Point estimate of empirical information plus optional PAC half-width.

    ``point_estimate`` equals ``h_marginal - h_conditional`` unless the
    estimate was clamped to zero, in which case ``clamped_nonnegative`` is
    set and the raw (negative) value is still recoverable from the two
    entropies.
    """

    point_estimate: float
    h_marginal: float
    h_conditional: float
    sample_count: int
    pac: PacBound | None = None
    clamped_nonnegative: bool = False

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.pac is None:
            del out["pac"]
        return out


def _mean_negative(vals: np.ndarray) -> float:
    if np.any(np.isneginf(vals)):
        raise InfiniteLogDensityError(
            "a fitted predictor assigned zero density to an observed sample; "
            "set FamilyConfig.clip_b to bound log-densities"
        )
    return float(-vals.mean())


def empirical_entropy(config: FamilyConfig, ys) -> float:
    """Best achievable mean negative log-likelihood of ys, in-sample."""
    predictor = fit_marginal(config, ys)
    return _mean_negative(predictor.log_densities(ys))


def empirical_conditional_entropy(config: FamilyConfig, xs, ys) -> float:
    """Best achievable mean negative log-likelihood of ys given xs, in-sample."""
    predictor = fit_conditional(config, xs, ys)
    return _mean_negative(predictor.log_densities(xs, ys))


def empirical_information(
    config: FamilyConfig,
    xs,
    ys,
    pac: PacConfig | None = None,
    clamp: bool = False,
) -> InfoEstimate:
    """In-sample information estimate, optionally with a PAC half-width.

    Negative values can occur when an iterative conditional fit stops
    short of the marginal optimum; they are reported raw unless
    ``clamp=True``, which zeroes them and sets ``clamped_nonnegative``.
    """
    n = np.atleast_1d(np.asarray(xs)).shape[0]
    n_y = np.atleast_1d(np.asarray(ys)).shape[0]
    if n != n_y:
        raise ValueError("xs and ys have different lengths")
    if n < 2:
        raise ValueError("need at least 2 samples")
    h_marginal = empirical_entropy(config, ys)
    h_conditional = empirical_conditional_entropy(config, xs, ys)
    point = h_marginal - h_conditional
    clamped = False
    if clamp and point < 0.0:
        point = 0.0
        clamped = True
    bound = _pac_bound(pac, config, n) if pac is not None else None
    return InfoEstimate(point, h_marginal, h_conditional, n, bound, clamped)


def linear_pac_half_width(k_x: float, k_y: float, delta: float, n: int) -> float:
    """Closed-form half-width for norm-constrained linear-Gaussian predictors.

    With inputs bounded by ``||x|| <= k_x``, targets by ``||y|| <= k_y``,
    the stacked map (W, b) constrained to spectral norm at most 1, and
    M = (k_x + k_y)^2 + log(2 pi):

        half_width = M / sqrt(4 n) * (1 + 4 sqrt(2 log(1/delta)))

    Width scales as 1/sqrt(n): quadrupling the sample count halves it.
    """
    if k_x <= 0 or k_y <= 0:
        raise ValueError("norm radii must be positive")
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 0.5)")
    if n < 1:
        raise ValueError("n must be positive")
    m_const = (k_x + k_y) ** 2 + LOG_2PI
    return m_const / math.sqrt(4.0 * n) * (1.0 + 4.0 * math.sqrt(2.0 * math.log(1.0 / delta)))


def _pac_bound(pac: PacConfig, config: FamilyConfig, n: int) -> PacBound:
    if config.clip_b is None:
        raise ValueError(
            "PAC bounds assume bounded log-densities; set FamilyConfig.clip_b"
        )
    if config.clip_b > pac.b:
        raise ValueError(
            f"family clip bound {config.clip_b} exceeds the PAC bound b={pac.b}"
        )
    if pac.rademacher_bound is not None:
        width = 4.0 * pac.rademacher_bound + 2.0 * pac.b * math.sqrt(
            2.0 * math.log(1.0 / pac.delta) / n
        )
        return PacBound(pac.delta, width, "rademacher")
    if config.kind != "linear_gaussian" or config.norm_radius is None:
        raise ValueError(
            "the closed-form bound applies only to linear_gaussian with the "
            "norm constraint enabled"
        )
    if config.norm_radius > 1.0:
        raise ValueError("the closed-form bound needs norm_radius <= 1")
    width = linear_pac_half_width(pac.k_x, pac.k_y, pac.delta, n)
    return PacBound(pac.delta, width, "closed_form_linear")
