"""Predictive information under constrained model families.

Estimate how much one variable tells a *restricted* class of predictors
about another, attach PAC half-widths to the estimates, and use the
directed pairwise weights to learn tree-structured graphical models.

The public names are those of each submodule's ``__all__``.
"""

from . import baselines, data, errors, estimation, families, structure, synth, timing
from .baselines import *  # noqa: F403
from .data import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimation import *  # noqa: F403
from .families import *  # noqa: F403
from .structure import *  # noqa: F403
from .synth import *  # noqa: F403
from .timing import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (baselines, data, errors, estimation, families,
                               structure, synth, timing)
           for name in module.__all__] + ["__version__"]
