"""Synthetic tree-structured datasets with known generative structure.

Six canned scenarios cover two tree shapes and three conditional types,
plus a correlated Gaussian pair, whose linear-Gaussian information and
Shannon MI have closed forms here (``usable-info baselines`` draws its pairs
from this module), and a configurable Gaussian tree.

===========  =======================================================
``sim1``     star, Gaussian children: root U(0,10)^d elementwise,
             child_i = W_i root + noise, noise var 6 per coordinate
``sim2``     star, exponential children: child_i = W_i E_i where
             E_i is elementwise exponential with rate root + eps
``sim3``     star, per-sample fair mixture of the sim1/sim2 draws
``sim4``     depth-2 tree, Gaussian edges, noise var 2
``sim5``     depth-2 tree, exponential edges; the root's children
             skip the orthogonal map
``sim6``     depth-2 tree, exponential edges under the root,
             Gaussian edges below
``gaussian_pair``  scalar-coordinate pairs with correlation rho
``custom_tree``    user-supplied parent map, Gaussian edges
===========  =======================================================

Star scenarios default to m=20 nodes, depth-2 scenarios to m=7, both with
d=10 coordinates per node; all are overridable for quick runs.  Every
orthogonal map comes from the QR decomposition of a standard Gaussian
matrix with sign-corrected diagonal.

On the exponential edges, ``E(lambda)`` is read as a *rate*: coordinate k
of the child's pre-map draw is exponential with rate ``parent_k + eps_k``,
``eps`` elementwise exponential with rate 0.1, drawn fresh per sample.
Set ``exponential_mean_mode=True`` to read the parameter as a mean
instead.  Children are real-valued after the orthogonal map, not positive.

Generation is deterministic given ``(scenario settings, seed)``: the same
config yields bitwise-identical datasets.  Mixture scenarios draw both
branches and select per sample, which keeps the draw sequence fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .families import VariableSpec, _positive_finite
from .structure import Arborescence

__all__ = [
    "SimulationConfig",
    "GroundTruth",
    "simulate",
    "gaussian_pair_information",
    "gaussian_pair_mutual_information",
]

SCENARIOS = ("sim1", "sim2", "sim3", "sim4", "sim5", "sim6",
             "gaussian_pair", "custom_tree")
_STAR = ("sim1", "sim2", "sim3")
_DEPTH2 = ("sim4", "sim5", "sim6")
_ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class SimulationConfig:
    """What to generate: scenario, sizes, seed, scenario-specific knobs."""

    scenario: str
    n: int
    seed: int
    m: int | None = None
    d: int = 10
    rho: float | None = None
    var_y: float = 1.0
    parents: dict | None = None
    noise_var: float = 1.0
    exponential_mean_mode: bool = False

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if self.scenario == "gaussian_pair":
            if self.rho is None or not -1.0 < self.rho < 1.0:
                raise ValueError("gaussian_pair needs rho in (-1, 1)")
            if not _positive_finite(self.var_y):
                raise ValueError("var_y must be positive")
        if self.scenario == "custom_tree" and not self.parents:
            raise ValueError("custom_tree needs a parent map")
        if not _positive_finite(self.noise_var):
            raise ValueError("noise_var must be positive")
        m = self.node_count()
        if self.scenario in _STAR and m < 2:
            raise ValueError("star scenarios need m >= 2")
        if self.scenario in _DEPTH2 and m < 3:
            raise ValueError("depth-2 scenarios need m >= 3")

    def node_count(self) -> int:
        if self.m is not None:
            return self.m
        if self.scenario in _STAR:
            return 20
        if self.scenario in _DEPTH2:
            return 7
        if self.scenario == "gaussian_pair":
            return 2
        return len(self.parents) + 1


@dataclass
class GroundTruth:
    """Generative tree plus the parameters used on each edge."""

    tree: Arborescence
    orthogonal_maps: dict[int, np.ndarray] = field(default_factory=dict)
    noise_vars: dict[int, float] = field(default_factory=dict)


def gaussian_pair_information(rho: float, var_y: float) -> float:
    """Population information of a correlated Gaussian pair for the
    linear-Gaussian family: squared correlation times the target's total
    variance (pass the covariance trace as ``var_y`` for vector targets).
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    if not _positive_finite(var_y):
        raise ValueError("var_y must be positive")
    return rho * rho * var_y


def gaussian_pair_mutual_information(rho: float) -> float:
    """Shannon mutual information, ``-log(1 - rho^2) / 2`` nats, of a
    bivariate Gaussian pair with correlation ``rho`` (scenario ``gaussian_pair``, d=1)."""
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    return -0.5 * math.log(1.0 - rho * rho)


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if np.max(np.abs(q.T @ q - np.eye(d))) > _ORTHOGONALITY_TOL:
        raise AssertionError("orthogonalisation failed")
    return q


def _exponential_child(rng, parent_values, w, config):
    n, d = parent_values.shape
    eps = rng.exponential(scale=10.0, size=(n, d))  # rate 0.1
    param = parent_values + eps
    raw = rng.standard_exponential((n, d))
    draw = raw * param if config.exponential_mean_mode else raw / param
    return draw if w is None else draw @ w.T


def _gaussian_child(rng, parent_values, w, noise_var):
    n, d = parent_values.shape
    noise = math.sqrt(noise_var) * rng.standard_normal((n, d))
    return parent_values @ w.T + noise


def _tree_parents(config: SimulationConfig) -> dict[int, int]:
    m = config.node_count()
    if config.scenario in _STAR:
        return {i: 0 for i in range(1, m)}
    if config.scenario in _DEPTH2:
        parents = {1: 0, 2: 0}
        rest = list(range(3, m))
        first_block = (len(rest) + 1) // 2
        for pos, node in enumerate(rest):
            parents[node] = 1 if pos < first_block else 2
        return parents
    return {int(c): int(p) for c, p in config.parents.items()}


def simulate(config: SimulationConfig) -> tuple[Dataset, GroundTruth]:
    """Generate one dataset and its generative ground truth."""
    rng = np.random.default_rng(config.seed)
    if config.scenario == "gaussian_pair":
        return _simulate_gaussian_pair(config, rng)

    parents = _tree_parents(config)
    m = len(parents) + 1
    root = (set(range(m)) - set(parents)).pop()
    tree = Arborescence(root=root, parent=parents)
    d, n = config.d, config.n

    values: dict[int, np.ndarray] = {root: rng.uniform(0.0, 10.0, size=(n, d))}
    maps: dict[int, np.ndarray] = {}
    noise_vars: dict[int, float] = {}
    # Children in breadth-first order from the root (ties by node index),
    # so parents are always generated first and the rng call sequence is
    # a fixed function of the config.
    children_of: dict[int, list[int]] = {}
    for child, parent in parents.items():
        children_of.setdefault(parent, []).append(child)
    order = []
    frontier = [root]
    while frontier:
        node = frontier.pop(0)
        kids = sorted(children_of.get(node, ()))
        order.extend(kids)
        frontier.extend(kids)
    for child in order:
        w = _orthogonal(rng, d)
        maps[child] = w
        parent_vals = values[parents[child]]
        scenario = config.scenario
        if scenario in ("sim1", "sim4", "custom_tree"):
            var = 6.0 if scenario == "sim1" else (
                2.0 if scenario == "sim4" else config.noise_var)
            values[child] = _gaussian_child(rng, parent_vals, w, var)
            noise_vars[child] = var
        elif scenario == "sim2":
            values[child] = _exponential_child(rng, parent_vals, w, config)
        elif scenario == "sim3":
            gauss = _gaussian_child(rng, parent_vals, w, 6.0)
            expo = _exponential_child(rng, parent_vals, w, config)
            coin = rng.random(n) < 0.5
            values[child] = np.where(coin[:, None], gauss, expo)
            noise_vars[child] = 6.0
        elif scenario == "sim5":
            use_w = None if parents[child] == root else w
            values[child] = _exponential_child(rng, parent_vals, use_w, config)
        elif scenario == "sim6":
            if parents[child] == root:
                values[child] = _exponential_child(rng, parent_vals, w, config)
            else:
                values[child] = _gaussian_child(rng, parent_vals, w, 2.0)
                noise_vars[child] = 2.0

    variables = [values[i] for i in range(m)]
    specs = [VariableSpec.real(d) for _ in range(m)]
    dataset = Dataset(variables=variables, specs=specs)
    truth = GroundTruth(tree=tree, orthogonal_maps=maps, noise_vars=noise_vars)
    return dataset, truth


def _simulate_gaussian_pair(config, rng):
    n, d = config.n, config.d
    x = rng.standard_normal((n, d))
    z = rng.standard_normal((n, d))
    rho, var_y = config.rho, config.var_y
    y = rho * math.sqrt(var_y) * x + math.sqrt(var_y * (1.0 - rho * rho)) * z
    tree = Arborescence(root=0, parent={1: 0})
    dataset = Dataset(variables=[x, y],
                      specs=[VariableSpec.real(d), VariableSpec.real(d)])
    truth = GroundTruth(tree=tree)
    return dataset, truth
