"""Directed-tree structure learning from pairwise information weights.

Workflow: estimate an information weight for every ordered variable pair,
then find the spanning arborescence (rooted directed tree, edges pointing
away from the root) whose parent->child edges have maximum total weight.
Because the weights are asymmetric the optimisation runs over directed
trees.  One Chu-Liu/Edmonds run solves it exactly for every root at once:
a virtual root points at each node, and exact integer edge keys make the
tree it finds hang from a single virtual edge.

Edge weights score every ordered pair with one family config, in one of
three ways.  A ``linear_gaussian`` or ``polynomial_gaussian`` config with
no ``clip_b`` and no ``norm_radius`` uses the closed form ``w[i, j] =
||P_i Yc_j||_F^2 / n`` (``P_i`` projects onto source i's centred features,
``Yc_j`` is the centred target): one thin SVD per source scores every
target.  ``gaussian_mean`` and ``laplace_mean`` cannot read x, so every
weight is 0 by definition, with no fit.  Any other config fits each ordered
pair on its own, the closed form's oracle.  All check each variable as
``ys`` first.

``brute_force_arborescence`` enumerates every rooted spanning tree and is
the correctness oracle for the fast arborescence.  Nothing here assumes the
weights are non-negative.

Tie-breaking is deterministic everywhere: among equal-weight optima the
smallest ``(root, parent vector)`` wins lexicographically, so rerunning on
the same matrix always returns the same tree and shifting all weights by a
constant never changes the selected edge set.  Trees are compared by exact
sums, and a tree's total weight is the correctly rounded ``math.fsum``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import numpy as np

from .estimation import empirical_conditional_entropy, empirical_entropy
from .families import (_CONSTANT_KINDS, FamilyConfig, FitWarning, _expand,
                       _poly_exponents, _real_matrix)

__all__ = [
    "EdgeWeightMatrix",
    "Arborescence",
    "edge_weights",
    "max_arborescence",
    "brute_force_arborescence",
    "wrong_edges_ratio",
    "tree_weight_gap_bound",
]

_BRUTE_FORCE_MAX_NODES = 8
_CLOSED_FORM_KINDS = ("linear_gaussian", "polynomial_gaussian")


@dataclass(frozen=True)
class EdgeWeightMatrix:
    """Dense matrix of directed pair weights; ``w[i, j]`` scores edge i -> j.

    The diagonal is unused and kept at zero.
    """

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if w.shape[0] < 2:
            raise ValueError("need at least 2 nodes")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w = w.copy()
        np.fill_diagonal(w, 0.0)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True, eq=True)
class Arborescence:
    """Rooted directed spanning tree given as a child -> parent map."""

    root: int
    parent: dict[int, int]
    total_weight: float | None = None

    def __post_init__(self):
        m = len(self.parent) + 1
        nodes = set(range(m))
        if self.root not in nodes:
            raise ValueError("root outside node range")
        if set(self.parent) != nodes - {self.root}:
            raise ValueError("parent map must cover exactly the non-root nodes")
        if any(p not in nodes for p in self.parent.values()):
            raise ValueError("parent outside node range")
        if _find_cycle(self.parent, self.root) is not None:
            raise ValueError("parent map contains a cycle")

    @property
    def m(self) -> int:
        return len(self.parent) + 1

    def edges(self) -> set[tuple[int, int]]:
        """Directed (parent, child) pairs."""
        return {(p, c) for c, p in self.parent.items()}

    def undirected_edges(self) -> set[frozenset]:
        return {frozenset(e) for e in self.edges()}

    def parent_vector(self) -> tuple[int, ...]:
        """Parent of each node in order, with -1 for the root."""
        return tuple(self.parent[i] if i != self.root else -1 for i in range(self.m))

    def to_dict(self) -> dict:
        parents = [None if i == self.root else int(self.parent[i])
                   for i in range(self.m)]
        total = None if self.total_weight is None else float(self.total_weight)
        return {"root": int(self.root), "parents": parents, "total_weight": total}

    @classmethod
    def from_dict(cls, data: dict) -> "Arborescence":
        parents = data["parents"]
        parent = {i: p for i, p in enumerate(parents) if p is not None}
        return cls(root=int(data["root"]), parent=parent,
                   total_weight=data.get("total_weight"))


def _as_matrix(weights) -> np.ndarray:
    if isinstance(weights, EdgeWeightMatrix):
        return weights.w
    return EdgeWeightMatrix(np.asarray(weights, dtype=float)).w


# --------------------------------------------------------------------- #
# Edge weights from data
# --------------------------------------------------------------------- #


def _check_aligned(variables) -> int:
    """The variable count, after the checks every edge-weight path shares."""
    m = len(variables)
    if m < 2:
        raise ValueError("need at least 2 variables")
    lengths = {np.atleast_1d(np.asarray(v)).shape[0] for v in variables}
    if len(lengths) != 1:
        raise ValueError("variables must have aligned samples")
    return m


def edge_weights(variables, config: FamilyConfig) -> EdgeWeightMatrix:
    """Estimate the information weight of every ordered variable pair.

    ``variables`` holds one aligned sample array per variable, and every
    directed pair is scored with the family ``config``: by the closed form,
    as 0 for a constant-map kind once every variable is checked, or pair by
    pair (see the module docstring).  The result is deterministic given the
    data and config.
    """
    if (config.kind in _CLOSED_FORM_KINDS and config.norm_radius is None
            and config.clip_b is None):
        weights = _projection_weights(variables, config)
        if weights is not None:
            return weights
    if config.kind in _CONSTANT_KINDS:
        # A member's conditional is its marginal, so no weight needs a fit.
        m = _check_aligned(variables)
        for v in variables:
            _real_matrix(v, "ys", config.y_spec)
        return EdgeWeightMatrix(np.zeros((m, m)))
    return _pair_weights(variables, config)


def _pair_weights(variables, config: FamilyConfig) -> EdgeWeightMatrix:
    """Fit every marginal in index order, then every ordered pair's conditional.

    A ``FitWarning`` is re-sent naming the family kind and the variable or
    the ``(i, j)`` pair whose fit raised it.
    """
    m = _check_aligned(variables)
    marginal = [_naming_fit_warnings(f"{config.kind} marginal of variable {j}",
                                     empirical_entropy, config, v)
                for j, v in enumerate(variables)]
    w = np.zeros((m, m))
    for i, j in permutations(range(m), 2):
        w[i, j] = marginal[j] - _naming_fit_warnings(
            f"{config.kind} pair ({i}, {j})", empirical_conditional_entropy, config,
            variables[i], variables[j])
    return EdgeWeightMatrix(w)


def _naming_fit_warnings(where: str, fit, *args):
    """``fit(*args)``, with each ``FitWarning`` it raised re-sent as
    ``"<where>: <message>"`` once it ends, under the caller's filters.

    Other warnings meet the caller's filters as they happen, so one that is
    an error still stops the fit; the rest are re-sent unchanged.
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", FitWarning)
            return fit(*args)
    finally:
        for w in caught:
            named = issubclass(w.category, FitWarning)
            warnings.warn_explicit(f"{where}: {w.message}" if named else w.message,
                                   w.category, w.filename, w.lineno)


def _projection_weights(variables, config: FamilyConfig) -> EdgeWeightMatrix | None:
    """Least-squares information weights from one thin SVD per source.

    With the covariance fixed at I/2 the pair information is
    ``(TSS - RSS) / n = ||U_i^T Yc_j||_F^2 / n``, where ``U_i`` spans source
    i's centred features (singular values above ``s_max max(n, p) eps``,
    the ``lstsq`` rank rule) and ``Yc_j`` is the centred target.  Inputs are
    checked as the per-pair path checks them, so they raise its errors; a
    non-finite feature or weight returns None, for that path to raise.
    """
    m = _check_aligned(variables)
    targets = [_real_matrix(v, "ys", config.y_spec) for v in variables]
    sources = [_real_matrix(v, "xs", config.x_spec) for v in variables]
    n = targets[0].shape[0]
    starts = np.cumsum([0] + [t.shape[1] for t in targets[:-1]])
    w = np.zeros((m, m))
    # Overflow here ends in the per-pair path, which warns on its own.
    with np.errstate(over="ignore", invalid="ignore"):
        centred = np.hstack(targets)
        centred -= centred.mean(axis=0)
        for i, x in enumerate(sources):
            exponents = (None if config.kind == "linear_gaussian"
                         else _poly_exponents(x.shape[1], config.order))
            feats = _expand(x, exponents)
            feats = feats - feats.mean(axis=0)
            if not np.all(np.isfinite(feats)):
                return None
            u, s, _ = np.linalg.svd(feats, full_matrices=False)
            basis = u[:, s > s[0] * max(feats.shape) * np.finfo(float).eps]
            explained = np.sum((basis.T @ centred) ** 2, axis=0)
            w[i] = np.add.reduceat(explained, starts) / n
    if not np.all(np.isfinite(w)):
        return None
    return EdgeWeightMatrix(w)


# --------------------------------------------------------------------- #
# Maximum-weight spanning arborescence (Chu-Liu/Edmonds)
# --------------------------------------------------------------------- #


def max_arborescence(weights) -> Arborescence:
    """Spanning arborescence maximising the summed parent->child weights.

    One Chu-Liu/Edmonds run on the m nodes plus a virtual root ``m`` that
    has an edge to every node.  Each edge key is one exact integer.  With
    ``w`` read as integer numerators ``num`` over one power-of-two
    denominator, ``B = m + 1``, ``R = B^(m+2)`` and ``V = (2 sum|num| + 1) R``,
    ``u -> v`` has key ``num[u, v] R - u B^(m-1-v)`` and ``m -> v`` has key
    ``-V - v B^m``.  A branching's rank terms sum to less than ``R``, and one
    virtual edge fewer outweighs any change in weight and rank, so the
    maximum has one virtual edge, the most weight, then the smallest
    ``root B^m + sum_v parent_v B^(m-1-v)``: the smallest (root, parent
    vector), as in :func:`brute_force_arborescence`.  Distinct trees have
    distinct keys, so the optimum is unique.  The total weight is the
    ``math.fsum`` of the tree's weights, correctly rounded in any order.
    """
    w = _as_matrix(weights)
    m = w.shape[0]
    ratios = [x.as_integer_ratio() for x in w.ravel().tolist()]
    scale = max(d for _, d in ratios)
    num = [n * (scale // d) for n, d in ratios]  # w[u, v] * scale at u * m + v
    base = m + 1
    rank = base ** (m + 2)
    virtual = (2 * sum(map(abs, num)) + 1) * rank
    edges = {}
    for v in range(m):
        place = base ** (m - 1 - v)
        edges[(m, v)] = (-virtual - v * base ** m, (m, v))
        for u in range(m):
            if u != v:
                edges[(u, v)] = (num[u * m + v] * rank - u * place, (u, v))
    chosen = _edmonds(edges, root=m, next_id=m + 1)
    (root,) = [c for p, c in chosen if p == m]
    parent = {c: p for p, c in chosen if p != m}
    return Arborescence(root=root, parent=parent, total_weight=_total(w, parent))


def _total(w: np.ndarray, parent: dict[int, int]) -> float:
    # Correctly rounded, so equal trees give bitwise-equal totals.  fsum
    # raises if a partial sum leaves the float range; the terms scaled down
    # by a power of two above their count cannot, and an out-of-range total
    # is +-inf.
    terms = [w[p, c] for c, p in parent.items()]
    try:
        return math.fsum(terms)
    except OverflowError:
        scale = 2.0 ** len(terms).bit_length()
        return math.fsum(t / scale for t in terms) * scale


def _edmonds(edges, root, next_id):
    """Chu-Liu/Edmonds over ``{(tail, head): (key, original edge)}``.

    Keys of edges into one head never tie, so every choice is unique.  Each
    edge carries its original (tail, head) through cycle contractions, and
    the chosen original edges are returned.
    """
    best = {}  # head -> (key, tail, original edge) of its best incoming edge
    for (u, v), (key, orig) in edges.items():
        if v not in best or key > best[v][0]:
            best[v] = (key, u, orig)

    cycle = _find_cycle({v: b[1] for v, b in best.items()}, root)
    if cycle is None:
        return {b[2] for b in best.values()}

    contracted = {}
    entering_head = {}  # original edge -> in-cycle head it pointed at
    for (u, v), (key, orig) in edges.items():
        uu = next_id if u in cycle else u
        vv = next_id if v in cycle else v
        if uu == vv:
            continue
        if vv == next_id:
            key -= best[v][0]
            entering_head[orig] = v
        cur = contracted.get((uu, vv))
        if cur is None or key > cur[0]:
            contracted[(uu, vv)] = (key, orig)
    sub = _edmonds(contracted, root, next_id + 1)

    # Exactly one chosen edge enters the contracted node.
    (entry,) = [orig for orig in sub if orig in entering_head]
    broken_head = entering_head[entry]
    return sub | {best[v][2] for v in cycle if v != broken_head}


def _find_cycle(parent_of: dict[int, int], root: int):
    """The set of nodes on a cycle of the parent map, or None if every walk
    up reaches ``root``."""
    done = {root}
    for start in parent_of:
        path = {}  # node -> its index on the walk up from start
        node = start
        while node not in done and node not in path:
            path[node] = len(path)
            node = parent_of[node]
        if node in path:
            return set(list(path)[path[node]:])
        done.update(path)
    return None


# --------------------------------------------------------------------- #
# Enumeration oracle
# --------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def _rooted_trees(m: int) -> np.ndarray:
    """Parent vectors (-1 at the root) of all m^(m-1) rooted trees on m nodes.

    One int8 row per tree, sorted by (root, parent vector); 16 MB at m = 8.
    For each root, every other node picks its parent among the m - 1 nodes
    other than itself, in increasing order, so the rows come sorted; those
    whose every node reaches the root by pointer doubling are the trees.
    """
    picks = np.indices((m - 1,) * (m - 1), dtype=np.int8).reshape(m - 1, -1).T
    blocks = []
    for root in range(m):
        others = np.delete(np.arange(m, dtype=np.int8), root)
        rows = np.insert(picks + (picks >= others), root, root, axis=1)
        ancestor = rows
        for _ in range(m.bit_length()):
            ancestor = np.take_along_axis(ancestor, ancestor, axis=1)
        rows = rows[np.all(ancestor == root, axis=1)]
        rows[:, root] = -1
        blocks.append(rows)
    return np.concatenate(blocks)


def brute_force_arborescence(weights) -> Arborescence:
    """Exact maximum arborescence by enumerating all m^(m-1) rooted trees.

    Limited to m <= 8 nodes; trees are ranked by their exact sums, and ties
    break to the lexicographically smallest (root, parent vector), matching
    :func:`max_arborescence`.
    """
    w = _as_matrix(weights)
    m = w.shape[0]
    if m > _BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force enumerates m^(m-1) trees; m <= "
                         f"{_BRUTE_FORCE_MAX_NODES} required")
    table = _rooted_trees(m)
    # The root's parent -1 picks the zero row, which changes no sum.
    padded = np.vstack([w, np.zeros(m)])
    totals = np.zeros(table.shape[0])
    with np.errstate(over="ignore"):
        for c in range(m):
            totals += padded[table[:, c], c]
        # A float sum of m terms is within m eps sum|w| / 2 of the exact sum,
        # so the exact maximum lies within twice that of the float one.  Rank
        # those trees by exact sums; the first of equals has the smallest
        # (root, parent vector).  Where a sum overflows, rank every tree.
        slack = 2 * m * np.finfo(float).eps * np.abs(w).sum()
    if np.isfinite(slack) and np.all(np.isfinite(totals)):
        near = np.flatnonzero(totals >= totals.max() - slack)
    else:
        near = range(len(table))
    best = table[max(near, key=lambda k: (
        sum(map(Fraction, padded[table[k], range(m)].tolist())), -k))]
    parent = {c: int(p) for c, p in enumerate(best) if p >= 0}
    root = int(np.argmin(best))
    return Arborescence(root=root, parent=parent, total_weight=_total(w, parent))


# --------------------------------------------------------------------- #
# Scoring
# --------------------------------------------------------------------- #


def wrong_edges_ratio(found: Arborescence, truth: Arborescence,
                      mode: str = "undirected") -> float:
    """Fraction of recovered edges absent from the ground-truth tree.

    ``undirected`` compares edge sets as unordered pairs (symmetric in the
    two trees); ``directed`` compares parent->child pairs.
    """
    if found.m != truth.m:
        raise ValueError("trees have different node counts")
    if mode == "undirected":
        diff = found.undirected_edges() - truth.undirected_edges()
    elif mode == "directed":
        diff = found.edges() - truth.edges()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return len(diff) / (found.m - 1)


def tree_weight_gap_bound(max_rademacher_terms: float, b: float, delta: float,
                          sample_sizes, m: int) -> float:
    """Bound on the learned tree's total-weight shortfall versus the optimum.

    ``max_rademacher_terms`` upper-bounds, over all directed pairs, the sum
    of twice the pair-family and twice the marginal-family Rademacher
    complexities.  ``sample_sizes`` is one ``(n_marginal, n_pair)`` tuple
    per pair (a single tuple broadcasts).  The bound is

        2 (m - 1) * max over pairs of
            [terms + b sqrt(2 log(1/delta)) (n_marginal^-1/2 + n_pair^-1/2)]

    and holds with probability at least ``1 - 2 m (m-1) delta``, which is
    vacuous unless ``delta < 1 / (2 m (m-1))``.
    """
    if max_rademacher_terms < 0:
        raise ValueError("max_rademacher_terms must be non-negative")
    if b <= 0:
        raise ValueError("b must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if m < 2:
        raise ValueError("need at least 2 nodes")
    if delta >= 1.0 / (2.0 * m * (m - 1)):
        warnings.warn(
            f"delta={delta} >= 1/(2m(m-1)); the probability guarantee is vacuous",
            UserWarning,
        )
    sizes = list(sample_sizes)
    if not sizes:
        raise ValueError("sample_sizes is empty")
    if isinstance(sizes[0], (int, float, np.integer, np.floating)):
        sizes = [tuple(sizes)]  # a single (n_marginal, n_pair) pair
    worst = -math.inf
    for n_marginal, n_pair in sizes:
        if n_marginal < 1 or n_pair < 1:
            raise ValueError("sample sizes must be positive")
        term = max_rademacher_terms + b * math.sqrt(2.0 * math.log(1.0 / delta)) * (
            n_marginal ** -0.5 + n_pair ** -0.5
        )
        worst = max(worst, term)
    return 2.0 * (m - 1) * worst
