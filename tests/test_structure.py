import json
import math
import warnings
from itertools import permutations, product

import numpy as np
import pytest

from usable_info import structure
from usable_info.estimation import empirical_conditional_entropy, empirical_entropy
from usable_info.families import FamilyConfig, FitMode, FitWarning, VariableSpec
from usable_info.structure import (
    Arborescence,
    EdgeWeightMatrix,
    brute_force_arborescence,
    edge_weights,
    max_arborescence,
    tree_weight_gap_bound,
    wrong_edges_ratio,
)


# ------------------------------------------------------------------ #
# Types
# ------------------------------------------------------------------ #


def test_edge_weight_matrix_validation():
    with pytest.raises(ValueError):
        EdgeWeightMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        EdgeWeightMatrix(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        EdgeWeightMatrix(np.array([[0.0, np.inf], [0.0, 0.0]]))
    m = EdgeWeightMatrix(np.ones((3, 3)))
    assert np.all(np.diag(m.w) == 0.0)
    assert m.m == 3


def test_arborescence_validation():
    Arborescence(root=0, parent={1: 0, 2: 1})
    with pytest.raises(ValueError):
        Arborescence(root=0, parent={1: 2, 2: 1})  # cycle
    with pytest.raises(ValueError):
        Arborescence(root=0, parent={2: 0})  # node 1 missing
    with pytest.raises(ValueError):
        Arborescence(root=5, parent={1: 0})


def test_arborescence_json_round_trip():
    arb = Arborescence(root=1, parent={0: 1, 2: 0}, total_weight=2.5)
    blob = json.dumps(arb.to_dict())
    back = Arborescence.from_dict(json.loads(blob))
    assert back.root == 1
    assert back.parent == {0: 1, 2: 0}
    assert back.total_weight == 2.5


# ------------------------------------------------------------------ #
# Arborescence optimisation
# ------------------------------------------------------------------ #


def test_two_node_example():
    arb = max_arborescence(np.array([[0.0, 3.0], [1.0, 0.0]]))
    assert arb.root == 0
    assert arb.parent == {1: 0}
    assert arb.total_weight == 3.0


def test_three_node_example():
    w = np.full((3, 3), 0.1)
    w[0, 1], w[0, 2], w[1, 2] = 2.0, 1.0, 3.0
    arb = max_arborescence(w)
    assert arb.total_weight == pytest.approx(5.0)
    assert arb.root == 0
    assert arb.parent == {1: 0, 2: 1}
    brute = brute_force_arborescence(w)
    assert brute.total_weight == pytest.approx(5.0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_matches_brute_force_on_random_matrices(m):
    rng = np.random.default_rng(100 + m)
    for trial in range(30):
        w = rng.uniform(-1.0, 1.0, size=(m, m))
        if trial % 2 == 0:
            w = np.abs(w)
        fast = max_arborescence(w)
        slow = brute_force_arborescence(w)
        assert fast.total_weight == slow.total_weight
        # structural validity comes from the Arborescence constructor;
        # check the reported total against the parent map too
        recomputed = sum(w[p, c] for c, p in fast.parent.items())
        assert fast.total_weight == pytest.approx(recomputed, abs=1e-9)


def test_brute_force_all_equal_weights():
    for m in (2, 3, 4):
        c = 0.7
        w = np.full((m, m), c)
        arb = brute_force_arborescence(w)
        assert arb.total_weight == pytest.approx((m - 1) * c)
        # lexicographic tie-break lands on the star rooted at 0
        assert arb.root == 0
        assert arb.parent == {i: 0 for i in range(1, m)}
        fast = max_arborescence(w)
        assert fast.total_weight == pytest.approx((m - 1) * c)
        assert fast.root == 0
        assert fast.parent == {i: 0 for i in range(1, m)}


@pytest.mark.parametrize("m,count", [(2, 115), (3, 115), (4, 115), (5, 115), (6, 40)])
def test_tie_break_matches_brute_force_on_integer_ties(m, count):
    # Weights in {0, 1, 2} make many optimal trees tie; the fast solver must
    # pick the same lexicographically smallest (root, parent vector).
    rng = np.random.default_rng(300 + m)
    for _ in range(count):
        w = rng.integers(0, 3, size=(m, m)).astype(float)
        fast = max_arborescence(w)
        slow = brute_force_arborescence(w)
        assert fast.root == slow.root
        assert fast.parent_vector() == slow.parent_vector()
        assert fast.total_weight == slow.total_weight


def _choice_corpus(seed, lo, values, count):
    """``count`` matrices of m in [lo, 7) nodes, each weight drawn from
    ``values``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = rng.integers(lo, 7)
        yield rng.choice(values, (m, m))


def _markov_tree_tabular_corpus(c=3, n=300):
    """200 ``tabular`` weight matrices of random categorical Markov trees,
    symmetric up to rounding, so every rooting of the optimum nearly ties."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(3, 7))
        parents = [int(rng.integers(0, v)) for v in range(1, m)]
        symbols = [rng.integers(0, c, n)]
        for parent in parents:
            transition = rng.dirichlet([0.5] * c, size=c)
            cumulative = np.cumsum(transition[symbols[parent]], axis=1)
            drawn = (rng.random(n)[:, None] > cumulative).sum(axis=1)
            symbols.append(np.minimum(drawn, c - 1))
        yield edge_weights(symbols, FamilyConfig("tabular")).w


@pytest.mark.parametrize("corpus", [
    lambda: _choice_corpus(0, 3, [0.1, 0.2, 0.3, 0.7], 1500),
    _markov_tree_tabular_corpus,
    lambda: _choice_corpus(3, 3, [1e16, 1.0, 2.0, 3.0, -1e16, 0.5], 1000),
    lambda: _choice_corpus(7, 2, [0.0, 5e-324, -5e-324, 1e-300, 0.1, 0.3, 1e300, -1e300,
                                  3 * 2.0**-1074], 500),
], ids=["decimal_ties", "markov_tree_tabular", "absorption", "extreme_exponents"])
def test_brute_force_ranks_near_tied_trees_by_exact_sums(corpus):
    # Float tree sums put the trees of the first two corpora in a different
    # order than their exact sums on 31 and 33 matrices.  Float Edmonds keys
    # lost the small weights beside 1e16, and the tiny ones beside 1e300, in
    # cycle contractions: the solver gave another tree on 19 and 29 matrices
    # of the last two.
    for w in corpus():
        fast = max_arborescence(w)
        slow = brute_force_arborescence(w)
        assert (fast.root, fast.parent_vector(), fast.total_weight) == (
            slow.root, slow.parent_vector(), slow.total_weight)



@pytest.mark.parametrize("w", [
    np.full((3, 3), 1e308),
    np.array([[0.0, 1e308, -1e308], [1e308, 0.0, 1e308], [5.0, 1e308, 0.0]]),
], ids=["all_1e308", "mixed_signs"])
def test_brute_force_ranks_trees_whose_float_sums_overflow(w):
    # Every tree's float sum, and the float slack, overflow; the oracle then
    # ranks all trees by exact sums, without a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slow = brute_force_arborescence(w)
    fast = max_arborescence(w)
    assert (fast.root, fast.parent_vector(), fast.total_weight) == (
        slow.root, slow.parent_vector(), slow.total_weight)

def test_total_weight_is_the_correctly_rounded_sum():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(2, 30))
        w = rng.normal(size=(m, m))
        tree = max_arborescence(w)
        assert tree.total_weight == math.fsum(w[p, c] for p, c in tree.edges())


def test_total_weight_near_the_float_range():
    # A partial sum beyond the float range makes math.fsum raise.
    star = {1: 0, 2: 0, 3: 0}
    w = np.zeros((4, 4))
    w[0, 1:] = [1e308, 1e308, -1e308]
    assert structure._total(w, star) == 1e308
    for sign in (1.0, -1.0):
        tree = max_arborescence(np.full((3, 3), sign * 1e308))
        assert (tree.root, tree.parent, tree.total_weight) == (0, {1: 0, 2: 0}, sign * math.inf)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_oracle_table_holds_every_rooted_tree_in_order(m):
    def is_tree(vector):
        roots = [c for c, p in enumerate(vector) if p < 0]
        if len(roots) != 1:
            return False
        try:
            Arborescence(roots[0], {c: p for c, p in enumerate(vector) if p >= 0})
        except ValueError:
            return False
        return True

    trees = sorted((vector.index(-1), vector)
                   for vector in product(range(-1, m), repeat=m) if is_tree(vector))
    assert [tuple(row) for row in structure._rooted_trees(m).tolist()] == [
        vector for _, vector in trees]


@pytest.mark.parametrize("m", [6, 7])
def test_oracle_table_is_cayley_sized_distinct_and_sorted(m):
    table = structure._rooted_trees(m)
    assert table.shape == (m ** (m - 1), m)
    assert np.all((table < 0).sum(axis=1) == 1)
    assert len(np.unique(table, axis=0)) == len(table)
    keys = [(row.index(-1), row) for row in table.tolist()]
    assert keys == sorted(keys)


@pytest.mark.parametrize("m", [20, 60, 100])
def test_total_matches_networkx_above_brute_force_cap(m):
    nx = pytest.importorskip("networkx")
    w = np.random.default_rng(400 + m).uniform(-1.0, 2.0, size=(m, m))
    np.fill_diagonal(w, 0.0)
    graph = nx.from_numpy_array(w, create_using=nx.DiGraph)
    reference = nx.maximum_spanning_arborescence(graph, attr="weight")
    expected = math.fsum(w[u, v] for u, v in reference.edges())
    assert max_arborescence(w).total_weight == pytest.approx(expected, rel=1e-9)


def test_brute_force_node_cap():
    with pytest.raises(ValueError):
        brute_force_arborescence(np.zeros((9, 9)))


def test_constant_shift_preserves_argmax():
    rng = np.random.default_rng(200)
    for trial in range(20):
        m = int(rng.integers(3, 7))
        w = rng.normal(size=(m, m))
        c = float(rng.uniform(-2.0, 4.0))
        base = max_arborescence(w)
        shifted = max_arborescence(w + c)
        assert shifted.edges() == base.edges()
        assert shifted.root == base.root
        assert shifted.total_weight == pytest.approx(
            base.total_weight + (m - 1) * c, abs=1e-9)


def test_negative_weights_supported():
    w = -np.abs(np.random.default_rng(3).normal(size=(4, 4))) - 1.0
    fast = max_arborescence(w)
    slow = brute_force_arborescence(w)
    assert fast.total_weight == slow.total_weight
    assert fast.total_weight < 0


# ------------------------------------------------------------------ #
# Edge weights from data
# ------------------------------------------------------------------ #


def test_edge_weights_deterministic_linear_pair():
    rng = np.random.default_rng(4)
    x = rng.normal(size=300)
    y = x.copy()
    weights = edge_weights([x, y], FamilyConfig("linear_gaussian"))
    var = float(((x - x.mean()) ** 2).mean())
    assert weights.w[0, 1] == pytest.approx(var, abs=1e-10)
    assert weights.w[1, 0] == pytest.approx(var, abs=1e-10)


def test_edge_weights_independent_tabular_nonnegative():
    rng = np.random.default_rng(5)
    variables = [rng.integers(0, 3, 100) for _ in range(3)]
    weights = edge_weights(variables, FamilyConfig("tabular"))
    off_diag = weights.w[~np.eye(3, dtype=bool)]
    assert np.all(off_diag >= -1e-12)


def test_edge_weights_cubic_relation_is_asymmetric():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.5, 1.5, 500)
    y = x**3 + 0.1 * rng.normal(size=500)
    weights = edge_weights([x, y], FamilyConfig("linear_gaussian"))
    assert abs(weights.w[0, 1] - weights.w[1, 0]) > 0.1


def test_learned_tree_validated_against_oracle_and_truth():
    from usable_info.synth import SimulationConfig, simulate

    dataset, truth = simulate(SimulationConfig(scenario="sim1", n=1000,
                                               seed=0, m=6, d=4))
    weights = edge_weights(dataset.variables, FamilyConfig("linear_gaussian"))
    fast = max_arborescence(weights)
    slow = brute_force_arborescence(weights)
    assert fast.total_weight == slow.total_weight
    assert wrong_edges_ratio(fast, truth.tree) == 0.0


def test_edge_weights_alignment_checked():
    with pytest.raises(ValueError):
        edge_weights([np.zeros(5), np.zeros(6)], FamilyConfig("linear_gaussian"))
    with pytest.raises(ValueError):
        edge_weights([np.zeros(5)], FamilyConfig("linear_gaussian"))


# The closed-form path (one SVD per source) against its oracle, the
# per-pair lstsq fits of structure._pair_weights.
CLOSED_FORM_ATOL = 1e-10


def _correlated(rng, dims, n):
    latent = rng.normal(size=(n, 3))
    return [latent @ rng.normal(size=(3, d)) + rng.normal(size=(n, d)) for d in dims]


def _assert_matches_per_pair(variables, config, same_tree=True):
    fast = edge_weights(variables, config)
    slow = structure._pair_weights(variables, config)
    np.testing.assert_allclose(fast.w, slow.w, rtol=0, atol=CLOSED_FORM_ATOL)
    if same_tree:
        a, b = max_arborescence(fast), max_arborescence(slow)
        assert (a.root, a.parent) == (b.root, b.parent)


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("d", range(1, 5))
def test_closed_form_matches_per_pair_on_random_data(m, d):
    rng = np.random.default_rng(10 * m + d)
    _assert_matches_per_pair(_correlated(rng, [d] * m, 200),
                             FamilyConfig("linear_gaussian"))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_closed_form_matches_per_pair_polynomial(order):
    rng = np.random.default_rng(order)
    variables = _correlated(rng, [1, 2, 2, 3], 300)
    _assert_matches_per_pair(variables, FamilyConfig("polynomial_gaussian", order=order))


def test_closed_form_matches_per_pair_mixed_dims():
    rng = np.random.default_rng(11)
    variables = _correlated(rng, [1, 4, 2, 7, 3], 250)
    variables[0] = variables[0][:, 0]  # a flat vector is one real column
    _assert_matches_per_pair(variables, FamilyConfig("linear_gaussian"))


def test_closed_form_matches_per_pair_on_degenerate_data():
    rng = np.random.default_rng(12)
    a, b, c = _correlated(rng, [2, 3, 2], 60)
    constant = np.full((60, 2), 3.7)
    duplicated = np.hstack([a, a[:, :1]])
    for variables in ([constant, a, b], [duplicated, b, c], [a, a, b]):
        for config in (FamilyConfig("linear_gaussian"),
                       FamilyConfig("polynomial_gaussian", order=2)):
            # Exact ties (a constant source scores 0 everywhere) may break
            # either way on last-digit differences, so only weights compare.
            _assert_matches_per_pair(variables, config, same_tree=False)
    wide = _correlated(rng, [8, 9, 6], 5)  # d > n: every fit is exact
    _assert_matches_per_pair(wide, FamilyConfig("linear_gaussian"), same_tree=False)
    tss = np.sum((wide[1] - wide[1].mean(axis=0)) ** 2) / 5
    assert edge_weights(wide, FamilyConfig("linear_gaussian")).w[0, 1] == pytest.approx(tss)


@pytest.mark.parametrize("weights", [edge_weights, structure._pair_weights],
                         ids=["edge_weights", "pair_weights"])
@pytest.mark.parametrize("source", range(6))
def test_an_ill_conditioned_affine_map_of_a_source_keeps_its_out_weights(weights, source):
    # The linear family is closed under invertible affine maps of x.  This map
    # has condition number 4e7, so a rank rule that drops a direction the
    # lstsq rule keeps (say s > s[0] * 1e-6) moves the out-weights by about
    # half; the lstsq rule moves them by below 1e-9.
    from usable_info.synth import SimulationConfig, simulate

    dataset, _ = simulate(SimulationConfig(scenario="sim4", n=400, seed=0, m=6, d=2))
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((2, 2)))
    mapped = list(dataset.variables)
    mapped[source] = mapped[source] @ (q @ np.diag([1, 1 / 4e7])).T + [3, -2]
    config = FamilyConfig("linear_gaussian")
    before, after = weights(dataset.variables, config).w, weights(mapped, config).w
    others = np.arange(6) != source
    np.testing.assert_allclose(after[source, others], before[source, others], rtol=1e-8,
                               atol=0)


def _count_calls(monkeypatch, name="empirical_conditional_entropy"):
    calls = []
    real = getattr(structure, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(structure, name, counted)
    return calls


@pytest.mark.filterwarnings("ignore", category=FitWarning)
def test_only_plain_linear_and_polynomial_configs_skip_the_pair_loop(monkeypatch):
    rng = np.random.default_rng(13)
    real = _correlated(rng, [2, 1, 2], 80)
    symbols = [rng.integers(0, 3, 80) for _ in range(3)]
    cases = [
        (real, FamilyConfig("linear_gaussian"), 0),
        (real, FamilyConfig("polynomial_gaussian", order=2), 0),
        (real, FamilyConfig("linear_gaussian", clip_b=50.0), 6),
        (real, FamilyConfig("linear_gaussian", norm_radius=1.0,
                            fit=FitMode(max_iters=50)), 6),
        (symbols, FamilyConfig("tabular"), 6),
        (real, FamilyConfig("gaussian_mean"), 0),
        (real, FamilyConfig("laplace_mean"), 0),
    ]
    for variables, family, expected in cases:
        calls = _count_calls(monkeypatch)
        edge_weights(variables, family)
        assert len(calls) == expected, family


@pytest.mark.parametrize("kind", ["gaussian_mean", "laplace_mean"])
def test_constant_map_kinds_fit_no_marginal_and_no_conditional(monkeypatch, kind):
    variables = _correlated(np.random.default_rng(14), [2, 1, 2, 3], 60)
    marginals = _count_calls(monkeypatch, "empirical_entropy")
    conditionals = _count_calls(monkeypatch)
    assert not edge_weights(variables, FamilyConfig(kind)).w.any()
    assert (len(marginals), len(conditionals)) == (0, 0)


@pytest.mark.parametrize("kind", ["gaussian_mean", "laplace_mean"])
def test_constant_map_kinds_raise_the_first_bad_variables_ys_error(kind):
    # A NaN variable and a 3-D one, in either order: the first in index order
    # raises the error that the per-pair path's marginal fit raises for it.
    good = np.arange(6.0)
    nan = np.array([0.0, 1.0, np.nan, 3.0, 4.0, 5.0])
    cube = np.zeros((6, 1, 1))
    for variables, message in (([good, nan, cube], "ys contains non-finite"),
                               ([good, cube, nan], "ys must be a vector or a matrix")):
        with pytest.raises(ValueError, match=f"^{message}") as fast:
            edge_weights(variables, FamilyConfig(kind))
        with pytest.raises(ValueError) as slow:
            structure._pair_weights(variables, FamilyConfig(kind))
        assert str(fast.value) == str(slow.value)


@pytest.mark.parametrize("n", [30, 300])
@pytest.mark.parametrize("seed", [1, 2])
def test_constant_map_weights_equal_the_per_pair_definition_bitwise(n, seed):
    # The cells of the sweep_fits benchmark: sim2, m=7, d=2.
    from usable_info.synth import SimulationConfig, simulate

    dataset, _ = simulate(SimulationConfig(scenario="sim2", n=n, seed=seed, m=7, d=2))
    v = dataset.variables
    for kind in ("gaussian_mean", "laplace_mean"):
        config = FamilyConfig(kind)
        expected = np.zeros((7, 7))
        for i, j in permutations(range(7), 2):
            expected[i, j] = (empirical_entropy(config, v[j])
                              - empirical_conditional_entropy(config, v[i], v[j]))
        assert edge_weights(v, config).w.tobytes() == expected.tobytes(), kind


def test_a_constant_map_config_that_cannot_converge_warns_nothing():
    # One Weiszfeld step warns on every marginal it fits, and no marginal is fitted.
    variables = _correlated(np.random.default_rng(15), [2, 2, 2], 50)
    config = FamilyConfig("laplace_mean", fit=FitMode(max_iters=1))
    with pytest.warns(FitWarning, match="geometric median stopped after 1 iterations"):
        empirical_entropy(config, variables[0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert not edge_weights(variables, config).w.any()
    assert caught == []


def test_a_per_pair_fit_warning_names_the_family_and_the_pair():
    # Targets centred at 5 put every pair's least-squares bias outside the ball.
    variables = list(5.0 + np.random.default_rng(16).normal(size=(3, 40, 1)))
    config = FamilyConfig("linear_gaussian", norm_radius=1.0, fit=FitMode(max_iters=1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        edge_weights(variables, config)
    assert [str(w.message).split(": ")[0] for w in caught] == [
        f"linear_gaussian pair ({i}, {j})" for i, j in permutations(range(3), 2)]
    assert all(issubclass(w.category, FitWarning) for w in caught)
    assert all(": constrained linear fit stopped after 1 iterations" in str(w.message)
               for w in caught)
    # Where a FitWarning is an error, as in the CLI, the first pair's stops the loop.
    with warnings.catch_warnings():
        warnings.simplefilter("error", FitWarning)
        with pytest.raises(FitWarning, match=r"^linear_gaussian pair \(0, 1\): constrained"):
            edge_weights(variables, config)


@pytest.mark.parametrize("config,bad,message", [
    (FamilyConfig("linear_gaussian"), [np.nan, 1.0, 2.0], "ys contains non-finite"),
    (FamilyConfig("linear_gaussian", clip_b=50.0), [np.nan, 1.0, 2.0],
     "ys contains non-finite"),
    (FamilyConfig("gaussian_mean"), [np.nan, 1.0, 2.0], "ys contains non-finite"),
    (FamilyConfig("laplace_mean"), [np.nan, 1.0, 2.0], "ys contains non-finite"),
    (FamilyConfig("tabular"), [-1, 0, 1], "ys: categorical symbol out of range"),
])
def test_a_bad_first_variable_fails_as_a_target_on_every_path(config, bad, message):
    good = np.array([0, 1, 2])
    with pytest.raises(ValueError, match=f"^{message}"):
        edge_weights([np.array(bad), good, good], config)


@pytest.mark.parametrize("config,bad,message", [
    (FamilyConfig("linear_gaussian"), np.array([[np.nan], [1.0], [2.0]]), "non-finite"),
    (FamilyConfig("linear_gaussian", x_spec=VariableSpec.real(1),
                  y_spec=VariableSpec.real(1)), np.zeros((3, 2)), "dimension"),
    (FamilyConfig("linear_gaussian"), np.array([[1e308], [-1e308], [1e308]]),
     "zero density"),
    # Cubing 1e200 overflows; least squares on it used to hang in LAPACK.
    (FamilyConfig("polynomial_gaussian", order=3), np.array([[1e200], [1.0], [2.0]]),
     "overflow|zero density"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_closed_form_failures_raise_the_per_pair_error(config, bad, message):
    good = np.array([[0.5], [1.0], [4.0]])
    for variables in ([good, bad], [bad, good]):
        with pytest.raises(Exception, match=message) as slow:
            structure._pair_weights(variables, config)
        with pytest.raises(type(slow.value)) as fast:
            edge_weights(variables, config)
        assert str(fast.value) == str(slow.value)


# ------------------------------------------------------------------ #
# Scoring
# ------------------------------------------------------------------ #


def test_wrong_edges_ratio_identical_trees():
    t = Arborescence(root=0, parent={1: 0, 2: 0})
    assert wrong_edges_ratio(t, t) == 0.0
    assert wrong_edges_ratio(t, t, mode="directed") == 0.0


def test_wrong_edges_ratio_star_vs_chain():
    truth = Arborescence(root=0, parent={1: 0, 2: 0, 3: 0})
    found = Arborescence(root=0, parent={1: 0, 2: 1, 3: 2})
    assert wrong_edges_ratio(found, truth) == pytest.approx(2.0 / 3.0)


def test_wrong_edges_ratio_reversed_edge():
    truth = Arborescence(root=0, parent={1: 0})
    found = Arborescence(root=1, parent={0: 1})
    assert wrong_edges_ratio(found, truth, mode="undirected") == 0.0
    assert wrong_edges_ratio(found, truth, mode="directed") == 1.0


def test_wrong_edges_ratio_undirected_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        a = brute_force_arborescence(rng.normal(size=(m, m)))
        b = brute_force_arborescence(rng.normal(size=(m, m)))
        assert wrong_edges_ratio(a, b) == wrong_edges_ratio(b, a)


def test_wrong_edges_ratio_node_count_mismatch():
    a = Arborescence(root=0, parent={1: 0})
    b = Arborescence(root=0, parent={1: 0, 2: 0})
    with pytest.raises(ValueError):
        wrong_edges_ratio(a, b)


# ------------------------------------------------------------------ #
# Gap bound
# ------------------------------------------------------------------ #


def test_gap_bound_frozen_example():
    with pytest.warns(UserWarning, match="vacuous"):
        gap = tree_weight_gap_bound(0.0, 1.0, math.exp(-1.0), (100, 100), 2)
    assert gap == pytest.approx(2.0 * math.sqrt(2.0) * 0.2, abs=1e-12)
    assert gap == pytest.approx(0.5657, abs=1e-4)


def test_gap_bound_linear_in_node_count():
    kwargs = dict(max_rademacher_terms=0.1, b=2.0, delta=1e-4)
    g3 = tree_weight_gap_bound(sample_sizes=(50, 50), m=3, **kwargs)
    g5 = tree_weight_gap_bound(sample_sizes=(50, 50), m=5, **kwargs)
    assert g5 == pytest.approx(g3 * 4.0 / 2.0)


def test_gap_bound_sample_scaling():
    kwargs = dict(max_rademacher_terms=0.0, b=1.0, delta=1e-4, m=4)
    g1 = tree_weight_gap_bound(sample_sizes=(100, 400), **kwargs)
    g2 = tree_weight_gap_bound(sample_sizes=(400, 1600), **kwargs)
    assert g2 == pytest.approx(g1 / 2.0)


def test_gap_bound_takes_worst_edge():
    kwargs = dict(max_rademacher_terms=0.0, b=1.0, delta=1e-4, m=3)
    worst = tree_weight_gap_bound(sample_sizes=(25, 25), **kwargs)
    mixed = tree_weight_gap_bound(sample_sizes=[(100, 100), (25, 25)], **kwargs)
    assert mixed == pytest.approx(worst)


def test_gap_bound_domain():
    with pytest.raises(ValueError):
        tree_weight_gap_bound(0.0, 1.0, 1.5, (10, 10), 3)
    with pytest.raises(ValueError):
        tree_weight_gap_bound(0.0, 1.0, 0.01, (0, 10), 3)
    with pytest.raises(ValueError):
        tree_weight_gap_bound(-0.1, 1.0, 0.01, (10, 10), 3)
