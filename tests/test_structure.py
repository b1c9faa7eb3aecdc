import json
import math

import numpy as np
import pytest

from usable_info.families import FamilyConfig
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


def test_edge_weights_per_pair_families():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, 200)
    y = x**2 + 0.05 * rng.normal(size=200)

    def family_for(i, j):
        return FamilyConfig("polynomial_gaussian", order=2) if (i, j) == (0, 1) \
            else FamilyConfig("linear_gaussian")

    weights = edge_weights([x, y], family_for)
    # order-2 features capture the square; the linear reverse fit cannot
    assert weights.w[0, 1] > weights.w[1, 0] + 0.05


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
