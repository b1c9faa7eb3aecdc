"""A gate on tree recovery: every estimator on every scenario.

For sim1-sim6 at n = 30 and 300 (m=7, d=2, seeds 0-5), each estimator's
tree is scored by its undirected wrong-edge ratio against the true tree.
The table is recorded: any change to an edge-weight path that moves a tree
moves a cell, and a change that should move trees re-records the table and
lists the cells it moved.  A one-ulp weight change can flip a tie, so the
table sees every such change; that is its point.  The claims below it hold
whatever is re-recorded.
"""

import pytest

from usable_info.baselines import baseline_edge_weights
from usable_info.families import FamilyConfig
from usable_info.structure import edge_weights, max_arborescence, wrong_edges_ratio
from usable_info.synth import SimulationConfig, simulate

SCENARIOS = ("sim1", "sim2", "sim3", "sim4", "sim5", "sim6")
SIZES = (30, 300)
SEEDS = range(6)
M, D = 7, 2
ESTIMATORS = ("linear", "poly-2", "cpc", "nwj")
_FAMILIES = {"linear": FamilyConfig("linear_gaussian"),
             "poly-2": FamilyConfig("polynomial_gaussian", order=2)}

# Wrong undirected edges summed over the six seeds' trees, out of 6 * (M - 1)
# = 36, in ESTIMATORS order; the mean wrong-edge ratio is the count / 36.
RECORDED = {
    ("sim1", 30): (0, 0, 5, 15),
    ("sim1", 300): (0, 0, 0, 0),
    ("sim2", 30): (21, 22, 22, 19),
    ("sim2", 300): (10, 13, 0, 0),
    ("sim3", 30): (12, 20, 15, 16),
    ("sim3", 300): (0, 0, 0, 0),
    ("sim4", 30): (0, 0, 8, 21),
    ("sim4", 300): (0, 0, 0, 8),
    ("sim5", 30): (27, 23, 26, 26),
    ("sim5", 300): (22, 25, 14, 18),
    ("sim6", 30): (21, 25, 20, 23),
    ("sim6", 300): (6, 10, 8, 11),
}


def _wrong_edges(scenario, n, estimator, seed):
    dataset, truth = simulate(SimulationConfig(scenario=scenario, m=M, d=D, n=n, seed=seed))
    if estimator in _FAMILIES:
        weights = edge_weights(dataset.variables, _FAMILIES[estimator])
    else:
        weights = baseline_edge_weights(dataset.variables, estimator, seed)
    ratio = wrong_edges_ratio(max_arborescence(weights), truth.tree, mode="undirected")
    wrong = round(ratio * (M - 1))
    assert wrong == ratio * (M - 1)
    return wrong


@pytest.fixture(scope="module")
def table():
    return {(scenario, n): tuple(sum(_wrong_edges(scenario, n, estimator, seed)
                                     for seed in SEEDS) for estimator in ESTIMATORS)
            for scenario in SCENARIOS for n in SIZES}


def _mean_ratio(count):
    return count / (len(SEEDS) * (M - 1))


def test_tree_recovery_matches_the_recorded_table(table):
    moved = {cell: (RECORDED[cell], got) for cell, got in table.items() if got != RECORDED[cell]}
    assert not moved, f"cells moved (recorded, now), wrong edges out of 36: {moved}"


@pytest.mark.parametrize("scenario", ["sim1", "sim4"])
def test_linear_family_recovers_every_linear_gaussian_tree_at_n_300(table, scenario):
    # sim1 and sim4 are linear-Gaussian trees, the linear family's own model.
    assert table[scenario, 300][ESTIMATORS.index("linear")] == 0


@pytest.mark.parametrize("scenario", ["sim1", "sim4"])
@pytest.mark.parametrize("estimator", ["cpc", "nwj"])
def test_linear_family_does_no_worse_than_an_mi_estimator_at_n_30(table, scenario, estimator):
    # With its model right, the linear family needs fewer samples than a
    # bilinear critic fitted to a variational MI bound.
    row = table[scenario, 30]
    assert _mean_ratio(row[ESTIMATORS.index("linear")]) <= _mean_ratio(
        row[ESTIMATORS.index(estimator)])
