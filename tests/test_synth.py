import math

import numpy as np
import pytest

from usable_info.estimation import empirical_information
from usable_info.families import FamilyConfig
from usable_info.synth import (
    SimulationConfig,
    gaussian_pair_information,
    gaussian_pair_mutual_information,
    simulate,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(scenario="sim99", n=10, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(scenario="sim1", n=0, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(scenario="gaussian_pair", n=10, seed=0)  # rho missing
    with pytest.raises(ValueError):
        SimulationConfig(scenario="custom_tree", n=10, seed=0)  # parents missing
    with pytest.raises(ValueError):
        SimulationConfig(scenario="sim4", n=10, seed=0, m=2)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="rho in"):
            SimulationConfig(scenario="gaussian_pair", n=10, seed=0, rho=bad)
        with pytest.raises(ValueError, match="var_y must be positive"):
            SimulationConfig(scenario="gaussian_pair", n=10, seed=0, rho=0.5, var_y=bad)
        with pytest.raises(ValueError, match="noise_var must be positive"):
            SimulationConfig(scenario="sim1", n=10, seed=0, noise_var=bad)


def test_default_shapes():
    for scenario, m in (("sim1", 20), ("sim4", 7)):
        cfg = SimulationConfig(scenario=scenario, n=15, seed=1)
        dataset, truth = simulate(cfg)
        assert dataset.m == m
        assert all(v.shape == (15, 10) for v in dataset.variables)
        assert truth.tree.m == m


def test_star_and_depth2_topologies():
    _, star = simulate(SimulationConfig(scenario="sim1", n=5, seed=2, m=6, d=2))
    assert star.tree.parent == {i: 0 for i in range(1, 6)}
    _, deep = simulate(SimulationConfig(scenario="sim4", n=5, seed=2, m=7, d=2))
    assert deep.tree.parent == {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}


def test_root_is_uniform_on_zero_ten():
    cfg = SimulationConfig(scenario="sim1", n=4000, seed=3, m=3, d=10)
    dataset, _ = simulate(cfg)
    root = dataset.variables[0]
    se = math.sqrt(100.0 / 12.0 / root.size)
    assert abs(root.mean() - 5.0) <= 3.0 * se
    assert root.min() >= 0.0 and root.max() <= 10.0


def test_sim1_child_residual_variance_is_six():
    cfg = SimulationConfig(scenario="sim1", n=5000, seed=4, m=3, d=6)
    dataset, truth = simulate(cfg)
    child = dataset.variables[1]
    w = truth.orthogonal_maps[1]
    resid = child - dataset.variables[0] @ w.T
    per_coord_var = resid.var(axis=0)
    se = 6.0 * math.sqrt(2.0 / cfg.n)  # sd of a chi^2-based variance estimate
    assert np.all(np.abs(per_coord_var - 6.0) <= 3.5 * se)


def test_orthogonal_maps_are_orthogonal():
    cfg = SimulationConfig(scenario="sim2", n=3, seed=5, m=6, d=12)
    _, truth = simulate(cfg)
    for w in truth.orthogonal_maps.values():
        assert np.max(np.abs(w.T @ w - np.eye(12))) <= 1e-10


def test_reproducibility_is_bitwise():
    cfg = SimulationConfig(scenario="sim3", n=64, seed=6, m=5, d=4)
    a, _ = simulate(cfg)
    b, _ = simulate(cfg)
    assert all(np.array_equal(u, v) for u, v in zip(a.variables, b.variables))
    c, _ = simulate(SimulationConfig(scenario="sim3", n=64, seed=7, m=5, d=4))
    assert not np.array_equal(a.variables[1], c.variables[1])


@pytest.mark.parametrize("scenario", ["sim2", "sim3", "sim5", "sim6"])
def test_exponential_scenarios_generate_finite_data(scenario):
    cfg = SimulationConfig(scenario=scenario, n=200, seed=8, m=7 if scenario in
                           ("sim5", "sim6") else 6, d=3)
    dataset, _ = simulate(cfg)
    for v in dataset.variables:
        assert np.all(np.isfinite(v))


def test_exponential_mean_mode_changes_scale():
    base = SimulationConfig(scenario="sim2", n=2000, seed=9, m=2, d=2)
    alt = SimulationConfig(scenario="sim2", n=2000, seed=9, m=2, d=2,
                           exponential_mean_mode=True)
    rate_child = simulate(base)[0].variables[1]
    mean_child = simulate(alt)[0].variables[1]
    # rate reading: conditional scale ~ 1/(parent+eps), far below mean reading
    assert np.abs(mean_child).mean() > 10.0 * np.abs(rate_child).mean()


def test_sim4_grandchild_independent_of_root_given_parent():
    cfg = SimulationConfig(scenario="sim4", n=6000, seed=10, m=7, d=4)
    dataset, truth = simulate(cfg)
    assert truth.tree.parent[3] == 1
    mid = dataset.variables[1]
    design = np.hstack([mid, np.ones((cfg.n, 1))])

    def residualise(target):
        coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        return target - design @ coef

    r_grand = residualise(dataset.variables[3][:, 0])
    r_root = residualise(dataset.variables[0][:, 0])
    partial = np.corrcoef(r_grand, r_root)[0, 1]
    assert abs(partial) <= 3.0 / math.sqrt(cfg.n)


def test_custom_tree_topology_and_noise():
    cfg = SimulationConfig(scenario="custom_tree", n=50, seed=11, d=2,
                           parents={1: 0, 2: 1}, noise_var=0.5)
    dataset, truth = simulate(cfg)
    assert truth.tree.parent == {1: 0, 2: 1}
    assert dataset.m == 3
    assert truth.noise_vars == {1: 0.5, 2: 0.5}


def test_gaussian_pair_moments():
    cfg = SimulationConfig(scenario="gaussian_pair", n=20000, seed=12, d=1,
                           rho=0.8, var_y=1.0)
    dataset, truth = simulate(cfg)
    x, y = dataset.variables[0][:, 0], dataset.variables[1][:, 0]
    r = np.corrcoef(x, y)[0, 1]
    se = (1 - 0.8**2) / math.sqrt(cfg.n)
    assert abs(r - 0.8) <= 3.0 * se
    assert abs(y.var() - 1.0) <= 0.05
    assert truth.tree.parent == {1: 0}


def test_gaussian_pair_information_values():
    assert gaussian_pair_information(0.0, 2.0) == 0.0
    assert gaussian_pair_information(0.8, 1.0) == pytest.approx(0.64)
    assert gaussian_pair_information(0.999999, 3.0) == pytest.approx(3.0, abs=1e-4)
    with pytest.raises(ValueError):
        gaussian_pair_information(1.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_pair_information(0.5, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="var_y must be positive"):
            gaussian_pair_information(0.5, bad)


def test_gaussian_pair_mutual_information_values():
    # H(x) + H(y) - H(x, y) of unit-variance Gaussians is -log det(cov) / 2.
    for rho in (0.0, 0.5, -0.5, 0.9, 0.999):
        logdet = np.linalg.slogdet(np.array([[1.0, rho], [rho, 1.0]]))[1]
        assert gaussian_pair_mutual_information(rho) == pytest.approx(-0.5 * logdet,
                                                                      rel=1e-12, abs=0)
    for bad in (1.0, -1.0, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"rho must lie in \(-1, 1\)"):
            gaussian_pair_mutual_information(bad)


def test_gaussian_pair_closed_form_matches_monte_carlo():
    cfg = SimulationConfig(scenario="gaussian_pair", n=100_000, seed=13, d=1,
                           rho=0.8, var_y=1.0)
    dataset, _ = simulate(cfg)
    est = empirical_information(FamilyConfig("linear_gaussian"),
                                dataset.variables[0], dataset.variables[1])
    assert est.point_estimate == pytest.approx(
        gaussian_pair_information(0.8, 1.0), abs=0.01)
