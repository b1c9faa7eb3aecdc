"""Failure modes of contrastive and f-divergence MI estimators.

Two well-known pathologies, reproduced at desk scale: the CPC/InfoNCE
estimate can never exceed log(batch size), and the NWJ estimator's
variance at its own optimal critic blows up exponentially with the true
dependence.  The family-based estimator faces neither problem on the same
data.

Run:  python demos/04_variational_baselines.py
"""

import math

import numpy as np

from usable_info import (
    BatchSpec,
    FamilyConfig,
    SimulationConfig,
    cpc_estimate,
    empirical_information,
    fit_critic,
    gaussian_oracle_critic,
    gaussian_pair_information,
    gaussian_pair_mutual_information,
    nwj_estimate,
    simulate,
)


def gaussian_pair(rho, n, seed):
    """n unit-variance scalar pairs with correlation rho, as (n, 1) arrays."""
    dataset, _ = simulate(SimulationConfig("gaussian_pair", n, seed, rho=rho, d=1))
    return dataset.variables


print("=" * 72)
print("1. CPC saturates at log(batch size)")
print("=" * 72)

batch = 8
print(f"batch size {batch}, so every estimate is bounded by "
      f"log {batch} = {math.log(batch):.3f} nats\n")
print(f"{'rho':>6} {'true I':>8} {'CPC mean':>9} {'CPC max':>8}")
for rho in (0.5, 0.9, 0.99, 0.999):
    x, y = gaussian_pair(rho, 2048, 42)
    spec = BatchSpec(batch_size=batch, seed=42)
    critic = fit_critic("quadratic", "cpc", x[:1024], y[:1024], spec=spec)
    vals = [cpc_estimate(critic, x[k:k + batch], y[k:k + batch])
            for k in range(1024, 2048, batch)]
    true_info = gaussian_pair_mutual_information(rho)
    print(f"{rho:>6} {true_info:>8.3f} {np.mean(vals):>9.3f} "
          f"{np.max(vals):>8.3f}")
print("\nOnce the true dependence passes log(batch size), the estimator has")
print("nowhere to go; it is structurally biased down.\n")

print("=" * 72)
print("2. NWJ variance grows like exp(I)")
print("=" * 72)

n = 100
resamples = 400
print(f"oracle critic, {resamples} resamples of {n} pairs each\n")
print(f"{'rho':>6} {'true I':>8} {'mean est':>9} {'std':>8} "
      f"{'theory floor std':>17}")
for rho in (0.5, 0.9, 0.99):
    critic = gaussian_oracle_critic(rho)
    vals = []
    for seed in range(resamples):
        x, y = gaussian_pair(rho, n, 1000 + seed)
        perm = np.random.default_rng(2000 + seed).permutation(n)
        vals.append(nwj_estimate(critic, x, y, x, y[perm]))
    true_info = gaussian_pair_mutual_information(rho)
    floor = math.sqrt((math.exp(true_info) - 1.0) / n)
    print(f"{rho:>6} {true_info:>8.3f} {np.mean(vals):>9.3f} "
          f"{np.std(vals, ddof=1):>8.3f} {floor:>17.3f}")
print("\nThe estimator is unbiased at the oracle critic, but its spread is")
print("bounded below by sqrt((e^I - 1)/N): strong dependence costs")
print("exponentially many samples.\n")

print("=" * 72)
print("3. The family-based estimator on the same data")
print("=" * 72)

family = FamilyConfig("linear_gaussian")
print(f"{'rho':>6} {'true I (family)':>16} {'estimate std':>13}")
for rho in (0.5, 0.9, 0.99):
    vals = []
    for seed in range(resamples):
        x, y = gaussian_pair(rho, n, 3000 + seed)
        vals.append(empirical_information(family, x, y).point_estimate)
    # for unit-variance pairs the linear family's population value is rho^2
    print(f"{rho:>6} {gaussian_pair_information(rho, 1.0):>16.3f} "
          f"{np.std(vals, ddof=1):>13.3f}")
print("\nBy *declaring* its constraints the family estimator answers an")
print("easier, well-posed question, and answers it with stable variance.")
