"""The simulator against closed forms of cache theory, on generated traces.

``generate_synthetic`` draws each request's rank i.i.d. from ``zipf_mass``:
the independent reference model. Under it some hit rates have exact
expectations and variances, so a check against them tests the model and the
workload together, which an oracle that re-implements the model cannot.
"""

import math

import pytest

from coldsim.sim import simple_lru_hit_rate
from coldsim.traces import SyntheticTraceSpec, generate_synthetic, zipf_mass

STANDARD_ERRORS = 4  # fixed before any run: a correct model fails a case with probability about 6e-5


def one_entry_lru_moments(mass, requests: int) -> tuple[float, float]:
    """Mean and standard deviation of a one-entry LRU's hit rate over ``requests`` i.i.d. draws from ``mass``.

    Request t > 1 hits when it names the function of request t - 1, with
    probability q = Σpᵢ². Its indicator has variance q(1 - q). Two adjacent
    indicators both hit when three requests in a row name one function, so
    their covariance is Σpᵢ³ - q²; indicators further apart share no draw and
    are independent. The N - 1 indicators, over N requests, give
    Var(hits) = (N - 1)q(1 - q) + 2(N - 2)(Σpᵢ³ - q²).
    """
    q = float((mass**2).sum())
    cubes = float((mass**3).sum())
    n = requests
    variance = (n - 1) * q * (1 - q) + 2 * (n - 2) * (cubes - q * q)
    return (n - 1) / n * q, math.sqrt(variance) / n


@pytest.mark.parametrize(
    "functions, exponent, requests",
    [(100, 1.1, 200_000), (1_000, 1.1, 200_000), (300, 0.8, 100_000)],
)
def test_a_one_entry_lru_hits_with_the_probability_of_a_repeat(functions, exponent, requests):
    trace = generate_synthetic(SyntheticTraceSpec(functions, requests, exponent, 86_400_000, seed=1))
    mean, deviation = one_entry_lru_moments(zipf_mass(functions, exponent), requests)
    assert abs(simple_lru_hit_rate(trace, 1) - mean) <= STANDARD_ERRORS * deviation
