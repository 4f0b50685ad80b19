"""The simulator against closed forms of cache theory, on generated traces.

``generate_synthetic`` draws each request's rank i.i.d. from ``zipf_mass``:
the independent reference model. Under it some hit rates have exact
expectations and variances, so a check against them tests the model and the
workload together, which an oracle that re-implements the model cannot.
The generator is checked against that spec too, and the simulator's handler
tier against the exact LRU that ``sweep`` counts. Where theory gives only an
approximation, for a larger LRU (Che's) and for the keep-alive tier (a TTL
cache's), the bound adds the largest gap measured at scale to the sampling
error.
"""

import math
import random
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldsim.locality import partition_round_robin
from coldsim.sim import DEFAULT_FOOTPRINT_BYTES, SimConfig, run, simple_lru_hit_rate, sweep_cache_sizes
from coldsim.traces import (
    SyntheticTraceSpec,
    Trace,
    function_name,
    generate_synthetic,
    request_counts,
    synthesize_profiles,
    zipf_mass,
)

STANDARD_ERRORS = 4  # fixed before any run: a correct model fails a case with probability about 6e-5
LEVEL = math.erfc(STANDARD_ERRORS / math.sqrt(2))  # that probability, two-sided: 6.3e-5


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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 300), st.integers(1, 12), st.integers(1, 12))
def test_one_worker_without_keep_alive_hits_as_the_sweep_does_on_any_trace(seed, requests, functions, capacity):
    # one worker serves the requests in arrival order, so its handler tier is the LRU that sweep counts,
    # whatever the gaps, the import and install tiers or the queue
    rnd = random.Random(seed)
    stamps = np.cumsum([rnd.choice([0, 1, 50, 5_000]) for _ in range(requests)]).tolist()
    trace = Trace(stamps, [f"f{rnd.randrange(functions)}" for _ in stamps])
    profiles = synthesize_profiles(trace.names, 12, seed=seed)
    size = capacity * DEFAULT_FOOTPRINT_BYTES
    config = SimConfig(partition=partition_round_robin(profiles, 1, 1, {}), keep_alive_ms=None,
                       handler_capacity_bytes=size)
    assert run(trace, profiles, config).hit_rate_by_tier["HandlerHit"] == sweep_cache_sizes(trace, [size])[0][1]


def independent_hits_error(counts, hit_probabilities) -> float:
    """Standard error of a hit rate whose requests hit independently, each with its function's probability.

    Both approximations below say a request hits when its function's last
    request is within a fixed window; under the IRM the gaps between one
    function's requests are independent, and so are its hits.
    """
    variance = (counts * hit_probabilities * (1 - hit_probabilities)).sum()
    return math.sqrt(float(variance)) / float(counts.sum())


def che_hit_probabilities(frequencies, entries: int):
    """Each function's hit probability 1 - e^(-pᵢT) in an LRU of ``entries`` (Che, Tung & Wang, 2002).

    The characteristic time T, in requests, solves Σ(1 - e^(-pᵢT)) = entries; it is found by bisection.
    """
    def held(t):
        return float(-np.expm1(-frequencies * t).sum())
    low, high = 0.0, 1.0
    while held(high) < entries:
        high *= 2
    for _ in range(64):
        middle = (low + high) / 2
        low, high = (middle, high) if held(middle) < entries else (low, middle)
    return -np.expm1(-frequencies * high)


# the largest gaps to each approximation measured before these tests were written, both over 24 h at s = 1.1.
# Che: at most 0.0027 over the trace's own frequencies for 1 to 2,048 entries on 5,266 functions, so at most 39%
# of the catalog and 0.0026 entries per request; the capacities below stay inside both. TTL: at most 0.0045 on
# exactly the workloads below at seed 5, over the spec's Zipf mass; here the formula takes the trace's own
# frequencies, so that the sampling error is that of the hits alone, given the counts
CHE_ALLOWANCE = 0.0027
TTL_ALLOWANCE = 0.0045


def test_the_sweep_hits_as_ches_approximation_predicts():
    spec = SyntheticTraceSpec(1_000, 200_000, 1.1, 86_400_000, seed=1)
    trace = generate_synthetic(spec)
    counts = np.array(list(request_counts(trace).values()), dtype=float)
    entries = [4, 16, 64, 256]  # at most 26% of the catalog and 0.0013 entries per request
    swept = sweep_cache_sizes(trace, [n * DEFAULT_FOOTPRINT_BYTES for n in entries])
    for n, (_, rate) in zip(entries, swept):
        hits = che_hit_probabilities(counts / spec.num_requests, n)
        expected = float((counts * hits).sum()) / spec.num_requests
        bound = CHE_ALLOWANCE + STANDARD_ERRORS * independent_hits_error(counts, hits)
        assert abs(rate - expected) <= bound, (n, rate, expected, bound)


@pytest.mark.parametrize("functions, keep_alive_ms",
                         [(100, 60_000), (100, 600_000), (1_000, 60_000), (1_000, 600_000)])
def test_one_worker_keeps_handlers_alive_as_a_ttl_cache_does(functions, keep_alive_ms):
    # an uncapped handler tier evicts only on expiry, so function i hits when its last request is within the window:
    # with Poisson arrivals at rate λᵢ, probability 1 - e^(-λᵢT) (Jung, Berger & Balakrishnan, 2003)
    spec = SyntheticTraceSpec(functions, 20_000, 1.1, 86_400_000, seed=5)
    trace = generate_synthetic(spec)
    profiles = synthesize_profiles([function_name(r, functions) for r in range(functions)], 200, seed=5)
    config = SimConfig(partition=partition_round_robin(profiles, 1, 1, {}), keep_alive_ms=keep_alive_ms,
                       handler_capacity_bytes=functions * DEFAULT_FOOTPRINT_BYTES)
    counts = np.array(list(request_counts(trace).values()), dtype=float)
    hits = -np.expm1(-counts / spec.duration_ms * keep_alive_ms)
    expected = float((counts * hits).sum()) / spec.num_requests
    rate = run(trace, profiles, config).hit_rate_by_tier["HandlerHit"]
    assert abs(rate - expected) <= TTL_ALLOWANCE + STANDARD_ERRORS * independent_hits_error(counts, hits), rate


def chi_square_quantile(df: int, z: float) -> float:
    """The chi-square quantile with ``df`` degrees of freedom at normal score ``z`` (Wilson & Hilferty, 1931)."""
    h = 2 / (9 * df)
    return df * (1 - h + z * math.sqrt(h)) ** 3


def chi_square_in_range(statistic: float, df: int, level: float) -> bool:
    """Whether ``statistic`` lies inside the central 1 - ``level`` of chi-square with ``df`` degrees of freedom.

    Too small a statistic fails as well as too large: counts that fit their
    spec better than chance allows are not drawn independently either.
    """
    z = NormalDist().inv_cdf(1 - level / 2)
    return chi_square_quantile(df, -z) <= statistic <= chi_square_quantile(df, z)


def kolmogorov_critical(level: float) -> float:
    """x with P(√N·D > x) = ``level`` under the null, from Kolmogorov's limit 2Σ(-1)^(k-1)e^(-2k²x²).

    Only the first term is kept: at levels this small the later terms change
    x by less than 1e-9.
    """
    return math.sqrt(math.log(2 / level) / 2)


# a tier-1 workload: every function's expected count is at least 76, and the 20 most
# requested expect at least 25 requests a minute over the hour
GENERATED = dict(num_functions=300, num_requests=200_000, zipf_exponent=1.1, duration_ms=3_600_000)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_counts_follow_the_zipf_mass(seed):
    spec = SyntheticTraceSpec(**GENERATED, seed=seed)
    counts = request_counts(generate_synthetic(spec))
    observed = np.array([counts.get(function_name(r, spec.num_functions), 0) for r in range(spec.num_functions)])
    expected = spec.num_requests * zipf_mass(spec.num_functions, spec.zipf_exponent)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert chi_square_in_range(statistic, spec.num_functions - 1, LEVEL), statistic


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_stamps_are_uniform_over_the_window(seed):
    spec = SyntheticTraceSpec(**GENERATED, seed=seed)
    stamps = generate_synthetic(spec).stamps
    n, window = len(stamps), spec.duration_ms
    # both CDFs step only at integer stamps, so D is reached at a drawn stamp or just below one
    below = np.searchsorted(stamps, stamps, side="left") / n - stamps / window
    at = np.searchsorted(stamps, stamps, side="right") / n - (stamps + 1) / window
    distance = max(np.abs(below).max(), np.abs(at).max())
    assert math.sqrt(n) * distance <= kolmogorov_critical(LEVEL), distance


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_most_requested_functions_arrive_as_poisson_processes(seed):
    # given its count, each function's stamps are uniform, so its per-minute counts are multinomial
    # and their Pearson statistic is chi-square with bins - 1 degrees of freedom; a burst inflates it
    spec = SyntheticTraceSpec(**GENERATED, seed=seed)
    trace = generate_synthetic(spec)
    bins, top = spec.duration_ms // 60_000, 20
    for rank in range(top):
        code = trace.names.index(function_name(rank, spec.num_functions))
        per_minute = np.bincount(trace.stamps[trace.codes == code] // 60_000, minlength=bins)
        mean = per_minute.mean()
        statistic = float(((per_minute - mean) ** 2).sum() / mean)
        assert chi_square_in_range(statistic, bins - 1, LEVEL / top), (rank, statistic)  # one case, 20 checks
