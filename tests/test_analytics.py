import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import xlogy
from scipy.stats import poisson

from wpaoi import (
    DerivedParams,
    SystemParams,
    analytic_report,
    aoi_limit_fixed_B,
    aoi_limit_ratio,
    average_aoi,
    beta_pi,
    channel_rate_from_distance,
    interarrival_moments,
    mean_peak_area,
    recharge_moments,
    recharge_pmf,
)

from conftest import truncation_k_max
from wpaoi.analytics import _bd0, _x2_overflows
from wpaoi.simulator import _table_size

# Dyadic grid for exactness-sensitive draws: multiples of 1/512 carry at most
# 26 significant bits, so squares and small integer combinations of them are
# exact in double precision.
_DYADIC = 512.0


def test_recharge_pmf_reference_points():
    assert recharge_pmf(0.0, 1) == 1.0
    assert recharge_pmf(0.0, 5) == 0.0
    assert recharge_pmf(1.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert recharge_pmf(2.0, 3) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)


def test_recharge_pmf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        recharge_pmf(-0.5, 1)
    with pytest.raises(ValueError):
        recharge_pmf(1.0, 0)
    with pytest.raises(ValueError):
        recharge_pmf(1.0, np.array([1, 2, 0]))
    with pytest.raises(ValueError):
        recharge_pmf(1.0, 1.5)


_NAN = math.nan


# Each range check is written so that NaN fails it, as it fails every
# comparison. An infinite beta is refused too: the age there is inf/inf.
@pytest.mark.parametrize(
    "call, args",
    [
        (DerivedParams, (_NAN, 0.5)),
        (recharge_moments, (_NAN,)),
        (interarrival_moments, (_NAN, 0.5)),
        (interarrival_moments, (1.0, _NAN)),
        (average_aoi, (_NAN, 0.5)),
        (average_aoi, (1.0, _NAN)),
        (analytic_report, (_NAN, 0.5)),
        (aoi_limit_fixed_B, (_NAN,)),
        (aoi_limit_ratio, (_NAN, 1.0, 1.0)),
        (recharge_pmf, (_NAN, [1, 2])),
        (channel_rate_from_distance, (_NAN, 2.0)),
        (mean_peak_area, (_NAN, 2.0)),
        (mean_peak_area, (2.0, _NAN)),
        (recharge_moments, (math.inf,)),
        (recharge_moments, ([1.0, math.inf],)),
        (interarrival_moments, (math.inf, 0.5)),
        (average_aoi, (math.inf, 0.5)),
        (average_aoi, ([1.0, math.inf], 0.5)),
        (analytic_report, (math.inf, 0.5)),
        (aoi_limit_ratio, (math.inf, 1.0, 1.0)),
        (aoi_limit_ratio, (1e300, 1e300, 1.0)),  # beta overflows to inf
        (aoi_limit_ratio, (0.0, math.inf, 0.5)),
        (aoi_limit_ratio, (1.0, _NAN, 0.5)),
        (aoi_limit_ratio, (1.0, 1.0, _NAN)),
        (aoi_limit_ratio, (1.0, 1.0, math.inf)),
        (aoi_limit_ratio, (1.0, 1.0, 2.0)),  # an efficiency SystemParams refuses
        (recharge_pmf, (math.inf, [1, 2])),
    ],
    ids=lambda v: getattr(v, "__name__", None) or ",".join(map(str, v)),
)
def test_closed_forms_reject_nan(call, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            call(*args)


def test_recharge_pmf_matches_poisson_library():
    # Independent implementation check over moderate shapes. The absolute
    # floor lets probabilities below 1e-100 disagree in relative terms; in
    # that regime both implementations carry tail-accumulated rounding and
    # the values are irrelevant to any moment or normalization at 1e-12.
    for beta in (0.3, 1.0, 7.0, 50.0, 145.64513624208642):
        k = np.arange(1, truncation_k_max(beta) + 1)
        ours = recharge_pmf(beta, k)
        theirs = poisson.pmf(k - 1, beta)
        np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=1e-100)


def _bd0_to_convergence(x, m):
    """_bd0 with its series summed term by term until, for each x, a term
    leaves the sum unchanged: one masked pass per term."""
    out = np.empty_like(x)
    near = np.abs(x - m) < 0.1 * (x + m)
    far = ~near
    if far.any():
        xf = x[far]
        out[far] = xlogy(xf, xf / m) + m - xf
    if near.any():
        xn = x[near]
        v = (xn - m) / (xn + m)
        s = (xn - m) * v
        ej = 2.0 * xn * v
        v2 = v * v
        active = np.ones(xn.shape, dtype=bool)
        j = 1
        while active.any() and j < 1000:
            ej[active] *= v2[active]
            s_new = s[active] + ej[active] / (2 * j + 1)
            converged = s_new == s[active]
            s[active] = s_new
            idx = np.flatnonzero(active)
            active[idx[converged]] = False
            j += 1
        out[near] = s
    return out


def test_bd0_equals_the_series_summed_to_convergence():
    # every x = k - 1 of the alias tables' range, k >= 2
    for beta in np.geomspace(1.0, 62_506.0, 60).tolist():
        x = np.arange(1.0, _table_size(beta))
        assert np.array_equal(_bd0(x, beta), _bd0_to_convergence(x, beta)), beta
    # x within 20% of m, m itself and its neighbours, from 1e-300 to 1e300
    rng = np.random.default_rng(66)
    for m in (10.0 ** rng.uniform(-300.0, 300.0, 200)).tolist():
        x = np.concatenate([m * rng.uniform(0.8, 1.2, 500), [m, *np.nextafter(m, [0.0, math.inf])]])
        assert np.array_equal(_bd0(x, m), _bd0_to_convergence(x, m)), m


def test_recharge_pmf_normalizes_at_extreme_shapes():
    for beta in (0.1, 1.0, 10.0, 1e3, 1e5):
        k = np.arange(1, truncation_k_max(beta) + 1)
        total = float(recharge_pmf(beta, k).sum())
        assert abs(total - 1.0) < 1e-12


def test_recharge_pmf_monte_carlo_charging_construction():
    # The recharge time is the first slot where a running sum of unit-mean
    # exponential increments reaches beta. Build it directly and compare
    # frequencies against the closed form.
    beta = 2.0
    rng = np.random.default_rng(321)
    n = 200_000
    partial = np.cumsum(rng.exponential(1.0, size=(n, 40)), axis=1)
    t = 1 + (partial < beta).sum(axis=1)
    for k in (1, 2, 3, 5, 8):
        p = recharge_pmf(beta, k)
        phat = float(np.mean(t == k))
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(phat - p) < 4.0 * sigma + 1e-12


def test_recharge_moments_reference_points():
    assert recharge_moments(0.0) == (1.0, 1.0)
    assert recharge_moments(1.0) == (2.0, 5.0)
    assert recharge_moments(2.0) == (3.0, 11.0)
    with pytest.raises(ValueError):
        recharge_moments(-1.0)


def test_recharge_moments_match_series_sums():
    # Truncated series of k * pmf and k^2 * pmf against the closed forms.
    for beta in (0.5, 1.0, 2.0, 10.0, 145.64513624208642):
        k = np.arange(1, truncation_k_max(beta) + 1)
        p = recharge_pmf(beta, k)
        e_t, e_t2 = recharge_moments(beta)
        assert float(np.sum(k * p)) == pytest.approx(e_t, rel=1e-10)
        assert float(np.sum(k * k * p)) == pytest.approx(e_t2, rel=1e-10)


@given(st.integers(min_value=0, max_value=51_200_000))
def test_recharge_variance_identity_exact_on_dyadic_grid(numerator):
    beta = numerator / _DYADIC
    e_t, e_t2 = recharge_moments(beta)
    assert e_t2 - e_t * e_t == beta


def _success_probability(channel_rate, rate_bpcu, noise_w, capacitor_j):
    """pi from the model's one formula; the power terms do not enter it."""
    params = SystemParams(
        power_w=1.0,
        efficiency=1.0,
        noise_w=noise_w,
        rate_bpcu=rate_bpcu,
        capacitor_j=1.0,
        channel_rate=channel_rate,
    )
    return beta_pi(params, capacitor_j)[1]


def test_success_probability_reference_points():
    assert _success_probability(1.0, 0.0, 1.0, 1.0) == 1.0
    assert _success_probability(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert _success_probability(
        728225.68121043211, 0.05, 1e-8, 3e-4
    ) == pytest.approx(0.42484646269601529, rel=1e-12)


def test_success_probability_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _success_probability(0.0, 0.05, 1e-8, 3e-4)
    with pytest.raises(ValueError):
        _success_probability(1.0, -0.05, 1e-8, 3e-4)
    with pytest.raises(ValueError):
        _success_probability(1.0, 0.05, 0.0, 3e-4)
    with pytest.raises(ValueError):
        _success_probability(1.0, 0.05, 1e-8, 0.0)


def test_interarrival_moments_reference_points():
    assert interarrival_moments(0.0, 1.0) == (1.0, 1.0)
    assert interarrival_moments(2.0, 1.0) == (3.0, 11.0)
    assert interarrival_moments(1.0, 0.5) == (4.0, 26.0)
    with pytest.raises(ValueError):
        interarrival_moments(1.0, 0.0)
    with pytest.raises(ValueError):
        interarrival_moments(1.0, 1.5)


def test_interarrival_moments_at_pi_one_where_two_e_t_squared_overflows():
    # 2*E[T]^2 overflows from beta ~9.5e153, E[T^2] only at ~1.34e154; at
    # pi = 1, X is T, for floats and arrays alike, without a warning
    betas = [2.0, 9.6e153, 1.3e154]
    for beta in betas:
        assert interarrival_moments(beta, 1.0) == recharge_moments(beta)
        assert not _x2_overflows(beta, 1.0)
    e_t, e_t2 = recharge_moments(np.array(betas))
    e_x, e_x2 = interarrival_moments(np.array(betas), 1.0)
    assert np.array_equal(e_x, e_t) and np.array_equal(e_x2, e_t2)
    assert not _x2_overflows(np.array(betas), np.ones(3)).any()


@pytest.mark.parametrize("beta", [1e200, 9e307, 1.7e308])
def test_closed_forms_overflow_to_inf_at_a_huge_finite_beta(beta):
    # E[T^2] overflows from beta ~1.34e154 and 2*E[T] from ~9e307; the
    # moments that overflow and the age are inf, without a warning
    assert recharge_moments(beta) == (1.0 + beta, math.inf)
    assert average_aoi(beta, 0.5) == average_aoi(beta, 1.0) == math.inf
    assert interarrival_moments(beta, 0.5)[1] == math.inf
    report = analytic_report(beta, 0.5)
    assert report.e_t2 == report.e_x2 == report.e_q == report.delta == math.inf
    delta = average_aoi(np.array([1.0, beta]), np.array([0.5, 1.0]))
    assert delta.tolist() == [average_aoi(1.0, 0.5), math.inf]


@pytest.mark.parametrize("pi", [1e-301, 5e-324])
def test_closed_forms_overflow_to_inf_at_a_tiny_pi(pi):
    # pi*pi underflows to zero, so E[X^2] ~ 2*E[T]^2/pi^2 is inf, for
    # floats and arrays alike, without a warning
    assert interarrival_moments(1.0, pi)[1] == math.inf
    report = analytic_report(1.0, pi)
    assert report.e_x2 == report.e_q == math.inf
    _, e_x2 = interarrival_moments(np.array([1.0, 1.0]), np.array([pi, 0.5]))
    assert e_x2.tolist() == [math.inf, interarrival_moments(1.0, 0.5)[1]]


def test_average_aoi_halves_the_ratio_exactly():
    # E[T^2]/E[T]*0.5 rounds as E[T^2]/(2*E[T]) wherever 2*E[T] is finite
    rng = np.random.default_rng(5)
    beta = np.concatenate([10.0 ** rng.uniform(-12.0, 307.0, 20_000), [8.9e307]])
    pi = rng.uniform(1e-6, 1.0, beta.size)
    with np.errstate(over="ignore"):
        e_t, e_t2 = 1.0 + beta, 1.0 + 3.0 * beta + beta * beta
        plain = e_t2 / (2.0 * e_t) + e_t * (1.0 - pi) / pi + 0.5
    assert np.array_equal(average_aoi(beta, pi), plain)


def test_interarrival_moments_monte_carlo():
    # X as a geometric number of independent recharge times, built from raw
    # draws: attempts ~ Geometric(pi), each recharge 1 + Poisson(beta).
    beta, pi = 1.0, 0.5
    rng = np.random.default_rng(99)
    n = 400_000
    attempts = rng.geometric(pi, size=n)
    total = np.array(
        [np.sum(1 + rng.poisson(beta, size=m)) for m in attempts[:50_000]], dtype=float
    )
    e_x, e_x2 = interarrival_moments(beta, pi)
    assert float(np.mean(total)) == pytest.approx(e_x, rel=0.02)
    assert float(np.mean(total * total)) == pytest.approx(e_x2, rel=0.05)


def test_mean_peak_area_reference_points():
    assert mean_peak_area(1.0, 1.0) == 1.0
    assert mean_peak_area(3.0, 11.0) == 7.0
    assert mean_peak_area(4.0, 26.0) == 15.0
    with pytest.raises(ValueError):
        mean_peak_area(0.5, 1.0)
    with pytest.raises(ValueError):
        mean_peak_area(3.0, 2.0)


def test_average_aoi_reference_points():
    assert average_aoi(0.0, 1.0) == 1.0
    assert average_aoi(1.0, 0.5) == pytest.approx(3.75, rel=1e-15)
    assert average_aoi(2.0, 1.0) == pytest.approx(11.0 / 6.0 + 0.5, rel=1e-15)
    assert average_aoi(1.0, 1.0) == pytest.approx(1.75, rel=1e-15)


@given(
    st.integers(min_value=0, max_value=51_200_000),
    st.floats(min_value=0.01, max_value=1.0, exclude_min=True),
)
def test_average_aoi_equals_area_over_interarrival(numerator, pi):
    beta = numerator / _DYADIC
    e_x, e_x2 = interarrival_moments(beta, pi)
    composed = mean_peak_area(e_x, e_x2) / e_x
    direct = average_aoi(beta, pi)
    assert abs(direct - composed) / direct < 1e-12


def test_average_aoi_monotone_on_grid():
    betas = [0.0, 0.5, 1.0, 10.0, 100.0, 1000.0]
    pis = [0.05, 0.2, 0.5, 0.8, 1.0]
    for pi in pis:
        vals = [average_aoi(b, pi) for b in betas]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    for beta in betas:
        vals = [average_aoi(beta, p) for p in pis]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_average_aoi_broadcasts():
    betas = np.array([0.0, 1.0, 2.0])
    out = average_aoi(betas, 1.0)
    assert out.shape == (3,)
    assert out[0] == 1.0


def test_aoi_limit_fixed_capacitor():
    assert aoi_limit_fixed_B(1.0) == 1.0
    assert aoi_limit_fixed_B(0.5) == 2.0
    with pytest.raises(ValueError):
        aoi_limit_fixed_B(0.0)
    # The full expression approaches the limit as beta vanishes.
    assert average_aoi(1e-9, 0.5) == pytest.approx(2.0, abs=1e-6)


def test_aoi_limit_ratio():
    assert aoi_limit_ratio(0.0, 1.0, 1.0) == 1.0
    assert aoi_limit_ratio(1.0, 1.0, 1.0) == pytest.approx(1.75, rel=1e-15)
    assert aoi_limit_ratio(2.0, 1.0, 1.0) == pytest.approx(average_aoi(2.0, 1.0), rel=1e-15)
    # The full expression approaches the limit as pi approaches 1.
    assert average_aoi(2.0, 1.0 - 1e-12) == pytest.approx(
        aoi_limit_ratio(2.0, 1.0, 1.0), rel=1e-9
    )
    with pytest.raises(ValueError):
        aoi_limit_ratio(-1.0, 1.0, 1.0)
    # A bad argument is refused by its own name, not by the beta it makes.
    for args, name in [
        ((math.inf, 1.0, 0.5), "theta"),
        ((0.0, math.inf, 0.5), "channel_rate"),
        ((1.0, 1.0, 2.0), "efficiency"),
        ((1.0, 1.0, math.inf), "efficiency"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            aoi_limit_ratio(*args)


def test_mean_peak_area_and_aoi_limit_ratio_broadcast_bit_for_bit():
    # Each entry of an array call equals the call at that point alone.
    e_x, e_x2 = interarrival_moments(np.array([0.0, 1.0, 145.6, 1e150]), np.array([1.0, 0.5, 0.42, 1e-3]))
    e_x, e_x2 = np.append(e_x, 1.7e308), np.append(e_x2, 1.7e308)  # the sum overflows to inf
    area = mean_peak_area(e_x, e_x2)
    assert area.tolist() == [mean_peak_area(x, x2) for x, x2 in zip(e_x.tolist(), e_x2.tolist())]
    assert area[-1] == math.inf
    thetas = np.array([0.0, 1e-4, 3.0, 1e150, 1e152])
    rates = np.array([[2.2e3], [1.0]])
    ratio = aoi_limit_ratio(thetas, rates, 0.5)
    assert ratio.shape == (2, 5)
    assert ratio.tolist() == [[aoi_limit_ratio(t, lam, 0.5) for t in thetas.tolist()] for lam in (2.2e3, 1.0)]
    assert ratio[0, -1] == math.inf
    assert type(mean_peak_area(3.0, 11.0)) is type(aoi_limit_ratio(1.0, 1.0, 1.0)) is float
    # One entry out of its domain refuses the whole call, by its own name.
    with pytest.raises(ValueError, match="^e_x2 must be"):
        mean_peak_area(np.array([3.0, 3.0]), np.array([11.0, 2.0]))
    with pytest.raises(ValueError, match="^efficiency must be"):
        aoi_limit_ratio(thetas[:2], 1.0, np.array([0.5, 2.0]))


def test_analytic_report_is_consistent():
    rep = analytic_report(145.64513624208642, 0.42484646269601529)
    assert rep.e_t == 1.0 + rep.beta
    assert rep.e_x == pytest.approx(rep.e_t / rep.pi, rel=1e-15)
    assert rep.e_t2 - rep.e_t**2 >= 0.0
    assert rep.e_q == pytest.approx(0.5 * (rep.e_x2 + rep.e_x), rel=1e-15)
    assert rep.delta == pytest.approx(rep.e_q / rep.e_x, rel=1e-12)
    assert rep.delta >= 1.0


def test_truncation_k_max():
    assert truncation_k_max(0.0) == 50
    assert truncation_k_max(100.0) == math.ceil(100.0 + 500.0 + 50.0)
    with pytest.raises(ValueError):
        truncation_k_max(-1.0)
