import math
from dataclasses import replace

import numpy as np
import pytest

from wpaoi import (
    SystemParams,
    average_aoi,
    beta_pi,
    build_params,
    dbm_to_watts,
    optimize_capacitor,
    optimize_capacitors,
)

# Frozen from a high-precision dense-scan reference at the P = 3 W operating
# point: the minimizer and minimum value, plus the age at three probe sizes.
_B_STAR_P3 = 3.37026978103e-4
_DELTA_STAR_P3 = 271.3899473
_PROBE_DELTAS = {
    1e-4: 622.36583866962915,
    3.36e-4: 271.39091688037567,
    1e-3: 386.681949809714,
}


def _search_point(ref_point, power_w=3.0, rate_bpcu=0.05):
    return ref_point(power_w=power_w, capacitor_j=1.0, rate_bpcu=rate_bpcu)


def _age(params, b_j):
    """The closed-form age as a function of the capacitor size."""
    return average_aoi(*beta_pi(params, b_j))


def test_objective_reference_values(ref_point):
    params = _search_point(ref_point)
    assert _age(params, 3e-4) == pytest.approx(272.84610001060959, rel=1e-12)
    for b, expected in _PROBE_DELTAS.items():
        assert _age(params, b) == pytest.approx(expected, rel=1e-12)


def test_objective_limits(ref_point):
    params = _search_point(ref_point)
    # collapse of the success probability dominates as B shrinks
    assert _age(params, 3e-6) > 1e4
    # pi underflows to zero, and the age is infinite, in the search too
    assert beta_pi(params, 1e-12)[1] == 0.0
    assert _age(params, 1e-12) == math.inf
    assert optimize_capacitor(params, 1e-13, 1e-12).delta_star == math.inf
    # slow charging dominates as B grows, roughly linearly
    ratio = _age(params, 0.2) / _age(params, 0.1)
    assert ratio == pytest.approx(2.0, rel=0.05)
    with pytest.raises(ValueError):
        beta_pi(params, 0.0)
    with pytest.raises(ValueError):
        beta_pi(params, -1e-4)


def test_grid_scan_three_probe_points(ref_point):
    params = _search_point(ref_point)
    vals = _age(params, np.array([1e-4, 3.36e-4, 1e-3]))
    assert np.argmin(vals) == 1
    np.testing.assert_allclose(
        vals, [_PROBE_DELTAS[1e-4], _PROBE_DELTAS[3.36e-4], _PROBE_DELTAS[1e-3]], rtol=1e-12
    )


def test_grid_scan_edge_cases(ref_point):
    params = _search_point(ref_point)
    vals = _age(params, [5e-4])
    assert np.argmin(vals) == 0 and vals.shape == (1,)
    # exact tie breaks toward the smaller (first) entry
    assert np.argmin(_age(params, [3e-4, 3e-4])) == 0
    # the search builds its grid from (b_lo, b_hi, n_grid): it must be
    # non-empty, positive and ascending
    with pytest.raises(ValueError):
        optimize_capacitors([params], 1e-6, 1e-2, n_grid=0)
    with pytest.raises(ValueError):
        optimize_capacitors([params], -1e-4, 3e-4)
    with pytest.raises(ValueError):
        optimize_capacitors([params], 3e-4, 1e-4)
    with pytest.raises(ValueError):
        beta_pi(params, [-1e-4, 3e-4])


def test_optimize_reference_point(ref_point):
    params = _search_point(ref_point)
    result = optimize_capacitor(params, 1e-6, 1e-2)
    assert result.converged and not result.on_boundary
    assert result.b_star_j == pytest.approx(_B_STAR_P3, rel=5e-3)
    assert result.delta_star == pytest.approx(_DELTA_STAR_P3, rel=5e-3)
    assert result.bracket[0] <= result.b_star_j <= result.bracket[1]
    assert result.evaluations > 256
    assert result.delta_star == pytest.approx(_age(params, result.b_star_j), rel=1e-12)


def test_optimize_boundary_detection(ref_point):
    params = _search_point(ref_point)
    result = optimize_capacitor(params, 3e-3, 3e-3 * 1.0001)
    assert not result.converged
    assert result.on_boundary
    assert result.b_star_j == pytest.approx(3e-3, rel=1e-3)


def test_optimize_validates_arguments(ref_point):
    params = _search_point(ref_point)
    with pytest.raises(ValueError):
        optimize_capacitor(params, 1e-2, 1e-6)
    with pytest.raises(ValueError):
        optimize_capacitor(params, 1e-6, 1e-2, tol_rel=0.0)
    with pytest.raises(ValueError):
        optimize_capacitor(params, 1e-6, 1e-2, n_grid=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["b_lo", "b_hi", "tol_rel"])
def test_optimize_rejects_non_finite_arguments(ref_point, field, bad):
    kwargs = {"b_lo": 1e-6, "b_hi": 1e-2, "tol_rel": 1e-6, field: bad}
    with pytest.raises(ValueError):
        optimize_capacitor(_search_point(ref_point), **kwargs)


def test_optimize_matches_dense_grid_on_random_draws():
    rng = np.random.default_rng(73)
    b_lo, b_hi = 1e-8, 1.0
    n_dense = 20_001
    dense = np.geomspace(b_lo, b_hi, n_dense)
    cell = (b_hi / b_lo) ** (1.0 / (n_dense - 1))
    for _ in range(5):
        d = rng.uniform(5.0, 40.0)
        alpha = rng.uniform(2.0, 2.8)
        params = SystemParams(
            power_w=rng.uniform(0.5, 10.0),
            efficiency=0.5,
            noise_w=1e-8,
            rate_bpcu=rng.uniform(0.02, 0.15),
            capacitor_j=1.0,
            channel_rate=1e3 * d**alpha,
        )
        idx = np.argmin(_age(params, dense))
        result = optimize_capacitor(params, b_lo, b_hi)
        assert result.converged
        assert dense[idx] / cell <= result.b_star_j <= dense[idx] * cell


def test_minimizing_beta_invariant_under_joint_scaling(ref_point):
    params = _search_point(ref_point)
    c = 10.0
    scaled = replace(params, noise_w=params.noise_w * c, power_w=params.power_w * c)
    base = optimize_capacitor(params, 1e-6, 1e-2)
    other = optimize_capacitor(scaled, 1e-6 * c, 1e-2 * c)
    beta_of = lambda p, b: p.channel_rate * b / (p.efficiency * p.power_w)
    assert beta_of(params, base.b_star_j) == pytest.approx(
        beta_of(scaled, other.b_star_j), rel=1e-4
    )


def test_minimum_age_improves_with_power(ref_point):
    deltas = [
        optimize_capacitor(_search_point(ref_point, power_w=p), 1e-6, 1e-2).delta_star
        for p in (1.0, 3.0, 5.0, 10.0)
    ]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    expected = [808.884337329, 271.3899473, 163.8860774, 83.2476473991]
    np.testing.assert_allclose(deltas, expected, rtol=5e-3)


def _design_sweep_lanes():
    base, _ = build_params(
        power_w=3.0, capacitor_j=1.0, noise_w=dbm_to_watts(-50.0), distance_m=20.0
    )
    powers = [float(p) for p in np.geomspace(0.1, 100.0, 25)]
    return [replace(base, power_w=p, rate_bpcu=r) for r in (0.05, 0.1) for p in powers]


def _random_scenarios():
    rng = np.random.default_rng(73)
    lanes = []
    for _ in range(20):
        dist, alpha = rng.uniform(5.0, 40.0), rng.uniform(2.0, 2.8)
        power, rate = rng.uniform(0.5, 10.0), rng.uniform(0.02, 0.15)
        params, _ = build_params(
            power_w=power, capacitor_j=1.0, rate_bpcu=rate, distance_m=dist, alpha=alpha
        )
        lanes.append(params)
    return lanes


@pytest.mark.parametrize(
    "lanes, bounds",
    [(_design_sweep_lanes(), (1e-9, 1.0)), (_random_scenarios(), (1e-8, 1.0))],
    ids=["design_sweep", "criterion_5"],
)
def test_lockstep_search_equals_one_lane_search(lanes, bounds):
    results = optimize_capacitors(lanes, *bounds)
    assert len(results) == len(lanes)
    for params, got in zip(lanes, results):
        alone = optimize_capacitor(params, *bounds)
        assert got.b_star_j == alone.b_star_j
        assert got.delta_star == alone.delta_star
        assert got.evaluations == alone.evaluations
        assert got.bracket == alone.bracket
        assert (got.converged, got.on_boundary) == (alone.converged, alone.on_boundary)


def test_lockstep_search_keeps_boundary_lanes_apart(ref_point):
    # One lane's minimum (1.6e-3 J) lies above the bracket, the other's inside it.
    lanes = [_search_point(ref_point, power_w=1e4), _search_point(ref_point)]
    edge, inner = optimize_capacitors(lanes, 1e-4, 1e-3)
    assert edge.on_boundary and not edge.converged and edge.evaluations == 256
    assert edge.b_star_j == pytest.approx(1e-3, rel=1e-12)
    assert inner == optimize_capacitor(lanes[1], 1e-4, 1e-3)
    assert inner.converged
