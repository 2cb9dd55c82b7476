import math
from dataclasses import replace

import numpy as np
import pytest

import wpaoi.optimizer as optimizer
from wpaoi import (
    OptResult,
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
    # pi underflows to zero, and the age is infinite; a search that finds
    # no finite age says so
    assert beta_pi(params, 1e-12)[1] == 0.0
    assert _age(params, 1e-12) == math.inf
    with pytest.raises(ValueError, match="finite age"):
        optimize_capacitor(params, 1e-13, 1e-12)
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
    # the search builds its grid from (b_lo, b_hi): it must be positive and
    # ascending
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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _ranked_age(params, b_j):
    """The age, with inf/inf ranked as infinite: NaN where 2*E[T] overflows,
    and the age of a beta that overflows, which the closed forms refuse."""
    beta, pi = beta_pi(params, b_j)
    overflows = np.isinf(beta)
    age = average_aoi(np.where(overflows, 0.0, beta), pi)
    return np.where(overflows | np.isnan(age), math.inf, age)


def _reference_search(params, b_lo=1e-9, b_hi=1.0, tol_rel=1e-6, n_grid=256):
    """The search written plainly for one lane, with every evaluation a call
    of the public closed forms: the grid in one array call, whose entries
    equal scalar calls bit for bit, and the golden section steps on floats.
    A NaN age ranks as an infinite one, and a grid without a finite age has
    no minimum."""
    grid = np.geomspace(b_lo, b_hi, n_grid)
    vals = _ranked_age(params, grid).tolist()
    grid = grid.tolist()
    i = int(np.argmin(vals))
    if not math.isfinite(vals[i]):
        raise ValueError("no finite age on the grid")
    a, c = grid[max(i - 1, 0)], grid[min(i + 1, n_grid - 1)]
    if i in (0, n_grid - 1):
        return OptResult(grid[i], vals[i], n_grid, (a, c), converged=False, on_boundary=True)
    x1, x2 = a + _INVPHI2 * (c - a), a + _INVPHI * (c - a)
    f1, f2 = float(_ranked_age(params, x1)), float(_ranked_age(params, x2))
    evaluations = n_grid + 2
    while c - a > tol_rel * x1:
        if f1 <= f2:
            c, x2, f2 = x2, x1, f1
            x1 = a + _INVPHI2 * (c - a)
            f1 = float(_ranked_age(params, x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (c - a)
            f2 = float(_ranked_age(params, x2))
        evaluations += 1
    if f1 <= f2:
        return OptResult(x1, f1, evaluations, (a, c), converged=True)
    return OptResult(x2, f2, evaluations, (a, c), converged=True)


def _random_lanes(n, seed):
    """Powers log-uniform over 1e-4..1e5 W and rates uniform over 0..4 bits
    per channel use, around the reference distance and noise."""
    rng = np.random.default_rng(seed)
    lanes = []
    for _ in range(n):
        params, _ = build_params(
            power_w=float(10.0 ** rng.uniform(-4.0, 5.0)),
            capacitor_j=1.0,
            efficiency=float(rng.uniform(0.1, 1.0)),
            noise_w=dbm_to_watts(float(rng.uniform(-70.0, -30.0))),
            rate_bpcu=float(rng.uniform(0.0, 4.0)),
            distance_m=float(rng.uniform(5.0, 40.0)),
        )
        lanes.append(params)
    return lanes


@pytest.mark.parametrize(
    "lanes, bounds",
    [
        (_design_sweep_lanes(), (1e-9, 1.0)),
        (_random_scenarios(), (1e-8, 1.0)),
        (_random_lanes(500, 2024), (1e-9, 1.0)),
    ],
    ids=["design_sweep", "criterion_5", "random"],
)
def test_search_equals_plain_reference(lanes, bounds):
    assert optimize_capacitors(lanes, *bounds) == [_reference_search(p, *bounds) for p in lanes]


def test_search_equals_plain_reference_on_the_edges(ref_point):
    # minimum below the interval, above it, and inside it
    cases = [
        (_search_point(ref_point), 3e-3, 3e-3 * 1.0001),
        (_search_point(ref_point, power_w=1e4), 1e-4, 1e-3),
        (_search_point(ref_point), 1e-6, 1e-2),
    ]
    for params, b_lo, b_hi in cases:
        assert optimize_capacitor(params, b_lo, b_hi) == _reference_search(params, b_lo, b_hi)
    lower, upper, inner = (optimize_capacitor(p, lo, hi) for p, lo, hi in cases)
    assert lower.on_boundary and lower.b_star_j == 3e-3
    assert upper.on_boundary and upper.b_star_j == pytest.approx(1e-3, rel=1e-12)
    assert inner.converged


@pytest.mark.parametrize("n_grid", [256, 64, 3])
def test_search_equals_plain_reference_on_a_wide_bracket(ref_point, n_grid, monkeypatch):
    # The best grid cell of a bracket of 600 decades borders sizes whose
    # success probability is tiny (256 points) or underflows to zero (64 and
    # 3). With 3 points the golden steps start among infinite ages, so ties
    # f1 == f2 decide their first ~1,200 steps.
    params = _search_point(ref_point, rate_bpcu=4.0)
    b_lo, b_hi = 1e-300, 1e300
    monkeypatch.setattr(optimizer, "_N_GRID", n_grid)
    result = optimize_capacitor(params, b_lo, b_hi)
    grid = np.geomspace(b_lo, b_hi, n_grid)
    with np.errstate(over="ignore"):  # beta**2 overflows at the top of the grid
        assert result == _reference_search(params, b_lo, b_hi, n_grid=n_grid)
        i = int(np.argmin(_age(params, grid)))
    assert result.converged
    pi_below = beta_pi(params, float(grid[i - 1]))[1]
    assert pi_below < 1e-150
    assert (pi_below == 0.0) == (n_grid != 256)


def test_search_equals_plain_reference_where_beta_overflows(ref_point, monkeypatch):
    # beta overflows above ~100 J and pi underflows below ~1e25 J, so the
    # ages there are inf/inf = NaN and every other age is infinite: no grid
    # age is finite, and both searches refuse the lane.
    params = _search_point(ref_point, power_w=1e-300, rate_bpcu=100.0)
    for n_grid in (256, 17):
        monkeypatch.setattr(optimizer, "_N_GRID", n_grid)
        with pytest.raises(ValueError, match="finite age"):
            optimize_capacitor(params, 1e-9, 1e30)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(ValueError):
                _reference_search(params, 1e-9, 1e30, n_grid=n_grid)
    # Here beta overflows above ~4e302 J, so the top grid point's age is
    # inf/inf: NaN in the search's kernels, which an unordered argmin took
    # for the minimum, and refused by the closed forms. Ranked as infinite,
    # it leaves the finite middle point, and the golden steps start among
    # NaN and infinite ages at both ends.
    params = _search_point(ref_point)
    monkeypatch.setattr(optimizer, "_N_GRID", 3)
    result = optimize_capacitor(params, 1e-300, 1e303)
    assert beta_pi(params, 1e303)[0] == math.inf
    with pytest.raises(ValueError, match="finite"):
        _age(params, 1e303)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        assert result == _reference_search(params, 1e-300, 1e303, n_grid=3)
    assert result.converged and math.isfinite(result.delta_star)
    assert result.delta_star == pytest.approx(_DELTA_STAR_P3, rel=5e-3)


def test_age_is_unimodal_in_the_capacitor_size():
    # Golden section finds the minimum only of a unimodal function (Kiefer
    # 1953); the grid scan brackets it on that premise. On random lanes the
    # finite ages on a fine log grid fall and then rise, with one turn.
    grid = np.geomspace(1e-12, 1e3, 4000)
    for params in _random_lanes(1000, 1953):
        ages = average_aoi(*beta_pi(params, grid))
        finite = np.flatnonzero(np.isfinite(ages))
        assert finite.size > 100 and np.all(np.diff(finite) == 1), params
        steps = np.sign(np.diff(ages[finite]))
        steps = steps[steps != 0]
        turns = np.count_nonzero(np.diff(steps))
        assert turns == 1 and steps[0] < 0 < steps[-1], params
