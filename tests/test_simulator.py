import math

import numpy as np
import pytest
from conftest import REF_LAMBDA
from scipy.stats import chi2

from wpaoi import (
    EventLog,
    NoSuccessError,
    SimConfig,
    Warmup,
    average_aoi,
    batch_ci,
    build_params,
    dbm_to_watts,
    derive,
    empirical_aoi,
    extract_cycles,
    sample_events,
    sample_slot_events,
    simulate,
    summarize,
    trace_rows,
    write_trace,
)
from wpaoi.simulator import _DENSE_BETA, _POISSON_LAM_MAX

# Capacitor size that puts the reference point exactly at the fill-search
# threshold; the engine takes the dense search there and the sparse one above.
_THRESHOLD_CAP = _DENSE_BETA * (0.5 * 3.0 / REF_LAMBDA)


def _trace_events(config):
    """Recover fill slots and decode outcomes from the per-slot trace."""
    cap = config.params.capacitor_j
    fills, outcomes = [], []
    for slot, _harvest, level, transmitted, success, _age in trace_rows(config):
        if transmitted:
            outcomes.append(success)
        if level == cap:
            fills.append(slot)
    return np.asarray(fills, dtype=np.int64), np.asarray(outcomes, dtype=bool)


# --- event extraction -------------------------------------------------------

def test_extract_cycles_constructed_log():
    log = EventLog(
        fill_slots=np.array([3, 5, 9], dtype=np.int64),
        success=np.array([False, False, True]),
        horizon_slots=12,
    )
    t, x, m = extract_cycles(log)
    assert t.tolist() == [3, 2, 4]
    assert x.tolist() == [9]
    assert m.tolist() == [3]


def test_extract_cycles_all_successes():
    log = EventLog(
        fill_slots=np.array([2, 6, 7, 11], dtype=np.int64),
        success=np.array([True, True, True, True]),
        horizon_slots=12,
    )
    t, x, m = extract_cycles(log)
    assert x.tolist() == t.tolist()
    assert m.tolist() == [1, 1, 1, 1]


def test_extract_cycles_random_log_sum_identity():
    rng = np.random.default_rng(7)
    gaps = rng.integers(1, 30, size=10_000)
    fills = np.cumsum(gaps)
    success = rng.random(fills.size) < 0.3
    log = EventLog(fill_slots=fills, success=success, horizon_slots=int(fills[-1]) + 1)
    t, x, m = extract_cycles(log)
    assert int(np.sum(x)) == int(np.sum(t[: int(np.sum(m))]))
    # per-cycle identity
    edges = np.cumsum(m)
    starts = np.concatenate(([0], edges[:-1]))
    for k in range(x.size):
        assert int(x[k]) == int(np.sum(t[starts[k] : edges[k]]))


def test_extract_cycles_rejects_malformed_logs():
    with pytest.raises(ValueError):
        extract_cycles(
            EventLog(
                fill_slots=np.array([5, 3], dtype=np.int64),
                success=np.array([True, True]),
                horizon_slots=10,
            )
        )
    with pytest.raises(ValueError):
        extract_cycles(
            EventLog(
                fill_slots=np.array([3], dtype=np.int64),
                success=np.array([True, True]),
                horizon_slots=10,
            )
        )
    with pytest.raises(ValueError):
        extract_cycles(
            EventLog(
                fill_slots=np.array([3, 20], dtype=np.int64),
                success=np.array([True, True]),
                horizon_slots=10,
            )
        )


# --- empirical age over cycles ---------------------------------------------

def test_empirical_aoi_reference_points():
    assert empirical_aoi([1, 1, 1]) == 1.0
    assert empirical_aoi([2, 3]) == pytest.approx(1.8, rel=1e-15)
    assert empirical_aoi([5]) == 3.0


def test_empirical_aoi_sums_exactly_past_int64():
    # X*(X+1) of X near 2**32 passes 2**63
    assert empirical_aoi([2**32, 2**32 + 1, 3]) == 2147483648.0
    # each X*(X+1) fits in int64, but the sum of the areas does not
    assert empirical_aoi([3_000_000_000] * 4) == 1_500_000_000.5


@pytest.mark.parametrize("warmup", list(Warmup))
def test_age_sums_do_not_wrap_at_long_horizons(warmup):
    # beta = 1.46e7 over 3e12 slots: the age total is ~8e19, past 2**63
    params, _ = build_params(
        power_w=3e-5, capacitor_j=3e-4, noise_w=dbm_to_watts(-50.0), distance_m=20.0
    )
    d = derive(params)
    stats = simulate(SimConfig(params, 3_000_000_000_000, 1, warmup=warmup))
    target = average_aoi(d.beta, d.pi)
    assert stats.delta_ci_half < 0.02 * target
    assert abs(stats.delta_hat - target) < 3.0 * stats.delta_ci_half


def test_empirical_aoi_rejects_bad_input():
    with pytest.raises(ValueError):
        empirical_aoi([])
    with pytest.raises(ValueError):
        empirical_aoi([0, 2])
    with pytest.raises(ValueError):
        empirical_aoi([1.5])


# --- batch means confidence intervals ---------------------------------------

def test_batch_ci_constant_samples():
    mean, half = batch_ci([4.2] * 40)
    assert mean == pytest.approx(4.2)
    # the grand mean accumulates a few ulp of rounding against the batch
    # means, so a constant input gives a tiny rather than exactly zero width
    assert 0.0 <= half < 1e-12


def test_batch_ci_two_batches_hand_value():
    mean, half = batch_ci(list(range(1, 21)), n_batches=2)
    assert mean == pytest.approx(10.5, rel=1e-15)
    # batch means 5.5 and 15.5, spread sqrt(50), so half = t_{0.975,1} * 5;
    # with 1 dof the Student-t law is the Cauchy law, whose quantile is
    # tan(pi * (p - 1/2)), so t_{0.975,1} = tan(0.475 * pi) exactly
    assert half == pytest.approx(5 * math.tan(0.475 * math.pi), rel=1e-12)


def test_batch_ci_alternating_signs():
    mean, half = batch_ci([1.0, -1.0] * 50, n_batches=10)
    assert mean == 0.0
    assert half == 0.0


def test_batch_ci_rejects_short_input():
    with pytest.raises(ValueError):
        batch_ci([1.0, 2.0, 3.0], n_batches=4)
    with pytest.raises(ValueError):
        batch_ci([1.0, 2.0], n_batches=1)


# --- the slot engine agrees with the per-slot trace -------------------------

@pytest.mark.parametrize(
    "capacitor_j",
    [
        1e-4,
        3e-4,
        1e-3,
        # below half an ulp of the running harvest sum: every slot fills, and
        # a chase that is not forced forward never ends
        2e-19,
        pytest.param(_THRESHOLD_CAP, id="dense_at_threshold"),
        pytest.param(math.nextafter(_THRESHOLD_CAP, math.inf), id="sparse_above_threshold"),
    ],
)
def test_vectorized_path_matches_per_slot_path(ref_point, capacitor_j):
    config = SimConfig(ref_point(capacitor_j=capacitor_j), 50_000, seed=2024)
    log = sample_slot_events(config)
    fills, outcomes = _trace_events(config)
    assert np.array_equal(fills, log.fill_slots)
    assert np.array_equal(outcomes, log.success)


def test_vectorized_path_matches_per_slot_path_toy(toy_point):
    config = SimConfig(toy_point, 20_000, seed=5)
    log = sample_slot_events(config)
    fills, outcomes = _trace_events(config)
    assert np.array_equal(fills, log.fill_slots)
    assert np.array_equal(outcomes, log.success)
    assert bool(np.all(log.success))


def test_vectorized_path_matches_per_slot_path_dense(ref_point):
    # beta 1.456, so the dense fill search runs
    config = SimConfig(ref_point(power_w=300.0), 50_000, seed=2024)
    log = sample_slot_events(config)
    fills, outcomes = _trace_events(config)
    assert np.array_equal(fills, log.fill_slots)
    assert np.array_equal(outcomes, log.success)


def _assert_block_invariant(engine, config, block):
    a = engine(config)
    b = engine(config, block=block)
    assert np.array_equal(a.fill_slots, b.fill_slots)
    assert np.array_equal(a.success, b.success)


# At the sparse point (beta 145.6) a 7-slot block is far shorter than one
# recharge, so the deficit carried from block to block decides every fill.
@pytest.mark.parametrize("block", [997, 7])
@pytest.mark.parametrize("power_w", [3.0, 300.0], ids=["sparse", "dense"])
def test_block_size_does_not_change_events(ref_point, power_w, block):
    config = SimConfig(ref_point(power_w=power_w), 50_000, seed=77)
    _assert_block_invariant(sample_slot_events, config, block)


# The renewal engine draws recharge times in chunks of at most `block`; a
# 7-draw chunk makes every run cross many chunk boundaries.
@pytest.mark.parametrize("block", [997, 7])
@pytest.mark.parametrize("power_w", [3.0, 300.0], ids=["sparse", "dense"])
def test_block_size_does_not_change_renewal_events(ref_point, power_w, block):
    config = SimConfig(ref_point(power_w=power_w), 50_000, seed=77)
    _assert_block_invariant(sample_events, config, block)


def _two_sample(a, b, min_pooled=50):
    """Total variation and chi-square homogeneity p-value of two integer samples.

    Values from the first one whose pooled count is below ``min_pooled`` on
    are lumped into one tail bin.
    """
    top = int(max(a.max(), b.max())) + 1
    ca = np.bincount(a, minlength=top)[1:]
    cb = np.bincount(b, minlength=top)[1:]
    sparse = ca + cb < min_pooled
    k = int(sparse.argmax()) if sparse.any() else ca.size
    ca = np.append(ca[:k], ca[k:].sum())
    cb = np.append(cb[:k], cb[k:].sum())
    na, nb = a.size, b.size
    tv = 0.5 * float(np.abs(ca / na - cb / nb).sum())
    used = ca + cb > 0
    ca, cb = ca[used], cb[used]
    stat = float(np.sum((ca * math.sqrt(nb / na) - cb * math.sqrt(na / nb)) ** 2 / (ca + cb)))
    return tv, float(chi2.sf(stat, ca.size - 1))


def test_renewal_engine_matches_slot_engine_in_distribution(ref_point):
    # beta 1.456, pi 0.425: 6e6 slots give ~2.4e6 recharges and ~1e6
    # interarrivals per engine. The engines read the harvest stream in
    # different ways, so each gets its own seed to keep the samples
    # independent.
    params = ref_point(power_w=300.0)
    t_slot, x_slot, _ = extract_cycles(sample_slot_events(SimConfig(params, 6_000_000, seed=1)))
    t_new, x_new, _ = extract_cycles(sample_events(SimConfig(params, 6_000_000, seed=2)))
    assert min(x_slot.size, x_new.size) >= 1_000_000
    for name, a, b in (("T", t_slot, t_new), ("X", x_slot, x_new)):
        tv, p_value = _two_sample(a, b)
        assert tv < 0.01, f"{name}: tv={tv:.5f}"
        assert p_value > 1e-3, f"{name}: chi-square p={p_value:.2e}"


def test_simulate_reduces_renewal_events(ref_point):
    config = SimConfig(ref_point(), 200_000, seed=31)
    assert simulate(config) == summarize(sample_events(config), config.warmup)


@pytest.mark.parametrize(
    "capacitor_j, horizon",
    [
        # beta past numpy's Poisson limit: no fill, as in the slot engine
        pytest.param(
            2.0 * _POISSON_LAM_MAX * (0.5 * 3.0 / REF_LAMBDA), 1_000, id="beta_past_poisson_limit"
        ),
        # beta ~1e-13: every slot fills, as in the slot engine
        pytest.param(2e-19, 50_000, id="2e-19"),
    ],
)
def test_renewal_engine_extreme_beta_matches_slot_engine(ref_point, capacitor_j, horizon):
    config = SimConfig(ref_point(capacitor_j=capacitor_j), horizon, seed=2024)
    log = sample_events(config)
    ref = sample_slot_events(config)
    assert np.array_equal(log.fill_slots, ref.fill_slots)
    assert log.success.size == ref.success.size
    if capacitor_j < 1.0:
        assert np.array_equal(log.fill_slots, np.arange(1, horizon + 1))
    else:
        assert log.fill_slots.size == 0
        with pytest.raises(NoSuccessError):
            simulate(config)


def test_simulate_is_deterministic(ref_point):
    config = SimConfig(ref_point(), 200_000, seed=31)
    assert simulate(config) == simulate(config)


# --- capacitor and age dynamics ---------------------------------------------

def test_trace_energy_and_age_dynamics(ref_point):
    params = ref_point(capacitor_j=2e-4)
    cap = params.capacitor_j
    prev_full = False
    for _slot, harvest, level, transmitted, success, age in trace_rows(
        SimConfig(params, 20_000, seed=8)
    ):
        assert harvest >= 0.0
        assert 0.0 <= level <= cap
        assert transmitted == prev_full
        if success:
            assert transmitted
            assert age == 1
        else:
            assert age >= 2
        prev_full = level == cap


def test_windowed_age_equals_cycle_decomposition(ref_point):
    config = SimConfig(ref_point(), 50_000, seed=13)
    stats = summarize(sample_slot_events(config), config.warmup)
    rows = list(trace_rows(config))
    success_slots = [slot for slot, _h, _e, _tx, success, _a in rows if success]
    first, last = success_slots[0], success_slots[-1]
    ages = [age for slot, _h, _e, _tx, _s, age in rows if first <= slot < last]
    assert stats.delta_hat == sum(ages) / len(ages)
    assert stats.n_slots_measured == last - first == len(ages)


def test_full_horizon_age_equals_per_slot_average(ref_point):
    config = SimConfig(ref_point(), 5_000, seed=123, warmup=Warmup.FULL_HORIZON)
    stats = summarize(sample_slot_events(config), config.warmup)
    ages = [age for *_rest, age in trace_rows(config)]
    assert stats.delta_hat == sum(ages) / len(ages)
    assert stats.n_slots_measured == config.horizon_slots


def test_every_attempt_succeeds_when_threshold_vanishes(toy_point):
    stats = simulate(SimConfig(toy_point, 50_000, seed=11))
    assert stats.m_mean == 1.0
    assert stats.t_samples_mean == stats.x_samples_mean
    assert stats.t_samples_m2 == stats.x_samples_m2
    log = sample_events(SimConfig(toy_point, 50_000, seed=11))
    t, x, m = extract_cycles(log)
    assert np.array_equal(x, t[: x.size])


def test_moments_converge_on_toy_point(toy_point):
    stats = simulate(SimConfig(toy_point, 2_000_000, seed=42))
    # T = 1 + Poisson(1): mean 2, second moment 5, age 1.75
    assert stats.t_samples_mean == pytest.approx(2.0, rel=5e-3)
    assert stats.t_samples_m2 == pytest.approx(5.0, rel=2e-2)
    assert stats.delta_hat == pytest.approx(1.75, rel=1e-2)
    assert stats.delta_ci_half < 0.05
    assert stats.n_successes <= stats.n_recharges


def test_attempts_per_update_tracks_success_probability(ref_point):
    params = ref_point()
    d = derive(params)
    stats = simulate(SimConfig(params, 2_000_000, seed=3))
    sigma = math.sqrt((1.0 - d.pi) / d.pi**2 / stats.n_successes)
    assert abs(stats.m_mean - 1.0 / d.pi) < 4.0 * sigma


def test_windowed_age_tracks_closed_form(ref_point):
    params = ref_point()
    d = derive(params)
    target = average_aoi(d.beta, d.pi)
    stats = simulate(SimConfig(params, 2_000_000, seed=17))
    assert stats.delta_hat == pytest.approx(target, rel=0.05)
    assert stats.delta_ci_half > 0.0


# --- failure modes ----------------------------------------------------------

def test_no_fill_raises_with_counters(ref_point):
    with pytest.raises(NoSuccessError) as err:
        simulate(SimConfig(ref_point(capacitor_j=0.5), 100, seed=0))
    assert err.value.n_recharges == 0
    assert err.value.n_successes == 0


def test_single_success_raises_under_windowing(ref_point):
    params = ref_point()
    full = sample_events(SimConfig(params, 100_000, seed=55))
    second_success_fill = int(full.fill_slots[np.flatnonzero(full.success)[1]])
    short = SimConfig(params, second_success_fill, seed=55)
    with pytest.raises(NoSuccessError) as err:
        simulate(short)
    assert err.value.n_successes == 1
    stats = simulate(SimConfig(params, second_success_fill, seed=55, warmup=Warmup.FULL_HORIZON))
    assert stats.n_successes == 1
    assert stats.delta_hat >= 1.0


def test_sim_config_validation(ref_point):
    with pytest.raises(ValueError):
        SimConfig(ref_point(), 0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(ref_point(), 2**62, seed=0)
    with pytest.raises(ValueError):
        SimConfig(ref_point(), 100, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(ref_point(), 100, seed=2**64)


# --- trace file -------------------------------------------------------------

def test_write_trace_round_trips(tmp_path, toy_point):
    config = SimConfig(toy_point, 200, seed=1)
    path = tmp_path / "trace.csv"
    write_trace(config, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "slot,harvest_j,energy_j,transmitted,success,age"
    assert len(lines) == 201
    rows = list(trace_rows(config))
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert int(cells[0]) == row[0]
        assert float(cells[1]) == row[1]
        assert float(cells[2]) == row[2]
        assert int(cells[3]) == int(row[3])
        assert int(cells[4]) == int(row[4])
        assert int(cells[5]) == row[5]
