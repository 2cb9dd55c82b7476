"""End-to-end acceptance suite.

Seven criteria, each with a hard tolerance that is part of the package
contract. Every test emits exactly one ``ACCEPTANCE n PASS/FAIL`` line on
the real terminal (bypassing pytest capture) so a full run doubles as a
checklist. Random designs and runs are frozen by seed, so the suite is fully
deterministic. The Monte Carlo criteria run at horizons where their bound
is several standard errors wide, and over more than one seed where a run is
cheap, so a pass does not hinge on one lucky draw.
"""

import math
from contextlib import contextmanager

import numpy as np

from wpaoi import (
    SimConfig,
    average_aoi,
    beta_pi,
    build_params,
    derive,
    interarrival_moments,
    mean_peak_area,
    optimize_capacitor,
    recharge_moments,
    recharge_pmf,
    sample_events,
    simulate,
    write_trace,
)

from conftest import REF_LAMBDA, truncation_k_max
from reference_cycles import empirical_aoi, extract_cycles
from reference_slots import sample_slot_events


@contextmanager
def criterion(capsys, number, name):
    """Print one PASS/FAIL line per criterion, visible despite capture."""
    try:
        yield
    except AssertionError:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} FAIL: {name}", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} PASS: {name}", flush=True)


def _ref_params(power_w, capacitor_j, rate_bpcu=0.05):
    params, _ = build_params(
        power_w=power_w,
        capacitor_j=capacitor_j,
        rate_bpcu=rate_bpcu,
        channel_rate=REF_LAMBDA,
    )
    return params


def test_criterion_1_closed_form_identities(capsys):
    """Moment identities and the age decomposition agree to 1e-12.

    The charge-count grid is dyadic (multiples of 1/512 with at most 26
    significant bits) so the variance identity is exact in float64 and the
    check isolates formula errors rather than rounding noise.
    """
    with criterion(capsys, 1, "closed-form identity suite at 1e-12"):
        rng = np.random.default_rng(20260822)
        beta = rng.integers(0, 51_200_000 + 1, size=100) / 512.0
        pi = rng.uniform(0.01, 1.0, size=100)
        for b, p in zip(beta.tolist(), pi.tolist()):
            e_t, e_t2 = recharge_moments(b)
            e_x, e_x2 = interarrival_moments(b, p)
            e_q = mean_peak_area(e_x, e_x2)
            delta = average_aoi(b, p)
            assert abs(e_x - e_t / p) <= 1e-12 * e_x
            var_t = e_t2 - e_t * e_t
            assert abs(var_t - b) <= 1e-12 * max(b, 1.0)
            assert abs(delta - e_q / e_x) <= 1e-12 * delta


def test_criterion_2_pmf_normalization(capsys):
    """The charge-count pmf sums to 1 within 1e-12 up to the truncation point."""
    with criterion(capsys, 2, "recharge pmf normalization at 1e-12"):
        for beta in (0.1, 1.0, 10.0, 1e3, 1e5):
            k = np.arange(1, truncation_k_max(beta) + 1, dtype=np.int64)
            total = float(recharge_pmf(beta, k).sum())
            assert abs(1.0 - total) < 1e-12, f"beta={beta}: sum={total!r}"


def test_criterion_3_simulation_matches_closed_form(capsys):
    """Simulated average age is within 1% of the closed form.

    Reference scenario at 3 W for three capacitor sizes spanning the
    minimum, at 4e8 slots on each of seeds 1, 9 and 2026. Over 200 seeds at
    1e7 slots the relative standard error of the windowed estimate was
    1.16%, 0.73% and 0.66% for B = 1e-4, 3.36e-4 and 1e-3 J; it falls as the
    square root of the horizon, so at 4e8 slots the 1% bound is at least 5
    standard errors wide. One 4e8-slot run took 0.85 s at B = 1e-4 J (the
    most fills) with numpy 2.4.6 on 2 vCPUs.
    """
    expected = {
        1e-4: 622.36583866962915,
        3.36e-4: 271.39091688037567,
        1e-3: 386.681949809714,
    }
    with criterion(capsys, 3, "simulation vs closed form within 1%"):
        for b_j, delta_frozen in expected.items():
            params = _ref_params(3.0, b_j)
            d = derive(params)
            delta_an = average_aoi(d.beta, d.pi)
            assert abs(delta_an - delta_frozen) <= 1e-12 * delta_frozen
            for seed in (1, 9, 2026):
                stats = simulate(SimConfig(params=params, horizon_slots=400_000_000, seed=seed))
                rel = abs(stats.delta_hat - delta_an) / delta_an
                assert rel < 0.01, f"B={b_j}, seed={seed}: rel={rel:.5f}"


def _assert_event_distributions(log, d):
    """Recharge counts within 0.01 TV of the pmf, decode rate within 3 sigma of pi."""
    t, _, _ = extract_cycles(log)
    assert t.size >= 1_000_000, f"recharges={t.size}"

    kmax = truncation_k_max(d.beta)
    counts = np.bincount(np.minimum(t, kmax + 1), minlength=kmax + 2)
    pmf = recharge_pmf(d.beta, np.arange(1, kmax + 1, dtype=np.int64))
    emp = counts[1 : kmax + 1] / t.size
    tail_emp = counts[kmax + 1] / t.size
    tail_pmf = max(0.0, 1.0 - float(pmf.sum()))
    tv = 0.5 * (float(np.abs(emp - pmf).sum()) + abs(tail_emp - tail_pmf))
    assert tv < 0.01, f"tv={tv:.5f}"

    n_att = log.success.size
    phat = float(log.success.mean())
    se = math.sqrt(d.pi * (1.0 - d.pi) / n_att)
    assert abs(phat - d.pi) <= 3.0 * se, f"phat={phat:.6f} pi={d.pi:.6f}"


def test_criterion_4_event_distributions(capsys):
    """Recharge-count distribution and success rate match theory.

    One long run (1.5e8 slots, about 1e6 recharge cycles) of each engine:
    total variation between the empirical recharge-count histogram and the
    pmf below 0.01, and the attempt success rate within three binomial
    standard errors of the closed-form success probability. On the slot
    engine this checks the claim that T - 1 is Poisson(beta); on the
    renewal engine, which draws T from that law, it checks the sampler.
    """
    with criterion(capsys, 4, "recharge distribution TV < 0.01 and success rate in 3 sigma"):
        params = _ref_params(3.0, 3e-4)
        d = derive(params)
        config = SimConfig(params=params, horizon_slots=150_000_000, seed=9)
        _assert_event_distributions(sample_slot_events(config), d)
        _assert_event_distributions(sample_events(config), d)


def test_criterion_5_optimizer_agrees_with_dense_grid(capsys):
    """The capacitor optimizer lands on the dense-grid minimum.

    Twenty random scenarios (distance, path-loss exponent, power, rate) are
    each solved by golden-section search and by a 100,000-point log grid;
    the two must agree within one grid cell. The reference 3 W scenario is
    additionally pinned against independently computed optimum values.
    """
    with criterion(capsys, 5, "optimizer within one cell of a 1e5-point grid"):
        rng = np.random.default_rng(73)
        dense = np.geomspace(1e-8, 1.0, 100_000)
        cell = math.log(dense[1] / dense[0])
        for _ in range(20):
            dist = rng.uniform(5.0, 40.0)
            alpha = rng.uniform(2.0, 2.8)
            power = rng.uniform(0.5, 10.0)
            rate = rng.uniform(0.02, 0.15)
            params, _ = build_params(
                power_w=power,
                capacitor_j=1.0,
                rate_bpcu=rate,
                distance_m=dist,
                alpha=alpha,
            )
            idx = np.argmin(average_aoi(*beta_pi(params, dense)))
            assert 0 < idx < dense.size - 1
            res = optimize_capacitor(params, b_lo=1e-8, b_hi=1.0)
            assert res.converged and not res.on_boundary
            gap = abs(math.log(res.b_star_j) - math.log(dense[idx]))
            assert gap <= cell, f"gap/cell={gap / cell:.3f}"

        params = _ref_params(3.0, 1.0)
        res = optimize_capacitor(params)
        assert abs(res.b_star_j - 3.37026978103e-4) <= 5e-3 * 3.37026978103e-4
        assert abs(res.delta_star - 271.3899473) <= 5e-3 * 271.3899473


def test_criterion_6_qualitative_behavior(capsys):
    """Shape of the optimum: interior minimum, power and rate orderings, floor.

    The minimized age falls strictly with transmit power and rises strictly
    with the code rate, matching independently computed values within 0.5%.
    With the capacitor held fixed, the age approaches 1/pi from above as
    power grows, with relative distance below 1e-4 at the largest power.
    """
    with criterion(capsys, 6, "interior optimum, power/rate orderings, large-power floor"):
        grid = np.geomspace(1e-6, 1e-2, 4001)
        for power in (1.0, 3.0, 5.0, 10.0):
            params = _ref_params(power, 1.0)
            vals = average_aoi(*beta_pi(params, grid))
            idx = np.argmin(vals)
            assert 0 < idx < grid.size - 1
            assert vals[idx] < vals[idx - 1] and vals[idx] < vals[idx + 1]

        delta_star_by_power = [808.884337329, 271.3899473, 163.8860774, 83.2476473991]
        got = []
        for power, frozen in zip((1.0, 3.0, 5.0, 10.0), delta_star_by_power):
            res = optimize_capacitor(_ref_params(power, 1.0))
            assert res.converged and not res.on_boundary
            assert abs(res.delta_star - frozen) <= 5e-3 * frozen
            got.append(res.delta_star)
        assert all(a > b for a, b in zip(got, got[1:]))

        delta_star_by_rate = [55.6154821467, 271.3899473, 437.167929611, 549.616045253]
        got = []
        for rate, frozen in zip((0.01, 0.05, 0.08, 0.10), delta_star_by_rate):
            res = optimize_capacitor(_ref_params(3.0, 1.0, rate_bpcu=rate))
            assert res.converged and not res.on_boundary
            assert abs(res.delta_star - frozen) <= 5e-3 * frozen
            got.append(res.delta_star)
        assert all(a < b for a, b in zip(got, got[1:]))

        rels = []
        for power in (10.0, 100.0, 1000.0):
            params, _ = build_params(
                power_w=power, capacitor_j=1e-5, channel_rate=1000.0
            )
            d = derive(params)
            rels.append(abs(average_aoi(d.beta, d.pi) * d.pi - 1.0))
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] < 1e-4, f"floor rel err={rels[2]:.3e}"


def test_criterion_7_windowed_estimate_is_exact(capsys, tmp_path):
    """The windowed simulator estimate equals the per-slot age average exactly.

    ``write_trace`` writes the age of every slot of the run ``simulate``
    draws, and returns that run's statistics. Over the window from the first
    to the last delivered update, the integer age total must satisfy the
    triangular per-cycle identity and the reported estimate must reproduce
    it with no floating-point slack.
    """
    cases = [
        (_ref_params(3.0, 3e-4), 200_000, 21),
        (
            build_params(
                power_w=1.0,
                capacitor_j=1.0,
                efficiency=1.0,
                noise_w=1.0,
                rate_bpcu=0.0,
                channel_rate=1.0,
            )[0],
            50_000,
            5,
        ),
    ]
    with criterion(capsys, 7, "windowed estimate equals per-slot average exactly"):
        for params, horizon, seed in cases:
            config = SimConfig(params=params, horizon_slots=horizon, seed=seed)
            path = tmp_path / "trace.csv"
            stats = write_trace(config, path)
            assert stats == simulate(config)
            success, ages = np.loadtxt(
                path, delimiter=",", skiprows=1, usecols=(4, 5), dtype=np.int64, unpack=True
            )
            # row index s is slot s + 1
            success_slots = np.flatnonzero(success) + 1
            assert success_slots.size >= 2
            first, last = int(success_slots[0]), int(success_slots[-1])
            window_sum = int(ages[first - 1 : last - 1].sum())
            x = np.diff(success_slots)
            assert int((x * (x + 1) // 2).sum()) == window_sum
            assert int(x.sum()) == last - first
            assert stats.n_slots_measured == last - first
            assert stats.delta_hat == window_sum / (last - first)
            assert stats.delta_hat == empirical_aoi(x)
