import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import REF_LAMBDA
from wpaoi import (
    SystemParams,
    analytic_report,
    beta_pi,
    build_params,
    channel_rate_from_distance,
    dbm_to_watts,
    derive,
)


def test_dbm_to_watts_reference_points():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(-50.0) == pytest.approx(1e-8, rel=1e-12)


def test_dbm_to_watts_refuses_nan_and_saturates_at_infinities():
    with pytest.raises(ValueError, match="nan"):
        dbm_to_watts(math.nan)
    assert dbm_to_watts(math.inf) == math.inf
    assert dbm_to_watts(-math.inf) == 0.0
    assert dbm_to_watts(1e4) == math.inf


@given(st.floats(min_value=-120.0, max_value=90.0))
def test_dbm_round_trip(x_dbm):
    # back to dBm: ten times the decimal log of the power in milliwatts
    assert 10.0 * math.log10(dbm_to_watts(x_dbm)) + 30.0 == pytest.approx(x_dbm, rel=1e-12, abs=1e-10)


def test_channel_rate_from_distance_values():
    assert channel_rate_from_distance(1.0, 2.2) == pytest.approx(1000.0, rel=1e-12)
    assert channel_rate_from_distance(10.0, 2.0) == pytest.approx(1e5, rel=1e-12)
    # 1e3 * 20**2.2 against a high-precision reference evaluation
    assert channel_rate_from_distance(20.0, 2.2) == pytest.approx(REF_LAMBDA, rel=1e-12)


def test_channel_rate_from_distance_rejects_nonpositive():
    with pytest.raises(ValueError):
        channel_rate_from_distance(0.0, 2.2)
    with pytest.raises(ValueError):
        channel_rate_from_distance(10.0, -1.0)
    # a power law that underflows to zero or is infinite names the distance
    # and the exponent, not the channel rate it would have given
    cases = [
        (1e-300, 2.2, "underflows to zero"),
        (0.5, math.inf, "underflows to zero"),
        (math.inf, 2.2, "overflows"),
        (2.0, math.inf, "overflows"),
        (1e300, 1e300, "overflows"),
    ]
    for d_m, alpha, bound in cases:
        message = f"{bound} at distance {d_m} and exponent {alpha}"
        with pytest.raises(ValueError, match=re.escape(message)):
            channel_rate_from_distance(d_m, alpha)


def test_system_params_validation():
    good = dict(
        power_w=3.0,
        efficiency=0.5,
        noise_w=1e-8,
        rate_bpcu=0.05,
        capacitor_j=3e-4,
        channel_rate=REF_LAMBDA,
    )
    SystemParams(**good)
    for field, bad in [
        ("power_w", 0.0),
        ("efficiency", 0.0),
        ("efficiency", 1.5),
        ("noise_w", -1e-8),
        ("rate_bpcu", -0.1),
        ("capacitor_j", 0.0),
        ("channel_rate", 0.0),
    ]:
        with pytest.raises(ValueError):
            SystemParams(**{**good, field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", ["power_w", "efficiency", "noise_w", "rate_bpcu", "capacitor_j", "channel_rate"]
)
def test_system_params_rejects_non_finite(ref_point, field, bad):
    with pytest.raises(ValueError, match=field):
        ref_point(**{field: bad})


def test_system_params_is_immutable(ref_point):
    params = ref_point()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.power_w = 5.0


def test_derive_zero_threshold_gives_pi_one():
    params = SystemParams(
        power_w=4.0, efficiency=0.5, noise_w=1.0, rate_bpcu=0.0, capacitor_j=2.0, channel_rate=1.0
    )
    d = derive(params)
    assert d.beta == 1.0
    assert d.pi == 1.0


def test_derive_unit_exponent():
    params = SystemParams(
        power_w=1.0, efficiency=1.0, noise_w=1.0, rate_bpcu=1.0, capacitor_j=1.0, channel_rate=1.0
    )
    d = derive(params)
    assert d.beta == 1.0
    assert d.pi == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_derive_reference_point(ref_point):
    # Frozen from a high-precision reference evaluation of both formulas.
    d = derive(ref_point())
    assert d.beta == pytest.approx(145.64513624208642, rel=1e-12)
    assert d.pi == pytest.approx(0.42484646269601529, rel=1e-12)


def test_beta_pi_lanes_match_derive_bit_for_bit(ref_point):
    lanes = [ref_point(power_w=p, rate_bpcu=r) for p in (1.0, 3.0) for r in (0.0, 0.05, 0.1)]
    sizes = np.geomspace(1e-6, 1e-1, 7)
    beta, pi = beta_pi(lanes, np.broadcast_to(sizes, (len(lanes), sizes.size)))
    assert beta.shape == pi.shape == (len(lanes), sizes.size)
    for i, params in enumerate(lanes):
        # one size per lane
        assert beta_pi(lanes, sizes[:len(lanes)])[0][i] == beta[i, i]
        for j, b in enumerate(sizes):
            # derive's own scalar call; derive refuses some of these sizes,
            # where a pi near 1e-227 makes E[X^2] overflow
            assert (beta[i, j], pi[i, j]) == beta_pi(params, float(b))
    with pytest.raises(ValueError):
        beta_pi(lanes, np.full(len(lanes), math.nan))


def test_derive_rejects_underflowing_success_probability(ref_point):
    with pytest.raises(ValueError):
        derive(ref_point(capacitor_j=1e-12))


def test_derive_rejects_a_pi_at_which_e_x2_overflows(ref_point):
    # E[X^2] ~ 2*E[T]^2/pi^2: finite at pi ~7e-151, past the float range at
    # the subnormal pi 2.3e-317 (beta 123.6) of this lane
    lane = ref_point(power_w=0.3530899919196604, rate_bpcu=2.0)
    with pytest.raises(ValueError, match=r"E\[X\^2\] overflows"):
        derive(dataclasses.replace(lane, capacitor_j=2.9964251964083542e-05))
    d = derive(dataclasses.replace(lane, capacitor_j=6.3e-05))
    assert 0.0 < d.pi < 1e-150
    assert all(math.isfinite(v) for v in dataclasses.astuple(analytic_report(d.beta, d.pi)))


def test_derive_rejects_a_beta_whose_square_overflows(ref_point):
    # beta = lambda*B/(eta*P) is 1.46e6*B/P at the reference point
    assert derive(ref_point(power_w=1.46e6, capacitor_j=1e154)).beta < 1.34e154
    with pytest.raises(ValueError, match="overflows"):
        derive(ref_point(power_w=1.46e6, capacitor_j=1e155))


@given(
    st.floats(min_value=1e-6, max_value=1e-1),
    st.floats(min_value=0.5, max_value=20.0),
)
def test_beta_scales_linearly(capacitor_j, power_w):
    base = dict(efficiency=0.5, noise_w=1e-8, rate_bpcu=0.05, channel_rate=1e5)
    double_b = derive(
        SystemParams(power_w=power_w, capacitor_j=2.0 * capacitor_j, **base)
    ).beta
    half_p = derive(
        SystemParams(power_w=power_w / 2.0, capacitor_j=capacitor_j, **base)
    ).beta
    assert double_b == half_p


def test_pi_monotone_in_b_and_free_of_power(ref_point):
    pis = [derive(ref_point(capacitor_j=b)).pi for b in (1e-4, 2e-4, 4e-4, 1e-3)]
    assert all(a < b for a, b in zip(pis, pis[1:]))
    p1 = derive(ref_point(power_w=1.0)).pi
    p10 = derive(ref_point(power_w=10.0)).pi
    assert p1 == p10
    e_low = derive(ref_point(efficiency=0.3)).pi
    assert e_low == p1


def test_build_params_prefers_direct_rate():
    params, warning = build_params(
        power_w=3.0, capacitor_j=3e-4, channel_rate=1234.5, distance_m=20.0
    )
    assert params.channel_rate == 1234.5
    assert warning is not None and "ignoring distance" in warning


def test_build_params_uses_distance_when_no_rate():
    params, warning = build_params(power_w=3.0, capacitor_j=3e-4, distance_m=20.0)
    assert params.channel_rate == pytest.approx(REF_LAMBDA, rel=1e-12)
    assert warning is None


def test_build_params_requires_some_rate_source():
    with pytest.raises(ValueError):
        build_params(power_w=3.0, capacitor_j=3e-4)
