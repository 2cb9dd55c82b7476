import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import REF_LAMBDA
from wpaoi import (
    SystemParams,
    beta_pi,
    build_params,
    channel_rate_from_distance,
    dbm_to_watts,
    derive,
    watts_to_dbm,
)


def test_dbm_to_watts_reference_points():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(-50.0) == pytest.approx(1e-8, rel=1e-12)


@given(st.floats(min_value=-120.0, max_value=90.0))
def test_dbm_round_trip(x_dbm):
    assert watts_to_dbm(dbm_to_watts(x_dbm)) == pytest.approx(x_dbm, rel=1e-12, abs=1e-10)


def test_watts_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError):
        watts_to_dbm(-1e-3)


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
    with pytest.raises(ValueError):
        channel_rate_from_distance(10.0, 2.2, c0=0.0)


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
            d = derive(dataclasses.replace(params, capacitor_j=float(b)))
            assert (beta[i, j], pi[i, j]) == (d.beta, d.pi)
    with pytest.raises(ValueError):
        beta_pi(lanes, np.full(len(lanes), math.nan))


def test_derive_rejects_underflowing_success_probability(ref_point):
    with pytest.raises(ValueError):
        derive(ref_point(capacitor_j=1e-12))


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
