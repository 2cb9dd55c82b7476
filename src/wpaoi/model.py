"""Physical scenario parameters and the statistics derived from them.

Everything downstream of this module is driven by two dimensionless numbers
computed here from the physical scenario:

* ``beta``, the mean number of extra slots needed to fill the capacitor, and
* ``pi``, the per-attempt decode success probability under Rayleigh fading.

All internal computation uses linear SI units (watts and joules). dBm appears
only at interface boundaries via :func:`dbm_to_watts`. The slot duration is
normalized to one time unit, so energy in joules and power in watts coincide
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .analytics import _x2_overflows

__all__ = [
    "SystemParams",
    "DerivedParams",
    "dbm_to_watts",
    "channel_rate_from_distance",
    "beta_pi",
    "derive",
    "build_params",
]


def dbm_to_watts(x_dbm: float) -> float:
    """Convert a power level in dBm to watts; inf beyond the float range.
    NaN raises ValueError."""
    if math.isnan(x_dbm):
        raise ValueError(f"power level in dBm must be a number, got {x_dbm}")
    try:
        return 10.0 ** ((x_dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


_C0 = 1e3  # channel gain rate at 1 m of the distance power law


def channel_rate_from_distance(d_m: float, alpha: float) -> float:
    """Exponential rate of the channel power gain from a distance power law.

    The link budget maps distance to the rate lambda of the exponentially
    distributed channel power gains as ``lambda = c0 * d**alpha``, c0 = 1e3.
    Larger lambda means a weaker channel (the mean gain is 1/lambda).

    Parameters
    ----------
    d_m : float
        Distance in meters, > 0.
    alpha : float
        Path-loss exponent, > 0.

    Returns
    -------
    float
        Rate parameter lambda of the channel power gain distribution.
    """
    if not d_m > 0.0:
        raise ValueError(f"distance must be positive, got {d_m}")
    if not alpha > 0.0:
        raise ValueError(f"path-loss exponent must be positive, got {alpha}")
    try:
        rate = _C0 * d_m**alpha
    except OverflowError:
        rate = math.inf
    if not 0.0 < rate < math.inf:
        bound = "underflows to zero" if rate == 0.0 else "overflows"
        raise ValueError(f"d_m**alpha {bound} at distance {d_m} and exponent {alpha}")
    return rate


@dataclass(frozen=True)
class SystemParams:
    """Physical description of one operating point of the link.

    Attributes
    ----------
    power_w : float
        Transmit power P of the energy source in watts.
    efficiency : float
        RF-to-DC conversion efficiency eta, in (0, 1].
    noise_w : float
        Receiver noise variance sigma^2 in watts.
    rate_bpcu : float
        Spectral efficiency r in bits per channel use. The value 0 is
        accepted as a degenerate boundary (the decode threshold vanishes
        and every transmission succeeds); it is useful for exact tests.
    capacitor_j : float
        Capacitor size B in joules. A transmission happens with full
        discharge whenever the stored energy reaches B.
    channel_rate : float
        Rate lambda of the exponentially distributed power gains of both
        the energy link and the information link.
    """

    power_w: float
    efficiency: float
    noise_w: float
    rate_bpcu: float
    capacitor_j: float
    channel_rate: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.power_w <= 0.0:
            raise ValueError(f"power_w must be positive, got {self.power_w}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.noise_w <= 0.0:
            raise ValueError(f"noise_w must be positive, got {self.noise_w}")
        if self.rate_bpcu < 0.0:
            raise ValueError(f"rate_bpcu must be non-negative, got {self.rate_bpcu}")
        if self.capacitor_j <= 0.0:
            raise ValueError(f"capacitor_j must be positive, got {self.capacitor_j}")
        if self.channel_rate <= 0.0:
            raise ValueError(f"channel_rate must be positive, got {self.channel_rate}")
        if self.efficiency * self.power_w == 0.0:
            raise ValueError(f"efficiency * power_w underflows to zero at power_w {self.power_w}")


@dataclass(frozen=True)
class DerivedParams:
    """The two sufficient statistics of the model.

    beta = lambda * B / (eta * P) is the mean number of extra slots needed to
    charge the capacitor. pi = exp(-lambda * (2**r - 1) * sigma^2 / B) is the
    probability that a single transmission attempt is decoded.
    """

    beta: float
    pi: float

    def __post_init__(self) -> None:
        if not self.beta >= 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if not 0.0 < self.pi <= 1.0:
            raise ValueError(f"pi must be in (0, 1], got {self.pi}")


def _snr_threshold(rate_bpcu: float) -> float:
    """2**r - 1, the SNR that decodes at rate r; inf where 2**r overflows."""
    return 2.0**rate_bpcu - 1.0 if rate_bpcu < 1024.0 else math.inf


def _coefficients(p: SystemParams) -> tuple[float, float, float]:
    """lambda, eta*P and lambda*(2**r - 1)*sigma^2: beta is lambda*B/(eta*P)
    and pi is exp(-lambda*(2**r - 1)*sigma^2/B); the third is inf where 2**r is."""
    lam = p.channel_rate
    return lam, p.efficiency * p.power_w, lam * _snr_threshold(p.rate_bpcu) * p.noise_w


def _beta(lam, eta_p, b):
    """beta from the first two coefficients, on floats or broadcasting arrays."""
    return lam * b / eta_p


def _pi(k, b):
    """pi from the third coefficient, element by element with ``math.exp``:
    a float for floats, else an array of the broadcast shape."""
    exponent = k / b
    if isinstance(exponent, float):
        return math.exp(-exponent)
    return np.array([math.exp(-e) for e in exponent.ravel().tolist()]).reshape(exponent.shape)


def beta_pi(params, capacitor_j):
    """beta and pi of an operating point at each of the given capacitor sizes.

    ``params`` is one SystemParams, whose own ``capacitor_j`` is not read, or
    a sequence of them, one per lane; lane i then goes with
    ``capacitor_j[i]`` and any further axes of ``capacitor_j`` broadcast.
    pi is computed element by element with ``math.exp``, so an array entry
    equals the scalar evaluation bit for bit; it is 0.0 where it underflows.

    Returns Python floats for one point at a 0-d size, arrays otherwise.
    """
    b = np.asarray(capacitor_j, dtype=float)
    if not ((b > 0.0) & (b < math.inf)).all():
        raise ValueError(f"capacitor sizes must be positive and finite, got {capacitor_j}")
    one = isinstance(params, SystemParams)
    # one point's coefficients, or lane i's for b[i]; further axes of b broadcast
    lanes, shape = ([params], ()) if one else (params, (-1, *(1,) * (b.ndim - 1)))
    lam, eta_p, k = np.array([_coefficients(p) for p in lanes]).reshape(-1, 3).T.reshape(3, *shape)
    with np.errstate(over="ignore"):  # beta and the exponent may overflow to inf
        beta, pi = _beta(lam, eta_p, b), _pi(k, b)
    if one and b.ndim == 0:
        return float(beta), float(pi)
    return beta, pi


def _refuse(beta, pi, capacitor_j) -> None:
    """Raise derive's ValueError at the first point where pi underflows to
    zero, E[T^2] overflows or E[X^2] overflows. Takes floats or 1-d arrays;
    the message is that of the first check the first refused entry fails."""
    beta, pi, capacitor_j = np.atleast_1d(beta, pi, capacitor_j)
    with np.errstate(over="ignore"):
        no_pi, t2_over, x2_over = pi <= 0.0, beta * beta == math.inf, _x2_overflows(beta, pi)
    refused = no_pi | t2_over | x2_over
    if not refused.any():
        return
    i = int(refused.argmax())
    if no_pi[i]:
        raise ValueError(f"success probability underflows to zero at capacitor_j {float(capacitor_j[i])!r}")
    if t2_over[i]:
        raise ValueError(f"E[T^2] overflows a float at beta {float(beta[i])!r}")
    raise ValueError(f"E[X^2] overflows a float at pi {float(pi[i])!r}")


def derive(params: SystemParams) -> DerivedParams:
    """Compute (beta, pi) for a physical operating point.

    Raises ValueError if the success probability underflows to zero, where
    the decode threshold is astronomically unlikely to be met, if beta is so
    large that E[T^2] overflows, or if pi is so small that E[X^2] does: no
    downstream quantity is meaningful. The sweeps refuse the same points.
    """
    beta, pi = beta_pi(params, params.capacitor_j)
    _refuse(beta, pi, params.capacitor_j)
    return DerivedParams(beta=beta, pi=pi)


def build_params(
    power_w: float,
    capacitor_j: float,
    efficiency: float = 0.5,
    noise_w: float = 1e-8,
    rate_bpcu: float = 0.05,
    distance_m: float | None = None,
    alpha: float = 2.2,
    channel_rate: float | None = None,
) -> tuple[SystemParams, str | None]:
    """Assemble a SystemParams, resolving the channel rate.

    The channel rate may be given directly via ``channel_rate`` or through the
    distance power law via ``distance_m`` (with ``alpha``). If both
    are supplied the direct rate wins and a warning string is returned as the
    second element; otherwise the second element is None.
    """
    warning = None
    if channel_rate is not None:
        if distance_m is not None:
            warning = (
                "both channel_rate and distance supplied; using channel_rate "
                f"{channel_rate!r} and ignoring distance {distance_m!r}"
            )
        lam = channel_rate
    elif distance_m is not None:
        lam = channel_rate_from_distance(distance_m, alpha)
    else:
        raise ValueError("one of channel_rate or distance_m is required")
    params = SystemParams(
        power_w=power_w,
        efficiency=efficiency,
        noise_w=noise_w,
        rate_bpcu=rate_bpcu,
        capacitor_j=capacitor_j,
        channel_rate=lam,
    )
    return params, warning
