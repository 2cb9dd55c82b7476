"""Closed-form statistics of the charge-and-transmit link.

The model has two driving quantities, computed by :mod:`wpaoi.model`:

* ``beta``: mean number of extra slots to fill the capacitor. The recharge
  time T satisfies T - 1 ~ Poisson(beta).
* ``pi``: per-attempt decode success probability. The number of attempts per
  delivered update is Geometric(pi), so the update interarrival time X is a
  geometric sum of independent recharge times.

From these everything else follows in closed form: the recharge-time PMF and
moments, the interarrival moments, the mean area under the age staircase per
update, the average age of information, and its two asymptotic limits.

Functions accept scalars and return floats; the moment and age functions also
broadcast over numpy arrays, which the capacitor search relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

__all__ = [
    "AnalyticReport",
    "recharge_pmf",
    "recharge_moments",
    "interarrival_moments",
    "mean_peak_area",
    "average_aoi",
    "aoi_limit_fixed_B",
    "aoi_limit_ratio",
    "analytic_report",
]

# Coefficients of the asymptotic expansion of the Stirling series remainder.
_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) - (n log n - n + 0.5 log(2 pi n)) for n >= 1, elementwise.

    Small n uses the exact log-gamma difference; larger n uses truncations of
    the Stirling series chosen so the truncation error stays below double
    rounding. Keeping this remainder separate (instead of evaluating the log
    PMF as one long expression) is what preserves 1e-15 level accuracy in the
    tails for shape parameters up to 1e6.
    """
    out = np.empty_like(n)
    small = n <= 15.0
    if small.any():
        ns = n[small]
        out[small] = gammaln(ns + 1.0) - (
            ns * np.log(ns) - ns + 0.5 * np.log(2.0 * np.pi * ns)
        )
    big = ~small
    if big.any():
        nb = n[big]
        nn = nb * nb
        out[big] = np.where(
            nb > 500.0,
            (_S0 - _S1 / nn) / nb,
            np.where(
                nb > 80.0,
                (_S0 - (_S1 - _S2 / nn) / nn) / nb,
                np.where(
                    nb > 35.0,
                    (_S0 - (_S1 - (_S2 - _S3 / nn) / nn) / nn) / nb,
                    (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / nb,
                ),
            ),
        )
    return out


def _bd0(x: np.ndarray, m: float) -> np.ndarray:
    """Deviance term x*log(x/m) + m - x, elementwise, without cancellation.

    For x near m the direct expression loses all significant digits; there a
    rapidly convergent odd-power series in (x - m)/(x + m) is summed to
    machine precision instead.
    """
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


def recharge_pmf(beta: float, k):
    """Probability that the capacitor takes exactly k slots to recharge.

    The recharge time T counts slots between consecutive fills; T - 1 follows
    a Poisson(beta) law, so ``P(T = k) = beta**(k-1) * exp(-beta) / (k-1)!``.

    Parameters
    ----------
    beta : float
        Mean number of extra charging slots, >= 0 and finite.
    k : int or array of int
        Recharge duration in slots, >= 1.

    Returns
    -------
    float or ndarray
        The probability, finite and accurate for beta up to at least 1e6.

    Notes
    -----
    Evaluated in log space through the saddlepoint decomposition
    ``log pmf = -stirlerr(k-1) - bd0(k-1, beta) - 0.5*log(2*pi*(k-1))``
    rather than the plain ``(k-1)*log(beta) - beta - lgamma(k)`` form. The
    plain form loses about ``beta * eps`` of absolute accuracy to rounding in
    the subtraction of two huge terms, which is visible in normalization sums
    already at beta around 1e3. The decomposed form keeps every term small.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be non-negative and finite, got {beta}")
    karr = np.asarray(k)
    if karr.dtype.kind not in "iu":
        if not np.all(np.equal(np.mod(karr, 1), 0)):
            raise ValueError("k must be integer valued")
    if np.any(karr < 1):
        raise ValueError("k must be >= 1")
    x = karr.astype(float).ravel() - 1.0
    p = np.empty_like(x)
    zero = x == 0.0
    if beta == 0.0:
        p = np.where(zero, 1.0, 0.0)
    else:
        p[zero] = math.exp(-beta)
        pos = ~zero
        if pos.any():
            xp = x[pos]
            logp = -_stirlerr(xp) - _bd0(xp, float(beta))
            p[pos] = np.exp(logp) / np.sqrt(2.0 * np.pi * xp)
    p = p.reshape(karr.shape)
    if np.ndim(k) == 0:
        return float(p)
    return p


def _moments(beta):
    """E[T] and E[T^2] of the recharge time, on floats or arrays, unchecked."""
    return 1.0 + beta, 1.0 + 3.0 * beta + beta * beta


def _x_moments(e_t, e_t2, p):
    """E[X] and E[X^2] from the recharge moments, on floats or arrays,
    unchecked; the square of a float p must not underflow to zero.

    The second term of E[X^2] is left out where p is one: it is exactly
    zero there wherever it is finite, and 2*E[T]^2 may overflow, which
    would make it inf * 0."""
    q = 1.0 - p
    if isinstance(p, float):
        spread = 2.0 * e_t * e_t * q if q else 0.0
    else:
        spread = np.zeros(np.broadcast(e_t, q).shape)
        np.multiply(2.0 * e_t, e_t, out=spread, where=q != 0.0)
        spread *= q
    return e_t / p, e_t2 / p + spread / (p * p)


def _x2_overflows(beta, pi):
    """Where E[X^2] at (beta, pi) overflows a float, on floats or arrays.

    E[X^2] grows as 2*E[T]^2/pi^2 when pi is small, so it overflows at pi
    = 0 and where a subnormal pi makes 1/pi^2 overflow. There no
    interarrival moment is a float, and :func:`~wpaoi.model.derive`
    refuses the point.
    """
    if isinstance(pi, float):
        # Python floats overflow to inf without a warning, and a pi whose
        # square underflows to zero overflows E[X^2].
        return pi * pi == 0.0 or _x_moments(*_moments(float(beta)), float(pi))[1] == math.inf
    with np.errstate(all="ignore"):
        _, e_x2 = _x_moments(*_moments(np.asarray(beta, dtype=float)), np.asarray(pi, dtype=float))
    return e_x2 == math.inf


def _age(e_t, e_t2, pi):
    """The average age from the recharge moments, on floats or arrays,
    unchecked; a float pi must be positive."""
    return e_t2 / (2.0 * e_t) + e_t * (1.0 - pi) / pi + 0.5


def recharge_moments(beta):
    """First and second moments of the recharge time T.

    Returns (E[T], E[T^2]) = (1 + beta, 1 + 3*beta + beta**2). An infinite
    beta, whose age is inf/inf, raises ValueError, as does a negative one.
    """
    b = np.asarray(beta, dtype=float)
    if not ((b >= 0.0) & (b < math.inf)).all():
        raise ValueError(f"beta must be non-negative and finite, got {beta}")
    e_t, e_t2 = _moments(b)
    if np.ndim(beta) == 0:
        return float(e_t), float(e_t2)
    return e_t, e_t2


def _check_pi(pi) -> None:
    p = np.asarray(pi, dtype=float)
    if not ((p > 0.0) & (p <= 1.0)).all():
        raise ValueError(f"pi must be in (0, 1], got {pi}")


def interarrival_moments(beta, pi):
    """First and second moments of the update interarrival time X.

    X is the sum of a Geometric(pi) number of independent recharge times, so

    * E[X]   = E[T] / pi
    * E[X^2] = E[T^2] / pi + 2 * E[T]**2 * (1 - pi) / pi**2
    """
    e_t, e_t2 = recharge_moments(beta)
    _check_pi(pi)
    e_x, e_x2 = _x_moments(e_t, e_t2, np.asarray(pi, dtype=float))
    if np.ndim(beta) == 0 and np.ndim(pi) == 0:
        return float(e_x), float(e_x2)
    return e_x, e_x2


def mean_peak_area(e_x: float, e_x2: float) -> float:
    """Mean area under the age staircase per delivered update.

    With slotted ages the area of one interarrival of length X is the
    triangular sum X*(X+1)/2, whose expectation is (E[X^2] + E[X]) / 2.
    """
    if not e_x >= 1.0:
        raise ValueError(f"e_x must be >= 1, got {e_x}")
    if not e_x2 >= e_x:
        raise ValueError(f"e_x2 must be >= e_x, got e_x2={e_x2}, e_x={e_x}")
    return 0.5 * (e_x2 + e_x)


def average_aoi(beta, pi):
    """Long-run time-average age of information.

    Closed form::

        E[T^2] / (2 * E[T]) + E[T] * (1 - pi) / pi + 1/2

    with E[T] = 1 + beta and E[T^2] = 1 + 3*beta + beta**2. It equals the
    renewal-reward ratio E[Q] / E[X] of the mean staircase area to the mean
    interarrival time. pi = 0, a success probability that underflowed, gives
    infinity, the limit of the age as pi falls to zero. Broadcasts over
    arrays.
    """
    e_t, e_t2 = recharge_moments(beta)
    p = np.asarray(pi, dtype=float)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError(f"pi must be in [0, 1], got {pi}")
    # (1 - pi) / pi is inf at pi = 0 and may overflow to inf at a denormal
    # pi; inf is the intended value there.
    with np.errstate(divide="ignore", over="ignore"):
        delta = _age(e_t, e_t2, p)
    if np.ndim(beta) == 0 and np.ndim(pi) == 0:
        return float(delta)
    return delta


def aoi_limit_fixed_B(pi: float) -> float:
    """Limit of the average age as transmit power grows with B held fixed.

    beta -> 0 while pi stays put, leaving 1/pi.
    """
    _check_pi(pi)
    return 1.0 / pi


def aoi_limit_ratio(theta: float, channel_rate: float, efficiency: float) -> float:
    """Limit of the average age when B and P grow with a fixed ratio theta = B/P.

    The success probability tends to 1 and beta tends to
    c = channel_rate * theta / efficiency, leaving
    ``(1 + 3c + c**2) / (2 * (1 + c)) + 1/2``.
    """
    if not theta >= 0.0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    if not channel_rate > 0.0:
        raise ValueError(f"channel_rate must be positive, got {channel_rate}")
    if not efficiency > 0.0:
        raise ValueError(f"efficiency must be positive, got {efficiency}")
    return average_aoi(channel_rate * theta / efficiency, 1.0)


@dataclass(frozen=True)
class AnalyticReport:
    """All closed-form quantities at one operating point."""

    e_t: float
    e_t2: float
    e_x: float
    e_x2: float
    e_q: float
    delta: float
    beta: float
    pi: float


def analytic_report(beta: float, pi: float) -> AnalyticReport:
    """Evaluate every closed form at (beta, pi) and bundle the results."""
    e_t, e_t2 = recharge_moments(beta)
    e_x, e_x2 = interarrival_moments(beta, pi)
    e_q = mean_peak_area(e_x, e_x2)
    delta = average_aoi(beta, pi)
    return AnalyticReport(
        e_t=e_t, e_t2=e_t2, e_x=e_x, e_x2=e_x2, e_q=e_q, delta=delta, beta=beta, pi=pi
    )
