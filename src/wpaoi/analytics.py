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

Functions accept scalars and return floats. They also take numpy arrays,
``recharge_pmf`` over k and the others broadcasting over every argument,
and check their domain on every entry. Of the private kernels, ``_moments``
and ``_age`` also run on the Python floats of the optimizer's golden steps;
the others take arrays only.
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
    ns = n[small]
    out[small] = gammaln(ns + 1.0) - (
        ns * np.log(ns) - ns + 0.5 * np.log(2.0 * np.pi * ns)
    )
    nb = n[~small]
    nn = nb * nb
    out[~small] = np.where(
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

    For x near m the direct expression loses all significant digits; there
    the odd-power series in v = (x - m)/(x + m) is summed over twelve terms
    instead. With |v| < 0.1 no term past the ninth moves the sum, and a term
    that leaves it unchanged is followed only by smaller ones of its sign.
    """
    out = np.empty_like(x)
    near = np.abs(x - m) < 0.1 * (x + m)
    xf = x[~near]
    out[~near] = xlogy(xf, xf / m) + m - xf
    # At small beta no x is near m; twelve passes over nothing cost ~20 us.
    if near.any():
        xn = x[near]
        v = (xn - m) / (xn + m)
        s = (xn - m) * v
        ej = 2.0 * xn * v
        v2 = v * v
        for j in range(1, 13):
            ej *= v2
            s += ej / (2 * j + 1)
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
    As in Loader (2000), k = 1 is exp(-beta) itself. The renewal engine's
    alias table is built from this law.
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
        xp = x[~zero]
        logp = -_stirlerr(xp) - _bd0(xp, float(beta))
        p[~zero] = np.exp(logp) / np.sqrt(2.0 * np.pi * xp)
    p = p.reshape(karr.shape)
    if np.ndim(k) == 0:
        return float(p)
    return p


def _moments(beta):
    """E[T] and E[T^2] of the recharge time, on floats or arrays, unchecked."""
    return 1.0 + beta, 1.0 + 3.0 * beta + beta * beta


def _x_moments(e_t, e_t2, p):
    """E[X] and E[X^2] from the recharge moments, broadcasting, unchecked;
    p is an array (0-d at one point), so a zero p*p divides to inf.

    The second term of E[X^2] is left out where p is one: it is exactly
    zero there wherever it is finite, and 2*E[T]^2 may overflow, which
    would make it inf * 0."""
    q = 1.0 - p
    spread = np.zeros(np.broadcast(e_t, q).shape)
    np.multiply(2.0 * e_t, e_t, out=spread, where=q != 0.0)
    spread *= q
    return e_t / p, e_t2 / p + spread / (p * p)


def _x2_overflows(beta, pi):
    """Where E[X^2] at (beta, pi) overflows a float, elementwise.

    E[X^2] grows as 2*E[T]^2/pi^2 when pi is small, so it overflows at pi
    = 0 and where a subnormal pi makes 1/pi^2 overflow. There no
    interarrival moment is a float, and :func:`~wpaoi.model.derive`
    refuses the point.
    """
    with np.errstate(all="ignore"):
        _, e_x2 = _x_moments(*_moments(np.asarray(beta, dtype=float)), np.asarray(pi, dtype=float))
    return e_x2 == math.inf


def _age(e_t, e_t2, pi):
    """The average age from the recharge moments, on floats or arrays,
    unchecked; a float pi must be positive. E[T^2]/E[T] is halved after the
    division, which rounds alike wherever 2*E[T] is finite and keeps the
    term inf, not inf/inf, where only E[T^2] overflows."""
    return e_t2 / e_t * 0.5 + e_t * (1.0 - pi) / pi + 0.5


def recharge_moments(beta):
    """First and second moments of the recharge time T.

    Returns (E[T], E[T^2]) = (1 + beta, 1 + 3*beta + beta**2); past beta
    ~1.3e154 E[T^2] overflows to inf. An infinite beta, whose age is
    inf/inf, raises ValueError, as does a negative one.
    """
    b = np.asarray(beta, dtype=float)
    if not ((b >= 0.0) & (b < math.inf)).all():
        raise ValueError(f"beta must be non-negative and finite, got {beta}")
    with np.errstate(over="ignore"):
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
    # A moment that overflows is inf, also where pi*pi underflows to zero.
    with np.errstate(over="ignore", divide="ignore"):
        e_x, e_x2 = _x_moments(e_t, e_t2, np.asarray(pi, dtype=float))
    if np.ndim(beta) == 0 and np.ndim(pi) == 0:
        return float(e_x), float(e_x2)
    return e_x, e_x2


def mean_peak_area(e_x, e_x2):
    """Mean area under the age staircase per delivered update.

    With slotted ages the area of one interarrival of length X is the
    triangular sum X*(X+1)/2, whose expectation is (E[X^2] + E[X]) / 2.
    Broadcasts over arrays.
    """
    x, x2 = np.asarray(e_x, dtype=float), np.asarray(e_x2, dtype=float)
    if not (x >= 1.0).all():
        raise ValueError(f"e_x must be >= 1, got {e_x}")
    if not (x2 >= x).all():
        raise ValueError(f"e_x2 must be >= e_x, got e_x2={e_x2}, e_x={e_x}")
    with np.errstate(over="ignore"):
        area = 0.5 * (x2 + x)
    return float(area) if area.ndim == 0 else area


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


def aoi_limit_ratio(theta, channel_rate, efficiency):
    """Limit of the average age when B and P grow with a fixed ratio theta = B/P.

    The success probability tends to 1 and beta tends to
    c = channel_rate * theta / efficiency, leaving
    ``(1 + 3c + c**2) / (2 * (1 + c)) + 1/2``. Broadcasts over arrays.
    """
    t, lam, eta = (np.asarray(x, dtype=float) for x in (theta, channel_rate, efficiency))
    if not ((t >= 0.0) & (t < math.inf)).all():
        raise ValueError(f"theta must be non-negative and finite, got {theta}")
    if not ((lam > 0.0) & (lam < math.inf)).all():
        raise ValueError(f"channel_rate must be positive and finite, got {channel_rate}")
    if not ((eta > 0.0) & (eta <= 1.0)).all():
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    with np.errstate(over="ignore"):  # an infinite c is refused as beta
        c = lam * t / eta
    return average_aoi(c, 1.0)


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
