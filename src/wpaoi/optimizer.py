"""Capacitor sizing: minimize the closed-form average age over B.

The average age is a smooth function of the capacitor size with two opposing
terms: a small capacitor fills fast but rarely survives decoding (the success
probability collapses), a large one is reliable but slow to fill. The
minimizer is found by a coarse logarithmic grid scan followed by golden
section refinement inside the best bracketing triple (Kiefer 1953). The grid
stage guards against the objective not being unimodal, which is not
guaranteed.

The grid stage scans every operating point (lane) at once. pi depends on the
lane only through lambda*(2**r - 1)*sigma^2, which the lanes of a power sweep
share, so it is computed once per distinct value. The golden steps then run
lane by lane on Python floats, the one scalar use of ``model._pi``, through
the kernels of :func:`~wpaoi.model.beta_pi` and
:func:`~wpaoi.analytics.average_aoi`, so each step equals theirs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import _age, _moments
from .model import SystemParams, _beta, _coefficients, _pi

__all__ = ["OptResult", "optimize_capacitor", "optimize_capacitors"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_N_GRID = 256  # points of the log-spaced scan over [b_lo, b_hi]


@dataclass(frozen=True)
class OptResult:
    """Outcome of a capacitor size search.

    ``bracket`` is the final interval known to contain ``b_star_j``. When the
    coarse scan puts the minimum on an edge of the search interval the search
    does not refine; ``converged`` is False and ``on_boundary`` is True.
    """

    b_star_j: float
    delta_star: float
    evaluations: int
    bracket: tuple[float, float]
    converged: bool
    on_boundary: bool = False


def optimize_capacitors(
    lanes,
    b_lo: float = 1e-9,
    b_hi: float = 1.0,
    tol_rel: float = 1e-6,
) -> list[OptResult]:
    """Find the age-minimizing capacitor size of each operating point in ``lanes``.

    A fixed scan of 256 log-spaced points over [b_lo, b_hi] locates each
    lane's best grid cell; ties go to the smaller capacitor. A size whose
    success probability underflows counts as an infinite age, and so does
    one whose beta overflows, where the age is NaN. Golden section search
    then shrinks each lane's bracketing triple until its width relative to
    the candidate is below ``tol_rel``, or until a step no longer narrows
    it, which a ``tol_rel`` below float resolution reaches first.

    If the scan puts a lane's minimum on the first or last grid point the
    true minimizer is (or may be) outside the interval; the grid point is
    returned with ``converged=False`` and ``on_boundary=True``. A lane with
    no finite age on the grid raises ValueError.
    """
    if not 0.0 < b_lo < b_hi < math.inf:
        raise ValueError(f"need 0 < b_lo < b_hi < inf, got ({b_lo}, {b_hi})")
    if not 0.0 < tol_rel < math.inf:
        raise ValueError(f"tol_rel must be positive and finite, got {tol_rel}")
    coefficients = [_coefficients(p) for p in lanes]
    lam, eta_p, k = np.array(coefficients).reshape(-1, 3).T[:, :, None]
    k_rows, row = np.unique(k, return_inverse=True)
    # Every size below lies in [b_lo, b_hi], so the kernels take them
    # unchecked. geomspace overflows inside near the top of the float range,
    # a pi that underflows gives an infinite age, and a beta or pi exponent
    # that overflows an infinite or NaN one.
    with np.errstate(all="ignore"):
        grid = np.geomspace(b_lo, b_hi, _N_GRID)
        vals = _age(*_moments(_beta(lam, eta_p, grid)), _pi(k_rows[:, None], grid)[row.ravel()])
    # A NaN age, inf/inf where beta overflows, ranks as an infinite one.
    vals[np.isnan(vals)] = math.inf
    idx = np.argmin(vals, axis=1).tolist()
    grid_min = vals[np.arange(len(idx)), idx].tolist()
    for p, v in zip(lanes, grid_min):
        if not math.isfinite(v):
            where = f"power_w {p.power_w!r}, rate_bpcu {p.rate_bpcu!r}"
            raise ValueError(f"no capacitor size in [{b_lo!r}, {b_hi!r}] gives a finite age at {where}")
    grid = grid.tolist()
    return [_refine(*lane, grid, i, v, tol_rel) for lane, i, v in zip(coefficients, idx, grid_min)]


def _refine(lam, eta_p, k, grid, i, grid_min, tol_rel) -> OptResult:
    """Golden section search of one lane inside the grid cells around grid[i]."""
    n_grid = len(grid)
    a, c = grid[max(i - 1, 0)], grid[min(i + 1, n_grid - 1)]
    if not 0 < i < n_grid - 1:
        return OptResult(grid[i], grid_min, n_grid, (a, c), converged=False, on_boundary=True)

    def age(b):
        e_t, e_t2 = _moments(_beta(lam, eta_p, b))
        pi = _pi(k, b)
        v = _age(e_t, e_t2, pi) if pi > 0.0 else math.inf
        # inf where pi underflows, as on the grid, or beta overflows (inf/inf)
        return v if v == v else math.inf

    x1 = a + _INVPHI2 * (c - a)
    x2 = a + _INVPHI * (c - a)
    f1, f2 = age(x1), age(x2)
    evaluations = n_grid + 2
    while (c - a) > tol_rel * x1:
        width = c - a
        if f1 <= f2:
            # keep [a, x2] and probe a new x1
            c, x2, f2 = x2, x1, f1
            x1 = a + _INVPHI2 * (c - a)
            f1 = age(x1)
        else:
            # keep [x1, c] and probe a new x2
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (c - a)
            f2 = age(x2)
        evaluations += 1
        # Below float resolution a step may leave the bracket as it was.
        if not c - a < width:
            break
    b_star, delta_star = (x1, f1) if f1 <= f2 else (x2, f2)
    return OptResult(b_star, delta_star, evaluations, (a, c), converged=True)


def optimize_capacitor(
    params: SystemParams,
    b_lo: float = 1e-9,
    b_hi: float = 1.0,
    tol_rel: float = 1e-6,
) -> OptResult:
    """Find the capacitor size minimizing the closed-form average age.

    The one-lane case of :func:`optimize_capacitors`; the ``capacitor_j``
    field of ``params`` is not read.
    """
    return optimize_capacitors([params], b_lo, b_hi, tol_rel)[0]
