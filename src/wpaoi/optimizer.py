"""Capacitor sizing: minimize the closed-form average age over B.

The average age is a smooth function of the capacitor size with two opposing
terms: a small capacitor fills fast but rarely survives decoding (the success
probability collapses), a large one is reliable but slow to fill. The
minimizer is found by a coarse logarithmic grid scan followed by golden
section refinement inside the best bracketing triple. The grid stage guards
against the objective not being unimodal, which is not guaranteed.

The search runs many operating points (lanes) in lockstep: each step
evaluates every lane at once, and per-lane masks keep a lane's bracket fixed
once it has converged. Every lane follows exactly the steps, and gets
exactly the result, it would get searched alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import average_aoi
from .model import SystemParams, _beta_pi_at

__all__ = ["OptResult", "optimize_capacitor", "optimize_capacitors"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


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
    n_grid: int = 256,
) -> list[OptResult]:
    """Find the age-minimizing capacitor size of each operating point in ``lanes``.

    A log-spaced scan of ``n_grid`` points over [b_lo, b_hi] locates each
    lane's best grid cell; ties go to the smaller capacitor, and a size whose
    success probability underflows counts as an infinite age. Golden section
    search then shrinks each lane's bracketing triple until its width
    relative to the candidate is below ``tol_rel``.

    If the scan puts a lane's minimum on the first or last grid point the
    true minimizer is (or may be) outside the interval; the grid point is
    returned with ``converged=False`` and ``on_boundary=True``.
    """
    if not 0.0 < b_lo < b_hi < math.inf:
        raise ValueError(f"need 0 < b_lo < b_hi < inf, got ({b_lo}, {b_hi})")
    if not 0.0 < tol_rel < math.inf:
        raise ValueError(f"tol_rel must be positive and finite, got {tol_rel}")
    if n_grid < 3:
        raise ValueError(f"n_grid must be >= 3, got {n_grid}")
    lanes = list(lanes)
    # Every size below lies in [b_lo, b_hi], so none needs checking again.
    at = _beta_pi_at(lanes)
    grid = np.geomspace(b_lo, b_hi, n_grid)
    vals = average_aoi(*at(np.broadcast_to(grid, (len(lanes), n_grid))))
    idx = np.argmin(vals, axis=1)
    interior = (idx > 0) & (idx < n_grid - 1)
    a = grid[np.maximum(idx - 1, 0)]
    c = grid[np.minimum(idx + 1, n_grid - 1)]
    x1 = a + _INVPHI2 * (c - a)
    x2 = a + _INVPHI * (c - a)
    f1 = average_aoi(*at(x1))
    f2 = average_aoi(*at(x2))
    evaluations = np.where(interior, n_grid + 2, n_grid)
    active = interior & ((c - a) > tol_rel * x1)
    while active.any():
        # Left lanes keep [a, x2] and probe a new x1; right lanes keep
        # [x1, c] and probe a new x2.
        left = active & (f1 <= f2)
        right = active & ~left
        c = np.where(left, x2, c)
        a = np.where(right, x1, a)
        x1, x2 = np.where(right, x2, x1), np.where(left, x1, x2)
        f1, f2 = np.where(right, f2, f1), np.where(left, f1, f2)
        x1 = np.where(left, a + _INVPHI2 * (c - a), x1)
        x2 = np.where(right, a + _INVPHI * (c - a), x2)
        f_new = average_aoi(*at(np.where(left, x1, x2)))
        f1 = np.where(left, f_new, f1)
        f2 = np.where(right, f_new, f2)
        evaluations += active
        active &= (c - a) > tol_rel * x1

    take_x1 = f1 <= f2
    b_star = np.where(interior, np.where(take_x1, x1, x2), grid[idx])
    delta_star = np.where(interior, np.where(take_x1, f1, f2), vals[np.arange(len(lanes)), idx])
    return [
        OptResult(
            b_star_j=float(b_star[i]),
            delta_star=float(delta_star[i]),
            evaluations=int(evaluations[i]),
            bracket=(float(a[i]), float(c[i])),
            converged=bool(interior[i]),
            on_boundary=not interior[i],
        )
        for i in range(len(lanes))
    ]


def optimize_capacitor(
    params: SystemParams,
    b_lo: float = 1e-9,
    b_hi: float = 1.0,
    tol_rel: float = 1e-6,
    n_grid: int = 256,
) -> OptResult:
    """Find the capacitor size minimizing the closed-form average age.

    The one-lane case of :func:`optimize_capacitors`; the ``capacitor_j``
    field of ``params`` is not read.
    """
    return optimize_capacitors([params], b_lo, b_hi, tol_rel, n_grid)[0]
