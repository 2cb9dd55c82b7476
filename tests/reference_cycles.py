"""Reference cycle arrays of an event log, for the tests.

The package reduces an event log to running sums chunk by chunk
(``wpaoi.simulator._reduce``) and never forms these arrays. The tests
build them here, the plain way, to check the reduction and the engines
against: one array each of the recharge times, the interarrival times and
the attempts per decoded update.
"""

import numpy as np

from wpaoi.simulator import EventLog, _checked, _exact_sum, _square_sum


def extract_cycles(log: EventLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose an event log into cycle arrays: recharge durations t,
    update interarrival times x, per-update attempt counts m.

    Cycles are anchored at a virtual origin before the first slot, so the
    first recharge interval is the slot of the first fill and the first
    interarrival spans from the origin to the first decoded update.

    Returns
    -------
    (t_list, x_list, m_list) : int64 arrays
        t_list[i] is the number of slots between fill i-1 and fill i.
        x_list[k] is the number of slots between decoded update k-1 and k,
        measured between their fill slots. m_list[k] is the number of
        attempts that update k consumed. For every k, x_list[k] equals the
        sum of its m_list[k] constituent entries of t_list exactly.

    Raises
    ------
    ValueError
        If the log is structurally inconsistent.
    """
    fills, success = _checked(log)
    t_list = np.diff(fills, prepend=np.int64(0))
    if np.any(t_list[1:] <= 0):
        raise ValueError("fill slots must be strictly increasing")
    attempt_idx = np.flatnonzero(success)
    x_list = np.diff(fills[attempt_idx], prepend=np.int64(0))
    m_list = np.diff(attempt_idx + 1, prepend=np.int64(0))
    return t_list, x_list, m_list


def _area(x: np.ndarray) -> int:
    """Exact sum of X*(X+1)/2 over int64 X >= 1, the slot ages of whole cycles."""
    return (_square_sum(x) + _exact_sum(x, int(x.max()))) // 2


def empirical_aoi(x_intervals) -> float:
    """Time-average age over whole interarrival cycles.

    An interarrival of X slots contributes ages 1, 2, ..., X, an area of
    X*(X+1)/2, so the average is the ratio of total area to total slots.
    Both totals are exact integers however long the run.
    """
    x = np.asarray(x_intervals)
    if x.size == 0:
        raise ValueError("empirical_aoi needs at least one interarrival sample")
    if x.dtype.kind not in "iu":
        if not np.all(np.equal(np.mod(x, 1), 0)):
            raise ValueError("interarrival samples must be integers")
    x = x.astype(np.int64)
    if x.min() < 1:
        raise ValueError("interarrival samples must be >= 1")
    return float(_area(x)) / float(_exact_sum(x, int(x.max())))
