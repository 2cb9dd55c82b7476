"""Reference cycle arrays and summaries of an event log, for the tests.

The package reduces a run to running sums chunk by chunk
(``wpaoi.simulator._reduce``) and never forms these arrays. The tests
build them here, the plain way, to check the reduction and the engines
against: one array each of the recharge times, the interarrival times and
the attempts per decoded update. ``summarize`` feeds a given log, once its
shape checks out, through the package's reduction, and ``trace_events``
reads the log of a run back from the trace file that ``write_trace`` wrote.
``interarrival_pmf`` gives the exact law those interarrival times follow.
"""

import csv

import numpy as np

from wpaoi import recharge_pmf
from wpaoi.simulator import EventLog, SimStats, _exact_sum, _reduce_log, _square_sum


def _checked(log: EventLog) -> tuple[np.ndarray, np.ndarray]:
    """The fill slots and decode outcomes of a log once its shape and range
    check out; the order of the fills is checked where they are differenced."""
    fills = np.asarray(log.fill_slots, dtype=np.int64)
    success = np.asarray(log.success, dtype=bool)
    if fills.ndim != 1 or success.ndim != 1:
        raise ValueError("event log arrays must be one-dimensional")
    if success.size > fills.size:
        raise ValueError("more attempts than recharges in event log")
    if fills.size:
        if fills[0] < 1 or int(fills[-1]) > log.horizon_slots:
            raise ValueError("fill slots outside the simulated horizon")
    return fills, success


def summarize(log: EventLog) -> SimStats:
    """The :class:`~wpaoi.simulator.SimStats` of a given event log, from the
    reduction behind ``simulate`` and ``write_trace``.

    Raises
    ------
    NoSuccessError
        If fewer than two updates are decoded (no complete cycle fits in the
        window).
    ValueError
        If the log is structurally inconsistent.
    """
    fills, success = _checked(log)
    return _reduce_log(EventLog(fills, success, log.horizon_slots))[0]


def trace_events(path, capacitor_j: float, horizon: int) -> EventLog:
    """The event log of a trace file: the slots whose energy reaches
    ``capacitor_j`` (the file holds each float's repr, which reads back
    exactly), and the decode outcome of every transmit slot."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        assert next(rows) == ["slot", "harvest_j", "energy_j", "transmitted", "success", "age"]
        fills, success = [], []
        for slot, _, energy, transmitted, decoded, _ in rows:
            if transmitted == "1":
                success.append(decoded == "1")
            if float(energy) == capacitor_j:
                fills.append(int(slot))
    return EventLog(np.array(fills, dtype=np.int64), np.array(success, dtype=bool), horizon)


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
    return (_square_sum(x) + _exact_sum(x)) // 2


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
    return float(_area(x)) / float(_exact_sum(x))


def interarrival_pmf(beta: float, pi: float, n_max: int) -> np.ndarray:
    """P(X = n) for n = 1..n_max, X the slots from one decoded update to the
    next.

    X is the sum of M i.i.d. recharge times T, M ~ Geometric(pi) the
    attempts per update: the first attempt decodes with probability pi, and
    otherwise X starts over after it. So its law follows from the recharge
    law by the renewal recursion (Panjer 1981, for compound laws)
    f_X(n) = pi*f_T(n) + (1 - pi)*sum_{k<n} f_T(k)*f_X(n - k).
    """
    f_t = recharge_pmf(beta, np.arange(1, n_max + 1))
    f_x = np.zeros(n_max)
    for j in range(n_max):
        f_x[j] = pi * f_t[j] + (1.0 - pi) * float(f_t[:j] @ f_x[:j][::-1])
    return f_x
