"""Monte Carlo simulation of the charge-and-transmit link.

The simulated system: each slot the node harvests energy from a Rayleigh
fading power link into a capacitor of size B. When the capacitor fills, the
node transmits a fresh status update during the next slot with a full
discharge while harvesting continues into the emptied store. The update is
decoded when the information channel draw clears the spectral-efficiency
threshold; a decoded update resets the receiver-side age to one, otherwise
the age keeps growing.

Three execution paths sample this system:

* :func:`sample_events`, the default engine behind :func:`simulate`, draws
  one recharge time per update. The harvest is a Poisson process in energy
  and the overshoot past B is discarded, so every recharge time is exactly
  ``1 + Poisson(beta)``. Its cost grows with the number of fills, not slots.
* :func:`sample_slot_events` runs the slot dynamics themselves, a block at a
  time, and finds fills by binary search in cumulative harvest sums. It is
  the reference for the renewal claim above and backs the ``--trace`` path.
* :func:`trace_rows`, a plain per-slot loop, also exposes the harvested
  energy, capacitor level, transmit flag, decode outcome and age of every
  slot. It is the debugging trace writer.

The slot paths consume the same two random substreams in the same order (one
draw from the harvest stream per slot, one draw from the decode stream per
transmit slot), so they agree bit for bit for a given seed. The renewal
engine reads the harvest stream differently, so it describes another
realization of the same process; the tests tie it to the slot engine by the
distributions of recharge and interarrival times.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import t as student_t

from .model import SystemParams

__all__ = [
    "Warmup",
    "SimConfig",
    "SimStats",
    "EventLog",
    "NoSuccessError",
    "sample_events",
    "sample_slot_events",
    "Window",
    "measurement_window",
    "summarize",
    "simulate",
    "extract_cycles",
    "empirical_aoi",
    "batch_ci",
    "trace_rows",
    "write_trace",
]

_BLOCK = 1 << 23
_MAX_HORIZON = 1 << 62
_INT64_MAX = (1 << 63) - 1
# Largest X whose X*(X+1) fits in int64.
_X_FITS = 3_037_000_499

# Largest mean numpy's Poisson sampler accepts (its own limit, int64 max less
# ten standard deviations); above it the first fill lies past ~9.2e18 slots.
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)

# Fill-search crossover in beta, the mean number of extra slots per recharge.
# Above it one binary search per fill is cheaper; at or below it one search
# over all slots plus a pointer chase is. Timed both ways with numpy 2.4.6 on
# 2 vCPUs: they break even near beta 21 on 2^23-slot runs and near beta 26 on
# 1e6-slot runs, and either choice costs at most ~10% between 18 and 30.
_DENSE_BETA = 24.0


class Warmup(enum.Enum):
    """Measurement windowing policy.

    FIRST_SUCCESS_TO_LAST_SUCCESS restricts every statistic to the window
    between the first and the last decoded update, which removes the start-up
    and tail bias and makes the per-slot age average identical, in exact
    integer arithmetic, to the triangular-area decomposition over cycles.

    FULL_HORIZON averages over every slot of the run, counting the initial
    charge-up and the unfinished tail.
    """

    FIRST_SUCCESS_TO_LAST_SUCCESS = "first_success_to_last_success"
    FULL_HORIZON = "full_horizon"


@dataclass(frozen=True)
class SimConfig:
    params: SystemParams
    horizon_slots: int
    seed: int
    warmup: Warmup = Warmup.FIRST_SUCCESS_TO_LAST_SUCCESS

    def __post_init__(self) -> None:
        # Below 2^62 the renewal engine's running sums of capped recharge
        # times stay in int64 until they pass the horizon.
        if not 1 <= self.horizon_slots < _MAX_HORIZON:
            raise ValueError(
                f"horizon_slots must be >= 1 and below 2**62, got {self.horizon_slots}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class SimStats:
    """Empirical counterparts of the closed-form quantities.

    The sample moments are raw moments (``t_samples_m2`` is the mean of T
    squared, not a variance). ``delta_ci_half`` and the moments refer to the
    measurement window selected by the warmup policy; the counters refer to
    the whole run.
    """

    delta_hat: float
    delta_ci_half: float
    t_samples_mean: float
    t_samples_m2: float
    x_samples_mean: float
    x_samples_m2: float
    m_mean: float
    n_recharges: int
    n_successes: int
    n_slots_measured: int


@dataclass(frozen=True)
class EventLog:
    """Outcome of one simulated run, reduced to its discrete events.

    fill_slots holds the 1-based slot index of every capacitor fill, in
    order. Entry i of success is the decode outcome of the transmission
    attempt that follows fill i; a final fill whose transmit slot would land
    past the horizon has no attempt, so success may be one entry shorter
    than fill_slots.
    """

    fill_slots: np.ndarray
    success: np.ndarray
    horizon_slots: int


class NoSuccessError(RuntimeError):
    """Raised when a run yields too few decoded updates to measure an age."""

    def __init__(self, message: str, n_recharges: int, n_attempts: int, n_successes: int, n_slots: int):
        super().__init__(
            f"{message} (recharges={n_recharges}, attempts={n_attempts}, "
            f"successes={n_successes}, slots={n_slots})"
        )
        self.n_recharges = n_recharges
        self.n_attempts = n_attempts
        self.n_successes = n_successes
        self.n_slots = n_slots


def _spawn_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    h_ss, g_ss = np.random.SeedSequence(int(seed)).spawn(2)
    return np.random.default_rng(h_ss), np.random.default_rng(g_ss)


def _decodes(p: SystemParams, g_rng, fill_slots: np.ndarray, horizon: int) -> np.ndarray:
    """Decode outcome of every attempt, one draw each, in fill order.

    A fill is followed by an attempt when its transmit slot, the next one,
    lies within the horizon.
    """
    n_attempts = int(np.searchsorted(fill_slots, horizon - 1, side="right"))
    threshold = (2.0**p.rate_bpcu - 1.0) * p.noise_w / p.capacitor_j
    # gains = -log1p(-u) / lambda in one buffer; the sign moves into the
    # divisor exactly
    gains = g_rng.random(n_attempts)
    np.negative(gains, out=gains)
    np.log1p(gains, out=gains)
    gains /= -p.channel_rate
    return gains >= threshold


def _renewal_fills(h_rng, beta: float, horizon: int, block: int) -> np.ndarray:
    """Fill slots up to the horizon: the running sum of ``1 + Poisson(beta)`` draws."""
    if beta > _POISSON_LAM_MAX:
        return np.empty(0, dtype=np.int64)
    chunks = []
    pos = 0
    while True:
        left = horizon - pos
        # Draw what the rest of the horizon needs with a margin of at least
        # 12 standard deviations of the fill count, whose variance is below
        # need / 4; far larger chunks cost more than the run itself.
        need = left / (1.0 + beta)
        n = min(block, int(need + 6.0 * math.sqrt(need)) + 16)
        s = h_rng.poisson(beta, n)
        # A recharge longer than what is left ends the run. Capping each one
        # at left + 1 keeps the running sum below 2 * 2^62 up to its first
        # entry past the horizon; later entries may wrap and are not used.
        s += 1
        np.minimum(s, left + 1, out=s)
        np.cumsum(s, out=s)
        past = s > left
        k = int(past.argmax())
        s += pos
        if past[k]:
            chunks.append(s[:k])
            return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        chunks.append(s)
        pos = int(s[-1])


def sample_events(config: SimConfig, block: int = _BLOCK) -> EventLog:
    """Sample the fill slots and decode outcomes of one run, update by update.

    Between fills the capacitor collects energy quanta ``eta*P*h`` with
    exponential ``h``, a Poisson process in energy, and the fill slot is the
    first one whose harvest reaches B; the overshoot is lost at the transmit
    slot. So the recharge time is exactly ``T = 1 + Poisson(beta)`` with
    beta = lambda*B/(eta*P), independently from fill to fill, and the fill
    slots are the running sum of the T draws up to the horizon. The draws
    come in chunks of at most ``block``, each sized to what the rest of the
    horizon needs; numpy's Poisson sampler gives the same sequence however it
    is split, so ``block`` only affects memory use, not the results.

    Decode outcomes are drawn from a second substream, one draw per attempt,
    in fill order, as in :func:`sample_slot_events`. A beta above numpy's
    Poisson limit (~9.2e18) puts the first fill beyond any horizon, so the
    run has no fill.
    """
    p = config.params
    horizon = config.horizon_slots
    beta = p.channel_rate * p.capacitor_j / (p.efficiency * p.power_w)
    h_rng, g_rng = _spawn_streams(config.seed)
    fill_slots = _renewal_fills(h_rng, beta, horizon, block)
    return EventLog(fill_slots, _decodes(p, g_rng, fill_slots, horizon), horizon)


def sample_slot_events(config: SimConfig, block: int = _BLOCK) -> EventLog:
    """Run the slot dynamics and return the fill slots and decode outcomes.

    This is the reference engine: it draws one harvest per slot, exactly as
    :func:`trace_rows` does, and returns the same events bit for bit. It
    backs the renewal claim of :func:`sample_events` in the tests and the
    ``--trace`` path of the command line.

    The capacitor level after slot k is ``min(level + eta*P*h_k, B)`` with the
    level forced to zero at the start of a transmit slot, so between fills the
    raw harvested energy accumulates unclipped and a fill happens at the first
    slot where the running sum reaches the outstanding deficit. That turns the
    whole harvest process into one cumulative sum per block of ``block``
    slots, with the partial deficit carried across block boundaries.

    Fills are found by binary search in that sum, one of two ways picked by
    beta = B / (eta*P/lambda). When fills are sparse (beta above
    ``_DENSE_BETA``) each fill searches for the next one. When they are dense,
    one vectorized search gives every slot its next fill and a pointer chase
    follows it from fill to fill. Both give the same slots.

    Decode outcomes are drawn from a second substream, one draw per attempt,
    in fill order. ``block`` only affects memory use, not the results.
    """
    p = config.params
    horizon = config.horizon_slots
    scale = p.efficiency * p.power_w / p.channel_rate
    cap = p.capacitor_j
    h_rng, g_rng = _spawn_streams(config.seed)

    sparse = cap > _DENSE_BETA * scale
    fills: list[int] = []
    pos = 0
    deficit = cap
    while pos < horizon:
        n = min(block, horizon - pos)
        # s = cumsum(-log1p(-u) * scale), built in one buffer; moving the
        # sign into the factor is exact, so the bits match the plain form
        s = h_rng.random(n)
        np.negative(s, out=s)
        np.log1p(s, out=s)
        s *= -scale
        np.cumsum(s, out=s)
        f = int(s.searchsorted(deficit))
        last = -1
        # The fill after f is the first slot whose sum reaches s[f] + cap,
        # and at least f + 1: once cap drops below half an ulp of s[f] the
        # sum no longer moves, and every slot fills.
        if sparse:
            while f < n:
                fills.append(pos + f + 1)
                last = f
                f = max(f + 1, int(s.searchsorted(s[f] + cap)))
        else:
            nxt = s.searchsorted(s + cap)
            np.maximum(nxt, np.arange(1, n + 1), out=nxt)
            chase = memoryview(nxt)
            while f < n:
                fills.append(pos + f + 1)
                last = f
                f = chase[f]
        if last >= 0:
            deficit = cap - (float(s[n - 1]) - float(s[last]))
        else:
            deficit -= float(s[n - 1])
        pos += n

    fill_slots = np.asarray(fills, dtype=np.int64)
    return EventLog(fill_slots, _decodes(p, g_rng, fill_slots, horizon), horizon)


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
    fills = np.asarray(log.fill_slots, dtype=np.int64)
    success = np.asarray(log.success, dtype=bool)
    if fills.ndim != 1 or success.ndim != 1:
        raise ValueError("event log arrays must be one-dimensional")
    if success.size > fills.size:
        raise ValueError("more attempts than recharges in event log")
    if fills.size:
        if fills[0] < 1 or int(fills[-1]) > log.horizon_slots:
            raise ValueError("fill slots outside the simulated horizon")
        if np.any(np.diff(fills) <= 0):
            raise ValueError("fill slots must be strictly increasing")
    t_list = np.diff(fills, prepend=np.int64(0))
    attempt_idx = np.flatnonzero(success)
    x_list = np.diff(fills[attempt_idx], prepend=np.int64(0))
    m_list = np.diff(attempt_idx + 1, prepend=np.int64(0))
    return t_list, x_list, m_list


def _exact_sum(v: np.ndarray, top: int) -> int:
    """Sum of non-negative int64 entries of at most ``top``, as a Python int.

    Chunks of up to INT64_MAX // top entries are summed in int64, which
    cannot wrap, and the chunk sums are added as Python ints.
    """
    step = _INT64_MAX // max(top, 1)
    return sum(int(v[i : i + step].sum()) for i in range(0, v.size, step))


def _area(x: np.ndarray) -> int:
    """Exact sum of X*(X+1)/2 over int64 X >= 1, the slot ages of whole cycles.

    Every X*(X+1) is even, so this is half the sum of X*(X+1). Entries
    above ``_X_FITS``, whose X*(X+1) would wrap in int64, are summed as
    Python ints.
    """
    top = int(x.max()) if x.size else 0
    if top > _X_FITS:
        big = x > _X_FITS
        return _area(x[~big]) + sum(v * (v + 1) // 2 for v in x[big].tolist())
    q = x + 1
    q *= x
    return _exact_sum(q, top * (top + 1)) // 2


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


def _t_half(estimates: list) -> float:
    """Student-t 95% half-width for the mean of independent batch estimates."""
    k = len(estimates)
    return float(student_t.ppf(0.975, k - 1)) * float(np.std(estimates, ddof=1)) / math.sqrt(k)


def batch_ci(samples, n_batches: int = 20) -> tuple[float, float]:
    """Batch-means 95% confidence interval for the mean of a sample sequence.

    Splits the samples into ``n_batches`` contiguous, nearly equal batches
    and applies a Student-t interval to the batch means.

    Returns (mean, half_width).
    """
    arr = np.asarray(samples, dtype=float).ravel()
    if n_batches < 2:
        raise ValueError(f"n_batches must be >= 2, got {n_batches}")
    if arr.size < n_batches:
        raise ValueError(f"need at least {n_batches} samples, got {arr.size}")
    means = [float(np.mean(b)) for b in np.array_split(arr, n_batches)]
    return float(np.mean(arr)), _t_half(means)


def _ratio_batch_half(x_cycles: np.ndarray, n_batches: int = 20) -> float:
    """Batch-means half-width for the age average, a ratio of cycle sums."""
    k = min(n_batches, x_cycles.size)
    if k < 2:
        return math.nan
    return _t_half([empirical_aoi(b) for b in np.array_split(x_cycles, k)])


@dataclass(frozen=True)
class Window:
    """The cycles inside a measurement window and the age measured over it.

    ``t``, ``x`` and ``m`` are the recharge times, interarrival times and
    attempts per update of the cycles the window keeps. ``delta_hat`` is the
    time-average age over its ``n_slots`` slots, and ``delta_ci_half`` the
    batch-means 95% half-width of that age over the cycles.
    """

    t: np.ndarray
    x: np.ndarray
    m: np.ndarray
    delta_hat: float
    delta_ci_half: float
    n_slots: int


def measurement_window(log: EventLog, warmup: Warmup) -> Window:
    """Cut an event log to the measurement window of ``warmup``.

    Under the default warmup the window runs from the first to the last
    decoded update, and the age average equals the closed decomposition
    sum(X*(X+1)/2)/sum(X) over the windowed cycles as an exact integer
    identity. Under FULL_HORIZON the window is every slot and every cycle:
    the initial charge-up ages lead in with ages 2, 3, ... up to the first
    update and the unfinished tail keeps climbing to the horizon, both
    evaluated in closed form.

    Raises
    ------
    NoSuccessError
        If no update is decoded, or under the windowed warmup if fewer than
        two are (no complete cycle fits in the window).
    """
    n_successes = int(np.count_nonzero(log.success))
    counts = (int(log.fill_slots.size), int(log.success.size), n_successes, log.horizon_slots)
    if n_successes == 0:
        raise NoSuccessError("no decoded update in horizon", *counts)

    t_all, x_all, m_all = extract_cycles(log)
    attempt_idx = np.flatnonzero(log.success)

    if warmup is Warmup.FIRST_SUCCESS_TO_LAST_SUCCESS:
        if n_successes < 2:
            raise NoSuccessError(
                "fewer than two decoded updates, measurement window is empty", *counts
            )
        x_win = x_all[1:]
        return Window(
            t=t_all[attempt_idx[0] + 1 : attempt_idx[-1] + 1],
            x=x_win,
            m=m_all[1:],
            delta_hat=empirical_aoi(x_win),
            delta_ci_half=_ratio_batch_half(x_win),
            n_slots=int(np.sum(x_win)),
        )
    horizon = log.horizon_slots
    success_slots = log.fill_slots[attempt_idx] + 1
    u_first = int(success_slots[0])
    u_last = int(success_slots[-1])
    head = u_first * (u_first + 1) // 2 - 1
    mid = _area(np.diff(success_slots))
    tail_len = horizon - u_last + 1
    tail = tail_len * (tail_len + 1) // 2
    return Window(
        t=t_all,
        x=x_all,
        m=m_all,
        delta_hat=float(head + mid + tail) / float(horizon),
        delta_ci_half=_ratio_batch_half(x_all),
        n_slots=horizon,
    )


def summarize(log: EventLog, warmup: Warmup) -> SimStats:
    """Reduce an event log to empirical statistics over the measurement
    window of ``warmup`` (see :func:`measurement_window`, which raises
    NoSuccessError when too few updates are decoded)."""
    window = measurement_window(log, warmup)
    t_f = window.t.astype(float)
    x_f = window.x.astype(float)
    return SimStats(
        delta_hat=window.delta_hat,
        delta_ci_half=window.delta_ci_half,
        t_samples_mean=float(np.mean(t_f)) if t_f.size else math.nan,
        t_samples_m2=float(np.mean(t_f * t_f)) if t_f.size else math.nan,
        x_samples_mean=float(np.mean(x_f)),
        x_samples_m2=float(np.mean(x_f * x_f)),
        m_mean=float(np.mean(window.m)),
        n_recharges=int(log.fill_slots.size),
        n_successes=int(np.count_nonzero(log.success)),
        n_slots_measured=window.n_slots,
    )


def simulate(config: SimConfig, block: int = _BLOCK) -> SimStats:
    """Sample one run with :func:`sample_events` and reduce it with :func:`summarize`."""
    return summarize(sample_events(config, block), config.warmup)


def trace_rows(config: SimConfig):
    """Yield one (slot, harvest_j, energy_j, transmitted, success, age) per slot.

    Plain per-slot reference dynamics. Consumes the random substreams in
    exactly the same order as :func:`sample_slot_events`, so the two paths
    describe the same realization for the same seed. The age starts at 1
    before the first slot and resets to 1 on the slot of each decoded
    update.
    """
    p = config.params
    h_rng, g_rng = _spawn_streams(config.seed)
    scale = p.efficiency * p.power_w / p.channel_rate
    cap = p.capacitor_j
    threshold = (2.0**p.rate_bpcu - 1.0) * p.noise_w / cap
    level = 0.0
    age = 1
    full = False
    for slot in range(1, config.horizon_slots + 1):
        harvested = -math.log1p(-h_rng.random()) * scale
        transmitted = full
        if full:
            level = 0.0
        level = min(level + harvested, cap)
        success = False
        if transmitted:
            gain = -math.log1p(-g_rng.random()) / p.channel_rate
            success = gain >= threshold
        age = 1 if success else age + 1
        full = level == cap
        yield slot, harvested, level, transmitted, success, age


def write_trace(config: SimConfig, path) -> None:
    """Write the per-slot trace as CSV. Meant for short debugging horizons."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "harvest_j", "energy_j", "transmitted", "success", "age"])
        for slot, harvested, level, transmitted, success, age in trace_rows(config):
            writer.writerow(
                [slot, repr(harvested), repr(level), int(transmitted), int(success), age]
            )
