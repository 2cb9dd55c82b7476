"""Monte Carlo simulation of the charge-and-transmit link.

The simulated system: each slot the node harvests energy from a Rayleigh
fading power link into a capacitor of size B. When the capacitor fills, the
node transmits a fresh status update during the next slot with a full
discharge while harvesting continues into the emptied store. The update is
decoded when the information channel draw clears the spectral-efficiency
threshold; a decoded update resets the receiver-side age to one, otherwise
the age keeps growing.

Two execution paths sample this system:

* The renewal engine, ``_event_chunks``, draws one recharge time per
  update and yields the fills and decode outcomes a chunk at a time:
  :func:`simulate` reduces the chunks as they come, and
  :func:`sample_events` gathers them into an event log. The harvest is a
  Poisson process in energy and the overshoot past B is discarded, so
  every recharge time is exactly ``1 + Poisson(beta)``. Its cost grows with
  the number of fills, not slots: a long enough run at beta of at least 1
  draws them from a Walker alias table of the recharge law, one uniform and
  mostly one cell lookup per fill, and any other run with numpy's Poisson
  sampler. The table of the last beta and the decode cut of the last
  operating point are kept, so runs at one operating point find them once.
  The fill slots of a chunk of draws are one running sum, cut at the
  horizon by one binary search on the table path.
* :func:`write_trace` runs the slot dynamics themselves, one plain loop
  iteration per slot (``_trace_rows``), and writes the harvested energy,
  capacitor level, transmit flag, decode outcome and age of every slot as a
  CSV trace. It backs the ``--trace`` path.

The tests hold a vectorized copy of the slot dynamics,
``tests/reference_slots.py``, which finds fills by binary search in
cumulative harvest sums over 2^23 slots at a time. It consumes the two random
substreams as ``_trace_rows`` does (one draw from the harvest stream per
slot, one draw from the decode stream per transmit slot), so the two agree
bit for bit for a given seed. The renewal engine reads the harvest stream
differently, so it describes another realization of the same process; the
tests tie it to the slot dynamics by the distributions of recharge and
interarrival times. The renewal engine decodes an attempt when its draw
from the decode stream reaches a cut found once per operating point; that
gives, bit for bit, the outcomes of computing the channel gain of every
attempt, as ``_trace_rows`` does.

The statistics come from one streaming reduction over one measurement
window, from the first to the last decoded update. The average age is a
renewal-reward ratio over the interarrival cycles, E[X(X+1)/2] / E[X]; the
window holds whole cycles only, so its per-slot age average is that ratio
exactly. A run thus needs running sums over its cycles, not its event
log: the reduction takes the fills a chunk at a time, carries the open
cycle and the window across chunk edges, and keeps the cycle count and the
power sums of the recharge and interarrival times, taken about the first
one of each so that they do not cancel. Wherever the exact sum of the
fourth powers stays below 2^53, so do all float partial sums, and the sums
are taken in int64, bit for bit what the float sums give: from one
histogram when the times are few distinct small integers, and entry by
entry otherwise. :func:`simulate` feeds the reduction straight from the
sampler and :func:`write_trace` from the rows as it writes them, so the
memory of either stays bounded however long the horizon.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import t as student_t

from .analytics import recharge_pmf
from .model import SystemParams, _snr_threshold, beta_pi

__all__ = [
    "SimConfig",
    "SimStats",
    "EventLog",
    "NoSuccessError",
    "sample_events",
    "simulate",
    "batch_ci",
    "write_trace",
]

# Most fills the renewal engine draws, and the reduction reads, at a time.
_CHUNK = 1 << 16
# Most entries of an alias table: a chunk of table draws adds at most 2^32
# slots to a fill below 2^62, so its running sum cannot wrap int64.
_TABLE_MAX = 1 << 16
_MAX_HORIZON = 1 << 62
_INT64_MAX = (1 << 63) - 1
# Two-sided 95% quantile of the standard normal law.
_Z975 = 1.959963984540054
# random() draws the multiples of 1/_GRID below one.
_GRID = 1 << 53
# Integers below this in size are exact floats, so a float sum of integers
# whose partial sums all stay below it is exact in any order.
_EXACT_SUM = 1 << 53

# Largest mean numpy's Poisson sampler accepts (its own limit, int64 max less
# ten standard deviations); above it the first fill lies past ~9.2e18 slots.
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)

# The renewal engine draws recharge times from an alias table when beta is at
# least _TABLE_BETA and the run expects at least _TABLE_FILLS fills per table
# entry, and with numpy's Poisson sampler otherwise. Timed side by side with
# numpy 2.4.6 on 2 vCPUs: a table draw ~8 ns up to beta 24, ~10 at 145.6 and
# ~12 at 4000 and at 2^16 entries; a Poisson draw ~17 ns at beta 0.001, ~26
# at 0.3, ~42 at 1 and 47-70 from 1.5 up; a build 0.1-0.2 ms up to beta 1.5.
# The constants were set when a table draw cost ~0.6 of a Poisson one at beta
# 1, not ~0.2, and when every run paid for its own build. The table of the
# last beta is kept, so a process pays the build once each time beta
# changes. They stay, since moving them changes realizations.
_TABLE_BETA = 1.0
_TABLE_FILLS = 64


@dataclass(frozen=True)
class SimConfig:
    params: SystemParams
    horizon_slots: int
    seed: int

    def __post_init__(self) -> None:
        # int() would truncate a float or take a bool as 0 or 1.
        for name in ("horizon_slots", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    squared, not a variance). The age, its half-width, the moments and
    ``n_slots_measured`` refer to the measurement window from the first to
    the last decoded update, which holds whole interarrival cycles only; the
    counters of fills (``n_recharges``), transmission attempts and decoded
    updates refer to the whole run. The per-slot age average over the whole
    horizon, start-up and unfinished tail included, is the mean of the
    ``age`` column that :func:`write_trace` writes.

    ``delta_ci_half`` is the 95% half-width of the regenerative ratio
    estimator (Crane and Iglehart 1975; Asmussen and Glynn, Stochastic
    Simulation, 2007, ch. IV): the interarrival cycles are i.i.d., so with
    Q = X(X+1)/2 the age estimate r = sum(Q)/sum(X) has the delta-method
    half-width 1.96*sqrt(Var(Q - r*X)/n)/mean(X) over its n cycles. It is
    nan for a single cycle. Like any interval built on the central limit
    theorem it holds only for many cycles: over 1,000 seeds it covered the
    closed-form age 95% of the time at ~1.5k cycles per run or more, but
    only ~90% at ~290 cycles.
    """

    delta_hat: float
    delta_ci_half: float
    t_samples_mean: float
    t_samples_m2: float
    x_samples_mean: float
    x_samples_m2: float
    m_mean: float
    n_recharges: int
    n_attempts: int
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


def _threshold(p: SystemParams) -> float:
    """The channel gain that decodes, (2^r - 1)*sigma^2/B; inf where 2^r overflows."""
    return _snr_threshold(p.rate_bpcu) * p.noise_w / p.capacitor_j


@functools.lru_cache(maxsize=1)
def _decode_cut(p: SystemParams) -> float:
    """The smallest draw of ``random()`` whose attempt decodes, or 1.0 if none does.

    An attempt with draw u decodes when its channel gain -log1p(-u)/lambda
    reaches the threshold (2^r - 1)*sigma^2/B. The gain does not fall as u
    grows, so the draws that decode are those from one point of the 2^-53
    grid on. That point is found once per operating point, testing grid
    points with the very float operations that give the gain:
    -expm1(-lambda*threshold) lands within a few points of it, and bisection
    takes over when it does not. An attempt then decodes exactly when its
    draw reaches the cut.

    The cut of the last operating point is kept, so runs at one point find
    it once per process.
    """
    threshold = _threshold(p)

    def decodes(k):
        # gains = -log1p(-u) / lambda in one buffer; the sign moves into the
        # divisor exactly
        gains = np.asarray(k, dtype=float) / _GRID
        np.negative(gains, out=gains)
        np.log1p(gains, out=gains)
        gains /= -p.channel_rate
        return gains >= threshold

    guess = -math.expm1(-p.channel_rate * threshold)
    k = int(guess * _GRID) if guess > 0.0 else 0
    near = np.arange(k - 2, k + 3).clip(0, _GRID - 1)
    ok = decodes(near)
    # No draw below lo / _GRID decodes, and every draw from hi / _GRID does.
    lo = -1 if ok.all() else int(near[~ok].max())
    hi = int(near[ok].min()) if ok.any() else _GRID
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if decodes([mid])[0]:
            hi = mid
        else:
            lo = mid
    return hi / _GRID


def _decodes(cut: float, g_rng, fill_slots: np.ndarray, horizon: int) -> np.ndarray:
    """Decode outcome of every attempt, one draw each, in fill order, given
    the run's :func:`_decode_cut`.

    A fill is followed by an attempt when its transmit slot, the next one,
    lies within the horizon.
    """
    n_attempts = int(np.searchsorted(fill_slots, horizon - 1, side="right"))
    return g_rng.random(n_attempts) >= cut


def _table_size(beta: float) -> int:
    """Entries K of the alias table of ``Poisson(beta)``: beta + 12*sqrt(beta)
    + 30, which leaves out a tail below ~1e-30."""
    return int(beta + 12.0 * math.sqrt(beta)) + 30


@functools.lru_cache(maxsize=1)
def _alias_table(beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walker's alias table (Walker 1977, built by Vose's 1991 method) of
    ``Poisson(beta)`` over 0..K-1, K = :func:`_table_size`, as (q, alias,
    cells): entry j gives j with probability q[j] and alias[j] otherwise.
    Cell c of entry j, one of 2^m >= 8 (K*2^m is about 2^14), covers coin
    fractions [c, c + 1) / 2^m: j while c + 1 <= e = q[j]*2^m, alias[j] from
    c >= e on, and -1 in the cell that e splits, unless e is an integer.

    The table of the last beta is kept, at most ~5 MB (the largest,
    ``_TABLE_MAX`` entries), so runs at one operating point build it once per
    process. Its arrays are shared by every caller and so are read-only."""
    size = _table_size(beta)
    pmf = recharge_pmf(beta, np.arange(1, size + 1))
    q = (pmf * (size / pmf.sum())).tolist()
    alias = list(range(size))
    small = [j for j, v in enumerate(q) if v < 1.0]
    large = [j for j, v in enumerate(q) if v >= 1.0]
    while small and large:
        j, big = small.pop(), large[-1]
        alias[j] = big
        q[big] = (q[big] + q[j]) - 1.0
        if q[big] < 1.0:
            small.append(large.pop())
    # What rounding leaves in either list is an entry of probability one.
    for j in small + large:
        q[j] = 1.0
    q, alias = np.array(q), np.array(alias, dtype=np.int64)
    m = max(3, 14 - size.bit_length())
    edge = q * (1 << m)
    lo, hi = np.floor(edge).astype(np.int64), np.ceil(edge).astype(np.int64)
    counts = np.stack([lo, hi - lo, (1 << m) - hi], axis=1)
    values = np.stack([np.arange(size), np.full(size, -1), alias], axis=1)
    table = q, alias, np.repeat(values.ravel(), counts.ravel())
    for a in table:
        a.flags.writeable = False
    return table


def _alias_draws(h_rng, table: tuple[np.ndarray, np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """``n`` draws from an :func:`_alias_table`, one uniform u each: the
    integer part of K*u picks the entry and its fraction tosses the coin.
    Scaling by 2^m is exact, so int(u*K*2^m) is the cell of fl(u*K); the
    draws in a cell of -1, at most 2^-m of them, toss the coin on fl(u*K)."""
    q, alias, cells = table
    v = h_rng.random(n)
    v *= cells.size
    s = v.astype(np.int64)
    # Every cell index is in range; "clip" only spares take a buffered copy.
    cells.take(s, out=s, mode="clip")
    miss = np.flatnonzero(s < 0)
    u = v[miss] / (cells.size // q.size)
    j = u.astype(np.int64)
    u -= j
    s[miss] = np.where(u < q[j], j, alias[j])
    return s


def _fill_bound(slots: int, beta: float) -> int:
    """The fills ``slots`` slots need, plus 12 standard deviations of the fill
    count (its variance is below need / 4); far more costs more than the run."""
    need = slots / (1.0 + beta)
    return int(need + 6.0 * math.sqrt(need)) + 16


def _renewal_fills(h_rng, beta: float, horizon: int):
    """Yield the fill slots up to the horizon, the running sum of
    ``1 + Poisson(beta)`` draws, in chunks of at most ``_CHUNK`` fills. No
    chunk is empty.

    The slot of the last fill so far enters the first draw of a chunk, so
    one cumulative sum gives the chunk's fill slots. On the table path that
    sum cannot wrap (see ``_TABLE_MAX``): it is sorted, and one binary
    search finds the fills within the horizon. A Poisson draw is unbounded,
    so that path caps each recharge and finds the first fill past the
    horizon by comparison."""
    if beta > _POISSON_LAM_MAX:
        return
    # The alias table pays for its build only over enough fills; the choice
    # rests on beta and the horizon alone.
    size = _table_size(beta)
    table = None
    if beta >= _TABLE_BETA and size <= _TABLE_MAX and horizon / (1.0 + beta) >= _TABLE_FILLS * size:
        table = _alias_table(beta)
    pos = 0
    while True:
        left = horizon - pos
        n = min(_CHUNK, _fill_bound(left, beta))
        if table is None:
            s = h_rng.poisson(beta, n)
            # A recharge longer than what is left ends the run. Capping each
            # one at left + 1 keeps the running sum below 2^63 up to its
            # first entry past the horizon; later entries may wrap.
            np.minimum(s, left, out=s)
        else:
            s = _alias_draws(h_rng, table, n)
        s += 1
        s[0] += pos
        np.cumsum(s, out=s)
        if table is None:
            past = s > horizon
            k = int(past.argmax())
            k = k if past[k] else n
        else:
            k = int(s.searchsorted(horizon, "right"))
        if k < n:
            if k:
                yield s[:k]
            return
        yield s
        pos = int(s[-1])


def _event_chunks(config: SimConfig):
    """Yield (fill slots, decode outcomes) of the renewal engine chunk by chunk."""
    p = config.params
    horizon = config.horizon_slots
    beta, _ = beta_pi(p, p.capacitor_j)
    h_rng, g_rng = _spawn_streams(config.seed)
    cut = _decode_cut(p)
    for fills in _renewal_fills(h_rng, beta, horizon):
        yield fills, _decodes(cut, g_rng, fills, horizon)


def sample_events(config: SimConfig) -> EventLog:
    """Sample the fill slots and decode outcomes of one run, update by update.

    Between fills the capacitor collects energy quanta ``eta*P*h`` with
    exponential ``h``, a Poisson process in energy, and the fill slot is the
    first one whose harvest reaches B; the overshoot is lost at the transmit
    slot. So the recharge time is exactly ``T = 1 + Poisson(beta)`` with
    beta = lambda*B/(eta*P), independently from fill to fill, and the fill
    slots are the running sum of the T draws up to the horizon. The draws
    come in chunks of at most ``_CHUNK`` fills, each sized to what the rest
    of the horizon needs.

    When beta is at least 1 and the run expects at least 64 fills per entry
    of the table, ``T - 1`` comes from a Walker alias table (Walker 1977;
    Vose 1991) of the recharge PMF of :func:`~wpaoi.analytics.recharge_pmf`,
    built over 0..K-1 with K = beta + 12*sqrt(beta) + 30 and renormalized:
    the tail it leaves out is below ~1e-30. The table of the last beta is
    kept for the next run, so runs at one beta build it once. Each fill takes
    one uniform u: the integer part of K*u picks an entry and its fraction
    tosses the entry's coin, at a resolution of 2^-(53 - log2 K); most
    draws read that outcome from a cell of the table, bit for bit. Any other
    run, and any table above ``_TABLE_MAX`` entries, uses numpy's Poisson
    sampler, which gives the same sequence however it is split. Either way
    the choice rests on beta and the horizon alone and every fill consumes
    its own draws in order, so the chunk length only affects memory use,
    not the results.

    Decode outcomes are drawn from a second substream, one draw per attempt,
    in fill order, as :func:`write_trace` reads them. A beta above numpy's
    Poisson limit (~9.2e18) puts the first fill beyond any horizon, so the
    run has no fill. The log is written in place into arrays allocated at
    the bound the chunks are sized by, 12 standard deviations past the
    expected fills, and grown only by a run that outlasts it.
    :func:`simulate` reduces the same chunks as they come, without a log.
    """
    beta, _ = beta_pi(config.params, config.params.capacitor_j)
    size = _fill_bound(config.horizon_slots, beta)
    fills, success = np.empty(size, dtype=np.int64), np.empty(size, dtype=bool)
    n = a = 0
    for f, s in _event_chunks(config):
        if n + f.size > fills.size:
            fills = np.resize(fills, 2 * n + f.size)
            success = np.resize(success, fills.size)
        fills[n : n + f.size] = f
        success[a : a + s.size] = s
        n += f.size
        a += s.size
    return EventLog(fills[:n], success[:a], config.horizon_slots)


def _exact_sum(v: np.ndarray) -> int:
    """Sum of fewer than 2^31 non-negative int64 entries, as a Python int:
    their high and low 32 bits are summed apart, and neither sum can wrap."""
    return (int((v >> 32).sum()) << 32) + int((v & 0xFFFFFFFF).sum())


def _square_sum(y: np.ndarray) -> int:
    """Exact sum of y*y over fewer than 2^31 int64 entries, |y| < 2^62, as a
    Python int: with |y| = hi*2^31 + lo, y*y = hi^2*2^62 + hi*lo*2^32 + lo^2,
    and each product is below 2^62."""
    a = np.abs(y)
    hi, lo = a >> 31, a & 0x7FFFFFFF
    return (_exact_sum(hi * hi) << 62) + (_exact_sum(hi * lo) << 32) + _exact_sum(lo * lo)


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
    quantile = float(student_t.ppf(0.975, n_batches - 1))
    return float(np.mean(arr)), quantile * float(np.std(means, ddof=1)) / math.sqrt(n_batches)


_NO_SUMS = (0, 0.0, 0.0)


def _power_sums(v: np.ndarray, shift: int) -> tuple[int, float, float]:
    """Sums of y^2 (exact), y^3 and y^4 over y = v - shift, for int64 v.

    The y^3 and y^4 sums are float sums of the float powers. For integers
    |y|^3 <= y^4, so when the exact sum of y^4 is below 2^53, every power
    and every partial sum, in any order, is an exact integer in float, and
    the float sums are the exact ones. Those are taken exactly in int64
    wherever n*top^4, top the largest |y|, cannot wrap it, from one
    histogram of v if v is non-negative with no entry above n and entry by
    entry if not. Any sums whose y^4 sum reaches 2^53 are taken entry by
    entry in float, y^2 still exactly; every caller's |y| is below 2^62.
    """
    n = v.size
    if not n:
        return _NO_SUMS
    lo, hi = int(v.min()), int(v.max())
    top = max(hi - shift, shift - lo)
    if n * top**4 <= _INT64_MAX:
        if lo >= 0 and hi <= n:
            # w[i] counts the samples of value i, y = i - shift
            y, w = np.arange(-shift, hi + 1 - shift), np.bincount(v)
            w *= y
        else:
            y = v - shift
            w = y.copy()
        sums = []
        for _ in range(3):
            w *= y
            sums.append(int(w.sum()))
        if sums[2] < _EXACT_SUM:
            return sums[0], float(sums[1]), float(sums[2])
    return _float_power_sums(v - shift)


def _float_power_sums(y: np.ndarray) -> tuple[int, float, float]:
    """The sums of :func:`_power_sums` over int64 y, |y| < 2^62, entry by
    entry in float. The float y^2 is yf * yf, which below 2^53 is the exact
    square rounded to float."""
    yf = y.astype(float)
    y2 = yf * yf
    np.multiply(y2, yf, out=yf)
    s3 = float(yf.sum())
    np.multiply(y2, y2, out=yf)
    return _square_sum(y), s3, float(yf.sum())


def _steps(v: np.ndarray, start) -> np.ndarray:
    """``np.diff(v, prepend=start)`` of a non-empty v, without copying v."""
    d = np.empty_like(v)
    d[0] = v[0] - start
    np.subtract(v[1:], v[:-1], out=d[1:])
    return d


def _add(*sums: tuple) -> tuple:
    return tuple(map(sum, zip(*sums)))


# The reduction describes n samples v by their sum s1, a shift k and the
# sums y2 (exact), y3 and y4 of the powers of y = v - k. With k one of the
# samples, y is as small as the spread of v, so the variances below lose
# no digits when v barely varies (large beta, pi near one).


def _square_total(n: int, s1: int, k: int, y2: int, *_) -> int:
    """Exact sum of v^2: y2 + 2k*sum(y) + n*k^2."""
    return y2 + k * (2 * s1 - n * k)


def _mean_half(n: int, s1, s2) -> float:
    """95% half-width of the mean of n i.i.d. samples with sum s1 and sum of
    squares s2 (exact when both are integers); nan below two samples. The
    samples may be shifted by a constant."""
    if n < 2:
        return math.nan
    var = (n * s2 - s1 * s1) / (n * (n - 1))
    return _Z975 * math.sqrt(max(var, 0.0) / n)


def _moment_halves(n: int, s1: int, k: int, y2: int, y3: float, y4: float) -> tuple[float, float]:
    """95% half-widths of the means of v and of v^2 over i.i.d. samples."""
    y1 = s1 - n * k
    # v^2 - k^2 = y^2 + 2k*y
    return _mean_half(n, y1, y2), _mean_half(n, y2 + 2 * k * y1, y4 + 4 * k * y3 + 4 * k * k * y2)


def _ratio_half(n: int, s1: int, k: int, y2: int, y3: float, y4: float) -> float:
    """Regenerative 95% half-width of the age r = sum(Q)/sum(X), Q = X(X+1)/2,
    over n cycles X.

    The residuals Q - r*X sum to zero and differ by a constant from
    g = Q - Q(k) - r*(X - k) = y^2/2 + a*y, a = k + 1/2 - r, so their
    variance is that of g. The numerator of a, n*k^2 - y2, is exact.
    """
    if n < 2:
        return math.nan
    y1 = s1 - n * k
    a = (n * k * k - y2) / (2 * s1)
    g1 = y2 / 2 + a * y1
    g2 = y4 / 4 + a * y3 + a * a * y2
    var = (g2 - g1 * g1 / n) / (n - 1)
    return _Z975 * math.sqrt(max(var, 0.0) / n) * n / s1


def _reduce(chunks, horizon: int) -> tuple[SimStats, tuple[float, float, float, float]]:
    """Reduce the (fill slots, decode outcomes) chunks of one run, in fill
    order, to its :class:`SimStats` and the i.i.d. 95% half-widths of the
    means of T, T^2, X and X^2 in the measurement window. A chunk's decode
    outcomes may stop short of its fills only at the end of the run.

    The window runs from the first to the last decoded update, ``first`` and
    ``last``, each a (fill slot, 0-based fill index). ``window`` and
    ``x_window`` hold the :func:`_power_sums` of its recharge times less the
    run's first one and of its interarrival times less the first, counted
    from the origin. The sums of the fills after the latest decoded update
    stay in ``tail`` until the next one moves them into the window, so the
    window never needs to look back. The window's updates took one attempt
    per fill in it, and its age total is the sum of the cycles' X(X+1)/2.

    Raises
    ------
    NoSuccessError
        If fewer than two updates are decoded.
    """
    n_fills = n_attempts = n_successes = 0
    first_fill = last_fill = 0
    first = last = (0, -1)
    window = tail = x_window = _NO_SUMS
    for fills, success in chunks:
        t = _steps(fills, last_fill)
        if t.min() < 1:
            raise ValueError("fill slots must be strictly increasing")
        if not n_fills:
            first_fill = int(fills[0])
        hits = np.flatnonzero(success)
        if hits.size:
            updates = fills[hits]
            # At the first update x opens with the cycle from the origin, u0.
            x = _steps(updates, last[0])
            j = 0
            if not n_successes:
                j = int(hits[0]) + 1
                first = last = (int(updates[0]), n_fills + j - 1)
            i = int(hits[-1])
            window = _add(window, tail, _power_sums(t[j : i + 1], first_fill))
            tail = _power_sums(t[i + 1 :], first_fill)
            # Shifted by u0, that first cycle adds nothing.
            x_window = _add(x_window, _power_sums(x, first[0]))
            last = (int(updates[-1]), n_fills + i)
            n_successes += hits.size
        elif n_successes:
            tail = _add(tail, _power_sums(t, first_fill))
        n_fills += fills.size
        n_attempts += success.size
        last_fill = int(fills[-1])
    if n_successes < 2:
        message = (
            "fewer than two decoded updates, measurement window is empty"
            if n_successes
            else "no decoded update in horizon"
        )
        raise NoSuccessError(message, n_fills, n_attempts, n_successes, horizon)
    # (n, sum, shift, then the sums of _power_sums) of T and of X. The first
    # cycle runs from the origin; it is u0, the shift of X, and lies outside
    # the window.
    (u0, a0), (u1, a1) = first, last
    t_sums = (a1 - a0, u1 - u0, first_fill, *window)
    x_sums = (n_successes - 1, u1 - u0, u0, *x_window)
    n_slots = x_sums[1]
    area = (_square_total(*x_sums) + n_slots) // 2
    stats = SimStats(
        delta_hat=float(area) / float(n_slots),
        delta_ci_half=_ratio_half(*x_sums),
        t_samples_mean=float(t_sums[1]) / t_sums[0],
        t_samples_m2=float(_square_total(*t_sums)) / t_sums[0],
        x_samples_mean=float(x_sums[1]) / x_sums[0],
        x_samples_m2=float(_square_total(*x_sums)) / x_sums[0],
        m_mean=float(t_sums[0]) / x_sums[0],
        n_recharges=n_fills,
        n_attempts=n_attempts,
        n_successes=n_successes,
        n_slots_measured=n_slots,
    )
    return stats, (*_moment_halves(*t_sums), *_moment_halves(*x_sums))


def _reduce_log(log: EventLog) -> tuple[SimStats, tuple[float, float, float, float]]:
    """:func:`_reduce` of an event log of :func:`sample_events`, fed in chunks."""
    fills, success = log.fill_slots, log.success
    chunks = (
        (fills[i : i + _CHUNK], success[i : i + _CHUNK]) for i in range(0, fills.size, _CHUNK)
    )
    return _reduce(chunks, log.horizon_slots)


def simulate(config: SimConfig) -> SimStats:
    """Sample one run with the renewal engine and reduce it as it is drawn.

    The result equals the reduction of ``sample_events(config)``, but the
    event log is never held: memory stays at a few chunks of fills however
    long the horizon. The age and its half-width are those described under
    :class:`SimStats`.

    Raises
    ------
    NoSuccessError
        If fewer than two updates are decoded (no complete cycle fits in the
        measurement window).
    """
    return _reduce(_event_chunks(config), config.horizon_slots)[0]


def _trace_rows(config: SimConfig):
    """Yield one (slot, harvest_j, energy_j, transmitted, success, age) per slot.

    The slot dynamics themselves, one plain loop iteration per slot: one
    draw from the harvest substream per slot and one from the decode
    substream per transmit slot. A row whose energy reaches B is a fill,
    and the next slot transmits. The age starts at 1 before the first slot
    and resets to 1 on the slot of each decoded update.
    """
    p = config.params
    h_rng, g_rng = _spawn_streams(config.seed)
    scale = p.efficiency * p.power_w / p.channel_rate
    cap = p.capacitor_j
    threshold = _threshold(p)
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


def _traced_chunks(config: SimConfig, writer):
    """Write every row of :func:`_trace_rows` with ``writer``, and yield the
    run's (fill slots, decode outcomes) as the rows come, in chunks of
    ``_CHUNK`` attempts and then the rest. None is empty.

    A row whose energy reaches B is a fill, and a transmit row carries the
    outcome of the attempt after the last fill. A row's outcome is read
    before its fill, so a chunk is cut right after an outcome, when every
    fill in it has its attempt, even where recharges take one slot.
    """
    cap = config.params.capacitor_j
    fills, outcomes = [], []

    def chunk():
        return np.array(fills, dtype=np.int64), np.array(outcomes, dtype=bool)

    for slot, harvested, level, transmitted, success, age in _trace_rows(config):
        writer.writerow([slot, repr(harvested), repr(level), int(transmitted), int(success), age])
        if transmitted:
            outcomes.append(success)
            if len(outcomes) == _CHUNK:
                yield chunk()
                fills, outcomes = [], []
        if level == cap:
            fills.append(slot)
    if fills:
        yield chunk()


def write_trace(config: SimConfig, path) -> SimStats:
    """Write the per-slot trace as CSV and return the run's statistics.

    The fills and decode outcomes of the rows feed the streaming reduction
    as the rows are written, so a traced run walks the slot dynamics once
    and holds at most a chunk of its events: only the file grows with the
    horizon. The per-slot loop is slow, so this is meant for short
    debugging horizons.

    Raises
    ------
    NoSuccessError
        If fewer than two updates are decoded. The trace file is written in
        full first.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "harvest_j", "energy_j", "transmitted", "success", "age"])
        return _reduce(_traced_chunks(config, writer), config.horizon_slots)[0]
