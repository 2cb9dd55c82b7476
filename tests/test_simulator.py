import contextlib
import itertools
import math
import statistics
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from conftest import REF_LAMBDA
from reference_cycles import empirical_aoi, extract_cycles, summarize, trace_events
from reference_slots import _DENSE_BETA, sample_slot_events
from scipy.stats import chi2

import wpaoi.simulator as simulator
from wpaoi import (
    EventLog,
    NoSuccessError,
    SimConfig,
    SimStats,
    average_aoi,
    batch_ci,
    beta_pi,
    build_params,
    dbm_to_watts,
    derive,
    recharge_pmf,
    sample_events,
    simulate,
    validation_report,
    write_trace,
)
from wpaoi.simulator import (
    _CHUNK,
    _GRID,
    _MAX_HORIZON,
    _POISSON_LAM_MAX,
    _TABLE_BETA,
    _TABLE_FILLS,
    _TABLE_MAX,
    _Z975,
    _alias_draws,
    _alias_table,
    _decode_cut,
    _event_chunks,
    _exact_sum,
    _power_sums,
    _reduce_log,
    _renewal_fills,
    _square_sum,
    _table_size,
    _trace_rows,
)

# Capacitor size that puts the reference point exactly at the fill-search
# threshold; the engine takes the dense search there and the sparse one above.
_THRESHOLD_CAP = _DENSE_BETA * (0.5 * 3.0 / REF_LAMBDA)


@pytest.fixture
def table_builds(monkeypatch):
    """The beta of every alias table the renewal engine asks for, in order.
    A table kept from an earlier call counts too, so these are lookups, not
    builds."""
    built = []

    def spy(beta):
        built.append(beta)
        return _alias_table(beta)

    monkeypatch.setattr(simulator, "_alias_table", spy)
    return built


@contextlib.contextmanager
def _chunks_of(n):
    """Cap the chunks the renewal engine draws, and the reduction reads, at
    ``n`` fills, as far as ``_CHUNK`` allows."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulator, "_CHUNK", min(n, _CHUNK))
        yield


# --- event extraction -------------------------------------------------------

def test_extract_cycles_constructed_log():
    log = EventLog(
        fill_slots=np.array([3, 5, 9], dtype=np.int64),
        success=np.array([False, False, True]),
        horizon_slots=12,
    )
    t, x, m = extract_cycles(log)
    assert t.tolist() == [3, 2, 4]
    assert x.tolist() == [9]
    assert m.tolist() == [3]


def test_extract_cycles_all_successes():
    log = EventLog(
        fill_slots=np.array([2, 6, 7, 11], dtype=np.int64),
        success=np.array([True, True, True, True]),
        horizon_slots=12,
    )
    t, x, m = extract_cycles(log)
    assert x.tolist() == t.tolist()
    assert m.tolist() == [1, 1, 1, 1]


def test_extract_cycles_random_log_sum_identity():
    rng = np.random.default_rng(7)
    gaps = rng.integers(1, 30, size=10_000)
    fills = np.cumsum(gaps)
    success = rng.random(fills.size) < 0.3
    log = EventLog(fill_slots=fills, success=success, horizon_slots=int(fills[-1]) + 1)
    t, x, m = extract_cycles(log)
    assert int(np.sum(x)) == int(np.sum(t[: int(np.sum(m))]))
    # per-cycle identity
    edges = np.cumsum(m)
    starts = np.concatenate(([0], edges[:-1]))
    for k in range(x.size):
        assert int(x[k]) == int(np.sum(t[starts[k] : edges[k]]))


@pytest.mark.parametrize(
    "fills, success",
    [([5, 3], [True, True]), ([3], [True, True]), ([3, 20], [True, True]), ([2, 2], [True, True])],
    ids=["decreasing", "more_attempts", "past_horizon", "repeated"],
)
def test_summarize_rejects_malformed_logs(fills, success):
    log = EventLog(np.array(fills, dtype=np.int64), np.array(success), horizon_slots=10)
    with pytest.raises(ValueError):
        summarize(log)


def test_extract_cycles_rejects_malformed_logs():
    with pytest.raises(ValueError):
        extract_cycles(
            EventLog(
                fill_slots=np.array([5, 3], dtype=np.int64),
                success=np.array([True, True]),
                horizon_slots=10,
            )
        )
    with pytest.raises(ValueError):
        extract_cycles(
            EventLog(
                fill_slots=np.array([3], dtype=np.int64),
                success=np.array([True, True]),
                horizon_slots=10,
            )
        )
    with pytest.raises(ValueError):
        extract_cycles(
            EventLog(
                fill_slots=np.array([3, 20], dtype=np.int64),
                success=np.array([True, True]),
                horizon_slots=10,
            )
        )


# --- empirical age over cycles ---------------------------------------------

def test_empirical_aoi_reference_points():
    assert empirical_aoi([1, 1, 1]) == 1.0
    assert empirical_aoi([2, 3]) == pytest.approx(1.8, rel=1e-15)
    assert empirical_aoi([5]) == 3.0


def test_empirical_aoi_sums_exactly_past_int64():
    # X*(X+1) of X near 2**32 passes 2**63
    assert empirical_aoi([2**32, 2**32 + 1, 3]) == 2147483648.0
    # each X*(X+1) fits in int64, but the sum of the areas does not
    assert empirical_aoi([3_000_000_000] * 4) == 1_500_000_000.5


def test_age_sums_do_not_wrap_at_long_horizons():
    # beta = 1.46e7 over 3e12 slots: the age total is ~8e19, past 2**63
    params, _ = build_params(
        power_w=3e-5, capacitor_j=3e-4, noise_w=dbm_to_watts(-50.0), distance_m=20.0
    )
    d = derive(params)
    stats = simulate(SimConfig(params, 3_000_000_000_000, 1))
    target = average_aoi(d.beta, d.pi)
    assert stats.delta_ci_half < 0.02 * target
    assert abs(stats.delta_hat - target) < 3.0 * stats.delta_ci_half


@pytest.mark.parametrize("n", [0, 1, 1_000, 65_536])
def test_exact_and_square_sums_equal_python_int_sums(n):
    rng = np.random.default_rng(n)
    # |y| on either side of 2^31, of 3,037,000,499 (the largest X whose
    # X*(X+1) fits in int64) and up to 2^62 - 1, with both signs
    edges = np.array([0, 1, 2**31 - 1, 2**31, 2**31 + 1, 3_037_000_499, 3_037_000_500,
                      2**32 - 1, 2**32, 2**53 + 1, 2**62 - 1])
    y = rng.integers(-(2**62) + 1, 2**62, n)
    # magnitudes of every bit length, all of them the largest, and the edges
    for y in (y, y >> rng.integers(0, 62, n), np.full(n, 2**62 - 1), np.resize([*edges, *-edges], n)):
        a = np.abs(y)
        assert _exact_sum(a) == sum(a.tolist())
        assert _square_sum(y) == sum(v * v for v in y.tolist())
        assert type(_exact_sum(a)) is type(_square_sum(y)) is int


def test_empirical_aoi_rejects_bad_input():
    with pytest.raises(ValueError):
        empirical_aoi([])
    with pytest.raises(ValueError):
        empirical_aoi([0, 2])
    with pytest.raises(ValueError):
        empirical_aoi([1.5])


# --- batch means confidence intervals ---------------------------------------

def test_batch_ci_constant_samples():
    mean, half = batch_ci([4.2] * 40)
    assert mean == pytest.approx(4.2)
    # the grand mean accumulates a few ulp of rounding against the batch
    # means, so a constant input gives a tiny rather than exactly zero width
    assert 0.0 <= half < 1e-12


def test_batch_ci_two_batches_hand_value():
    mean, half = batch_ci(list(range(1, 21)), n_batches=2)
    assert mean == pytest.approx(10.5, rel=1e-15)
    # batch means 5.5 and 15.5, spread sqrt(50), so half = t_{0.975,1} * 5;
    # with 1 dof the Student-t law is the Cauchy law, whose quantile is
    # tan(pi * (p - 1/2)), so t_{0.975,1} = tan(0.475 * pi) exactly
    assert half == pytest.approx(5 * math.tan(0.475 * math.pi), rel=1e-12)


def test_batch_ci_alternating_signs():
    mean, half = batch_ci([1.0, -1.0] * 50, n_batches=10)
    assert mean == 0.0
    assert half == 0.0


def test_batch_ci_rejects_short_input():
    with pytest.raises(ValueError):
        batch_ci([1.0, 2.0, 3.0], n_batches=4)
    with pytest.raises(ValueError):
        batch_ci([1.0, 2.0], n_batches=1)


# --- the slot engine agrees with the per-slot trace -------------------------

def _assert_trace_matches(config, tmp_path):
    """The trace of ``write_trace`` holds the events of the vectorized slot
    engine, and its statistics are theirs, or it raises as they do."""
    path = tmp_path / "trace.csv"
    log = sample_slot_events(config)
    try:
        expected = summarize(log)
    except NoSuccessError:
        with pytest.raises(NoSuccessError):
            write_trace(config, path)
    else:
        assert write_trace(config, path) == expected
    traced = trace_events(path, config.params.capacitor_j, config.horizon_slots)
    assert np.array_equal(traced.fill_slots, log.fill_slots)
    assert np.array_equal(traced.success, log.success)
    return log


@pytest.mark.parametrize(
    "capacitor_j",
    [
        1e-4,
        3e-4,
        1e-3,
        # below half an ulp of the running harvest sum: every slot fills, and
        # a chase that is not forced forward never ends; nothing decodes
        2e-19,
        pytest.param(_THRESHOLD_CAP, id="dense_at_threshold"),
        pytest.param(math.nextafter(_THRESHOLD_CAP, math.inf), id="sparse_above_threshold"),
    ],
)
def test_vectorized_path_matches_per_slot_path(ref_point, capacitor_j, tmp_path):
    config = SimConfig(ref_point(capacitor_j=capacitor_j), 50_000, seed=2024)
    log = _assert_trace_matches(config, tmp_path)
    if capacitor_j == 2e-19:
        assert log.fill_slots.size == 50_000 and not log.success.any()


def test_vectorized_path_matches_per_slot_path_toy(toy_point, tmp_path):
    log = _assert_trace_matches(SimConfig(toy_point, 20_000, seed=5), tmp_path)
    assert bool(np.all(log.success))


def test_vectorized_path_matches_per_slot_path_dense(ref_point, tmp_path):
    # beta 1.456, so the dense fill search runs
    _assert_trace_matches(SimConfig(ref_point(power_w=300.0), 50_000, seed=2024), tmp_path)


# --- decode cut ---------------------------------------------------------------

def _gain_decodes(p, u):
    """Decode outcomes of the draws u with every channel gain computed:
    -log1p(-u)/lambda against the threshold, in numpy float64."""
    threshold = (2.0**p.rate_bpcu - 1.0) * p.noise_w / p.capacitor_j
    return np.log1p(-u) / -p.channel_rate >= threshold


# 30 operating points: B from 10 uJ to 0.1 J, r from 1e-3 to 10 bits per
# channel use and P from 10 mW to 1 kW, so pi runs from 1 - 5e-5 down to 0.
_CUT_POINTS = [
    (10.0 ** (i % 6 - 2), capacitor_j, rate_bpcu)
    for i, (capacitor_j, rate_bpcu) in enumerate(
        itertools.product((1e-5, 1e-4, 1e-3, 1e-2, 1e-1), (1e-3, 1e-2, 0.05, 0.5, 3.0, 10.0))
    )
]


def test_decode_cut_gives_the_outcomes_of_the_gains(ref_point):
    rng = np.random.default_rng(2027)
    inside = 0
    for power_w, capacitor_j, rate_bpcu in _CUT_POINTS:
        p = ref_point(power_w=power_w, capacitor_j=capacitor_j, rate_bpcu=rate_bpcu)
        cut = _decode_cut(p)
        k = round(cut * _GRID)
        near = np.arange(max(k - 50, 0), min(k + 51, _GRID)) / _GRID
        assert np.array_equal(near >= cut, _gain_decodes(p, near)), p
        u = rng.random(1_000_000)
        assert np.array_equal(u >= cut, _gain_decodes(p, u)), p
        inside += 0.0 < cut < 1.0
    assert inside >= 20


def test_decode_cut_is_kept_for_the_last_params(ref_point, monkeypatch):
    # Every search starts with the decode threshold, so its calls count searches.
    searches = []
    threshold = simulator._threshold

    def spy(p):
        searches.append(p)
        return threshold(p)

    monkeypatch.setattr(simulator, "_threshold", spy)
    _decode_cut.cache_clear()
    params = ref_point()
    for seed in (1, 2):
        simulate(SimConfig(params, 100_000, seed))
    # an equal point is the same point
    _decode_cut(ref_point())
    assert searches == [params]
    # a new point takes the place of the last one
    other = ref_point(rate_bpcu=0.5)
    cuts = [_decode_cut(other), _decode_cut(params)]
    assert searches == [params, other, params]
    assert cuts == [_decode_cut.__wrapped__(other), _decode_cut.__wrapped__(params)]
    assert cuts[0] != cuts[1]


def test_decode_cut_is_zero_at_zero_threshold(toy_point):
    assert _decode_cut(toy_point) == 0.0
    assert _gain_decodes(toy_point, np.zeros(1))[0]


def test_no_attempt_decodes_when_no_draw_clears_the_threshold(ref_point):
    # lambda * threshold is 72.8, past -log(2**-53) = 36.7, the largest value
    # of -log1p(-u) over the draws of random()
    p = ref_point(rate_bpcu=2.0)
    assert _decode_cut(p) == 1.0
    assert not _gain_decodes(p, np.array([1.0 - 2.0**-53]))[0]
    config = SimConfig(p, 50_000, seed=3)
    for log in (sample_events(config), sample_slot_events(config)):
        assert log.success.size > 100
        assert not log.success.any()


def test_decode_cut_bisects_when_the_guess_misses(ref_point, monkeypatch):
    # With expm1 giving 0 the guess lands on draw 0, more than two grid
    # points below the cut at the reference point; at rate 2 no draw
    # decodes. Bisection then finds both cuts.
    params = [ref_point(), ref_point(rate_bpcu=2.0)]
    expected = [_decode_cut(p) for p in params]
    assert expected[0] > 3 / _GRID and expected[1] == 1.0
    no_guess = types.SimpleNamespace(**vars(math))
    no_guess.expm1 = lambda x: 0.0
    monkeypatch.setattr(simulator, "math", no_guess)
    _decode_cut.cache_clear()
    try:
        assert [_decode_cut(p) for p in params] == expected
    finally:
        _decode_cut.cache_clear()


def _assert_same_events(a, b):
    assert np.array_equal(a.fill_slots, b.fill_slots)
    assert np.array_equal(a.success, b.success)


# At the sparse point (beta 145.6) a 7-slot block is far shorter than one
# recharge, so the deficit carried from block to block decides every fill.
@pytest.mark.parametrize("block", [997, 7])
@pytest.mark.parametrize("power_w", [3.0, 300.0], ids=["sparse", "dense"])
def test_block_size_does_not_change_events(ref_point, power_w, block):
    config = SimConfig(ref_point(power_w=power_w), 50_000, seed=77)
    _assert_same_events(sample_slot_events(config), sample_slot_events(config, block=block))


# The renewal engine draws recharge times in chunks of at most `_CHUNK`; a
# 7-draw chunk makes every run cross many chunk boundaries.
@pytest.mark.parametrize("chunk", [997, 7])
@pytest.mark.parametrize("power_w", [3.0, 300.0], ids=["sparse", "dense"])
def test_block_size_does_not_change_renewal_events(ref_point, power_w, chunk):
    config = SimConfig(ref_point(power_w=power_w), 50_000, seed=77)
    expected = sample_events(config)
    with _chunks_of(chunk):
        _assert_same_events(expected, sample_events(config))


def _two_sample(a, b, min_pooled=50):
    """Total variation and chi-square homogeneity p-value of two integer samples.

    Values from the first one whose pooled count is below ``min_pooled`` on
    are lumped into one tail bin.
    """
    top = int(max(a.max(), b.max())) + 1
    ca = np.bincount(a, minlength=top)[1:]
    cb = np.bincount(b, minlength=top)[1:]
    sparse = ca + cb < min_pooled
    k = int(sparse.argmax()) if sparse.any() else ca.size
    ca = np.append(ca[:k], ca[k:].sum())
    cb = np.append(cb[:k], cb[k:].sum())
    na, nb = a.size, b.size
    tv = 0.5 * float(np.abs(ca / na - cb / nb).sum())
    used = ca + cb > 0
    ca, cb = ca[used], cb[used]
    stat = float(np.sum((ca * math.sqrt(nb / na) - cb * math.sqrt(na / nb)) ** 2 / (ca + cb)))
    return tv, float(chi2.sf(stat, ca.size - 1))


def test_renewal_engine_matches_slot_engine_in_distribution(ref_point):
    # beta 1.456, pi 0.425: 6e6 slots give ~2.4e6 recharges and ~1e6
    # interarrivals per engine. The engines read the harvest stream in
    # different ways, so each gets its own seed to keep the samples
    # independent.
    params = ref_point(power_w=300.0)
    t_slot, x_slot, _ = extract_cycles(sample_slot_events(SimConfig(params, 6_000_000, seed=1)))
    t_new, x_new, _ = extract_cycles(sample_events(SimConfig(params, 6_000_000, seed=2)))
    assert min(x_slot.size, x_new.size) >= 1_000_000
    for name, a, b in (("T", t_slot, t_new), ("X", x_slot, x_new)):
        tv, p_value = _two_sample(a, b)
        assert tv < 0.01, f"{name}: tv={tv:.5f}"
        assert p_value > 1e-3, f"{name}: chi-square p={p_value:.2e}"


# --- recharge-time sampler ------------------------------------------------------

@pytest.mark.parametrize("beta", [1e-3, 1.456, 24.0, 145.6, 4000.0])
def test_alias_draws_follow_recharge_pmf(beta):
    table = _alias_table(beta)
    size = table[0].size
    n = 1_000_000
    counts = np.bincount(_alias_draws(np.random.default_rng(61), table, n), minlength=size)
    assert counts.size == size
    pmf = recharge_pmf(beta, np.arange(1, size + 1))
    # Total variation, against its mean under the pmf: sum(sd_j)/sqrt(2*pi).
    tv = 0.5 * float(np.abs(counts / n - pmf).sum())
    typical = float(np.sqrt(pmf * (1.0 - pmf) / n).sum()) / math.sqrt(2.0 * math.pi)
    assert tv < 4.0 * typical, f"tv={tv:.2e}, typical {typical:.2e}"
    # Chi-square over the values expected at least 50 times; the tails on
    # either side join the nearest of them.
    expected = n * pmf
    kept = np.flatnonzero(expected >= 50.0)
    lo, hi = int(kept[0]), int(kept[-1]) + 1
    c, e = counts[lo:hi].astype(float), expected[lo:hi]
    c[0] += counts[:lo].sum()
    e[0] += expected[:lo].sum()
    c[-1] += counts[hi:].sum()
    e[-1] += expected[hi:].sum()
    p_value = float(chi2.sf(float(((c - e) ** 2 / e).sum()), c.size - 1))
    assert p_value > 1e-3, f"chi-square p={p_value:.2e}"


def test_alias_draws_match_numpy_poisson():
    beta = 145.6
    table_draws = _alias_draws(np.random.default_rng(62), _alias_table(beta), 1_000_000)
    numpy_draws = np.random.default_rng(63).poisson(beta, 1_000_000)
    # _two_sample lumps only the right tail, so the draws up to three
    # standard deviations below the mean join into its first value.
    low = int(beta - 3.0 * math.sqrt(beta))
    a, b = (np.maximum(d, low) - (low - 1) for d in (table_draws, numpy_draws))
    tv, p_value = _two_sample(a, b)
    assert tv < 0.01, f"tv={tv:.5f}"
    assert p_value > 1e-3, f"chi-square p={p_value:.2e}"


class _GivenDraws:
    """A generator whose uniforms are the given ones, in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def test_largest_draw_lands_inside_the_table():
    # u * K stays below K at every table size, not only at those built here
    sizes = np.arange(1, _TABLE_MAX + 1)
    assert np.all(((1.0 - 2.0**-53) * sizes).astype(np.int64) < sizes)
    for beta in (1e-3, 1.456, 24.0, 145.6, 4000.0):
        table = _alias_table(beta)
        # every uniform the largest random() returns
        draws = _alias_draws(_GivenDraws(np.full(3, 1.0 - 2.0**-53)), table, 3)
        assert np.all((draws >= 0) & (draws < table[0].size))


def _plain_alias_draws(u, q, alias):
    """The alias rule as written: j = floor(u*K), then j if u*K - j < q[j]
    and alias[j] otherwise."""
    v = u * q.size
    j = v.astype(np.int64)
    return np.where(v - j < q[j], j, alias[j])


def _adversarial_uniforms(q):
    """Uniforms on both sides of every j/K and (j + q[j])/K, on the 2^-53
    grid of random() and one float away, with 0 and the largest draw."""
    j = np.arange(q.size)
    edges = np.concatenate([j / q.size, (j + q) / q.size])
    on_grid = np.floor(edges * _GRID)[:, None] + np.arange(-2, 3)
    u = np.concatenate([
        on_grid.ravel() / _GRID,
        np.nextafter(edges, 0.0),
        edges,
        np.nextafter(edges, 1.0),
        [0.0, 1.0 - 2.0**-53],
    ])
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


# The beta of the largest table the engine builds, _TABLE_MAX entries.
_LARGEST_TABLE_BETA = 62_506.0


@pytest.mark.parametrize("beta", [1.0, 1.456, 24.0, 145.6, 4000.0, _LARGEST_TABLE_BETA])
def test_alias_draws_equal_the_plain_rule(beta):
    assert _table_size(_LARGEST_TABLE_BETA) == _TABLE_MAX < _table_size(_LARGEST_TABLE_BETA + 1.0)
    q, alias, cells = table = _alias_table(beta)
    u = _adversarial_uniforms(q)
    # both kinds of cell are hit: most draws read theirs, some fall back
    fallback = cells[(u * cells.size).astype(np.int64)] < 0
    assert 0 < np.count_nonzero(fallback) < u.size
    expected = _plain_alias_draws(u, q, alias)
    assert np.array_equal(_alias_draws(_GivenDraws(u), table, u.size), expected)
    # and on plain draws; at most 2^-m of the cells, and so of the draws,
    # fall back
    u = np.random.default_rng(64).random(200_000)
    assert np.array_equal(_alias_draws(_GivenDraws(u), table, u.size), _plain_alias_draws(u, q, alias))
    assert cells.size // q.size >= 8
    assert np.mean(cells < 0) <= q.size / cells.size
    # 2^13 to 2^14 cells, unless 2^3 cells an entry are more
    assert 2**13 <= cells.size < 2**14 or cells.size == 8 * q.size


# Table sizes from 43 to _TABLE_MAX entries.
_EXACT_TABLE_BETAS = [
    1.0, 1.456, 24.0, 145.6, 1_000.0, 4000.0, 20_000.0, 48_266.0, _LARGEST_TABLE_BETA
]


@pytest.mark.parametrize("beta", _EXACT_TABLE_BETAS)
def test_alias_table_law_equals_the_recharge_pmf(beta):
    # Entry j gives j with probability q[j], and entry i gives j with
    # 1 - q[i] where alias[i] = j. Vose's method rounds at most K times, each
    # time by at most an ulp of a q below K times the peak plus one, and
    # passes what is left over to one last entry, whose q it sets to one:
    # so the law is off by at most K ulps of the peak there (~1.5e-13 of the
    # peak near beta 48,266), and by a few ulps elsewhere.
    q, alias, _ = _alias_table(beta)
    law = (q + np.bincount(alias, 1.0 - q, minlength=q.size)) / q.size
    pmf = recharge_pmf(beta, np.arange(1, q.size + 1))
    pmf /= pmf.sum()
    assert np.abs(law - pmf).max() <= q.size * np.finfo(float).eps * pmf.max()


@pytest.mark.parametrize("beta", _EXACT_TABLE_BETAS)
def test_alias_cells_hold_each_entry_exactly(beta):
    q, alias, cells = _alias_table(beta)
    per = cells.size // q.size
    block = cells.reshape(q.size, per)
    e = q * per
    j = np.arange(q.size)[:, None]
    split = block == -1
    assert np.all(split.sum(axis=1) == (e != np.floor(e)))
    # j's own cells and its share of the split cell make up q[j]*2^m
    own = (block == j).sum(axis=1) + (e - np.floor(e)) * split.any(axis=1)
    assert np.array_equal(own, e)
    # cell c holds j while c + 1 <= q[j]*2^m and alias[j] from c >= q[j]*2^m on
    c = np.arange(per)
    e = e[:, None]
    assert np.array_equal(block, np.where(c + 1 <= e, j, np.where(c >= e, alias[:, None], -1)))


def test_decode_cut_leaves_the_success_probability(ref_point):
    # The draws that decode, from the cut on, have probability pi to
    # within two points of the 2^-53 grid.
    rng = np.random.default_rng(65)
    points = 10.0 ** np.column_stack(
        [rng.uniform(-2, 4, 2_000), rng.uniform(-5, 0, 2_000), rng.uniform(-3, 1, 2_000)]
    )
    checked = 0
    for power_w, capacitor_j, rate_bpcu in points.tolist():
        p = ref_point(power_w=power_w, capacitor_j=capacitor_j, rate_bpcu=rate_bpcu)
        _, pi = beta_pi(p, capacitor_j)
        if pi >= 1e-12:
            assert abs((1.0 - _decode_cut(p)) - pi) <= 2.0 * 2.0**-53, p
            checked += 1
    assert checked >= 1_000


def _concatenated_chunks(config):
    chunks = list(_event_chunks(config))
    fills = np.concatenate([f for f, _ in chunks] or [np.empty(0, dtype=np.int64)])
    success = np.concatenate([s for _, s in chunks] or [np.empty(0, dtype=bool)])
    return fills, success


@pytest.mark.parametrize(
    "power_w, capacitor_j, horizon, chunk",
    [
        (300.0, 3e-4, 1_000_000, 1 << 23),  # alias table, ~400k fills
        (300.0, 3e-4, 200_000, 997),
        (3.0, 3e-4, 2_000_000, 1 << 23),  # alias table at beta 145.6
        (3.0, 3e-4, 30_000, 7),  # numpy's Poisson sampler
        (3e4, 3e-4, 100_000, 1 << 23),  # beta 0.015
        (3.0, 0.5, 100, 1 << 23),  # no fill
    ],
)
def test_sample_events_equals_its_chunks(ref_point, power_w, capacitor_j, horizon, chunk):
    config = SimConfig(ref_point(power_w=power_w, capacitor_j=capacitor_j), horizon, seed=21)
    with _chunks_of(chunk):
        fills, success = _concatenated_chunks(config)
        log = sample_events(config)
    assert log.fill_slots.dtype == np.int64 and log.success.dtype == bool
    assert np.array_equal(log.fill_slots, fills)
    assert np.array_equal(log.success, success)
    assert log.horizon_slots == horizon


def test_sample_events_grows_its_log_past_the_bound(ref_point, monkeypatch):
    # A sampler whose every recharge takes one slot fills each slot, far
    # past the bound the log is allocated at, chunk after chunk.
    renewal_fills = simulator._renewal_fills

    def one_slot_recharges(h_rng, beta, horizon):
        return renewal_fills(h_rng, 0.0, horizon)

    monkeypatch.setattr(simulator, "_renewal_fills", one_slot_recharges)
    for horizon, chunk in ((300_000, _CHUNK), (5_000, 7)):
        config = SimConfig(ref_point(), horizon, seed=22)
        with _chunks_of(chunk):
            log = sample_events(config)
            fills, success = _concatenated_chunks(config)
        beta = derive(config.params).beta
        assert log.fill_slots.size == horizon > 4 * simulator._fill_bound(horizon, beta)
        assert np.array_equal(log.fill_slots, fills)
        assert np.array_equal(log.fill_slots, np.arange(1, horizon + 1))
        assert np.array_equal(log.success, success)
        assert log.success.size == horizon - 1


def _compare_and_argmax_fills(h_rng, beta, horizon):
    """The fill chunks of _renewal_fills by the plain horizon rule: cap each
    recharge at what is left plus one, take the running sum of the chunk,
    compare it with what is left, take the first entry past it by argmax,
    and only then add the slot of the last fill so far."""
    size = _table_size(beta)
    table = None
    if beta >= _TABLE_BETA and size <= _TABLE_MAX and horizon / (1.0 + beta) >= _TABLE_FILLS * size:
        table = _alias_table(beta)
    pos = 0
    while True:
        left = horizon - pos
        n = min(simulator._CHUNK, simulator._fill_bound(left, beta))
        s = h_rng.poisson(beta, n) if table is None else _alias_draws(h_rng, table, n)
        s += 1
        np.minimum(s, left + 1, out=s)
        np.cumsum(s, out=s)
        past = s > left
        k = int(past.argmax())
        s += pos
        if past[k]:
            if k:
                yield s[:k]
            return
        yield s
        pos = int(s[-1])


def _fill_chunks(fills, beta, horizon, seed):
    return [c.tolist() for c in fills(np.random.default_rng(seed), beta, horizon)]


# (beta, span, fill indices): the horizons sit on, one slot before and one
# slot after these fills of a span-slot run. At beta 1.456 every such
# horizon takes the alias table and fill 3,499 ends the 500th 7-draw chunk;
# beta 0.485 takes numpy's Poisson sampler and fill 6 ends the first 7-draw
# chunk; fill _CHUNK - 1 ends the first _CHUNK-draw chunk. At beta 1e6 the
# Poisson path caps the recharge that ends the run.
_CUT_CASES = [
    (1.456, 400_000, (3_499, _CHUNK - 1, 100_000)),
    (0.485, 100_000, (6, 13, 1_000, _CHUNK - 1)),
    (1e6, 30_000_000, (1, 6, 13)),
]


# A chunk of 1 << 23 leaves _CHUNK as it is.
@pytest.mark.parametrize("chunk", [1, 7, 1 << 23])
@pytest.mark.parametrize("beta, span, picks", _CUT_CASES)
def test_horizon_cut_equals_compare_and_argmax(beta, span, picks, chunk):
    fills = np.concatenate(list(_renewal_fills(np.random.default_rng(5), beta, span)))
    n = min(chunk, _CHUNK)
    for i in picks:
        if n < _CHUNK and i >= _CHUNK - 1:
            continue  # 65,536 fills in one- or seven-fill chunks take too long
        with _chunks_of(n):
            for horizon in (int(fills[i]) - 1, int(fills[i]), int(fills[i]) + 1):
                got = _fill_chunks(_renewal_fills, beta, horizon, seed=5)
                assert got == _fill_chunks(_compare_and_argmax_fills, beta, horizon, seed=5)
                # the same draws, cut at the horizon
                flat = [f for c in got for f in c]
                assert flat == fills[fills <= horizon].tolist(), (beta, horizon, n)
            # On a fill that ends a chunk, that chunk is cut after its last
            # entry (k = n) and the next one before its first (k = 0).
            got = _fill_chunks(_renewal_fills, beta, int(fills[i]), seed=5)
        if n == 1 or (n == 7 and (i + 1) % 7 == 0) or i == _CHUNK - 1:
            assert [len(c) for c in got] == [n] * ((i + 1) // n)


# Recharges of ~1e17 slots: the running sum of a chunk passes 2^63, and
# wraps, after its first entry past a horizon near 2^62. Recharges of ~2^62
# slots: in some runs the sum would pass 2^63 at that very entry, were the
# recharges not capped.
@pytest.mark.parametrize("chunk", [1, 7, 1 << 23])
@pytest.mark.parametrize("beta", [1e17, 2.0**62])
def test_horizon_cut_where_the_running_sum_wraps(beta, chunk):
    horizon = _MAX_HORIZON - 1
    first_past = []
    for seed in range(40):
        # the first chunk at the full _CHUNK, uncapped
        draws = np.random.default_rng(seed).poisson(beta, simulator._fill_bound(horizon, beta))
        sums = list(itertools.accumulate(d + 1 for d in draws.tolist()))
        assert sums[-1] >= 2**63
        first_past.append(next(s for s in sums if s > horizon))
        with _chunks_of(chunk):
            got = _fill_chunks(_renewal_fills, beta, horizon, seed)
            assert got == _fill_chunks(_compare_and_argmax_fills, beta, horizon, seed)
    assert (max(first_past) >= 2**63) == (beta == 2.0**62)


def test_sampler_choice_rests_on_beta_and_horizon(ref_point, table_builds):
    # Runs at one beta and horizon that differ in seed, chunk length and
    # decode threshold all build the table, or none does.
    for power_w in (3.0, 300.0):
        beta = derive(ref_point(power_w=power_w)).beta
        bound = _TABLE_FILLS * _table_size(beta) * (1.0 + beta)
        for horizon, builds in ((int(0.99 * bound), False), (int(1.01 * bound), True)):
            for seed, chunk, rate_bpcu in ((1, 997, 0.05), (2, _CHUNK, 0.5), (3, 7, 0.01)):
                table_builds.clear()
                params = ref_point(power_w=power_w, rate_bpcu=rate_bpcu)
                with _chunks_of(chunk):
                    sample_events(SimConfig(params, horizon, seed))
                assert table_builds == ([beta] if builds else []), (beta, horizon)
    # Below _TABLE_BETA, or past _TABLE_MAX entries, no horizon is long enough.
    for beta, builds in ((math.nextafter(_TABLE_BETA, 0.0), False), (_TABLE_BETA, True), (1e5, False)):
        table_builds.clear()
        next(_renewal_fills(np.random.default_rng(0), beta, _MAX_HORIZON - 1))
        assert table_builds == ([beta] if builds else []), beta


def test_alias_table_is_kept_for_the_last_beta(ref_point, monkeypatch):
    # Every build starts with the recharge PMF, so its calls count builds.
    builds = []
    recharge_pmf = simulator.recharge_pmf

    def spy(beta, k):
        builds.append(beta)
        return recharge_pmf(beta, k)

    monkeypatch.setattr(simulator, "recharge_pmf", spy)
    _alias_table.cache_clear()
    params = ref_point(power_w=300.0)
    beta = derive(params).beta
    for seed in (1, 2):
        sample_events(SimConfig(params, 100_000, seed))
    assert builds == [beta]
    # every caller gets the same arrays, which no caller can change
    table = _alias_table(beta)
    assert all(a is b for a, b in zip(table, _alias_table(beta)))
    for a in table:
        with pytest.raises(ValueError):
            a[0] = a[0]
    # a new beta takes the place of the last one
    other = derive(ref_point()).beta
    _alias_table(other)
    _alias_table(beta)
    assert builds == [beta, other, beta]


def test_simulate_does_not_depend_on_chunking_on_the_table_path(ref_point, table_builds):
    # beta 145.6 over 1e7 slots: ~68k fills, over _TABLE_FILLS per entry of
    # the 320-entry table. Every power sum here is an integer below 2**53,
    # so even the float sums behind the half-width are exact in any order.
    config = SimConfig(ref_point(), 10_000_000, seed=12)
    expected = simulate(config)
    assert expected.n_recharges > _TABLE_FILLS * _table_size(table_builds[0])
    with _chunks_of(997):
        assert simulate(config) == expected
    assert len(table_builds) == 2


def test_simulate_reduces_renewal_events(ref_point):
    config = SimConfig(ref_point(), 200_000, seed=31)
    assert simulate(config) == summarize(sample_events(config))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_simulate_reduces_renewal_events_at_high_power(ref_point, seed):
    # beta 1.456 over 1e6 slots: ~407k fills of the 45-entry table in seven
    # chunks, or in ~400 of 997 fills each. Every power sum here is an integer
    # below 2**53, so even the float sums behind the half-width are exact
    # in any order.
    config = SimConfig(ref_point(power_w=300.0), 1_000_000, seed=seed)
    expected = summarize(sample_events(config))
    assert expected.n_recharges > 6 * _CHUNK
    assert simulate(config) == expected
    with _chunks_of(997):
        assert simulate(config) == expected


def _measured_cycles(log):
    """The recharge, interarrival and attempt arrays in the window from the
    first to the last decoded update."""
    t, x, m = extract_cycles(log)
    hits = np.flatnonzero(log.success)
    return t[hits[0] + 1 : hits[-1] + 1], x[1:], m[1:]


def test_summary_equals_statistics_of_cycle_arrays(ref_point):
    # ~81k fills, so the reduction crosses a 2**16-fill chunk edge
    log = sample_events(SimConfig(ref_point(power_w=300.0), 200_000, seed=8))
    assert log.fill_slots.size > 1 << 16
    t, x, m = _measured_cycles(log)
    hits = np.flatnonzero(log.success)
    stats = summarize(log)
    assert stats.delta_hat == empirical_aoi(x)
    tf, xf = t.astype(float), x.astype(float)
    assert (stats.t_samples_mean, stats.t_samples_m2) == (np.mean(tf), np.mean(tf * tf))
    assert (stats.x_samples_mean, stats.x_samples_m2) == (np.mean(xf), np.mean(xf * xf))
    assert stats.m_mean == np.mean(m)
    assert (stats.n_recharges, stats.n_attempts) == (log.fill_slots.size, log.success.size)
    assert stats.n_successes == hits.size
    # the regenerative age half-width and the i.i.d. moment half-widths
    q = xf * (xf + 1.0) / 2.0
    residuals = q - q.sum() / xf.sum() * xf
    age_half = _Z975 * np.std(residuals, ddof=1) / math.sqrt(x.size) / np.mean(xf)
    assert stats.delta_ci_half == pytest.approx(age_half, rel=1e-9)
    halves = [_Z975 * np.std(v, ddof=1) / math.sqrt(v.size) for v in (tf, tf * tf, xf, xf * xf)]
    assert _reduce_log(log)[1] == pytest.approx(halves, rel=1e-9)


def _fourth_power_sum(total, n, top, rng):
    """n ints from 0 to top, mostly zeros, whose fourth powers sum to total:
    the largest ones that still fit, down to ones, in random order."""
    y = []
    while total:
        a = min(math.isqrt(math.isqrt(total)), top)
        y.append(a)
        total -= a**4
    assert len(y) <= n
    return rng.permutation(np.array(y + [0] * (n - len(y)), dtype=np.int64))


# Largest X whose X*(X+1) fits in int64; squares on either side of it must
# sum exactly.
_X_FITS = 3_037_000_499


def _power_sum_cases():
    """pytest.param(v, shift, the path _power_sums takes): an int64
    "histogram" or int64 "entries" when the exact sums fit, and "float"
    entries when they do not."""
    cases = []
    for top in (30, 2**26, _X_FITS, _X_FITS + 1, 2**40):
        v = np.random.default_rng(top % 997).integers(0, top, 20_000) + top // 3
        cases.append(pytest.param(v, int(v[0]), "histogram" if top == 30 else "float", id=str(top)))
    rng = np.random.default_rng(11)
    # n * top^4 on either side of 2^53, top the largest |y|; the exact sum
    # of y^4 stays below it
    v = rng.integers(0, 11, 10_000)
    assert v.size * 974**4 < 2**53 < v.size * 975**4
    cases.append(pytest.param(v, 974, "histogram", id="below_2**53"))
    cases.append(pytest.param(v, 975, "histogram", id="above_2**53"))
    # the largest value at and one past the count
    v = rng.integers(0, 1_000, 1_000)
    cases.append(pytest.param(np.append(v[1:], 1_000), int(v[1]), "histogram", id="top_n"))
    cases.append(pytest.param(np.append(v[1:], 1_001), int(v[1]), "entries", id="top_n_plus_1"))
    # shifts outside [min(v), max(v)], and negative v
    v = rng.integers(5, 51, 2_000)
    cases.append(pytest.param(v, -7, "histogram", id="shift_below_min"))
    cases.append(pytest.param(v, 80, "histogram", id="shift_above_max"))
    cases.append(pytest.param(v - 10, int(v[0]), "entries", id="negative"))
    cases.append(pytest.param(np.array([1]), 1, "histogram", id="single_1"))
    cases.append(pytest.param(np.array([7]), 3, "entries", id="single_7"))
    # the exact sum of y^4 just below and at 2^53 while n * top^4 is past
    # it, from a histogram and entry by entry (v shifted below zero)
    for total, path in ((2**53 - 1, "histogram"), (2**53, "float")):
        v = _fourth_power_sum(total, 20_000, 2_000, rng)
        assert 2**53 < v.size * 2_000**4 < 2**63 and v.max() == 2_000
        cases.append(pytest.param(v, 0, path, id=f"sum4_{total - 2**53}_histogram"))
        path = "entries" if path == "histogram" else path
        cases.append(pytest.param(v - 5, -5, path, id=f"sum4_{total - 2**53}_entries"))
    # the interarrival times of a reference-point run: ~28.6k geometric
    # times of mean ~345 capped at 2,716, about the first one, 434
    v = np.minimum(rng.geometric(1 / 345, 28_600) + 100, 2_716)
    assert v.size * (2_716 - 434) ** 4 > 2**53
    cases.append(pytest.param(v, 434, "histogram", id="reference_interarrivals"))
    # n * top^4 on either side of 2^63, with y^4 summing to 2^48
    for n, path in ((2**15 - 1, "histogram"), (2**15, "float")):
        v = np.zeros(n, dtype=np.int64)
        v[rng.integers(n)] = 2**12
        cases.append(pytest.param(v, 0, path, id=f"top4_n_{n}"))
    # a few samples on either side of the exact bound, 9741^4 < 2^53 < 9742^4
    for top, path in ((9_741, "entries"), (9_742, "float")):
        v = np.array([3, 20, top + 20, 17])
        cases.append(pytest.param(v, 20, path, id=f"few_{top}"))
    return cases


@pytest.mark.parametrize("v, shift, path", _power_sum_cases())
def test_power_sums_equal_the_plain_form(v, shift, path, monkeypatch):
    # The float path must give the exact y^2 sum and the float sums of
    # the float powers, and the exact paths the same, bit for bit.
    y = [int(a) - shift for a in v.tolist()]
    yf = v.astype(float) - float(shift)
    assert yf.tolist() == [float(a) for a in y]
    plain = (sum(a * a for a in y), float((yf * yf * yf).sum()), float(((yf * yf) * (yf * yf)).sum()))
    taken = []
    bincount, float_sums = np.bincount, simulator._float_power_sums
    monkeypatch.setattr(np, "bincount", lambda w: taken.append("histogram") or bincount(w))
    monkeypatch.setattr(
        simulator, "_float_power_sums", lambda *a: taken.append("float") or float_sums(*a)
    )
    sums = _power_sums(v, shift)
    assert sums == plain
    assert [type(a) for a in sums] == [int, float, float]
    # an exact path that finds a y^4 sum of 2^53 or more hands over to
    # float; the entries path, the only other one, calls neither spy
    assert taken == ([] if path == "entries" else taken[:-1] + [path])


def test_reference_run_takes_no_float_power_sum(ref_point, monkeypatch):
    # beta 145.6 over 1e7 slots: every power sum, in every chunk, is exact
    calls = []
    float_sums = simulator._float_power_sums
    monkeypatch.setattr(
        simulator, "_float_power_sums", lambda *a: calls.append(a) or float_sums(*a)
    )
    for seed in (12, 7_000_001):
        assert simulate(SimConfig(ref_point(), 10_000_000, seed)).n_recharges > _CHUNK
    assert calls == []


# The benchmark's mc_reference op: P = 3 W, B = 3e-4 J, 20 m, -50 dBm,
# r = 0.05, 1e7 slots, op seeds seed*1_000_000 + index.
_REFERENCE_PINS = {
    7_000_000: SimStats(
        delta_hat=274.11955216557186, delta_ci_half=3.855420208586049,
        t_samples_mean=146.6350770674762, t_samples_m2=21647.02418349539,
        x_samples_mean=346.4040327050998, x_samples_m2=189565.83259423502,
        m_mean=2.362354490022173, n_recharges=68196, n_attempts=68196, n_successes=28865,
        n_slots_measured=9998606,
    ),
    7_000_001: SimStats(
        delta_hat=272.54189044339444, delta_ci_half=3.8098585897762987,
        t_samples_mean=146.67788355752447, t_samples_m2=21661.67082777134,
        x_samples_mean=344.253184603732, x_samples_m2=187302.57426151622,
        m_mean=2.347001308269641, n_recharges=68176, n_attempts=68176, n_successes=29047,
        n_slots_measured=9999178,
    ),
    7_000_002: SimStats(
        delta_hat=273.01903082558516, delta_ci_half=3.6865202560083685,
        t_samples_mean=146.70201434838103, t_samples_m2=21665.973533252152,
        x_samples_mean=344.42532378065584, x_samples_m2=187724.9108569854,
        m_mean=2.3477886470101956, n_recharges=68165, n_attempts=68165, n_successes=29033,
        n_slots_measured=9999356,
    ),
}


def test_reference_point_runs_are_pinned():
    # Every draw, counter, estimate and half-width of the benchmark's
    # reference op, bit for bit.
    params, _ = build_params(
        power_w=3.0, capacitor_j=3e-4, noise_w=dbm_to_watts(-50.0), distance_m=20.0
    )
    for seed, expected in _REFERENCE_PINS.items():
        assert simulate(SimConfig(params, 10_000_000, seed)) == expected


def test_half_widths_stay_exact_when_cycles_barely_vary(ref_point):
    # beta 4.85e15 and pi 0.9997: ~200 cycles whose T and X have a
    # coefficient of variation near 1.4e-8, so raw power sums would cancel
    # every digit of the variances. Exact rational arithmetic is the
    # reference.
    log = sample_events(SimConfig(ref_point(power_w=3e-10, capacitor_j=1.0), 10**18, seed=3))
    t, x, _ = (v.tolist() for v in _measured_cycles(log))
    assert len(x) > 150

    def mean_half(v):
        n, s1 = len(v), sum(v)
        var = Fraction(n * sum(a * a for a in v) - s1 * s1, n * (n - 1))
        return _Z975 * math.sqrt(var / n)

    r = Fraction(sum(a * (a + 1) for a in x), 2 * sum(x))
    residuals = sum((Fraction(a * (a + 1), 2) - r * a) ** 2 for a in x) / (len(x) - 1)
    age_half = _Z975 * math.sqrt(residuals / len(x)) * len(x) / sum(x)
    halves = [mean_half(v) for v in (t, [a * a for a in t], x, [a * a for a in x])]
    assert summarize(log).delta_ci_half == pytest.approx(age_half, rel=1e-9)
    assert _reduce_log(log)[1] == pytest.approx(halves, rel=1e-9)


# beta 0.485 and pi 0.077: most 7-fill chunks hold no decoded update
def _sparse_decodes(ref_point):
    return ref_point(power_w=300.0, capacitor_j=1e-4)


def test_simulate_equals_summary_of_its_log_at_chunk_edges(ref_point):
    params = _sparse_decodes(ref_point)
    # A shorter horizon keeps a prefix of the same fills, so ending it on a
    # fill leaves that last fill without a transmission attempt.
    horizon = int(sample_events(SimConfig(params, 20_000, seed=4)).fill_slots[-5])
    config = SimConfig(params, horizon, seed=4)
    log = sample_events(config)
    assert log.fill_slots[-1] == horizon
    assert log.success.size == log.fill_slots.size - 1
    chunks = [log.success[i : i + 7] for i in range(0, log.success.size, 7)]
    assert sum(not c.any() for c in chunks) > 100
    expected = summarize(log)
    for chunk in (7, _CHUNK):
        with _chunks_of(chunk):
            assert simulate(config) == expected


def test_simulate_does_not_depend_on_chunking(ref_point):
    # ~1.3k fills. Every power sum here is an integer below 2**53, so even
    # the float sums behind the half-width are exact in any order.
    config = SimConfig(_sparse_decodes(ref_point), 2_000, seed=12)
    expected = simulate(config)
    assert expected.n_recharges > 1_000
    for chunk in (1, 7, 997):
        with _chunks_of(chunk):
            assert simulate(config) == expected


def test_simulate_memory_stays_bounded():
    # beta 48.5: ~2e6 fills, whose event log alone would take 18 MB
    params, _ = build_params(
        power_w=3.0, capacitor_j=1e-4, noise_w=dbm_to_watts(-50.0), distance_m=20.0
    )
    tracemalloc.start()
    try:
        stats = simulate(SimConfig(params, 100_000_000, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.n_recharges > 1_900_000
    assert peak < 16 * 2**20


def test_age_interval_covers_closed_form(ref_point):
    """The regenerative 95% interval of the age covers the closed form in
    0.95 +- 0.025 of 1,000 seeded runs, about 3.6 binomial standard errors.

    Each run has ~17k cycles. The interval rests on the central limit
    theorem and under-covers in short runs: about 0.90 at ~290 cycles per
    run (beta 145.6, 1e5 slots).
    """
    params = ref_point(power_w=300.0)
    d = derive(params)
    target = average_aoi(d.beta, d.pi)
    covered = 0
    for seed in range(1_000):
        stats = simulate(SimConfig(params, 100_000, seed))
        covered += abs(stats.delta_hat - target) <= stats.delta_ci_half
    assert 0.925 <= covered / 1_000 <= 0.975


def test_normal_quantile_literal():
    # The stdlib inverse CDF lands 2 ulps below the literal; the exact
    # quantile, 1.95996398454005423552..., lies within 1 ulp of it.
    assert abs(_Z975 - statistics.NormalDist().inv_cdf(0.975)) <= 2 * math.ulp(_Z975)
    assert abs(_Z975 - 1.9599639845400542355) <= math.ulp(_Z975)


@pytest.mark.parametrize(
    "capacitor_j, horizon",
    [
        # beta past numpy's Poisson limit: no fill, as in the slot engine
        pytest.param(
            2.0 * _POISSON_LAM_MAX * (0.5 * 3.0 / REF_LAMBDA), 1_000, id="beta_past_poisson_limit"
        ),
        # beta ~1e-13: every slot fills, as in the slot engine
        pytest.param(2e-19, 50_000, id="2e-19"),
    ],
)
def test_renewal_engine_extreme_beta_matches_slot_engine(ref_point, capacitor_j, horizon):
    config = SimConfig(ref_point(capacitor_j=capacitor_j), horizon, seed=2024)
    log = sample_events(config)
    ref = sample_slot_events(config)
    assert np.array_equal(log.fill_slots, ref.fill_slots)
    assert log.success.size == ref.success.size
    if capacitor_j < 1.0:
        assert np.array_equal(log.fill_slots, np.arange(1, horizon + 1))
    else:
        assert log.fill_slots.size == 0
        with pytest.raises(NoSuccessError):
            simulate(config)


def test_simulate_is_deterministic(ref_point):
    config = SimConfig(ref_point(), 200_000, seed=31)
    assert simulate(config) == simulate(config)


# --- capacitor and age dynamics ---------------------------------------------

def test_trace_energy_and_age_dynamics(ref_point):
    params = ref_point(capacitor_j=2e-4)
    cap = params.capacitor_j
    prev_full = False
    for _slot, harvest, level, transmitted, success, age in _trace_rows(
        SimConfig(params, 20_000, seed=8)
    ):
        assert harvest >= 0.0
        assert 0.0 <= level <= cap
        assert transmitted == prev_full
        if success:
            assert transmitted
            assert age == 1
        else:
            assert age >= 2
        prev_full = level == cap


def test_windowed_age_equals_cycle_decomposition(ref_point):
    config = SimConfig(ref_point(), 50_000, seed=13)
    stats = summarize(sample_slot_events(config))
    rows = list(_trace_rows(config))
    success_slots = [slot for slot, _h, _e, _tx, success, _a in rows if success]
    first, last = success_slots[0], success_slots[-1]
    ages = [age for slot, _h, _e, _tx, _s, age in rows if first <= slot < last]
    assert stats.delta_hat == sum(ages) / len(ages)
    assert stats.n_slots_measured == last - first == len(ages)


def test_every_attempt_succeeds_when_threshold_vanishes(toy_point):
    stats = simulate(SimConfig(toy_point, 50_000, seed=11))
    assert stats.m_mean == 1.0
    assert stats.t_samples_mean == stats.x_samples_mean
    assert stats.t_samples_m2 == stats.x_samples_m2
    log = sample_events(SimConfig(toy_point, 50_000, seed=11))
    t, x, m = extract_cycles(log)
    assert np.array_equal(x, t[: x.size])


def test_moments_converge_on_toy_point(toy_point):
    stats = simulate(SimConfig(toy_point, 2_000_000, seed=42))
    # T = 1 + Poisson(1): mean 2, second moment 5, age 1.75
    assert stats.t_samples_mean == pytest.approx(2.0, rel=5e-3)
    assert stats.t_samples_m2 == pytest.approx(5.0, rel=2e-2)
    assert stats.delta_hat == pytest.approx(1.75, rel=1e-2)
    assert stats.delta_ci_half < 0.05
    assert stats.n_successes <= stats.n_recharges


def test_attempts_per_update_tracks_success_probability(ref_point):
    params = ref_point()
    d = derive(params)
    stats = simulate(SimConfig(params, 2_000_000, seed=3))
    sigma = math.sqrt((1.0 - d.pi) / d.pi**2 / stats.n_successes)
    assert abs(stats.m_mean - 1.0 / d.pi) < 4.0 * sigma


def test_windowed_age_tracks_closed_form(ref_point):
    params = ref_point()
    d = derive(params)
    target = average_aoi(d.beta, d.pi)
    stats = simulate(SimConfig(params, 2_000_000, seed=17))
    assert stats.delta_hat == pytest.approx(target, rel=0.05)
    assert stats.delta_ci_half > 0.0


# --- failure modes ----------------------------------------------------------

def test_no_fill_raises_with_counters(ref_point):
    with pytest.raises(NoSuccessError) as err:
        simulate(SimConfig(ref_point(capacitor_j=0.5), 100, seed=0))
    assert err.value.n_recharges == 0
    assert err.value.n_successes == 0


def test_single_success_raises_under_windowing(ref_point):
    params = ref_point()
    full = sample_events(SimConfig(params, 100_000, seed=55))
    second_success_fill = int(full.fill_slots[np.flatnonzero(full.success)[1]])
    short = SimConfig(params, second_success_fill, seed=55)
    with pytest.raises(NoSuccessError) as err:
        simulate(short)
    assert err.value.n_successes == 1


def test_sim_config_validation(ref_point):
    with pytest.raises(ValueError):
        SimConfig(ref_point(), 0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(ref_point(), 2**62, seed=0)
    with pytest.raises(ValueError):
        SimConfig(ref_point(), 100, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(ref_point(), 100, seed=2**64)


@pytest.mark.parametrize(
    "horizon, seed",
    [(100_000.5, 0), (100.0, 0), (np.float64(100.0), 0), (True, 0), (100, 1.7), (100, True),
     (100, np.bool_(True)), (100, "1")],
    ids=["half_slot", "float", "numpy_float", "bool_horizon", "fractional_seed", "bool_seed",
         "numpy_bool_seed", "str_seed"],
)
def test_sim_config_rejects_non_integers(ref_point, horizon, seed):
    # int() would truncate 1.7 and take True as 1 without a word
    with pytest.raises(ValueError, match="must be an integer"):
        SimConfig(ref_point(), horizon, seed)
    with pytest.raises(ValueError, match="must be an integer"):
        validation_report(ref_point(), horizon, seed)


def test_sim_config_accepts_numpy_integers(ref_point):
    config = SimConfig(ref_point(power_w=300.0), np.int64(20_000), np.uint64(3))
    assert simulate(config) == simulate(SimConfig(ref_point(power_w=300.0), 20_000, 3))


# --- trace file -------------------------------------------------------------

def test_write_trace_round_trips(tmp_path, toy_point):
    config = SimConfig(toy_point, 200, seed=1)
    path = tmp_path / "trace.csv"
    write_trace(config, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "slot,harvest_j,energy_j,transmitted,success,age"
    assert len(lines) == 201
    rows = list(_trace_rows(config))
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert int(cells[0]) == row[0]
        assert float(cells[1]) == row[1]
        assert float(cells[2]) == row[2]
        assert int(cells[3]) == int(row[3])
        assert int(cells[4]) == int(row[4])
        assert int(cells[5]) == row[5]


@pytest.mark.parametrize("power_w", [3e4, 300.0])
def test_write_trace_does_not_depend_on_chunking(ref_point, power_w, tmp_path):
    # At 3e4 W (beta 0.0146) most recharges take one slot, so most rows hold
    # both a transmit and a fill, at chunk edges too. A shorter horizon
    # keeps a prefix of the same rows, so ending it on a fill leaves that
    # last fill without a transmission attempt.
    params = ref_point(power_w=power_w)
    horizon = int(sample_slot_events(SimConfig(params, 3_000, seed=9)).fill_slots[-3])
    config = SimConfig(params, horizon, seed=9)
    path = tmp_path / "trace.csv"
    expected = write_trace(config, path)
    log = trace_events(path, params.capacitor_j, horizon)
    assert log.fill_slots[-1] == horizon
    assert log.success.size == log.fill_slots.size - 1
    assert summarize(log) == expected
    for n in (1, 2, 7):
        with _chunks_of(n):
            assert write_trace(config, path) == expected
            assert summarize(trace_events(path, params.capacitor_j, horizon)) == expected


def test_write_trace_memory_stays_bounded(ref_point, tmp_path):
    # beta 0.0146: nearly every slot fills. A traced run holds at most a
    # chunk of its events, so four times the slots take no more memory.
    def run(horizon):
        return write_trace(SimConfig(ref_point(power_w=3e4), horizon, seed=1), tmp_path / "t.csv")

    peaks = []
    with _chunks_of(512):
        run(100)
        tracemalloc.start()
        try:
            for horizon in (4_000, 16_000):
                tracemalloc.reset_peak()
                run(horizon)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
