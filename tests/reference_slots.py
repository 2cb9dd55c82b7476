"""Vectorized slot engine, the tests' reference for the slot dynamics.

The package has two engines: the renewal sampler behind ``simulate``, which
draws one recharge time per update, and the per-slot loop ``_trace_rows``
behind ``write_trace``. The tests need the literal slot dynamics over far
more slots than the per-slot loop can run (about 1.7 us per slot), so this
engine runs them a block at a time. It reads the two random substreams in
the order ``_trace_rows`` does and returns the events of the rows it
yields, bit for bit.
"""

import numpy as np

from wpaoi.simulator import EventLog, SimConfig, _decode_cut, _decodes, _spawn_streams

# Most slots one cumulative harvest sum covers.
_BLOCK = 1 << 23

# Fill-search crossover in beta, the mean number of extra slots per recharge.
# Above it one binary search per fill is cheaper; at or below it one search
# over all slots plus a pointer chase is. Timed both ways with numpy 2.4.6 on
# 2 vCPUs: they break even near beta 21 on 2^23-slot runs and near beta 26 on
# 1e6-slot runs, and either choice costs at most ~10% between 18 and 30.
_DENSE_BETA = 24.0


def sample_slot_events(config: SimConfig, block: int = _BLOCK) -> EventLog:
    """Run the slot dynamics and return the fill slots and decode outcomes.

    It draws one harvest per slot, exactly as ``_trace_rows`` does, and
    returns the events of the trace ``write_trace`` writes, bit for bit. It backs the renewal
    claim of ``sample_events`` in the tests.

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
    return EventLog(fill_slots, _decodes(_decode_cut(p), g_rng, fill_slots, horizon), horizon)
