"""Shared builders for synthetic traces used across test modules."""

from pitlab.trace import Trace, TraceEvent, build_profile, parse_region_name


def ev(rank, kind, name, t, nbytes=None, peer=None):
    return TraceEvent(rank, kind, name, t, bytes=nbytes, peer=peer)


def make_trace(events, num_ranks):
    return Trace(events=sorted(events, key=lambda e: (e.t, e.rank)), num_ranks=num_ranks)


def events_by_rank(trace):
    """Each rank's events in trace order, bucketed apart from the index."""
    buckets = {r: [] for r in range(trace.num_ranks)}
    for event in trace.events:
        buckets.setdefault(event.rank, []).append(event)
    return buckets


def region_counts(trace, phase):
    """Per-rank count of the phase's regions, from the trace's profile."""
    counts = {r: 0 for r in range(trace.num_ranks)}
    for (rank, name), stats in build_profile(trace).regions.items():
        if parse_region_name(name)[0] == phase:
            counts[rank] += stats.count
    return counts


def pop_hand_trace():
    """Two-rank trace engineered to give T=10, c=(8,6), T_ideal=9.

    Rank 0 computes for 8 s, fires an eager send and then blocks 2 s in
    a receive; rank 1 computes 5 s, blocks 4 s receiving (1 s of it pure
    transfer), computes 1 s more and answers.  The replay compresses the
    schedule to 9 s.
    """
    events = [
        ev(0, "region-enter", "REGION -- IT_FINE -- 0", 0.0),
        ev(0, "region-exit", "REGION -- IT_FINE -- 0", 8.0),
        ev(0, "send-post", "fine/value/1", 8.0, 64, 1),
        ev(0, "send-complete", "fine/value/1", 8.0, 64, 1),
        ev(0, "recv-post", "fine/value/2", 8.0, 0, 1),
        ev(0, "recv-complete", "fine/value/2", 10.0, 64, 1),
        ev(1, "region-enter", "REGION -- IT_FINE -- 1", 0.0),
        ev(1, "region-exit", "REGION -- IT_FINE -- 1", 5.0),
        ev(1, "recv-post", "fine/value/1", 5.0, 0, 0),
        ev(1, "recv-complete", "fine/value/1", 9.0, 64, 0),
        ev(1, "region-enter", "REGION -- IT_CHECK -- 1", 9.0),
        ev(1, "region-exit", "REGION -- IT_CHECK -- 1", 10.0),
        ev(1, "send-post", "fine/value/2", 10.0, 64, 0),
        ev(1, "send-complete", "fine/value/2", 10.0, 64, 0),
    ]
    return make_trace(events, 2)


def fig5_trace():
    """One blocked send released by a receive posted 3 s later."""
    events = [
        ev(0, "send-post", "fine/value/1", 2.0, 4096, 1),
        ev(0, "send-complete", "fine/value/1", 5.0, 4096, 1),
        ev(1, "recv-post", "fine/value/1", 5.0, 0, 0),
        ev(1, "recv-complete", "fine/value/1", 5.0, 4096, 0),
    ]
    return make_trace(events, 2)


def synthetic_trace(num_ranks, iterations, messages):
    """PFASST-shaped trace of about num_ranks * iterations * (6 + 4 * messages) events.

    After a predictor, every iteration gives each rank a fine sweep of a
    rank- and iteration-dependent length.  At its end the rank posts
    `messages` non-blocking sends to the next rank and as many receives
    from the previous one, checks while they are in flight, completes
    them at staggered times, and ends with a coarse sweep.  The spans of
    one iteration overlap one another, send 0 completes at once (a
    zero-length span), and a sweep's exit, the posts and the check's
    entry share one timestamp.  Sweep lengths differ between
    neighbours, so the trace holds Late Receivers and Late Senders.
    Times are multiples of 1/8, and every receive completes after its
    send was posted.
    """
    def sweep_end(rank, base, k):
        return base + 1.0 + 0.5 * ((3 * rank + k) % 4)

    events = []
    for r in range(num_ranks):
        predict = f"REGION -- PREDICT -- {r}"
        events += [ev(r, "region-enter", predict, 0.25 * r), ev(r, "region-exit", predict, 2.0 + 0.25 * r)]
        for k in range(iterations):
            base = 2.0 + 0.25 * num_ranks + 8.0 * k
            t = sweep_end(r, base, k)
            fine, check, coarse = (f"REGION -- {p} -- {r}" for p in ("IT_FINE", "IT_CHECK", "IT_COARSE"))
            events += [ev(r, "region-enter", fine, base), ev(r, "region-exit", fine, t)]
            peers = []
            if r + 1 < num_ranks:
                peers.append(("send", r + 1, max(t, sweep_end(r + 1, base, k))))
            if r > 0:
                peers.append(("recv", r - 1, max(t, sweep_end(r - 1, base, k)) + 0.125))
            for side, peer, ready in peers:
                for j in range(messages):
                    nbytes = 8 if side == "send" else 0
                    events.append(ev(r, f"{side}-post", f"fine/value/{j}", t, nbytes, peer))
            events += [ev(r, "region-enter", check, t), ev(r, "region-exit", check, t + 1.0)]
            for side, peer, ready in peers:
                for j in range(messages):
                    done = t if (side, j) == ("send", 0) else ready + 0.25 * j
                    events.append(ev(r, f"{side}-complete", f"fine/value/{j}", done, 8, peer))
            events += [ev(r, "region-enter", coarse, base + 5.0), ev(r, "region-exit", coarse, base + 6.0)]
    return make_trace(events, num_ranks)
