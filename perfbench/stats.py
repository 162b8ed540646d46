"""Order statistics, span self time, and the parent-versus-change verdict.

Pure standard library, so run.py and the tests can use it without
importing numpy or the program.
"""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

# The verdict rule: a gain needs the change to win this share of the pairs.
WIN_SHARE = 0.9


def nearest_rank(values, q: float):
    """Nearest-rank percentile: the smallest sample with at least q of the data at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[max(rank, 1) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the nearest-rank q-percentile's rank."""
    return n - max(math.ceil(q * n), 1)


def tail(values, q: float = 0.95):
    """The q-percentile, or None when fewer than MIN_BEYOND samples lie beyond it."""
    if not values or beyond(len(values), q) < MIN_BEYOND:
        return None
    return nearest_rank(values, q)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median (0 for one value)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def self_times(spans) -> dict:
    """Self time of every span: its duration minus the part its children cover.

    ``spans`` is an iterable of ``(span_id, parent_id, name, t0, t1)``.  Child
    intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.  Returns
    ``{span_id: self_time}`` in the spans' own time unit.
    """
    spans = list(spans)
    children = {}
    for sid, parent, _name, t0, t1 in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1 in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def verdict(parent, change, better: str, bound: float) -> tuple:
    """Judge one workload x metric from paired runs of the parent and the change.

    ``parent[i]`` and ``change[i]`` form pair i.  Returns ``(verdict,
    share_won)``, the verdict one of ``improved``, ``regressed``,
    ``unchanged`` or ``unresolved``:

    * improved: the change wins at least 90 % of the pairs (ties count for
      neither side) and the medians differ by more than the parent's
      inter-quartile distance;
    * regressed: the change's median is worse than the parent's by more than
      ``bound`` (a share of the parent's median; an absolute difference when
      the parent's median is 0), and either both spreads are within the bound
      or every change run is worse than every parent run;
    * unchanged: within the bound, with both spreads within it;
    * unresolved: everything else, that is a spread wider than the bound that
      the runs cannot see past.

    A bound of 0 (error rates) allows no movement, so spread is not considered.
    """
    if not parent or not change:
        raise ValueError("verdict needs runs on both sides")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - p) > 0 means worse
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = sign * (cm - pm)
    if share >= WIN_SHARE and worse_by < 0 and abs(cm - pm) > (p3 - p1):
        return "improved", share
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    wide = bound > 0 and max(spread(parent), spread(change)) > bound  # bound 0: no movement allowed
    limit = bound * abs(pm) if pm != 0 else 0.0
    if worse_by > limit:
        return ("regressed" if not wide or all_worse else "unresolved"), share
    if wide and not all_better:
        return "unresolved", share
    return "unchanged", share
