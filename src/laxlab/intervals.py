"""Disjoint unions of real intervals (the gap set E).

Endpoints may be +/-inf.  The CLI syntax is ``a:b`` with ``inf``/``-inf``
sentinels and comma-separated unions, e.g. ``-4:-1,1:inf``.
"""

import math

from .errors import EmptyDomainError, UsageError


class IntervalUnion:
    """A finite disjoint union of open-ended real intervals [lo, hi].

    Intervals are stored sorted and non-overlapping; zero-length pieces
    are rejected.
    """

    def __init__(self, intervals):
        pieces = []
        for lo, hi in intervals:
            lo = float(lo)
            hi = float(hi)
            if math.isnan(lo) or math.isnan(hi):
                raise UsageError("interval endpoints must not be NaN")
            if not lo < hi:
                raise UsageError(f"interval [{lo}, {hi}] has no interior")
            pieces.append((lo, hi))
        pieces.sort()
        for (_, h1), (l2, _) in zip(pieces, pieces[1:]):
            if l2 < h1:
                raise UsageError("intervals in a union must be disjoint")
        self.intervals = tuple(pieces)

    @classmethod
    def parse(cls, text):
        """Parse ``a:b,c:d`` with inf sentinels into an IntervalUnion."""
        pieces = []
        for chunk in text.split(","):
            parts = chunk.split(":")
            if len(parts) != 2:
                raise UsageError(f"cannot parse interval {chunk!r}; expected a:b")
            try:
                lo, hi = (float(p) for p in parts)
            except ValueError as exc:
                raise UsageError(f"cannot parse interval {chunk!r}") from exc
            pieces.append((lo, hi))
        return cls(pieces)

    @classmethod
    def full_line(cls):
        return cls([(-math.inf, math.inf)])

    @classmethod
    def half_line_below(cls, x):
        return cls([(-math.inf, x)])

    def __repr__(self):
        body = ",".join(f"{lo:g}:{hi:g}" for lo, hi in self.intervals)
        return f"IntervalUnion({body})"

    def __eq__(self, other):
        return isinstance(other, IntervalUnion) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    @property
    def is_empty(self):
        return not self.intervals

    def require_nonempty(self):
        if self.is_empty:
            raise EmptyDomainError("interval union is empty")

    def finite_endpoints(self):
        """All finite endpoints, in increasing order."""
        out = []
        for lo, hi in self.intervals:
            if math.isfinite(lo):
                out.append(lo)
            if math.isfinite(hi):
                out.append(hi)
        return out

    def is_bounded(self):
        return all(math.isfinite(lo) and math.isfinite(hi) for lo, hi in self.intervals)

    def intersect(self, other):
        """Intersection with another union (may be empty)."""
        pieces = []
        for lo1, hi1 in self.intervals:
            for lo2, hi2 in other.intervals:
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if lo < hi:
                    pieces.append((lo, hi))
        out = object.__new__(IntervalUnion)
        out.intervals = tuple(sorted(pieces))
        return out

    def shift_endpoint(self, which, delta):
        """Return a copy with the ``which``-th finite endpoint moved by delta.

        Endpoints are numbered in increasing order over the finite ones,
        matching :meth:`finite_endpoints`.
        """
        idx = 0
        new = []
        for lo, hi in self.intervals:
            if math.isfinite(lo):
                if idx == which:
                    lo = lo + delta
                idx += 1
            if math.isfinite(hi):
                if idx == which:
                    hi = hi + delta
                idx += 1
            new.append((lo, hi))
        if idx <= which:
            raise UsageError(f"no finite endpoint number {which}")
        return IntervalUnion(new)
