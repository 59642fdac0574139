"""Finite lattice models of the group Z^d and its order structure.

The group is modelled by a finite rectangular window in Z^d carrying the
counting measure (one weight per cell).  Two kinds of distinguished point
sets live on a window:

* ``PSPACE`` sets are upward invariant: adding a semigroup generator to a
  member stays inside the set whenever it stays inside the window.  These
  are the classifying data of canonical weak Weyl pairs.
* ``YSET`` sets are downward invariant: subtracting a generator stays
  inside the set whenever it stays inside the window.  Joint-spectrum
  patterns of commuting range projections land in this class.

Separation of two sets is witnessed by pairing finitely supported test
functions against indicator functions, which on a finite window is exact.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, EmptySetError, InvarianceViolation, WindowMismatch

#: Enumeration guard: windows with more upward sets than this raise
#: BudgetExceeded once they are counted, before any set is built.  A held
#: set of a 64-point window takes about 0.9 KB, so the budget is about 1 GB.
ENUMERATION_BUDGET = 2 ** 20


class SetKind(Enum):
    PSPACE = "pspace"
    YSET = "yset"


Point = tuple[int, ...]


def _as_point(x: Sequence[int]) -> Point:
    return tuple(int(c) for c in x)


class _WindowTable(NamedTuple):
    """Bitset view of a window: bit ``i`` stands for the point of index ``i``."""

    points: tuple[Point, ...]
    index: dict[Point, int]
    #: Per axis: index stride of e_i, mask of points p with p + e_i in the
    #: window, mask of points p with p - e_i in the window.
    steps: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class LatticeWindow:
    """Rectangular sampling box ``lo <= x <= hi`` in Z^d with a cell weight."""

    lo: Point
    hi: Point
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_point(self.lo))
        object.__setattr__(self, "hi", _as_point(self.hi))
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be nonempty vectors of equal length")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("window requires lo <= hi componentwise")
        if not self.weight > 0:
            raise ValueError("cell weight must be positive")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> Point:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def cardinality(self) -> int:
        n = 1
        for s in self.sides:
            n *= s
        return n

    def __contains__(self, x: Sequence[int]) -> bool:
        p = _as_point(x)
        return len(p) == self.dim and all(
            l <= c <= h for l, c, h in zip(self.lo, p, self.hi)
        )

    def points(self) -> Iterator[Point]:
        """Lexicographic sweep of all window points."""
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        return iter(itertools.product(*ranges))

    def index(self, x: Sequence[int]) -> int:
        """Lexicographic linear index of a window point."""
        p = _as_point(x)
        if p not in self:
            raise ValueError(f"point {p} outside window")
        idx = 0
        for l, c, s in zip(self.lo, p, self.sides):
            idx = idx * s + (c - l)
        return idx

    def generators(self) -> list[Point]:
        """Unit vectors e_1 .. e_d of the positive semigroup."""
        d = self.dim
        return [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]

    @cached_property
    def _table(self) -> _WindowTable:
        points = tuple(self.points())
        steps = []
        stride = 1
        for axis in reversed(range(self.dim)):
            lo, hi = self.lo[axis], self.hi[axis]
            up = down = 0
            for i, p in enumerate(points):
                if p[axis] < hi:
                    up |= 1 << i
                if p[axis] > lo:
                    down |= 1 << i
            steps.append((stride, up, down))
            stride *= self.sides[axis]
        return _WindowTable(points, {p: i for i, p in enumerate(points)},
                            tuple(reversed(steps)))


def _add(x: Point, y: Sequence[int]) -> Point:
    return tuple(map(operator.add, x, y))


def _sub(x: Point, y: Sequence[int]) -> Point:
    return tuple(map(operator.sub, x, y))


def _leq(x: Sequence[int], y: Sequence[int]) -> bool:
    return all(a <= b for a, b in zip(x, y))


def _closed(table: _WindowTable, mask: int, kind: SetKind) -> bool:
    """Shift-and-mask closure test, one per axis: the members that may step
    along the axis, stepped, must be members again."""
    upward = kind is SetKind.PSPACE
    for s, up, down in table.steps:
        moved = (mask & up) << s if upward else (mask & down) >> s
        if moved & ~mask:
            return False
    return True


@dataclass(frozen=True)
class PSet:
    """Validated invariant point set inside a window.

    ``PSPACE`` members are closed under adding generators inside the window,
    ``YSET`` members under subtracting them.  Points are kept sorted and
    duplicate free, so equality and serialization are canonical.
    ``indices`` holds the lexicographic window index of each point, aligned
    with ``points``.
    """

    window: LatticeWindow
    points: tuple[Point, ...]
    kind: SetKind
    indices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = self.window._table
        found = set()
        outside = []
        for p in self.points:
            # Integer tuples hit the table as given; anything else is
            # normalised with _as_point first.
            i = table.index.get(p) if type(p) is tuple else None
            if i is None:
                p = _as_point(p)
                i = table.index.get(p)
                if i is None:
                    outside.append(p)
                    continue
            found.add(i)
        if not found and not outside:
            raise EmptySetError("point set must be nonempty")
        if outside:
            p = min(outside)
            raise InvarianceViolation(f"point {p} outside window", point=p)
        indices = tuple(sorted(found))
        mask = sum(1 << i for i in indices)
        object.__setattr__(self, "points", tuple(table.points[i] for i in indices))
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_mask", mask)
        if not _closed(table, mask, self.kind):
            self._raise_first_violation()

    @classmethod
    def _from_indices(cls, window: LatticeWindow, indices: tuple[int, ...],
                      mask: int, kind: SetKind) -> "PSet":
        """Set of the sorted window indices ``indices`` with bitmask ``mask``.

        Skips the point lookup of ``__post_init__`` but not the closure test.
        """
        table = window._table
        points = table.points
        ps = object.__new__(cls)
        vars(ps).update(window=window, kind=kind, indices=indices, _mask=mask,
                        points=tuple([points[i] for i in indices]))
        if not _closed(table, mask, kind):
            ps._raise_first_violation()
        return ps

    def _raise_first_violation(self):
        sign = 1 if self.kind is SetKind.PSPACE else -1
        directions = [tuple(sign * c for c in e) for e in self.window.generators()]
        for p in self.points:
            for step in directions:
                q = _add(p, step)
                if q in self.window and q not in self:
                    raise InvarianceViolation(
                        f"{self.kind.value} invariance fails at {p} "
                        f"in direction {step}",
                        point=p,
                        direction=step,
                    )
        raise InvarianceViolation(f"{self.kind.value} invariance fails")

    def __contains__(self, x: Sequence[int]) -> bool:
        i = self.window._table.index.get(_as_point(x))
        return i is not None and (self._mask >> i) & 1 == 1

    def __len__(self) -> int:
        return len(self.points)

    def contains_origin(self) -> bool:
        """Membership predicate for the compact slice of downward sets."""
        return tuple(0 for _ in range(self.window.dim)) in self


def validate_pset(points: Iterable[Sequence[int]], window: LatticeWindow,
                  kind: SetKind) -> PSet:
    """Validate a point set against the kind-specific invariance.

    Raises InvarianceViolation naming the first offending (point, direction)
    pair, or EmptySetError for an empty input.
    """
    return PSet(window, tuple(_as_point(p) for p in points), kind)


def enumerate_pspaces(window: LatticeWindow) -> list[PSet]:
    """All nonempty upward-invariant subsets of the window, in canonical order.

    An upward set is a chain S_0 <= S_1 <= ... of upward sets of the
    slices along axis 0 (``_upsets``), never a filtered powerset.  Axis 0
    is the major axis of the window index, so the chain's slices, offset
    and concatenated, give the set's sorted ``indices`` and OR-ed its
    bitmask.  Sorting by ``indices`` is sorting by points, since window
    indices order points lexicographically.  Every set passes the closure
    test of ``PSet``.  Raises BudgetExceeded when there are more than
    ``ENUMERATION_BUDGET`` sets, before materialising many more.
    """
    chains = _upsets(window.sides)
    chains.sort()
    return [PSet._from_indices(window, indices, mask, SetKind.PSPACE)
            for indices, mask in chains[1:]]


def _upsets(sides: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Upward sets of the box with these sides, the empty one included.

    Each set is (sorted lexicographic indices, bitmask).  The sets are
    built layer by layer along axis 0: layer t holds every chain of slice
    upsets S_0 <= ... <= S_t.  The chains of every layer are counted
    before the first one is built, so the budget fires before the sets
    fill memory.
    """
    if not sides:
        return [((), 0), ((0,), 1)]
    slices = _upsets(sides[1:])
    stride = math.prod(sides[1:])
    masks = [mask for _, mask in slices]
    above = _containments(masks) if sides[0] > 1 else []
    counts = [1] * len(slices)
    _check_budget(len(counts))
    for _ in range(1, sides[0]):
        grown = [0] * len(slices)
        for j, count in enumerate(counts):
            for k in above[j]:
                grown[k] += count
        counts = grown
        _check_budget(sum(counts))
    layer = [(indices, mask, j) for j, (indices, mask) in enumerate(slices)]
    for t in range(1, sides[0]):
        off = t * stride
        shifted = [(tuple(i + off for i in indices), mask << off)
                   for indices, mask in slices]
        layer = [(indices + shifted[k][0], mask | shifted[k][1], k)
                 for indices, mask, j in layer for k in above[j]]
    return [(indices, mask) for indices, mask, _ in layer]


def _containments(masks: list[int]) -> list[list[int]]:
    """above[j]: the slices containing slice j.  Each pair j <= k is a chain
    of two slices, which the next layer holds, so the pairs are counted
    against the budget as they are found."""
    above, pairs = [], 0
    for small in masks:
        above.append([k for k, big in enumerate(masks) if small & ~big == 0])
        pairs += len(above[-1])
        _check_budget(pairs)
    return above


def _check_budget(chains: int) -> None:
    """Each chain of a layer but one extends to its own nonempty upward
    set of the window, so more than budget + 1 chains is too many."""
    if chains - 1 > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"more than {ENUMERATION_BUDGET} upward-invariant sets")


def _extremal_points(ps: PSet) -> list[Point]:
    """Minimal elements of a PSPACE set / maximal elements of a YSET set."""
    members = set(ps.points)
    sign = -1 if ps.kind is SetKind.PSPACE else 1
    steps = [tuple(sign * c for c in e) for e in ps.window.generators()]
    return [p for p in ps.points
            if not any(_add(p, e) in members for e in steps)]


def translate_pset(ps: PSet, x: Sequence[int]) -> tuple[PSet, int]:
    """Shift a set by a group element, re-truncating to the window.

    The set is treated as the window truncation of its invariant extension
    to Z^d, so the result is again a valid set of the same kind: shifted
    extremal points are dominated inside the window.  The second return
    value counts original points whose shift fell outside the window.
    """
    shift = _as_point(x)
    if len(shift) != ps.window.dim:
        raise WindowMismatch("shift dimension does not match window")
    clip = sum(1 for p in ps.points if _add(p, shift) not in ps.window)
    anchors = [_add(p, shift) for p in _extremal_points(ps)]
    if ps.kind is SetKind.PSPACE:
        keep = [q for q in ps.window.points() if any(_leq(a, q) for a in anchors)]
    else:
        keep = [q for q in ps.window.points() if any(_leq(q, a) for a in anchors)]
    if not keep:
        raise EmptySetError("translated set leaves the window entirely")
    return PSet(ps.window, tuple(keep), ps.kind), clip


def reflect_pset(ps: PSet) -> PSet:
    """Reflect about the window centre, x -> lo + hi - x.

    Sends upward-invariant sets to downward-invariant ones and back; this
    is the negation duality between the two classes, realised inside the
    fixed window.
    """
    w = ps.window
    mirrored = tuple(
        tuple(l + h - c for l, h, c in zip(w.lo, w.hi, p)) for p in ps.points
    )
    kind = SetKind.YSET if ps.kind is SetKind.PSPACE else SetKind.PSPACE
    return PSet(w, mirrored, kind)


def complement_pset(ps: PSet) -> PSet:
    """Complement within the window; swaps the invariance kind as well."""
    members = set(ps.points)
    rest = tuple(p for p in ps.window.points() if p not in members)
    kind = SetKind.YSET if ps.kind is SetKind.PSPACE else SetKind.PSPACE
    return PSet(ps.window, rest, kind)


@dataclass(frozen=True)
class TestFunction:
    """Finitely supported complex function on a declared window."""

    __test__ = False  # not a pytest item despite the name

    window: LatticeWindow
    support: tuple[tuple[Point, complex], ...]

    def __post_init__(self):
        cleaned = []
        for p, v in self.support:
            q = _as_point(p)
            if q not in self.window:
                raise InvarianceViolation(f"support point {q} outside window", point=q)
            cleaned.append((q, complex(v)))
        cleaned.sort(key=lambda t: t[0])
        object.__setattr__(self, "support", tuple(cleaned))

    @classmethod
    def delta(cls, window: LatticeWindow, point: Sequence[int],
              value: complex = 1.0) -> "TestFunction":
        return cls(window, ((_as_point(point), value),))

    @classmethod
    def uniform(cls, window: LatticeWindow, points: Iterable[Sequence[int]],
                value: complex) -> "TestFunction":
        return cls(window, tuple((_as_point(p), value) for p in points))

    def __add__(self, other: "TestFunction") -> "TestFunction":
        if other.window != self.window:
            raise WindowMismatch("test functions live on different windows")
        acc: dict[Point, complex] = {}
        for p, v in self.support + other.support:
            acc[p] = acc.get(p, 0.0) + v
        return TestFunction(self.window, tuple(acc.items()))


def indicator_integral(f: TestFunction, ps: PSet) -> complex:
    """Pair a test function against the indicator of a set.

    Returns ``weight * sum_{x in set} f(x)``; linear in ``f`` and, for
    nonnegative ``f``, monotone in the set.  Delta functions separate any
    two distinct sets on a finite window, which is the working form of the
    indicator embedding being injective.
    """
    members = set(ps.points)
    return ps.window.weight * sum(v for p, v in f.support if p in members)
