"""Finite rooted ordered trees, truncation maps, and exhaustive enumeration.

A tree is stored as the tuple of out-degrees in depth-first (preorder)
order, children visited left to right. This encoding is unique for
ordered trees, cheap to hash, and turns the two truncation maps the
package cares about into simple sequence surgery:

    restrict(h)        keep nodes of depth <= h, zero out degrees at depth h
    restrict_k(h, k0)  additionally keep only the root's first k0 subtrees

The text form used in CSV output and on the command line is the same
tuple joined by commas, e.g. "2,1,0,0,0" for a root with two children,
the first of which has one child.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from .errors import ResourceError, ValidationError


class OrderedTree:
    """Immutable rooted ordered tree backed by its preorder degree tuple."""

    __slots__ = ("_degrees", "_depths")

    def __init__(self, degrees: Iterable[int]):
        degs = tuple(int(d) for d in degrees)
        if not degs:
            raise ValidationError("a tree has at least its root")
        depths = [0]
        # stack holds the not-yet-satisfied child counts along the current
        # root-to-node path; the walk doubles as the validity check
        stack = []
        if degs[0] < 0:
            raise ValidationError("degrees must be non-negative")
        if degs[0] > 0:
            stack.append(degs[0])
        for d in degs[1:]:
            if d < 0:
                raise ValidationError("degrees must be non-negative")
            if not stack:
                raise ValidationError(f"degree sequence {degs!r} has orphan nodes")
            depths.append(len(stack))
            stack[-1] -= 1
            if d > 0:
                stack.append(d)
            else:
                while stack and stack[-1] == 0:
                    stack.pop()
        if stack:
            raise ValidationError(f"degree sequence {degs!r} is missing children")
        self._degrees = degs
        self._depths = tuple(depths)

    @classmethod
    def _trusted(
        cls, degrees: tuple[int, ...], depths: tuple[int, ...]
    ) -> "OrderedTree":
        """A tree from a degree tuple and its depths that are valid by
        construction, as enumeration and the samplers build them: no
        validation walk."""
        t = cls.__new__(cls)
        t._degrees = degrees
        t._depths = depths
        return t

    # -- basic accessors -------------------------------------------------

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    @property
    def depths(self) -> tuple[int, ...]:
        return self._depths

    @property
    def size(self) -> int:
        return len(self._degrees)

    @property
    def height(self) -> int:
        return max(self._depths)

    @property
    def root_degree(self) -> int:
        return self._degrees[0]

    def z(self, depth: int) -> int:
        """Number of nodes at exactly the given depth."""
        if depth < 0:
            raise ValidationError(f"depth must be >= 0, got {depth}")
        return sum(1 for d in self._depths if d == depth)

    def parents(self) -> tuple[int, ...]:
        """Preorder index of each node's parent (-1 for the root): the
        latest earlier node one level up."""
        latest = [-1] * (self.height + 2)  # latest[dep + 1]: last node at dep
        par = []
        for i, dep in enumerate(self._depths):
            par.append(latest[dep])
            latest[dep + 1] = i
        return tuple(par)

    # -- truncation maps -------------------------------------------------

    def restrict(self, h: int) -> "OrderedTree":
        """Ball of radius h around the root: drop nodes deeper than h and
        zero the degrees of nodes at depth exactly h."""
        if h < 0:
            raise ValidationError(f"radius must be >= 0, got {h}")
        out = []
        for d, dep in zip(self._degrees, self._depths):
            if dep < h:
                out.append(d)
            elif dep == h:
                out.append(0)
        return OrderedTree(out)

    def is_ball(self, h: int) -> bool:
        """Whether the tree is its own radius-h ball, i.e. restrict(h) == self,
        without building the ball: the deepest nodes are always leaves, so
        this holds exactly when no node lies deeper than h."""
        if h < 0:
            raise ValidationError(f"radius must be >= 0, got {h}")
        return self.height <= h

    def restrict_k(self, h: int, k0: int) -> "OrderedTree":
        """Like restrict(h), but first keep only the root's leftmost k0
        subtrees (the root's degree becomes min(root_degree, k0))."""
        if k0 < 0:
            raise ValidationError(f"subtree count must be >= 0, got {k0}")
        d0 = self._degrees[0]
        if d0 <= k0:
            return self.restrict(h)
        starts = [i for i, dep in enumerate(self._depths) if dep == 1]
        starts.append(len(self._degrees))
        cut = starts[k0]  # first node of the (k0+1)-th subtree
        return OrderedTree((k0,) + self._degrees[1:cut]).restrict(h)

    # -- conversions -----------------------------------------------------

    def encode(self) -> str:
        return ",".join(str(d) for d in self._degrees)

    @classmethod
    def decode(cls, text: str) -> "OrderedTree":
        parts = text.strip().split(",")
        try:
            degs = [int(p) for p in parts]
        except ValueError as exc:
            raise ValidationError(f"bad tree code {text!r}") from exc
        return cls(degs)

    @classmethod
    def from_level_degrees(cls, levels: Sequence[Sequence[int]]) -> "OrderedTree":
        """Build a tree from per-level degree lists.

        levels[m] lists the out-degrees (ints) of the depth-m nodes in
        left-to-right order; level m+1 must contain exactly sum(levels[m])
        entries, and the final level must consist of zeros (explicitly).
        This is the natural output shape of the level-by-level samplers.

        Preorder meets the nodes of each level left to right, so one walk
        that reads each level in turn emits the degrees and their depths
        together; with the widths checked, the tree is valid by
        construction.
        """
        if not levels or len(levels[0]) != 1:
            raise ValidationError("level lists must start with the root level")
        if min(itertools.chain.from_iterable(levels)) < 0:
            raise ValidationError("degrees must be non-negative")
        for m in range(len(levels) - 1):
            if sum(levels[m]) != len(levels[m + 1]):
                raise ValidationError(
                    f"level {m} announces {sum(levels[m])} children but level "
                    f"{m + 1} has {len(levels[m + 1])} nodes"
                )
        if sum(levels[-1]) != 0:
            raise ValidationError("the last level must close the tree with zeros")
        reads = [iter(lev).__next__ for lev in levels]
        degrees = []
        depths = []
        # stack[m]: depth-m nodes still to visit under the open node one
        # level up (level 0 holds the root alone)
        stack = [1]
        while stack:
            left = stack[-1]
            if not left:
                stack.pop()
                continue
            stack[-1] = left - 1
            m = len(stack) - 1
            d = reads[m]()
            degrees.append(d)
            depths.append(m)
            if d:
                stack.append(d)
        return cls._trusted(tuple(degrees), tuple(depths))

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedTree):
            return NotImplemented
        return self._degrees == other._degrees

    def __hash__(self) -> int:
        return hash(self._degrees)

    def __repr__(self) -> str:
        return f"OrderedTree({self.encode()!r})"


# -- enumeration ---------------------------------------------------------

MAX_TREES = 5_000_000  # default cap on the trees one enumeration may walk


def _roots(degree_cap: int, root_degree: int | None) -> Sequence[int]:
    """The root degrees of an enumeration in string order: every degree
    up to the cap, or the pinned one if it is within the cap."""
    if root_degree is None:
        return sorted(range(degree_cap + 1), key=str)
    if root_degree < 0:
        raise ValidationError(f"root_degree must be >= 0, got {root_degree}")
    return (root_degree,) if root_degree <= degree_cap else ()


def _shape_pool(height: int, degree_cap: int, roots: Sequence[int],
                max_trees: int = MAX_TREES) -> list:
    """The height-(h-1) pool that the trees over the given root degrees
    take their root subtrees from: (degrees, depths) entries, depths
    counted from the root above them. The root degrees must be in string
    order. A count of trees over all of them together above max_trees
    raises ResourceError before any pool is built.

    The pool is built bottom-up from the lone root, each level the trees
    over the one below with every root degree in string order, moved one
    level down. Codes are prefix free and "," sorts below every digit, so
    the pool, and the trees over it, come out in code (string) order.
    Only a root with children draws on the pool, so without one it is
    empty."""
    if _count(height, degree_cap, roots, max_trees) > max_trees:
        raise ResourceError(
            f"enumeration would produce more than the cap of {max_trees} trees"
        )
    if height == 0 or not any(roots):
        return []
    every = _roots(degree_cap, None)
    subs = [((0,), (1,))]  # every tree of height <= 0, one level down
    for _ in range(height - 1):
        subs = [(degrees, tuple(dep + 1 for dep in depths))
                for degrees, depths in _trees(every, subs)]
    return subs


def _trees(roots: Sequence[int], subs: list) -> Iterator[tuple]:
    """(degrees, depths) of each root of degree d, in the order given,
    over every d-fold product of the pool `subs`, in itertools.product
    order: the one product every enumeration goes through."""
    degrees = [degs for degs, _ in subs]
    depths = [deps for _, deps in subs]
    for d in roots:
        for below, deeper in zip(itertools.product(degrees, repeat=d),
                                 itertools.product(depths, repeat=d)):
            yield sum(below, (d,)), sum(deeper, (0,))


def count_trees(
    height: int, degree_cap: int, *, root_degree: int | None = None
) -> int:
    """Number of trees enumerate_trees would yield, by closed recurrence.

    Free root, height <= h:  N(h) = sum_{d=0}^{D} N(h-1)^d, N(0) = 1.
    Root degree pinned to d:  1 if d == 0, else N(h-1)^d (0 at h = 0 or
    d > D). Exact integers.
    """
    return _count(height, degree_cap, _roots(degree_cap, root_degree), math.inf)


def _count(height: int, degree_cap: int, roots: Sequence[int], limit) -> int:
    """The number of trees over the given root degrees, except that a
    count above `limit` comes back as limit + 1. The recurrence never
    decreases from one level to the next, and a positive root degree's
    power of N(h-1) is at least N(h-1), so once a partial sum passes the
    limit the count does too: the comparison with the limit stays exact
    without forming the exact count, whose digits double with each level."""
    if height < 0 or degree_cap < 0:
        raise ValidationError("height and degree_cap must be >= 0")
    if height == 0 or not any(roots):
        return int(0 in roots)  # the lone root, if it is a root degree
    n = 1  # N(0)
    for level in range(1, height + 1):
        # N(level), over the given root degrees at the top level
        total = 0
        for d in roots if level == height else range(degree_cap + 1):
            total += n**d
            if total > limit:
                return limit + 1
        n = total
    return n


def enumerate_trees(
    height: int,
    degree_cap: int,
    *,
    root_degree: int | None = None,
    max_trees: int = MAX_TREES,
) -> Iterator[OrderedTree]:
    """Yield every tree of height <= `height` whose out-degrees are all
    <= degree_cap, optionally with the root degree pinned, in code order.
    Raises ResourceError up front if the count, which is exact, exceeds
    max_trees."""
    roots = _roots(degree_cap, root_degree)
    subs = _shape_pool(height, degree_cap, roots, max_trees)
    for degrees, depths in _trees(roots, subs):
        yield OrderedTree._trusted(degrees, depths)
