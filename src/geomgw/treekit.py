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
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import ResourceError, ValidationError


class OrderedTree:
    """Immutable rooted ordered tree backed by its preorder degree tuple."""

    __slots__ = ("_degrees", "_depths", "_hash")

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
        self._hash = None

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

    def max_degree(self) -> int:
        return max(self._degrees)

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

        levels[m] lists the out-degrees of the depth-m nodes in
        left-to-right order; level m+1 must contain exactly sum(levels[m])
        entries, and the final level must consist of zeros (explicitly).
        This is the natural output shape of the level-by-level samplers.
        """
        if not levels or len(levels[0]) != 1:
            raise ValidationError("level lists must start with the root level")
        for m in range(len(levels) - 1):
            if sum(levels[m]) != len(levels[m + 1]):
                raise ValidationError(
                    f"level {m} announces {sum(levels[m])} children but level "
                    f"{m + 1} has {len(levels[m + 1])} nodes"
                )
        if sum(levels[-1]) != 0:
            raise ValidationError("the last level must close the tree with zeros")
        offsets = [list(itertools.accumulate(lev, initial=0)) for lev in levels]
        out = []
        stack = [(0, 0)]
        while stack:
            m, i = stack.pop()
            d = levels[m][i]
            out.append(d)
            base = offsets[m][i]
            for j in reversed(range(d)):
                stack.append((m + 1, base + j))
        return cls(out)

    def level_degrees(self) -> list[list[int]]:
        """Inverse of from_level_degrees."""
        H = self.height
        out: list[list[int]] = [[] for _ in range(H + 1)]
        for d, dep in zip(self._degrees, self._depths):
            out[dep].append(d)
        return out

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedTree):
            return NotImplemented
        return self._degrees == other._degrees

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._degrees)
        return self._hash

    def __repr__(self) -> str:
        return f"OrderedTree({self.encode()!r})"


def local_distance(t: OrderedTree, s: OrderedTree) -> float:
    """2^-(largest radius m with restrict_k(m, m) images equal), 0 if t == s.

    This is the ultrametric the convergence statements are phrased in.
    The radius-0 images always coincide, so the distance is at most 1.
    """
    if t == s:
        return 0.0
    m = 1
    while t.restrict_k(m, m) == s.restrict_k(m, m):
        m += 1
    return 2.0 ** (-(m - 1))


# -- enumeration ---------------------------------------------------------

MAX_TREES = 5_000_000  # default cap on the trees one enumeration may walk


def _rooted(height: int, degree_cap: int, d: int) -> Iterator[tuple[int, ...]]:
    """Trees of height <= `height` with degrees <= degree_cap whose root has
    degree d, each as the indices of its d root subtrees in the height-1
    pool: the one product loop every enumeration goes through."""
    if d == 0:
        return iter(((),))
    if height == 0:
        return iter(())
    return itertools.product(range(len(_pool(height - 1, degree_cap))), repeat=d)


def _join(pool, d: int, combo: tuple[int, ...]) -> tuple[int, ...]:
    """Degree tuple of the root of degree d over the pool entries `combo`."""
    return sum(map(pool.__getitem__, combo), (d,))


# Only the pools below an enumeration's height are ever asked for, and they
# are small next to the top level, which shape_products streams instead.
@lru_cache(maxsize=32)
def _pool(height: int, degree_cap: int) -> tuple[tuple[int, ...], ...]:
    """All degree tuples of height <= `height` with degrees <= degree_cap,
    in root-degree order."""
    below = _pool(height - 1, degree_cap) if height > 0 else ()
    return tuple(
        _join(below, d, combo)
        for d in range(degree_cap + 1)
        for combo in _rooted(height, degree_cap, d)
    )


def count_trees(
    height: int, degree_cap: int, *, root_degree: int | None = None
) -> int:
    """Number of trees enumerate_trees would yield, by closed recurrence.

    Free root, height <= h:  N(h) = sum_{d=0}^{D} N(h-1)^d, N(0) = 1.
    Root degree pinned to d:  1 if d == 0, else N(h-1)^d (0 at h = 0 or
    d > D). Exact integers.
    """
    if height < 0 or degree_cap < 0:
        raise ValidationError("height and degree_cap must be >= 0")
    if root_degree is not None and root_degree > degree_cap:
        return 0
    if root_degree == 0:
        return 1
    n = 1
    for _ in range(height if root_degree is None else height - 1):
        n = sum(n**d for d in range(degree_cap + 1))
    if root_degree is None:
        return n
    return n**root_degree if height > 0 else 0


def shape_products(
    height: int,
    degree_cap: int,
    *,
    root_degree: int | None = None,
    max_trees: int = MAX_TREES,
) -> tuple[tuple[tuple[int, ...], ...], Iterator[tuple[int, tuple[int, ...]]]]:
    """The trees enumerate_trees yields, in its order, without building them:
    the height-1 pool and, per tree, its root degree d with the pool indices
    of its d root subtrees. Raises ResourceError before touching any pool if
    the count, which is exact, exceeds max_trees."""
    n = count_trees(height, degree_cap, root_degree=root_degree)
    if n > max_trees:
        raise ResourceError(
            f"enumeration would produce {n} trees, above the cap of {max_trees}"
        )
    pool = _pool(height - 1, degree_cap) if height > 0 else ()
    if root_degree is None:
        roots = range(degree_cap + 1)
    else:
        roots = (root_degree,) if root_degree <= degree_cap else ()
    walk = (
        (d, combo) for d in roots for combo in _rooted(height, degree_cap, d)
    )
    return pool, walk


def enumerate_trees(
    height: int,
    degree_cap: int,
    *,
    root_degree: int | None = None,
    max_trees: int = MAX_TREES,
) -> Iterator[OrderedTree]:
    """Yield every tree of height <= `height` whose out-degrees are all
    <= degree_cap, optionally with the root degree pinned. Raises
    ResourceError up front if the count, which is exact, exceeds
    max_trees."""
    pool, walk = shape_products(
        height, degree_cap, root_degree=root_degree, max_trees=max_trees
    )
    for d, combo in walk:
        yield OrderedTree(_join(pool, d, combo))
