"""Exact samplers for geometric Galton-Watson trees and their local limits.

Five generators live here: the plain branching process, the generation-size
bridge for trees conditioned on {Z_n = a}, the Kesten spine tree, the
Poisson-immigration skeleton, and the condensation tree (in both of its
equivalent constructions). Each one consumes an explicit RandomSource and is
reproducible bit for bit from the seed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .errors import AuditError, ResourceError, TruncationError, ValidationError
from .exactlaw import _check_theta, log_forest_pmf
from .logspace import LOG_ZERO, log_add
from .offspring import (
    OffspringParams,
    condensation_offspring_params,
    extinction_params,
    immigration_rate,
    survivor_offspring_param,
)
from .rng import RandomSource
from .treekit import OrderedTree

DEFAULT_MAX_NODES = 1_000_000

# Mass of the bridge kernel that the support scan must account for before a
# draw is accepted; anything less raises TruncationError.
BRIDGE_RTOL = 1e-12


class _Budget:
    """Shared node counter so one sample cannot grow without bound."""

    __slots__ = ("left", "cap")

    def __init__(self, cap: int):
        self.left = cap
        self.cap = cap

    def spend(self, count: int = 1) -> None:
        self.left -= count
        if self.left < 0:
            raise ResourceError(f"sampled tree exceeded the {self.cap}-node cap")


@dataclass(frozen=True)
class TypedTree:
    """An ordered tree plus its survivor-flag column.

    `flags` holds one character per node in preorder, aligned with
    tree.degrees: "1" for a survivor, "0" for an extinction node. The column
    rides next to OrderedTree.encode() in sampler output, so a typed tree
    round-trips through two text fields.
    """

    tree: OrderedTree
    flags: str

    def __post_init__(self) -> None:
        if len(self.flags) != self.tree.size:
            raise ValidationError(
                f"flag column length {len(self.flags)} does not match "
                f"{self.tree.size} nodes"
            )
        if not set(self.flags) <= {"0", "1"}:
            raise ValidationError("flag column holds characters other than 0 and 1")

    def survivor_counts(self, depth: int) -> list[int]:
        """Number of survivors per level, for levels 0 .. depth."""
        counts = [0] * (depth + 1)
        for level, bit in zip(self.tree.depths, self.flags):
            if bit == "1":
                counts[level] += 1
        return counts

    def flag_string(self) -> str:
        """The flag column, as sampler output prints it."""
        return self.flags


# ---------------------------------------------------------------------------
# plain trees and the conditioned bridge


def sample_gw(
    p: OffspringParams,
    rng: RandomSource,
    depth: int,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> OrderedTree:
    """One branching tree truncated at `depth`, grown level by level."""
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    budget = _Budget(max_nodes)
    budget.spend()
    levels = []
    width = 1
    for _ in range(depth):
        degs = [rng.offspring(p) for _ in range(width)]
        levels.append(degs)
        width = sum(degs)
        budget.spend(width)
        if width == 0:
            return OrderedTree.from_level_degrees(levels)
    levels.append([0] * width)
    return OrderedTree.from_level_degrees(levels)


@lru_cache(maxsize=262144)
def _cached_forest(eta: float, q: float, k: int, gens: int, a: int) -> float:
    return log_forest_pmf(OffspringParams(eta, q), k, gens, a)


# Tables kept for each of the two scans below, least recently used dropped
# first. A table holds one float per term that some draw has needed, never
# more than its scan's length (1024 + 64 (z + a) sizes for the bridge,
# s + 1 counts for an allocation).
_SCAN_TABLES = 4096


class _LazyScan:
    """The running values of one inverse-cdf scan, kept between draws and
    computed in scan order only as far as some draw has needed them.

    step(acc, i) returns the accumulator after term i and the value the
    scan compares with its target there. The values never decrease, so the
    first one at or above a target, which the scan would stop at, is found
    by bisection once it has been computed.
    """

    __slots__ = ("values", "_acc", "_step", "_length")

    def __init__(self, step: Callable[[float, int], tuple], acc: float, length: int):
        self.values: list[float] = []
        self._acc = acc
        self._step = step
        self._length = length

    def first_at_least(self, target: float) -> int:
        """Index of the first value >= target; the scan's length when every
        value lies below it."""
        values = self.values
        if values and values[-1] >= target:
            return bisect_left(values, target)
        step = self._step
        for i in range(len(values), self._length):
            self._acc, v = step(self._acc, i)
            values.append(v)
            if v >= target:
                return i
        return self._length


@lru_cache(maxsize=_SCAN_TABLES)
def _bridge_table(eta: float, q: float, z: int, gens_after: int, a: int) -> _LazyScan:
    """The bridge kernel's scan over sizes b = 1, 2, ... up to its cap: the
    value at index b - 1 is log of the kernel mass on {1, ..., b}.

    Size b carries weight forest(z, 1, b) * forest(b, gens_after, a), and
    the normalizer is forest(z, gens_after + 1, a) by one-step
    decomposition.
    """
    log_total = _cached_forest(eta, q, z, gens_after + 1, a)

    def step(acc: float, i: int) -> tuple[float, float]:
        b = i + 1
        lw = _cached_forest(eta, q, z, 1, b) + _cached_forest(eta, q, b, gens_after, a)
        acc = log_add(acc, lw)
        return acc, acc - log_total

    return _LazyScan(step, LOG_ZERO, 1024 + 64 * (z + a))


def _bridge_step(
    p: OffspringParams, z: int, gens_after: int, a: int, rng: RandomSource
) -> int:
    """Draw the next generation size of the conditioned chain: the current
    size is z, with gens_after generations still to go before the pinned
    endpoint a."""
    if gens_after == 0:
        return a
    table = _bridge_table(p.eta, p.q, z, gens_after, a)
    i = table.first_at_least(math.log(rng.uniform()))
    if i < len(table.values):
        return i + 1
    cap = i  # every size up to the cap is scanned and none reached log_u
    covered = table.values[-1]
    if covered < math.log1p(-BRIDGE_RTOL):
        raise TruncationError(
            f"bridge kernel scan stopped at b={cap} covering only "
            f"exp({covered}) of the mass"
        )
    # The scan certified all but < BRIDGE_RTOL of the kernel and the draw
    # fell in that sliver; the largest scanned size is the honest answer.
    return cap


@lru_cache(maxsize=_SCAN_TABLES)
def _allocation_table(eta: float, q: float, parents: int, s: int) -> _LazyScan:
    """The scan for the first of `parents` ordered parents sharing s
    children: the value at index x is the conditional cdf of its count at x,
    given the total."""
    p = OffspringParams(eta, q)
    log_den = _cached_forest(eta, q, parents, 1, s)

    def step(cum: float, x: int) -> tuple[float, float]:
        lx = p.log_pmf(x) + _cached_forest(eta, q, parents - 1, 1, s - x)
        cum += math.exp(lx - log_den)
        return cum, cum

    return _LazyScan(step, 0.0, s + 1)


def _allocate(p: OffspringParams, z: int, b: int, rng: RandomSource) -> list[int]:
    """Split b children among z ordered parents as iid draws given the sum."""
    degs = []
    s = b
    for j in range(z - 1):
        table = _allocation_table(p.eta, p.q, z - j, s)
        # the count is the first x with u < cdf(x), that is with cdf(x) at
        # or above the next double after u; rounding may leave the whole
        # scan below u, and then the parent takes all s
        u = rng.uniform()
        x = min(table.first_at_least(math.nextafter(u, math.inf)), s)
        degs.append(x)
        s -= x
    degs.append(s)
    return degs


def sample_conditioned(
    p: OffspringParams,
    n: int,
    a: int,
    rng: RandomSource,
    depth: int,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> OrderedTree:
    """One tree distributed as the depth-restriction of GW(p) given Z_n = a.

    Runs the generation-size Markov bridge first, then fills in each level
    by allocating offspring counts left to right in Neveu order.
    """
    if a < 1:
        raise ValidationError(f"target generation size must be >= 1, got {a}")
    if not 1 <= depth <= n:
        raise ValidationError(f"need 1 <= depth <= n, got depth={depth}, n={n}")
    budget = _Budget(max_nodes)
    budget.spend()
    sizes = [1]
    for m in range(depth):
        nxt = _bridge_step(p, sizes[-1], n - m - 1, a, rng)
        sizes.append(nxt)
        budget.spend(nxt)
    levels = [_allocate(p, sizes[m], sizes[m + 1], rng) for m in range(depth)]
    levels.append([0] * sizes[depth])
    return OrderedTree.from_level_degrees(levels)


# ---------------------------------------------------------------------------
# limit trees


def _materialize(
    branch: Callable[[int], tuple],
    law: OffspringParams,
    rng: RandomSource,
    depth: int,
    budget: _Budget,
) -> TypedTree:
    """Grow a survivor-typed tree truncated at `depth`, in preorder.

    Each survivor short of the horizon gets (degree, surviving child
    positions) from branch(level); preorder meets the survivors of a level
    left to right. Every other node draws its degree from the mirrored law.
    Nodes wait on one stack as (level, survivor?) with the leftmost child
    on top, so pops follow preorder, which fixes the order of every draw;
    children are paid for as they are pushed, so the stack never outgrows
    the budget. Each node's depth is recorded with its degree, so the tree
    needs no validation walk.
    """
    degs: list[int] = []
    depths: list[int] = []
    flags: list[str] = []
    budget.spend()
    stack = [(0, True)]
    while stack:
        level, survivor = stack.pop()
        flags.append("1" if survivor else "0")
        depths.append(level)
        if level == depth:
            degs.append(0)
            continue
        if survivor:
            k, spos = branch(level)
            stack.extend((level + 1, i in spos) for i in range(k - 1, -1, -1))
        else:
            k = rng.offspring(law)
            stack.extend([(level + 1, False)] * k)
        degs.append(k)
        budget.spend(k)
    return TypedTree(OrderedTree._trusted(tuple(degs), tuple(depths)), "".join(flags))


def _scatter(s: int, qhat: float, rng: RandomSource) -> tuple[int, frozenset]:
    """Total degree of a survivor with s surviving children, drawn from the
    size-biased law, and the uniform positions of those children."""
    k = rng.size_biased_total(qhat, s)
    return k, frozenset(rng.uniform_subset(k, s))


def _skeleton_branch(skeleton: list[list[tuple]]) -> Callable[[int], tuple]:
    """branch(level) over a skeleton drawn as one left-to-right list of
    (degree, surviving positions) per level."""
    queues = [iter(level) for level in skeleton]
    return lambda level: next(queues[level])


def sample_kesten(
    p: OffspringParams,
    rng: RandomSource,
    depth: int,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> TypedTree:
    """Kesten tree truncated at `depth`: one survivor spine, mirrored-law
    bushes everywhere else.

    Each spine node draws its total degree from the once-size-biased law,
    places the unique surviving child uniformly, and the remaining children
    grow independent subcritical-or-critical bushes.
    """
    if p.eta >= 1.0:
        raise ValidationError("the Kesten tree needs eta < 1")
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    ext = extinction_params(p)
    qhat = ext.law.q

    def branch(level: int) -> tuple[int, tuple]:
        k = rng.size_biased_total(qhat, 1)
        return k, (rng.below(k),)

    return _materialize(branch, ext.law, rng, depth, _Budget(max_nodes))


def sample_poisson_tree(
    p: OffspringParams,
    theta: float,
    rng: RandomSource,
    depth: int,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> TypedTree:
    """Poisson-immigration skeleton truncated at `depth`.

    Level by level: the number of new survivor slots is Poisson with mean
    theta times the level intensity, the slots spread over the current
    survivors uniformly among positive compositions, each survivor then
    draws its total degree from the size-biased law of its survivor count
    and scatters those children uniformly. Extinction nodes grow plain
    bushes on the mirrored law. At theta = 0 no slot ever opens: the
    skeleton is the Kesten spine, as the theta = 0 law says.
    """
    _check_theta(theta)
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    ext = extinction_params(p)
    qhat = ext.law.q
    # the skeleton's nodes are nodes of the tree: count them as they come
    budget = _Budget(max_nodes)
    budget.spend()
    skeleton = []
    width = 1
    for h in range(depth):
        # more new survivors than the cap cannot fit, so stop counting there
        delta = rng.poisson(theta * immigration_rate(p, h), limit=max_nodes)
        # the next level's survivors first, then their extinct siblings
        budget.spend(width + delta)
        counts = rng.positive_composition(width + delta, width)
        level = [_scatter(s, qhat, rng) for s in counts]
        budget.spend(sum(k for k, _ in level) - width - delta)
        skeleton.append(level)
        width += delta
    return _materialize(
        _skeleton_branch(skeleton), ext.law, rng, depth, _Budget(max_nodes)
    )


def sample_condensation(
    p: OffspringParams,
    k0: int,
    rng: RandomSource,
    depth: int,
    variant: str = "two_type",
    max_nodes: int = DEFAULT_MAX_NODES,
):
    """Condensation tree seen through the first k0 children of the root.

    The root of the full object has infinitely many children, so only the
    (depth, k0)-restricted view is ever materialized. Two constructions of
    the same law sit behind the `variant` switch:

      "inhomogeneous": every node at depth m >= 1 draws the depth-m tilted
          offspring law; returns a plain OrderedTree.
      "two_type": the first k0 root children are survivors independently
          with probability max(q, eta); a survivor at depth h draws its
          number of surviving children geometrically on {1, 2, ...}, its
          total degree from the matching size-biased law, scatters the
          survivors uniformly, and extinction nodes grow mirrored-law
          bushes; returns a TypedTree.
    """
    if k0 < 1:
        raise ValidationError(f"k0 must be >= 1, got {k0}")
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    budget = _Budget(max_nodes)
    if variant == "inhomogeneous":
        return _condensation_inhom(p, k0, rng, depth, budget)
    if variant == "two_type":
        return _condensation_two_type(p, k0, rng, depth, budget)
    raise ValidationError(f"unknown condensation variant {variant!r}")


def _condensation_inhom(
    p: OffspringParams, k0: int, rng: RandomSource, depth: int, budget: _Budget
) -> OrderedTree:
    laws = {m: condensation_offspring_params(p, m) for m in range(1, depth)}
    degs = [k0]
    depths = [0]
    budget.spend(1 + k0)
    # levels of the nodes still to grow, the next in preorder on top
    stack = [1] * k0
    while stack:
        m = stack.pop()
        depths.append(m)
        if m == depth:
            degs.append(0)
            continue
        k = rng.offspring(laws[m])
        degs.append(k)
        budget.spend(k)
        stack.extend([m + 1] * k)
    return OrderedTree._trusted(tuple(degs), tuple(depths))


def _condensation_two_type(
    p: OffspringParams, k0: int, rng: RandomSource, depth: int, budget: _Budget
) -> TypedTree:
    ext = extinction_params(p)
    qhat = ext.law.q
    root_surv = frozenset(i for i in range(k0) if rng.uniform() < qhat)
    # the skeleton's nodes are nodes of the tree: count them as they come
    drawn = _Budget(budget.cap)
    drawn.spend(1 + k0)
    skeleton = [[(k0, root_surv)]]
    width = len(root_surv)
    for h in range(1, depth):
        nu = survivor_offspring_param(p, h)
        level = [_scatter(rng.geometric_pos(nu), qhat, rng) for _ in range(width)]
        drawn.spend(sum(k for k, _ in level))
        skeleton.append(level)
        width = sum(len(spos) for _, spos in level)
    return _materialize(_skeleton_branch(skeleton), ext.law, rng, depth, budget)


# ---------------------------------------------------------------------------
# audits


def _audit_closure(tt: TypedTree, depth: int) -> tuple[int, ...]:
    """The root survives, no survivor lies below `depth`, and survival is
    closed under taking parents. Returns the tree's parent indices."""
    if tt.flags[0] != "1":
        raise AuditError("the root is not a survivor")
    parents = tt.tree.parents()
    for i, (bit, level, par) in enumerate(zip(tt.flags, tt.tree.depths, parents)):
        if bit != "1":
            continue
        if level > depth:
            raise AuditError(f"survivor node {i} lies below level {depth}")
        if par >= 0 and tt.flags[par] != "1":
            raise AuditError(f"survivor node {i} has a non-survivor parent")
    return parents


def audit_spine(tt: TypedTree, depth: int) -> None:
    """Kesten invariants: survival is a single chain from root to level
    `depth`, one survivor per level. Raises AuditError otherwise."""
    _audit_closure(tt, depth)
    counts = tt.survivor_counts(depth)
    for level, c in enumerate(counts):
        if c != 1:
            raise AuditError(f"level {level} holds {c} survivors, wanted 1")


def audit_skeleton(tt: TypedTree, depth: int, allow_barren_root: bool = False) -> None:
    """Skeleton invariants: the root survives, survival is closed under
    taking parents, and every survivor short of the horizon has a surviving
    child. A condensation view keeps only k0 of the root's infinitely many
    children, so its root may legitimately end up barren; pass
    allow_barren_root=True there."""
    parents = _audit_closure(tt, depth)
    survivors = [i for i, bit in enumerate(tt.flags) if bit == "1"]
    with_children = {parents[i] for i in survivors}
    for i in survivors:
        level = tt.tree.depths[i]
        if level < depth and i not in with_children:
            if i == 0 and allow_barren_root:
                continue
            raise AuditError(
                f"survivor node {i} at level {level} has no survivor child"
            )
