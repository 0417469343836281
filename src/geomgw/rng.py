"""Deterministic randomness with a stable, documented derivation scheme.

All sampling in the package flows through RandomSource. The base layer is
numpy's PCG64; on top of it only two primitive draws are ever made
(uniform floats and bounded integers), so a sampler's entire consumption
pattern can be audited draw by draw. Substreams are derived by hashing
the parent seed with SHA-256 rather than with Python's hash(), which is
salted per process and would break run-to-run reproducibility.

The scheme is named so output files can record exactly how their
randomness was produced:

    pcg64-sha256split-v1
        root:   PCG64 seeded with the user seed
        child i: PCG64 seeded with the first 8 bytes (big endian) of
                 SHA-256(b"<parent seed>/<i>")

Seeding PCG64 from an integer runs it through numpy's SeedSequence, whose
per-call Python overhead dwarfs the hash. So a parent seeds its children
CHILD_BLOCK indices at a time: one pass of SeedSequence's mixing over
uint32 arrays gives the PCG64 state words of the whole block, the same
words numpy computes seed by seed.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ValidationError

ALGORITHM = "pcg64-sha256split-v1"

# indices per child seeding block; blocks start at multiples of it
CHILD_BLOCK = 256

# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4  # SeedSequence's default pool, in uint32 words
_STATE_WORDS = 4  # uint64 words PCG64 asks for


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of `count` hash steps, and after the
    last: init * mult^i mod 2^32. It never depends on the data."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# the pool fill hashes each pool word once, then every ordered pair of
# distinct words once; the state draws hash 2 uint32 per uint64 word
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _STATE_WORDS)


def _hashmix(v: np.ndarray, before, after) -> np.ndarray:
    v = (v ^ before) * after
    return v ^ (v >> _XSHIFT)


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """Row i is `np.random.SeedSequence(seeds[i]).generate_state(4,
    np.uint64)`, for uint64 seeds, computed for all rows at once with
    uint32 arithmetic that wraps as the C code's does.

    SeedSequence splits an integer into little-endian uint32 words and pads
    the pool with hashes of 0. Hashing a 0 word gives the same value, so a
    seed below 2^32 (one word) and its two-word form [lo, 0] agree, and
    every 64-bit seed enters as [lo, hi, 0, 0]."""
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    # pool word i takes hash step i
    steps = _HASH_A[:_POOL_SIZE + 1, None]
    pool = _hashmix(pool, steps[:-1], steps[1:])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h = _hashmix(pool[src], _HASH_A[k], _HASH_A[k + 1])
                k += 1
                m = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * h
                pool[dst] = m ^ (m >> _XSHIFT)
    # uint32 output word i reads pool word i mod 4 and takes hash step i
    cycle = np.arange(2 * _STATE_WORDS) % _POOL_SIZE
    steps = _HASH_B[:, None]
    half = _hashmix(pool[cycle], steps[:-1], steps[1:]).astype(np.uint64)
    # uint64 word j is uint32 words 2j (low) and 2j+1 (high), by value
    words = half[0::2] | (half[1::2] << np.uint64(32))
    # PCG64 reads each row's memory directly, so rows must be contiguous
    return np.ascontiguousarray(words.T)


def _child_block(seed: int, start: int) -> tuple[list[int], np.ndarray]:
    """Seeds and PCG64 state words of children start .. start+CHILD_BLOCK-1."""
    prefixes = b"".join(
        hashlib.sha256(f"{seed}/{i}".encode()).digest()[:8]
        for i in range(start, start + CHILD_BLOCK)
    )
    seeds = np.frombuffer(prefixes, dtype=">u8").astype(np.uint64)
    return seeds.tolist(), _seed_sequence_words(seeds)


class _StateWords(ISeedSequence):
    """Hands PCG64 its state words, derived ahead of time. PCG64 asks only
    for `generate_state(4, np.uint64)`, so the arguments are not read."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class RandomSource:
    """Seeded random source: two primitive draws plus the exact
    distribution inverters the samplers need."""

    def __init__(self, seed: int):
        # bool is an int subclass, but its children would hash "True/i"
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValidationError("seed must be an integer")
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._block_start = None

    def child(self, index: int) -> "RandomSource":
        """Independent substream number `index`, derived by hashing.

        The state comes from the parent's latest block of CHILD_BLOCK
        indices, filled on a miss. It depends on (seed, index) alone, so
        the order of calls never changes a stream."""
        if isinstance(index, bool) or not isinstance(index, int):
            raise ValidationError("child index must be an integer")
        row = index % CHILD_BLOCK
        start = index - row
        if start != self._block_start:
            self._block_seeds, self._block_words = _child_block(self.seed, start)
            self._block_start = start
        kid = RandomSource.__new__(RandomSource)
        kid.seed = self._block_seeds[row]
        kid._gen = np.random.Generator(
            np.random.PCG64(_StateWords(self._block_words[row]))
        )
        kid._block_start = None
        return kid

    # -- primitive draws --------------------------------------------------

    def uniform(self) -> float:
        """One float in [0, 1)."""
        return float(self._gen.random())

    def below(self, n: int) -> int:
        """One integer uniform on {0, ..., n-1}."""
        if n < 1:
            raise ValidationError(f"need a positive range, got {n}")
        return int(self._gen.integers(n))

    # -- exact inverters ---------------------------------------------------

    def geometric0(self, q: float) -> int:
        """Failures before the first success: P(j) = q (1-q)^j, j >= 0."""
        u = self.uniform()
        return int(math.log1p(-u) // math.log1p(-q))

    def geometric_pos(self, q: float) -> int:
        """Trials to the first success: P(s) = q (1-q)^(s-1), s >= 1."""
        return 1 + self.geometric0(q)

    def offspring(self, p) -> int:
        """One draw from an OffspringParams law, by single-uniform inversion
        from the top of the tail: u < 1-eta gives 0, otherwise the count is
        read off the geometric tail of the remaining mass."""
        u = self.uniform()
        if u < 1.0 - p.eta:
            return 0
        v = (1.0 - u) / p.eta  # in (0, 1]
        return 1 + int(math.log(v) // math.log1p(-p.q))

    def size_biased_total(self, q: float, s: int) -> int:
        """Total child count of a node carrying s marked lines under the
        s-th order size-biased geometric law C(n,s) q^(s+1) (1-q)^(n-s):
        s plus the failures around s+1 successes of a q-coin."""
        if s < 1:
            raise ValidationError(f"marked line count must be >= 1, got {s}")
        n = s
        for _ in range(s + 1):
            n += self.geometric0(q)
        return n

    def poisson(self, lam: float, *, limit: float = math.inf) -> int:
        """Poisson by cdf inversion, splitting large means exactly through
        additivity (a Poisson sum of halves is Poisson) so no normal
        approximation ever enters. The halves wait on an explicit stack and
        are drawn left half first. Once the running total passes `limit`
        the draw stops there and returns that total: a value above limit,
        which says only that the full draw exceeds it."""
        if not 0.0 <= lam < math.inf:
            raise ValidationError(f"Poisson mean must be finite and >= 0, got {lam}")
        if lam == 0.0:
            return 0
        total = 0
        stack = [lam]
        while stack and total <= limit:
            lam = stack.pop()
            if lam > 30.0:
                half = lam / 2.0
                stack += (lam - half, half)
                continue
            u = self.uniform()
            k = 0
            term = math.exp(-lam)
            cum = term
            while u >= cum and k < 400:
                k += 1
                term *= lam / k
                cum += term
            total += k
        return total

    def positive_composition(self, total: int, parts: int) -> list[int]:
        """Uniform ordered composition of `total` into `parts` positive
        integers, drawn part by part from the exact marginal
        P(first = x) = C(total-x-1, parts-2) / C(total-1, parts-1)."""
        if parts < 1 or total < parts:
            raise ValidationError(
                f"cannot split {total} into {parts} positive parts"
            )
        out = []
        n, m = total, parts
        while m > 1:
            u = self.uniform()
            # walk the pmf with the ratio P(x+1)/P(x) = (n-x-m+1)/(n-x-1)
            x = 1
            pr = (m - 1) / (n - 1)  # P(first = 1), ratio form of the binomials
            cum = pr
            while u >= cum and x < n - m + 1:
                pr *= (n - x - m + 1) / (n - x - 1)
                x += 1
                cum += pr
            out.append(x)
            n -= x
            m -= 1
        out.append(n)
        return out

    def uniform_subset(self, n: int, need: int) -> list[int]:
        """Uniform subset of {0, ..., n-1} of the given size, by sequential
        inclusion with probability need/remaining. Returned sorted."""
        if not 0 <= need <= n:
            raise ValidationError(f"cannot pick {need} of {n}")
        out = []
        left = need
        for i in range(n):
            if left == 0:
                break
            if self.uniform() < left / (n - i):
                out.append(i)
                left -= 1
        return out
