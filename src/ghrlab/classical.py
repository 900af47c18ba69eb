"""Classical-side algorithms: shared-randomness baseline, combinatorial
rectangles with their distance spectrum, and the set-disjointness encoding.

Rectangle spectrum.  For a rectangle A x B over {0,1}^n, rw(S) is the
probability that |X xor Y| lands in S under uniform (X, Y) from A x B,
divided by the same probability under uniform (X, Y) from the full cube.
Exact mode counts pairs with an integer xor-convolution (Walsh-Hadamard
transform of the indicator vectors), so results are Fractions.

Disjointness encoding.  An instance is a pair of l-subsets x, y of
[4l-1] with l = floor(c2 / (4(c2 - c1))).  The encoded strings are laid out
as, with L1 = 12l - 3 and r = (c2 - c1)/2:

  positions 1 .. r*L1          r copies of the 3-bit block encoding
                               (Alice: 100 for i not in x, 010 for i in x;
                                Bob:   001 for i not in y, 010 for i in y)
  Alice then pads with zeros to n.
  Bob appends c2 - (4l-1)(c2-c1) ones, then zeros to n.

Per block, the encodings differ in 2 positions unless i lies in both sets,
so |X3 xor Y3| = c2 - |x intersect y| (c2 - c1); disjoint pairs sit at c2
and singly-intersecting pairs at c1.  A shared permutation and a shared
uniform mask then carry the pair into a rectangle test without changing the
distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
import math
import operator
from typing import Callable, Iterable

import numpy as np

from .bitkit import BitString, Rng, fwht, random_bitstring
from .bounds import exact_binomial_window
from .relation import McEstimate, _estimate_in_chunks, tghr_is_valid


# Exact spectrum operations enumerate all 2**n strings of each side.
MAX_ENUMERATION_N = 20


def require_enumerable(n: int) -> None:
    """Reject n outside [1, MAX_ENUMERATION_N]: explicit enumeration of a
    rectangle over {0,1}^n takes 2**n membership calls per side."""
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(
            f"explicit enumeration needs 1 <= n <= {MAX_ENUMERATION_N}, got n={n}"
        )


MAX_REDUCTION_N = 1 << 16


def require_reduction_size(n: int) -> None:
    """Reject n outside [1, MAX_REDUCTION_N]: reduction_xi draws a
    permutation of n entries and builds lists of n bits for every instance
    it encodes."""
    if not 1 <= n <= MAX_REDUCTION_N:
        raise ValueError(f"the reduction needs 1 <= n <= {MAX_REDUCTION_N}, got n={n}")


# Shared sample bytes per baseline run.  Scoring t samples holds the uint32
# words Rng.bit_rows drew them from, and _xor_weights' buffer and its one
# temporary, each the samples padded to whole words of 1, 2, 4 or 8 bytes,
# plus an 8-byte sum per row wider than one word.  By tracemalloc that
# peaks at 3 - 3.1 bytes per sample byte for rows of whole 8-byte words
# (n = 64, 1024) and at most 6.7 at any width (n = 1; 5.8 for the 9-byte
# rows of n = 72), where the byte-table lookup it replaced took 11 - 15.
# tghr_baseline scores all t, at most about 112 MiB at 2**24 bytes;
# estimate_baseline_success scores a chunk of trials' first reads, about
# _CHUNK_BYTES, and then one further chunk of one trial at a time, the
# largest at most (t + _FIRST_SAMPLES)/2 samples.
MAX_SHARED_SAMPLE_BYTES = 1 << 24


def require_shared_samples(n: int, t: int) -> None:
    """Reject t < 1, and t samples of n bits that hold more than
    MAX_SHARED_SAMPLE_BYTES bytes: tghr_baseline draws all t * ceil(n/8) of
    them at once, and a failing trial of estimate_baseline_success draws
    them all in chunks."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    size = t * ((n + 7) // 8)
    if size > MAX_SHARED_SAMPLE_BYTES:
        raise ValueError(
            f"t * ceil(n/8) = {size} shared sample bytes exceeds the cap "
            f"2**{MAX_SHARED_SAMPLE_BYTES.bit_length() - 1}, got n={n}, t={t}"
        )


def tghr_baseline(
    x: BitString, y: BitString, t: int, shared_rng: Rng
) -> tuple[BitString, bool]:
    """Shared-randomness protocol for the shift-free relation.

    Both parties read Z_1..Z_t off the shared stream; Alice picks the index
    minimising |Z_i xor x| (lowest index on ties), Bob answers Z_i0 xor y.
    Returns (answer, validity against tghr_is_valid).

    The t samples are drawn in one Rng.bit_rows call, which reads the same
    stream as t calls of random_bitstring(n, shared_rng); their distances to
    x are one _xor_weights pass, and only the winner becomes a BitString.
    """
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    require_shared_samples(x.n, t)
    samples = shared_rng.bit_rows(t, x.n)
    x_bytes = np.frombuffer(x.value.to_bytes(samples.shape[1], "big"), dtype=np.uint8)
    weights = _xor_weights(samples, x_bytes)
    best = samples[int(np.argmin(weights))]  # argmin keeps the first minimum
    tau = BitString(int.from_bytes(best.tobytes(), "big"), x.n) ^ y
    return tau, tghr_is_valid(x, y, tau)


def _xor_weights(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The number of one bits in each row of rows ^ x, for uint8 arrays
    that broadcast to (..., width), with any strides: an array of the
    leading shape.

    The xor is written into a zeroed buffer whose rows are padded to whole
    words of 1, 2, 4 or 8 bytes (the least that holds a row, and 8 bytes
    from 5 on), and each word is counted in place by the SWAR popcount of
    Warren's Hacker's Delight (ch. 5): bit pairs, nibbles and bytes are
    summed within the word and one multiply gathers the bytes' counts in
    its top byte.  Plain unsigned numpy ops, so it runs on numpy 1.24,
    which has no bitwise_count, and builds no index array, unlike a lookup
    of a byte table."""
    shape = np.broadcast_shapes(rows.shape, x.shape)
    width = shape[-1]
    size = 8 if width > 4 else 1 << (width - 1).bit_length()
    words = -(-width // size)
    buf = np.zeros((*shape[:-1], words * size), dtype=np.uint8)
    np.bitwise_xor(rows, x, out=buf[..., :width])
    v = buf.view(f"u{size}")
    ones = (1 << 8 * size) // 255  # 0x01 in every byte
    m1, m2, m4, h = (v.dtype.type(byte * ones) for byte in (0x55, 0x33, 0x0F, 0x01))
    tmp = v >> 1
    tmp &= m1
    v -= tmp
    np.right_shift(v, 2, out=tmp)
    tmp &= m2
    v &= m2
    v += tmp
    np.right_shift(v, 4, out=tmp)
    v += tmp
    v &= m4
    v *= h
    v >>= 8 * size - 8
    return v[..., 0] if words == 1 else v.sum(axis=-1)


# Samples a baseline trial draws with its pair, before any early exit
_FIRST_SAMPLES = 64
# Bytes of first reads that estimate_baseline_success scores at once: 7
# trials at n = 1024.  There, 50 trials in chunks of 1, 4, 7, 16 and 64
# trials took 5.6, 3.5, 3.2, 2.9 and 3.2 ms (medians over 30 seeds on a
# busy 2-core VM): past a few trials the chunk size matters little.
_CHUNK_BYTES = 1 << 16


def _passing_distance(n: int) -> int:
    """The largest d with n - 2d >= 0 and (n - 2d)**2 >= 4n, tghr_is_valid's
    integer test, or -1 when no d passes: the least passing g = n - 2d is
    isqrt(4n - 1) + 1, and every larger g passes too."""
    return (n - math.isqrt(4 * n - 1) - 1) // 2


def estimate_baseline_success(n: int, t: int, trials: int, rng: Rng) -> McEstimate:
    """Success rate of tghr_baseline over uniform input pairs, each trial on
    its own child stream (_estimate_in_chunks): its pair as trial_pair
    draws it, then its t shared samples.

    A trial is decided without the argmin.  tghr_baseline answers tau =
    Z_i0 xor y, so tau xor x xor y = Z_i0 xor x and y cancels: the run is
    valid iff d = |Z_i0 xor x| passes tghr_is_valid's test n - 2d >= 0 and
    (n - 2d)**2 >= 4n.  That test holds for every d up to _passing_distance
    and for no larger d, and i0 minimises |Z_i xor x|, so the run is valid
    iff some sample is within _passing_distance of x.

    So a trial stops at its first passing sample.  It draws x, y and the
    first min(t, _FIRST_SAMPLES) samples in one Rng.bit_rows call, and only
    while none has passed draws a further chunk twice the size of the last,
    capped at the samples left.  Each draw continues the child's stream
    where the last left it, so the samples are tghr_baseline's, and every
    verdict is its verdict; it stays the slow oracle.

    Trials are decided in chunks of consecutive trials whose first reads
    hold about _CHUNK_BYTES (at least one trial; 7 at n = 1024 with t >= 64):
    the chunk's first reads are stacked and scored in one _xor_weights
    pass, and each trial that none of its first samples passes then draws
    and scores its further chunks on its own.  _estimate_in_chunks hands out
    whole chunks, so the estimate does not depend on the thread count."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    require_shared_samples(n, t)
    limit = _passing_distance(n)
    first = 2 + min(t, _FIRST_SAMPLES)

    def later(child: Rng, x: np.ndarray) -> bool:
        drawn = size = first - 2
        while drawn < t:
            samples = child.bit_rows(min(2 * size, t - drawn), n)
            if int(_xor_weights(samples, x).min()) <= limit:
                return True
            size = len(samples)
            drawn += size
        return False

    def hits(children: list[Rng]) -> int:
        rows = np.array([child.bit_rows(first, n) for child in children])
        passed = _xor_weights(rows[:, 2:], rows[:, :1]).min(axis=1) <= limit
        failed = np.flatnonzero(~passed)
        return len(children) - len(failed) + sum(later(children[k], rows[k, 0]) for k in failed)

    per_chunk = max(1, _CHUNK_BYTES // (first * ((n + 7) // 8)))
    return _estimate_in_chunks(trials, per_chunk, rng, hits)


class RectangleSpec:
    """A product set A x B over {0,1}^n given by membership predicates.

    Exact spectrum operations need the explicit 0/1 indicators (guideline
    n <= 16, hard cap MAX_ENUMERATION_N), built lazily: a named family
    builds its own from array arithmetic, a custom one calls its predicates
    on all 2**n strings."""

    def __init__(
        self,
        n: int,
        member_a: Callable[[BitString], bool],
        member_b: Callable[[BitString], bool],
        name: str = "custom",
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.member_a = member_a
        self.member_b = member_b
        self.name = name
        self._sets: tuple[np.ndarray, np.ndarray] | None = None
        self._indicator: Callable[[], np.ndarray] | None = None

    @classmethod
    def _named(
        cls, n: int, member: Callable[[BitString], bool], name: str, indicator: Callable[[], np.ndarray]
    ) -> "RectangleSpec":
        """A square family A = B whose indicator() equals member's enumeration."""
        rect = cls(n, member, member, name=name)
        rect._indicator = indicator
        return rect

    @classmethod
    def full(cls, n: int) -> "RectangleSpec":
        return cls._named(n, lambda z: True, "full", lambda: np.ones(1 << n, dtype=np.int64))

    @classmethod
    def parity_even(cls, n: int) -> "RectangleSpec":
        even = lambda z: z.weight() % 2 == 0
        return cls._named(n, even, "parity_even", lambda: 1 - (_popcounts(n) & 1))

    @classmethod
    def prefix_zeros(cls, n: int, m: int) -> "RectangleSpec":
        if not 0 <= m <= n:
            raise ValueError(f"prefix length {m} outside [0, {n}]")
        zero_prefix = lambda z: z.as_unsigned() >> (n - m) == 0 if m else True
        indicator = lambda: (np.arange(1 << n) >> (n - m) == 0).astype(np.int64)
        return cls._named(n, zero_prefix, f"prefix_zeros({m})", indicator)

    def indicator_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """0/1 indicators indexed by the packed value, built once."""
        if self._sets is not None:
            return self._sets
        require_enumerable(self.n)
        if self._indicator is not None:
            ind = self._indicator()
            ind.setflags(write=False)  # one array serves as A's and as B's
            self._sets = (ind, ind)
            return self._sets
        size = 1 << self.n
        ind_a = np.zeros(size, dtype=np.int64)
        ind_b = np.zeros(size, dtype=np.int64)
        for v in range(size):
            z = BitString(v, self.n)
            if self.member_a(z):
                ind_a[v] = 1
            if self.member_b(z):
                ind_b[v] = 1
        self._sets = (ind_a, ind_b)
        return self._sets

    def sizes(self) -> tuple[int, int]:
        ind_a, ind_b = self.indicator_vectors()
        return int(ind_a.sum()), int(ind_b.sum())

    def density(self) -> Fraction:
        """|A| * |B| / 4**n."""
        size_a, size_b = self.sizes()
        return Fraction(size_a * size_b, 1 << (2 * self.n))

    def mu(self) -> float:
        """log2(n / density); the usual largeness measure of the rectangle."""
        dens = self.density()
        if dens == 0:
            raise ValueError("empty rectangle")
        return math.log2(self.n / dens)


@lru_cache(maxsize=8)
def _popcounts(n: int) -> np.ndarray:
    out = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        out += (np.arange(1 << n) >> b) & 1
    out.setflags(write=False)
    return out


def distance_counts(rect: RectangleSpec) -> np.ndarray:
    """counts[k] = number of pairs (a, b) in A x B with |a xor b| = k.

    Integer xor-convolution of the indicators; intermediate values stay
    below 2**63 for n <= 20."""
    ind_a, ind_b = rect.indicator_vectors()
    prod = fwht(ind_a) * fwht(ind_b)
    pair_counts = fwht(prod) // ind_a.size
    out = np.zeros(rect.n + 1, dtype=np.int64)
    np.add.at(out, _popcounts(rect.n), pair_counts)
    return out


def _distances(dist_set: Iterable[int]) -> list[int]:
    """The distinct distances of dist_set in increasing order, each read
    through operator.index: a numpy integer is accepted, and a float such
    as 1.5 raises TypeError rather than being truncated to a distance."""
    return sorted({operator.index(k) for k in dist_set})


def uniform_distance_mass(n: int, dist_set: Iterable[int]) -> Fraction:
    """P[|X xor Y| in S] for uniform independent X, Y; fair binomial masses summed."""
    keys = _distances(dist_set)
    if any(k < 0 or k > n for k in keys):
        raise ValueError(f"distance outside [0, {n}]")
    if not keys:
        raise ValueError("distance set must be nonempty")
    return sum(exact_binomial_window(n, k, k) for k in keys)


def relative_weight(
    rect: RectangleSpec,
    dist_set: Iterable[int],
    mode: str = "exact",
    trials: int | None = None,
    rng: Rng | None = None,
):
    """Rectangle-to-uniform distance mass ratio rw(S).

    exact mode returns a Fraction from integer pair counts; mc mode
    rejection-samples A and B through the membership predicates and divides
    the empirical rectangle mass by the exact uniform mass.
    """
    if mode == "exact":
        return relative_weights(rect, [dist_set])[0]
    keys = _distances(dist_set)
    uniform_mass = uniform_distance_mass(rect.n, keys)
    if mode == "mc":
        if trials is None or rng is None:
            raise ValueError("mc mode needs trials and rng")
        if trials < 1:
            raise ValueError(f"mc mode needs trials >= 1, got {trials}")
        key_set = set(keys)
        hits = 0
        for i in range(trials):
            child = rng.child(i)
            a = _rejection_sample(rect.n, rect.member_a, child)
            b = _rejection_sample(rect.n, rect.member_b, child)
            if (a ^ b).weight() in key_set:
                hits += 1
        return (hits / trials) / float(uniform_mass)
    raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")


def relative_weights(rect: RectangleSpec, dist_sets: Iterable[Iterable[int]]) -> list[Fraction]:
    """Exact rw(S) for each distance set S, from one distance spectrum of
    the rectangle."""
    counts = distance_counts(rect)
    size_a, size_b = rect.sizes()
    if size_a == 0 or size_b == 0:
        raise ValueError("empty rectangle")
    weights = []
    for dist_set in dist_sets:
        keys = _distances(dist_set)
        uniform_mass = uniform_distance_mass(rect.n, keys)
        rect_mass = Fraction(int(sum(counts[k] for k in keys)), size_a * size_b)
        weights.append(rect_mass / uniform_mass)
    return weights


# Draws _rejection_sample makes before it gives up on a rectangle side
_REJECTION_CAP = 100000


def _rejection_sample(n: int, member: Callable[[BitString], bool], rng: Rng) -> BitString:
    for _ in range(_REJECTION_CAP):
        z = random_bitstring(n, rng)
        if member(z):
            return z
    raise ValueError("rectangle member sampling did not hit within the cap")


@dataclass(frozen=True)
class DisjointnessInstance:
    """A pair of l-subsets of the ground set [4l - 1]."""

    l: int
    x: frozenset[int]
    y: frozenset[int]

    def __post_init__(self):
        ground = set(range(1, 4 * self.l))
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if not (self.x <= ground and self.y <= ground):
            raise ValueError(f"sets must lie in [1, {4 * self.l - 1}]")
        if len(self.x) != self.l or len(self.y) != self.l:
            raise ValueError(f"sets must have size {self.l}")

    def intersection_size(self) -> int:
        return len(self.x & self.y)


def all_instances(l: int):
    """Every instance at parameter l, in lexicographic order."""
    ground = range(1, 4 * l)
    for xs in combinations(ground, l):
        for ys in combinations(ground, l):
            yield DisjointnessInstance(l, frozenset(xs), frozenset(ys))


@dataclass(frozen=True)
class XiParameters:
    """Derived layout constants; construction flags any inconsistent triple."""

    c1: int
    c2: int
    n: int
    l: int
    copies: int
    block_len: int
    ones_run: int
    bob_zero_pad: int
    alice_zero_pad: int


def xi_parameters(c1: int, c2: int, n: int) -> XiParameters:
    """Validate (c1, c2, n) and lay out the encoded segments.

    Raises on any violated constraint instead of adjusting: c1 < c2, even
    difference, 3*c2 <= 4*c1, and both zero pads nonnegative with the three
    Bob segments summing exactly to n.
    """
    n = operator.index(n)
    require_reduction_size(n)
    if not 0 < c1 < c2:
        raise ValueError(f"need 0 < c1 < c2, got ({c1}, {c2})")
    if (c2 - c1) % 2:
        raise ValueError(f"c2 - c1 must be even, got {c2 - c1}")
    if 3 * c2 > 4 * c1:
        raise ValueError(f"need 3*c2 <= 4*c1, got ({c1}, {c2})")
    l = c2 // (4 * (c2 - c1))
    copies = (c2 - c1) // 2
    block_len = 12 * l - 3
    body = block_len * copies
    ones_run = c2 - (4 * l - 1) * (c2 - c1)
    bob_zero_pad = n - c2 - (4 * l - 1) * (c2 - c1) // 2
    alice_zero_pad = n - body
    if ones_run < 0:
        raise ValueError(f"ones run would be negative ({ones_run})")
    if alice_zero_pad < 0 or bob_zero_pad < 0:
        raise ValueError(
            f"n={n} too small for (c1, c2)=({c1}, {c2}): pads ({alice_zero_pad}, {bob_zero_pad})"
        )
    if body + ones_run + bob_zero_pad != n:
        raise ValueError(
            f"segment bookkeeping broken: {body} + {ones_run} + {bob_zero_pad} != {n}"
        )
    return XiParameters(c1, c2, n, l, copies, block_len, ones_run, bob_zero_pad, alice_zero_pad)


@dataclass(frozen=True, eq=False)
class XiTranscript:
    """All intermediate strings of one encoding run."""

    instance: DisjointnessInstance
    params: XiParameters
    x1: BitString
    y1: BitString
    x2: BitString
    y2: BitString
    x3: BitString
    y3: BitString
    x4: BitString
    y4: BitString
    x5: BitString
    y5: BitString
    permutation: np.ndarray
    mask: BitString
    accepted: bool

    def encoded_distance(self) -> int:
        return (self.x3 ^ self.y3).weight()

    def masked_distance(self) -> int:
        return (self.x5 ^ self.y5).weight()


def _repunit(count: int, width: int) -> int:
    """count 1 bits, width bits apart from bit 0 up."""
    return ((1 << count * width) - 1) // ((1 << width) - 1)


def _encode_blocks(members: frozenset[int], l: int, alice: bool) -> int:
    """The 3-bit codes of 1, ..., 4l - 1 in position order, read as one
    binary numeral: 010 for a member, otherwise 100 for Alice and 001 for
    Bob."""
    marked = sum(1 << 3 * (4 * l - 1 - i) for i in members)
    return marked << 1 | (_repunit(4 * l - 1, 3) ^ marked) << (2 if alice else 0)


def reduction_xi_many(
    instances: Iterable[DisjointnessInstance],
    c1: int,
    c2: int,
    n: int,
    rect: RectangleSpec,
    rng: Rng,
) -> list[XiTranscript]:
    """Encode disjointness instances into masked rectangle tests under one
    shared (S, T): the permutation and then the mask are drawn from rng
    once, in that fixed order, and every instance is encoded under them, so
    the transcripts equal reduction_xi's for each instance on a fresh copy
    of rng.  They share one read-only permutation array.

    The checks run before any draw, in reduction_xi's order: the
    parameters, each instance's l, then the rectangle's n."""
    params = xi_parameters(c1, c2, n)
    instances = list(instances)
    for inst in instances:
        if inst.l != params.l:
            raise ValueError(f"instance has l={inst.l}, parameters give l={params.l}")
    if rect.n != n:
        raise ValueError(f"rectangle is over n={rect.n}, reduction needs {n}")
    perm = rng.permutation(n)
    perm.setflags(write=False)
    mask = random_bitstring(n, rng)
    return [_encode_xi(inst, params, rect, perm, mask) for inst in instances]


def reduction_xi(
    inst: DisjointnessInstance,
    c1: int,
    c2: int,
    n: int,
    rect: RectangleSpec,
    rng: Rng,
) -> XiTranscript:
    """Encode a disjointness instance into a masked rectangle test: the
    one-instance case of reduction_xi_many.

    The shared permutation and mask are drawn from rng in that fixed order
    and do not depend on the instance, so replaying a seed across instances
    reuses the same (S, T)."""
    return reduction_xi_many([inst], c1, c2, n, rect, rng)[0]


def _encode_xi(
    inst: DisjointnessInstance, params: XiParameters, rect: RectangleSpec, perm: np.ndarray, mask: BitString
) -> XiTranscript:
    """One instance's transcript under the shared permutation and mask.

    The encodings are ints: x2 and y2 repeat the blocks of x1 and y1 by
    multiplying with a repunit of block_len-bit blocks, x3 and y3 append
    their pads and Bob's ones run by shifts, and one (2, n) permutation
    moves the bit at position i + 1 of x3 and y3 to position perm[i] + 1
    of x4 and y4."""
    n, width = params.n, params.block_len
    x1 = BitString(_encode_blocks(inst.x, params.l, alice=True), width)
    y1 = BitString(_encode_blocks(inst.y, params.l, alice=False), width)
    x2, y2 = (BitString(z.value * _repunit(params.copies, width), width * params.copies) for z in (x1, y1))
    x3 = BitString(x2.value << params.alice_zero_pad, n)
    ones = (1 << params.ones_run) - 1
    y3 = BitString((y2.value << params.ones_run | ones) << params.bob_zero_pad, n)
    moved = np.empty((2, n), dtype=np.uint8)
    moved[:, perm] = [x3.to_array(), y3.to_array()]
    pad = -n % 8  # packbits fills the last byte from its high bit
    x4, y4 = (BitString(int.from_bytes(row.tobytes(), "big") >> pad, n) for row in np.packbits(moved, axis=1))
    x5 = x4 ^ mask
    y5 = y4 ^ mask
    accepted = bool(rect.member_a(x5) and rect.member_b(y5))
    return XiTranscript(
        instance=inst,
        params=params,
        x1=x1,
        y1=y1,
        x2=x2,
        y2=y2,
        x3=x3,
        y3=y3,
        x4=x4,
        y4=y4,
        x5=x5,
        y5=y5,
        permutation=perm,
        mask=mask,
        accepted=accepted,
    )


def xi_k_repetition(
    inst: DisjointnessInstance,
    k: int,
    c1: int,
    c2: int,
    n: int,
    rect: RectangleSpec,
    rng: Rng,
) -> bool:
    """AND of k independent encoding acceptances.

    Run i uses rng.child(i), so the shared randomness of every run is a
    function of (seed, i) alone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return all(
        reduction_xi(inst, c1, c2, n, rect, rng.child(i)).accepted for i in range(k)
    )
