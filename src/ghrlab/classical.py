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
from typing import Callable, Iterable

import numpy as np

from .bitkit import BitString, Rng, fwht, random_bitstring
from .relation import McEstimate, estimate_over_pairs, tghr_is_valid


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


# Shared sample bytes per baseline run: the byte-popcount pass indexes
# _BYTE_WEIGHTS with an intp array, so a run's peak memory grows by about 11
# bytes per sample byte, about 176 MiB at 2**24 bytes.
MAX_SHARED_SAMPLE_BYTES = 1 << 24


def require_shared_samples(n: int, t: int) -> None:
    """Reject t < 1, and t samples of n bits that hold more than
    MAX_SHARED_SAMPLE_BYTES bytes: tghr_baseline draws all t * ceil(n/8) of
    them at once."""
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
    x are one byte-popcount pass, and only the winner becomes a BitString.
    """
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    require_shared_samples(x.n, t)
    samples = shared_rng.bit_rows(t, x.n)
    x_bytes = np.frombuffer(x.value.to_bytes(samples.shape[1], "big"), dtype=np.uint8)
    weights = np.take(_BYTE_WEIGHTS, samples ^ x_bytes).sum(axis=1)
    best = samples[int(np.argmin(weights))]  # argmin keeps the first minimum
    tau = BitString(int.from_bytes(best.tobytes(), "big"), x.n) ^ y
    return tau, tghr_is_valid(x, y, tau)


def estimate_baseline_success(n: int, t: int, trials: int, rng: Rng) -> McEstimate:
    """Success rate of the baseline over uniform input pairs; trial i's
    shared stream is the rest of rng.child(i) after its pair."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    require_shared_samples(n, t)

    def accept(x: BitString, y: BitString, child: Rng) -> bool:
        return tghr_baseline(x, y, t, child)[1]

    return estimate_over_pairs(n, trials, rng, accept)


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


# popcount of every byte value, as uint8 so one lookup per sample byte stays small
_BYTE_WEIGHTS = _popcounts(8).astype(np.uint8)


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


def uniform_distance_mass(n: int, dist_set: Iterable[int]) -> Fraction:
    """P[|X xor Y| in S] for uniform independent X, Y; exact binomial sum."""
    keys = sorted({int(k) for k in dist_set})
    if any(k < 0 or k > n for k in keys):
        raise ValueError(f"distance outside [0, {n}]")
    if not keys:
        raise ValueError("distance set must be nonempty")
    return Fraction(sum(math.comb(n, k) for k in keys), 1 << n)


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
    keys = sorted({int(k) for k in dist_set})
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
        keys = sorted({int(k) for k in dist_set})
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


def _encode_blocks(members: frozenset[int], l: int, alice: bool) -> list[int]:
    bits: list[int] = []
    for i in range(1, 4 * l):
        if i in members:
            bits.extend((0, 1, 0))
        elif alice:
            bits.extend((1, 0, 0))
        else:
            bits.extend((0, 0, 1))
    return bits


def reduction_xi(
    inst: DisjointnessInstance,
    c1: int,
    c2: int,
    n: int,
    rect: RectangleSpec,
    rng: Rng,
) -> XiTranscript:
    """Encode a disjointness instance into a masked rectangle test.

    The shared permutation and mask are drawn from rng in that fixed order
    and do not depend on the instance, so replaying a seed across instances
    reuses the same (S, T)."""
    params = xi_parameters(c1, c2, n)
    if inst.l != params.l:
        raise ValueError(f"instance has l={inst.l}, parameters give l={params.l}")
    if rect.n != n:
        raise ValueError(f"rectangle is over n={rect.n}, reduction needs {n}")
    perm = rng.permutation(n)
    mask = random_bitstring(n, rng)

    x1_bits = _encode_blocks(inst.x, params.l, alice=True)
    y1_bits = _encode_blocks(inst.y, params.l, alice=False)
    x1 = BitString.from_bits(x1_bits)
    y1 = BitString.from_bits(y1_bits)
    x2_bits = x1_bits * params.copies
    y2_bits = y1_bits * params.copies
    x2 = BitString.from_bits(x2_bits)
    y2 = BitString.from_bits(y2_bits)
    x3 = BitString.from_bits(x2_bits + [0] * params.alice_zero_pad)
    y3 = BitString.from_bits(
        y2_bits + [1] * params.ones_run + [0] * params.bob_zero_pad
    )

    x3_arr = x3.to_array()
    y3_arr = y3.to_array()
    x4_arr = np.empty(n, dtype=np.uint8)
    y4_arr = np.empty(n, dtype=np.uint8)
    x4_arr[perm] = x3_arr
    y4_arr[perm] = y3_arr
    x4 = BitString.from_array(x4_arr)
    y4 = BitString.from_array(y4_arr)
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
