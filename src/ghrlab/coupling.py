"""Weight-decoupling sampler and its exact verifier.

Given a fixed pattern s, the sampler draws an auxiliary string a_tilde such
that, for uniform a, the weight |a xor a_tilde xor s| is Binomial(n, 1/2)
distributed independently of |a|.  The construction is sequential over a
fixed coordinate order:

  stage 1 visits the first 2d majority coordinates of s (d = | |s| - n/2 |)
  one at a time and flips each with a probability chosen from the running
  weight so the combined bit comes out fair;

  stage 2 pairs each remaining s=1 coordinate with an s=0 coordinate and
  either leaves the pair alone or flips exactly one side (fair split), with
  the pair-flip probability again a function of the running weight.

Every branch probability is an exact rational in the running weights;
sampling compares one 64-bit draw against that rational.  When |s| < n/2
both a and s are complemented first, which swaps majority roles and leaves
a xor a_tilde xor s unchanged.  The exact tables run the same step rules
backward, last step first, over all a of each weight in Fraction
arithmetic, so independence can be verified with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math

from .bitkit import BitString, Rng
from .bounds import exact_binomial_window
from .util import InvariantError


@dataclass(frozen=True)
class StageOneStep:
    coord: int
    a_bit: int
    flip_probability: Fraction
    flipped: int


@dataclass(frozen=True)
class StageTwoStep:
    one_coord: int
    zero_coord: int
    a_bits: tuple[int, int]
    z_probability: Fraction
    z: int
    tilde_pair: tuple[int, int]


@dataclass(frozen=True)
class CouplingTranscript:
    """Full record of one sampler run.

    When swapped is set the stage rules were executed on the complement of
    (a, s); coords and weights then refer to that complemented input, while
    a, s, and a_tilde are reported in the caller's frame.  weights lists the
    running remaining weight, one entry per processed coordinate batch
    (initial, after each stage-1 coordinate, after each stage-2 pair).
    """

    a: BitString
    s: BitString
    d: int
    swapped: bool
    stage_one: tuple[StageOneStep, ...]
    stage_two: tuple[StageTwoStep, ...]
    a_tilde: BitString
    weights: tuple[int, ...]

    def mixed_weight(self) -> int:
        """|a xor a_tilde xor s|, the decoupled output weight."""
        return (self.a ^ self.a_tilde ^ self.s).weight()


def _require_even_pair(a: BitString, s: BitString) -> None:
    if a.n != s.n:
        raise ValueError(f"length mismatch: {a.n} vs {s.n}")
    if a.n % 2:
        raise ValueError(f"n must be even, got {a.n}")


def _stage_one_flip_probability(m: int, k: int, a_bit: int) -> Fraction:
    # m remaining coordinates carrying weight k; flip only the majority side,
    # and exactly balance at 2k = m (probability zero).
    if 2 * k > m and a_bit == 1:
        return 1 - Fraction(m, 2 * k)
    if 2 * k < m and a_bit == 0:
        return 1 - Fraction(m, 2 * (m - k))
    return Fraction(0)


def _stage_two_z_probability(m: int, k: int, equal: bool) -> Fraction:
    # m >= 2 remaining coordinates carrying weight k; 4k(m-k) vs m(m-1)
    # decides which pair parity is over-represented.
    prod = 4 * k * (m - k)
    ref = m * (m - 1)
    if not equal and prod > ref:
        return 1 - Fraction(ref, prod)
    if equal and prod < ref:
        return 1 - Fraction(ref, 2 * ref - prod)
    return Fraction(0)


def sample_a_tilde(a: BitString, s: BitString, rng: Rng) -> CouplingTranscript:
    """One sampler run for fixed (a, s); all randomness from rng."""
    _require_even_pair(a, s)
    n = a.n
    swapped = 2 * s.weight() < n
    work_a = ~a if swapped else a
    work_s = ~s if swapped else s

    ones = [i for i in range(1, n + 1) if work_s.bit(i)]
    zeros = [i for i in range(1, n + 1) if not work_s.bit(i)]
    two_d = 2 * len(ones) - n
    k = work_a.weight()
    weights = [k]
    tilde_positions: set[int] = set()
    stage_one = []
    for step in range(two_d):
        coord = ones[step]
        m = n - step
        a_bit = work_a.bit(coord)
        p = _stage_one_flip_probability(m, k, a_bit)
        flipped = 1 if (p > 0 and rng.chance(p)) else 0
        if flipped:
            tilde_positions.add(coord)
        stage_one.append(StageOneStep(coord, a_bit, p, flipped))
        k -= a_bit
        weights.append(k)

    stage_two = []
    for idx, (ca, cb) in enumerate(zip(ones[two_d:], zeros)):
        m = n - two_d - 2 * idx
        a1 = work_a.bit(ca)
        a2 = work_a.bit(cb)
        p = _stage_two_z_probability(m, k, a1 == a2)
        z = 1 if (p > 0 and rng.chance(p)) else 0
        pair = (0, 0)
        if z:
            pair = (0, 1) if rng.chance(Fraction(1, 2)) else (1, 0)
            tilde_positions.add(ca if pair[0] else cb)
        stage_two.append(StageTwoStep(ca, cb, (a1, a2), p, z, pair))
        k -= a1 + a2
        weights.append(k)

    tilde_value = sum(1 << (n - pos) for pos in tilde_positions)
    return CouplingTranscript(
        a=a,
        s=s,
        d=two_d // 2,
        swapped=swapped,
        stage_one=tuple(stage_one),
        stage_two=tuple(stage_two),
        a_tilde=BitString(tilde_value, n),
        weights=tuple(weights),
    )


@dataclass(frozen=True)
class CoupledDistTable:
    """Exact conditional law P[|a xor a_tilde xor s| = w given |a| = k].

    rows[k][w] as Fractions; every row sums to 1."""

    n: int
    s: BitString
    rows: tuple[tuple[Fraction, ...], ...]

    def row(self, k: int) -> tuple[Fraction, ...]:
        return self.rows[k]


def require_dp_length(n: int) -> None:
    """Reject n outside the DP's range: it needs an even n >= 2, and its
    table is limited to n <= 16."""
    if n < 2 or n % 2 or n > 16:
        raise ValueError(f"n must be even in [2, 16], got {n}")


def require_tolerance(tol: float) -> None:
    """Reject a negative, NaN or infinite tol: verify_independence compares
    the worst distance with tol exactly, as a Fraction."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite nonnegative number, got {tol}")


def exact_coupled_distribution(s: BitString) -> CoupledDistTable:
    """The sampler's exact output-weight law for uniform a of each weight,
    n even in [2, 16] (require_dp_length).  The rows read s only through its
    length and weight, so each weight class builds them once, in one
    backward pass (_class_rows), for every selector of that class."""
    require_dp_length(s.n)
    return CoupledDistTable(s.n, s, _class_rows(s.n, s.weight()))


@lru_cache(maxsize=None)  # bounded: even n <= 16, weight in [0, n]
def _class_rows(n: int, weight: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows shared by every selector of length n and this weight, from one
    backward pass.  With m coordinates left, laws[k] is the exact law of the
    output weight they still add, given k ones of a among them (each next a
    bit is a 1 with probability k/m).  From m = 0 the pass takes the
    sampler's steps last to first: the stage-2 pairs (m = 2, 4, ..., n - 2d),
    then the stage-1 coordinates (m = n - 2d + 1, ..., n); laws[k0] ends as
    row k0.  Below weight n/2 the rows are the complement class's reversed:
    complementing a maps weight k to n - k and leaves the output law."""
    if 2 * weight < n:
        return _class_rows(n, n - weight)[::-1]
    two_d = 2 * weight - n
    laws: list[tuple[Fraction, ...]] = [(Fraction(1),)]
    for m in range(2, n - two_d + 1, 2):
        laws = [_pair_law(laws, m, k) for k in range(m + 1)]
    for m in range(n - two_d + 1, n + 1):
        laws = [_single_law(laws, m, k) for k in range(m + 1)]
    for k, row in enumerate(laws):
        if min(row) < 0 or sum(row) != 1:
            raise InvariantError(f"coupling row n={n}, weight={weight}, k={k} is not a distribution")
    return tuple(laws)


def _single_law(laws, m: int, k: int) -> tuple[Fraction, ...]:
    """A stage-1 step over laws of m - 1 coordinates: an s = 1 coordinate
    whose output bit is a xor flip xor 1."""
    terms = []
    for a_bit, count in ((1, k), (0, m - k)):
        if count:
            pa = Fraction(count, m)
            pf = _stage_one_flip_probability(m, k, a_bit)
            rest = laws[k - a_bit]
            terms += [(pa * pf, a_bit, rest), (pa * (1 - pf), 1 - a_bit, rest)]
    return _mix(m, terms)


def _pair_law(laws, m: int, k: int) -> tuple[Fraction, ...]:
    """A stage-2 step over laws of m - 2 coordinates: an (s = 1, s = 0) pair
    (a1, a2) that outputs (1 - a1) + a2 unless z flips one of its sides,
    each with half of z's probability."""
    branches = ((1, 1, k * (k - 1)), (0, 0, (m - k) * (m - k - 1)), (1, 0, k * (m - k)), (0, 1, k * (m - k)))
    terms = []
    for a1, a2, count in branches:
        if count:
            pp = Fraction(count, m * (m - 1))
            pz = _stage_two_z_probability(m, k, a1 == a2)
            rest, half = laws[k - a1 - a2], pp * pz / 2
            terms += [(pp * (1 - pz), 1 - a1 + a2, rest), (half, 2 - a1 - a2, rest), (half, a1 + a2, rest)]
    return _mix(m, terms)


def _mix(m: int, terms) -> tuple[Fraction, ...]:
    """The law on [0, m] that mixes each (probability, shift, law) term's
    law, shifted up by its shift."""
    out = [Fraction(0)] * (m + 1)
    for p, shift, law in terms:
        if p:
            for w, q in enumerate(law):
                out[w + shift] += p * q
    return tuple(out)


@dataclass(frozen=True)
class IndependenceReport:
    s: BitString
    max_tv: float
    worst_k: int
    passed: bool


def verify_independence(s: BitString, tol: float = 1e-9) -> IndependenceReport:
    """Compare every conditional row of the DP table against Binomial(n, 1/2).

    Reports the worst total-variation distance over the |a| = k rows; with
    the real sampler the distance is exactly zero.  passed compares that
    distance with tol exactly, so tol must be finite."""
    require_tolerance(tol)
    require_dp_length(s.n)
    distances = _class_distances(s.n, s.weight())
    worst = max(distances)
    return IndependenceReport(s, float(worst), distances.index(worst), worst <= Fraction(tol))


@lru_cache(maxsize=None)  # the same keys as _class_rows
def _class_distances(n: int, weight: int) -> tuple[Fraction, ...]:
    """Total-variation distance of each row of a weight class from Binomial(n, 1/2)."""
    fair = [exact_binomial_window(n, w, w) for w in range(n + 1)]
    return tuple(
        sum(abs(p - q) for p, q in zip(row, fair)) / 2
        for row in _class_rows(n, weight)
    )


def tilde_weight_tail_bound(n: int, d: int, t: float) -> float:
    """Closed-form cap on P[|a_tilde| >= 16 d**2 / n + t]; loose by design."""
    if n < 2 or t < 0:
        raise ValueError("need n >= 2 and t >= 0")
    if t == 0:
        return 1.0
    ln = math.log(n)
    first = 4.0 * math.exp(ln - t / (4.0 * ln))
    second = 2.0 * math.exp(-(t * t) * n / (224.0 * t * n * ln + 2048.0 * d * d * ln))
    return min(1.0, first + second)
