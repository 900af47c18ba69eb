"""Simultaneous-message protocol simulation via its exact outcome law.

The joint measurement outcome (J, S) for inputs (x, y) has probability
(2*delta - n)**2 / n**3 at cell (j, s), where delta = delta(x, y, (j, s)),
so sampling reduces to one uniform integer draw below n**3 per outcome.
Every row of those numerators sums to exactly n**2, so a draw r lands in row
r // n**2 and protocol runs build only the rows their draws land in, for a
chunk of trials at a time (_outcomes; sample_outcomes is its one-pair
case), and typicality and failure come from the streamed in-window
statistic.  The full-table law, oracle.OutcomeDistribution, and the
explicit state vectors it is checked against live in ghrlab.oracle.

A full protocol answer is log2 n independent outcomes; the t-repetition
variant samples only t outcomes and tiles them in order (o_1..o_t, o_1..o_t,
..., prefix) up to length log2 n.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .bitkit import BitString, Rng
from .bounds import exact_binomial_tail
from .relation import (
    McEstimate,
    TransformIndex,
    _answer_valid,
    _check_pair,
    _estimate_in_chunks,
    _row_cells,
    _signs,
    _trial_signs,
    aleph_statistic,
    aleph_statistics,
    answer_length,
    enumerate_pairs,
    is_typical,
    require_transform_size,
)


# estimate_success's chunks of trials, and sample_outcomes' slices of draws,
# hold at most this many cells of rows, 8 bytes each in the reader's buffers
# (relation._row_cells): 2 MiB, 25 trials of 10 rows at n = 1024.  A sweep
# of 2**16 ... 2**19 at n = 256, 1024 and 4096 is in CHANGES.md.
_CHUNK_CELLS = 1 << 18


def require_repetitions(n: int, t: int) -> None:
    """Reject an outcome count t per run outside [1, log2 n].  An answer has
    log2 n entries, so draws past that many would be thrown away, and a
    huge t would allocate its draws before that."""
    m = answer_length(n)
    if not 1 <= t <= m:
        raise ValueError(f"t must be in [1, log2 n = {m}] for n={n}, got {t}")


def _draws(rng: Rng, n: int, count: int) -> np.ndarray:
    """count outcome draws, each uniform below n**3, as
    oracle.OutcomeDistribution.sample takes them with
    generator.integers(0, n**3, size=count, dtype=np.int64).

    That call runs Lemire's method (ACM TOMACS 2019) on one uint32 word per
    draw while n**3 <= 2**32 and on one uint64 word above, and n**3 = 2**b,
    b = 3 log2 n, is a power of two, so it never rejects and a draw is
    (word * 2**b) >> 32 or >> 64: the top b bits of one words32 word
    (n <= 1024) or one words64 word (n = 4096)."""
    b = 3 * answer_length(n)
    if b <= 32:
        return (rng.words32(count) >> (32 - b)).astype(np.int64)
    return (rng.words64(count) >> (64 - b)).astype(np.int64)


def _outcomes(px: np.ndarray, py: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cells that the outcome draws of a stack of pairs land in, from
    one two-level reader (relation._row_cells) with one column per draw.

    px and py are the stack's plain sign rows (relation._stacked_signs),
    and draws[i] holds the draws of its pair i.  The full table's row-major
    cumulative sum reaches exactly k * n**2 at the end of row k - 1, so, as
    in oracle.OutcomeDistribution.sample, draw r lands in shift
    j = r // n**2 + 1 at selector s, the first cell whose prefix sum within
    that row exceeds rem = r mod n**2, which is the number of prefix sums at
    most rem (searchsorted with side="right").

    Column c of the reader is the row of draw c in C order, whose ends are
    the cumulative masses of its blocks of sqrt(n) selectors.  Prefix sums
    only grow, so every prefix sum of a block whose end is at most rem is
    at most rem, and every one past the first block whose end exceeds rem
    exceeds it.  So s is sqrt(n) times the number of block ends at most
    rem, plus the prefix sums at most rem - before within that first block,
    whose cells the reader gives: before is the end of the block ahead of
    it, or 0.  The prefix sums are an int32 cumulative sum of sqrt(n) cells
    checked to sum to the block's mass, at most n**2.

    Returns j and s shaped like draws, and outside, True where the drawn
    cell lies outside the center window."""
    n = px.shape[1]
    per_row, root = n * n, math.isqrt(n)
    j = draws // per_row + 1
    col = np.arange(draws.size)
    ends, cells = _row_cells(px, py, np.arange(len(px)).repeat(draws.shape[1]), j.ravel())
    rem = draws.ravel() % per_row
    block = np.count_nonzero(ends <= rem, axis=0)  # below sqrt(n): ends[-1] = n**2 > rem
    before = np.where(block > 0, ends[block - 1, col], 0)
    squares = cells(col, block)
    within = np.count_nonzero(np.cumsum(squares, axis=0, dtype=np.int32) <= rem - before, axis=0)
    s = block * root + within
    outside = squares[within, col] > n
    return j, s.reshape(draws.shape), outside.reshape(draws.shape)


def sample_outcomes(x: BitString, y: BitString, rng: Rng, count: int) -> tuple[TransformIndex, ...]:
    """count independent outcomes for the pair (x, y), identical to
    oracle.OutcomeDistribution.sample on its full table for the same rng
    state, which is left where that leaves it.  The draws, all taken at
    once (_draws), go to _outcomes in consecutive slices of at most
    max(1, _CHUNK_CELLS // n), so no reader holds more than _CHUNK_CELLS
    cells of rows, whatever the count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_pair(x, y)
    signs, draws = _signs(x, y), _draws(rng, x.n, count)
    width, k = max(1, _CHUNK_CELLS // x.n), answer_length(x.n)
    slices = (_outcomes(*signs, draws[None, start:start + width]) for start in range(0, count, width))
    return tuple(TransformIndex(int(a), BitString(int(b), k)) for j, s, _ in slices for a, b in zip(j[0], s[0]))


def run_protocol(x: BitString, y: BitString, rng: Rng) -> tuple[TransformIndex, ...]:
    """One full protocol run: log2 n independent outcome samples."""
    return run_protocol_trep(x, y, answer_length(x.n), rng)


def run_protocol_trep(x: BitString, y: BitString, t: int, rng: Rng) -> tuple[TransformIndex, ...]:
    """Repetition-limited run: t samples, 1 <= t <= log2 n, tiled to log2 n
    entries.

    The tiling keeps sample order, repeating the block ceil(log2(n)/t) times
    and trimming the last copy."""
    require_repetitions(x.n, t)
    m = answer_length(x.n)
    return (sample_outcomes(x, y, rng, t) * -(-m // t))[:m]


def failure_probability(n: int, statistic: int) -> Fraction:
    """Exact probability that a full protocol run yields an invalid answer,
    from the pair's in-window statistic (relation.aleph_statistic).

    Atypical pairs never fail.  Typical pairs fail iff more than half of the
    m = log2 n sampled cells, at least m // 2 + 1, are in-window, each
    independently with the exact in-window mass p = statistic / n**3
    (oracle.OutcomeDistribution.in_window_mass): a biased binomial tail."""
    if not is_typical(n, statistic):
        return Fraction(0)
    m = answer_length(n)
    return exact_binomial_tail(m, Fraction(statistic, n**3), m // 2 + 1)


def failure_probability_exact(x: BitString, y: BitString) -> Fraction:
    """failure_probability of the pair (x, y)."""
    return failure_probability(x.n, aleph_statistic(x, y))


def estimate_success(n: int, trials: int, rng: Rng, t: int | None = None) -> McEstimate:
    """Monte Carlo success rate of full runs on uniform input pairs.

    Each trial draws its pair as trial_pair does (relation._trial_signs) and
    then its outcome draws, all from its own child stream
    (_estimate_in_chunks).  With t set, each run draws only t outcomes and
    tiles them to log2 n entries.  A t above log2 n gives the same runs as log2 n,
    since a run keeps only its first log2 n draws, so only those are drawn;
    the CLI refuses such a t (require_repetitions), as run_protocol_trep
    does.

    Trials are decided in chunks of consecutive trials, as many as keep a
    chunk's rows within _CHUNK_CELLS cells and at least one: 25 trials at
    n = 1024 with t = 10.  A chunk's outcomes come from one two-level
    reader (_outcomes), each answer is checked against the cells its draws
    read, and typicality is streamed only for the trials whose answer alone
    does not settle validity.  map_trials hands out whole chunks
    (_estimate_in_chunks), so the estimate is a pure function of
    (n, trials, t, seed) regardless of thread count."""
    require_transform_size(n)
    m = answer_length(n)
    t = m if t is None else min(t, m)
    require_repetitions(n, t)
    uses = np.bincount(np.arange(m) % t)  # entries of the tiled answer per draw

    def valid(children: list[Rng]) -> int:
        px, py = _trial_signs(n, children)
        draws = np.array([_draws(child, n, t) for child in children])
        return sum(_answer_valid(_outcomes(px, py, draws)[2] @ uses, px, py))

    return _estimate_in_chunks(trials, max(1, _CHUNK_CELLS // (n * t)), rng, valid)


def exact_success_probability(n: int) -> Fraction:
    """Average success probability over ALL 4**n input pairs, exactly,
    from their statistics streamed as stacks (relation.aleph_statistics)."""
    require_transform_size(n)
    stats = aleph_statistics(*zip(*enumerate_pairs(n)))
    failures = sum((failure_probability(n, stat) for stat in stats), Fraction(0))
    return 1 - failures / 4**n
