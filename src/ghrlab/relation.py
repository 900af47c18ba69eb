"""Distance transforms and checkers for the gap-Hamming relation family.

A transformation of an input pair (x, y) in {0,1}^n x {0,1}^n is indexed by a
cyclic shift j in [1, n] and a (log2 n)-bit Walsh selector s;
delta(x, y, (j, s)) is the Hamming distance between sigma_j(tau_s xor x) and
y.  The relation layer works in exact integer arithmetic throughout: a
distance enters as its scaled deviation 2*delta - n, the center window test
is (2*delta - n)**2 <= n, and the typicality predicate (is_typical) bounds
the statistic, the sum of (2*delta - n)**2 over in-window cells, by 4n**3/9.
Summed along one shift row the square deviation equals n**2 exactly, which
every row is checked for as one integer Walsh-Hadamard transform
(bitkit.fwht) builds it; no run path builds the whole n x n table, which
lives in ghrlab.oracle.

n must be a power of 4 so that sqrt(n) and log2(n)/2 are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bitkit import BitString, Rng, fwht
from .util import InvariantError, map_trials

MAX_TRANSFORM_SIZE = 4096
# Bytes per cell alive when oracle.delta_table returns: the int16 spectrum,
# its int32 squares and the int64 distances
_TABLE_BYTES_PER_CELL = 2 + 4 + 8


def require_transform_size(n: int) -> None:
    """Reject n that is not 4**k with 1 <= k <= 6.

    The cap keeps one full table (oracle.delta_table) within memory: at
    n = 4096 building it needs about 224 MiB, and every doubling of n
    multiplies that by four."""
    if n < 4 or n & (n - 1) or (n.bit_length() - 1) % 2:
        raise ValueError(f"n must be a power of 4 and >= 4, got {n}")
    if n > MAX_TRANSFORM_SIZE:
        gib = _TABLE_BYTES_PER_CELL * n * n / 2**30
        raise ValueError(
            f"n={n} exceeds the size cap {MAX_TRANSFORM_SIZE}: "
            f"its delta table would need about {gib:.1f} GiB"
        )


def answer_length(n: int) -> int:
    """log2 n, the required number of entries in a relation answer."""
    require_transform_size(n)
    return n.bit_length() - 1


class TransformIndex(NamedTuple):
    """One (shift, selector) pair."""

    j: int
    s: BitString


def _check_pair(x: BitString, y: BitString) -> None:
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    require_transform_size(x.n)


def _signs(x: BitString, y: BitString) -> tuple[np.ndarray, np.ndarray]:
    """The signs of the one-pair stack (x, y) (_stacked_signs)."""
    return _stacked_signs([x], [y])


def _stacked_signs(xs: Sequence[BitString], ys: Sequence[BitString]) -> tuple[np.ndarray, np.ndarray]:
    """Signs of the stack of pairs (xs[i], ys[i]), all of one length n:
    px[i] is the int16 row 1 - 2 * xs[i], and windows[i, j] is
    roll(py_i, -j) for py_i = 1 - 2 * ys[i], j = 0 ... n (_windows)."""
    px = 1 - 2 * np.array([x.to_array() for x in xs], dtype=np.int16)
    py = 1 - 2 * np.array([y.to_array() for y in ys], dtype=np.int16)
    return px, _windows(np.concatenate([py, py], axis=1))


def _windows(doubled: np.ndarray) -> np.ndarray:
    """windows[i, j] = roll(py_i, -j) for j = 0 ... n, given doubled[i], the
    row py_i twice over with its cells adjacent: a read-only view into
    doubled (the strides of sliding_window_view, without its per-call
    checks)."""
    stack, n = doubled.shape[0], doubled.shape[1] // 2
    pair, cell = doubled.strides
    return as_strided(doubled, (stack, n + 1, n), (pair, cell, cell), writeable=False)


def _trial_signs(n: int, rng: Rng, indices: range) -> tuple[np.ndarray, np.ndarray, list[Rng]]:
    """The stacked signs (_stacked_signs) of the pairs trial_pair(n, rng, i)
    draws for i in indices, and the trials' child streams, left where
    trial_pair leaves them.

    Each child draws its x and y bytes with one bit_rows(2, n), which reads
    the stream as trial_pair's draws do, and the bytes become signs
    directly, without a BitString: one (pairs, 3, n) int16 array holds x, y
    and y again, so px and the windows' doubled rows are views of it."""
    children = [rng.child(i) for i in indices]
    bits = np.unpackbits(np.array([child.bit_rows(2, n) for child in children]), axis=2)
    signs = 1 - 2 * bits[:, [0, 1, 1], -n:].astype(np.int16)
    return signs[:, 0], _windows(signs[:, 1:].reshape(len(children), 2 * n)), children


def _spectra(
    px: np.ndarray,
    picked: np.ndarray,
    shifts: np.ndarray | int,
    pairs: np.ndarray | int,
    buffers: tuple[np.ndarray, ...],
    height: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Squares of the Walsh spectra of sign products, and their cumulative
    block sums.

    picked[p, k] is a window roll(py, -j) of some pair (_stacked_signs) and
    px[p] that pair's x signs; shifts[p, k] is the window's shift j and
    pairs[p, k] the pair's position in its stack, each given as anything
    that broadcasts to picked.shape[:2] and read only to name a failed
    column.  Column p * K + k, for K = picked.shape[1], is transformed from
    px[p] * picked[p, k]: its integer FWHT at s is n - 2 * delta(x, y, (j, s)),
    so that column of squares is (2*delta - n)**2 along table row j - 1.
    Every butterfly value is a sum of at most n signs, so int16 is exact for
    n <= MAX_TRANSFORM_SIZE; squares are computed in int32 (squaring in
    int16 would wrap from n = 256 on).

    ends[k, c] is the sum of column c of squares over its first
    (k + 1) * height rows, for a height that divides n (all n rows, one
    block, by default), from int64 sums over blocks of height rows: exact
    for any int32 squares.  By Parseval every column sums to exactly n**2,
    so ends[-1] is n**2 throughout; the first column where it is not raises
    InvariantError naming its shift and its pair.

    buffers come from _block_buffers, with room for the block's cells: the
    sign product goes into the first butterfly buffer, the butterflies
    alternate between the two and the squares fill the third, of which the
    returned squares are a view."""
    stack, width, n = picked.shape
    a, b, squares = (buf[: n * stack * width].reshape(n, -1) for buf in buffers)
    # The product goes into the transform's layout with one inner numpy loop
    # per `width` cells of a row.  From 8 cells on that is the faster way;
    # below, the loops cost more than forming the product in the pairs' own
    # layout and copying it across (a protocol chunk has width 1: 68 against
    # 127 us for 60 columns at n = 1024)
    product = a.reshape(n, stack, width)
    if width >= 8:
        np.multiply(px.T[:, :, None], picked.transpose(2, 0, 1), out=product)
    else:
        product[...] = (px[:, None] * picked).transpose(2, 0, 1)
    np.square(fwht(a, (b, a)), out=squares, dtype=np.int32)
    height = n if height is None else height
    ends = squares.reshape(n // height, height, -1).sum(axis=1, dtype=np.int64)
    np.cumsum(ends, axis=0, out=ends)
    bad = np.flatnonzero(ends[-1] != n * n)
    if bad.size:
        p, k = divmod(int(bad[0]), width)
        j, pair = (np.broadcast_to(w, (stack, width))[p, k] for w in (shifts, pairs))
        raise InvariantError(
            f"row j={j} of pair {pair} in its stack sums to {int(ends[-1, bad[0]])}, "
            f"not n**2 = {n * n}"
        )
    return squares, ends


def _answer_valid(outside: int, signs: tuple[np.ndarray, np.ndarray]) -> bool:
    """Relation verdict of a log2 n entry answer with `outside` entries
    outside the center window, for the one-pair stack whose signs are given
    (_stacked_signs), answer first.

    At least half of the entries outside the window is valid for any pair;
    otherwise the answer is valid only if the pair is atypical, which the
    streamed statistic decides."""
    return 2 * outside >= answer_length(signs[0].shape[1]) or not _typical(*signs)[0]


# The streamed statistic reads a stack of P pairs in blocks of S consecutive
# shifts of every pair, one transform of P * S columns, with
# S = min(n, max(_STAT_BLOCK_CELLS, _STAT_MIN_SHIFTS * n) // (n * P)) and at
# least 1.  A block costs about 30 numpy calls whatever its width (at
# n = 256: 71 us for 16 columns, 148 us for 256), so with a block's cells
# fixed the calls per pair do not depend on how P and S split them, and a
# narrower S lets a stack stop closer to where its last pair settles.
# Monte Carlo runs and aleph_statistics stack _pairs_per_chunk(n) pairs,
# which gives each pair n / 16 shifts per block up to n = 256: 16 pairs by
# 16 shifts there, where a uniform pair settles after 177 - 195 of its 256
# rows.  From n = 1024 on a stack holds one pair, which keeps the floor of
# 64 shifts per block: 16-shift blocks made one aleph at n = 4096 twice as
# slow.  The sweep that chose the 2**16 cap and the split is in CHANGES.md;
# at 2**15 cells the best split at n = 256 gained only 1.09 times over one
# pair by 128 shifts.  A block holds at most 512 KiB, 2 MiB at n = 4096.
#
# Each stream allocates its buffers once, as one allocation of 8 bytes per
# cell, and reuses them for every block: two int16 butterfly buffers, the
# first of which takes the sign product, and the int32 squares; the bool
# window mask reuses the butterfly memory, free once the squares are taken.
# As separate arrays, earlier sweeps saw 128 to 672 minor faults per pair at
# n = 1024, depending on heap layout, and none as one allocation.  The
# buffers live per call, never per module, because map_trials may run
# chunks on threads.
#
# protocol.estimate_success reuses the cell cap for its chunks of trials,
# whose rows go through one transform: 6 trials of 10 rows at n = 1024.
_STAT_BLOCK_CELLS = 1 << 16
_STAT_MIN_SHIFTS = 64


def _pairs_per_chunk(n: int) -> int:
    """Pairs in one stack of a Monte Carlo run or of aleph_statistics:
    enough to give each pair n / 16 shifts of a block, and at least one."""
    return max(1, 16 * _STAT_BLOCK_CELLS // (n * n))


def _block_buffers(cells: int) -> tuple[np.ndarray, ...]:
    """Flat buffers for a block of up to `cells` cells, carved from one
    allocation of 8 bytes per cell: two int16 butterfly buffers and the
    int32 squares."""
    raw = np.empty(8 * cells, dtype=np.uint8)
    a, b = raw[: 2 * cells].view(np.int16), raw[2 * cells:4 * cells].view(np.int16)
    return a, b, raw[4 * cells:].view(np.int32)


def _window_sums(px: np.ndarray, windows: np.ndarray) -> Iterator[tuple[np.ndarray, int]]:
    """(in-window sums, shifts) per block of consecutive shifts, in shift
    order, for the stack of pairs given by _stacked_signs: the sums are one
    int64 per pair, over that pair's rows of the block.  Every row
    transformed is checked to sum to n**2 (_spectra); rows of blocks never
    asked for are never transformed."""
    stack, n = px.shape
    step = max(1, min(n, max(_STAT_BLOCK_CELLS, _STAT_MIN_SHIFTS * n) // (n * stack)))
    buffers = _block_buffers(n * stack * step)
    masks = buffers[1].view(np.bool_)  # both butterfly buffers are free once squared
    pairs = np.arange(stack)[:, None]
    for start in range(1, n + 1, step):
        shifts = np.arange(start, min(start + step, n + 1))
        squares = _spectra(px, windows[:, start:start + shifts.size], shifts, pairs, buffers)[0]
        mask = masks[: squares.size].reshape(squares.shape)
        np.less_equal(squares, n, out=mask)
        np.multiply(squares, mask, out=squares)
        # a row's in-window cells add at most n each, so at most n**2 <= 2**24
        rows = squares.sum(axis=0, dtype=np.int32)
        yield rows.reshape(stack, -1).sum(axis=1, dtype=np.int64), shifts.size


def _statistics(px: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """The full statistic of every pair of the stack, from all n rows."""
    return sum(sums for sums, _ in _window_sums(px, windows))


def aleph_statistics(xs: Sequence[BitString], ys: Sequence[BitString]) -> list[int]:
    """aleph_statistic of every pair (xs[i], ys[i]), all of one length n.

    The pairs are streamed as stacks of up to _pairs_per_chunk(n), each
    through _window_sums over all n rows: 20 pairs at n = 64 in two blocks,
    of 51 and 13 shifts.  Protocol failure probabilities need the exact
    value, so this never stops early."""
    if not xs or len(xs) != len(ys):
        raise ValueError(f"need equally many xs and ys, at least one: {len(xs)} vs {len(ys)}")
    for x, y in zip(xs, ys):
        _check_pair(x, y)
        if x.n != xs[0].n:
            raise ValueError(f"length mismatch in the stack: {x.n} vs {xs[0].n}")
    per_chunk = _pairs_per_chunk(xs[0].n)
    return [
        int(stat)
        for k in range(0, len(xs), per_chunk)
        for stat in _statistics(*_stacked_signs(xs[k:k + per_chunk], ys[k:k + per_chunk]))
    ]


def aleph_statistic(x: BitString, y: BitString) -> int:
    """Scaled in-window deviation sum of the pair's table: (2*delta - n)**2
    over the cells where it is at most n.

    The one-pair case of aleph_statistics, streamed through _window_sums in
    blocks of consecutive shifts (the whole table up to n = 256, 64 shifts
    beyond) and summed over all n rows, each checked to sum to n**2.  Beyond
    the sign arrays it holds one block's buffers, 8 bytes per cell: 512 KiB
    at n = 256 and n = 1024, 2 MiB at n = 4096.  oracle.DeltaTable's
    aleph_statistic is the full-table oracle."""
    return aleph_statistics([x], [y])[0]


def is_typical(n: int, statistic):
    """Typicality of a pair from its in-window statistic (aleph_statistic),
    exactly; of every pair at once for an int64 array of statistics."""
    return 9 * statistic <= 4 * n**3


def aleph(x: BitString, y: BitString) -> bool:
    """Typicality predicate of an input pair:
    is_typical(n, aleph_statistic(x, y)), decided exactly from the fewest
    blocks of _window_sums that settle it (_typical on a stack of one)."""
    _check_pair(x, y)
    return bool(_typical(*_signs(x, y))[0])


def _typical(px: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """aleph of every pair of the stack given by _stacked_signs, as a bool
    array, with an early stop once every pair is settled.

    After each block, stat is each pair's in-window sum over the rows read
    so far.  Cells only add to the statistic, so once 9 * stat > 4 * n**3
    the pair is atypical.  An unread row has n cells and an in-window cell
    adds at most n, so the rows left add at most n**2 * rows_left; once
    9 * (stat + n**2 * rows_left) <= 4 * n**3 the pair is typical.  Each
    verdict is is_typical(n, stat) of the rows read, so it is exact.  Rows
    after the stop are never transformed; every row read is checked to sum
    to n**2.  A uniform pair at n = 1024 settles typical after 768 of its
    1024 rows, and a stack of 16 uniform pairs at n = 256 settled after 208
    rows in each run measured.  Settled pairs stay in the stack: dropping
    them was no faster."""
    n = px.shape[1]
    stat, rows_left = 0, n
    for sums, rows in _window_sums(px, windows):
        stat = stat + sums
        rows_left -= rows
        if np.all(~is_typical(n, stat) | is_typical(n, stat + n * n * rows_left)):
            break  # after the last block the two tests are one
    return is_typical(n, stat)


def ghr_is_valid(x: BitString, y: BitString, answer: Sequence[TransformIndex]) -> bool:
    """Gap-Hamming relation check for an answer of log2 n transform indices.

    Atypical pairs accept anything.  Typical pairs need at least half of the
    entries to land outside the center window.  The answer's rows are read
    in one transform (_spectra), one column per entry, so a repeated shift
    is a repeated column; typicality is streamed only when the entries
    leave validity open (_answer_valid).
    """
    _check_pair(x, y)
    m = answer_length(x.n)
    if len(answer) != m:
        raise ValueError(f"answer must have {m} entries, got {len(answer)}")
    if any(t.s.n != m for t in answer):
        raise ValueError(f"selectors must have {m} bits")
    for t in answer:
        if not 1 <= t.j <= x.n:
            raise ValueError(f"shift {t.j} outside [1, {x.n}]")
    px, windows = signs = _signs(x, y)
    shifts = np.array([t.j for t in answer])
    squares = _spectra(px, windows[:, shifts], shifts, 0, _block_buffers(x.n * m))[0]
    cells = squares[[t.s.as_unsigned() for t in answer], np.arange(m)]
    return _answer_valid(int(np.count_nonzero(cells > x.n)), signs)


def tghr_is_valid(x: BitString, y: BitString, tau: BitString) -> bool:
    """Shift-free variant: tau is valid iff |tau xor x xor y| <= n/2 - sqrt(n).

    Exact integer test: d <= n/2 - sqrt(n) iff n - 2d >= 0 and
    (n - 2d)**2 >= 4n.  Any equal lengths are accepted here.
    """
    if not x.n == y.n == tau.n:
        raise ValueError("x, y, tau must have equal lengths")
    d = (tau ^ x ^ y).weight()
    g = x.n - 2 * d
    return g >= 0 and g * g >= 4 * x.n


def ghd_value(x: BitString, y: BitString, d: int):
    """Gap-Hamming decision value: 1 if |x xor y| >= n/2 + d, 0 if
    <= n/2 - d, None inside the promise gap.  Requires 1 <= d <= n/2."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    n = x.n
    if not 1 <= d <= n / 2:
        raise ValueError(f"gap parameter {d} outside [1, {n / 2}]")
    w = (x ^ y).weight()
    if 2 * w >= n + 2 * d:
        return 1
    if 2 * w <= n - 2 * d:
        return 0
    return None


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo proportion with its binomial standard error."""

    mean: float
    trials: int
    stderr: float
    seed: int

    @classmethod
    def from_successes(cls, successes: int, trials: int, seed: int) -> "McEstimate":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        mean = successes / trials
        return cls(mean, trials, math.sqrt(mean * (1.0 - mean) / trials), seed)


def trial_pair(n: int, rng: Rng, i: int) -> tuple[BitString, BitString, Rng]:
    """Trial i's input pair: x, then y, drawn from rng.child(i) as two
    random_bitstring(n, child) calls draw them, returned with that child
    stream for the trial's further draws."""
    child = rng.child(i)
    x, y = (BitString(int.from_bytes(row.tobytes(), "big"), n) for row in child.bit_rows(2, n))
    return x, y, child


def estimate_over_pairs(
    n: int, trials: int, rng: Rng, accept: Callable[[BitString, BitString, Rng], bool]
) -> McEstimate:
    """Share of trials whose pair passes accept(x, y, child), by Monte Carlo.

    Trial i draws its pair and all further randomness from rng.child(i)
    (trial_pair), so the estimate is a pure function of (n, trials, seed)
    regardless of thread count."""
    return _estimate_in_chunks(
        trials, 1, rng, lambda indices: sum(accept(*trial_pair(n, rng, i)) for i in indices)
    )


def _estimate_in_chunks(
    trials: int, per_chunk: int, rng: Rng, hits: Callable[[range], int]
) -> McEstimate:
    """Share of trials that succeed, by Monte Carlo, from hits(indices), the
    successes among one chunk of consecutive trial indices.

    map_trials hands out whole chunks of per_chunk trials (the last may be
    shorter) and keeps their order, so as long as trial i draws all of its
    randomness from rng.child(i) the estimate is a pure function of
    (trials, seed) and the trials' parameters, regardless of thread count."""
    chunks = -(-trials // per_chunk)
    chunk_hits = map_trials(
        lambda c: hits(range(c * per_chunk, min((c + 1) * per_chunk, trials))), chunks
    )
    return McEstimate.from_successes(sum(chunk_hits), trials, rng.seed)


def estimate_aleph_probability(n: int, trials: int, rng: Rng) -> McEstimate:
    """Probability that a uniform pair is typical, by Monte Carlo.

    Trial i draws its pair as trial_pair(n, rng, i) does (_trial_signs).
    Trials are decided in chunks of _pairs_per_chunk(n), each chunk one
    stack through _typical with its early stop: 16 pairs in blocks of 16
    shifts at n = 256."""
    require_transform_size(n)

    def typical(indices: range) -> int:
        return int(np.count_nonzero(_typical(*_trial_signs(n, rng, indices)[:2])))

    return _estimate_in_chunks(trials, _pairs_per_chunk(n), rng, typical)


def exact_aleph_probability(n: int) -> Fraction:
    """Exact typical-pair probability by exhausting all 4**n input pairs,
    streamed as stacks through aleph_statistics."""
    require_transform_size(n)
    count = sum(is_typical(n, stat) for stat in aleph_statistics(*zip(*enumerate_pairs(n))))
    return Fraction(count, 1 << (2 * n))


def require_exhaustive_size(n: int) -> None:
    """Refuse to enumerate all 4**n pairs past n = 10 (of the allowed n, all but 4)."""
    if 2 * n > 20:
        raise ValueError(f"exhaustive enumeration infeasible for n={n}")


def enumerate_pairs(n: int):
    """All (x, y) input pairs at size n, in lexicographic order; an n that
    require_exhaustive_size refuses raises on first use."""
    require_exhaustive_size(n)
    for xv in range(1 << n):
        x = BitString(xv, n)
        for yv in range(1 << n):
            yield x, BitString(yv, n)
