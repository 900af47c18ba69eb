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
import operator
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bitkit import BitString, Rng, fwht_steps
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
    answer_length(n)
    if n > MAX_TRANSFORM_SIZE:
        gib = _TABLE_BYTES_PER_CELL * n * n / 2**30
        raise ValueError(
            f"n={n} exceeds the size cap {MAX_TRANSFORM_SIZE}: "
            f"its delta table would need about {gib:.1f} GiB"
        )


def answer_length(n: int) -> int:
    """log2 n, the required number of entries in a relation answer, for n a
    power of 4 and >= 4.  It allocates nothing, so n has no size cap;
    callers that allocate check require_transform_size."""
    n = operator.index(n)
    if n < 4 or n & (n - 1) or (n.bit_length() - 1) % 2:
        raise ValueError(f"n must be a power of 4 and >= 4, got {n}")
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
    """Signs of the stack of pairs (xs[i], ys[i]), all of one length n, from
    the pairs' big-endian bytes (_unpacked_signs)."""
    size = (xs[0].n + 7) // 8
    packed = b"".join(v.value.to_bytes(size, "big") for pair in zip(xs, ys) for v in pair)
    return _unpacked_signs(np.frombuffer(packed, dtype=np.uint8).reshape(len(xs), 2, size), xs[0].n)


def _unpacked_signs(packed: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The plain int8 sign rows px[i] = 1 - 2 * x_i and py[i] = 1 - 2 * y_i
    of a stack of pairs, from one unpack of packed, whose (2, ceil(n/8))
    uint8 rows packed[i] hold the big-endian bytes of x_i and y_i."""
    signs = 1 - 2 * np.unpackbits(packed, axis=2)[:, :, -n:].astype(np.int8)
    return signs[:, 0], signs[:, 1]


def _trial_signs(n: int, children: list[Rng]) -> tuple[np.ndarray, np.ndarray]:
    """The signs (_unpacked_signs) of the pairs that trial_pair draws from
    the trials' child streams, from one bit_rows(2, n) per child, which
    reads it as trial_pair does and leaves it where trial_pair leaves it."""
    return _unpacked_signs(np.array([child.bit_rows(2, n) for child in children]), n)


def _block(
    buffers: tuple[np.ndarray, ...],
    rows: int,
    columns: int,
    butterflies: type[np.integer],
    closing_rotation: bool = True,
) -> tuple[np.ndarray, Callable]:
    """The (rows, columns) int8 view of the squares, the third buffer of
    _block_buffers, that takes a block's input, and the runner of its
    transform along the rows (bitkit.fwht_steps, with or without its
    closing rotation), whose butterflies write butterflies-dtype views of
    the first two buffers: the stream's xor bits run wholly in int8 up to
    n = 256 and in int16 after an int8 first round beyond it, and the
    reader's level 1 runs wholly in int8.  Only the first step reads the
    input, before any square is written over it."""
    cells = rows * columns
    product = buffers[2].view(np.int8)[:cells].reshape(rows, columns)
    pair = tuple(b.view(butterflies)[:cells].reshape(rows, columns) for b in buffers[:2])
    return product, fwht_steps(product, pair, closing_rotation=closing_rotation)


def _row(shifts: np.ndarray | int, pairs: np.ndarray | int, c: int) -> str:
    """Names column c by its shift j and its pair's position in its stack,
    for shifts and pairs that broadcast to a common shape read in C order."""
    j, pair = (int(w.flat[c]) for w in np.broadcast_arrays(shifts, pairs))
    return f"row j={j} of pair {pair} in its stack"


def _check_rows(sums: np.ndarray, limit: int, shifts: np.ndarray | int, pairs: np.ndarray | int) -> None:
    """Raise InvariantError naming the first column (_row) whose sum is not
    limit, n**2, as Parseval requires of every row."""
    bad = sums != limit
    if bad.any():
        c = np.flatnonzero(bad)[0]
        raise InvariantError(f"{_row(shifts, pairs, c)} sums to {int(sums[c])}, not n**2 = {limit}")


def _spectra(
    transform: Callable[[], np.ndarray],
    squares: np.ndarray,
    shifts: np.ndarray | int,
    pairs: np.ndarray | int,
) -> np.ndarray:
    """Squares of the halved Walsh spectra of xor bits.

    transform is the runner of a block (_block), whose input column c
    holds the 0/1 bits u of x xor sigma_j y for one pair (_window_sums).
    One subtraction of n/2 on row 0 of its output Hu gives v = -W/2, where
    W at s is n - 2 * delta(x, y, (j, s)); row 0 is natural row 0 in the
    natural order and the rotated one alike (bitkit.fwht_steps).  So that
    column of squares is (2*delta - n)**2 / 4 along table row j - 1, its
    selectors in the runner's order: every sum here and in _window_sums is
    order-free.  The squares fill an (n, columns) view of squares, the
    third buffer of _block_buffers, in its dtype, and that view is
    returned; _window_sums says why each value is exact.  shifts and pairs
    name each column's shift and its pair's position in its stack (_row),
    only to name a failed one.

    One max over the squares checks the range identity: a square of at
    most n**2 puts every value in [-n, n], and then a group of
    _group_height(n) rows sums to less than 2**31, so the group sums run
    in int32.  Where a square exceeds n**2 they run in int64, exact for
    any int32 squares.  By Parseval every column sums to exactly n**2 / 4,
    checked as 4 times its sum against n**2; the first column where it
    does not, which there is whenever a square exceeds n**2, raises
    InvariantError naming its shift and its pair."""
    spectrum = transform()
    n = spectrum.shape[0]
    limit, height = n * n, _group_height(n)
    np.subtract(spectrum[0], np.array(n // 2).astype(spectrum.dtype), out=spectrum[0])
    squares = squares[: spectrum.size].reshape(spectrum.shape)
    np.square(spectrum, out=squares, dtype=squares.dtype)
    exact = np.int32 if squares.max() <= limit else np.int64
    groups = np.einsum("ghc->gc", squares.reshape(n // height, height, -1), dtype=exact)
    sums = groups.sum(axis=0, dtype=np.int64)
    _check_rows(4 * sums, limit, shifts, pairs)
    return squares


def _row_cells(
    px: np.ndarray, py: np.ndarray, pairs: np.ndarray | int, shifts: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """A two-level reader of the squared Walsh spectra of the sign products
    px[p] * roll(py[p], -j) of a stack's plain sign rows (_stacked_signs),
    one column c for each p = pairs[c] (or one p for all) and j = shifts[c]
    in [1, n], which also name it (_row).  Each column's y row is gathered
    from a read-only view of py twice over, whose window (p, j) is that roll.

    With r = sqrt(n), a selector s = s_hi * r + s_lo and a position
    i = i_hi * r + i_lo, H_n = H_r (x) H_r splits the transform in two
    (Bailey's four-step FFT, J. Supercomputing 4, 1990).  Level 1 is one
    transform along i_hi of the block of all columns, laid out as
    (i_hi, c, i_lo); it gives V[s_hi, c, i_lo], a sum of r signs, and the
    cells of block s_hi of column c, the r selectors s_hi * r ... s_hi * r +
    r - 1, are the r-point transform of V[s_hi, c, :].  By Parseval that
    block's mass, the sum of its r squared cells, is r times the sum of
    V[s_hi, c, :]**2.

    Returns ends, the (r, columns) cumulative block masses down each column,
    and cells(col, block), the (r, draws) squared cells of block block[d]
    of column col[d] for each d, from one level-2 transform of the gathered
    blocks.  Every value is an exact integer.  A V outside [-r, r], which
    no sum of r signs can reach, raises InvariantError; within it a mass is
    at most n**2 and ends at most r * n**2 <= 2**30, so both are int32.
    Each column's masses must sum to n**2, and each drawn block's squared
    cells, summed in int64, to its mass; a failure raises InvariantError
    naming the shift and the pair, and the block where a block fails.  The
    block's buffers (_block_buffers) hold its product, butterflies and the
    level-1 squares, 8 bytes per cell, beside the gathered x and y rows, at
    most 2 more: protocol's chunks and slices hold protocol._CHUNK_CELLS.
    Level 1 runs entirely in int8 (_block), exact since r <= 64, and the
    drawn blocks are gathered as int16 for level 2, whose values are sums
    of n signs.  The product is written in one multiply from the rows' own
    layout, whose lanes of r cells stay contiguous: 110 us for 250 rows at
    n = 1024 on a 2-core VM, where copying their product across whole, as
    the full transform's (n, columns) layout needs, took 350 us."""
    doubled = np.concatenate((py, py), axis=1)
    stack, n = py.shape
    pair, cell = doubled.strides
    rows = as_strided(doubled, (stack, n + 1, n), (pair, cell, cell), writeable=False)[pairs, shifts]
    columns, root = len(rows), math.isqrt(n)
    buffers = _block_buffers(n * columns)
    product, transform = _block(buffers, root, columns * root, np.int8)

    def lanes(signs: np.ndarray) -> np.ndarray:
        return signs.reshape(-1, root, root).transpose(1, 0, 2)

    np.multiply(lanes(px[pairs]), lanes(rows), out=product.reshape(root, columns, root))
    half = transform().reshape(root, columns, root)
    squares = buffers[2][:n * columns].reshape(half.shape)
    np.square(half, out=squares, dtype=np.int32)
    if squares.max() > n:
        c = np.flatnonzero((squares > n).any(axis=(0, 2)))[0]
        raise InvariantError(f"{_row(shifts, pairs, c)} has a half-transform value outside [-{root}, {root}]")
    masses = np.einsum("ijk->ij", squares)
    masses *= root
    ends = np.cumsum(masses, axis=0, dtype=np.int32)
    _check_rows(ends[-1], n * n, shifts, pairs)

    def cells(col: np.ndarray, block: np.ndarray) -> np.ndarray:
        gathered = np.ascontiguousarray(half[block, col].T, dtype=np.int16)
        spectrum = fwht_steps(gathered, (np.empty_like(gathered), gathered))()
        out = np.square(spectrum, dtype=np.int32)
        sums, mass = out.sum(axis=0, dtype=np.int64), masses[block, col]
        bad = np.flatnonzero(sums != mass)
        if bad.size:
            d = bad[0]
            raise InvariantError(
                f"{_row(shifts, pairs, col[d])}: block {block[d]} of its selectors "
                f"sums to {sums[d]}, not its mass {mass[d]}"
            )
        return out

    return ends, cells


def _group_height(n: int) -> int:
    """The most rows, a power of two dividing n, whose squares, each at most
    n**2, sum within int32: n up to n = 1024, and 64 at n = 4096."""
    return min(n, 1 << ((2**31 - 1) // (n * n)).bit_length() - 1)


def _answer_valid(outside: Sequence[int], px: np.ndarray, py: np.ndarray) -> list[bool]:
    """Relation verdicts of log2 n entry answers, one per pair of the stack
    (px, py) from _stacked_signs, answer i with outside[i] entries outside
    the center window.

    At least half of the entries outside the window is valid for any pair;
    otherwise the answer is valid only if the pair is atypical, which the
    streamed statistic decides (_typical on that pair alone)."""
    m = answer_length(px.shape[1])
    return [2 * int(k) >= m or not _typical(px[i:i + 1], py[i:i + 1])[0] for i, k in enumerate(outside)]


# The streamed statistic reads a stack of P pairs in blocks of S consecutive
# shifts of every pair, one transform of P * S columns, with
# S = min(n, max(_STAT_BLOCK_CELLS, _STAT_MIN_SHIFTS * n) // (n * P)) and at
# least 1.  A block costs about 40 numpy calls whatever its width, so with
# a block's cells fixed the calls per pair do not depend on how P and S
# split them, and a narrower S lets a stack stop closer to where its last
# pair settles.  17 of those calls are the transform's butterflies and
# its copy at n = 256, whose views are built once per stream and width
# (_block).  At n = 256 on a 2-core VM, interleaved with the stream
# that rebuilt those views for every block and summed in int64, a block
# took 88 - 96 against 130 - 135 us for 16 columns and 230 - 250 against
# 302 - 317 us for 256.
# Monte Carlo runs and aleph_statistics stack _pairs_per_chunk(n) pairs,
# which gives each pair n / 16 shifts per block up to n = 256: 16 pairs by
# 16 shifts there, where a uniform pair settles after 177 - 195 of its 256
# rows.  From n = 1024 on a stack holds one pair, which keeps the floor of
# 64 shifts per block: 16-shift blocks made one aleph at n = 4096 twice as
# slow.  The sweep that chose the 2**16 cap and the split is in CHANGES.md;
# at 2**15 cells the best split at n = 256 gained only 1.09 times over one
# pair by 128 shifts.  A block holds 320 KiB at n = 256, 576 KiB at
# n = 1024 and 2.25 MiB at n = 4096.
#
# Each stream allocates its buffers once, as one allocation, and reuses
# them for every block: two butterfly buffers and the squares, twice as
# wide, whose first cells take the int8 xor bits until the squares are
# written (_block_buffers).  Up to n = 256 every butterfly runs in int8 and
# the squares are int16, 4 bytes per cell; beyond it the butterflies are
# int16, the second buffer holding the int8 first round
# (bitkit.fwht_steps), and the squares int32, 8 bytes per cell (the proof
# is in _window_sums).  The bool window mask reuses the second butterfly
# buffer, free once the squares are taken, and each block's in-window sums
# are one masked reduction of the squares, exact in their own dtype since
# a row's in-window cells add at most n**2 / 4.  As separate arrays,
# earlier sweeps saw 128 to 672 minor faults per pair at n = 1024,
# depending on heap layout, and none as one allocation; a ninth byte per
# cell for the input added 0.18 MB of peak RSS after 300 aleph ops at
# n = 256.  Beside them the stream keeps its int8 tile of x bits, 1 byte
# per cell, so 5 bytes per cell up to n = 256 and 9 beyond, and its y bits
# laid out three times over, 3 bytes per pair and row (_window_sums):
# np.tile built the x tile in 9 us at n = 256, where a broadcast copy into
# a fourth carved buffer took 34 us, and peak RSS after 300 aleph ops at
# n = 256 differed by under 0.1 MB.  The buffers live per call, never per
# module, because map_trials may run chunks on threads.
#
# protocol.estimate_success sizes its chunks of trials by a cap of its own,
# protocol._CHUNK_CELLS, since its cell reader (_row_cells) costs less per
# cell than a stream block.
_STAT_BLOCK_CELLS = 1 << 16
_STAT_MIN_SHIFTS = 64


def _pairs_per_chunk(n: int) -> int:
    """Pairs in one stack of a Monte Carlo run or of aleph_statistics:
    enough to give each pair n / 16 shifts of a block, and at least one."""
    return max(1, 16 * _STAT_BLOCK_CELLS // (n * n))


def _block_buffers(cells: int, butterflies: type[np.integer] = np.int16) -> tuple[np.ndarray, ...]:
    """Flat buffers for a block of up to `cells` cells, carved from one
    allocation of 4 butterfly widths per cell: two butterflies-dtype
    buffers and the squares, twice as wide.  int16 butterflies and int32
    squares take 8 bytes per cell, int8 and int16 take 4: the stream's
    dtypes up to n = 256 (_window_sums)."""
    width = np.dtype(butterflies).itemsize * cells
    raw = np.empty(4 * width, dtype=np.uint8)
    a, b = raw[:width].view(butterflies), raw[width:2 * width].view(butterflies)
    return a, b, raw[2 * width:].view(f"i{2 * np.dtype(butterflies).itemsize}")


def _window_sums(px: np.ndarray, py: np.ndarray) -> Iterator[tuple[np.ndarray, int]]:
    """(in-window sums, shifts) per block of consecutive shifts, in shift
    order, for the stack of pairs whose plain sign rows are px and py
    (_stacked_signs): the sums are one int64 per pair, over that pair's
    rows of the block.  Every row transformed is checked to sum to n**2
    (_spectra); rows of blocks never asked for are never transformed.

    A block of S shifts of the stack's P pairs has its S * P columns in
    (shift, pair) order, the pair fastest, so its input is one xor of
    contiguous rows.  Once per stream, the bits of x, 1 where px is -1, are
    tiled over a block's shifts as tile[i, k * P + p] = x_p[i], and the
    bits of y are laid out one column per pair three times over,
    tripled[r, p] = y_p[r mod n] for r < 3n.  Then column k * P + p of the
    block from shift `start` is x_p xor roll(y_p, -(start + k)), whose cell
    i is tile[i, k * P + p] xor tripled[start + k + i, p]: cell
    (start + i) * P + k * P + p of the flat tripled array.  So one view of
    it with strides of one row and one cell, 2n rows by S * P columns,
    holds every block's y bits as its rows start ... start + n - 1, which
    reach at most row 3n - 1 of tripled.  The input view, its fwht steps
    and the window mask are built once per block width: the full width
    and, when S does not divide n, a narrower last block (_block).  The
    steps leave out the closing rotation, since each column is read only
    through order-free sums (_spectra): at 256 rows by 256 columns on a
    2-core VM that cut a transform from 50.5 to 43.8 us.

    The transform runs on the xor bits u rather than on the sign product
    p = 1 - 2u: since Hp = n e_0 - 2 Hu, Hu is W/2 but for its sign and
    n/2 on row 0, and it is half as wide.  The dtypes follow n, and every
    square is exact:
    - n <= 256: every butterfly runs in int8 and wraps mod 2**8.  The
      transform is integer-linear, so the runner's output is Hu mod 256,
      and after the row-0 fix v is -W/2 mod 256.  n/2 is written as an
      int8 array, -128 at n = 256: numpy 2 refuses the Python int 128
      against an int8 array, where numpy 1.24 upcasts.  As
      |W/2| <= n/2 <= 128, v = -W/2 except that -W/2 = 128 comes out as
      -128, which has the same square.  So v**2 <= 2**14 fits int16, and
      a column of them sums below 2**22, so its group sums never need
      int64.
    - n >= 1024: the int8 first round sums at most 2**(log2(n) // 2)
      <= 64 bits, so it is exact; int16 holds every later |Hu| <= n, v is
      -W/2 exactly, and the squares are int32.
    The window test W**2 <= n is (W/2)**2 <= n/4, and the statistic is 4
    times the in-window sum of (W/2)**2.  At (256, 256) on a 2-core VM a
    block's steps took 84 us, where the int8 sign product with int16
    butterflies and int32 squares took 118; CHANGES.md times each step."""
    stack, n = px.shape
    step = max(1, min(n, max(_STAT_BLOCK_CELLS, _STAT_MIN_SHIFTS * n) // (n * stack)))
    butterflies = np.int8 if n <= 256 else np.int16
    buffers = _block_buffers(n * stack * step, butterflies)
    # the 0/1 bits of x and y, 1 where a sign is -1
    tile = np.tile((px.T < 0).view(np.int8), (1, step))
    tripled = np.tile((py.T < 0).view(np.int8), (3, 1))
    rolled = as_strided(
        tripled, (2 * n, stack * step), (tripled.strides[0], tripled.itemsize), writeable=False
    )
    pairs = np.arange(stack)
    columns = 0
    for start in range(1, n + 1, step):
        shifts = np.arange(start, min(start + step, n + 1))
        if shifts.size * stack != columns:
            columns = shifts.size * stack
            xor, transform = _block(buffers, n, columns, butterflies, closing_rotation=False)
            bits = tile[:, :columns]
            # the butterfly buffer that the steps leave free once squared
            mask = buffers[1].view(np.bool_)[: n * columns].reshape(n, columns)
        np.bitwise_xor(bits, rolled[start:start + n, :columns], out=xor)
        squares = _spectra(transform, buffers[2], shifts[:, None], pairs)
        np.less_equal(squares, n // 4, out=mask)
        # a row's in-window cells add at most n/4 each, so at most n**2 / 4:
        # 2**14 in int16 squares up to n = 256, 2**22 in int32 beyond
        rows = np.einsum("ij,ij->j", squares, mask)
        yield 4 * rows.reshape(-1, stack).sum(axis=0, dtype=np.int64), shifts.size


def _statistics(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """The full statistic of every pair of the stack, from all n rows."""
    return sum(sums for sums, _ in _window_sums(px, py))


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
    beyond) and summed over all n rows, each checked to sum to n**2.  Each
    block transforms the xor bits of x and the shifted y, in int8 up to
    n = 256 and in int16 beyond.  Beyond the sign arrays it holds one
    block's buffers and its int8 tile of x bits: 5 bytes per cell up to
    n = 256, 320 KiB there, and 9 beyond, 576 KiB at n = 1024 and 2.25 MiB
    at n = 4096; and its y bits three times over, 3 bytes per row.
    oracle.DeltaTable's aleph_statistic is the full-table oracle."""
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


def _typical(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """aleph of every pair of the stack (px, py) from _stacked_signs, as a
    bool array, with an early stop once every pair is settled.

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
    for sums, rows in _window_sums(px, py):
        stat = stat + sums
        rows_left -= rows
        scaled = 9 * stat
        if np.all((scaled > 4 * n**3) | (scaled <= 4 * n**3 - 9 * n * n * rows_left)):
            break  # after the last block every pair passes
    return is_typical(n, stat)


def ghr_is_valid(x: BitString, y: BitString, answer: Sequence[TransformIndex]) -> bool:
    """Gap-Hamming relation check for an answer of log2 n transform indices.

    Atypical pairs accept anything.  Typical pairs need at least half of the
    entries to land outside the center window.  The answer's cells are read
    by one two-level reader (_row_cells), one column per entry, so a
    repeated shift is a repeated column, and only the block of sqrt(n)
    selectors that holds each entry gets its cells; typicality is streamed
    only when the entries leave validity open (_answer_valid).
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
    px, py = _signs(x, y)
    shifts = np.array([t.j for t in answer])
    block, cell = np.divmod([t.s.as_unsigned() for t in answer], math.isqrt(x.n))
    squares = _row_cells(px, py, 0, shifts)[1](np.arange(m), block)
    return _answer_valid([np.count_nonzero(squares[cell, np.arange(m)] > x.n)], px, py)[0]


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
    stream for the trial's further draws.

    Both come from one bit_rows(2, n), a single raw read of 2 ceil(n/32)
    32-bit words: an even count, so the child holds no half-word after it
    and the trial's further reads start on a whole Philox word."""
    child = rng.child(i)
    x, y = (BitString(int.from_bytes(row.tobytes(), "big"), n) for row in child.bit_rows(2, n))
    return x, y, child


def _estimate_in_chunks(
    trials: int, per_chunk: int, rng: Rng, hits: Callable[[list[Rng]], int]
) -> McEstimate:
    """Share of trials that succeed, by Monte Carlo, from hits(children), the
    successes among one chunk of consecutive trials i, given in order the
    child streams rng.child(i) that are all the randomness they read.

    map_trials hands out whole chunks of per_chunk trials (the last may be
    shorter) and keeps their order, so the estimate is a pure function of
    (trials, seed) and the trials' parameters, regardless of thread count."""
    chunks = -(-trials // per_chunk)
    chunk_hits = map_trials(
        lambda c: hits([rng.child(i) for i in range(c * per_chunk, min((c + 1) * per_chunk, trials))]), chunks
    )
    return McEstimate.from_successes(sum(chunk_hits), trials, rng.seed)


def estimate_aleph_probability(n: int, trials: int, rng: Rng) -> McEstimate:
    """Probability that a uniform pair is typical, by Monte Carlo.

    Each trial draws its pair from its own child stream as trial_pair does
    (_trial_signs, _estimate_in_chunks).  Trials are decided in chunks of
    _pairs_per_chunk(n), each chunk one stack through _typical with its
    early stop: 16 pairs in blocks of 16 shifts at n = 256."""
    require_transform_size(n)

    def typical(children: list[Rng]) -> int:
        return int(np.count_nonzero(_typical(*_trial_signs(n, children))))

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
