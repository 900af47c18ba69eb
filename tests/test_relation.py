"""Distance tables, window/typicality predicates, relation checkers."""

from fractions import Fraction
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghrlab.classical as classical
import ghrlab.oracle as oracle
import ghrlab.protocol as protocol
import ghrlab.relation as relation
from ghrlab.bitkit import BitString, Rng, fourier_pattern, fwht, random_bitstring
from ghrlab.classical import DisjointnessInstance, RectangleSpec
from ghrlab.oracle import delta, delta_table, delta_table_naive
from ghrlab.relation import (
    MAX_TRANSFORM_SIZE,
    McEstimate,
    TransformIndex,
    aleph,
    aleph_statistic,
    answer_length,
    enumerate_pairs,
    estimate_aleph_probability,
    exact_aleph_probability,
    ghd_value,
    ghr_is_valid,
    is_typical,
    require_transform_size,
    tghr_is_valid,
)
from ghrlab.util import InvariantError


def bs(text):
    return BitString.from_text(text)


def test_transform_size_gate():
    for n in (4, 16, 64, 256, 1024):
        require_transform_size(n)
    for n in (1, 2, 8, 32, 100, 128, 512):
        with pytest.raises(ValueError):
            require_transform_size(n)


def test_transform_size_cap_raises_before_allocating():
    require_transform_size(MAX_TRANSFORM_SIZE)
    # the cap keeps the transform exact in int16, its int8 first round of
    # sign sums too, and its squares in int32
    assert MAX_TRANSFORM_SIZE <= np.iinfo(np.int16).max
    assert 1 << answer_length(MAX_TRANSFORM_SIZE) // 2 <= np.iinfo(np.int8).max
    assert MAX_TRANSFORM_SIZE**2 <= np.iinfo(np.int32).max
    # 16384 is a power of 4 above the cap; the guard is pure arithmetic
    with pytest.raises(ValueError, match=r"size cap 4096.*3\.5 GiB"):
        require_transform_size(16384)
    # answer_length allocates nothing, so it takes any power of 4 >= 4
    assert answer_length(16384) == 14


def test_answer_length():
    assert answer_length(4) == 2
    assert answer_length(256) == 8
    assert answer_length(1024) == 10


def test_delta_worked_rows():
    x, y = bs("0000"), bs("1100")
    assert [delta(x, y, TransformIndex(j, bs("10"))) for j in (1, 2, 3, 4)] == [2, 0, 2, 4]
    assert [delta(x, y, TransformIndex(j, bs("11"))) for j in (1, 2, 3, 4)] == [4, 2, 0, 2]
    assert [delta(x, y, TransformIndex(j, bs("00"))) for j in (1, 2, 3, 4)] == [2, 2, 2, 2]


def test_delta_identity_shift_no_pattern():
    # j = n with the zero selector leaves x untouched
    x, y = bs("0110"), bs("1110")
    assert delta(x, y, TransformIndex(4, bs("00"))) == (x ^ y).weight()


def test_table_matches_pointwise_and_backends_agree():
    rng = Rng(12)
    for n in (4, 16):
        for _ in range(8):
            x = random_bitstring(n, rng)
            y = random_bitstring(n, rng)
            fast = delta_table(x, y)
            slow = delta_table_naive(x, y)
            assert np.array_equal(fast.values, slow.values)
            assert np.array_equal(fast.squares, slow.squares)
            logn = answer_length(n)
            for j in (1, n // 2, n):
                for sv in (0, 1, n - 1):
                    s = BitString(sv, logn)
                    assert fast.entry(j, s) == delta(x, y, TransformIndex(j, s))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 16, 64]), st.data())
def test_parseval_property(n, data):
    xv = data.draw(st.integers(0, 2**n - 1))
    yv = data.draw(st.integers(0, 2**n - 1))
    x, y = BitString(xv, n), BitString(yv, n)
    table = delta_table(x, y)
    naive = delta_table_naive(x, y)
    assert table.parseval_sum() == n**3
    # the transform agrees with the definition cell by cell
    assert np.array_equal(table.values, naive.values)
    # and so does the streamed typicality statistic
    assert aleph_statistic(x, y) == naive.aleph_statistic()


def test_window_mask_is_squared_deviation_test():
    table = delta_table(bs("0000"), bs("1100"))
    dev = table.scaled_deviations()
    assert np.array_equal(table.window_mask(), dev * dev <= 4)


def test_aleph_examples_at_n4():
    # at n=4 typicality is exactly even xor distance
    for x, y in enumerate_pairs(4):
        assert aleph(x, y) == ((x ^ y).weight() % 2 == 0)


def test_aleph_statistic_consistency():
    rng = Rng(3)
    for _ in range(10):
        x = random_bitstring(16, rng)
        y = random_bitstring(16, rng)
        table = delta_table(x, y)
        dev = table.scaled_deviations()
        s4 = int((dev[table.window_mask()] ** 2).sum())
        assert aleph_statistic(x, y) == s4
        assert aleph(x, y) == (9 * s4 <= 4 * 16**3)


def bent(n):
    """A bent function of log2 n bits as an n-bit string: its Walsh spectrum
    is flat at sqrt(n), so against y = 0 every one of the n**2 cells lies in
    the window with square n, and the pair is atypical."""
    half = (n.bit_length() - 1) // 2
    return BitString.from_bits([bin((i >> half) & i).count("1") % 2 for i in range(n)])


def transformed_shifts(relation_transforms):
    """Counts the table rows every later transform of the relation builds."""
    count = [0]

    def counting(product, run):
        count[0] += product.shape[1]
        return run()

    relation_transforms(counting)
    return count


def fix_block_shifts(monkeypatch, shifts):
    """Makes every block of the streamed statistic min(n, shifts) shifts wide."""
    monkeypatch.setattr(relation, "_STAT_MIN_SHIFTS", shifts)
    monkeypatch.setattr(relation, "_STAT_BLOCK_CELLS", 0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 16, 64]), st.sampled_from([1, 3, 64]), st.data())
def test_early_verdict_equals_full_statistic_property(n, shifts, data):
    x = BitString(data.draw(st.integers(0, 2**n - 1)), n)
    y = BitString(data.draw(st.integers(0, 2**n - 1)), n)
    with pytest.MonkeyPatch.context() as mp:
        fix_block_shifts(mp, shifts)  # blocks narrow enough to stop early
        verdict = aleph(x, y)
        assert verdict == is_typical(n, aleph_statistic(x, y)) == delta_table_naive(x, y).aleph()


@pytest.mark.parametrize("shifts", [1, 3])
def test_early_verdict_equals_table_on_many_pairs(monkeypatch, shifts):
    # at n = 16 some of these pairs lie close enough to the threshold that
    # a typical-side bound of n**2 / 2 per unread row settles them wrongly
    # (3/4 of n**2 does not); test_early_verdict_settles_exactly_at_its_bounds
    # pins the exact bound
    fix_block_shifts(monkeypatch, shifts)
    rng = Rng(shifts)
    for _ in range(600):
        x, y = random_bitstring(16, rng), random_bitstring(16, rng)
        assert aleph(x, y) == delta_table(x, y).aleph()


@pytest.mark.parametrize("n", [256, 1024])
def test_early_verdict_on_adversarial_pairs(relation_transforms, n):
    x = random_bitstring(n, Rng(n + 1))
    for a, b in ((x, x), (x, ~x), (bent(n), BitString(0, n))):
        assert aleph(a, b) == delta_table(a, b).aleph()
    # every row of the bent pair adds n**2, so it is atypical once more than
    # 4n/9 rows are read: after its one block of the whole table at n = 256,
    # after 8 of 16 blocks at n = 1024
    count = transformed_shifts(relation_transforms)
    assert not aleph(bent(n), BitString(0, n))
    assert count[0] == {256: n, 1024: n // 2}[n]


@pytest.mark.parametrize("n", [16, 256, 4096])
def test_early_verdict_settles_exactly_at_its_bounds(monkeypatch, n):
    """_typical stops after a block exactly when every pair of the stack is
    settled: atypical once 9 * stat > 4 * n**3, typical once
    9 * (stat + n**2 * rows_left) <= 4 * n**3.  Fed in-window sums at each
    bound and one past it, it stops after the first block or reads the
    second, whose sums are 0."""
    largest = 4 * n**3 // 9  # the largest typical statistic: 9 does not divide 4 * n**3
    rows_left = n // 4
    sure = largest - n * n * rows_left  # typical whatever the rows left add
    read = []

    def blocks(px, windows):
        for k, rows in enumerate((n - rows_left, rows_left)):
            read.append(k)
            yield (first if k == 0 else np.zeros_like(first)), rows

    monkeypatch.setattr(relation, "_window_sums", blocks)
    for stats, blocks_read, verdicts in (
        ([largest + 1], 1, [False]),
        ([largest], 2, [True]),
        ([sure], 1, [True]),
        ([sure + 1], 2, [True]),
        ([largest + 1, sure], 1, [False, True]),
        ([largest + 1, sure + 1, sure], 2, [False, True, True]),
    ):
        first, read[:] = np.array(stats, dtype=np.int64), []
        assert list(relation._typical(np.ones((len(stats), n), np.int8), None)) == verdicts
        assert len(read) == blocks_read, stats


def test_early_verdict_reads_fewer_rows_than_the_statistic(relation_transforms):
    n = 1024
    rng = Rng(5)
    x, y = random_bitstring(n, rng), random_bitstring(n, rng)
    count = transformed_shifts(relation_transforms)
    assert aleph(x, y)
    # a uniform pair's statistic is about n**3 / 5, so the typical side
    # settles after 768 of the 1024 rows
    assert count[0] < n
    count[0] = 0
    assert is_typical(n, aleph_statistic(x, y))
    assert count[0] == n


@pytest.mark.parametrize("n,shifts", [(16, 1), (256, 1), (256, 48), (256, 256), (1024, 1024)])
def test_streamed_statistic_does_not_depend_on_block_shape(monkeypatch, n, shifts):
    # 48 shifts leave a last block of 16 at n = 256
    fix_block_shifts(monkeypatch, shifts)
    x = random_bitstring(n, Rng(n + shifts))
    for a, b in ((x, ~x), (bent(n), BitString(0, n))):
        table = delta_table(a, b)
        assert aleph_statistic(a, b) == table.aleph_statistic()
        assert aleph(a, b) == table.aleph()


@pytest.mark.parametrize("n", [256, 1024])
def test_streamed_statistic_equals_full_table(n):
    # two blocks of shifts at n = 256 and 16 at n = 1024, on random pairs,
    # x = y, x = ~y, and a bent x against y = 0 (bent)
    bent_x = bent(n)
    zero = BitString(0, n)
    rng = Rng(n)
    x, y = random_bitstring(n, rng), random_bitstring(n, rng)
    for a, b in ((x, y), (y, x), (x, x), (x, ~x), (bent_x, zero)):
        table = delta_table(a, b)
        assert aleph_statistic(a, b) == table.aleph_statistic()
        assert aleph(a, b) == table.aleph()
    assert aleph_statistic(bent_x, zero) == n**3
    assert not aleph(bent_x, zero)


def stack_of(pairs):
    xs, ys = zip(*pairs)
    return relation._stacked_signs(xs, ys)


@st.composite
def stacks(draw):
    """1 to 9 pairs of one size, random ones mixed with x = y, x = ~y and a
    bent x against 0."""
    n = draw(st.sampled_from([4, 16, 64]))
    word = st.integers(0, 2**n - 1).map(lambda v: BitString(v, n))
    x = draw(word)
    special = [(x, x), (x, ~x), (bent(n), BitString(0, n))]
    pair = st.one_of(st.tuples(word, word), st.sampled_from(special))
    return n, draw(st.lists(pair, min_size=1, max_size=9))


@settings(max_examples=40, deadline=None)
@given(stacks())
def test_stacked_stream_equals_naive_table_property(case):
    n, pairs = case
    stats = relation._statistics(*stack_of(pairs))
    verdicts = relation._typical(*stack_of(pairs))
    assert len(stats) == len(verdicts) == len(pairs)
    for (x, y), stat, verdict in zip(pairs, stats, verdicts):
        table = delta_table_naive(x, y)
        assert stat == table.aleph_statistic()
        assert verdict == table.aleph()
    xs, ys = zip(*pairs)
    assert relation.aleph_statistics(xs, ys) == [int(v) for v in stats]


@pytest.mark.parametrize("n", [4, 16, 64, 1024])
def test_trial_signs_equal_trial_pair(n):
    """trial_pair draws x, then y, as two random_bitstring calls on the
    trial's child stream; the chunk helper's sign rows are its BitStrings,
    and both leave every child stream where those calls leave it."""
    rng = Rng(23)
    children = [rng.child(i) for i in range(5, 12)]
    px, py = relation._trial_signs(n, children)
    xs, ys, streams = zip(*(relation.trial_pair(n, rng, i) for i in range(5, 12)))
    assert px.dtype == py.dtype == np.int8
    assert px.shape == py.shape == (7, n)
    for k, (x, y) in enumerate(zip(xs, ys)):
        stream = rng.child(5 + k)
        assert (x, y) == (random_bitstring(n, stream), random_bitstring(n, stream))
        assert np.array_equal(px[k], 1 - 2 * x.to_array().astype(np.int16))
        assert np.array_equal(py[k], 1 - 2 * y.to_array().astype(np.int16))
        assert children[k].u64() == streams[k].u64() == stream.u64()
    expect_px, expect_py = relation._stacked_signs(xs, ys)
    assert np.array_equal(px, expect_px) and np.array_equal(py, expect_py)


def test_estimate_in_chunks_hands_each_chunk_its_trials_streams():
    """Each chunk of consecutive trials i gets the streams rng.child(i), in
    order, and nothing else; the last chunk may be shorter.  Chunks may run
    on threads in any order."""
    rng, chunks = Rng(9), []

    def hits(children):
        chunks.append([child.u64() for child in children])
        return len(children) - 1

    estimate = relation._estimate_in_chunks(7, 3, rng, hits)
    expect = [[rng.child(i).u64() for i in part] for part in (range(3), range(3, 6), range(6, 7))]
    assert sorted(chunks) == sorted(expect)
    assert (estimate.mean, estimate.trials, estimate.seed) == (4 / 7, 7, 9)


def fix_block_cells(monkeypatch, cells):
    """Makes every block of the streamed statistic hold at most `cells`
    cells, and at least one shift of each pair of its stack."""
    monkeypatch.setattr(relation, "_STAT_BLOCK_CELLS", cells)
    monkeypatch.setattr(relation, "_STAT_MIN_SHIFTS", 0)


# at n = 256 the default cap gives Monte Carlo stacks of 16 pairs, so 37
# trials run as 16, 16 and 5; 3 * 4096 + 1000 cells give stacks of 3 pairs in
# blocks of 17 shifts, the last of which has 1, and a last stack of 1 pair
@pytest.mark.parametrize("cells", [None, 1, 3 * 4096 + 1000, 10**9])
def test_stacked_stream_does_not_depend_on_block_shape(monkeypatch, cells):
    n = 256
    rng = Rng(17)
    pairs = [(x, y) for x, y, _ in (relation.trial_pair(n, rng, i) for i in range(37))]
    x = pairs[0][0]
    pairs += [(x, x), (x, ~x), (bent(n), BitString(0, n))]
    tables = [delta_table(x, y) for x, y in pairs]
    xs, ys = zip(*pairs)
    if cells is not None:
        fix_block_cells(monkeypatch, cells)
    assert relation.aleph_statistics(xs, ys) == [t.aleph_statistic() for t in tables]
    assert list(relation._typical(*stack_of(pairs))) == [t.aleph() for t in tables]
    expect = sum(tables[i].aleph() for i in range(37))
    for threads in ("1", "4"):
        monkeypatch.setenv("GHRLAB_THREADS", threads)
        assert estimate_aleph_probability(n, 37, Rng(17)) == McEstimate.from_successes(expect, 37, 17)


def test_stack_of_bent_pairs_stops_after_128_rows_each(relation_transforms):
    """8 bent pairs at n = 256 go in blocks of 32 shifts each, and every row
    adds n**2: all 8 are atypical after 4 blocks, 128 of their 256 rows."""
    n = 256
    pairs = [(bent(n), BitString(0, n))] * 8
    calls = []
    relation_transforms(lambda product, run: calls.append(product.shape[1]) or run())
    assert not relation._typical(*stack_of(pairs)).any()
    assert calls == [8 * 32] * 4


def test_corrupted_column_names_its_pair_and_shift(relation_transforms):
    """In a stack of 3 pairs at n = 16, one block holds every pair's 16
    shifts, its columns in (shift, pair) order; column 4 * 3 + 1 is pair 1's
    shift 5."""
    rng = Rng(6)
    pairs = [(random_bitstring(16, rng), random_bitstring(16, rng)) for _ in range(3)]

    def corrupted(product, run):
        out = run()
        out[0, 4 * 3 + 1] += 2
        return out

    relation_transforms(corrupted)
    for stream in (relation._statistics, relation._typical):
        with pytest.raises(InvariantError, match="^row j=5 of pair 1 in its stack .*n\\*\\*2 = 256"):
            stream(*stack_of(pairs))


def test_corrupted_last_column_of_a_narrower_final_block(monkeypatch, relation_transforms):
    """Blocks of 5 shifts of 3 pairs at n = 16 leave shift 16 alone in a
    final block of 3 columns, whose last is pair 2's."""
    rng = Rng(8)
    pairs = [(random_bitstring(16, rng), random_bitstring(16, rng)) for _ in range(3)]
    fix_block_cells(monkeypatch, 16 * 3 * 5)
    widths = []

    def corrupted(product, run):
        out = run()
        widths.append(product.shape[1])
        if product.shape[1] == 3:
            out[0, -1] += 2
        return out

    relation_transforms(corrupted)
    with pytest.raises(InvariantError, match="^row j=16 of pair 2 in its stack .*n\\*\\*2 = 256"):
        relation._statistics(*stack_of(pairs))
    assert widths == [15, 15, 15, 3]


def wrap_column(column):
    """A transform hook that sets one column of a transform at n = 1024 to
    values whose squares, 4 * 2**30 + 512**2 once the row-0 fix turns its
    0 there into -n/2, sum to n**2 / 4 once wrapped in int32.  The hook
    writes before the fix, so its four values of -32768 sit on rows 1 - 4."""

    def wrapping(product, run):
        out = run()
        out[:, column] = 0
        out[1:5, column] = np.iinfo(np.int16).min
        return out

    return wrapping


def test_stream_range_check_keeps_a_wrapping_column_from_passing(relation_transforms):
    """A value outside [-n, n] sends the block's group sums to int64, so a
    column that int32 would wrap to n**2 / 4 is named with 4 times its
    exact sum: pair 1's shift 5 in a stack of 3 pairs at n = 1024, in
    blocks of 21 shifts, and shift 5 of one pair."""
    n = 1024
    rng = Rng(6)
    pairs = [(random_bitstring(n, rng), random_bitstring(n, rng)) for _ in range(3)]
    wrapped = np.array([2**30] * 4 + [512**2], dtype=np.int32).sum(dtype=np.int32)
    assert 4 * int(wrapped) == n * n  # what int32 group sums would pass
    exact = f"sums to {4 * (2**32 + 2**18)}, not n\\*\\*2 = {n * n}$"
    relation_transforms(wrap_column(4 * 3 + 1))
    for stream in (relation._statistics, relation._typical):
        with pytest.raises(InvariantError, match=f"^row j=5 of pair 1 in its stack {exact}"):
            stream(*stack_of(pairs))
    relation_transforms(wrap_column(4))
    with pytest.raises(InvariantError, match=f"^row j=5 of pair 0 in its stack {exact}"):
        aleph(*pairs[0])


@pytest.mark.parametrize("n", [4, 256, 4096])
def test_spectrum_value_of_exactly_n_passes_the_range_check(n):
    """x = y = 0 puts W = n at s = 0 in every row and 0 elsewhere: the
    largest square is exactly n**2, and no cell adds to the statistic."""
    zero = BitString(0, n)
    assert aleph_statistic(zero, zero) == 0
    assert aleph(zero, zero)


def test_group_height_keeps_int32_group_sums_exact():
    """For every allowed n the stream's group height divides n and its
    group of squares, each at most n**2, fits int32; so do the protocol's
    groups of sqrt(n) rows.  Arithmetic only: no block is built."""
    top = np.iinfo(np.int32).max
    for k in range(1, 7):
        n = 4**k
        require_transform_size(n)
        height = relation._group_height(n)
        assert n % height == 0 and height * n * n <= top
        assert 2 * height * n * n > top or height == n  # the most rows that fit
        assert math.isqrt(n) * n * n <= top
    assert [relation._group_height(4**k) for k in (5, 6)] == [1024, 64]


@pytest.mark.parametrize(
    "cells,n,stack,widths",
    [
        (None, 256, 16, [256]),  # one width: 16 pairs by 16 shifts
        (None, 16, 3, [48]),
        (16 * 3 * 5, 16, 3, [15, 3]),  # blocks of 5 shifts, then shift 16 alone
        (1, 16, 1, [1]),  # 16 blocks of one shift
    ],
)
def test_stream_builds_its_steps_once_per_width(monkeypatch, relation_transforms, cells, n, stack, widths):
    rng = Rng(n + stack)
    pairs = [(random_bitstring(n, rng), random_bitstring(n, rng)) for _ in range(stack)]
    tables = [delta_table(x, y) for x, y in pairs]
    if cells is not None:
        fix_block_cells(monkeypatch, cells)
    built = relation_transforms()
    assert list(relation._statistics(*stack_of(pairs))) == [t.aleph_statistic() for t in tables]
    assert [product.shape for product, _ in built] == [(n, w) for w in widths]
    built.clear()
    assert list(relation._typical(*stack_of(pairs))) == [t.aleph() for t in tables]
    assert len(built) <= len(widths)


def test_stream_steps_replay_like_fresh_transforms(monkeypatch, relation_transforms, rotated_rows):
    """The runner of every block width a stream uses, replayed on random
    0/1 blocks written into its input view, gives fwht's transform with
    its rows in the rotated order that the stream reads them in
    (rotated_rows), mod 256 in int8 up to n = 256 and exactly in int16
    beyond: one pair at every allowed n, Monte Carlo stacks with a short
    last stack, and a narrower last block.  Random bits put row 0, their
    count, past 127 about half of the time at n = 256, so the wrap is met."""
    built = relation_transforms()
    for n in (4, 16, 64, 256, 1024, 4096):
        aleph_statistic(*relation.trial_pair(n, Rng(n), 0)[:2])
    # stacks of 16 pairs and of 5 in blocks of 51 shifts, the last of 1; of
    # 256 pairs and of 44 in blocks of 23 shifts, the last of 18
    for n, count in ((256, 21), (64, 300)):
        relation.aleph_statistics(*zip(*(relation.trial_pair(n, Rng(1), i)[:2] for i in range(count))))
    fix_block_cells(monkeypatch, 16 * 3 * 5)
    relation._statistics(*relation._trial_signs(16, [Rng(2).child(i) for i in range(3)]))
    assert {product.shape for product, _ in built} == {
        (4, 4), (16, 16), (64, 64), (256, 256), (1024, 64), (4096, 64),
        (256, 255), (256, 5), (64, 1024), (64, 1012), (64, 792), (16, 15), (16, 3),
    }
    gen = np.random.default_rng(0)
    for product, run in built:
        for _ in range(2):
            block = gen.integers(0, 2, size=product.shape).astype(np.int8)
            np.copyto(product, block)
            out = run()
            assert out.dtype == (np.int8 if product.shape[0] <= 256 else np.int16)
            assert np.array_equal(out, rotated_rows(fwht(block.astype(np.int16))).astype(out.dtype))


ALLOWED_N = (4, 16, 64, 256, 1024, 4096)


def answer(n, selector):
    """log2(n) entries, at shifts 1, 2, ..., all with one selector."""
    m = answer_length(n)
    return [TransformIndex(j, BitString(selector, m)) for j in range(1, m + 1)]


def butterflies(n):
    """The dtype that the stream's butterflies run in at n."""
    return np.int8 if n <= 256 else np.int16


@pytest.mark.parametrize("n", ALLOWED_N)
def test_all_ones_sign_products_at_every_n(n, relation_transforms):
    """The stream transforms xor bits.  x = y = 0 makes every sign product
    +1 and every bit 0, so the runner returns 0 everywhere.  x = 0 against
    y = 1...1 makes every bit 1: every first-round butterfly sum reaches
    its largest value, 2**(log2(n) // 2) ones (64 at n = 4096, exact in
    int8), and the runner returns n at s = 0, which wraps to 0 in int8 at
    n = 256, and 0 elsewhere.  Both statistics are 0, so the pairs are
    typical, and an answer is valid exactly when half of its entries are
    outside the window, as s = 0 is."""
    zero, ones = BitString(0, n), BitString.ones(n)
    seen = []

    def hook(product, run):
        out = run()
        seen.append((product.dtype, int(product.min()), int(product.max()), out.dtype, out.copy()))
        return out

    relation_transforms(hook)
    for y, bit in ((zero, 0), (ones, 1)):
        seen.clear()
        assert aleph_statistic(zero, y) == 0
        assert aleph(zero, y)
        assert len(seen) >= 1
        for dtype, low, high, wide, out in seen:
            assert dtype == np.int8 and low == high == bit
            assert wide == butterflies(n)
            assert out[0].tolist() == [int(np.array(bit * n).astype(wide))] * out.shape[1]
            assert not out[1:].any()
    assert 1 << answer_length(n) // 2 <= np.iinfo(np.int8).max
    assert ghr_is_valid(zero, zero, answer(n, 0))
    assert not ghr_is_valid(zero, zero, answer(n, 1))
    if n <= 256:
        assert delta_table(zero, zero).aleph_statistic() == delta_table(zero, ones).aleph_statistic() == 0


@pytest.mark.parametrize("n", ALLOWED_N)
def test_stream_extremes_at_every_n(n, relation_transforms):
    """The pairs that put the stream's values at their ends: x = y = 0
    (W/2 = n/2 at s = 0, +128 at n = 256, which int8 holds as -128),
    x = 0 against y = 1...1 (Hu = n at s = 0, which wraps to 0 in int8 at
    n = 256), and a bent x against y = 0 and y = 1...1, whose cells all
    lie on the window's edge, (W/2)**2 = n/4.  Their statistics are 0, 0,
    n**3 and n**3, streamed as one stack and one by one, with butterflies
    in int8 up to n = 256 and int16 beyond; the table agrees where it fits."""
    zero, ones = BitString(0, n), BitString.ones(n)
    pairs = [(zero, zero), (zero, ones), (bent(n), zero), (bent(n), ones)]
    expect = [0, 0, n**3, n**3]
    dtypes = set()

    def hook(product, run):
        out = run()
        dtypes.add(out.dtype)
        return out

    relation_transforms(hook)
    assert relation.aleph_statistics(*zip(*pairs)) == expect
    assert [aleph(x, y) for x, y in pairs] == [True, True, False, False]
    assert dtypes == {np.dtype(butterflies(n))}
    if n <= 256:
        assert [delta_table(x, y).aleph_statistic() for x, y in pairs] == expect


@pytest.mark.parametrize("n", ALLOWED_N)
def test_bent_x_against_zero_at_every_n(n):
    """A bent x against y = 0: every cell has (2*delta - n)**2 = n, inside
    the window, so the statistic is exactly n**3, the pair is atypical and
    every answer is valid, even one with no entry outside the window."""
    x, zero = bent(n), BitString(0, n)
    assert aleph_statistic(x, zero) == n**3
    assert not aleph(x, zero)
    assert ghr_is_valid(x, zero, answer(n, 0)) and ghr_is_valid(x, zero, answer(n, n - 1))
    if n <= 256:
        table = delta_table(x, zero)
        assert table.aleph_statistic() == n**3 and not table.aleph()


def test_aleph_statistics_rejects_mixed_stacks():
    four, sixteen = BitString(0, 4), BitString(0, 16)
    with pytest.raises(ValueError, match="equally many"):
        relation.aleph_statistics([four], [])
    with pytest.raises(ValueError, match="equally many"):
        relation.aleph_statistics([], [])
    with pytest.raises(ValueError, match="length mismatch"):
        relation.aleph_statistics([four, sixteen], [four, sixteen])
    with pytest.raises(ValueError, match="length mismatch"):
        relation.aleph_statistics([four], [sixteen])


def test_ghr_valid_counts_outside_entries():
    x, y = bs("0000"), bs("1100")
    # s=10 column: j=4 has delta 4 (deviation 4, outside), j=2 has delta 0 (outside)
    outside = [TransformIndex(4, bs("10")), TransformIndex(2, bs("10"))]
    inside = [TransformIndex(1, bs("00")), TransformIndex(2, bs("00"))]
    assert ghr_is_valid(x, y, outside)
    assert ghr_is_valid(x, y, [outside[0], inside[0]])  # half outside is enough
    assert not ghr_is_valid(x, y, inside)


def test_ghr_valid_builds_the_pair_signs_once(monkeypatch):
    signs, typical = [], []
    real_signs, real_typical = relation._signs, relation._typical
    monkeypatch.setattr(relation, "_signs", lambda x, y: signs.append(1) or real_signs(x, y))
    monkeypatch.setattr(relation, "_typical", lambda *s: typical.append(1) or real_typical(*s))
    x, y = bs("0000"), bs("1100")
    outside = [TransformIndex(4, bs("10")), TransformIndex(2, bs("10"))]
    inside = [TransformIndex(1, bs("00")), TransformIndex(2, bs("00"))]
    # the second answer leaves validity to the typicality fallback, which
    # reads the same signs
    for answer, fallback in ((outside, 0), (inside, 1)):
        signs.clear()
        ghr_is_valid(x, y, answer)
        assert len(signs) == 1
        assert len(typical) == fallback


def test_ghr_vacuous_when_atypical():
    x, y = bs("0000"), bs("1000")
    assert not aleph(x, y)
    anything = [TransformIndex(1, bs("00")), TransformIndex(1, bs("00"))]
    assert ghr_is_valid(x, y, anything)


def test_ghr_answer_length_enforced():
    x, y = bs("0000"), bs("1100")
    with pytest.raises(ValueError):
        ghr_is_valid(x, y, [TransformIndex(1, bs("00"))])
    with pytest.raises(ValueError):
        ghr_is_valid(x, y, [TransformIndex(1, bs("00")), TransformIndex(1, bs("000"))])
    for j in (0, 5):
        with pytest.raises(ValueError, match=rf"shift {j} outside \[1, 4\]"):
            ghr_is_valid(x, y, [TransformIndex(1, bs("00")), TransformIndex(j, bs("00"))])


@pytest.mark.parametrize("n", [4, 16, 256, 4096])
def test_row_spectra_equal_the_table_rows(n):
    """The two-level reader (_row_cells) of rows picked from a stack of two
    pairs, shifts 1 and n repeated: with r = sqrt(n), its ends are the
    cumulative masses down each table row of its blocks of r selectors,
    and cells gives the squared cells of every block asked for.  A sign
    zeroed in one pair's y row breaks Parseval in that pair's columns
    alone; read from column c on, the first of them, column c, is named by
    its shift and pair."""
    rng = Rng(n)
    pairs = [(random_bitstring(n, rng), random_bitstring(n, rng)) for _ in range(2)]
    shifts = np.array([1, n, 2, 1, n // 2 + 1, n, 3, 1])
    pair = np.array([0, 1, 1, 0, 0, 0, 1, 1])
    rows = {}
    for p, (x, y) in enumerate(pairs):
        squares = delta_table(x, y).squares  # one table at a time: 64 MiB of squares at n = 4096
        rows.update({(p, int(j)): squares[j - 1].copy() for j in shifts[pair == p]})
        del squares
    root = math.isqrt(n)
    blocks = np.stack([rows[p, j] for j, p in zip(shifts, pair)], axis=1).reshape(root, root, -1)
    px, py = stack_of(pairs)
    ends, cells = relation._row_cells(px, py, pair, shifts)
    assert np.array_equal(ends, np.cumsum(blocks.sum(axis=1), axis=0))
    assert ends.dtype == np.int32
    col, block = (a.ravel() for a in np.meshgrid(np.arange(len(shifts)), np.arange(root)))
    assert np.array_equal(cells(col, block), blocks[block, :, col].T)
    for c in (2, 4):
        broken = py.copy()
        broken[pair[c], 1] = 0
        other = pair != pair[c]
        relation._row_cells(px, broken, pair[other], shifts[other])
        assert np.count_nonzero(pair[c:] == pair[c]) > 1
        match = f"^row j={shifts[c]} of pair {pair[c]} in its stack sums to {n * (n - 1)}, not n\\*\\*2 = {n * n}$"
        with pytest.raises(InvariantError, match=match):
            relation._row_cells(px, broken, pair[c:], shifts[c:])


def test_ghr_valid_reads_the_answer_in_one_transform(relation_transforms):
    rng = Rng(5)
    n, m = 64, answer_length(64)
    x, y = random_bitstring(n, rng), random_bitstring(n, rng)
    squares = delta_table(x, y).squares

    def answer(cells):
        return [TransformIndex(int(j) + 1, BitString(int(s), m)) for j, s in cells[:m]]

    columns = []
    relation_transforms(lambda product, run: columns.append(product.shape[1]) or run())
    aleph(x, y)
    stream = columns[:]  # the typicality stream's transforms
    columns.clear()
    # one level-1 transform of the m rows, each 8 lanes of 8 cells, and one
    # level-2 transform of the m blocks that hold the entries
    assert ghr_is_valid(x, y, answer(np.argwhere(squares > n)))  # decided by its entries
    assert columns == [8 * m, m]
    columns.clear()
    ghr_is_valid(x, y, answer(np.argwhere(squares <= n)))  # left open: typicality decides
    assert columns == [8 * m, m] + stream


def test_corrupted_row_trips_parseval_check(monkeypatch, relation_transforms):
    def corrupted(out):
        out[0] += 2
        return out

    relation_transforms(lambda product, run: corrupted(run()))
    monkeypatch.setattr(oracle, "fwht", lambda v, *buffers: corrupted(fwht(v, *buffers)))
    x, y = bs("0100"), bs("1110")
    with pytest.raises(InvariantError, match="row j=3 .*n\\*\\*2 = 16"):
        ghr_is_valid(x, y, [TransformIndex(3, bs("00"))] * 2)
    # a full table runs the same check on every row; here every row is off
    with pytest.raises(InvariantError, match="row j=1 .*n\\*\\*2 = 16"):
        delta_table(x, y)
    with pytest.raises(InvariantError, match="row j=1 .*n\\*\\*2 = 16"):
        aleph(x, y)


def test_ghr_valid_equals_full_table_reference():
    """Answer-first check against the table-first definition, on answers of
    random shifts, of the edge shifts 1 and n, and of one shift repeated."""
    rng = Rng(11)
    for n in (4, 16, 64, 256):
        m = answer_length(n)
        seen = set()
        for _ in range(60 if n == 16 else 20):
            x = random_bitstring(n, rng)
            y = random_bitstring(n, rng)
            table = delta_table(x, y)
            for shifts in ([rng.below(n) + 1 for _ in range(m)], [1, n] * (m // 2), [rng.below(n) + 1] * m):
                answer = [TransformIndex(j, BitString(rng.below(n), m)) for j in shifts]
                outside = sum((2 * table.entry(t.j, t.s) - n) ** 2 > n for t in answer)
                expect = (not table.aleph()) or 2 * outside >= m
                assert ghr_is_valid(x, y, answer) == expect
                seen.add(expect)
        assert seen == {True, False}, n


def test_tghr_threshold_is_exact():
    n = 16
    x = BitString.zeros(n)
    y = BitString.zeros(n)
    # distance d valid iff d <= n/2 - sqrt(n) = 4
    for d in range(n + 1):
        tau = BitString((1 << d) - 1, n)
        assert tghr_is_valid(x, y, tau) == (d <= 4)


def test_tghr_non_square_threshold():
    n = 6  # n/2 - sqrt(n) = 0.551..., so only distance 0 passes
    x = BitString.zeros(n)
    for d in range(n + 1):
        tau = BitString((1 << d) - 1, n)
        assert tghr_is_valid(x, BitString.zeros(n), tau) == (d == 0)


def test_ghd_value_three_zones():
    n, d = 8, 2
    x = BitString.zeros(n)
    weights = {0: 0, 2: 0, 3: None, 4: None, 5: None, 6: 1, 8: 1}
    for w, expect in weights.items():
        y = BitString((1 << w) - 1, n)
        assert ghd_value(x, y, d) == expect


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tghr_is_valid(bs("0000"), bs("0000"), bs("000")), "equal lengths"),
        (lambda: tghr_is_valid(bs("0000"), bs("000"), bs("0000")), "equal lengths"),
        (lambda: ghd_value(bs("0000"), bs("000"), 1), "length mismatch: 4 vs 3"),
        (lambda: ghd_value(bs("0000"), bs("0000"), 0), "gap parameter 0 outside"),
        (lambda: ghd_value(bs("0000"), bs("0000"), 3), "gap parameter 3 outside"),
    ],
    ids=["tghr-y", "tghr-tau", "ghd-lengths", "ghd-gap-0", "ghd-gap-3"],
)
def test_plain_relations_refuse_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_exact_aleph_probability_small():
    typical = sum(delta_table_naive(x, y).aleph() for x, y in enumerate_pairs(4))
    assert exact_aleph_probability(4) == Fraction(typical, 256) == Fraction(1, 2)
    with pytest.raises(ValueError):
        exact_aleph_probability(64)


def test_estimate_aleph_probability_deterministic():
    a = estimate_aleph_probability(16, 60, Rng(2))
    b = estimate_aleph_probability(16, 60, Rng(2))
    assert a == b
    assert a.trials == 60
    assert 0.0 <= a.mean <= 1.0


def test_estimate_thread_invariance(monkeypatch):
    monkeypatch.setenv("GHRLAB_THREADS", "4")
    a = estimate_aleph_probability(16, 40, Rng(8))
    monkeypatch.setenv("GHRLAB_THREADS", "1")
    b = estimate_aleph_probability(16, 40, Rng(8))
    assert a == b


def test_mc_estimate_stderr():
    est = McEstimate.from_successes(30, 120, seed=0)
    assert est.mean == 0.25
    assert est.stderr == pytest.approx((0.25 * 0.75 / 120) ** 0.5)
    with pytest.raises(ValueError):
        McEstimate.from_successes(5, 0, seed=0)


def size_entry_points():
    """(name, call): each call(n) runs one entry point that reads a size n,
    and returns what can be compared across equal sizes."""
    instances = [DisjointnessInstance(1, frozenset({1}), frozenset({2}))]
    return [
        ("answer_length", answer_length),
        ("require_transform_size", require_transform_size),
        ("require_repetitions", lambda n: protocol.require_repetitions(n, 4)),
        ("estimate_aleph_probability", lambda n: estimate_aleph_probability(n, 20, Rng(3))),
        ("estimate_success", lambda n: protocol.estimate_success(n, 20, Rng(3))),
        ("exact_aleph_probability", lambda n: exact_aleph_probability(n // 4)),
        ("u_vector", lambda n: oracle.u_vector(TransformIndex(3, BitString(5, 4)), n).amplitudes.tolist()),
        ("fourier_pattern", lambda n: fourier_pattern(BitString(5, 4), n)),
        ("bit_rows", lambda n: Rng(1).bit_rows(2, n).tolist()),
        ("bits", lambda n: Rng(1).bits(n)),
        ("random_bitstring", lambda n: random_bitstring(n, Rng(1))),
        ("trial_pair", lambda n: (lambda x, y, child: (x, y, child.u64()))(*relation.trial_pair(n, Rng(1), 0))),
        # 64 bits, whose value 2**63 does not fit a C long: the length is read as an int
        ("BitString", lambda n: BitString(2**63, 4 * n)),
        ("random_bitstring at 4n", lambda n: random_bitstring(4 * n, Rng(1))),
        ("estimate_baseline_success", lambda n: classical.estimate_baseline_success(n, 4, 20, Rng(1))),
        (
            "reduction_xi_many",
            lambda n: [
                [v.tolist() if name == "permutation" else v for name, v in vars(t).items()]
                for t in classical.reduction_xi_many(instances, 6, 8, n, RectangleSpec.full(16), Rng(3))
            ],
        ),
    ]


@pytest.mark.parametrize("n", [16, np.int64(16)], ids=["int", "int64"])
def test_numpy_integer_sizes_read_as_ints(n):
    """A numpy integer size gives what the same int gives, at every entry
    point that reads a size; a float size raises TypeError."""
    for name, call in size_entry_points():
        assert call(n) == call(16), name
        with pytest.raises(TypeError):
            call(16.0)
