"""Distance tables, window/typicality predicates, relation checkers."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghrlab.oracle as oracle
import ghrlab.relation as relation
from ghrlab.bitkit import BitString, Rng, fwht, random_bitstring
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
    # the cap keeps the transform exact in int16 and its squares in int32
    assert MAX_TRANSFORM_SIZE <= np.iinfo(np.int16).max
    assert MAX_TRANSFORM_SIZE**2 <= np.iinfo(np.int32).max
    # 16384 is a power of 4 above the cap; the guard is pure arithmetic
    with pytest.raises(ValueError, match=r"size cap 4096.*3\.5 GiB"):
        require_transform_size(16384)
    with pytest.raises(ValueError):
        answer_length(16384)


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


def transformed_shifts(monkeypatch):
    """Counts the table rows every later FWHT call of the relation builds."""
    count = [0]
    real = relation.fwht

    def counting(v, *buffers):
        count[0] += v.shape[1]
        return real(v, *buffers)

    monkeypatch.setattr(relation, "fwht", counting)
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
    # at n = 16 up to one pair in 150 has a statistic close enough to the
    # threshold that a typical-side bound looser than n**2 per unread row
    # would settle it wrongly
    fix_block_shifts(monkeypatch, shifts)
    rng = Rng(shifts)
    for _ in range(600):
        x, y = random_bitstring(16, rng), random_bitstring(16, rng)
        assert aleph(x, y) == delta_table(x, y).aleph()


@pytest.mark.parametrize("n", [256, 1024])
def test_early_verdict_on_adversarial_pairs(monkeypatch, n):
    x = random_bitstring(n, Rng(n + 1))
    for a, b in ((x, x), (x, ~x), (bent(n), BitString(0, n))):
        assert aleph(a, b) == delta_table(a, b).aleph()
    # every row of the bent pair adds n**2, so it is atypical once more than
    # 4n/9 rows are read: after its one block of the whole table at n = 256,
    # after 8 of 16 blocks at n = 1024
    count = transformed_shifts(monkeypatch)
    assert not aleph(bent(n), BitString(0, n))
    assert count[0] == {256: n, 1024: n // 2}[n]


def test_early_verdict_reads_fewer_rows_than_the_statistic(monkeypatch):
    n = 1024
    rng = Rng(5)
    x, y = random_bitstring(n, rng), random_bitstring(n, rng)
    count = transformed_shifts(monkeypatch)
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
    px, windows, children = relation._trial_signs(n, rng, range(5, 12))
    xs, ys, streams = zip(*(relation.trial_pair(n, rng, i) for i in range(5, 12)))
    assert px.dtype == windows.dtype == np.int16
    for k, (x, y) in enumerate(zip(xs, ys)):
        stream = rng.child(5 + k)
        assert (x, y) == (random_bitstring(n, stream), random_bitstring(n, stream))
        assert np.array_equal(px[k], 1 - 2 * x.to_array().astype(np.int16))
        for j in (0, 1, n - 1, n):
            assert np.array_equal(windows[k, j], np.roll(1 - 2 * y.to_array().astype(np.int16), -j))
        assert children[k].u64() == streams[k].u64() == stream.u64()
    expect_px, expect_windows = relation._stacked_signs(xs, ys)
    assert np.array_equal(px, expect_px) and np.array_equal(windows, expect_windows)


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


def test_stack_of_bent_pairs_stops_after_128_rows_each(monkeypatch):
    """8 bent pairs at n = 256 go in blocks of 32 shifts each, and every row
    adds n**2: all 8 are atypical after 4 blocks, 128 of their 256 rows."""
    n = 256
    pairs = [(bent(n), BitString(0, n))] * 8
    calls = []
    real = relation.fwht
    monkeypatch.setattr(relation, "fwht", lambda v, *b: calls.append(v.shape[1]) or real(v, *b))
    assert not relation._typical(*stack_of(pairs)).any()
    assert calls == [8 * 32] * 4


def test_corrupted_column_names_its_pair_and_shift(monkeypatch):
    """In a stack of 3 pairs at n = 16, one block holds every pair's 16
    shifts; column 16 + 4 is pair 1's shift 5."""
    rng = Rng(6)
    pairs = [(random_bitstring(16, rng), random_bitstring(16, rng)) for _ in range(3)]
    real = relation.fwht

    def corrupted(v, *buffers):
        out = real(v, *buffers)
        out[0, 16 + 4] += 2
        return out

    monkeypatch.setattr(relation, "fwht", corrupted)
    for stream in (relation._statistics, relation._typical):
        with pytest.raises(InvariantError, match="^row j=5 of pair 1 in its stack .*n\\*\\*2 = 256"):
            stream(*stack_of(pairs))


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


def test_ghr_valid_reads_the_answer_in_one_transform(monkeypatch):
    rng = Rng(5)
    n, m = 64, answer_length(64)
    x, y = random_bitstring(n, rng), random_bitstring(n, rng)
    squares = delta_table(x, y).squares

    def answer(cells):
        return [TransformIndex(int(j) + 1, BitString(int(s), m)) for j, s in cells[:m]]

    columns = []
    real = relation._spectra
    monkeypatch.setattr(
        relation, "_spectra", lambda px, picked, *rest: columns.append(picked.shape[:2]) or real(px, picked, *rest)
    )
    aleph(x, y)
    stream = columns[:]  # the typicality stream's transforms
    columns.clear()
    assert ghr_is_valid(x, y, answer(np.argwhere(squares > n)))  # decided by its entries
    assert columns == [(1, m)]
    columns.clear()
    ghr_is_valid(x, y, answer(np.argwhere(squares <= n)))  # left open: typicality decides
    assert columns == [(1, m)] + stream


def test_corrupted_row_trips_parseval_check(monkeypatch):
    def corrupted(v, *buffers):
        out = fwht(v, *buffers)
        out[0] += 2
        return out

    monkeypatch.setattr(relation, "fwht", corrupted)
    monkeypatch.setattr(oracle, "fwht", corrupted)
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
