"""Bit-string algebra and seeded randomness."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghrlab import bitkit, protocol, relation
from ghrlab.bitkit import BitString, Rng, fourier_pattern, fwht, inner_mod2, random_bitstring


def bs(text):
    return BitString.from_text(text)


def test_text_round_trip():
    for text in ("0", "1", "0000", "1100", "010101", "1" * 64):
        assert str(bs(text)) == text
        assert len(bs(text)) == len(text)


def test_constructor_rejects_out_of_range():
    with pytest.raises(ValueError):
        BitString(16, 4)
    with pytest.raises(ValueError):
        BitString(-1, 4)
    with pytest.raises(ValueError):
        BitString(0, 0)
    with pytest.raises(ValueError):
        BitString.from_text("01x0")
    with pytest.raises(ValueError, match="bits must be 0 or 1, got 2"):
        BitString.from_bits([0, 2])
    with pytest.raises(ValueError, match="at least one bit"):
        BitString.from_bits([])
    for arr in (np.zeros((2, 2)), np.zeros(0)):
        with pytest.raises(ValueError, match="one-dimensional and nonempty"):
            BitString.from_array(arr)
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        BitString.from_array(np.array([0, 2]))


@pytest.mark.parametrize("value", [5, np.int64(5)])
def test_value_is_read_as_an_index(value):
    """A numpy integer value is stored as the int it stands for, so every
    method that reads the packed value works on it as on an int."""
    x = BitString(value, 4)
    assert type(x.value) is int and x == BitString(5, 4)
    assert x.to_array().tolist() == [0, 1, 0, 1]
    y = BitString(3, 4)
    assert relation.aleph_statistic(x, y) == relation.aleph_statistic(BitString(5, 4), y)
    with pytest.raises(TypeError):
        BitString(5.0, 4)


def test_positions_are_msb_first():
    x = bs("1000")
    assert [x.bit(i) for i in range(1, 5)] == [1, 0, 0, 0]
    assert x.as_unsigned() == 8
    assert bs("0011").as_unsigned() == 3
    for i in (0, 5):
        with pytest.raises(ValueError, match=f"position {i} outside"):
            x.bit(i)


def test_weight_and_xor():
    assert bs("1100").weight() == 2
    assert (bs("1100") ^ bs("0110")) == bs("1010")
    assert (~bs("1010")) == bs("0101")
    with pytest.raises(ValueError):
        bs("10") ^ bs("100")


def test_array_round_trip():
    x = bs("100110")
    arr = x.to_array()
    assert arr.tolist() == [1, 0, 0, 1, 1, 0]
    assert BitString.from_array(arr) == x
    assert BitString.from_bits([1, 0, 0, 1, 1, 0]) == x


def test_cyclic_shift_examples():
    # position i moves to i+j, wrapping past n back to 1
    assert bs("1000").cyclic_shift(1) == bs("0100")
    assert bs("1000").cyclic_shift(3) == bs("0001")
    assert bs("1000").cyclic_shift(4) == bs("1000")
    assert bs("1100").cyclic_shift(2) == bs("0011")
    assert bs("1101").cyclic_shift(1) == bs("1110")


def test_cyclic_shift_rejects_out_of_range():
    with pytest.raises(ValueError):
        bs("1000").cyclic_shift(0)
    with pytest.raises(ValueError):
        bs("1000").cyclic_shift(5)


@given(st.integers(1, 48).flatmap(lambda n: st.tuples(st.integers(0, 2**n - 1), st.just(n))),
       st.data())
def test_shift_composition(value_n, data):
    value, n = value_n
    x = BitString(value, n)
    j1 = data.draw(st.integers(1, n))
    j2 = data.draw(st.integers(1, n))
    combined = ((j1 + j2 - 1) % n) + 1
    assert x.cyclic_shift(j1).cyclic_shift(j2) == x.cyclic_shift(combined)


@given(st.integers(1, 48).flatmap(lambda n: st.tuples(st.integers(0, 2**n - 1), st.just(n))))
def test_shift_preserves_weight(value_n):
    value, n = value_n
    x = BitString(value, n)
    for j in range(1, n + 1):
        assert x.cyclic_shift(j).weight() == x.weight()


def test_inner_mod2():
    assert inner_mod2(bs("110"), bs("101")) == 1
    assert inner_mod2(bs("110"), bs("011")) == 1
    assert inner_mod2(bs("101"), bs("101")) == 0
    assert inner_mod2(5, 3) == 1
    with pytest.raises(ValueError):
        inner_mod2(bs("10"), bs("100"))
    with pytest.raises(ValueError, match="nonnegative"):
        inner_mod2(-1, 3)


def test_fourier_pattern_worked_examples():
    assert fourier_pattern(bs("00"), 4) == bs("0000")
    assert fourier_pattern(bs("01"), 4) == bs("0101")
    assert fourier_pattern(bs("10"), 4) == bs("0011")
    assert fourier_pattern(bs("11"), 4) == bs("0110")


def test_fourier_pattern_validation():
    with pytest.raises(ValueError):
        fourier_pattern(bs("1"), 4)
    with pytest.raises(ValueError):
        fourier_pattern(bs("11"), 6)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_fourier_patterns_pairwise_distance(n):
    """Distinct selector patterns differ in exactly n/2 positions."""
    logn = n.bit_length() - 1
    pats = [fourier_pattern(BitString(v, logn), n) for v in range(n)]
    for a in range(n):
        assert pats[a].bit(1) == 0  # first coordinate indexes the zero word
        for b in range(a + 1, n):
            assert (pats[a] ^ pats[b]).weight() == n // 2


def test_rng_reproducible_and_children_disjoint():
    a = Rng(7)
    b = Rng(7)
    assert [a.u64() for _ in range(5)] == [b.u64() for _ in range(5)]
    c0 = Rng(7).child(0)
    c1 = Rng(7).child(1)
    assert [c0.u64() for _ in range(5)] != [c1.u64() for _ in range(5)]
    # replaying a child stream does not depend on parent draws
    parent = Rng(7)
    parent.u64()
    assert parent.child(0).u64() == Rng(7).child(0).u64()


ROOT = 2**64 - 1


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 7, ROOT])
def test_key_seeded_stream_equals_philox_key(seed, stream):
    """A stream seeded through the key alone is Generator(Philox(key=...))'s
    stream, for every way Rng reads it."""
    ours = Rng(seed, stream=stream)
    ref = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    assert ours.generator.bytes(13) == ref.bytes(13)
    assert np.array_equal(ours.generator.integers(0, 10**12, size=9), ref.integers(0, 10**12, size=9))
    for row in ours.bit_rows(3, 33):
        assert int.from_bytes(row.tobytes(), "big") == int.from_bytes(ref.bytes(5), "big") % 2**33
    assert ours.u64() == int(ref.integers(0, 1 << 64, dtype=np.uint64))
    if stream != ROOT:
        assert Rng(seed).child(stream).u64() == Rng(seed, stream=stream).u64()


def test_key_seed_sequence_answers_only_the_philox_key():
    key = bitkit._Key(5, 9)
    assert key.generate_state(2, np.uint64).tolist() == [5, 9]
    for request in ((4, np.uint64), (2, np.uint32), (1, np.uint64)):
        with pytest.raises(ValueError, match="2 uint64 words"):
            key.generate_state(*request)


def test_deepcopy_continues_the_stream():
    rng = Rng(11).child(4)
    rng.bits(13)
    twin = copy.deepcopy(rng)
    assert (twin.seed, twin.stream) == (rng.seed, rng.stream)
    assert [twin.u64() for _ in range(4)] == [rng.u64() for _ in range(4)]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3, -(2**63)])
def test_seed_outside_64_bits_is_refused(seed):
    """Masking would make Rng(2**64 + 3) replay Rng(3)."""
    with pytest.raises(ValueError, match=f"seed must be a 64-bit unsigned integer, got {seed}"):
        Rng(seed)


def test_nested_child_streams_raise():
    # a child's child would replay the root's child of the same index
    with pytest.raises(ValueError):
        Rng(5).child(3).child(0)
    assert Rng(5).child(3).stream == 3
    # the root's own stream id is no child's
    with pytest.raises(ValueError, match="child index"):
        Rng(5).child(2**64 - 1)


def walsh_rows(size, rows):
    """Rows `rows` of the size x size Walsh sign matrix, (-1)**popcount(s & i)."""
    both = np.asarray(rows)[:, None] & np.arange(size)
    parity = np.zeros(both.shape, dtype=np.int64)
    while both.any():
        parity ^= both & 1
        both >>= 1
    return 1 - 2 * parity


def test_fwht_equals_walsh_sign_matrix_product():
    gen = np.random.default_rng(0)
    for k in range(7):
        size = 1 << k
        v = gen.integers(-50, 50, size=size, dtype=np.int64)
        before = v.copy()
        out = fwht(v)
        assert np.array_equal(v, before)  # input untouched
        assert out.dtype == np.int64
        assert np.array_equal(out, walsh_rows(size, range(size)) @ v)
        assert np.array_equal(fwht(out), size * v)
        # along axis 0: each column of a 2-D array transforms on its own
        cols = gen.integers(-50, 50, size=(size, 3)).astype(np.int16)
        out2 = fwht(cols)
        assert out2.dtype == np.int16
        assert np.array_equal(out2, np.stack([fwht(c) for c in cols.T], axis=1))


FWHT_COLUMNS = (1, 3, 10, 60, 64, 256)


def fwht_inputs(k, dtype):
    """A vector and an (n, cols) array for each column count, at n = 2**k,
    of entries in {-1, 0, 1}: every butterfly value is then a sum of at
    most 4096 of them, exact in int16."""
    gen = np.random.default_rng(k)
    for shape in [(1 << k,)] + [(1 << k, cols) for cols in FWHT_COLUMNS]:
        yield gen.integers(-1, 2, size=shape).astype(dtype)


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
@pytest.mark.parametrize("k", range(13))
def test_fwht_equals_walsh_oracle_at_every_length(k, dtype):
    """Up to 256 rows the whole sign matrix is the oracle.  Beyond, applying
    the transform twice must scale by the length, and a few rows, among
    them the first, the second and the last, must match their sign rows; a
    bit-reversed or otherwise reordered result would pass the first check
    alone."""
    size = 1 << k
    for v in fwht_inputs(k, dtype):
        out = fwht(v)
        assert out.dtype == dtype and out.shape == v.shape
        wide = v.astype(np.int64)
        assert np.array_equal(fwht(out.astype(np.int64)), size * wide)
        if size <= 256:
            assert np.array_equal(out, walsh_rows(size, range(size)) @ wide)
        else:
            rows = sorted({0, 1, size // 2, size - 1, *np.random.default_rng(size).integers(0, size, 6)})
            assert np.array_equal(out[rows], walsh_rows(size, rows) @ wide)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 8, 11])
def test_fwht_buffer_contract(k):
    """With two distinct buffers v is not written and the result is one of
    them; the second buffer may be v itself; a non-contiguous v is read as
    its contiguous copy."""
    for v in fwht_inputs(k, np.int16):
        expect = fwht(v)
        before = v.copy()
        buffers = (np.empty_like(v), np.empty_like(v))
        out = fwht(v, buffers)
        assert np.array_equal(v, before)
        assert any(out is b for b in buffers)
        assert np.array_equal(out, expect)
        out = fwht(v, (buffers[0], v))
        assert out is buffers[0] or out is v
        assert np.array_equal(out, expect)
        wide = np.repeat(before[..., None], 2, axis=-1)  # every other cell of the last axis
        strided = wide[..., 0]
        assert not strided.flags.c_contiguous or strided.size == 1
        assert np.array_equal(fwht(strided), expect)
        assert np.array_equal(wide[..., 0], before)
        if v.ndim == 2:
            fortran = np.asfortranarray(before)
            assert np.array_equal(fwht(fortran), expect)


@pytest.mark.parametrize(
    "v",
    [np.arange(6), np.arange(12), np.arange(24).reshape(12, 2), np.arange(0), np.zeros((0, 4)), np.array(5)],
    ids=["6", "12", "12x2", "0", "0x4", "0-d"],
)
def test_fwht_refuses_a_length_that_is_not_a_power_of_two(v):
    # 6 and 12 used to give wrong transforms, 0 a ZeroDivisionError and a
    # 0-d v a transform of shape (1,)
    with pytest.raises(ValueError, match="length 2\\*\\*k"):
        fwht(v)
    with pytest.raises(ValueError, match="length 2\\*\\*k"):
        bitkit.fwht_steps(v, (np.empty_like(v), np.empty_like(v)))


def test_fwht_steps_replay_on_what_their_array_holds():
    """A runner transforms what its array holds when it runs: run again
    after the array is rewritten, it gives the new transform, in the same
    result buffer, and v is not written."""
    gen = np.random.default_rng(1)
    v = gen.integers(-1, 2, size=(16, 3)).astype(np.int16)
    buffers = (np.empty_like(v), np.empty_like(v))
    run = bitkit.fwht_steps(v, buffers)
    out = run()
    assert any(out is b for b in buffers)
    assert np.array_equal(out, fwht(v))
    for _ in range(2):
        block = gen.integers(-1, 2, size=v.shape).astype(np.int16)
        np.copyto(v, block)
        assert run() is out
        assert np.array_equal(out, fwht(block))
        assert np.array_equal(v, block)
    # a view of a non-contiguous array or buffer would read or write a copy
    for source, spare in ((np.asfortranarray(v), v), (v, np.empty((16, 6), np.int16)[:, ::2])):
        with pytest.raises(ValueError, match="C-contiguous"):
            bitkit.fwht_steps(source, (spare, np.empty_like(v)))


def sign_inputs(k):
    """Sign vectors of length 2**k as int8: all +1, all -1, alternating and
    random, the first three the extremes of every butterfly."""
    size = 1 << k
    yield from (np.ones(size, np.int8), -np.ones(size, np.int8), 1 - 2 * (np.arange(size) % 2).astype(np.int8))
    yield (1 - 2 * np.random.default_rng(k).integers(0, 2, size=size)).astype(np.int8)


@pytest.mark.parametrize("k", range(1, 13))
def test_narrow_first_round_equals_wide_transform(k, rotated_rows):
    """An int8 v with int16 buffers runs its first round in int8 and the
    rest in int16, and gives fwht's int16 transform at every length up to
    2**12, where round 1 reaches 2**6; v is not written.  Without the
    closing rotation the rows are the rotated order that the docstring
    states, and a 2-D v transforms each column on its own."""
    for v in sign_inputs(k):
        before = v.copy()
        expect = fwht(v.astype(np.int16))
        for shape in (v.shape, (v.size, 1)):
            buffers = (np.empty(shape, np.int16), np.empty(shape, np.int16))
            out = bitkit.fwht_steps(v.reshape(shape), buffers)()
            assert out.dtype == np.int16 and any(out is b for b in buffers)
            assert np.array_equal(out.reshape(-1), expect)
            out = bitkit.fwht_steps(v.reshape(shape), buffers, closing_rotation=False)()
            assert np.array_equal(out, rotated_rows(expect.reshape(shape)))
            assert np.array_equal(v, before)
    columns = np.stack(list(sign_inputs(k)), axis=1)
    out = bitkit.fwht_steps(columns, (np.empty(columns.shape, np.int16), np.empty(columns.shape, np.int16)))()
    assert np.array_equal(out, fwht(columns.astype(np.int16)))


def test_narrow_first_round_refusals():
    """An int8 v of length 2**14 sums 2**7 = 128 signs in round 1, past
    int8; buffers must share one dtype, and one no narrower than v's."""
    long = np.ones(1 << 14, np.int8)
    with pytest.raises(ValueError, match="int8 first round at length 16384 sums 2\\*\\*7 signs, past 127"):
        bitkit.fwht_steps(long, (np.empty(long.shape, np.int16), np.empty(long.shape, np.int16)))
    v = np.ones(16, np.int8)
    for buffers in (
        (np.empty(16, np.int16), np.empty(16, np.int32)),
        (np.empty(16, np.int16), np.empty(16, np.int8)),
    ):
        with pytest.raises(ValueError, match="share a dtype"):
            bitkit.fwht_steps(v, buffers)
    wide = np.ones(16, np.int16)
    with pytest.raises(ValueError, match="share a dtype that holds int16"):
        bitkit.fwht_steps(wide, (np.empty(16, np.int8), np.empty(16, np.int8)))
    # one length shorter is still exact in int8
    out = bitkit.fwht_steps(long[: 1 << 13], (np.empty(1 << 13, np.int16), np.empty(1 << 13, np.int16)))()
    assert out[0] == 1 << 13 and not out[1:].any()


def test_rng_bits_and_below():
    r = Rng(1)
    for count in (1, 7, 8, 64, 65, 130):
        v = r.bits(count)
        assert 0 <= v < (1 << count)
    with pytest.raises(ValueError):
        r.bits(0)
    r2 = Rng(2)
    seen = {r2.below(6) for _ in range(200)}
    assert seen <= set(range(6))
    assert len(seen) == 6
    for bound in (0, 2**63 + 1):
        with pytest.raises(ValueError, match="outside"):
            r2.below(bound)


def test_rng_chance_exact_threshold():
    from fractions import Fraction

    r = Rng(3)
    hits = sum(r.chance(Fraction(1, 3)) for _ in range(3000))
    assert 850 <= hits <= 1150
    r2 = Rng(3)
    assert all(not r2.chance(Fraction(0)) for _ in range(10))
    r3 = Rng(3)
    assert all(r3.chance(Fraction(1)) for _ in range(10))
    for p in (Fraction(-1, 3), Fraction(4, 3)):
        with pytest.raises(ValueError, match="outside"):
            r3.chance(p)


def test_rng_permutation():
    p = Rng(5).permutation(10)
    assert sorted(p.tolist()) == list(range(10))
    assert np.array_equal(Rng(5).permutation(10), p)


@settings(max_examples=30)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_random_bitstring_in_range(n, seed):
    x = random_bitstring(n, Rng(seed))
    assert len(x) == n
    assert 0 <= x.as_unsigned() < (1 << n)


@pytest.mark.parametrize("count", [1, 7, 8, 13, 31, 32, 33, 64, 1000, 1024])
@pytest.mark.parametrize("rows", [0, 1, 5])
@pytest.mark.parametrize("offset", [0, 7])  # 7: a prior odd uint32 draw
def test_bit_rows_equal_bits_calls(count, rows, offset):
    batched, single = Rng(21), Rng(21)
    if offset:
        assert batched.bits(offset) == single.bits(offset)
    got = batched.bit_rows(rows, count)
    nbytes = (count + 7) // 8
    assert got.shape == (rows, nbytes) and got.dtype == np.uint8
    for row in got:
        assert int.from_bytes(row.tobytes(), "big") == single.bits(count)
    assert batched.bits(64) == single.bits(64)  # same stream position after
    with pytest.raises(ValueError):
        batched.bit_rows(1, 0)


class GeneratorReads:
    """The stream of Rng(seed, stream) read only through Generator.integers
    and Generator.permutation, as Rng read it before its raw Philox reads:
    the oracle of test_raw_reads_equal_generator_reads."""

    def __init__(self, seed, stream):
        key = np.array([seed, stream], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def bit_rows(self, rows, count):
        nbytes = (count + 7) // 8
        words = self.generator.integers(0, 1 << 32, size=(rows, (nbytes + 3) // 4), dtype=np.uint32)
        out = words.astype("<u4", copy=False).view(np.uint8)[:, :nbytes]
        out[:, 0] &= 0xFF >> (8 * nbytes - count)
        return out

    def bits(self, count):
        return int.from_bytes(self.bit_rows(1, count).tobytes(), "big")

    def below(self, bound):
        return int(self.generator.integers(0, bound))

    def u64(self):
        return int(self.generator.integers(0, 1 << 64, dtype=np.uint64))

    def permutation(self, count):
        return self.generator.permutation(count)

    def draws(self, n, count):
        return self.generator.integers(0, n**3, size=count, dtype=np.int64)


READS = st.one_of(
    # words per row 1 (n = 1, 3, 15), 2 (33), 3 (96) and 32 (1024), so an
    # odd row count with an odd width leaves a half-word held
    st.tuples(st.just("bit_rows"), st.integers(0, 3), st.sampled_from([1, 3, 15, 33, 96, 1024])),
    st.tuples(st.just("bits"), st.sampled_from([1, 7, 32, 33, 64, 65])),
    st.tuples(st.just("below"), st.integers(1, 2**63)),
    st.tuples(st.just("u64")),
    st.tuples(st.just("permutation"), st.integers(0, 20)),
    st.tuples(st.just("draws"), st.sampled_from([4, 16, 64, 256, 1024, 4096]), st.integers(1, 12)),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from([0, 9, 2**64 - 1]), st.lists(READS, max_size=10))
def test_raw_reads_equal_generator_reads(seed, stream, reads):
    """Every value of any interleaving of reads, and the stream position
    after them, equals the Generator.integers reads of the same stream,
    also where a held half-word goes to the Generator that below and
    permutation build."""
    ours, ref = Rng(seed, stream=stream), GeneratorReads(seed, stream)
    for name, *args in reads:
        if name == "draws":
            got, want = protocol._draws(ours, *args), ref.draws(*args)
        else:
            got, want = getattr(ours, name)(*args), getattr(ref, name)(*args)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and np.array_equal(got, want), name
        else:
            assert got == want, name
    assert ours.bits(32) == ref.bits(32)  # a held half-word first
    assert ours.u64() == ref.u64()
    assert ours.bits(96) == ref.bits(96)


def test_held_half_word_reaches_the_generator():
    """An odd number of 32-bit words leaves the high half of a Philox word
    held; the Generator built after it reads that half first, as
    Generator.integers' own uint32 reads would."""
    ours, ref = Rng(21), GeneratorReads(21, 2**64 - 1)
    assert ours.bits(7) == ref.bits(7)
    assert ours._held is not None
    assert ours.below(2**31) == ref.below(2**31)
    assert ours._held is None
    assert ours.bits(33) == ref.bits(33) and ours.u64() == ref.u64()


def test_random_bitstring_uniform_bits():
    rng = Rng(9)
    counts = np.zeros(8, dtype=int)
    for _ in range(2000):
        counts += random_bitstring(8, rng).to_array()
    assert (counts > 850).all() and (counts < 1150).all()
