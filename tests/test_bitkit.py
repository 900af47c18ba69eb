"""Bit-string algebra and seeded randomness."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghrlab import bitkit
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


def walsh_matrix(size):
    return np.array(
        [[(-1) ** bin(s & i).count("1") for i in range(size)] for s in range(size)],
        dtype=np.int64,
    )


def test_fwht_equals_walsh_sign_matrix_product():
    gen = np.random.default_rng(0)
    for k in range(7):
        size = 1 << k
        v = gen.integers(-50, 50, size=size, dtype=np.int64)
        before = v.copy()
        out = fwht(v)
        assert np.array_equal(v, before)  # input untouched
        assert out.dtype == np.int64
        assert np.array_equal(out, walsh_matrix(size) @ v)
        assert np.array_equal(fwht(out), size * v)
        # along axis 0: each column of a 2-D array transforms on its own
        cols = gen.integers(-50, 50, size=(size, 3)).astype(np.int16)
        out2 = fwht(cols)
        assert out2.dtype == np.int16
        assert np.array_equal(out2, np.stack([fwht(c) for c in cols.T], axis=1))


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


def test_random_bitstring_uniform_bits():
    rng = Rng(9)
    counts = np.zeros(8, dtype=int)
    for _ in range(2000):
        counts += random_bitstring(8, rng).to_array()
    assert (counts > 850).all() and (counts < 1150).all()
