"""Bit-string algebra on packed words.

BitString is an immutable fixed-length vector of bits.  The text form reads
position 1 first, so "0110" has ones at positions 2 and 3.  Rng is a seeded
counter-based random source whose child streams are keyed by trial number,
which keeps parallel experiments replayable.  Everything here is a pure
function of its inputs.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable

import numpy as np

RNG_ALGORITHM = "philox4x64-10"

_ROOT_STREAM = (1 << 64) - 1
# Philox's starting counter, 0, in the array form that it copies as is; an
# int counter goes through a Python loop, about a third of building a Philox
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)


class BitString:
    """Length-n {0,1} vector packed into one Python integer.

    The packed value equals the text form read as a binary numeral, so
    position 1 is the most significant bit.  Instances are immutable in use:
    no method mutates, operators return fresh objects.
    """

    __slots__ = ("n", "value")

    def __init__(self, value: int, n: int) -> None:
        if n < 1:
            raise ValueError(f"bit-string length must be >= 1, got {n}")
        if value < 0 or value >> n:
            raise ValueError(f"value {value} does not fit in {n} bits")
        self.n = n
        self.value = value

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(0, n)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls((1 << n) - 1, n)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        """Parse "0110"-style text, position 1 leftmost."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"text form must be nonempty over {{0,1}}, got {text!r}")
        return cls(int(text, 2), len(text))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        """Build from an iterable of 0/1 values in position order."""
        value = 0
        count = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            value = (value << 1) | b
            count += 1
        if count == 0:
            raise ValueError("at least one bit required")
        return cls(value, count)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitString":
        """Build from a numpy 0/1 array in position order."""
        arr = np.asarray(arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("array must be one-dimensional and nonempty")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("array entries must be 0 or 1")
        n = int(arr.size)
        nbytes = (n + 7) // 8
        padded = np.concatenate([np.zeros(8 * nbytes - n, dtype=np.uint8), arr.astype(np.uint8)])
        return cls(int.from_bytes(np.packbits(padded).tobytes(), "big"), n)

    def weight(self) -> int:
        """Number of 1 bits."""
        return self.value.bit_count()

    def bit(self, i: int) -> int:
        """Bit at position i, 1-indexed from the left of the text form."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} outside [1, {self.n}]")
        return (self.value >> (self.n - i)) & 1

    def as_unsigned(self) -> int:
        """Text form read as a binary numeral (position 1 most significant)."""
        return self.value

    def to_array(self) -> np.ndarray:
        """Bits as a uint8 array in position order."""
        nbytes = (self.n + 7) // 8
        raw = np.frombuffer(self.value.to_bytes(nbytes, "big"), dtype=np.uint8)
        return np.unpackbits(raw)[8 * nbytes - self.n:]

    def cyclic_shift(self, j: int) -> "BitString":
        """Rotate so the bit at position i moves to position i + j, wrapping
        past n back to position 1.  j must lie in [1, n]; j = n is the
        identity."""
        n = self.n
        if not 1 <= j <= n:
            raise ValueError(f"shift {j} outside [1, {n}]")
        if j == n:
            return self
        v = self.value
        rotated = (v >> j) | ((v & ((1 << j) - 1)) << (n - j))
        return BitString(rotated, n)

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitString(self.value ^ other.value, self.n)

    def __invert__(self) -> "BitString":
        return BitString(self.value ^ ((1 << self.n) - 1), self.n)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitString)
            and other.n == self.n
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.n, self.value))

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __repr__(self) -> str:
        return f"BitString.from_text({str(self)!r})"


def inner_mod2(u, v) -> int:
    """Parity of the bitwise AND of two equal-width bit vectors.

    Accepts BitString or nonnegative int operands; an int is read as a binary
    numeral, which is how index arguments enter Walsh patterns.
    """
    if isinstance(u, BitString) and isinstance(v, BitString) and u.n != v.n:
        raise ValueError(f"length mismatch: {u.n} vs {v.n}")
    a = u.as_unsigned() if isinstance(u, BitString) else int(u)
    b = v.as_unsigned() if isinstance(v, BitString) else int(v)
    if a < 0 or b < 0:
        raise ValueError("integer operands must be nonnegative")
    return (a & b).bit_count() & 1


def fourier_pattern(s: BitString, n: int) -> BitString:
    """0/1 sign pattern of one Walsh character.

    Bit at position i is the AND-parity of s with the (log2 n)-bit numeral
    i - 1.  The all-zero selector gives the all-zero pattern, and distinct
    patterns of the same n differ in exactly n/2 positions.  n must be a
    power of two and s must have exactly log2 n bits.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    k = n.bit_length() - 1
    if s.n != k:
        raise ValueError(f"selector must have {k} bits for n={n}, got {s.n}")
    sv = s.as_unsigned()
    acc = 0
    for i0 in range(n):
        acc = (acc << 1) | ((sv & i0).bit_count() & 1)
    return BitString(acc, n)


def fwht(
    v: np.ndarray, buffers: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Walsh-Hadamard transform along axis 0, whose length is 2**k, in
    natural order: out[s, ...] = sum_i (-1)**popcount(s & i) * v[i, ...].

    A 1-D vector and an (n, columns) array take the same butterflies, so
    every column of a 2-D input is transformed on its own.  Butterflies run in
    v's own dtype, so integer input stays exact while no value overflows;
    applying it twice scales by the length.  Each stage reads one buffer and
    writes the other over contiguous blocks of whole rows; v is not written.
    buffers, when given, are two distinct C-contiguous arrays of v's shape
    and dtype that the stages write in turn in place of fresh ones, and the
    result is one of them.  Only the first stage reads v, so the second
    buffer may be v itself, which is then overwritten."""
    src = np.ascontiguousarray(v)
    size = src.shape[0]
    if size == 1:
        return src.copy()
    cols = src.size // size
    if buffers is None:
        buffers = (np.empty_like(src), np.empty_like(src))
    for stage in range(size.bit_length() - 1):
        a = src.reshape(-1, 2, cols << stage)
        dst = buffers[stage & 1]
        b = dst.reshape(a.shape)
        np.add(a[:, 0], a[:, 1], out=b[:, 0])
        np.subtract(a[:, 0], a[:, 1], out=b[:, 1])
        src = dst
    return src


class _Key:
    """The Philox key [seed, stream] as a seed sequence.

    Philox(key=...) first builds a SeedSequence(None), which reads OS
    entropy, and then overwrites the key; handed this instead, Philox asks
    it for its key with generate_state(2, uint64) and reads nothing else,
    which makes a stream about three times cheaper to build.  The stream is
    the one Philox(key=[seed, stream]) gives."""

    __slots__ = ("key",)

    def __init__(self, seed: int, stream: int) -> None:
        self.key = (seed, stream)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return np.array(self.key, dtype=np.uint64)


@functools.cache
def _key_type() -> type[_Key]:
    """_Key, registered as a numpy.random ISeedSequence on the first call,
    when the first stream is built.  numpy 2 imports numpy.random on first
    use; importing it with ghrlab instead raised the peak RSS of a protocol
    run by about 0.6 MB."""
    np.random.bit_generator.ISeedSequence.register(_Key)
    return _Key


def require_seed(seed: int) -> None:
    """Reject a seed outside [0, 2**64), so that no two seeds share a stream."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


class Rng:
    """Seeded random source with replayable child streams.

    Streams are keyed by (seed, stream id): the root uses a reserved id and
    child(i) uses id i, so trial i's randomness depends only on (seed, i) and
    never on the parent's position in its own stream.  The seed must lie in
    [0, 2**64) (require_seed).  One level of splitting is
    supported: a child's own child would reuse the id space of the root's
    children, so child() on a child raises.  Children of the same seed are
    shared across call sites by design.
    """

    algorithm = RNG_ALGORITHM

    def __init__(self, seed: int, stream: int = _ROOT_STREAM) -> None:
        require_seed(seed)
        self.seed = int(seed)
        self.stream = stream
        bits = np.random.Philox(_key_type()(self.seed, stream), counter=_ZERO_COUNTER)
        self.generator = np.random.Generator(bits)

    def child(self, index: int) -> "Rng":
        """Independent stream for trial `index`; only the root stream splits."""
        if self.stream != _ROOT_STREAM:
            raise ValueError(f"stream {self.stream} is a child; nested splitting is unsupported")
        if not 0 <= index < _ROOT_STREAM:
            raise ValueError(f"child index {index} out of range")
        return Rng(self.seed, stream=index)

    def bits(self, count: int) -> int:
        """count independent fair bits packed into an int: one row of
        bit_rows."""
        return int.from_bytes(self.bit_rows(1, count).tobytes(), "big")

    def bit_rows(self, rows: int, count: int) -> np.ndarray:
        """rows draws of count fair bits in one call, as a (rows, ceil(count/8))
        uint8 array whose row i holds the big-endian bytes of the i-th draw.

        Each row takes ceil(k/4) full-range uint32 draws in turn and keeps
        the first k = ceil(count/8) of their little-endian bytes, the high
        bits of its first byte cleared, so the stream is read exactly as rows
        calls of bits(count) read it and is left at the same position."""
        if count < 1:
            raise ValueError("count must be >= 1")
        nbytes = (count + 7) // 8
        words = self.generator.integers(
            0, 1 << 32, size=(rows, (nbytes + 3) // 4), dtype=np.uint32
        )
        out = words.astype("<u4", copy=False).view(np.uint8)[:, :nbytes]
        out[:, 0] &= 0xFF >> (8 * nbytes - count)
        return out

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if not 1 <= bound <= (1 << 63):
            raise ValueError(f"bound {bound} outside [1, 2^63]")
        return int(self.generator.integers(0, bound))

    def u64(self) -> int:
        return int(self.generator.integers(0, 1 << 64, dtype=np.uint64))

    def chance(self, p: Fraction) -> bool:
        """Bernoulli draw with exact rational threshold.

        Compares one 64-bit uniform draw against p, so the bias is below
        2**-64 and the comparison itself is exact integer arithmetic.
        """
        if not 0 <= p <= 1:
            raise ValueError(f"probability {p} outside [0, 1]")
        r = self.u64()
        return r * p.denominator < p.numerator << 64

    def permutation(self, count: int) -> np.ndarray:
        return self.generator.permutation(count)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, algorithm={self.algorithm!r}, stream={self.stream})"


def random_bitstring(n: int, rng: Rng) -> BitString:
    """Uniform n-bit string; every bit an independent fair coin."""
    return BitString(rng.bits(n), n)
