"""Bit-string algebra on packed words.

BitString is an immutable fixed-length vector of bits.  The text form reads
position 1 first, so "0110" has ones at positions 2 and 3.  Rng is a seeded
counter-based random source whose child streams are keyed by trial number,
which keeps parallel experiments replayable.  Everything here is a pure
function of its inputs.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Callable, Iterable

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
        self.n = n = operator.index(n)
        value = operator.index(value)
        if n < 1:
            raise ValueError(f"bit-string length must be >= 1, got {n}")
        if value < 0 or value >> n:
            raise ValueError(f"value {value} does not fit in {n} bits")
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
    n = operator.index(n)
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


def fwht_steps(
    v: np.ndarray, buffers: tuple[np.ndarray, np.ndarray], *, closing_rotation: bool = True
) -> Callable[[], np.ndarray]:
    """The butterflies and transposing copies of fwht(v, buffers), as views
    built once, and a runner that takes no argument: each call runs the
    steps on what v holds then and returns the buffer that holds its
    transform, so a caller that writes into the same v again and again
    builds the views only once.  v and both buffers must be C-contiguous,
    so that every view reads or writes their own memory.

    The k stages commute, and a stage whose butterfly partners sit few rows
    apart runs numpy's inner loop on short rows: at 256 rows by 256 columns
    on a 2-core VM, each of the 4 stages with partners under 16 rows apart
    took 20 - 25 us, against 6 - 14 us for the others.  So the stages run in
    two rounds, as in the transpose step of Bailey's four-step FFT
    (J. Supercomputing 4, 1990): a round butterflies only the top bits of
    the stored row index, whose partners sit at least 2**(k - top) rows
    apart, and then one transposing copy
    (2**top, 2**(k - top), columns) -> (2**(k - top), 2**top, columns)
    rotates the row index by top bits.  The rounds take h = k // 2 and
    k - h bits, so the rotations add up to k and the result is in natural
    order.  CHANGES.md times both loops at every shape a run path uses.
    With closing_rotation=False the second round's copy is left out, and
    row lo * 2**h + hi of the result holds the natural order's row
    hi * 2**(k - h) + lo, for hi < 2**h and lo < 2**(k - h).

    The first round's butterflies run in v's dtype, and its copy writes
    the buffers' dtype, in which the second round runs.  When the two
    dtypes differ, the first round writes two v-dtype scratch arrays carved
    from the second buffer's memory, which no step touches again before
    the second round, so v is still not written and nothing is allocated.
    A first-round value is a sum of 2**h entries of v, so for v of signs
    int8 is exact up to k = 13: 2**h is at most 64 there, and the
    butterflies move half the bytes of int16 ones.  Refuses a v
    with no axis 0 or one whose length is not 2**k, buffers of two dtypes
    or of one that cannot hold v's, and a narrower v whose first round
    could overflow on signs (2**h above its dtype's maximum)."""
    size = v.shape[0] if v.ndim else 0
    if size < 1 or size & (size - 1):
        raise ValueError(f"fwht needs an axis 0 of length 2**k, got shape {v.shape}")
    if not all(a.flags.c_contiguous for a in (v, *buffers)):
        raise ValueError("fwht steps need a C-contiguous array and buffers")
    wide = buffers[0].dtype
    if buffers[1].dtype != wide or not np.can_cast(v.dtype, wide):
        raise ValueError(f"fwht buffers must share a dtype that holds {v.dtype}, got {wide} and {buffers[1].dtype}")
    cols = v.size // size
    k = size.bit_length() - 1
    h = k // 2
    if v.dtype == wide:
        first, parity = buffers, h
    elif 1 << h <= np.iinfo(v.dtype).max:
        carved = buffers[1].reshape(-1).view(np.uint8)[: 2 * v.nbytes].view(v.dtype)
        first, parity = [half.reshape(v.shape) for half in np.split(carved, 2)], 0
    else:
        raise ValueError(
            f"the {v.dtype} first round at length {size} sums 2**{h} signs, past {np.iinfo(v.dtype).max}"
        )
    # each step writes the array after the one it reads: the first round
    # alternates within its pair, and the copy out of a round carved from
    # buffers[1] writes buffers[0] first
    targets = iter([first[i & 1] for i in range(h)] + [buffers[(parity + i) & 1] for i in range(k - h + 2)])
    src, ops = v, []
    for top, rotate in ((h, True), (k - h, closing_rotation)):
        low = size >> top
        for bit in range(top):
            a = src.reshape(-1, 2, (low << bit) * cols)
            dst = next(targets)
            a0, a1 = a[:, 0], a[:, 1]
            b = dst.reshape(a.shape)
            ops += [(np.add, (a0, a1, b[:, 0])), (np.subtract, (a0, a1, b[:, 1]))]
            src = dst
        if rotate:
            dst = next(targets)
            rotated = src.reshape(1 << top, low, cols).transpose(1, 0, 2)
            ops.append((np.copyto, (dst.reshape(low, 1 << top, cols), rotated)))
            src = dst

    def run() -> np.ndarray:
        for op, args in ops:
            op(*args)
        return src

    return run


def fwht(v: np.ndarray, buffers: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Walsh-Hadamard transform along axis 0, whose length is 2**k, in
    natural order: out[s, ...] = sum_i (-1)**popcount(s & i) * v[i, ...].

    A 1-D vector and an (n, columns) array take the same butterflies, so
    every column of a 2-D input is transformed on its own.  Butterflies run in
    v's own dtype, so integer input stays exact while no value overflows;
    applying it twice scales by the length.  Each step reads one buffer and
    writes the other; v is not written.  buffers, when given, are two
    distinct C-contiguous arrays of v's shape and of one dtype that the
    steps write in turn in place of fresh ones, and the result is one of
    them.  Of v's dtype, only the first step reads v, so the second buffer
    may be v itself, which is then overwritten.  Of a wider dtype, only the
    first round of butterflies runs in v's and the rest in the buffers'
    (fwht_steps, which can also leave the result in its rotated order).

    fwht builds the steps for v read as a C-contiguous array (a copy when
    it is not one) and runs them once (fwht_steps): at 256 rows by 256
    columns on a 2-core VM, building took about 19 us of a 98 us
    transform.  Another length, or a 0-d v, raises ValueError."""
    src = np.asarray(v, order="C")  # np.ascontiguousarray would make a 0-d v 1-d
    if buffers is None:
        buffers = (np.empty_like(src), np.empty_like(src))
    return fwht_steps(src, buffers)()


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

    Philox is counter-based (Salmon et al., SC 2011), so words32, words64
    and the reads built on them (bit_rows, bits, u64, chance) take its
    64-bit words raw (random_raw): bit_rows(2, 1024) took 4 - 6 us, and
    9 - 14 us through Generator.integers, on a 2-core VM.  The numpy
    Generator that below and permutation need is built on the first such
    draw (generator).  Every value, and the stream position after it, is
    the one that Generator(Philox(key=[seed, stream])) gives.
    """

    algorithm = RNG_ALGORITHM

    def __init__(self, seed: int, stream: int = _ROOT_STREAM) -> None:
        require_seed(seed)
        self.seed = int(seed)
        self.stream = stream
        self._bits = np.random.Philox(_key_type()(self.seed, stream), counter=_ZERO_COUNTER)
        self._held: int | None = None  # an unread high half-word, until a Generator holds it
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        """The stream as a numpy Generator, built on first use; from then on
        words32 reads through it too.  A half-word that words32 holds goes
        into the bit generator's own uint32 buffer, where Generator.integers'
        uint32 reads would have left it."""
        if self._generator is None:
            if self._held is not None:
                state = self._bits.state
                state["has_uint32"], state["uinteger"] = 1, self._held
                self._bits.state = state
                self._held = None
            self._generator = np.random.Generator(self._bits)
        return self._generator

    def child(self, index: int) -> "Rng":
        """Independent stream for trial `index`; only the root stream splits."""
        if self.stream != _ROOT_STREAM:
            raise ValueError(f"stream {self.stream} is a child; nested splitting is unsupported")
        if not 0 <= index < _ROOT_STREAM:
            raise ValueError(f"child index {index} out of range")
        return Rng(self.seed, stream=index)

    def words64(self, count: int) -> np.ndarray:
        """count raw 64-bit Philox words, as generator.integers(0, 2**64,
        size=count, dtype=np.uint64) returns them; a held half-word stays
        held."""
        bits = self._bits if self._generator is None else self._generator.bit_generator
        return bits.random_raw(count)

    def words32(self, count: int) -> np.ndarray:
        """count full-range 32-bit words, as generator.integers(0, 2**32,
        size=count, dtype=np.uint32) returns them: the low half and then the
        high half of each 64-bit word, a held half first, and the high half
        of the last word held for the next call when it is not read."""
        if self._generator is not None:
            return self._generator.integers(0, 1 << 32, size=count, dtype=np.uint32)
        held = self._held is not None
        halves = self._bits.random_raw((count - held + 1) // 2).astype("<u8", copy=False).view("<u4")
        if held:
            halves = np.concatenate((np.array([self._held], dtype="<u4"), halves))
        self._held = int(halves[count]) if len(halves) > count else None
        return halves[:count]

    def bits(self, count: int) -> int:
        """count independent fair bits packed into an int: one row of
        bit_rows."""
        return int.from_bytes(self.bit_rows(1, count).tobytes(), "big")

    def bit_rows(self, rows: int, count: int) -> np.ndarray:
        """rows draws of count fair bits in one call, as a (rows, ceil(count/8))
        uint8 array whose row i holds the big-endian bytes of the i-th draw.

        Each row takes ceil(k/4) words32 words in turn and keeps the first
        k = ceil(count/8) of their little-endian bytes, the high bits of its
        first byte cleared, so the stream is read exactly as rows calls of
        bits(count) read it and is left at the same position.  All rows come
        from one words32 call, which reads the raw Philox words and carries
        a half-word over when the call takes an odd number of words (an odd
        rows with ceil(k/4) odd)."""
        count = operator.index(count)
        if count < 1:
            raise ValueError("count must be >= 1")
        nbytes = (count + 7) // 8
        width = (nbytes + 3) // 4
        words = self.words32(rows * width).astype("<u4", copy=False)
        out = words.view(np.uint8).reshape(rows, 4 * width)[:, :nbytes]
        out[:, 0] &= 0xFF >> (8 * nbytes - count)
        return out

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if not 1 <= bound <= (1 << 63):
            raise ValueError(f"bound {bound} outside [1, 2^63]")
        return int(self.generator.integers(0, bound))

    def u64(self) -> int:
        return int(self.words64(1)[0])

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
