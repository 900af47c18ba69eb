"""Full-table oracles: the n x n distance table, the exact outcome law over
it, and the explicit state vectors that check its closed form.

No run path builds the full table: relation and protocol decide from
streamed rows, and the tests hold them against the objects here.
delta_table runs its own transform, so the oracle shares no product or
block code with the run paths it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bitkit import BitString, Rng, fourier_pattern, fwht
from .relation import TransformIndex, _check_pair, answer_length, is_typical, require_transform_size
from .util import InvariantError


@dataclass(frozen=True, eq=False)
class DeltaTable:
    """All n**2 transformed distances of one input pair.

    values[j - 1, s.as_unsigned()] = delta(x, y, (j, s)), as int64, and
    squares holds (2*delta - n)**2 for the same cells, computed once with the
    table; every predicate below reads squares.
    """

    n: int
    values: np.ndarray
    squares: np.ndarray

    def entry(self, j: int, s: BitString) -> int:
        if not 1 <= j <= self.n:
            raise ValueError(f"shift {j} outside [1, {self.n}]")
        if s.n != answer_length(self.n):
            raise ValueError(f"selector must have {answer_length(self.n)} bits")
        return int(self.values[j - 1, s.as_unsigned()])

    def scaled_deviations(self) -> np.ndarray:
        """2*delta - n for every cell."""
        return 2 * self.values - self.n

    def parseval_sum(self) -> int:
        """Sum of (2*delta - n)**2 over all cells; equals n**3 exactly."""
        return int(self.squares.sum(dtype=np.int64))

    def window_mask(self) -> np.ndarray:
        """True where (2*delta - n)**2 <= n, the inclusive center window."""
        return self.squares <= self.n

    def aleph_statistic(self) -> int:
        """Sum of (2*delta - n)**2 over in-window cells."""
        return int(self.squares.sum(where=self.window_mask(), dtype=np.int64))

    def aleph(self) -> bool:
        """Typicality of the table's pair (is_typical)."""
        return is_typical(self.n, self.aleph_statistic())


def delta(x: BitString, y: BitString, t: TransformIndex) -> int:
    """Hamming distance |sigma_j(tau_s xor x) xor y|."""
    _check_pair(x, y)
    tau = fourier_pattern(t.s, x.n)
    return ((tau ^ x).cyclic_shift(t.j) ^ y).weight()


def delta_table(x: BitString, y: BitString) -> DeltaTable:
    """Full table of transformed distances, from one transform over all n
    shifts.

    Column j - 1 of the sign product is px * roll(py, -j), for the signs
    px = 1 - 2x and py = 1 - 2y, so its integer FWHT at s is
    n - 2 * delta(x, y, (j, s)).  Butterfly values are sums of at most n
    signs, so int16 is exact up to the size cap; squares are taken in int32.
    By Parseval every column of squares, one table row, sums to exactly
    n**2; the first that does not raises InvariantError naming its shift.
    values and squares are built one column per shift and returned as
    transposed views, which spares a copy.

    The transform writes its last stages over the product, so it holds two
    int16 arrays at a time; at n = 4096 the spectrum, its squares and the
    distances then peak at 14 bytes per cell, 224 MiB."""
    _check_pair(x, y)
    n = x.n
    px = 1 - 2 * x.to_array().astype(np.int16)
    py = 1 - 2 * y.to_array().astype(np.int16)
    # rolled[i, j - 1] = py[(i + j) % n] = roll(py, -j)[i], a view
    rolled = sliding_window_view(np.concatenate([py, py])[1:], n)
    product = px[:, None] * rolled
    corr = fwht(product, (np.empty_like(product), product))
    squares = np.square(corr, dtype=np.int32)
    sums = squares.sum(axis=0, dtype=np.int64)
    bad = np.flatnonzero(sums != n * n)
    if bad.size:
        raise InvariantError(f"row j={bad[0] + 1} sums to {int(sums[bad[0]])}, not n**2 = {n * n}")
    values = np.subtract(n, corr, dtype=np.int64)
    values >>= 1
    return DeltaTable(n, values.T, squares.T)


def delta_table_naive(x: BitString, y: BitString) -> DeltaTable:
    """Oracle for delta_table: every cell recomputed from the definition
    with packed word operations."""
    _check_pair(x, y)
    n = x.n
    k = answer_length(n)
    values = np.empty((n, n), dtype=np.int64)
    for s_val in range(n):
        w = fourier_pattern(BitString(s_val, k), n) ^ x
        for j in range(1, n + 1):
            values[j - 1, s_val] = (w.cyclic_shift(j) ^ y).weight()
    dev = 2 * values - n
    return DeltaTable(n, values, dev * dev)


@dataclass(frozen=True, eq=False)
class StateVector:
    """A real amplitude vector with unit norm up to float error."""

    dim: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def phi_vector(z: BitString) -> StateVector:
    """Message state of input z: amplitude (-1)**z_i / sqrt(n) at i."""
    signs = 1.0 - 2.0 * z.to_array().astype(np.float64)
    return StateVector(z.n, signs / math.sqrt(z.n))


def u_vector(t: TransformIndex, n: int) -> StateVector:
    """Measurement basis vector for (j, s) on the n**2-dimensional pair space.

    Support sits on coordinates (i, sigma_j(i)) with sign given by the Walsh
    pattern of s, amplitude 1/sqrt(n) each.
    """
    require_transform_size(n)
    j, s = t
    if not 1 <= j <= n:
        raise ValueError(f"shift {j} outside [1, {n}]")
    tau = fourier_pattern(s, n).to_array()
    amps = np.zeros(n * n)
    root = 1.0 / math.sqrt(n)
    for i0 in range(n):
        target = (i0 + j) % n
        amps[i0 * n + target] = root * (1.0 - 2.0 * float(tau[i0]))
    return StateVector(n * n, amps)


class OutcomeDistribution:
    """Exact outcome law of the joint measurement for one input pair.

    numerators[j - 1, s.as_unsigned()] over the denominator n**3, as exact
    integers; probability() is a Fraction and probabilities() the float view.
    Every row of numerators sums to exactly n**2, so the law is normalized
    by the table identity, and sampling is one uniform integer draw below
    n**3 per outcome.
    """

    def __init__(self, n: int, numerators: np.ndarray):
        require_transform_size(n)
        self.n = n
        self.numerators = numerators
        self._cumulative = None

    @classmethod
    def from_table(cls, table: DeltaTable) -> "OutcomeDistribution":
        return cls(table.n, table.squares)

    @property
    def denominator(self) -> int:
        return self.n**3

    def probability(self, j: int, s: BitString) -> Fraction:
        if not 1 <= j <= self.n:
            raise ValueError(f"shift {j} outside [1, {self.n}]")
        return Fraction(int(self.numerators[j - 1, s.as_unsigned()]), self.denominator)

    def probabilities(self) -> np.ndarray:
        """Dense float probabilities, rows j - 1, columns s.as_unsigned()."""
        return self.numerators / self.denominator

    def total_mass(self) -> Fraction:
        """Exact total; equals 1 by the table's deviation-square identity."""
        return Fraction(int(np.sum(self.numerators, dtype=np.int64)), self.denominator)

    def max_probability(self) -> Fraction:
        """Largest single outcome probability; never exceeds 1/n."""
        return Fraction(int(self.numerators.max()), self.denominator)

    def in_window_mass(self) -> Fraction:
        """Probability of landing in the center window; this is the success
        parameter p of one repetition."""
        flat = self.numerators
        return Fraction(int(np.sum(flat[flat <= self.n], dtype=np.int64)), self.denominator)

    def sample(self, rng: Rng, count: int) -> tuple[TransformIndex, ...]:
        """count independent outcomes, via exact inversion of the integer
        cumulative row."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if self._cumulative is None:
            self._cumulative = np.cumsum(self.numerators.reshape(-1), dtype=np.int64)
        draws = rng.generator.integers(0, self.denominator, size=count, dtype=np.int64)
        idx = np.searchsorted(self._cumulative, draws, side="right")
        k = answer_length(self.n)
        return tuple(
            TransformIndex(int(i) // self.n + 1, BitString(int(i) % self.n, k)) for i in idx
        )


def outcome_distribution(x: BitString, y: BitString) -> OutcomeDistribution:
    """Exact outcome law for inputs (x, y)."""
    return OutcomeDistribution.from_table(delta_table(x, y))
