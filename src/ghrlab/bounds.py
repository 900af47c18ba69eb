"""Concentration-bound calculators with exact binomial oracles.

Every tail calculator returns a value capped into [0, 1].  The one lower
bound (binomial_window_lower) may go negative by design; its additive
constant is calibrated once against the exact window oracle and shipped as
DEFAULT_WINDOW_C.  The exact oracles (the fair windows and the biased tail,
which protocol, coupling and classical read too) sum binomial coefficients
as integers, so dominance checks against them carry no float-summation risk.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .bitkit import Rng
from .util import map_trials

# Calibrated over even m in [50, 500] and all windows inside m/2 +- sqrt(m):
# the smallest nonnegative c with main - cubic - c/m <= exact everywhere.
# The grid search (calibrate_window_lower_c) maxes out at -4.02/m, i.e. the
# two leading terms already sit below the exact mass, so no correction is
# needed; 0.0 is kept rather than a negative value so the constant can only
# tighten the bound off-grid.
DEFAULT_WINDOW_C = 0.0


def markov_chebyshev_bound(kind: str, moment: float, t: float) -> float:
    """First/second-moment tail bound: moment/t or moment/t**2, capped at 1."""
    if t <= 0:
        raise ValueError("t must be positive")
    if moment < 0:
        raise ValueError("moment must be nonnegative")
    if kind == "markov":
        raw = moment / t
    elif kind == "chebyshev":
        raw = moment / (t * t)
    else:
        raise ValueError(f"kind must be 'markov' or 'chebyshev', got {kind!r}")
    return min(1.0, raw)


def hoeffding_bound(ranges: Iterable[tuple[float, float]], t: float) -> float:
    """Two-sided bounded-differences tail 2*exp(-2 t**2 / sum (b-a)**2)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    denom = 0.0
    for a, b in ranges:
        if b < a:
            raise ValueError(f"invalid range ({a}, {b})")
        denom += (b - a) ** 2
    if denom == 0.0:
        return 0.0 if t > 0 else 1.0
    return min(1.0, 2.0 * math.exp(-2.0 * t * t / denom))


def relaxed_chernoff_bound(
    side: str,
    a: float | None = None,
    t: float | None = None,
    form: str = "exp",
    m: float | None = None,
    mu: float | None = None,
    level: float | None = None,
) -> float:
    """Chernoff-style tail for a sum of [0,1] summands whose running
    conditional means stay below a (exp form) or mu (ratio form).

    exp form: lower tail exp(-t**2 / 2a), upper tail exp(-t**2 / (2a + t)).
    ratio form: (mu/level)**level * ((m-mu)/(m-level))**(m-level), with
    level >= mu on the upper side and level <= mu on the lower side.
    """
    if side not in ("lower_tail", "upper_tail"):
        raise ValueError(f"side must be 'lower_tail' or 'upper_tail', got {side!r}")
    if form == "exp":
        if a is None or t is None:
            raise ValueError("exp form needs a and t")
        if a < 0 or t < 0:
            raise ValueError("a and t must be nonnegative")
        if t == 0:
            return 1.0
        if a == 0:
            # degenerate mean cap: the lower tail is impossible to miss by
            # t > 0, the upper denominator stays positive through t
            return 0.0 if side == "lower_tail" else min(1.0, math.exp(-t))
        two_a = 2.0 * a
        if side == "lower_tail":
            return min(1.0, math.exp(-t * t / two_a))
        return min(1.0, math.exp(-t * t / (two_a + t)))
    if form == "ratio":
        if m is None or mu is None or level is None:
            raise ValueError("ratio form needs m, mu, level")
        if not 0 <= mu <= m:
            raise ValueError(f"mu={mu} outside [0, {m}]")
        if side == "upper_tail" and not mu <= level <= m:
            raise ValueError(f"upper level {level} outside [{mu}, {m}]")
        if side == "lower_tail" and not 0 <= level <= mu:
            raise ValueError(f"lower level {level} outside [0, {mu}]")
        return min(1.0, _ratio_power(mu, level) * _ratio_power(m - mu, m - level))
    raise ValueError(f"form must be 'exp' or 'ratio', got {form!r}")


def _ratio_power(num: float, den: float) -> float:
    """(num/den)**den with the 0**0 = 1 convention used by the ratio form."""
    if den == 0:
        return 1.0
    if num == 0:
        return 0.0
    return math.exp(den * (math.log(num) - math.log(den)))


def _fair_counts(m: int, ks: Sequence[int]) -> list[int]:
    """cum[k] = C(m, 0) + ... + C(m, k) at each k of ks, as exact integers:
    0 for k < 0 and 2**m for k >= m.  A numpy integer m gives its int's.

    No row is built: the walk starts at the middle, h = (m - 1) // 2, where
    the row's symmetry gives cum[h] = (2**m - C(m, m/2))/2 for even m and
    2**(m - 1) for odd m.  Each step down subtracts C(m, k) and takes C(m,
    k - 1) = C(m, k) k / (m - k + 1), an exact division, and a k above h
    reads 2**m - cum[m - 1 - k]; so the walk stops at the least of k and
    m - 1 - k asked for."""
    m = operator.index(m)
    h, full = (m - 1) // 2, 1 << m
    inside = [k for k in ks if 0 <= k < m]
    walked = []  # walked[h - j] = cum[j]
    if inside:
        coeff = math.comb(m, h)
        cum = full >> 1 if m % 2 else (full - coeff * (m - h) // (h + 1)) >> 1
        for k in range(h, min(min(inside), m - 1 - max(inside)) - 1, -1):
            walked.append(cum)
            cum -= coeff
            coeff = coeff * k // (m - k + 1)
    return [0 if k < 0 else full if k >= m else walked[h - k] if k <= h else full - walked[k + h + 1 - m] for k in ks]


def _excess(count: int, m: int, bound: float) -> int:
    """An integer with the sign of count / 2**m - bound, computed exactly."""
    p, q = bound.as_integer_ratio()
    return count * q - (p << m)


def _excess_signs(
    counts: Sequence[int], e: int | np.ndarray, observed: np.ndarray, bound: np.ndarray
) -> np.ndarray:
    """The sign of counts[i] / 2**e[i] - bound[i] at every point, as int8.

    e is one int or one per point, observed[i] must be the float counts[i]
    / 2**e[i], and counts is read only at a tie.  Python's int / int is
    correctly rounded, and rounding is monotone: a float bound rounds to
    itself, so a quotient <= bound forces observed <= bound, and a quotient
    >= bound forces observed >= bound.  Hence observed > bound proves the
    exact quotient exceeds bound, observed < bound proves it falls short,
    and only a tie observed == bound, or a NaN bound, leaves the sign open.
    _excess settles each of those with integers, refusing a NaN bound with
    ValueError.  This is a theorem, not a tolerance: every sign is that of
    the exact difference."""
    signs = (observed > bound).astype(np.int8) - (observed < bound)
    exps = np.broadcast_to(e, observed.shape)
    for i in np.flatnonzero(signs == 0):
        excess = _excess(counts[i], int(exps[i]), float(bound[i]))
        signs[i] = (excess > 0) - (excess < 0)
    return signs


def _dyadic_floats(counts: Sequence[int], e: int | np.ndarray) -> np.ndarray:
    """counts[i] / 2**e[i] for every 0 <= counts[i] <= 2**e[i], each equal
    to Python's correctly rounded int / int; e is one int or one per point.

    float(count), which the object-to-float cast calls, rounds correctly,
    and np.ldexp scales it by 2**-e exactly while the result stays normal,
    which holds for every count >= 1 when e <= 1000 (a zero count gives 0.0
    either way).  The points with e > 1000, and only those, are divided as
    ints."""
    exps = np.broadcast_to(e, (len(counts),))
    big = np.flatnonzero(exps > 1000)
    cast = np.array(counts, dtype=object)
    cast[big] = 0  # float() of a count past 2**1024 would overflow
    # ldexp's int32 exponent loop runs about 9x faster than its int64 one;
    # the clipped exponents are those of the points divided as ints below
    out = np.ldexp(cast.astype(np.float64), -np.minimum(exps, 1001).astype(np.int32))
    out[big] = [counts[i] / (1 << int(exps[i])) for i in big]
    return out


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp at every entry; numpy's exp is not bit-identical to it."""
    return np.fromiter(map(math.exp, x.tolist()), np.float64, x.size)


def _cap(x: np.ndarray) -> np.ndarray:
    """min(1.0, x) at every entry, as Python's min picks it."""
    return np.where(x < 1.0, x, 1.0)


# Grids each memo keeps, the least recently used evicted first: the CLI's
# bounds-validate reads one tail grid (1.4 MiB) and one window grid (0.24 MiB).
_GRIDS_KEPT = 8


@functools.lru_cache(maxsize=_GRIDS_KEPT)
def _tail_grid(ms: tuple[int, ...], t_max_divisor: int):
    """Columns over the points (m, t), m in ms and 1 <= t <= m //
    t_max_divisor, in (m, t) order, for both tail reports: m and t as int
    arrays; counts, a tuple of each point's integer C(m, 0) + ... + C(m,
    floor(m/2 - t)), 0 once floor(m/2 - t) < 0; the floats count / 2**m
    (one side) and count / 2**(m - 1) (both sides); Hoeffding's capped
    bound column; and Chernoff's three (_chernoff_bounds) when
    t_max_divisor >= 3, which keeps every ratio level inside (0, m), else
    none.  Every array is read-only, as the grid is memoised on its ints
    (_tail_key); the verdicts that read it are not.

    Over 2**m the count is the fair binomial's tail at or below m/2 - t
    and, by symmetry, the one at or above m/2 + t, so both tails together
    hold count / 2**(m - 1).  The one-sided float is the correctly rounded
    count / 2**m (_dyadic_floats); doubling a float is exact, so twice it is
    the correctly rounded count / 2**(m - 1) wherever count / 2**m is
    normal, and a point where it may not be is divided again."""
    ms = np.array(ms, dtype=np.int64)
    t_max = ms // t_max_divisor
    ms, t_max = ms[t_max >= 1], t_max[t_max >= 1]
    row = np.repeat(np.arange(ms.size), t_max)
    m_col = ms[row]
    t_col = np.arange(1, m_col.size + 1) - (np.cumsum(t_max) - t_max)[row]
    pairs = zip(ms.tolist(), t_max.tolist())  # each point's count at k = floor(m/2 - t) = m//2 - t
    counts = tuple(chain.from_iterable(_fair_counts(m, range(m // 2 - 1, m // 2 - top - 1, -1)) for m, top in pairs))
    one_sided = _dyadic_floats(counts, m_col)
    two_sided = one_sided * 2.0
    tiny = [i for i in np.flatnonzero(one_sided <= 2.0**-1022).tolist() if counts[i]]
    if tiny:
        two_sided[tiny] = _dyadic_floats([counts[i] for i in tiny], m_col[tiny] - 1)
    hoeffding = _hoeffding_bounds(m_col, t_col)
    chernoff = _chernoff_bounds(m_col, t_col) if t_max_divisor >= 3 else ()
    for column in (m_col, t_col, one_sided, two_sided, hoeffding, *chernoff):
        column.setflags(write=False)
    return m_col, t_col, counts, one_sided, two_sided, hoeffding, chernoff


def _tail_key(m_values: Iterable[int], t_max_divisor: int) -> tuple[tuple[int, ...], int]:
    """The m values and t_max_divisor of a tail grid read as ints
    (operator.index), which key its memo, so a numpy integer reaches its
    int's entry.  Refuses a t_max_divisor below 1 and, naming the caller's
    m_values, a grid with no point."""
    t_max_divisor = operator.index(t_max_divisor)
    if t_max_divisor < 1:
        raise ValueError(f"t_max_divisor must be >= 1, got {t_max_divisor}")
    ms = tuple(map(operator.index, m_values))
    if all(m < t_max_divisor for m in ms):  # m // t_max_divisor < 1
        raise ValueError(f"no point with 1 <= t <= m // {t_max_divisor} for m in {m_values!r}")
    return ms, t_max_divisor


def _hoeffding_bounds(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """hoeffding_bound([(0.0, 1.0)] * m, t) at every point, bit for bit."""
    tf = t.astype(np.float64)
    return _cap(2.0 * _exp(-2.0 * tf * tf / m.astype(np.float64)))


def _chernoff_bounds(m: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """relaxed_chernoff_bound's exp-form lower and upper tails and its
    ratio form at every point, bit for bit (chernoff_dominance_report)."""
    top = int((m + 2 * t).max())
    log_half = np.array([-math.inf] + [math.log(j / 2) for j in range(1, top + 1)])  # no level is 0
    tf = t.astype(np.float64)
    mu = m.astype(np.float64) / 2.0
    two_a = 2.0 * mu
    log_mu = log_half[m]
    below, above = mu - tf, mu + tf
    exp_lo = _cap(_exp(-tf * tf / two_a))
    exp_hi = _cap(_exp(-tf * tf / (two_a + tf)))
    # the _ratio_power factors of level mu - t and of level mu + t
    ratio = _cap(_exp(below * (log_mu - log_half[m - 2 * t])) * _exp(above * (log_mu - log_half[m + 2 * t])))
    return exp_lo, exp_hi, ratio


def _window_constants(m: int) -> tuple[float, float, float]:
    """binomial_window_lower's terms that depend on m alone: m/2 and the two
    square-root coefficients.  Refuses odd m and m < 2."""
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    return m / 2.0, math.sqrt(2.0 / (math.pi * m)), math.sqrt(8.0 / (9.0 * math.pi * m**3))


# The window report's tol over 1 + |shift|: 16 times the bound that
# _window_grid proves on its approximate margins' error.
_TIE_TOL = 2.0**-44


@functools.lru_cache(maxsize=_GRIDS_KEPT)
def _window_columns(ms: tuple[int, ...]) -> tuple:
    """The window report's memo: the columns of _window_grid over the m
    values ms that depend on them alone, every array read-only.  Per row m,
    lo, main and cubic; on the padded grid d**3, F and G; and each m's
    integer counts cum[lo - 1], ..., cum[hi], for the hits."""
    rows = []
    for m in ms:
        _, main, cubic = _window_constants(m)
        root = math.sqrt(m)
        rows.append((m, max(math.ceil(m / 2 - root), 0), min(math.floor(m / 2 + root), m), main, cubic))
    columns = list(zip(*rows))
    m_col, los, his = (np.array(column, dtype=np.int64) for column in columns[:3])
    main, cubic = (np.array(column) for column in columns[3:])
    sizes = his - los + 2
    row = np.repeat(np.arange(len(rows)), sizes)
    col = np.arange(row.size) - (np.cumsum(sizes) - sizes)[row]
    counts = tuple(_fair_counts(m, range(lo - 1, hi + 1)) for m, lo, hi in zip(ms, columns[1], columns[2]))
    prefix = np.zeros((len(rows), sizes.max()))  # prefix[i, j] = cum[lo + j - 1]/2**m
    prefix[row, col] = _dyadic_floats(list(chain.from_iterable(counts)), m_col[row])
    d = los[:, None] - m_col[:, None] // 2 + np.arange(prefix.shape[1] - 1)  # k - m/2
    cubes = (d * d * d).astype(np.float64)
    poly = cubic[:, None] * cubes - main[:, None] * d
    inside = d <= (his - m_col // 2)[:, None]
    f = np.where(inside, prefix[:, 1:] + poly, np.inf)
    g = np.where(inside, prefix[:, :-1] + poly, -np.inf)
    arrays = (m_col, los, main, cubic, cubes, f, g)
    for array in arrays:
        array.setflags(write=False)
    return *arrays, counts


def _window_grid(m_values: Iterable[int], c_term: float):
    """The windows lo <= a < b <= hi inside m/2 +- sqrt(m) of each m, on
    one grid with a row i per m and a column j per k = lo + j, padded to
    the widest m.  Returns m and shift = c_term/m per row, the columns F
    and G below (+inf and -inf past hi), tol per row, and windows(i, a, b),
    the hits and binomial_window_lower's float bound of the windows
    [lo + a, lo + b] of rows i, for columns a < b.  That bound is
    binomial_window_lower's bit for bit: the same float operations on the
    same floats, as d = k - m/2 is an integer of magnitude at most
    sqrt(m), whose cube is exact in int64 and in float below m = 2**34.

    With d = k - m/2, cum[k] = C(m, 0) + ... + C(m, k) and main and cubic
    the bound's float coefficients, let F[k] = cum[k]/2**m - main d +
    cubic d**3 and G[k] = cum[k - 1]/2**m - main d + cubic d**3 in real
    arithmetic.  A window's hits/2**m less its bound, taken in real
    arithmetic, is F[b] - G[a] + shift, so its approximate margin is
    fl(F[b] - G[a]) + shift over the computed F and G.

    That lies within 2**-48 (1 + |shift|) = tol/16 of the exact margin
    hits/2**m - bound and of the float margin fl(fl(hits/2**m) - bound).
    Proof, with u = 2**-53 and s = |shift|: |d| <= sqrt(m), so |main d| <=
    0.8 and |cubic d**3| <= 0.54.  Each cum[k]/2**m in [0, 1] is rounded
    once (_dyadic_floats), to within u; fl(fl(cubic d**3) - fl(main d)) is
    within 2.7u of its real value; so a computed F or G is within 6.1u of
    its own, and fl(F[b] - G[a]), below 4.7 in magnitude, within 17u of
    F[b] - G[a].  The float bound rounds main (b - a) (at most 1.6), cubic
    (d_b**3 - d_a**3) (at most 1.08; the cubes and their difference are
    exact), their difference and its difference with shift, so it lies
    within u (8.1 + s) of its real value, and the approximate margin within
    u (26 + s) of the exact one.  fl(hits/2**m) is within u of hits/2**m,
    and the float margin within u (4.8 + s) of the exact one, so within u
    (31 + 2s) <= 32u (1 + s) of the approximate margin.  A subnormal result
    keeps these bounds: it comes only from a rounded quotient, within u,
    or from an exact difference.  An infinite shift gives an infinite
    tol.

    Each m is read as an int (operator.index).  What depends on the m
    values alone comes from their memo (_window_columns); shift, tol and
    the windows' hits are computed on every call."""
    ms = tuple(map(operator.index, m_values))
    if not ms:
        raise ValueError(f"no m values to check: m_values={m_values!r}")
    m, los, main, cubic, cubes, f, g, counts = _window_columns(ms)
    shift = c_term / m

    def windows(i, a, b):  # counts[i][j] = cum[lo + j - 1]
        ends = zip(map(counts.__getitem__, i.tolist()), (b + 1).tolist(), a.tolist())
        hits = [cum[top] - cum[bot] for cum, top, bot in ends]
        return hits, main[i] * (b - a) - cubic[i] * (cubes[i, b] - cubes[i, a]) - shift[i]

    return m, shift, f, g, _TIE_TOL * (1.0 + np.abs(shift)), windows


def exact_binomial_window(m: int, a: int, b: int) -> Fraction:
    """P[a <= X <= b] for X ~ Binomial(m, 1/2), exactly, over the row's cum[m] = 2**m."""
    if not 0 <= a <= b <= m:
        raise ValueError(f"window [{a}, {b}] invalid for m={m}")
    below, upto, full = _fair_counts(m, (a - 1, b, m))
    return Fraction(upto - below, full)


def exact_binomial_tail(m: int, p: Fraction, k: int) -> Fraction:
    """P[Binomial(m, p) >= k] for m >= 1 and 0 <= p <= 1, exactly: with p = a/b
    in lowest terms, one integer numerator over b**m, the sum over j >= k of
    C(m, j) a**j (b - a)**(m - j), with no Fraction per term."""
    if m < 1:
        raise ValueError("m must be >= 1")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p={p} outside [0, 1]")
    a, b = p.numerator, p.denominator
    tail = sum(math.comb(m, j) * a**j * (b - a) ** (m - j) for j in range(max(k, 0), m + 1))
    return Fraction(tail, b**m)


def exact_binomial_deviation(m: int, t) -> Fraction:
    """P[|X - m/2| >= t] for fair X, exactly; t may be fractional."""
    if m < 1:
        raise ValueError("m must be >= 1")
    th = Fraction(t)
    if th <= 0:
        return Fraction(1)
    lo = math.floor(Fraction(m, 2) - th)
    hi = math.ceil(Fraction(m, 2) + th)
    total = Fraction(0)
    if lo >= 0:
        total += exact_binomial_window(m, 0, lo)
    if hi <= m:
        total += exact_binomial_window(m, hi, m)
    return total


def binomial_window_lower(m: int, a: int, b: int, c_term: float = DEFAULT_WINDOW_C) -> float:
    """Closed-form lower bound on the fair binomial window [a, b].

    sqrt(2/pi m)(b - a) - sqrt(8/(9 pi m**3))((b - m/2)**3 - (a - m/2)**3)
    - c_term/m.  Requires even m and 0 <= a < b <= m; may be negative."""
    half, main_coef, cubic_coef = _window_constants(m)
    if not 0 <= a < b <= m:
        raise ValueError(f"window [{a}, {b}] invalid for m={m}")
    return main_coef * (b - a) - cubic_coef * ((b - half) ** 3 - (a - half) ** 3) - c_term / m


def calibrate_window_lower_c(m_values: Iterable[int] = tuple(range(50, 501, 2))) -> float:
    """Smallest nonnegative c such that binomial_window_lower(m, a, b, c)
    never exceeds the exact window, over all windows inside m/2 +- sqrt(m)
    of the given m.  Clamped at zero: the correction only ever tightens.

    Read off window_lower_dominance_report at c = 0: fl(exact - bound) =
    -fl(bound - exact), and scaling by m > 0 is monotone, so the largest
    (bound - exact) * m of each m sits at the worst window its point keys to.
    """
    m_values = tuple(m_values)  # read once: the report and the scaling both need it
    report = window_lower_dominance_report(m_values, 0.0)
    return max(0.0, float(((report.bound_value - report.observed) * np.asarray(m_values)).max()))


@dataclass(frozen=True)
class BoundPoint:
    """One grid point of a bound validation."""

    label: str
    bound_value: float
    observed: float
    satisfied: bool


@dataclass(frozen=True, eq=False)
class BoundReport:
    """A named batch of bound-vs-reference comparisons, held as columns.

    bound_value, observed and satisfied hold one entry per point, in point
    order, and label(i) names point i.  A BoundPoint is built only when
    points is indexed or iterated; len(points) reads the columns."""

    description: str
    label: Callable[[int], str]
    bound_value: np.ndarray
    observed: np.ndarray
    satisfied: np.ndarray

    @property
    def points(self) -> Sequence[BoundPoint]:
        return _Points(self)

    @property
    def passed(self) -> bool:
        return bool(self.satisfied.all())

    def worst_margin(self) -> float:
        """The least bound_value - observed over the points."""
        return float((self.bound_value - self.observed).min())

    def first_violation(self) -> int | None:
        """The index of the first unsatisfied point, or None."""
        bad = np.flatnonzero(~self.satisfied)
        return int(bad[0]) if bad.size else None

    def violations(self) -> tuple[BoundPoint, ...]:
        return tuple(self.points[i] for i in np.flatnonzero(~self.satisfied))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundReport):
            return NotImplemented
        return self.description == other.description and tuple(self.points) == tuple(other.points)


class _Points(Sequence):
    """A report's points, each built from its columns when it is read."""

    def __init__(self, report: BoundReport) -> None:
        self._report = report

    def __len__(self) -> int:
        return len(self._report.satisfied)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self))[index])
        i = range(len(self))[index]  # a negative index counts from the end; past it raises IndexError
        r = self._report
        return BoundPoint(r.label(i), float(r.bound_value[i]), float(r.observed[i]), bool(r.satisfied[i]))


def hoeffding_dominance_report(
    m_values: Iterable[int] = range(10, 401), t_max_divisor: int = 4
) -> BoundReport:
    """Exact fair-binomial two-sided tails, counted as integers over 2**m
    (equal to float(exact_binomial_deviation(m, t))), never exceed Hoeffding.

    The bound is hoeffding_bound([(0.0, 1.0)] * m, t), whose variance sum is
    exactly float(m); each verdict compares the integer count with the
    bound's exact value.  The grid and its bound column come from their
    memo (_tail_grid); the verdicts are made on every call."""
    m, t, counts, _, observed, bound, _ = _tail_grid(*_tail_key(m_values, t_max_divisor))
    satisfied = _excess_signs(counts, m - 1, observed, bound) <= 0
    return BoundReport(
        "two-sided binomial tail vs hoeffding_bound",
        lambda i: f"m={m[i]},t={t[i]}",
        bound,
        observed,
        satisfied,
    )


_CHERNOFF_CHECKS = ("exp_lo", "exp_hi", "ratio_lo", "ratio_hi")


def chernoff_dominance_report(
    m_values: Iterable[int] = range(10, 401), t_max_divisor: int = 4
) -> BoundReport:
    """Exact one-sided fair-binomial tails never exceed the relaxed Chernoff
    bounds, in both the exp and the ratio form; each verdict compares the
    integer count with the bound's exact value.

    Each bound equals relaxed_chernoff_bound at its point bit for bit: the
    grid applies the same float operations to the same floats, in columns,
    with math.exp.  log(mu +- t) = log(j / 2) for j = m +- 2t comes from one
    table per grid.  m - mu, m - (mu + t) and m - (mu - t) are exactly mu,
    mu - t and mu + t, as all are half-integers far below 2**53; so the two
    ratio bounds multiply the same two factors, in swapped order, and are
    equal.  t_max_divisor must be an integer of at least 3, which keeps
    every ratio level strictly inside (0, m).  The grid and its bound
    columns come from their memo (_tail_grid); the verdicts are made on
    every call."""
    if operator.index(t_max_divisor) < 3:
        raise ValueError(f"t_max_divisor must be >= 3, got {t_max_divisor}")
    m, t, counts, observed, _, _, (exp_lo, exp_hi, ratio) = _tail_grid(*_tail_key(m_values, t_max_divisor))
    holds = [_excess_signs(counts, m, observed, bound) <= 0 for bound in (exp_lo, exp_hi, ratio)]
    return BoundReport(
        "one-sided binomial tails vs relaxed_chernoff_bound",
        lambda i: f"{_CHERNOFF_CHECKS[i % 4]},m={m[i // 4]},t={t[i // 4]}",
        np.stack([exp_lo, exp_hi, ratio, ratio], axis=1).ravel(),
        np.repeat(observed, 4),
        np.stack([*holds, holds[2]], axis=1).ravel(),
    )


def _window_candidates(f: np.ndarray, g: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row i and columns a < b of every window of _window_grid's F and G
    with fl(F[b] - G[a]) <= fl(M + 2 tol), M the least such margin of its
    row, in (i, a, b) order (window_lower_dominance_report)."""
    # best[i, b], the least margin over a < b of column b, by a prefix maximum of G
    best = f - np.hstack([np.full((len(f), 1), -np.inf), np.maximum.accumulate(g, axis=1)[:, :-1]])
    cap = best.min(axis=1) + 2.0 * tol
    i, b = np.nonzero((best <= cap[:, None]) & (f < np.inf))
    pick, a = np.nonzero((f[i, b][:, None] - g[i] <= cap[i, None]) & (np.arange(f.shape[1]) < b[:, None]))
    order = np.lexsort((b[pick], a, i[pick]))  # each m's candidates in (a, b) order
    return i[pick][order], a[order], b[pick][order]


# Candidate windows the report decides at once: the default grid's ~450
# candidates are one slice, and every window of it (121,036 at an infinite
# c_term) takes 30 slices rather than one batch of big ints.
_SLICE_WINDOWS = 4096


def window_lower_dominance_report(
    m_values: Sequence[int] = tuple(range(50, 501, 2)), c_term: float | None = None
) -> BoundReport:
    """binomial_window_lower with the calibrated constant stays below the
    exact window on the calibration grid.  One summary point per m, keyed to
    that m's first worst window by float margin; it is satisfied when every
    window of that m holds exactly, comparing the integer count with the
    bound's exact value, with no slack.  Every m must be even and >= 2, as
    binomial_window_lower requires, m_values must not be empty, and c_term
    must not be NaN.

    Over the columns of _window_grid, each m's least approximate margin
    less shift, M = min fl(F[b] - G[a]), is the least over b of fl(F[b] -
    max_{a < b} G[a]), as rounding is monotone.  The m's candidates are
    the windows with fl(F[b] - G[a]) <= cap = fl(M + 2 tol), which is at
    least M + 1.98 tol, as |M| < 4.7 and tol >= 2**-44; no window of a
    column b with fl(F[b] - max G) > cap is one.  Only the candidates get
    hits and float bounds.  Let E = tol/16 bound each approximate margin's
    distance to the exact and to the float margin.  The first worst window,
    of least float margin, has an approximate margin at most 2E above that
    of M's window, so it is a candidate.  The m holds iff every candidate
    holds exactly (_excess_signs): once M's window holds, M + shift >= -E,
    and every other window's exact margin exceeds M + 1.98 tol + shift - E
    > 0.  A huge or infinite shift makes every window a candidate, so the
    candidates, in (m, a, b) order, are decided in slices of at most
    _SLICE_WINDOWS windows, and each m keeps the first least gap and the
    failures over its slices."""
    c = DEFAULT_WINDOW_C if c_term is None else c_term
    if math.isnan(c):
        raise ValueError("c_term must not be NaN")
    ms, shift, f, g, tol, windows = _window_grid(m_values, c)
    i, a, b = _window_candidates(f, g, tol)
    fails = np.zeros(len(ms), dtype=np.int64)
    least, worst_bound, worst_exact = (np.full(len(ms), np.nan) for _ in range(3))  # NaN: no candidate yet
    for start in range(0, i.size, _SLICE_WINDOWS):
        part = slice(start, start + _SLICE_WINDOWS)
        rows = i[part]
        hits, bound = windows(rows, a[part], b[part])
        e = ms[rows]
        exact = _dyadic_floats(hits, e)
        fails += np.bincount(rows[_excess_signs(hits, e, exact, bound) < 0], minlength=len(ms))
        gap = exact - bound
        firsts = np.flatnonzero(np.diff(rows, prepend=-1))  # rows is sorted
        seen, low = rows[firsts], np.minimum.reduceat(gap, firsts)
        ties = np.flatnonzero(gap == low[np.searchsorted(seen, rows)])
        first = ties[np.searchsorted(rows[ties], seen)]  # the slice's first least of each m
        new = ~(least[seen] <= low)  # strictly less: an earlier slice keeps a tie
        seen, first = seen[new], first[new]
        least[seen], worst_bound[seen], worst_exact[seen] = gap[first], bound[first], exact[first]
    labels = ms.tolist()
    return BoundReport(
        "exact window vs binomial_window_lower (calibrated)",
        lambda k: f"m={labels[k]}",
        worst_bound,
        worst_exact,
        fails == 0,
    )


MAX_SHIFT_N = 4096


def require_shift_size(n: int) -> None:
    """Reject n outside [2, MAX_SHIFT_N]: shift_xor_tail_check draws a
    (trials, n) byte array for each of its n - 1 shifts."""
    if not 2 <= n <= MAX_SHIFT_N:
        raise ValueError(f"shift tails need 2 <= n <= {MAX_SHIFT_N}, got n={n}")


# Sampled bits per shift: each shift holds its (trials, n) uint8 draw, the
# draw's roll and their xor, about 200 MiB at 2**26 bits, and GHRLAB_THREADS
# shifts run at once.
MAX_SHIFT_SAMPLES = 1 << 26


def require_shift_samples(n: int, trials: int) -> None:
    """Reject trials draws of n bits per shift above MAX_SHIFT_SAMPLES."""
    if trials * n > MAX_SHIFT_SAMPLES:
        raise ValueError(
            f"trials * n = {trials * n} sampled bits per shift exceeds the cap "
            f"2**{MAX_SHIFT_SAMPLES.bit_length() - 1}, got n={n}, trials={trials}"
        )


def shift_xor_tail_check(
    n: int,
    t_values: Iterable[float],
    trials: int,
    rng: Rng,
) -> BoundReport:
    """Empirical deviation tails of |a xor rot_i(a) xor s| around n/2.

    For every shift i in [1, n-1], one random s is fixed and `trials` uniform
    a are sampled from rng.child(i-1); the frequency of deviation >= t is
    compared against min(1, 4*exp(-t**2/2n)) plus three standard errors.
    """
    t_values = tuple(t_values)  # read once, so a generator or an array is checked like a list
    require_shift_size(n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    require_shift_samples(n, trials)
    if not t_values:
        raise ValueError(f"no t values to check at n={n}")
    if any(t < 0 for t in t_values):
        raise ValueError("t values must be nonnegative")

    def one_shift(idx: int) -> list[int]:
        child = rng.child(idx)
        gen = child.generator
        s_bits = gen.integers(0, 2, size=n, dtype=np.uint8)
        a = gen.integers(0, 2, size=(trials, n), dtype=np.uint8)
        mixed = a ^ np.roll(a, idx + 1, axis=1) ^ s_bits[None, :]
        dev2 = np.abs(2 * mixed.sum(axis=1, dtype=np.int64) - n)
        return [int(np.count_nonzero(dev2 >= 2 * t)) for t in t_values]

    p_hat = np.array(map_trials(one_shift, n - 1), dtype=np.int64) / trials  # (shift, t)
    bound = np.array([min(1.0, 4.0 * math.exp(-t * t / (2.0 * n))) for t in t_values])
    slack = 3.0 * np.sqrt(p_hat * (1.0 - p_hat) / trials)
    k = len(t_values)
    return BoundReport(
        f"xor-shift deviation tails at n={n}, trials={trials}",
        lambda i: f"i={i // k + 1},t={t_values[i % k]}",
        np.broadcast_to(bound, p_hat.shape).ravel(),
        p_hat.ravel(),
        (p_hat <= bound + slack).ravel(),
    )


def anticorrelated_expectation_holds(values: Iterable[tuple[float, float]]) -> bool:
    """E_mu[f] <= uniform average of f when mu weights small f-values at
    least as heavily as large ones.

    values: (f(a), mu(a)) pairs over the whole domain.  mu must sum to 1
    within 1e-9 (it is renormalised exactly before comparing) and no pair may
    have f and mu strictly increasing together; violations raise.
    The comparison itself is exact rational arithmetic.
    """
    pairs = [(Fraction(f), Fraction(w)) for f, w in values]
    if not pairs:
        raise ValueError("values must be nonempty")
    if any(w < 0 for _, w in pairs):
        raise ValueError("mu must be nonnegative")
    total = sum(w for _, w in pairs)
    if abs(total - 1) > Fraction(1, 10**9):
        raise ValueError(f"mu sums to {float(total)}, not 1")
    for i in range(len(pairs)):
        fi, wi = pairs[i]
        for fj, wj in pairs[i + 1:]:
            if (fi - fj) * (wi - wj) > 0:
                raise ValueError(
                    "f and mu must be anti-monotone comparable: "
                    f"offending values f={float(fi)},{float(fj)} mu={float(wi)},{float(wj)}"
                )
    e_mu = sum(f * w for f, w in pairs) / total
    e_uniform = sum(f for f, _ in pairs) / len(pairs)
    return e_mu <= e_uniform
