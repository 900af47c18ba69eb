"""Concentration-bound calculators with exact binomial oracles.

Every tail calculator returns a value capped into [0, 1].  The one lower
bound (binomial_window_lower) may go negative by design; its additive
constant is calibrated once against the exact window oracle and shipped as
DEFAULT_WINDOW_C.  The exact oracles sum binomial coefficients as integers,
so dominance checks against them carry no float-summation risk.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

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


# Rows of _fair_cumulative built so far, by m, up to _FAIR_ROWS_KEPT of them
# (the CLI's grids ask for 441).  Two threads building the same row store
# the same value, so the dict needs no lock.
_FAIR_ROWS_KEPT = 1024
_fair_rows: dict[int, tuple[int, ...]] = {}


def _fair_cumulative(m: int) -> tuple[int, ...]:
    """cum[k] = sum_{i <= k} C(m, i) as exact integers, kept once built.

    With row m - 1 kept, row m comes from it by Pascal's rule summed over
    i <= k: cum_m[k] = cum_{m-1}[k] + cum_{m-1}[k-1] for 0 < k < m, with
    cum_m[0] = 1 and cum_m[m] = 2**m, one big-int addition per entry; a grid
    over consecutive m builds every row but its first that way.  Any other
    row comes from C(m, k+1) = C(m, k)(m - k)/(k + 1), a multiplication and
    an exact division per entry, so a row asked for alone costs O(m) steps."""
    cum = _fair_rows.get(m)
    if cum is not None:
        return cum
    prev = _fair_rows.get(m - 1)
    if prev is not None:
        cum = (1, *map(operator.add, prev[1:], prev), 1 << m)
    else:
        coeff = acc = 1
        out = [1]
        for k in range(m):
            coeff = coeff * (m - k) // (k + 1)
            acc += coeff
            out.append(acc)
        cum = tuple(out)
    if len(_fair_rows) < _FAIR_ROWS_KEPT:
        _fair_rows[m] = cum
    return cum


def _excess(count: int, m: int, bound: float) -> int:
    """An integer with the sign of count / 2**m - bound, computed exactly."""
    p, q = bound.as_integer_ratio()
    return count * q - (p << m)


def _excess_signs(
    counts: Sequence[int], e: int | np.ndarray, observed: np.ndarray, bound: np.ndarray
) -> np.ndarray:
    """The sign of counts[i] / 2**e[i] - bound[i] at every point, as int8.

    e is one int or one per point, and observed[i] must be the float
    counts[i] / 2**e[i].  Python's int / int is correctly rounded, and
    rounding is monotone: a float bound rounds to itself, so a quotient <=
    bound forces observed <= bound, and a quotient >= bound forces observed
    >= bound.  Hence observed > bound proves the exact quotient exceeds
    bound, observed < bound proves it falls short, and only a tie observed
    == bound, or a NaN bound, leaves the sign open.  _excess settles each
    of those with integers, refusing a NaN bound with ValueError.  This is a
    theorem, not a tolerance: every sign is that of the exact difference."""
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
    out = np.ldexp(cast.astype(np.float64), -exps)
    out[big] = [counts[i] / (1 << int(exps[i])) for i in big]
    return out


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp at every entry; numpy's exp is not bit-identical to it."""
    return np.fromiter(map(math.exp, x.tolist()), np.float64, x.size)


def _cap(x: np.ndarray) -> np.ndarray:
    """min(1.0, x) at every entry, as Python's min picks it."""
    return np.where(x < 1.0, x, 1.0)


def _tail_grid(m_values: Iterable[int], t_max_divisor: int, sides: int):
    """Columns over the points (m, t), 1 <= t <= m // t_max_divisor, in
    (m, t) order: m and t as int arrays; each point's count, the integer
    C(m, 0) + ... + C(m, floor(m/2 - t)), 0 once floor(m/2 - t) < 0; the
    exponent e = m + 1 - sides; and observed = count / 2**e as a float.

    Over 2**m the count is the fair binomial's tail at or below m/2 - t
    and, by symmetry, the one at or above m/2 + t.  As the two tails hold
    equally many outcomes, observed is the float of one tail (sides=1) or
    of both (sides=2) over 2**m.  A grid with no point is refused."""
    ms = np.fromiter(m_values, np.int64)
    t_max = ms // t_max_divisor
    ms, t_max = ms[t_max >= 1], t_max[t_max >= 1]
    counts = []
    for m, top in zip(ms.tolist(), t_max.tolist()):
        half = m // 2  # floor(m/2 - t) = m // 2 - t
        counts += _fair_cumulative(m)[max(half - top, 0):half][::-1]
        counts += [0] * max(top - half, 0)
    if not counts:
        raise ValueError(f"no point with 1 <= t <= m // {t_max_divisor} for m in {m_values!r}")
    m_col = np.repeat(ms, t_max)
    t_col = np.arange(1, m_col.size + 1) - np.repeat(np.cumsum(t_max) - t_max, t_max)
    e = m_col + 1 - sides
    return m_col, t_col, counts, e, _dyadic_floats(counts, e)


def _window_constants(m: int, c_term: float) -> tuple[float, float, float, float]:
    """binomial_window_lower's terms that depend on m alone: m/2, the two
    square-root coefficients and c_term/m.  Refuses odd m and m < 2."""
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    return (
        m / 2.0,
        math.sqrt(2.0 / (math.pi * m)),
        math.sqrt(8.0 / (9.0 * math.pi * m**3)),
        c_term / m,
    )


# The window report's tol over 1 + |shift|: 16 times the bound that
# _window_grid proves on its approximate margins' error.
_TIE_TOL = 2.0**-44


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
    tol."""
    rows = []
    for m in m_values:
        _, *consts = _window_constants(m, c_term)
        root = math.sqrt(m)
        rows.append((m, max(math.ceil(m / 2 - root), 0), min(math.floor(m / 2 + root), m), *consts))
    if not rows:
        raise ValueError(f"no m values to check: m_values={m_values!r}")
    counts = []  # per m: cum[lo - 1] (0 when lo = 0), then cum[lo], ..., cum[hi]
    for m, lo, hi, *_ in rows:
        cum = _fair_cumulative(m)
        counts.append(cum[lo - 1] if lo > 0 else 0)
        counts += cum[lo:hi + 1]
    columns = list(zip(*rows))
    ms, los, his = (np.array(column, dtype=np.int64) for column in columns[:3])
    main, cubic, shift = (np.array(column) for column in columns[3:])
    sizes = his - los + 2
    row = np.repeat(np.arange(len(rows)), sizes)
    first = np.cumsum(sizes) - sizes  # the position in counts of each m's cum[lo - 1]
    col = np.arange(row.size) - first[row]
    prefix = np.zeros((len(rows), sizes.max()))  # prefix[i, j] = cum[lo + j - 1]/2**m
    prefix[row, col] = _dyadic_floats(counts, ms[row])
    d = los[:, None] - ms[:, None] // 2 + np.arange(prefix.shape[1] - 1)  # k - m/2
    cubes = (d * d * d).astype(np.float64)
    poly = cubic[:, None] * cubes - main[:, None] * d
    inside = d <= (his - ms // 2)[:, None]
    f = np.where(inside, prefix[:, 1:] + poly, np.inf)
    g = np.where(inside, prefix[:, :-1] + poly, -np.inf)

    def windows(i, a, b):
        hits = [counts[top] - counts[bot] for top, bot in zip((first[i] + b + 1).tolist(), (first[i] + a).tolist())]
        return hits, main[i] * (b - a) - cubic[i] * (cubes[i, b] - cubes[i, a]) - shift[i]

    return ms, shift, f, g, _TIE_TOL * (1.0 + np.abs(shift)), windows


def exact_binomial_window(m: int, a: int, b: int) -> Fraction:
    """P[a <= X <= b] for X ~ Binomial(m, 1/2), exactly."""
    if not 0 <= a <= b <= m:
        raise ValueError(f"window [{a}, {b}] invalid for m={m}")
    cum = _fair_cumulative(m)
    hits = cum[b] - (cum[a - 1] if a > 0 else 0)
    return Fraction(hits, 1 << m)


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
    half, main_coef, cubic_coef, shift = _window_constants(m, c_term)
    if not 0 <= a < b <= m:
        raise ValueError(f"window [{a}, {b}] invalid for m={m}")
    return main_coef * (b - a) - cubic_coef * ((b - half) ** 3 - (a - half) ** 3) - shift


def calibrate_window_lower_c(m_values: Sequence[int] = tuple(range(50, 501, 2))) -> float:
    """Smallest nonnegative c such that binomial_window_lower(m, a, b, c)
    never exceeds the exact window, over all windows inside m/2 +- sqrt(m)
    of the given m.  Clamped at zero: the correction only ever tightens.

    Read off window_lower_dominance_report at c = 0: fl(exact - bound) =
    -fl(bound - exact), and scaling by m > 0 is monotone, so the largest
    (bound - exact) * m of each m sits at the worst window its point keys to.
    """
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
    bound's exact value."""
    m, t, counts, e, observed = _tail_grid(m_values, t_max_divisor, sides=2)
    tf = t.astype(np.float64)
    bound = _cap(2.0 * _exp(-2.0 * tf * tf / m.astype(np.float64)))
    satisfied = _excess_signs(counts, e, observed, bound) <= 0
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
    table per call.  m - mu, m - (mu + t) and m - (mu - t) are exactly mu,
    mu - t and mu + t, as all are half-integers far below 2**53; so the two
    ratio bounds multiply the same two factors, in swapped order, and are
    equal.  t_max_divisor must be at least 3, which keeps every ratio level
    strictly inside (0, m)."""
    if t_max_divisor < 3:
        raise ValueError(f"t_max_divisor must be >= 3, got {t_max_divisor}")
    m, t, counts, e, observed = _tail_grid(m_values, t_max_divisor, sides=1)
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
    holds = [_excess_signs(counts, e, observed, bound) <= 0 for bound in (exp_lo, exp_hi, ratio)]
    return BoundReport(
        "one-sided binomial tails vs relaxed_chernoff_bound",
        lambda i: f"{_CHERNOFF_CHECKS[i % 4]},m={m[i // 4]},t={t[i // 4]}",
        np.stack([exp_lo, exp_hi, ratio, ratio], axis=1).ravel(),
        np.repeat(observed, 4),
        np.stack([*holds, holds[2]], axis=1).ravel(),
    )


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
    > 0.  An infinite shift makes every window a candidate."""
    c = DEFAULT_WINDOW_C if c_term is None else c_term
    if math.isnan(c):
        raise ValueError("c_term must not be NaN")
    ms, shift, f, g, tol, windows = _window_grid(m_values, c)
    each, width = np.arange(len(ms)), f.shape[1]
    # best[i, b], the least margin over a < b of column b, by a prefix maximum of G
    best = f - np.hstack([np.full((len(ms), 1), -np.inf), np.maximum.accumulate(g, axis=1)[:, :-1]])
    cap = best.min(axis=1) + 2.0 * tol
    i, b = np.nonzero((best <= cap[:, None]) & (f < np.inf))
    pick, a = np.nonzero((f[i, b][:, None] - g[i] <= cap[i, None]) & (np.arange(width) < b[:, None]))
    order = np.lexsort((b[pick], a, i[pick]))  # each m's candidates in (a, b) order
    i, a, b = i[pick][order], a[order], b[pick][order]
    hits, bound = windows(i, a, b)
    e = ms[i]
    exact = _dyadic_floats(hits, e)
    signs = _excess_signs(hits, e, exact, bound)
    gap = exact - bound
    least = np.flatnonzero(gap == np.minimum.reduceat(gap, np.searchsorted(i, each))[i])
    worst = least[np.searchsorted(i[least], each)]  # the first least of each m
    labels = ms.tolist()
    return BoundReport(
        "exact window vs binomial_window_lower (calibrated)",
        lambda k: f"m={labels[k]}",
        bound[worst],
        exact[worst],
        np.bincount(i[signs < 0], minlength=len(ms)) == 0,
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
    t_values: Sequence[float],
    trials: int,
    rng: Rng,
) -> BoundReport:
    """Empirical deviation tails of |a xor rot_i(a) xor s| around n/2.

    For every shift i in [1, n-1], one random s is fixed and `trials` uniform
    a are sampled from rng.child(i-1); the frequency of deviation >= t is
    compared against min(1, 4*exp(-t**2/2n)) plus three standard errors.
    """
    require_shift_size(n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    require_shift_samples(n, trials)
    if not t_values:
        raise ValueError(f"no t values to check at n={n}")
    if any(t < 0 for t in t_values):
        raise ValueError("t values must be nonnegative")
    t_values = tuple(t_values)

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
