"""Concentration-bound calculators with exact binomial oracles.

Every tail calculator returns a value capped into [0, 1].  The one lower
bound (binomial_window_lower) may go negative by design; its additive
constant is calibrated once against the exact window oracle and shipped as
DEFAULT_WINDOW_C.  The exact oracles sum binomial coefficients as integers,
so dominance checks against them carry no float-summation risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

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
    return _hoeffding_tail(denom, t)


def _hoeffding_tail(denom: float, t: float) -> float:
    """hoeffding_bound given its variance sum denom = sum (b-a)**2."""
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
        return _exp_tail(side == "lower_tail", 2.0 * a, t)
    if form == "ratio":
        if m is None or mu is None or level is None:
            raise ValueError("ratio form needs m, mu, level")
        if not 0 <= mu <= m:
            raise ValueError(f"mu={mu} outside [0, {m}]")
        if side == "upper_tail" and not mu <= level <= m:
            raise ValueError(f"upper level {level} outside [{mu}, {m}]")
        if side == "lower_tail" and not 0 <= level <= mu:
            raise ValueError(f"lower level {level} outside [0, {mu}]")
        value = _ratio_power(mu, level, level) * _ratio_power(m - mu, m - level, m - level)
        return min(1.0, value)
    raise ValueError(f"form must be 'exp' or 'ratio', got {form!r}")


def _exp_tail(lower: bool, two_a: float, t: float) -> float:
    """Exp-form relaxed Chernoff tail for a > 0 and t > 0, given two_a = 2.0 * a."""
    if lower:
        return min(1.0, math.exp(-t * t / two_a))
    return min(1.0, math.exp(-t * t / (two_a + t)))


def _ratio_power(num: float, den: float, expo: float) -> float:
    """(num/den)**expo with the 0**0 = 1 convention used by the ratio form."""
    if expo == 0:
        return 1.0
    if num == 0:
        return 0.0
    if den == 0:
        raise ValueError("zero denominator with nonzero exponent")
    return _ratio_exp(expo, math.log(num), math.log(den))


def _ratio_exp(expo: float, log_num: float, log_den: float) -> float:
    """_ratio_power past its edge cases, given the two logarithms."""
    return math.exp(expo * (log_num - log_den))


@lru_cache(maxsize=1024)
def _fair_cumulative(m: int) -> tuple[int, ...]:
    """cum[k] = sum_{i <= k} C(m, i) as exact integers."""
    coeff = acc = 1
    out = [1]
    for k in range(m):
        coeff = coeff * (m - k) // (k + 1)  # C(m, k + 1); the division is exact
        acc += coeff
        out.append(acc)
    return tuple(out)


def _excess(count: int, m: int, bound: float) -> int:
    """An integer with the sign of count / 2**m - bound, computed exactly."""
    p, q = bound.as_integer_ratio()
    return count * q - (p << m)


def _exact_excess(count: int, m: int, observed: float, bound: float) -> int:
    """_excess(count, m, bound), deciding from floats whenever they differ.

    observed must be the float count / 2**m and bound must be finite.
    Python's int / int is correctly rounded, and rounding is monotone: a
    float bound rounds to itself, so count / 2**m <= bound forces observed
    <= bound, and count / 2**m >= bound forces observed >= bound.  Hence
    observed > bound proves the exact quotient exceeds bound, observed <
    bound proves it falls short, and only a tie observed == bound leaves the
    sign open, which _excess settles with integers.  This is a theorem, not
    a tolerance: the result always has the sign of the exact difference."""
    if observed > bound:
        return 1
    if observed < bound:
        return -1
    return _excess(count, m, bound)


def _tail_counts(m: int, t: int) -> tuple[int, int]:
    """Integer counts C(m, k) summed over k <= m/2 - t and over k >= m/2 + t,
    for an integer t >= 1; over 2**m they are the fair binomial's two tails."""
    cum = _fair_cumulative(m)
    k_lo = (m - 2 * t) // 2          # floor(m/2 - t)
    k_hi = (m + 2 * t + 1) // 2      # ceil(m/2 + t)
    lower = cum[k_lo] if k_lo >= 0 else 0
    upper = cum[m] - cum[k_hi - 1] if k_hi <= m else 0
    return lower, upper


def _window_constants(m: int, c_term: float) -> tuple[float, float, float, float]:
    """binomial_window_lower's terms that depend on m alone: m/2, the two
    square-root coefficients and c_term/m."""
    return (
        m / 2.0,
        math.sqrt(2.0 / (math.pi * m)),
        math.sqrt(8.0 / (9.0 * math.pi * m**3)),
        c_term / m,
    )


def _windows(m: int, c_term: float):
    """(hits, exact, bound) for every window a < b inside m/2 +- sqrt(m), in
    (a, b) order: hits is the integer count C(m, a) + ... + C(m, b), exact =
    hits / 2**m as a float and bound = binomial_window_lower(m, a, b, c_term)
    bit for bit.  The per-m constants and each (k - m/2)**3 are computed once,
    with the operations binomial_window_lower applies to them."""
    cum = _fair_cumulative(m)
    denom = 1 << m
    root = math.sqrt(m)
    lo = max(math.ceil(m / 2 - root), 0)
    hi = min(math.floor(m / 2 + root), m)
    half, main_coef, cubic_coef, shift = _window_constants(m, c_term)
    ks = range(lo, hi + 1)
    cubes = [(k - half) ** 3 for k in ks]
    for i, a in enumerate(ks[:-1]):
        base_cum = cum[a - 1] if a > 0 else 0
        cube_a = cubes[i]
        for b, cube_b in zip(ks[i + 1:], cubes[i + 1:]):
            hits = cum[b] - base_cum
            bound = main_coef * (b - a) - cubic_coef * (cube_b - cube_a) - shift
            yield hits, hits / denom, bound


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
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    if not 0 <= a < b <= m:
        raise ValueError(f"window [{a}, {b}] invalid for m={m}")
    half, main_coef, cubic_coef, shift = _window_constants(m, c_term)
    return main_coef * (b - a) - cubic_coef * ((b - half) ** 3 - (a - half) ** 3) - shift


def calibrate_window_lower_c(m_values: Sequence[int] = tuple(range(50, 501, 2))) -> float:
    """Smallest nonnegative c such that binomial_window_lower(m, a, b, c)
    never exceeds the exact window, over all windows inside m/2 +- sqrt(m)
    of the given m.  Clamped at zero: the correction only ever tightens.
    """
    worst = 0.0
    for m in m_values:
        for _, exact, bound in _windows(m, 0.0):
            gap = (bound - exact) * m
            if gap > worst:
                worst = gap
    return worst


@dataclass(frozen=True)
class BoundPoint:
    """One grid point of a bound validation."""

    label: str
    bound_value: float
    observed: float
    satisfied: bool


@dataclass(frozen=True)
class BoundReport:
    """A named batch of bound-vs-reference comparisons."""

    description: str
    points: tuple[BoundPoint, ...]

    @property
    def passed(self) -> bool:
        return all(p.satisfied for p in self.points)

    def violations(self) -> tuple[BoundPoint, ...]:
        return tuple(p for p in self.points if not p.satisfied)


def hoeffding_dominance_report(
    m_values: Iterable[int] = range(10, 401), t_max_divisor: int = 4
) -> BoundReport:
    """Exact fair-binomial two-sided tails, counted as integers over 2**m
    (equal to float(exact_binomial_deviation(m, t))), never exceed Hoeffding.

    The bound is hoeffding_bound([(0.0, 1.0)] * m, t), whose variance sum is
    exactly float(m); each verdict compares the integer count with the
    bound's exact value."""
    points = []
    for m in m_values:
        variance = float(m)
        denom = 1 << m
        for t in range(1, m // t_max_divisor + 1):
            count = sum(_tail_counts(m, t))
            bound = _hoeffding_tail(variance, t)
            exact = count / denom
            satisfied = _exact_excess(count, m, exact, bound) <= 0
            points.append(BoundPoint(f"m={m},t={t}", bound, exact, satisfied))
    return BoundReport("two-sided binomial tail vs hoeffding_bound", tuple(points))


def chernoff_dominance_report(
    m_values: Iterable[int] = range(10, 401), t_max_divisor: int = 4
) -> BoundReport:
    """Exact one-sided fair-binomial tails never exceed the relaxed Chernoff
    bounds, in both the exp and the ratio form; each verdict compares the
    integer count with the bound's exact value.

    Each bound equals relaxed_chernoff_bound at its point bit for bit: the
    grid feeds the same floats through the same helpers, computing 2a,
    log(mu) and log(m - mu) once per m and log(mu - t), log(mu + t) once per
    t.  The latter also serve as log(m - level) of the other side, since
    m - (mu + t) and m - (mu - t) are exactly mu - t and mu + t: all are
    half-integers far below 2**53.  t_max_divisor must be at least 3, which
    keeps every ratio level strictly inside (0, m)."""
    if t_max_divisor < 3:
        raise ValueError(f"t_max_divisor must be >= 3, got {t_max_divisor}")
    points = []
    for m in m_values:
        denom = 1 << m
        mu = m / 2.0
        two_a = 2.0 * mu
        log_mu = math.log(mu)
        log_rest = math.log(m - mu)
        for t in range(1, m // t_max_divisor + 1):
            lower, upper = _tail_counts(m, t)
            lo_exact = lower / denom
            hi_exact = upper / denom
            below, above = mu - t, mu + t
            log_below, log_above = math.log(below), math.log(above)
            ratio_lo = min(
                1.0,
                _ratio_exp(below, log_mu, log_below)
                * _ratio_exp(m - below, log_rest, log_above),
            )
            ratio_hi = min(
                1.0,
                _ratio_exp(above, log_mu, log_above)
                * _ratio_exp(m - above, log_rest, log_below),
            )
            checks = (
                ("exp_lo", lower, lo_exact, _exp_tail(True, two_a, t)),
                ("exp_hi", upper, hi_exact, _exp_tail(False, two_a, t)),
                ("ratio_lo", lower, lo_exact, ratio_lo),
                ("ratio_hi", upper, hi_exact, ratio_hi),
            )
            for name, count, exact, bound in checks:
                satisfied = _exact_excess(count, m, exact, bound) <= 0
                points.append(BoundPoint(f"{name},m={m},t={t}", bound, exact, satisfied))
    return BoundReport("one-sided binomial tails vs relaxed_chernoff_bound", tuple(points))


def window_lower_dominance_report(
    m_values: Sequence[int] = tuple(range(50, 501, 2)), c_term: float | None = None
) -> BoundReport:
    """binomial_window_lower with the calibrated constant stays below the
    exact window on the calibration grid.  One summary point per m, keyed to
    that m's worst window by float margin; it is satisfied when every window
    of that m holds exactly, comparing the integer count with the bound's
    exact value, with no slack."""
    c = DEFAULT_WINDOW_C if c_term is None else c_term
    points = []
    for m in m_values:
        worst_margin = math.inf
        worst_bound = 0.0
        worst_exact = 0.0
        holds = True
        for hits, exact, bound in _windows(m, c):
            holds = holds and _exact_excess(hits, m, exact, bound) >= 0
            if exact - bound < worst_margin:
                worst_margin = exact - bound
                worst_bound = bound
                worst_exact = exact
        points.append(BoundPoint(f"m={m}", worst_bound, worst_exact, holds))
    return BoundReport("exact window vs binomial_window_lower (calibrated)", tuple(points))


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
    if n < 2:
        raise ValueError("n must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
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

    counts = map_trials(one_shift, n - 1)
    points = []
    for idx, row in enumerate(counts):
        for t, c in zip(t_values, row):
            p_hat = c / trials
            bound = min(1.0, 4.0 * math.exp(-t * t / (2.0 * n)))
            slack = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
            points.append(
                BoundPoint(f"i={idx + 1},t={t}", bound, p_hat, p_hat <= bound + slack)
            )
    return BoundReport(
        f"xor-shift deviation tails at n={n}, trials={trials}", tuple(points)
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
