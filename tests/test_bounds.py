"""Tail calculators against exact and scipy oracles."""

import ast
import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import ghrlab.bounds as bounds
from ghrlab.bitkit import Rng
from ghrlab.bounds import (
    _dyadic_floats,
    _excess,
    _excess_signs,
    _fair_counts,
    _tail_grid,
    _window_grid,
    DEFAULT_WINDOW_C,
    anticorrelated_expectation_holds,
    binomial_window_lower,
    calibrate_window_lower_c,
    chernoff_dominance_report,
    exact_binomial_deviation,
    exact_binomial_tail,
    exact_binomial_window,
    hoeffding_bound,
    hoeffding_dominance_report,
    markov_chebyshev_bound,
    relaxed_chernoff_bound,
    require_shift_samples,
    shift_xor_tail_check,
    window_lower_dominance_report,
)


@functools.cache
def comb_prefix(m: int) -> tuple[int, ...]:
    """cum[k] = C(m, 0) + ... + C(m, k) for k = 0 ... m, summed from
    math.comb: the oracle for bounds' fair counts, kept per m as the grid
    tests read each row at many points."""
    return tuple(accumulate(math.comb(m, k) for k in range(m + 1)))


def test_markov_chebyshev():
    assert markov_chebyshev_bound("markov", 2.0, 8.0) == 0.25
    assert markov_chebyshev_bound("chebyshev", 2.0, 4.0) == 0.125
    assert markov_chebyshev_bound("markov", 5.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        markov_chebyshev_bound("markov", 1.0, 0.0)
    with pytest.raises(ValueError):
        markov_chebyshev_bound("median", 1.0, 1.0)
    with pytest.raises(ValueError, match="moment must be nonnegative"):
        markov_chebyshev_bound("markov", -1.0, 1.0)


def test_hoeffding_formula():
    assert hoeffding_bound([(0, 1)] * 10, 2.0) == pytest.approx(2 * math.exp(-0.8))
    assert hoeffding_bound([(0, 2)] * 10, 6.0) == pytest.approx(2 * math.exp(-1.8))
    assert hoeffding_bound([(0, 1)] * 4, 0.1) == 1.0  # capped
    assert hoeffding_bound([(0, 0)], 1.0) == 0.0
    with pytest.raises(ValueError):
        hoeffding_bound([(1, 0)], 1.0)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        hoeffding_bound([(0, 1)], -1.0)


def test_relaxed_chernoff_exp_form():
    assert relaxed_chernoff_bound("lower_tail", a=8.0, t=4.0) == pytest.approx(
        math.exp(-1.0)
    )
    assert relaxed_chernoff_bound("upper_tail", a=8.0, t=4.0) == pytest.approx(
        math.exp(-16.0 / 20.0)
    )
    assert relaxed_chernoff_bound("lower_tail", a=8.0, t=0.0) == 1.0
    assert relaxed_chernoff_bound("lower_tail", a=0.0, t=1.0) == 0.0
    assert relaxed_chernoff_bound("upper_tail", a=0.0, t=2.0) == pytest.approx(
        math.exp(-2.0)
    )
    with pytest.raises(ValueError):
        relaxed_chernoff_bound("sideways", a=1.0, t=1.0)
    with pytest.raises(ValueError):
        relaxed_chernoff_bound("lower_tail", a=1.0, t=1.0, form="closed")
    for kwargs in ({"a": 1.0}, {"t": 1.0}):
        with pytest.raises(ValueError, match="exp form needs a and t"):
            relaxed_chernoff_bound("lower_tail", **kwargs)
    for a, t in ((-1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="a and t must be nonnegative"):
            relaxed_chernoff_bound("upper_tail", a=a, t=t)


def test_relaxed_chernoff_ratio_form():
    # level at the mean gives 1; level at the edge uses 0**0 = 1
    assert relaxed_chernoff_bound(
        "upper_tail", form="ratio", m=10, mu=5.0, level=5.0
    ) == 1.0
    edge = relaxed_chernoff_bound("upper_tail", form="ratio", m=10, mu=5.0, level=10.0)
    assert edge == pytest.approx(0.5**10)
    # a zero mean (or a zero complement) beyond the level gives exactly 0
    assert relaxed_chernoff_bound("upper_tail", form="ratio", m=10, mu=0.0, level=3.0) == 0.0
    assert relaxed_chernoff_bound("lower_tail", form="ratio", m=10, mu=10.0, level=7.0) == 0.0
    with pytest.raises(ValueError):
        relaxed_chernoff_bound("upper_tail", form="ratio", m=10, mu=5.0, level=4.0)
    with pytest.raises(ValueError):
        relaxed_chernoff_bound("lower_tail", form="ratio", m=10, mu=5.0, level=6.0)
    with pytest.raises(ValueError, match="ratio form needs m, mu, level"):
        relaxed_chernoff_bound("upper_tail", form="ratio", m=10, mu=5.0)
    for mu in (-1.0, 11.0):
        with pytest.raises(ValueError, match=f"mu={mu} outside"):
            relaxed_chernoff_bound("upper_tail", form="ratio", m=10, mu=mu, level=10.0)


def test_ratio_form_dominates_biased_binomial():
    """Classic Chernoff-Hoeffding check against scipy for p != 1/2."""
    for m, p in ((40, 0.3), (60, 0.7)):
        mu = m * p
        for level in range(int(mu) + 1, m + 1):
            bound = relaxed_chernoff_bound(
                "upper_tail", form="ratio", m=m, mu=mu, level=level
            )
            exact = stats.binom.sf(level - 1, m, p)
            assert exact <= bound + 1e-12
        for level in range(0, int(mu)):
            bound = relaxed_chernoff_bound(
                "lower_tail", form="ratio", m=m, mu=mu, level=level
            )
            exact = stats.binom.cdf(level, m, p)
            assert exact <= bound + 1e-12


def test_exp_form_dominates_hypergeometric():
    """Sampling without replacement stays under the relaxed exp bounds."""
    for m in (20, 60, 100):
        mu = m / 2.0
        for t in range(1, m // 6 + 1):
            lower = stats.hypergeom.cdf(mu - t, 2 * m, m, m)
            upper = stats.hypergeom.sf(mu + t - 1, 2 * m, m, m)
            assert lower <= relaxed_chernoff_bound("lower_tail", a=mu, t=t) + 1e-12
            assert upper <= relaxed_chernoff_bound("upper_tail", a=mu, t=t) + 1e-12


def test_exact_binomial_window_against_scipy():
    for m, a, b in ((10, 3, 7), (31, 0, 15), (64, 28, 36)):
        exact = exact_binomial_window(m, a, b)
        ref = stats.binom.cdf(b, m, 0.5) - (stats.binom.cdf(a - 1, m, 0.5) if a else 0)
        assert float(exact) == pytest.approx(ref, abs=1e-12)
    assert exact_binomial_window(4, 0, 4) == 1
    with pytest.raises(ValueError):
        exact_binomial_window(4, 3, 2)


def test_exact_binomial_deviation():
    assert exact_binomial_deviation(4, 0) == 1
    assert exact_binomial_deviation(4, 2) == Fraction(2, 16)
    assert exact_binomial_deviation(4, Fraction(1, 2)) == Fraction(10, 16)
    ref = stats.binom.cdf(10, 31, 0.5) + stats.binom.sf(20, 31, 0.5)
    assert float(exact_binomial_deviation(31, 5.5)) == pytest.approx(ref, abs=1e-12)
    with pytest.raises(ValueError, match="m must be >= 1"):
        exact_binomial_deviation(0, 1)


TAIL_PS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(7, 64), Fraction(9, 10), Fraction(49, 50)]


def tail_terms(m, p):
    """P[Binomial(m, p) = j] for j in [0, m], one Fraction of math.comb per term."""
    return [math.comb(m, j) * p**j * (1 - p) ** (m - j) for j in range(m + 1)]


@pytest.mark.parametrize("p", TAIL_PS, ids=str)
def test_exact_binomial_tail_equals_fraction_terms(p):
    for m in range(1, 65):
        suffix = list(accumulate(reversed(tail_terms(m, p)), initial=Fraction(0)))[::-1]
        for k in range(m + 2):  # suffix[k] = P[X >= k], suffix[m + 1] = 0
            got = exact_binomial_tail(m, p, k)
            assert type(got) is Fraction and got == suffix[k]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 10**12).flatmap(lambda b: st.tuples(st.integers(0, b), st.just(b))),
    st.integers(-3, 43),
)
def test_exact_binomial_tail_property(m, ab, k):
    p = Fraction(*ab)
    got = exact_binomial_tail(m, p, k)
    assert got == sum(tail_terms(m, p)[max(k, 0):], Fraction(0))
    # P[X >= k] + P[X <= k - 1] = 1, and m - X ~ Binomial(m, 1 - p)
    assert got + exact_binomial_tail(m, 1 - p, m - k + 1) == 1


def test_fair_tail_equals_the_prefix_rows():
    for m in range(1, 65):
        for k in range(1, m + 2):
            assert exact_binomial_tail(m, Fraction(1, 2), k) == 1 - exact_binomial_window(m, 0, k - 1)


def test_numpy_m_keys_the_same_fair_rows(clear_bound_grids):
    # from empty memos, so numpy integers build the counts and their floats:
    # no int64 may reach a count
    ms = np.arange(50, 501, 2)
    assert window_lower_dominance_report(ms) == window_lower_dominance_report(tuple(ms.tolist()))
    assert window_lower_dominance_report().passed
    assert calibrate_window_lower_c(ms) == 0.0
    assert exact_binomial_window(np.int64(100), 0, 50) == exact_binomial_window(100, 0, 50)
    assert exact_binomial_window(100, 0, 50) == Fraction(sum(math.comb(100, k) for k in range(51)), 1 << 100)


PACKAGE = Path(bounds.__file__).resolve().parent


def comb_uses(source: str) -> list[int]:
    """Lines of `source`, the text of a module, that reach math.comb: an
    attribute comb of a name the module binds to math, or comb (or *)
    imported from math, at any depth of the syntax tree."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math" and not node.level:
            if any(alias.name in ("comb", "*") for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "comb":
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source",
    [
        "import math\nx = math.comb(4, 2)\n",
        "import math as m\nx = m.comb(4, 2)\n",
        "import math\nchoose = math.comb\n",
        "from math import comb\n",
        "from math import comb as choose\n",
        "from math import *\n",
        "def f(n):\n    import math\n    return sum(math.comb(n, k) for k in range(n + 1))\n",
    ],
)
def test_comb_finder_sees_every_form(source):
    assert comb_uses(source)


def test_comb_finder_passes_other_math():
    source = "import math\nfrom math import isqrt\nx = math.isqrt(4) + math.log2(8)\ny = rows.comb\n"
    assert not comb_uses(source)


def test_only_bounds_reaches_math_comb():
    """Exact binomial arithmetic has one home: protocol, coupling and
    classical read their masses from bounds rather than summing math.comb."""
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "bounds.py" and (lines := comb_uses(path.read_text()))
    }
    assert not found
    assert comb_uses((PACKAGE / "bounds.py").read_text())


def test_window_lower_formula_and_validation():
    m, a, b = 100, 45, 55
    main = math.sqrt(2 / (math.pi * m)) * (b - a)
    cubic = math.sqrt(8 / (9 * math.pi * m**3)) * ((b - 50) ** 3 - (a - 50) ** 3)
    assert binomial_window_lower(m, a, b) == pytest.approx(
        main - cubic - DEFAULT_WINDOW_C / m
    )
    with pytest.raises(ValueError):
        binomial_window_lower(99, 45, 55)
    with pytest.raises(ValueError):
        binomial_window_lower(100, 55, 45)


def test_window_calibration_regression():
    # shipped constant must still satisfy its defining grid search
    assert calibrate_window_lower_c(tuple(range(50, 201, 2))) <= DEFAULT_WINDOW_C
    with pytest.raises(ValueError, match="no m values"):  # it reads an empty report
        calibrate_window_lower_c(())


def test_dominance_reports_small_grids():
    assert hoeffding_dominance_report(range(10, 60)).passed
    assert chernoff_dominance_report(range(10, 60)).passed
    assert chernoff_dominance_report(range(1, 60), t_max_divisor=3).passed
    with pytest.raises(ValueError, match="t_max_divisor"):  # t = m/2 puts a level at 0
        chernoff_dominance_report(range(10, 60), t_max_divisor=2)
    assert window_lower_dominance_report(tuple(range(50, 121, 2))).passed


@pytest.mark.parametrize(
    "make, message",
    [
        # grids with no point, which would pass vacuously
        (lambda: hoeffding_dominance_report(range(1, 4)), r"m // 4 for m in range\(1, 4\)"),
        (lambda: chernoff_dominance_report(()), r"m // 4 for m in \(\)"),
        (lambda: chernoff_dominance_report(range(1, 6), t_max_divisor=7), r"m // 7"),
        (lambda: window_lower_dominance_report(()), r"m_values=\(\)"),
        # a divisor below 1, which used to reach numpy's floor division by 0
        (lambda: hoeffding_dominance_report(range(10, 60), t_max_divisor=0), "t_max_divisor must be >= 1, got 0"),
        (lambda: hoeffding_dominance_report(range(10, 60), t_max_divisor=-2), "t_max_divisor must be >= 1, got -2"),
        # window m that binomial_window_lower refuses
        (lambda: window_lower_dominance_report((0,)), "got 0"),
        (lambda: window_lower_dominance_report((50, 51)), "got 51"),
        (lambda: window_lower_dominance_report((-4,)), "got -4"),
    ],
)
def test_dominance_reports_refuse_empty_or_invalid_grids(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_tail_grids_read_each_m_as_an_int():
    # a non-integral m is refused; it used to be truncated, so that [12.9]
    # was checked, and labelled, as m=12
    with pytest.raises(TypeError):
        chernoff_dominance_report([12.9])
    with pytest.raises(TypeError):
        hoeffding_dominance_report([10.5])
    assert hoeffding_dominance_report(np.arange(10, 60)) == hoeffding_dominance_report(range(10, 60))
    assert chernoff_dominance_report([np.int32(12)]).label(0) == "exp_lo,m=12,t=1"


def test_tail_grids_read_t_max_divisor_as_an_int(clear_bound_grids):
    # refused before numpy is reached, which used to fail casting float64 t
    # counts to int64
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        hoeffding_dominance_report(range(10, 20), 2.5)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        chernoff_dominance_report(range(10, 20), 3.5)
    # a numpy divisor or m reaches the memo entry of its ints
    report = hoeffding_dominance_report(np.arange(10, 20), np.int64(4))
    assert hoeffding_dominance_report(range(10, 20), 4).bound_value is report.bound_value
    assert hoeffding_dominance_report([np.int16(m) for m in range(10, 20)]).bound_value is report.bound_value
    assert bounds._tail_grid.cache_info().currsize == 1
    # a Chernoff report of the same grid reads that entry: its one-sided
    # observed is half the Hoeffding report's two-sided one
    chernoff = chernoff_dominance_report(range(10, 20))
    info = bounds._tail_grid.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert (2.0 * chernoff.observed[::4]).tolist() == report.observed.tolist()
    # past maxsize the least recently used grid is evicted, and its report
    # built again equals the cold one
    grids = [range(10, 20 + j) for j in range(bounds._GRIDS_KEPT + 1)]
    cold = [chernoff_dominance_report(ms) for ms in grids]
    assert bounds._tail_grid.cache_info().currsize == bounds._GRIDS_KEPT
    assert [chernoff_dominance_report(ms) for ms in grids] == cold
    assert hoeffding_dominance_report(range(10, 20)) == report


def test_kept_bound_columns_cannot_be_written_through_a_report(clear_bound_grids):
    ms = range(10, 120)
    first = hoeffding_dominance_report(ms), chernoff_dominance_report(ms)
    with pytest.raises(ValueError, match="read-only"):
        first[0].bound_value[0] = 2.0
    first[1].bound_value[:] = 2.0  # the Chernoff report's column is its own copy
    kept = hoeffding_dominance_report(ms), chernoff_dominance_report(ms)
    assert kept[0].bound_value is first[0].bound_value
    clear_bound_grids()
    assert kept == (hoeffding_dominance_report(ms), chernoff_dominance_report(ms))
    assert kept[0].passed and kept[1].passed


def test_grid_memos_cannot_collide_or_go_stale(monkeypatch, clear_bound_grids):
    # the window memo is keyed by the m values alone: -0.0, a numpy 0.0 and
    # 0.0 each give the cold report's bits, the sign of every bound_value
    # among them, whichever filled the memo
    ms = tuple(range(50, 121, 2))

    def bits(report):
        return report.description, report.bound_value.tobytes(), report.observed.tobytes(), report.satisfied.tobytes()

    c_terms = (-0.0, np.float64(0.0), 0.0)
    cold = []
    for c in c_terms:
        clear_bound_grids()
        cold.append(bits(window_lower_dominance_report(ms, c)))
    for order in (c_terms, c_terms[::-1]):
        clear_bound_grids()
        assert [bits(window_lower_dominance_report(ms, c)) for c in order] == [cold[c_terms.index(c)] for c in order]
        # and the shift c/m keeps the sign of each c
        assert [np.signbit(bounds._window_grid(ms, c)[1]).all() for c in order] == [c is c_terms[0] for c in order]
    # _TIE_TOL is read on every call, outside the memo: after a report under
    # another tol fills the memo and the tol is undone, the candidates are
    # again those of a cold report
    real, sizes = bounds._window_candidates, []
    monkeypatch.setattr(bounds, "_window_candidates", lambda *a: sizes.append(len(real(*a)[0])) or real(*a))
    expect = bits(window_lower_dominance_report(ms, -5.0))
    clear_bound_grids()
    with monkeypatch.context() as patched:
        patched.setattr(bounds, "_TIE_TOL", math.inf)
        assert bits(window_lower_dominance_report(ms, -5.0)) == expect
    assert bits(window_lower_dominance_report(ms, -5.0)) == expect
    assert sizes[0] == sizes[2] == 2 * len(ms) < sizes[1]
    # a grid with no point is refused before the memo, cold or warm, naming
    # the caller's m_values
    for _ in range(2):
        with pytest.raises(ValueError, match=r"m // 4 for m in range\(1, 4\)"):
            hoeffding_dominance_report(range(1, 4))
        with pytest.raises(ValueError, match=r"m // 5 for m in \[4\]"):
            chernoff_dominance_report([4], t_max_divisor=5)
        with pytest.raises(ValueError, match=r"m_values=\(\)"):
            window_lower_dominance_report(())
        hoeffding_dominance_report(range(10, 20))
        window_lower_dominance_report(ms)


def oracle_counts(m: int, ks) -> list[int]:
    """comb_prefix(m) at each k, 0 below the row and 2**m past it."""
    return [0 if k < 0 else comb_prefix(m)[min(k, m)] for k in ks]


def test_fair_counts_equal_comb_prefix_sums():
    # every k around every short row, each k alone and all at once, in
    # ascending and shuffled order, for even and odd m
    for m in range(91):
        ks = list(range(-3, m + 3))
        assert _fair_counts(m, ks) == oracle_counts(m, ks)
        assert [_fair_counts(m, [k]) for k in ks] == [[c] for c in oracle_counts(m, ks)]
        random.Random(m).shuffle(ks)
        assert _fair_counts(m, ks) == oracle_counts(m, ks)
    # long rows, on both sides of the middle and at their ends
    for m in (*range(998, 1005), 1030, 1100):
        ks = [-1, 0, 1, m // 2 - 40, m // 2 - 1, m // 2, m // 2 + 1, m // 2 + 40, m - 1, m, m + 1]
        assert _fair_counts(m, ks) == oracle_counts(m, ks)
    # a numpy m gives the Python ints of its int
    got = _fair_counts(np.int64(100), [40, 50, 60])
    assert got == oracle_counts(100, [40, 50, 60]) and all(type(c) is int for c in got)
    assert _fair_counts(5, []) == []


# the default grid, and one whose exponents straddle e = 1000, past which
# _dyadic_floats divides ints
GRIDS = pytest.mark.parametrize(
    "m_values, size", [(range(10, 401), 19892), (range(998, 1004), 1498)], ids=["default", "m998-1003"]
)


@GRIDS
def test_hoisted_hoeffding_equals_hoeffding_bound(m_values, size):
    points = hoeffding_dominance_report(m_values).points
    grid = [(m, t) for m in m_values for t in range(1, m // 4 + 1)]
    assert len(points) == len(grid) == size
    for point, (m, t) in zip(points, grid):
        assert point.label == f"m={m},t={t}"
        assert point.bound_value == hoeffding_bound([(0.0, 1.0)] * m, t)
        exact = exact_binomial_deviation(m, t)
        assert point.observed == float(exact)
        assert point.satisfied == (_excess(int(exact * (1 << m)), m, point.bound_value) <= 0)


@pytest.mark.parametrize("sides", [1, 2])
@pytest.mark.parametrize(
    "m_values, divisor",
    [(range(10, 401), 4), (range(998, 1004), 4), (range(1, 60), 3), ((1030, 1100), 1)],
    # past m = 1022 the two-sided count / 2**(m - 1) may be subnormal, where
    # twice the one-sided float is not its correctly rounded value
    ids=["default", "m998-1003", "m1-59/3", "m1030,1100/1"],
)
def test_tail_grid_equals_per_point_loop(m_values, divisor, sides):
    # one entry serves both reports: its one-sided column is count / 2**m
    # and its two-sided one count / 2**(m - 1)
    m, t, counts, one_sided, two_sided, hoeffding, chernoff = _tail_grid(tuple(m_values), divisor)
    observed = one_sided if sides == 1 else two_sided
    expect = []
    for k in m_values:
        for j in range(1, k // divisor + 1):
            count = comb_prefix(k)[k // 2 - j] if k // 2 >= j else 0
            expect.append((k, j, count, count / (1 << (k + 1 - sides))))
    assert m.dtype == t.dtype == np.int64
    assert list(zip(m.tolist(), t.tolist(), counts, observed.tolist())) == expect
    # Chernoff's columns are built only where every ratio level m/2 +- t
    # lies inside (0, m), at a divisor of 3 or more
    assert len(chernoff) == (3 if divisor >= 3 else 0)
    assert _tail_grid(tuple(m_values), 2)[-1] == ()


@pytest.mark.parametrize(
    "make, sides",
    [
        # t up to m reaches floor(m/2 - t) < 0, whose count is 0
        (lambda ms: hoeffding_dominance_report(ms, t_max_divisor=1), 2),
        (lambda ms: chernoff_dominance_report(ms, t_max_divisor=3), 1),
    ],
    ids=["hoeffding", "chernoff"],
)
def test_grid_ties_are_decided_from_the_integer_rows(make, sides, monkeypatch):
    # a bound equal to observed = fl(count / 2**e) leaves the float sign
    # open; the verdict is that of the exact count, read from the rows,
    # which is above observed where it rounded down
    ms = range(50, 120)
    grid = [(m, t) for m in ms for t in range(1, m // (1 if sides == 2 else 3) + 1)]
    picked = np.arange(0, len(grid), 7)
    real = bounds._excess_signs

    def tied(counts, e, observed, bound):
        bound = bound.copy()
        bound[picked] = observed[picked]
        return real(counts, e, observed, bound)

    monkeypatch.setattr(bounds, "_excess_signs", tied)
    report = make(ms)
    checks = len(report.satisfied) // len(grid)
    expect = []
    for i in picked.tolist():
        m, t = grid[i]
        count = comb_prefix(m)[m // 2 - t] if m // 2 >= t else 0
        expect.append(_excess(count, m + 1 - sides, float(report.observed[checks * i])) <= 0)
    assert report.satisfied.reshape(len(grid), checks)[picked].tolist() == [[v] * checks for v in expect]
    assert True in expect and False in expect


def test_excess_decides_ties_the_float_quotient_hides():
    # (2**59 + 1) / 2**60 rounds to the float 0.5, yet it exceeds 0.5
    assert float((2**59 + 1) / 2**60) == 0.5
    assert _excess(2**59 + 1, 60, 0.5) > 0
    assert _excess(2**59, 60, 0.5) == 0
    assert _excess(2**59 - 1, 60, 0.5) < 0
    assert _excess(3, 4, -0.25) > 0  # a negative bound (the window lower bound)


def sign(v) -> int:
    return (v > 0) - (v < 0)


@st.composite
def counts_and_bounds(draw):
    """(count, m, bound): bound is arbitrary, the float count / 2**m itself
    (a tie), one of its float neighbours, or an exact dyadic value."""
    m = draw(st.integers(0, 600))
    count = draw(st.integers(0, 1 << m))
    observed = count / (1 << m)
    bound = draw(
        st.one_of(
            st.floats(-2.0, 2.0),
            st.just(observed),
            st.sampled_from([math.nextafter(observed, -1.0), math.nextafter(observed, 2.0)]),
            st.builds(lambda k, j: k / (1 << j), st.integers(-(1 << 60), 1 << 60), st.integers(0, 620)),
        )
    )
    return count, m, bound


@given(counts_and_bounds())
@example((2**59 + 1, 60, 0.5))  # the quotient rounds to 0.5 yet exceeds it
@example((2**59 - 1, 60, 0.5))  # and falls short of it
@example((2**59, 60, 0.5))  # an exact dyadic tie
@example((3, 4, -0.25))  # a negative bound
@example((0, 10, 0.0))
@example((0, 10, -0.0))
@example((1 << 500, 500, 1.0))
@example((2**60 + 1, 1100, 0.0))  # a subnormal quotient, which is divided as ints
def test_float_first_verdict_has_the_exact_sign(case):
    count, m, bound = case
    observed = count / (1 << m)
    assert sign(_excess(count, m, bound)) == sign(Fraction(count, 1 << m) - Fraction(bound))
    # the column forms: the float quotient, with one exponent for all points
    # or one per point, and the float-first verdict
    column = _dyadic_floats([count], m)
    assert column.tolist() == _dyadic_floats([count], np.array([m])).tolist() == [observed]
    signs = _excess_signs([count], m, column, np.array([bound]))
    assert signs.tolist() == [sign(_excess(count, m, bound))]


def test_dyadic_floats_divides_only_the_points_past_e_1000():
    counts = [1, 3, 2**1001 - 1, 0, 2**1100, 7, 2**60 + 1]
    e = [1, 1000, 1001, 1100, 1100, 3, 1100]  # the last is subnormal
    expect = [c / (1 << k) for c, k in zip(counts, e)]
    assert _dyadic_floats(counts, np.array(e)).tolist() == expect
    assert counts[2] == 2**1001 - 1  # the caller's counts are left as they were


@GRIDS
def test_chernoff_grid_equals_relaxed_chernoff_bound(m_values, size):
    points = chernoff_dominance_report(m_values).points
    grid = [(m, t) for m in m_values for t in range(1, m // 4 + 1)]
    assert len(points) == 4 * len(grid) == 4 * size
    for i, (m, t) in enumerate(grid):
        mu = m / 2.0
        lower, upper = (
            comb_prefix(m)[(m - 2 * t) // 2],
            (1 << m) - comb_prefix(m)[(m + 2 * t + 1) // 2 - 1],
        )
        expect = (
            ("exp_lo", lower, relaxed_chernoff_bound("lower_tail", a=mu, t=t)),
            ("exp_hi", upper, relaxed_chernoff_bound("upper_tail", a=mu, t=t)),
            ("ratio_lo", lower, relaxed_chernoff_bound("lower_tail", form="ratio", m=m, mu=mu, level=mu - t)),
            ("ratio_hi", upper, relaxed_chernoff_bound("upper_tail", form="ratio", m=m, mu=mu, level=mu + t)),
        )
        for point, (name, count, bound) in zip(points[4 * i: 4 * i + 4], expect):
            assert point.label == f"{name},m={m},t={t}"
            assert point.bound_value == bound
            assert point.observed == count / (1 << m)
            assert point.satisfied == (_excess(count, m, bound) <= 0)


def reference_windows(m, c_term):
    """(hits, exact, bound) of every window a < b inside m/2 +- sqrt(m), from
    binomial_window_lower itself."""
    cum = comb_prefix(m)
    lo = max(math.ceil(m / 2 - math.sqrt(m)), 0)
    hi = min(math.floor(m / 2 + math.sqrt(m)), m)
    windows = []
    for a in range(lo, hi):
        for b in range(a + 1, hi + 1):
            hits = cum[b] - (cum[a - 1] if a > 0 else 0)
            windows.append((hits, hits / (1 << m), binomial_window_lower(m, a, b, c_term)))
    return windows


def window_pairs(m):
    """Every window a < b inside m/2 +- sqrt(m) as grid columns (a - lo, b - lo),
    in the order of reference_windows."""
    width = min(math.floor(m / 2 + math.sqrt(m)), m) - max(math.ceil(m / 2 - math.sqrt(m)), 0)
    return [(a, b) for a in range(width) for b in range(a + 1, width + 1)]


DEFAULT_MS = tuple(range(50, 501, 2))
SMALL_MS = tuple(range(2, 121, 2)) + (498, 500)
STRADDLE_MS = (996, 998, 1000, 1002, 1004)  # past e = 1000, _dyadic_floats divides ints


@functools.cache
def near_tie_c(side=0):
    """A c_term that puts the bound of m=50's worst window (at c = 0) on
    the float of its exact mass (side 0), or on the nearest float above
    (side 1) or below (side -1) it that some c_term reaches."""
    m = 50
    lo, hi = math.ceil(m / 2 - math.sqrt(m)), math.floor(m / 2 + math.sqrt(m))
    a, b = min(
        ((a, b) for a in range(lo, hi) for b in range(a + 1, hi + 1)),
        key=lambda w: float(exact_binomial_window(m, *w)) - binomial_window_lower(m, *w, 0.0),
    )
    target = float(exact_binomial_window(m, a, b))

    def bound(c):
        return binomial_window_lower(m, a, b, c)  # falls as c rises

    c = (bound(0.0) - target) * m
    while bound(c) < target:
        c = math.nextafter(c, -math.inf)
    while bound(c) > target:
        c = math.nextafter(c, math.inf)
    while side > 0 and bound(c) <= target:
        c = math.nextafter(c, -math.inf)
    while side < 0 and bound(c) >= target:
        c = math.nextafter(c, math.inf)
    assert (bound(c) > target) - (bound(c) < target) == side
    return c


NEAR_TIES = {"near-tie": 0, "near-tie-above": 1, "near-tie-below": -1}


@functools.cache
def reference_report(m_values, c_term):
    """(label, bound_value, observed, satisfied) per m, from the reference loop."""
    expect = []
    for m in m_values:
        windows = reference_windows(m, c_term)
        worst = min(windows, key=lambda w: w[1] - w[2])  # first minimum, like the report
        # an infinite bound is decided by its sign; _excess needs a finite one
        holds = all(bound < 0 if math.isinf(bound) else _excess(hits, m, bound) >= 0 for hits, _, bound in windows)
        expect.append((f"m={m}", worst[2], worst[1], holds))
    return expect


def report_rows(m_values, c_term):
    report = window_lower_dominance_report(m_values, c_term=c_term)
    return [(p.label, p.bound_value, p.observed, p.satisfied) for p in report.points]


def scaled(x, s):
    """x * 2**s as an int, for a float x that is a multiple of 2**-s."""
    n, q = x.as_integer_ratio()
    return n << (s - q.bit_length() + 1)


@pytest.mark.parametrize(
    "c_term, m_values",
    [
        (None, DEFAULT_MS),
        (-5.0, DEFAULT_MS),
        (math.inf, SMALL_MS),
        (-math.inf, SMALL_MS),
        (1e300, SMALL_MS),
        (-1e300, SMALL_MS),
        ("near-tie", SMALL_MS),
        ("near-tie-above", SMALL_MS),
        ("near-tie-below", SMALL_MS),
        (3e16, SMALL_MS),  # float margins tie across windows of different mass
    ],
    ids=["None", "-5.0", "inf", "-inf", "1e+300", "-1e+300", "near-tie", "near-tie-above", "near-tie-below", "3e+16"],
)
def test_window_grid_equals_reference_loop(c_term, m_values):
    tie = NEAR_TIES.get(c_term)
    if tie is not None:
        c_term = near_tie_c(tie)
    c = DEFAULT_WINDOW_C if c_term is None else c_term
    near = 0
    for m in m_values:
        windows = reference_windows(m, c)
        ms, shift, f, g, tol, grid_windows = _window_grid((m,), c)
        assert ms.tolist() == [m] and shift.tolist() == [c / m]
        a, b = np.array(window_pairs(m)).T
        hits, bound = grid_windows(np.zeros_like(a), a, b)
        assert list(zip(hits, bound.tolist())) == [(h, bd) for h, _, bd in windows]
        # the approximate margin F[b] - G[a] + shift is within tol of the
        # exact margin hits / 2**m - bound and of the float margin
        # fl(fl(hits / 2**m) - bound)
        (sh,), (t,) = shift.tolist(), tol.tolist()
        fb, ga = f[0, b].tolist(), g[0, a].tolist()
        assert all(map(math.isfinite, fb + ga))
        if math.isinf(sh):
            assert t == math.inf  # every window is a candidate, decided by its sign
            continue
        s = 1074 + m  # every float is a multiple of 2**-1074
        for h, exact, bd, fv, gv in zip(hits, [w[1] for w in windows], bound.tolist(), fb, ga):
            approx = scaled(fv, s) - scaled(gv, s) + scaled(sh, s)
            assert abs(approx - (h << 1074) + scaled(bd, s)) <= scaled(t, s)
            assert abs(approx - scaled(exact - bd, s)) <= scaled(t, s)
        near += int((np.abs(f[0, b] - g[0, a] + sh) <= t).sum())
    if tie is not None:
        assert near > 0  # so the exact verdict runs
    expect = reference_report(m_values, c)
    got = report_rows(m_values, c_term)
    assert got == expect
    report = window_lower_dominance_report(m_values, c_term=c_term)
    # the CLI reports the first violation, so the order of violations matters too
    assert [p.label for p in report.violations()] == [p[0] for p in expect if not p[3]]
    assert report.passed == all(p[3] for p in expect)
    bad = report.first_violation()
    assert (bad is None) == report.passed
    if bad is not None:
        assert report.label(bad) == report.violations()[0].label
    if m_values == DEFAULT_MS:
        assert report.passed == (c_term is None)
        assert report.worst_margin() == min(bound - exact for _, bound, exact, _ in expect)
        # points built one at a time from the columns, by index and by slice
        points = report.points
        assert len(points) == len(expect) == 226
        for i in (0, 1, 113, 225, -1, -226):
            p = points[i]
            assert (p.label, p.bound_value, p.observed, p.satisfied) == expect[i]
        assert [(p.label, p.bound_value, p.observed, p.satisfied) for p in points[3:9:2]] == expect[3:9:2]
        with pytest.raises(IndexError):
            points[226]


@pytest.mark.parametrize("cap", [1, 990, 10**9], ids=["one-m-per-chunk", "990", "one-chunk"])
@pytest.mark.parametrize(
    "m_values, c_term", [(DEFAULT_MS, None), (STRADDLE_MS, -0.5)], ids=["default", "straddle-1000"]
)
def test_window_report_ignores_chunk_shape(cap, m_values, c_term):
    # each m's point depends on that m alone: the report over a grid is the
    # concatenation of the reports over its runs of consecutive m, each run
    # holding at most cap windows or a single m
    chunks = [[]]
    size = 0
    for m in m_values:
        if chunks[-1] and size + len(window_pairs(m)) > cap:
            chunks.append([])
            size = 0
        chunks[-1].append(m)
        size += len(window_pairs(m))
    if cap == 1:
        assert len(chunks) == len(m_values)
    if cap == 10**9:
        assert len(chunks) == 1
    rows = [row for chunk in chunks for row in report_rows(tuple(chunk), c_term)]
    assert rows == report_rows(m_values, c_term)
    assert report_rows(m_values, c_term) == reference_report(m_values, DEFAULT_WINDOW_C if c_term is None else c_term)


@pytest.mark.parametrize("c_term", [None, -5.0, *NEAR_TIES])
def test_window_report_with_every_window_exact(c_term, monkeypatch):
    # an infinite tolerance sends every window to _excess_signs and makes
    # every window a candidate for its m's worst
    m_values = DEFAULT_MS
    if c_term in NEAR_TIES:
        c_term, m_values = near_tie_c(NEAR_TIES[c_term]), SMALL_MS
    c = DEFAULT_WINDOW_C if c_term is None else c_term
    monkeypatch.setattr(bounds, "_TIE_TOL", math.inf)
    assert report_rows(m_values, c_term) == reference_report(m_values, c)


@pytest.mark.parametrize("c_term", [1e300, 3e16, "near-tie"])
def test_window_report_takes_any_margin_within_tol(c_term, monkeypatch):
    # the report relies only on each approximate margin fl(F[b] - G[a]) +
    # shift lying within tol of the exact margin and of the float margin
    # fl(fl(hits / 2**m) - bound): move F and G by tol / 4 each, so that the
    # margin of each m's first worst window goes up by tol / 2 and that of
    # every window sharing neither end with it down by tol / 2, and the
    # report stays the same
    if c_term in NEAR_TIES:
        c_term = near_tie_c(NEAR_TIES[c_term])
    grid = bounds._window_grid

    def skewed(m_values, c):
        ms, shift, f, g, tol, windows = grid(m_values, c)
        up, down = np.full(f.shape, -0.25), np.full(g.shape, 0.25)
        for i, m in enumerate(ms.tolist()):
            gaps = [exact - bound for _, exact, bound in reference_windows(m, c)]
            a, b = window_pairs(m)[gaps.index(min(gaps))]
            up[i, b], down[i, a] = 0.25, -0.25
        return ms, shift, f + up * tol[:, None], g + down * tol[:, None], tol, windows

    monkeypatch.setattr(bounds, "_window_grid", skewed)
    assert report_rows(SMALL_MS, c_term) == reference_report(SMALL_MS, c_term)


@pytest.mark.parametrize("c_term", [1e15, math.inf, -math.inf])
def test_window_report_at_huge_c_decides_in_slices(c_term, monkeypatch):
    # past |c| of about 1e13 almost every window of the default grid is a
    # candidate, and at an infinite c every one; they are decided in
    # slices, so the peak stays a few MB where one batch of them took 24 MB
    real, sizes = bounds._window_candidates, []
    monkeypatch.setattr(bounds, "_window_candidates", lambda *a: sizes.append(len(real(*a)[0])) or real(*a))
    expect = reference_report(DEFAULT_MS, c_term)
    tracemalloc.start()
    try:
        report = window_lower_dominance_report(DEFAULT_MS, c_term=c_term)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total = sum(len(window_pairs(m)) for m in DEFAULT_MS)
    assert total == 121036 and len(sizes) == 1
    assert sizes[0] == total if math.isinf(c_term) else sizes[0] > 120000  # 120,401 at 1e15
    assert peak < 8 * 2**20
    assert [(p.label, p.bound_value, p.observed, p.satisfied) for p in report.points] == expect


@pytest.mark.parametrize("size", [1, 7, 450])
@pytest.mark.parametrize("c_term", [None, -5.0, "near-tie", 3e16])
@pytest.mark.parametrize("every_window", [False, True], ids=["tol", "every-window"])
def test_window_report_ignores_slice_size(size, c_term, every_window, monkeypatch):
    # an m's candidates may span slices; each m keeps its first least gap
    # (ties go to the earlier slice) and counts its failures over all of them
    m_values = DEFAULT_MS if c_term in (None, -5.0) and not every_window else SMALL_MS
    if c_term in NEAR_TIES:
        c_term = near_tie_c(NEAR_TIES[c_term])
    expect = reference_report(m_values, DEFAULT_WINDOW_C if c_term is None else c_term)
    monkeypatch.setattr(bounds, "_SLICE_WINDOWS", size)
    if every_window:
        monkeypatch.setattr(bounds, "_TIE_TOL", math.inf)
    assert report_rows(m_values, c_term) == expect


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 80), min_size=1, max_size=8, unique=True),
    st.one_of(
        st.sampled_from(sorted(NEAR_TIES)),
        st.floats(-10.0, 10.0),
        st.sampled_from([math.inf, -math.inf, 1e300, -1e300]),
    ),
)
def test_window_report_equals_reference_on_random_grids(halves, c_term):
    m_values = tuple(2 * h for h in halves)  # distinct even m in [2, 160], in any order
    if c_term in NEAR_TIES:
        c_term = near_tie_c(NEAR_TIES[c_term])
    assert report_rows(m_values, c_term) == reference_report.__wrapped__(m_values, c_term)


def test_bounds_validate_leaves_numpy_ma_unloaded():
    # numpy 2.x loads numpy.ma lazily (np.unique does), which keeps about
    # 1 MB resident; bounds-validate stays clear of it
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    if subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout.strip() == "True":
        pytest.skip("a bare import numpy loads numpy.ma")
    run = (
        "import os, sys, tempfile; from ghrlab.cli import main\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    assert main(['bounds-validate', '--out', os.path.join(tmp, 'b.csv')]) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(bounds.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", run], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert out.stdout.strip() == "False"


def test_nan_bound_is_never_satisfied():
    for m_values in ((50,), DEFAULT_MS, (2,)):
        with pytest.raises(ValueError, match="c_term must not be NaN"):
            window_lower_dominance_report(m_values, c_term=float("nan"))


def test_calibration_equals_reference_loop():
    worst = 0.0
    for m in range(50, 501, 2):
        for _, exact, bound in reference_windows(m, 0.0):
            worst = max(worst, (bound - exact) * m)
    assert calibrate_window_lower_c() == worst == 0.0


def test_grid_verdicts_equal_fraction_comparisons():
    report = hoeffding_dominance_report(range(10, 41))
    grid = [(m, t) for m in range(10, 41) for t in range(1, m // 4 + 1)]
    for point, (m, t) in zip(report.points, grid):
        exact = exact_binomial_deviation(m, t)
        assert point.satisfied == (exact <= Fraction(point.bound_value))


def test_window_grid_has_no_float_slack():
    # shift the bound up to 1e-13 above the exact mass of m=50's worst window:
    # a margin that 1e-12 of float slack used to forgive
    base = window_lower_dominance_report((50,), c_term=0.0).points[0]
    gap = base.observed - base.bound_value
    assert gap > 0
    close = window_lower_dominance_report((50,), c_term=-(gap + 1e-13) * 50).points[0]
    assert -1e-12 < close.observed - close.bound_value < 0
    assert not close.satisfied


def test_dominance_report_flags_violations():
    bad = window_lower_dominance_report(tuple(range(50, 61, 2)), c_term=-5.0)
    assert not bad.passed
    assert len(bad.violations()) > 0


def test_shift_xor_tail_check_small():
    report = shift_xor_tail_check(32, [4, 8], 2000, Rng(13))
    assert report.passed
    assert len(report.points) == 31 * 2
    with pytest.raises(ValueError):
        shift_xor_tail_check(1, [1], 10, Rng(0))
    with pytest.raises(ValueError):
        shift_xor_tail_check(8, [-1], 10, Rng(0))
    with pytest.raises(ValueError, match="n=4"):  # an empty grid would pass vacuously
        shift_xor_tail_check(4, [], 10, Rng(0))
    with pytest.raises(ValueError, match="trials must be >= 1"):
        shift_xor_tail_check(32, [4], 0, Rng(0))


def test_shift_samples_cap_refuses_before_drawing(monkeypatch):
    # trials * n sampled bits per shift, at most 2**26; the guard is pure arithmetic
    require_shift_samples(1024, 65536)
    require_shift_samples(256, 0)  # bounds-validate without --trials
    with pytest.raises(ValueError, match=r"exceeds the cap 2\*\*26, got n=1024, trials=65537"):
        require_shift_samples(1024, 65537)

    def refuse_draw(*args):
        raise AssertionError("drew before the size check")

    monkeypatch.setattr(Rng, "child", refuse_draw)
    with pytest.raises(ValueError, match="trials=65537"):
        shift_xor_tail_check(1024, [64], 65537, Rng(0))


def test_shift_xor_tail_check_thread_invariant(monkeypatch):
    a = shift_xor_tail_check(16, [2], 500, Rng(3))
    monkeypatch.setenv("GHRLAB_THREADS", "4")
    b = shift_xor_tail_check(16, [2], 500, Rng(3))
    assert a == b


def test_shift_xor_tail_check_reads_t_values_once():
    # a generator used to give a 0-point report that passed, and a numpy
    # array an ambiguous truth value
    ts = [2, 4]
    reports = [shift_xor_tail_check(16, v, 200, Rng(3)) for v in (ts, (t for t in ts), np.array(ts))]
    assert reports[0] == reports[1] == reports[2] and len(reports[0].points) == 15 * 2
    with pytest.raises(ValueError, match="no t values"):
        shift_xor_tail_check(16, (t for t in ()), 200, Rng(3))
    with pytest.raises(ValueError, match="nonnegative"):
        shift_xor_tail_check(16, np.array([2, -1]), 200, Rng(3))


def test_calibrate_window_lower_c_reads_m_values_once():
    # its report used to use up a generator before the scaling read it
    ms = range(50, 121, 2)
    assert calibrate_window_lower_c(list(ms)) == calibrate_window_lower_c(m for m in ms) == calibrate_window_lower_c(
        np.array(ms)
    )


def test_anticorrelated_trivial_cases():
    # constant f: any mu passes
    assert anticorrelated_expectation_holds([(2.0, 0.7), (2.0, 0.2), (2.0, 0.1)])
    # uniform mu: any f passes
    third = 1.0 / 3.0
    assert anticorrelated_expectation_holds([(5.0, third), (1.0, third), (9.0, third)])


def test_anticorrelated_decreasing_case():
    values = [(3.0, 0.1), (2.0, 0.2), (1.0, 0.7)]
    assert anticorrelated_expectation_holds(values)


def test_anticorrelated_rejects_positive_correlation():
    with pytest.raises(ValueError):
        anticorrelated_expectation_holds([(1.0, 0.1), (2.0, 0.9)])
    with pytest.raises(ValueError):
        anticorrelated_expectation_holds([(1.0, -0.5), (2.0, 1.5)])
    with pytest.raises(ValueError):
        anticorrelated_expectation_holds([(1.0, 0.4), (2.0, 0.4)])
    with pytest.raises(ValueError):
        anticorrelated_expectation_holds([])
