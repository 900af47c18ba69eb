"""Weight-decoupling sampler: exact tables, sampled histograms, tail cap."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from ghrlab import coupling
from ghrlab.bitkit import BitString, Rng, random_bitstring
from ghrlab.bounds import exact_binomial_window
from ghrlab.coupling import (
    exact_coupled_distribution,
    sample_a_tilde,
    tilde_weight_tail_bound,
    verify_independence,
)
from ghrlab.util import InvariantError


def bs(text):
    return BitString.from_text(text)


def test_hand_table_n2():
    table = exact_coupled_distribution(bs("10"))
    expect = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    for k in range(3):
        assert table.row(k) == expect


def fair_masses(n):
    """Binomial(n, 1/2) point masses, each the one-point window of bounds."""
    return tuple(exact_binomial_window(n, w, w) for w in range(n + 1))


def test_fair_binomial_masses():
    masses = fair_masses(4)
    assert masses == (
        Fraction(1, 16),
        Fraction(4, 16),
        Fraction(6, 16),
        Fraction(4, 16),
        Fraction(1, 16),
    )
    assert sum(masses) == 1


@pytest.mark.parametrize("n", [2, 4, 6])
def test_every_selector_gives_exact_binomial_rows(n):
    fair = fair_masses(n)
    for value in range(1 << n):
        table = exact_coupled_distribution(BitString(value, n))
        for k in range(n + 1):
            assert table.row(k) == fair


class ScriptedCoins:
    """An Rng stand-in whose chance(p) replays a script of outcomes and then
    answers False; calls records each (p, outcome) it gave."""

    def __init__(self, script):
        self.script = script
        self.calls = []

    def chance(self, p):
        i = len(self.calls)
        outcome = self.script[i] if i < len(self.script) else False
        self.calls.append((p, outcome))
        return outcome


def coin_tree_rows(s):
    """P[|a xor a_tilde xor s| = w given |a| = k] from the sampler itself:
    every a of each weight and every branch of sample_a_tilde's coins, each
    leaf weighted by the product of its coins' p or 1 - p."""
    n = s.n
    rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for value in range(1 << n):
        a = BitString(value, n)
        scripts = [()]
        while scripts:  # a leaf's script ends at its last True coin
            script = scripts.pop()
            coins = ScriptedCoins(script)
            w = sample_a_tilde(a, s, coins).mixed_weight()
            leaf = Fraction(1, math.comb(n, a.weight()))
            for p, outcome in coins.calls:
                leaf *= p if outcome else 1 - p
            rows[a.weight()][w] += leaf
            outcomes = tuple(outcome for _, outcome in coins.calls)
            scripts += [(*outcomes[:i], True) for i in range(len(script), len(outcomes))]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_rows_equal_the_sampler_coin_tree(n):
    # every selector at n <= 4; at n = 6 five weights: pure stage 1, both
    # stages (d = 2 and d = 1), pure stage 2, and a complemented selector
    texts = ["111111", "011111", "110110", "101010", "000100"]
    selectors = [BitString(v, n) for v in range(1 << n)] if n <= 4 else [bs(t) for t in texts]
    for s in selectors:
        table = exact_coupled_distribution(s)
        assert table.s == s
        assert table.rows == coin_tree_rows(s)


def test_every_weight_class_is_binomial_up_to_the_cap():
    # the DP's largest lengths, each class built afresh
    coupling._class_rows.cache_clear()
    coupling._class_distances.cache_clear()
    for n in (10, 12, 14, 16):
        for weight in range(n + 1):
            assert coupling._class_distances(n, weight) == (0,) * (n + 1), (n, weight)


def test_row_that_is_no_distribution_is_refused(coupling_patched):
    # a flip probability past 1 gives the rows negative entries
    with coupling_patched("_stage_one_flip_probability", lambda m, k, a_bit: Fraction(3, 2)):
        for text, message in (("0001", "n=4, weight=3, k=0"), ("111100", "n=6, weight=4, k=0")):
            with pytest.raises(InvariantError, match=f"^coupling row {message} is not a distribution$"):
                exact_coupled_distribution(bs(text))


def test_rows_are_distributions():
    table = exact_coupled_distribution(bs("110100"))
    for k in range(7):
        assert sum(table.row(k)) == 1
        assert all(p >= 0 for p in table.row(k))


def test_verify_independence_passes_and_has_teeth(broken_dp):
    good = verify_independence(bs("1100"))
    assert good.passed and good.max_tv == 0.0
    with broken_dp():
        broken = verify_independence(bs("1100"))
    assert not broken.passed
    assert broken.max_tv == 0.625
    # the cached rows of the broken DP are gone with it
    again = verify_independence(bs("1100"))
    assert again.passed and again.max_tv == 0.0


def test_tolerance_is_finite_and_compared_exactly(broken_dp):
    s = bs("0001")  # broken sampler: worst TV exactly 1/3, whose float rounds down
    with broken_dp():
        broken = verify_independence(s, tol=0.5)
        assert broken.passed and broken.worst_k == 2
        assert Fraction(broken.max_tv) < Fraction(1, 3)
        assert not verify_independence(s, tol=broken.max_tv).passed
    for tol in (math.inf, math.nan, -1e-9):
        with pytest.raises(ValueError, match="tol must be a finite nonnegative number"):
            verify_independence(s, tol=tol)


def test_complement_selector_agrees():
    # a minority-ones selector must route through the complemented table
    low = exact_coupled_distribution(bs("0001"))
    high = exact_coupled_distribution(bs("1110"))
    for k in range(5):
        assert low.row(k) == high.row(4 - k)
    assert verify_independence(bs("0001")).passed


def test_odd_length_rejected():
    with pytest.raises(ValueError):
        exact_coupled_distribution(bs("101"))
    with pytest.raises(ValueError):
        sample_a_tilde(bs("101"), bs("110"), Rng(0))
    with pytest.raises(ValueError):
        sample_a_tilde(bs("10"), bs("1100"), Rng(0))
    for dp in (exact_coupled_distribution, verify_independence):  # past the DP's cap
        with pytest.raises(ValueError, match=r"even in \[2, 16\], got 18"):
            dp(BitString(0, 18))


def test_transcript_structure():
    a, s = bs("101100"), bs("110110")  # |s| = 4, d = 1
    tr = sample_a_tilde(a, s, Rng(11))
    assert tr.a == a and tr.s == s
    assert tr.d == 1 and not tr.swapped
    assert len(tr.stage_one) == 2
    assert len(tr.stage_two) == 2
    assert len(tr.weights) == 1 + 2 + 2
    assert tr.weights[0] == a.weight()
    assert tr.weights[-1] == 0
    assert tr.mixed_weight() == (a ^ tr.a_tilde ^ s).weight()


def test_transcript_swapped_frame():
    a, s = bs("1010"), bs("0001")  # |s| < n/2 runs on the complement
    tr = sample_a_tilde(a, s, Rng(4))
    assert tr.swapped
    assert tr.weights[0] == (~a).weight()
    assert tr.d == 1


def test_sampler_deterministic():
    a, s = bs("101100"), bs("110100")
    t1 = sample_a_tilde(a, s, Rng(8))
    t2 = sample_a_tilde(a, s, Rng(8))
    assert t1 == t2


def test_sampler_matches_exact_table():
    """Histogram of mixed weights over uniform a vs the DP rows, per |a|."""
    n = 6
    s = bs("110100")
    table = exact_coupled_distribution(s)
    rng = Rng(19)
    trials = 30000
    counts = np.zeros((n + 1, n + 1), dtype=int)
    for i in range(trials):
        child = rng.child(i)
        a = random_bitstring(n, child)
        tr = sample_a_tilde(a, s, child)
        counts[a.weight(), tr.mixed_weight()] += 1
    for k in range(n + 1):
        total = counts[k].sum()
        probs = np.array([float(p) for p in table.row(k)])
        expected = total * probs
        keep = expected >= 5
        chi2 = ((counts[k][keep] - expected[keep]) ** 2 / expected[keep]).sum()
        # pool the tiny cells into the test implicitly by skipping them
        assert counts[k][~keep].sum() <= max(10, 0.01 * total)
        assert chi2 < stats.chi2.ppf(0.999, int(keep.sum()) - 1)


def test_stage_probabilities_are_valid():
    rng = Rng(23)
    for _ in range(50):
        a = random_bitstring(8, rng)
        s = random_bitstring(8, rng)
        tr = sample_a_tilde(a, s, rng)
        for step in tr.stage_one:
            assert 0 <= step.flip_probability < 1
        for step in tr.stage_two:
            assert 0 <= step.z_probability < 1
            if step.z == 0:
                assert step.tilde_pair == (0, 0)
            else:
                assert step.tilde_pair in ((0, 1), (1, 0))


def test_tail_bound_shape():
    assert tilde_weight_tail_bound(256, 8, 0) == 1.0
    values = [tilde_weight_tail_bound(256, 8, t) for t in (1, 32, 256, 2048, 65536)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values[-1] < 1e-6
    for lo, hi in zip(values, values[1:]):
        assert hi <= lo
    with pytest.raises(ValueError):
        tilde_weight_tail_bound(256, 8, -1.0)
