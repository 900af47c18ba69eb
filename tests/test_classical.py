"""Baseline, rectangle spectrum, and the disjointness encoding."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import ghrlab.classical as classical
from ghrlab.bitkit import BitString, Rng, random_bitstring
from ghrlab.classical import (
    DisjointnessInstance,
    RectangleSpec,
    all_instances,
    distance_counts,
    estimate_baseline_success,
    reduction_xi,
    relative_weight,
    relative_weights,
    require_shared_samples,
    tghr_baseline,
    uniform_distance_mass,
    xi_k_repetition,
    xi_parameters,
)
from ghrlab.relation import tghr_is_valid


def bs(text):
    return BitString.from_text(text)


# ---------------------------------------------------------------- baseline


def test_baseline_replays_shared_stream():
    n, t = 16, 5
    x = random_bitstring(n, Rng(100))
    y = random_bitstring(n, Rng(101))
    tau, valid = tghr_baseline(x, y, t, Rng(55))
    replay = Rng(55)
    zs = [random_bitstring(n, replay) for _ in range(t)]
    weights = [(z ^ x).weight() for z in zs]
    best = weights.index(min(weights))  # lowest index on ties
    assert tau == zs[best] ^ y
    assert valid == tghr_is_valid(x, y, tau)


def baseline_reference(x, y, t, shared_rng):
    """tghr_baseline drawn one random_bitstring at a time."""
    best_weight, best_z = x.n + 1, None
    for _ in range(t):
        z = random_bitstring(x.n, shared_rng)
        if (z ^ x).weight() < best_weight:  # strict: the lowest index wins ties
            best_weight, best_z = (z ^ x).weight(), z
    tau = best_z ^ y
    return tau, tghr_is_valid(x, y, tau)


@pytest.mark.parametrize("n", [1, 7, 13, 64, 1000, 1024])
@pytest.mark.parametrize("t", [1, 5, 256])
def test_batched_baseline_equals_per_draw_loop(n, t):
    for seed in range(3):
        x = random_bitstring(n, Rng(seed).child(0))
        y = random_bitstring(n, Rng(seed).child(1))
        batched, single = Rng(seed).child(2), Rng(seed).child(2)
        assert tghr_baseline(x, y, t, batched) == baseline_reference(x, y, t, single)
        assert batched.bits(64) == single.bits(64)  # same stream position after


@pytest.mark.parametrize("n", [2, 3])
def test_batched_baseline_ties_go_to_the_lowest_index(n):
    # x is a value no draw hits, so the closest draws can differ in value
    t, y, split_ties = n + 1, BitString.zeros(n), 0
    for seed in range(30):
        stream = Rng(seed)
        zs = [random_bitstring(n, stream) for _ in range(t)]
        x = next(BitString(v, n) for v in range(1 << n) if BitString(v, n) not in zs)
        weights = [(z ^ x).weight() for z in zs]
        split_ties += len({z for z, w in zip(zs, weights) if w == min(weights)}) > 1
        tau, _ = tghr_baseline(x, y, t, Rng(seed))
        assert tau == zs[weights.index(min(weights))]
    assert split_ties > 0


def test_baseline_exact_hit_is_valid():
    n = 16
    x = random_bitstring(n, Rng(7))
    # first shared draw equals x when both sides read the same stream
    z0 = random_bitstring(n, Rng(7))
    assert z0 == x
    tau, valid = tghr_baseline(x, x ^ bs("0" * 15 + "1"), 1, Rng(7))
    assert valid  # distance |z0 xor x| = 0 passes any threshold


def test_baseline_deterministic():
    x = random_bitstring(16, Rng(1))
    y = random_bitstring(16, Rng(2))
    assert tghr_baseline(x, y, 8, Rng(3)) == tghr_baseline(x, y, 8, Rng(3))
    with pytest.raises(ValueError):
        tghr_baseline(x, y, 0, Rng(3))
    with pytest.raises(ValueError, match="length mismatch: 16 vs 15"):
        tghr_baseline(x, BitString.zeros(15), 8, Rng(3))


def test_estimate_baseline_success_deterministic(monkeypatch):
    a = estimate_baseline_success(64, 16, 50, Rng(4))
    b = estimate_baseline_success(64, 16, 50, Rng(4))
    assert a == b
    monkeypatch.setenv("GHRLAB_THREADS", "4")
    assert estimate_baseline_success(64, 16, 50, Rng(4)) == a


def test_estimate_baseline_success_checks_n_before_drawing():
    # a draw of a 0-bit pair would fail first, with Rng.bits' own message
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        estimate_baseline_success(0, 2, 3, Rng(4))


def refuse_draw(*args):
    raise AssertionError("drew before the size check")


def test_shared_samples_cap_refuses_before_drawing(monkeypatch):
    # t * ceil(n/8) sample bytes, at most 2**24; the guard is pure arithmetic
    require_shared_samples(1024, 131072)
    require_shared_samples(1, 2**24)
    require_shared_samples(1001, 2**24 // 126)  # ceil(1001/8) = 126
    for n, t in ((1024, 131073), (1, 2**24 + 1), (1001, 2**24 // 126 + 1)):
        with pytest.raises(ValueError, match=rf"shared sample bytes exceeds the cap 2\*\*24, got n={n}, t={t}"):
            require_shared_samples(n, t)
    monkeypatch.setattr(Rng, "bit_rows", refuse_draw)
    monkeypatch.setattr(Rng, "child", refuse_draw)
    x = BitString.zeros(1024)
    with pytest.raises(ValueError, match="t=131073"):
        tghr_baseline(x, x, 131073, Rng(0))
    with pytest.raises(ValueError, match="t=131073"):
        estimate_baseline_success(1024, 131073, 1, Rng(0))
    for t in (0, -1):
        with pytest.raises(ValueError, match=f"t must be >= 1, got {t}"):
            tghr_baseline(x, x, t, Rng(0))
        with pytest.raises(ValueError, match=f"t must be >= 1, got {t}"):
            estimate_baseline_success(1024, t, 1, Rng(0))


# ---------------------------------------------------------------- rectangles


def test_named_rectangle_sizes():
    assert RectangleSpec.full(4).sizes() == (16, 16)
    assert RectangleSpec.parity_even(4).sizes() == (8, 8)
    assert RectangleSpec.prefix_zeros(6, 2).sizes() == (16, 16)
    assert RectangleSpec.prefix_zeros(6, 0).sizes() == (64, 64)
    for m in (-1, 7):
        with pytest.raises(ValueError, match=rf"prefix length {m} outside \[0, 6\]"):
            RectangleSpec.prefix_zeros(6, m)
    with pytest.raises(ValueError, match="n must be >= 1"):
        RectangleSpec(0, lambda z: True, lambda z: True)


@pytest.mark.parametrize("n", [1, 4, 12])
def test_named_indicators_equal_predicate_enumeration(n):
    named = [RectangleSpec.full(n), RectangleSpec.parity_even(n)]
    named += [RectangleSpec.prefix_zeros(n, m) for m in range(n + 1)]
    for rect in named:
        custom = RectangleSpec(n, rect.member_a, rect.member_b)  # enumerates the predicates
        for got, want in zip(rect.indicator_vectors(), custom.indicator_vectors()):
            assert got.dtype == want.dtype and np.array_equal(got, want), rect.name


def test_density_and_mu():
    r = RectangleSpec.parity_even(4)
    assert r.density() == Fraction(64, 256)
    assert r.mu() == pytest.approx(math.log2(4 / 0.25))
    with pytest.raises(ValueError):
        RectangleSpec(4, lambda z: False, lambda z: False).mu()


def test_enumeration_cap():
    big = RectangleSpec.full(24)
    with pytest.raises(ValueError):
        big.indicator_vectors()


def test_distance_counts_against_pair_loop():
    r = RectangleSpec.parity_even(5)
    counts = distance_counts(r)
    brute = np.zeros(6, dtype=int)
    members = [BitString(v, 5) for v in range(32) if BitString(v, 5).weight() % 2 == 0]
    for a in members:
        for b in members:
            brute[(a ^ b).weight()] += 1
    assert counts.tolist() == brute.tolist()
    assert counts.sum() == len(members) ** 2


def test_uniform_distance_mass():
    assert uniform_distance_mass(4, {0}) == Fraction(1, 16)
    assert uniform_distance_mass(4, {1, 2}) == Fraction(10, 16)
    assert uniform_distance_mass(4, set(range(5))) == 1
    with pytest.raises(ValueError):
        uniform_distance_mass(4, {5})
    with pytest.raises(ValueError):
        uniform_distance_mass(4, set())


def test_relative_weight_full_cube_is_one():
    r = RectangleSpec.full(4)
    for k in range(5):
        assert relative_weight(r, {k}) == 1


def test_relative_weight_parity_examples():
    r = RectangleSpec.parity_even(4)
    assert relative_weight(r, {1}) == 0
    assert relative_weight(r, {3}) == 0
    assert relative_weight(r, {1, 2}) == Fraction(6, 5)


def test_relative_weight_normalization():
    for r in (RectangleSpec.parity_even(6), RectangleSpec.prefix_zeros(6, 2)):
        total = sum(
            relative_weight(r, {k}) * uniform_distance_mass(6, {k}) for k in range(7)
        )
        assert total == 1


def test_relative_weights_equal_pair_count_oracle():
    n = 5
    cube = [BitString(v, n) for v in range(1 << n)]
    sets = [{k} for k in range(n + 1)] + [{k, k + 1} for k in range(n)] + [{0, 3, 5}]
    for rect in (RectangleSpec.parity_even(n), RectangleSpec.prefix_zeros(n, 2)):
        side_a = [z for z in cube if rect.member_a(z)]
        side_b = [z for z in cube if rect.member_b(z)]
        expect = []
        for dist_set in sets:
            inside = sum((a ^ b).weight() in dist_set for a in side_a for b in side_b)
            uniform = sum((a ^ b).weight() in dist_set for a in cube for b in cube)
            expect.append(
                Fraction(inside, len(side_a) * len(side_b)) / Fraction(uniform, 4**n)
            )
        assert relative_weights(rect, sets) == expect
        assert [relative_weight(rect, d) for d in sets] == expect


def test_relative_weight_mc_close_to_exact():
    r = RectangleSpec.parity_even(8)
    exact = float(relative_weight(r, {3, 4}))
    approx = relative_weight(r, {3, 4}, mode="mc", trials=4000, rng=Rng(31))
    assert approx == pytest.approx(exact, abs=0.1)
    with pytest.raises(ValueError):
        relative_weight(r, {3}, mode="mc")
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials >= 1"):
            relative_weight(RectangleSpec.full(6), {3}, mode="mc", trials=trials, rng=Rng(2))
    with pytest.raises(ValueError):
        relative_weight(r, {3}, mode="typo")


def test_relative_weight_empty_rectangle_errors(monkeypatch):
    empty = RectangleSpec(4, lambda z: False, lambda z: True)
    with pytest.raises(ValueError):
        relative_weight(empty, {1})
    # sampled, a side that accepts nothing gives up at the draw cap
    monkeypatch.setattr(classical, "_REJECTION_CAP", 5)
    with pytest.raises(ValueError, match="did not hit within the cap"):
        relative_weight(empty, {1}, mode="mc", trials=1, rng=Rng(0))


# ---------------------------------------------------------------- encoding


def test_instance_validation():
    DisjointnessInstance(1, frozenset({1}), frozenset({3}))
    with pytest.raises(ValueError):
        DisjointnessInstance(1, frozenset({4}), frozenset({1}))
    with pytest.raises(ValueError):
        DisjointnessInstance(2, frozenset({1}), frozenset({2, 3}))
    with pytest.raises(ValueError, match="l must be >= 1"):
        DisjointnessInstance(0, frozenset(), frozenset())


def test_all_instances_counts():
    assert len(list(all_instances(1))) == 9
    assert len(list(all_instances(2))) == math.comb(7, 2) ** 2


def test_xi_parameters_layout():
    p = xi_parameters(6, 8, 16)
    assert (p.l, p.copies, p.block_len) == (1, 1, 9)
    assert p.ones_run == 2
    assert (p.alice_zero_pad, p.bob_zero_pad) == (7, 5)


def test_xi_parameters_rejects_bad_triples():
    with pytest.raises(ValueError):
        xi_parameters(8, 6, 16)  # c1 >= c2
    with pytest.raises(ValueError):
        xi_parameters(6, 9, 16)  # odd difference
    with pytest.raises(ValueError):
        xi_parameters(6, 10, 64)  # 3*c2 > 4*c1
    with pytest.raises(ValueError):
        xi_parameters(6, 8, 10)  # no room for the segments
    with pytest.raises(ValueError, match="n <= 65536"):
        xi_parameters(6, 8, 10**8)  # refused before reduction_xi draws a permutation


def test_reduction_hand_examples():
    rect = RectangleSpec.full(16)
    one = DisjointnessInstance(1, frozenset({1}), frozenset({2}))
    two = DisjointnessInstance(1, frozenset({2}), frozenset({2}))
    assert reduction_xi(one, 6, 8, 16, rect, Rng(0)).encoded_distance() == 8
    assert reduction_xi(two, 6, 8, 16, rect, Rng(0)).encoded_distance() == 6


@pytest.mark.parametrize(
    "c1,c2,n,l", [(6, 8, 16, 1), (14, 16, 24, 2)]
)
def test_distance_dichotomy_exhaustive(c1, c2, n, l):
    rect = RectangleSpec.full(n)
    for inst in all_instances(l):
        tr = reduction_xi(inst, c1, c2, n, rect, Rng(1))
        q = inst.intersection_size()
        assert tr.encoded_distance() == c2 - q * (c2 - c1)
        assert tr.masked_distance() == tr.encoded_distance()


def test_masking_preserves_distance_across_seeds():
    rect = RectangleSpec.full(16)
    inst = DisjointnessInstance(1, frozenset({1}), frozenset({3}))
    for seed in range(200):
        tr = reduction_xi(inst, 6, 8, 16, rect, Rng(seed))
        assert tr.masked_distance() == tr.encoded_distance() == 8


def test_encoded_segments():
    inst = DisjointnessInstance(1, frozenset({2}), frozenset({3}))
    tr = reduction_xi(inst, 6, 8, 16, RectangleSpec.full(16), Rng(5))
    assert str(tr.x1) == "100" + "010" + "100"
    assert str(tr.y1) == "001" + "001" + "010"
    assert str(tr.x3) == str(tr.x1) + "0" * 7
    assert str(tr.y3) == str(tr.y1) + "11" + "0" * 5
    assert tr.x2 == tr.x1  # one copy at these parameters


def test_masked_string_marginals_uniform():
    """X5 over 10000 seeds at n=16: fair first bit, binomial weight."""
    inst = DisjointnessInstance(1, frozenset({1}), frozenset({2}))
    rect = RectangleSpec.full(16)
    first = 0
    weights = np.zeros(17, dtype=int)
    trials = 10000
    root = Rng(77)
    for i in range(trials):
        tr = reduction_xi(inst, 6, 8, 16, rect, root.child(i))
        first += tr.x5.bit(1)
        weights[tr.x5.weight()] += 1
    assert stats.binomtest(first, trials, 0.5).pvalue > 1e-4
    probs = np.array([math.comb(16, k) / 2**16 for k in range(17)])
    expected = trials * probs
    keep = expected >= 5
    chi2 = ((weights[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    assert chi2 < stats.chi2.ppf(0.999, int(keep.sum()) - 1)


def test_reduction_validation_errors():
    inst = DisjointnessInstance(2, frozenset({1, 2}), frozenset({3, 4}))
    with pytest.raises(ValueError):
        reduction_xi(inst, 6, 8, 16, RectangleSpec.full(16), Rng(0))  # l mismatch
    one = DisjointnessInstance(1, frozenset({1}), frozenset({2}))
    with pytest.raises(ValueError):
        reduction_xi(one, 6, 8, 16, RectangleSpec.full(8), Rng(0))  # rect size


def test_accept_set_is_a_rectangle_given_shared_randomness():
    """With (S, T) fixed by the seed, accepts must close under row/column mixing."""
    rect = RectangleSpec.parity_even(16)
    for seed in range(6):
        accepted = {}
        for inst in all_instances(1):
            tr = reduction_xi(inst, 6, 8, 16, rect, Rng(seed))
            accepted[(inst.x, inst.y)] = tr.accepted
        xs = [frozenset({i}) for i in range(1, 4)]
        for x1 in xs:
            for y1 in xs:
                for x2 in xs:
                    for y2 in xs:
                        if accepted[(x1, y1)] and accepted[(x2, y2)]:
                            assert accepted[(x1, y2)]


def test_xi_k_repetition():
    inst = DisjointnessInstance(1, frozenset({1}), frozenset({2}))
    full = RectangleSpec.full(16)
    assert xi_k_repetition(inst, 1, 6, 8, 16, full, Rng(3)) == reduction_xi(
        inst, 6, 8, 16, full, Rng(3).child(0)
    ).accepted
    assert xi_k_repetition(inst, 5, 6, 8, 16, full, Rng(3))
    empty = RectangleSpec(16, lambda z: False, lambda z: False)
    assert not xi_k_repetition(inst, 3, 6, 8, 16, empty, Rng(3))
    with pytest.raises(ValueError):
        xi_k_repetition(inst, 0, 6, 8, 16, full, Rng(3))
