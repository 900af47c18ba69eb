"""Outcome law, explicit state vectors, sampling, failure probabilities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import ghrlab.oracle as oracle
import ghrlab.protocol as protocol
import ghrlab.relation as relation
from ghrlab.bitkit import BitString, Rng, random_bitstring
from ghrlab.oracle import OutcomeDistribution, delta_table, outcome_distribution, phi_vector, u_vector
from ghrlab.protocol import (
    estimate_success,
    exact_success_probability,
    failure_probability_exact,
    repetition_failure_probability,
    run_protocol,
    run_protocol_trep,
    sample_outcomes,
)
from ghrlab.relation import (
    McEstimate,
    TransformIndex,
    answer_length,
    enumerate_pairs,
    is_typical,
)
from ghrlab.util import InvariantError


def bs(text):
    return BitString.from_text(text)


def all_indices(n):
    logn = answer_length(n)
    for j in range(1, n + 1):
        for sv in range(n):
            yield TransformIndex(j, BitString(sv, logn))


def test_phi_vector_unit_norm_and_signs():
    v = phi_vector(bs("0110"))
    assert v.dim == 4
    assert v.norm() == pytest.approx(1.0)
    assert np.allclose(np.asarray(v.amplitudes) * 2.0, [1, -1, -1, 1])


def test_u_vectors_orthonormal_n4():
    us = [np.asarray(u_vector(t, 4).amplitudes) for t in all_indices(4)]
    gram = np.array([[a @ b for b in us] for a in us])
    assert np.abs(gram - np.eye(16)).max() < 1e-12


def test_closed_form_equals_squared_inner_products_n4():
    us = {t: np.asarray(u_vector(t, 4).amplitudes) for t in all_indices(4)}
    for x, y in enumerate_pairs(4):
        dist = outcome_distribution(x, y)
        joint = np.kron(np.asarray(phi_vector(x).amplitudes),
                        np.asarray(phi_vector(y).amplitudes))
        for t, u in us.items():
            ip = float(u @ joint)
            assert abs(ip * ip - dist.probability(t.j, t.s)) < 1e-12


def test_distribution_structure():
    d = outcome_distribution(bs("0000"), bs("1100"))
    assert d.denominator == 64
    assert d.total_mass() == 1
    assert d.max_probability() <= Fraction(1, 4)
    assert d.probability(4, bs("10")) == Fraction(16, 64)
    assert d.probability(2, bs("10")) == Fraction(16, 64)
    assert d.probability(1, bs("00")) == 0
    assert d.in_window_mass() == 0


def test_mode_defaults_by_size():
    x = random_bitstring(1024, Rng(0))
    y = random_bitstring(1024, Rng(1))
    assert outcome_distribution(x, y).total_mass() == 1


def test_max_probability_never_exceeds_one_over_n():
    rng = Rng(4)
    for n in (4, 16, 64):
        for _ in range(5):
            d = outcome_distribution(random_bitstring(n, rng), random_bitstring(n, rng))
            assert d.max_probability() <= Fraction(1, n)


def test_sampling_matches_exact_law():
    """Chi-square of 20000 draws against the exact cell masses at n=4."""
    x, y = bs("0100"), bs("1110")
    d = outcome_distribution(x, y)
    cells = list(all_indices(4))
    probs = np.array([float(d.probability(t.j, t.s)) for t in cells])
    draws = d.sample(Rng(17), 20000)
    counts = np.zeros(len(cells), dtype=int)
    index = {t: i for i, t in enumerate(cells)}
    for t in draws:
        counts[index[t]] += 1
    keep = probs > 0
    assert counts[~keep].sum() == 0
    chi2 = (((counts[keep] - 20000 * probs[keep]) ** 2) / (20000 * probs[keep])).sum()
    dof = keep.sum() - 1
    assert chi2 < stats.chi2.ppf(0.999, dof)


def test_sampling_deterministic():
    d = outcome_distribution(bs("0100"), bs("1110"))
    assert d.sample(Rng(5), 12) == d.sample(Rng(5), 12)


def test_run_protocol_shapes():
    x, y = bs("0000"), bs("1100")
    answer = run_protocol(x, y, Rng(1))
    assert len(answer) == 2
    assert all(1 <= t.j <= 4 and len(t.s) == 2 for t in answer)


def test_trep_tiling_pattern():
    x = random_bitstring(16, Rng(2))
    y = random_bitstring(16, Rng(3))
    base = outcome_distribution(x, y).sample(Rng(9), 3)
    tiled = run_protocol_trep(x, y, 3, Rng(9))
    assert tiled == (base + base)[:4]
    full = run_protocol_trep(x, y, 4, Rng(9))
    assert full == outcome_distribution(x, y).sample(Rng(9), 4)
    with pytest.raises(ValueError):
        run_protocol_trep(x, y, 0, Rng(1))


def test_repetition_failure_closed_cases():
    assert repetition_failure_probability(2, Fraction(0)) == 0
    assert repetition_failure_probability(2, Fraction(1)) == 1
    assert repetition_failure_probability(2, Fraction(1, 2)) == Fraction(1, 4)
    # odd m: strictly more than half of 3 means at least 2
    assert repetition_failure_probability(3, Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        repetition_failure_probability(2, Fraction(3, 2))
    with pytest.raises(ValueError, match="m must be >= 1"):
        repetition_failure_probability(0, Fraction(1, 2))


def test_failure_probability_exact_n4_values():
    # typical n=4 pairs have zero in-window mass, atypical pairs never fail
    for x, y in enumerate_pairs(4):
        assert failure_probability_exact(x, y) == 0
    assert exact_success_probability(4) == 1


def test_exhaustive_probabilities_stream_all_pairs_as_one_stack(monkeypatch):
    stacks = []
    real = relation._window_sums
    monkeypatch.setattr(relation, "_window_sums", lambda px, w: stacks.append(len(px)) or real(px, w))
    assert relation.exact_aleph_probability(4) == Fraction(1, 2)
    assert exact_success_probability(4) == 1
    assert stacks == [256, 256]  # one block of the 256 pairs' 4 shifts each


@pytest.mark.parametrize("n", [4, 16, 64, 256])
def test_failure_probability_positive_case(n):
    """The streamed statistic gives the full table's failure probability and
    typicality verdict, on random pairs, x = y, and a bent x against y = 0
    (statistic n**3, so atypical).  Typical pairs with nonzero in-window mass
    occur from n = 16 on; at n = 4 every typical pair has none."""
    m = answer_length(n)
    half = m // 2
    bent = BitString.from_bits([bin((i >> half) & i).count("1") % 2 for i in range(n)])
    rng = Rng(21)
    pairs = [(random_bitstring(n, rng), random_bitstring(n, rng)) for _ in range(40)]
    pairs += [(pairs[0][0], pairs[0][0]), (bent, BitString(0, n))]
    found = False
    for x, y in pairs:
        table = delta_table(x, y)
        p = OutcomeDistribution.from_table(table).in_window_mass()
        expect = 0 if not table.aleph() else repetition_failure_probability(m, p)
        assert failure_probability_exact(x, y) == expect
        assert is_typical(n, relation.aleph_statistic(x, y)) == table.aleph()
        found = found or 0 < expect < 1
    assert not table.aleph()  # the bent pair
    assert found == (n > 4)


def test_estimate_success_deterministic_and_thread_invariant(monkeypatch):
    a = estimate_success(16, 40, Rng(6))
    b = estimate_success(16, 40, Rng(6))
    assert a == b
    monkeypatch.setenv("GHRLAB_THREADS", "3")
    c = estimate_success(16, 40, Rng(6))
    assert a == c


def test_estimate_success_trep_matches_full_when_t_is_logn():
    a = estimate_success(16, 30, Rng(7))
    b = estimate_success(16, 30, Rng(7), t=answer_length(16))
    assert a == b


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([4, 16, 64, 256]),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.integers(1, 40),
)
def test_row_sampler_equals_full_table_sampler(n, pair_seed, seed, count):
    pair_rng = Rng(pair_seed)
    x = random_bitstring(n, pair_rng)
    y = random_bitstring(n, pair_rng)
    expect = OutcomeDistribution.from_table(delta_table(x, y)).sample(Rng(seed), count)
    assert sample_outcomes(x, y, Rng(seed), count) == expect


def test_row_sampler_rejects_empty_count():
    with pytest.raises(ValueError):
        sample_outcomes(bs("0100"), bs("1110"), Rng(1), 0)


def test_row_sampler_builds_its_rows_in_one_transform(monkeypatch):
    calls = []
    real = relation.fwht
    monkeypatch.setattr(relation, "fwht", lambda v, *b: calls.append(v.shape) or real(v, *b))
    pair_rng = Rng(5)
    answer = sample_outcomes(random_bitstring(64, pair_rng), random_bitstring(64, pair_rng), Rng(9), 6)
    assert calls == [(64, len({t.j for t in answer}))]


def reference_success(n, trials, rng, t):
    """estimate_success as it reads with the full table built every trial.
    Also counts the trials whose answer alone cannot settle validity."""
    m = answer_length(n)
    hits = unsettled = 0
    for i in range(trials):
        child = rng.child(i)
        x = random_bitstring(n, child)
        y = random_bitstring(n, child)
        table = delta_table(x, y)
        base = OutcomeDistribution.from_table(table).sample(child, t)
        answer = (base * -(-m // t))[:m]
        dev = [2 * table.entry(c.j, c.s) - n for c in answer]
        outside = sum(d * d > n for d in dev)
        unsettled += 2 * outside < m
        hits += (not table.aleph()) or 2 * outside >= m
    return McEstimate.from_successes(hits, trials, rng.seed), unsettled


@pytest.mark.parametrize("n,trials", [(4, 40), (16, 80), (64, 60)])
@pytest.mark.parametrize("t", [None, 1, 3])
def test_estimate_success_equals_full_table_reference(monkeypatch, n, trials, t):
    expect, unsettled = reference_success(n, trials, Rng(13), answer_length(n) if t is None else t)
    built, streamed = [], []
    real_table, real_typical = oracle.delta_table, relation._typical
    monkeypatch.setattr(oracle, "delta_table", lambda x, y: built.append(1) or real_table(x, y))
    monkeypatch.setattr(relation, "_typical", lambda *signs: streamed.append(1) or real_typical(*signs))
    assert estimate_success(n, trials, Rng(13), t=t) == expect
    # typicality is streamed exactly for the trials the answer leaves open,
    # and no trial builds the full table
    assert len(streamed) == unsettled
    assert not built


def count_chunks(monkeypatch):
    """Counts the chunk transforms of the protocol path (typicality
    streaming goes through relation._spectra directly and is not counted)."""
    calls = []
    real = protocol._spectra
    monkeypatch.setattr(protocol, "_spectra", lambda *a: calls.append(a[2]) or real(*a))
    return calls


@pytest.mark.parametrize("n,trials", [(4, 40), (16, 40), (64, 30), (256, 12)])
@pytest.mark.parametrize("t", [None, 1, 3])
def test_estimate_success_ignores_chunk_shape(n, trials, t):
    """One trial per chunk, an odd number per chunk and the whole run in one
    chunk, on one thread and on four, all equal the full-table oracle."""
    draws = answer_length(n) if t is None else min(t, answer_length(n))
    expect, _ = reference_success(n, trials, Rng(29), draws)
    per_trial = n * draws
    for cap, chunks in ((1, trials), (3 * per_trial, -(-trials // 3)), (10**9, 1)):
        for threads in ("1", "4"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(protocol, "_STAT_BLOCK_CELLS", cap)
                mp.setenv("GHRLAB_THREADS", threads)
                calls = count_chunks(mp)
                assert estimate_success(n, trials, Rng(29), t=t) == expect
                assert len(calls) == chunks


def test_draws_sharing_a_row_share_its_column(monkeypatch):
    """40 draws at n = 16 land in at most 16 rows, each built once."""
    calls = count_chunks(monkeypatch)
    answer = sample_outcomes(bs("0110100111010001"), bs("1011000111100100"), Rng(9), 40)
    assert list(calls[0]) == sorted({o.j for o in answer})


def test_chunk_of_default_cap_at_n1024(monkeypatch):
    """2**16 cells hold 6 trials of 10 rows at n = 1024."""
    calls = count_chunks(monkeypatch)
    estimate_success(1024, 13, Rng(3))
    assert len(calls) == 3
    assert sum(len(c) for c in calls) <= 130


def test_corrupted_chunk_column_names_its_shift(monkeypatch):
    """A chunk column that breaks Parseval raises InvariantError naming the
    shift of its own pair's row: the first column of trial 1 here."""
    n, t = 16, 4
    shifts = []
    for i in range(2):
        _, _, child = relation.trial_pair(n, Rng(3), i)
        shifts.append(sorted({int(r) // (n * n) + 1 for r in child.generator.integers(0, n**3, size=t)}))
    column = len(shifts[0])
    real = relation.fwht
    transforms = []

    def corrupted(v, *buffers):
        out = real(v, *buffers)
        if not transforms:  # the chunk's own transform comes before any typicality stream
            out[0, column] += 2
        transforms.append(v.shape)
        return out

    monkeypatch.setattr(relation, "fwht", corrupted)
    with pytest.raises(InvariantError, match=f"^row j={shifts[1][0]} .*n\\*\\*2 = 256"):
        estimate_success(n, 5, Rng(3))


def test_corrupted_sampler_column_names_its_shift(monkeypatch):
    pair_rng = Rng(5)
    x, y = random_bitstring(64, pair_rng), random_bitstring(64, pair_rng)
    shifts = sorted({o.j for o in sample_outcomes(x, y, Rng(9), 6)})
    assert len(shifts) > 1
    real = relation.fwht

    def corrupted(v, *buffers):
        out = real(v, *buffers)
        out[3, 1] -= 2
        return out

    monkeypatch.setattr(relation, "fwht", corrupted)
    with pytest.raises(InvariantError, match=f"^row j={shifts[1]} "):
        sample_outcomes(x, y, Rng(9), 6)


def test_prefix_sums_fit_int32(monkeypatch):
    """The blocked search's sums are exact.  A square of an int16 butterfly
    value is at most 2**30, so a block of sqrt(n) squares, even of a
    corrupted column, can pass 2**31 and is summed in int64, where a whole
    column fits.  The int32 prefix sums within a block run only on columns
    checked to sum to n**2, so they reach at most n**2, which is 2**24 at
    the largest allowed n, and no larger n passes the size guard."""
    largest = relation.MAX_TRANSFORM_SIZE
    square = np.iinfo(np.int16).min ** 2
    assert square == 2**30 and math.isqrt(largest) * square > np.iinfo(np.int32).max
    assert largest * square < np.iinfo(np.int64).max
    assert largest**2 == 2**24 < np.iinfo(np.int32).max
    relation.require_transform_size(largest)
    with pytest.raises(ValueError):
        relation.require_transform_size(4 * largest)

    def wrapping(v, *buffers):
        """Columns whose squares 4 * 2**30 + 16**2 sum to n**2 in int32."""
        out = np.zeros_like(v)
        out[:4], out[4] = np.iinfo(np.int16).min, 16
        return out

    monkeypatch.setattr(relation, "fwht", wrapping)
    with pytest.raises(InvariantError, match=f"sums to {4 * 2**30 + 256}, not n\\*\\*2 = 256"):
        sample_outcomes(BitString(0, 16), BitString(0, 16), Rng(1), 3)


class CraftedDraws:
    """An rng whose one outcome draw call returns the given draws."""

    def __init__(self, draws):
        self.generator = self
        self.draws = np.asarray(draws, dtype=np.int64)

    def integers(self, low, high, size, dtype):
        assert low == 0 and size == len(self.draws) and dtype == np.int64
        return self.draws.copy()


@pytest.mark.parametrize("n", [4, 16, 64, 256])
def test_blocked_search_equals_full_table_sample(n):
    """At the ends of the table and of a row, and at every block's end
    prefix, one below it and the middle of its range, in three rows, the
    blocked search picks OutcomeDistribution.sample's cell."""
    x, y, _ = relation.trial_pair(n, Rng(41), 0)
    dist = outcome_distribution(x, y)
    height = math.isqrt(n)
    per_row = n * n
    draws = [0, per_row - 1, per_row, n**3 - 1]
    for j in (1, n // 2, n):
        ends = np.cumsum(dist.numerators[j - 1], dtype=np.int64)[height - 1::height]
        assert ends[-1] == per_row
        for before, end in zip([0, *ends[:-1]], ends[:-1]):
            picks = {end - 1, end, (before + end) // 2}
            draws += [(j - 1) * per_row + int(r) for r in picks if 0 <= r < per_row]
    expect = dist.sample(CraftedDraws(draws), len(draws))
    assert sample_outcomes(x, y, CraftedDraws(draws), len(draws)) == expect
    with_mass = np.flatnonzero(dist.numerators[0].reshape(height, height).sum(axis=1))
    assert {o.s.as_unsigned() // height for o in expect if o.j == 1} == set(with_mass.tolist())


def test_repetition_guard():
    x, y = random_bitstring(16, Rng(2)), random_bitstring(16, Rng(3))
    for t in (0, 5, 10**12):
        with pytest.raises(ValueError, match="t must be in \\[1, log2 n = 4\\]"):
            run_protocol_trep(x, y, t, Rng(9))
        with pytest.raises(ValueError, match="log2 n = 4"):
            protocol.require_repetitions(16, t)
    protocol.require_repetitions(16, 4)
    with pytest.raises(ValueError):
        estimate_success(16, 3, Rng(1), t=0)


def test_estimate_success_draws_at_most_log2_n(monkeypatch):
    """A t above log2 n runs as log2 n, whose draws are all a run keeps, and
    never draws more: a huge t allocates nothing."""
    sizes = []
    real = protocol._draws
    monkeypatch.setattr(protocol, "_draws", lambda rng, n, count: sizes.append(count) or real(rng, n, count))
    assert estimate_success(16, 20, Rng(4), t=10**12) == estimate_success(16, 20, Rng(4))
    assert set(sizes) == {4}
