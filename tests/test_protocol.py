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
from ghrlab.bounds import exact_binomial_tail
from ghrlab.oracle import OutcomeDistribution, delta_table, outcome_distribution, phi_vector, u_vector
from ghrlab.protocol import (
    estimate_success,
    exact_success_probability,
    failure_probability_exact,
    run_protocol,
    run_protocol_trep,
    sample_outcomes,
)
from ghrlab.relation import (
    McEstimate,
    TransformIndex,
    answer_length,
    enumerate_pairs,
    ghr_is_valid,
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


def majority_tail(m, p):
    """P[Binomial(m, p) > m/2]: a run of m entries fails when at least
    m // 2 + 1 of them land in the center window (failure_probability)."""
    return exact_binomial_tail(m, p, m // 2 + 1)


def test_repetition_failure_closed_cases():
    assert majority_tail(2, Fraction(0)) == 0
    assert majority_tail(2, Fraction(1)) == 1
    assert majority_tail(2, Fraction(1, 2)) == Fraction(1, 4)
    # odd m: strictly more than half of 3 means at least 2
    assert majority_tail(3, Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        majority_tail(2, Fraction(3, 2))
    with pytest.raises(ValueError, match="m must be >= 1"):
        majority_tail(0, Fraction(1, 2))


def repetition_failure_reference(m, p):
    """The tail as a sum of one Fraction per term."""
    return sum((math.comb(m, k) * p**k * (1 - p) ** (m - k) for k in range(m // 2 + 1, m + 1)), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.integers(1, 10**12).flatmap(lambda b: st.tuples(st.integers(0, b), st.just(b))))
def test_repetition_failure_equals_fraction_terms(m, ab):
    # one integer numerator over b**m, against the per-term Fraction sum
    p = Fraction(*ab)
    got = majority_tail(m, p)
    assert type(got) is Fraction and got == repetition_failure_reference(m, p)


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
        expect = 0 if not table.aleph() else majority_tail(m, p)
        assert failure_probability_exact(x, y) == expect
        assert is_typical(n, relation.aleph_statistic(x, y)) == table.aleph()
        found = found or 0 < expect < 1
    assert not table.aleph()  # the bent pair
    assert found == (n > 4)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([16, 64, 256]), st.data())
def test_failure_probability_grows_with_the_statistic(n, data):
    # over typical statistics the failure tail grows with the in-window
    # mass statistic / n**3, and an atypical statistic never fails
    typical = 4 * n**3 // 9  # the largest typical statistic
    low, high = sorted(data.draw(st.lists(st.integers(0, typical), min_size=2, max_size=2)))
    assert protocol.failure_probability(n, low) <= protocol.failure_probability(n, high)
    assert protocol.failure_probability(n, data.draw(st.integers(typical + 1, n**3))) == 0


def test_failure_probability_has_no_size_cap():
    # pure arithmetic past the transform size cap, which guards allocations
    n = 16384
    assert type(protocol.failure_probability(n, 4 * n**3 // 9)) is Fraction


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


def test_row_sampler_builds_its_rows_in_one_transform(relation_transforms):
    """One level-1 transform of the drawn rows, one column of sqrt(n) lanes
    of sqrt(n) cells per draw, and one level-2 transform of the 6 drawn
    blocks."""
    calls = []
    relation_transforms(lambda product, run: calls.append(product.shape) or run())
    pair_rng = Rng(5)
    answer = sample_outcomes(random_bitstring(64, pair_rng), random_bitstring(64, pair_rng), Rng(9), 6)
    assert calls == [(8, 8 * len(answer)), (8, 6)]


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
    """Records the shifts of every chunk's cell reader on the protocol path
    (typicality streaming goes through relation._spectra directly and is
    not counted)."""
    calls = []
    real = protocol._row_cells
    monkeypatch.setattr(protocol, "_row_cells", lambda *a: calls.append(a[3]) or real(*a))
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
                mp.setattr(protocol, "_CHUNK_CELLS", cap)
                mp.setenv("GHRLAB_THREADS", threads)
                calls = count_chunks(mp)
                assert estimate_success(n, trials, Rng(29), t=t) == expect
                assert len(calls) == chunks


def test_draws_sharing_a_row_read_equal_columns(monkeypatch):
    """40 draws at n = 16 land in at most 16 rows.  The reader gets one
    column per draw, in draw order, and draws that share a row read equal
    columns: the same block ends and the same cells in every block."""
    readers = []
    real = protocol._row_cells
    monkeypatch.setattr(protocol, "_row_cells", lambda *a: readers.append((a[3], real(*a))) or readers[-1][1])
    answer = sample_outcomes(bs("0110100111010001"), bs("1011000111100100"), Rng(9), 40)
    [(shifts, (ends, cells))] = readers
    shifts = shifts.tolist()
    assert shifts == [o.j for o in answer]
    blocks = np.arange(4)
    repeated = 0
    for c, j in enumerate(shifts):
        first = shifts.index(j)
        repeated += first < c
        assert np.array_equal(ends[:, c], ends[:, first])
        assert np.array_equal(cells(np.full(4, c), blocks), cells(np.full(4, first), blocks))
    assert repeated >= 40 - 16


def slice_counts():
    """(n, count): at n = 16 and 1024, with B = max(1, _CHUNK_CELLS // n),
    one draw, one full slice, one more, and three full slices and one
    more; and 40,000 draws at n = 16, two full slices and a partial one."""
    for n in (16, 1024):
        width = max(1, protocol._CHUNK_CELLS // n)
        yield from ((n, count) for count in (1, width, width + 1, 3 * width + 1))
    yield 16, 40_000


@pytest.mark.parametrize("n,count", list(slice_counts()))
def test_sliced_sampler_equals_full_table_sampler(monkeypatch, n, count):
    """sample_outcomes reads its draws in consecutive slices of at most B
    columns and returns the full-table sampler's outcomes, leaving its rng
    where the full-table sampler leaves a twin: their next draws agree."""
    width = max(1, protocol._CHUNK_CELLS // n)
    x, y, _ = relation.trial_pair(n, Rng(17), 0)
    widths = []
    real = protocol._row_cells
    monkeypatch.setattr(protocol, "_row_cells", lambda *a: widths.append(len(a[3])) or real(*a))
    ours, twin = Rng(5), Rng(5)
    assert sample_outcomes(x, y, ours, count) == outcome_distribution(x, y).sample(twin, count)
    assert max(widths) <= width and sum(widths) == count
    assert np.array_equal(ours.words32(3), twin.words32(3))
    assert ours.u64() == twin.u64()


def test_chunk_of_default_cap_at_n1024(monkeypatch):
    """2**18 cells hold 25 trials of 10 rows at n = 1024: 51 trials take
    chunks of 25, 25 and 1."""
    calls = count_chunks(monkeypatch)
    estimate_success(1024, 51, Rng(3))
    # one column per draw; chunks may run on threads in any order
    assert sorted(len(c) for c in calls) == [10, 250, 250]


def level(k, corrupt):
    """A relation_transforms hook that runs every transform and hands the
    output of the k-th one run, counted from 0, to corrupt."""
    runs = []

    def hook(product, run):
        out = run()
        if len(runs) == k:
            corrupt(out)
        runs.append(product.shape)
        return out

    return hook


def test_corrupted_chunk_column_names_its_shift(relation_transforms):
    """A chunk column that breaks Parseval at level 1, or a drawn block
    whose cells break it at level 2, raises InvariantError naming the shift
    of its own pair's row: trial 1's first column, and its first draw."""
    n, t, root = 16, 4, 4
    draws = [relation.trial_pair(n, Rng(3), i)[2].generator.integers(0, n**3, size=t) for i in range(2)]
    j = int(draws[1][0]) // (n * n) + 1  # the row of trial 1's first draw, its column t

    def shifted(out):
        out[0, t * root] += 2  # lane 0 of the column's block 0

    relation_transforms(level(0, shifted))
    with pytest.raises(InvariantError, match=f"^row j={j} of pair 1 in its stack sums to .*, not n\\*\\*2 = 256$"):
        estimate_success(n, 5, Rng(3))

    def cell(out):
        out[0, t] += 2  # trial 1's first draw

    relation_transforms(level(1, cell))
    match = f"^row j={j} of pair 1 in its stack: block [0-3] of its selectors sums to"
    with pytest.raises(InvariantError, match=match):
        estimate_success(n, 5, Rng(3))


def test_corrupted_sampler_column_names_its_shift(relation_transforms):
    pair_rng = Rng(5)
    x, y = random_bitstring(64, pair_rng), random_bitstring(64, pair_rng)
    answer = sample_outcomes(x, y, Rng(9), 6)
    assert answer[1].j != answer[0].j

    def corrupted(out):
        out[3, 8 * 1 + 1] -= 2  # lane 1 of block 3 of the second column, the second draw's

    relation_transforms(level(0, corrupted))
    with pytest.raises(InvariantError, match=f"^row j={answer[1].j} "):
        sample_outcomes(x, y, Rng(9), 6)

    def cell(out):
        out[5, 2] -= 2

    relation_transforms(level(1, cell))
    match = f"^row j={answer[2].j} of pair 0 in its stack: block {answer[2].s.as_unsigned() // 8} "
    with pytest.raises(InvariantError, match=match):
        sample_outcomes(x, y, Rng(9), 6)


def test_prefix_sums_fit_int32(relation_transforms):
    """The reader's sums are exact.  Level 1 runs in int8, so a level-1
    square is at most 2**14 and sqrt(n) of them at most 2**20, within
    int32 even before the range check.  A level-1 value lies in [-sqrt(n),
    sqrt(n)] or raises, so a block's mass, sqrt(n) times sqrt(n) such
    squares, is at most n**2, and the cumulative masses of sqrt(n) blocks
    reach at most sqrt(n) * n**2 <= 2**30: int32 holds them.  Level 2 runs
    in int16, where a square is at most 2**30, so sqrt(n) of them can pass
    2**31.  A drawn block's squared cells are summed in int64, where any
    int16 cells fit, and the int32 prefix sums within it run only once that
    sum equals the block's mass, so they reach at most n**2, which is 2**24
    at the largest allowed n, and no larger n passes the size guard."""
    largest = relation.MAX_TRANSFORM_SIZE
    root = math.isqrt(largest)
    narrow = np.iinfo(np.int8).min ** 2
    assert narrow == 2**14 and root * narrow == 2**20 < np.iinfo(np.int32).max
    square = np.iinfo(np.int16).min ** 2
    assert square == 2**30 and root * square > np.iinfo(np.int32).max
    assert root * root * root * root == largest**2 == 2**24
    assert root * largest**2 == 2**30 < np.iinfo(np.int32).max
    assert root * square < np.iinfo(np.int64).max
    relation.require_transform_size(largest)
    with pytest.raises(ValueError):
        relation.require_transform_size(4 * largest)

    def extremes(out):
        """int8 lanes at the ends of their range, whose squares 4 * 2**14 +
        8**2 would sum to a mass in int32 all the same."""
        assert out.dtype == np.int8
        out[:] = 0
        out[0, :4], out[0, 4] = np.iinfo(np.int8).min, 8

    # x = y = 0 at n = 64: all of a row's mass, n**2, sits at s = 0, and
    # 8 * 64 = 4096 is the mass of its block 0 (level 1) and of the cell
    relation_transforms(level(0, extremes))
    match = "^row j=[0-9]+ of pair 0 in its stack has a half-transform value outside \\[-8, 8\\]$"
    with pytest.raises(InvariantError, match=match):
        sample_outcomes(BitString(0, 64), BitString(0, 64), Rng(1), 3)

    def wrapping_cells(out):
        """Cells whose squares 4 * 2**30 + 64**2 sum to 4096 in int32."""
        assert out.dtype == np.int16
        out[:] = 0
        out[:4], out[4] = np.iinfo(np.int16).min, 64

    relation_transforms(level(1, wrapping_cells))
    match = f"block 0 of its selectors sums to {4 * 2**30 + 4096}, not its mass 4096$"
    with pytest.raises(InvariantError, match=match):
        sample_outcomes(BitString(0, 64), BitString(0, 64), Rng(1), 3)


class CraftedDraws:
    """An rng whose one outcome draw call returns the given draws below
    n**3: generator.integers, which the full-table oracle calls, returns
    them as they are, and words32, which protocol._draws reads at n <= 1024,
    returns the uint32 words that Lemire's method maps to them, each draw in
    the top 3 log2 n bits."""

    def __init__(self, draws, n):
        self.generator = self
        self.draws = np.asarray(draws, dtype=np.int64)
        self.n = n

    def integers(self, low, high, size, dtype):
        assert low == 0 and size == len(self.draws) and dtype == np.int64
        return self.draws.copy()

    def words32(self, count):
        assert count == len(self.draws)
        words = self.draws.astype(np.uint32) << (32 - 3 * (self.n.bit_length() - 1))
        assert [int(w) * self.n**3 >> 32 for w in words] == self.draws.tolist()
        return words


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
    expect = dist.sample(CraftedDraws(draws, n), len(draws))
    assert sample_outcomes(x, y, CraftedDraws(draws, n), len(draws)) == expect
    with_mass = np.flatnonzero(dist.numerators[0].reshape(height, height).sum(axis=1))
    assert {o.s.as_unsigned() // height for o in expect if o.j == 1} == set(with_mass.tolist())


def reader_draws(row, j, root):
    """Draws into table row j - 1, given as its squares: at 0 and
    n**2 - 1, the first and last selector with mass, and at every
    cumulative block end of r = root selectors and one below it."""
    per_row = row.size**2
    ends = np.cumsum(row, dtype=np.int64)[root - 1::root]
    rems = {0, per_row - 1, *ends.tolist(), *(ends - 1).tolist()}
    return [(j - 1) * per_row + r for r in sorted(rems) if 0 <= r < per_row]


def searched(rows, r):
    """The cell (j - 1, s) of the full table whose squares are rows that
    draw r lands in, as OutcomeDistribution.sample's searchsorted finds it."""
    per_row = rows.shape[1] ** 2
    row = r // per_row
    return row, int(np.searchsorted(np.cumsum(rows[row], dtype=np.int64), r % per_row, side="right"))


@pytest.mark.parametrize("n", [4, 16, 64, 256, 1024, 4096])
def test_two_level_reader_equals_full_table(n):
    """protocol._outcomes against the full table's rows and searchsorted
    (side="right") at every allowed n, for t in {1, 3, log2 n} draws per
    pair of a stack.  Each pair's draws sit in three rows at the first and
    last selector and at every cumulative block end and one below it, with
    a few uniform ones.  The pair x = y = 0 holds each row's whole mass at
    s = 0, so every block after the first has mass 0 and every draw lands
    at s = 0.  ghr_is_valid on answers of the cells drawn agrees with the
    table's verdict (oracle.DeltaTable)."""
    root, m, per_row = math.isqrt(n), answer_length(n), n * n
    # one random pair at n = 4096, where a table holds 64 MiB of squares
    pairs = [relation.trial_pair(n, Rng(n), i)[:2] for i in range(1 if n == 4096 else 2)]
    tables, typical = [], []
    for x, y in pairs:
        table = delta_table(x, y)
        tables.append(table.squares)
        typical.append(table.aleph())
        del table
    pairs.append((BitString(0, n), BitString(0, n)))
    zero = np.zeros(n, dtype=np.int32)
    zero[0] = per_row
    tables.append(np.broadcast_to(zero, (n, n)))  # every shift's row of x = y = 0
    typical.append(True)  # its statistic is 0: no cell lies in the window
    px, py = relation._stacked_signs(*zip(*pairs))
    uniform = Rng(n + 1).generator.integers(0, n**3, size=5).tolist()
    pools = [[r for j in (1, n // 2 + 1, n) for r in reader_draws(rows[j - 1], j, root)] + uniform for rows in tables]
    cells = [[searched(rows, r) for r in pool] for rows, pool in zip(tables, pools)]
    assert {s for _, s in cells[-1]} == {0}
    for t in sorted({1, 3, m}):
        # each call draws t of every pair's pool, wrapping round the shorter pools
        for k in range(0, max(map(len, pools)), t):
            picks = [[(k + i) % len(pool) for i in range(t)] for pool in pools]
            draws = np.array([[pool[i] for i in pick] for pool, pick in zip(pools, picks)], dtype=np.int64)
            j, s, outside = protocol._outcomes(px, py, draws)
            assert np.array_equal(j, draws // per_row + 1)
            for p, pick in enumerate(picks):
                expect = [cells[p][i] for i in pick]
                assert s[p].tolist() == [b for _, b in expect]
                assert outside[p].tolist() == [bool(tables[p][a, b] > n) for a, b in expect]
    for p, (x, y) in enumerate(pairs):
        for k in range(0, 3 * m, m):
            answer = [cells[p][(k + i) % len(cells[p])] for i in range(m)]
            hits = sum(tables[p][a, b] > n for a, b in answer)
            valid = ghr_is_valid(x, y, [TransformIndex(a + 1, BitString(b, m)) for a, b in answer])
            assert valid == ((not typical[p]) or 2 * hits >= m)


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
    sizes, words = [], []
    real, real_words = protocol._draws, Rng.words32
    monkeypatch.setattr(protocol, "_draws", lambda rng, n, count: sizes.append(count) or real(rng, n, count))
    monkeypatch.setattr(Rng, "words32", lambda self, count: words.append(count) or real_words(self, count))
    assert estimate_success(16, 20, Rng(4), t=10**12) == estimate_success(16, 20, Rng(4))
    assert set(sizes) == {4}
    # the raw reads of each of the 40 trials: 2 words for its pair, then
    # one word per draw
    assert sorted(words) == [2] * 40 + [4] * 40
