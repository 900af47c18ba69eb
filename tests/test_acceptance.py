"""End-to-end acceptance checks.

Each test prints one `[ACCEPTANCE k] PASS/FAIL <summary>` line (pytest runs
with -s so the lines always show) and then asserts, so a red criterion is
both visible in the log and fails the suite.  Runtime budgets are asserted
alongside the mathematical condition where a criterion has one.
"""

import math
import time
from fractions import Fraction

import numpy as np

from ghrlab.bitkit import BitString, Rng, random_bitstring
from ghrlab.bounds import (
    chernoff_dominance_report,
    hoeffding_dominance_report,
    shift_xor_tail_check,
    window_lower_dominance_report,
)
from ghrlab.classical import (
    RectangleSpec,
    all_instances,
    estimate_baseline_success,
    reduction_xi,
    relative_weight,
)
from ghrlab.cli import main
from ghrlab.coupling import exact_coupled_distribution, verify_independence
from ghrlab.oracle import delta_table, outcome_distribution, phi_vector, u_vector
from ghrlab.protocol import estimate_success, exact_success_probability
from ghrlab.relation import (
    TransformIndex,
    answer_length,
    enumerate_pairs,
    estimate_aleph_probability,
    exact_aleph_probability,
)


def report(number, condition, summary):
    print(f"[ACCEPTANCE {number}] {'PASS' if condition else 'FAIL'} {summary}")
    assert condition, f"criterion {number}: {summary}"


def all_indices(n):
    logn = answer_length(n)
    for j in range(1, n + 1):
        for sv in range(n):
            yield TransformIndex(j, BitString(sv, logn))


def test_criterion_01_parseval_and_orthonormality():
    start = time.monotonic()
    ok = all(
        delta_table(x, y).parseval_sum() == 64 for x, y in enumerate_pairs(4)
    )
    rng = Rng(41)
    for n in (16, 64, 256):
        for _ in range(100):
            x = random_bitstring(n, rng)
            y = random_bitstring(n, rng)
            ok = ok and delta_table(x, y).parseval_sum() == n**3
    us = [np.asarray(u_vector(t, 4).amplitudes) for t in all_indices(4)]
    gram = np.array([[a @ b for b in us] for a in us])
    ok = ok and np.abs(gram - np.eye(16)).max() <= 1e-12
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    report(
        1,
        ok,
        "sum of squared deviations is n^3 (exhaustive n=4; 100 random pairs at "
        f"n=16,64,256) and the n=4 measurement family is orthonormal [{elapsed:.1f}s]",
    )


def test_criterion_02_closed_form_equals_state_vectors():
    worst = 0.0
    us = {t: np.asarray(u_vector(t, 4).amplitudes) for t in all_indices(4)}
    for x, y in enumerate_pairs(4):
        dist = outcome_distribution(x, y)
        joint = np.kron(
            np.asarray(phi_vector(x).amplitudes), np.asarray(phi_vector(y).amplitudes)
        )
        for t, u in us.items():
            ip = float(u @ joint)
            worst = max(worst, abs(ip * ip - dist.probability(t.j, t.s)))
    report(
        2,
        worst <= 1e-12,
        f"closed-form outcome law equals squared inner products at n=4 (worst {worst:.2e})",
    )


def test_criterion_03_protocol_success_levels():
    start = time.monotonic()
    exact4 = float(exact_success_probability(4))
    mc4 = estimate_success(4, 400, Rng(1))
    close = abs(exact4 - mc4.mean) <= 3 * mc4.stderr
    big = estimate_success(1024, 200, Rng(1))
    elapsed = time.monotonic() - start
    ok = close and big.mean >= 0.9 and elapsed < 300
    report(
        3,
        ok,
        f"n=4 exact success {exact4:.3f} vs MC {mc4.mean:.3f} within 3 stderr; "
        f"n=1024 success {big.mean:.3f} >= 0.9 over 200 trials [{elapsed:.1f}s]",
    )


def test_criterion_04_typicality_probability():
    exact4 = exact_aleph_probability(4)
    mid = estimate_aleph_probability(256, 200, Rng(1))
    big = estimate_aleph_probability(1024, 200, Rng(1))
    spread = 2 * math.sqrt(mid.stderr**2 + big.stderr**2)
    ok = (
        exact4 == Fraction(1, 2)
        and mid.mean >= 0.95
        and big.mean >= mid.mean - spread
    )
    report(
        4,
        ok,
        f"exact Pr[typical] at n=4 is 1/2; n=256 estimate {mid.mean:.3f} >= 0.95; "
        f"n=256 -> n=1024 nondecreasing within 2 stderr ({big.mean:.3f})",
    )


def test_criterion_05_coupling_independence():
    start = time.monotonic()
    worst = 0.0
    ok = True
    for n in (2, 4, 6, 8):
        for value in range(1 << n):
            rep = verify_independence(BitString(value, n), tol=1e-9)
            worst = max(worst, rep.max_tv)
            ok = ok and rep.passed
    hand = exact_coupled_distribution(BitString.from_text("10"))
    quarter = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    ok = ok and all(hand.row(k) == quarter for k in range(3))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    report(
        5,
        ok,
        "coupled weight is Binomial(n,1/2) for every selector at n=2,4,6,8 "
        f"(worst TV {worst:.1e}) and the n=2 hand table matches [{elapsed:.1f}s]",
    )


def test_criterion_06_reduction_distances():
    start = time.monotonic()
    rect = RectangleSpec.full(16)
    ok = True
    for inst in all_instances(1):
        tr = reduction_xi(inst, 6, 8, 16, rect, Rng(1))
        want = 8 if inst.intersection_size() == 0 else 6
        ok = ok and tr.encoded_distance() == want
    instances = list(all_instances(1))
    for seed in range(1000):
        inst = instances[seed % len(instances)]
        tr = reduction_xi(inst, 6, 8, 16, rect, Rng(seed))
        ok = ok and tr.masked_distance() == tr.encoded_distance()
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    report(
        6,
        ok,
        "encoding distance is 8 on disjoint and 6 on one-point-intersection pairs "
        f"(exhaustive l=1), preserved by permutation+mask over 1000 seeds [{elapsed:.1f}s]",
    )


def test_criterion_07_bound_dominance():
    start = time.monotonic()
    hoeff = hoeffding_dominance_report()
    cher = chernoff_dominance_report()
    window = window_lower_dominance_report()
    shift = shift_xor_tail_check(256, [16, 32, 48], 10000, Rng(5))
    elapsed = time.monotonic() - start
    ok = hoeff.passed and cher.passed and window.passed and shift.passed and elapsed < 300
    report(
        7,
        ok,
        "exact tails never exceed Hoeffding/relaxed-Chernoff on m=10..400 grids; "
        "window lower bound dominated on its grid; sampled shift-xor tails at "
        f"n=256, t=16/32/48 under 4exp(-t^2/2n)+3se [{elapsed:.1f}s]",
    )


def test_criterion_08_baseline_success():
    est = estimate_baseline_success(1024, 256, 500, Rng(1))
    report(
        8,
        est.mean >= 0.98,
        f"shared-randomness baseline at n=1024, t=256 succeeds {est.mean:.3f} >= 0.98",
    )


def test_criterion_09_rectangle_spectrum():
    full = RectangleSpec.full(4)
    parity = RectangleSpec.parity_even(4)
    ok = all(relative_weight(full, {k}) == 1 for k in range(5))
    ok = ok and all(relative_weight(parity, {k}) == 0 for k in (1, 3))
    ok = ok and relative_weight(parity, {1, 2}) == Fraction(6, 5)
    report(
        9,
        ok,
        "full cube has unit relative weights; parity rectangle kills odd distances "
        "and gives exactly 6/5 on {1,2}",
    )


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    configs = [
        ["aleph-estimate", "--n", "16", "--trials", "40", "--seed", "6"],
        ["protocol-success", "--n", "16", "--trials", "30", "--seed", "7"],
        ["coupling-verify", "--n", "4"],
        ["rect-spectrum", "--rect", "parity_even", "--n", "4"],
    ]
    ok = True
    for idx, argv in enumerate(configs):
        outputs = []
        for run, threads in enumerate(("1", "4", "1")):
            monkeypatch.setenv("GHRLAB_THREADS", threads)
            path = tmp_path / f"c{idx}_{run}.csv"
            code = main(argv + ["--out", str(path)])
            ok = ok and code == 0
            outputs.append(path.read_bytes())
        ok = ok and outputs[0] == outputs[1] == outputs[2]
    report(
        10,
        ok,
        "CLI reruns are byte-identical for fixed configs, including across "
        "GHRLAB_THREADS=1 and 4",
    )
