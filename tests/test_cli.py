"""CLI plumbing: determinism, CSV shape, exit codes."""

import argparse
import contextlib
import functools
import hashlib
import io
import math
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import ghrlab.bounds as bounds
import ghrlab.classical as classical
import ghrlab.cli as cli
import ghrlab.coupling as coupling
import ghrlab.oracle as oracle
import ghrlab.relation as relation
from ghrlab.bitkit import RNG_ALGORITHM, BitString
from ghrlab.cli import build_parser, main


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


@pytest.fixture
def handlers():
    """Stand-in subcommand handlers: each refuses to start, until a test sets
    its own with handlers(subcommand, fn).  The cached parser holds the
    handlers, so build_parser's cache is cleared on entry, after each set and
    on exit, and no stand-in outlives the test."""
    names = [name for name in vars(cli) if name.startswith("_cmd_")]

    def refuse(args):
        raise AssertionError(f"{args.subcommand} started")

    build_parser.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            for name in names:
                mp.setattr(cli, name, refuse)

            def set_handler(subcommand, fn):
                mp.setattr(cli, "_cmd_" + subcommand.replace("-", "_"), fn)
                build_parser.cache_clear()

            yield set_handler
    finally:
        build_parser.cache_clear()


def test_csv_shape_and_metadata(tmp_path):
    code, data = run_to_file(
        tmp_path, "a.csv", ["aleph-estimate", "--n", "16", "--trials", "20", "--seed", "3"]
    )
    assert code == 0
    text = data.decode("utf-8")
    lines = text.strip().split("\n")
    meta = [l for l in lines if l.startswith("# ")]
    assert "# subcommand=aleph-estimate" in meta
    assert "# seed=3" in meta
    assert "# rng=philox4x64-10" in meta
    header_index = len(meta)
    assert lines[header_index] == "n,trials,seed,estimate,stderr"
    assert len(lines) == header_index + 2  # one data row


def test_rerun_is_byte_identical(tmp_path):
    argv = ["protocol-success", "--n", "16", "--trials", "25", "--seed", "9"]
    _, first = run_to_file(tmp_path, "one.csv", argv)
    _, second = run_to_file(tmp_path, "two.csv", argv)
    assert first == second


def test_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    argv = ["aleph-estimate", "--n", "16", "--trials", "30", "--seed", "2"]
    monkeypatch.setenv("GHRLAB_THREADS", "1")
    _, one = run_to_file(tmp_path, "t1.csv", argv)
    monkeypatch.setenv("GHRLAB_THREADS", "4")
    _, four = run_to_file(tmp_path, "t4.csv", argv)
    assert one == four


def test_stdout_matches_file(tmp_path, capsys):
    argv = ["rect-spectrum", "--rect", "parity_even", "--n", "4"]
    assert main(argv) == 0
    streamed = capsys.readouterr().out
    _, filed = run_to_file(tmp_path, "spectrum.csv", argv)
    assert streamed.encode("utf-8") == filed


def test_rect_spectrum_values(capsys):
    assert main(["rect-spectrum", "--rect", "parity_even", "--n", "4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    rows = dict(l.split(",") for l in lines if not l.startswith("#") and "," in l)
    assert rows["1"] == "0"
    assert rows["1+2"] == "1.2"


def test_protocol_failure_exact_exhaustive(capsys):
    assert main(["protocol-failure-exact", "--n", "4", "--exhaustive"]) == 0
    lines = [
        l
        for l in capsys.readouterr().out.strip().split("\n")
        if not l.startswith("#")
    ]
    assert lines[0] == "x,y,aleph,failure"
    assert len(lines) == 1 + 256
    assert all(l.split(",")[3] == "0" for l in lines[1:])


def test_protocol_failure_exact_streams_one_statistic_per_pair(monkeypatch, capsys):
    built, streamed = [], []
    real_table, real_sums = oracle.delta_table, relation._window_sums
    monkeypatch.setattr(oracle, "delta_table", lambda x, y: built.append(1) or real_table(x, y))
    monkeypatch.setattr(relation, "_window_sums", lambda px, w: streamed.append(len(px)) or real_sums(px, w))
    assert main(["protocol-failure-exact", "--n", "64", "--trials", "20"]) == 0
    capsys.readouterr()
    # the 20 pairs' statistics come from one stack, streamed once
    assert streamed == [20]
    assert not built


def test_aleph_estimate_transforms_at_n256(relation_transforms, capsys):
    """Two stacks of 16 pairs, each stopped after 13 blocks of 16 shifts per
    pair: 26 transforms of 256 columns, where one pair per stream in blocks
    of 128 shifts took 64 transforms and 8,192 columns."""
    calls, columns = [], []
    relation_transforms(lambda product, run: calls.append(1) or columns.append(product.shape[1]) or run())
    assert main(["aleph-estimate", "--n", "256", "--trials", "32", "--seed", "0"]) == 0
    capsys.readouterr()
    assert (len(calls), sum(columns)) == (26, 6656)


def test_coupling_verify_all_pass(capsys):
    assert main(["coupling-verify", "--n", "4"]) == 0
    lines = [
        l
        for l in capsys.readouterr().out.strip().split("\n")
        if not l.startswith("#")
    ]
    assert len(lines) == 1 + 16
    assert all(l.endswith(",1") for l in lines[1:])


def test_coupling_verify_runs_one_dp_per_weight_class(capsys):
    coupling._class_rows.cache_clear()
    coupling._class_distances.cache_clear()
    assert main(["coupling-verify", "--n", "6"]) == 0
    capsys.readouterr()
    # 64 selectors, 7 weight classes: each class's rows are built once, by
    # a backward pass or by reversing its complement's rows
    assert coupling._class_rows.cache_info().misses == 7
    assert coupling._class_distances.cache_info().misses == 7


def per_selector_coupling_verify(n, tol):
    """coupling-verify's rows and failure as one verify_independence per
    selector gives them: the oracle for the one call per weight class."""
    rows, failure = [], None
    for value in range(1 << n):
        report = coupling.verify_independence(BitString(value, n), tol=tol)
        rows.append((str(report.s), float(report.max_tv), report.passed))
        if failure is None and not report.passed:
            failure = (
                f"coupling check failed at s={report.s}, k={report.worst_k}: "
                f"max_tv {cli._fmt(report.max_tv)} > tol {cli._fmt(tol)}"
            )
    return rows, ("s", "max_tv", "pass"), failure


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_coupling_verify_decides_once_per_weight_class(n, broken_dp, monkeypatch):
    calls = []
    real = cli.verify_independence
    monkeypatch.setattr(cli, "verify_independence", lambda s, tol: calls.append(s.weight()) or real(s, tol=tol))
    for tol in (1e-9, 0.25):
        args = argparse.Namespace(n=n, tol=tol)
        assert cli._cmd_coupling_verify(args) == per_selector_coupling_verify(n, tol)
        with broken_dp():  # the failing classes and the first selector that names one
            expect = per_selector_coupling_verify(n, tol)
            assert cli._cmd_coupling_verify(args) == expect
        assert calls == 2 * list(range(n + 1))
        calls.clear()
    assert expect[2] is not None or n == 2


def test_coupling_failure_names_selector_and_k(broken_dp, capsys):
    with broken_dp():
        assert main(["coupling-verify", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("# subcommand=coupling-verify")  # the CSV is still written
    first = next(l for l in captured.out.splitlines()[4:] if l.endswith(",0"))
    assert first.startswith("0001,")
    assert captured.err == "error: coupling check failed at s=0001, k=2: max_tv 0.333333333333 > tol 1e-09\n"


def test_coupling_row_that_is_no_distribution_exits_one(coupling_patched, capsys):
    with coupling_patched("_stage_one_flip_probability", lambda m, k, a_bit: Fraction(3, 2)):
        assert main(["coupling-verify", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any row is written
    assert captured.err == "error: invariant failed: coupling row n=4, weight=4, k=0 is not a distribution\n"


def test_bounds_failure_names_grid_and_point(monkeypatch, capsys):
    broken = lambda: bounds.window_lower_dominance_report(c_term=-5.0)
    monkeypatch.setattr(cli, "window_lower_dominance_report", broken)
    assert main(["bounds-validate"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].startswith("window_lower,226,")
    assert captured.err.startswith("error: window_lower check failed at m=50: observed ")


def test_rect_spectrum_computes_one_spectrum(monkeypatch, capsys):
    calls = []
    real = classical.distance_counts
    monkeypatch.setattr(classical, "distance_counts", lambda rect: calls.append(1) or real(rect))
    assert main(["rect-spectrum", "--rect", "parity_even", "--n", "12"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3 + 1 + 25
    assert len(calls) == 1


def test_reduction_demo_dichotomy(capsys):
    assert main(
        ["reduction-demo", "--c1", "6", "--c2", "8", "--n", "16", "--trials", "2"]
    ) == 0
    lines = [
        l
        for l in capsys.readouterr().out.strip().split("\n")
        if not l.startswith("#")
    ]
    assert lines[0] == "trial,x_set,y_set,intersection,d3,d5,accepted"
    assert len(lines) == 1 + 2 * 9
    for row in lines[1:]:
        _, _, _, q, d3, d5, _ = row.split(",")
        assert d3 == d5
        assert int(d3) == 8 - 2 * int(q)


def test_bounds_validate_grids_only(capsys):
    assert main(["bounds-validate"]) == 0
    lines = [
        l
        for l in capsys.readouterr().out.strip().split("\n")
        if not l.startswith("#")
    ]
    suites = {l.split(",")[0] for l in lines[1:]}
    assert suites == {"hoeffding", "chernoff", "window_lower"}
    assert all(l.endswith(",1") for l in lines[1:])


def test_baseline_subcommand(capsys):
    assert main(
        ["baseline-tghr", "--n", "64", "--t", "8", "--trials", "20", "--seed", "1"]
    ) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-2] == "n,t,trials,seed,estimate,stderr"


def test_usage_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["aleph-estimate", "--n", "16"]) == 2  # missing --trials
    assert main(["aleph-estimate", "--n", "5", "--trials", "10"]) == 2  # bad size
    assert main(["rect-spectrum", "--rect", "odd_ball", "--n", "4"]) == 2
    assert main(["coupling-verify", "--n", "3"]) == 2
    capsys.readouterr()
    assert build_parser() is build_parser()  # built once, reused by every main()


@pytest.mark.parametrize(
    "argv",
    [
        ["aleph-estimate", "--n", "16", "--trials", "3"],
        ["protocol-success", "--n", "16", "--trials", "3"],
        ["protocol-failure-exact", "--n", "16", "--trials", "3"],
        ["baseline-tghr", "--n", "16", "--t", "2", "--trials", "3"],
        ["bounds-validate", "--n", "16", "--trials", "3"],
        ["reduction-demo", "--c1", "6", "--c2", "8", "--n", "16"],
    ],
)
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_exits_two(capsys, argv, seed):
    """The --seed guard refuses the seed at parse time, so 2**64 never replays seed 0."""
    assert main(argv + ["--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(f"usage: ghrlab {argv[0]} ")
    assert err.endswith(f"error: argument --seed: seed must be a 64-bit unsigned integer, got {seed}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["aleph-estimate", "--n", "16", "--trials", "0"],
        ["protocol-success", "--n", "16", "--trials", "-2"],
        ["protocol-success", "--n", "16", "--trials", "4", "--t", "0"],
        ["protocol-failure-exact", "--n", "16", "--trials", "0"],
        ["baseline-tghr", "--n", "64", "--t", "8", "--trials", "0"],
        ["baseline-tghr", "--n", "64", "--t", "0", "--trials", "5"],
        ["baseline-tghr", "--t", "2", "--trials", "3", "--n", "0"],
        ["bounds-validate", "--trials", "-3"],
        ["reduction-demo", "--c1", "6", "--c2", "8", "--n", "16", "--trials", "-1"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_nonpositive_counts_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err and "must be >= " in err  # argparse's own message


def test_bounds_validate_trials_below_n8_is_usage_error(capsys):
    # every t in (n/16, n/8, 3n/16) rounds to 0 at n = 4, leaving nothing to sample
    assert main(["bounds-validate", "--n", "4", "--trials", "5"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith("usage: ghrlab bounds-validate ")
    assert err.endswith("error: argument --n/--trials: no t values to check at n=4\n")


def test_negative_or_nan_tolerance_is_usage_error(capsys):
    for tol in ("-1", "nan", "inf"):
        assert main(["coupling-verify", "--n", "4", "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("usage: ghrlab coupling-verify ")
        assert err.endswith(f"error: argument --tol: tol must be a finite nonnegative number, got {float(tol)}\n")


def test_oversized_n_is_usage_error(capsys):
    for sub in ("aleph-estimate", "protocol-success", "protocol-failure-exact"):
        assert main([sub, "--n", "16384", "--trials", "1"]) == 2
        assert "size cap 4096" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["aleph-estimate", "--n", "8", "--trials", "1"], "power of 4"),
        (["aleph-estimate", "--n", "0", "--trials", "1"], "power of 4"),
        (["aleph-estimate", "--n", "-16", "--trials", "1"], "power of 4"),
        (["protocol-success", "--n", "2", "--trials", "1"], "power of 4"),
        (["protocol-success", "--n", str(4**7), "--trials", "1"], "size cap 4096"),
        (["protocol-failure-exact", "--n", str(4**40)], "size cap 4096"),
        (["coupling-verify", "--n", "3"], "even in [2, 16]"),
        (["coupling-verify", "--n", "0"], "even in [2, 16]"),
        (["coupling-verify", "--n", "18"], "even in [2, 16]"),
        (["rect-spectrum", "--rect", "full", "--n", "0"], "1 <= n <= 20"),
        (["rect-spectrum", "--rect", "full", "--n", "21"], "1 <= n <= 20"),
        (["rect-spectrum", "--rect", "full", "--n", str(10**9)], "1 <= n <= 20"),
        (["bounds-validate", "--n", "-5"], "2 <= n <= 4096"),
        (["bounds-validate", "--n", "1"], "2 <= n <= 4096"),
        (["bounds-validate", "--n", "4097", "--trials", "1"], "2 <= n <= 4096"),
        (["bounds-validate", "--n", str(10**9)], "2 <= n <= 4096"),
        (["reduction-demo", "--c1", "6", "--c2", "8", "--n", "0"], "1 <= n <= 65536"),
        (["reduction-demo", "--c1", "6", "--c2", "8", "--n", "65537"], "1 <= n <= 65536"),
        (["reduction-demo", "--c1", "6", "--c2", "8", "--n", str(10**8)], "1 <= n <= 65536"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_size_guards_refuse_n_at_parse_time(argv, message, handlers, capsys):
    # no subcommand may start
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: argument --n: " in err and message in err


@pytest.mark.parametrize(
    "c1, c2, n, message",
    [
        (8, 6, 16, "argument --c1/--c2: need 0 < c1 < c2, got (8, 6)"),
        (6, 9, 100, "argument --c1/--c2: c2 - c1 must be even, got 3"),
        (4, 8, 100, "argument --c1/--c2: need 3*c2 <= 4*c1, got (4, 8)"),
        (6, 8, 10, "argument --n: n=10 too small for (c1, c2)=(6, 8): pads (1, -1)"),
    ],
)
def test_reduction_flags_refused_at_parse_time(c1, c2, n, message, handlers, capsys):
    # no subcommand may start
    assert main(["reduction-demo", "--c1", str(c1), "--c2", str(c2), "--n", str(n)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n")
    # the same usage line as the command's other parse-time refusals
    assert main(["reduction-demo", "--c1", str(c1), "--c2", str(c2), "--n", "0"]) == 2
    usage = capsys.readouterr().err.splitlines()[0]
    assert usage.startswith("usage: ghrlab reduction-demo ")
    assert err.splitlines()[0] == usage


@pytest.mark.parametrize("n, t, m", [(16, 5, 4), (4, 3, 2), (1024, 10**12, 10)])
def test_protocol_t_refused_at_parse_time(n, t, m, handlers, capsys):
    # no subcommand may start
    assert main(["protocol-success", "--n", str(n), "--trials", "1", "--t", str(t)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith("usage: ghrlab protocol-success ")
    assert err.endswith(f"error: argument --t: t must be in [1, log2 n = {m}] for n={n}, got {t}\n")


def test_protocol_t_accepts_log2_n(handlers, capsys):
    ran = []
    handler = lambda args: ran.append(args.t) or ([], ("n",), None)  # noqa: E731
    handlers("protocol-success", handler)
    for t in ("1", "4"):
        assert main(["protocol-success", "--n", "16", "--trials", "1", "--t", t]) == 0
    assert main(["protocol-success", "--n", "16", "--trials", "1"]) == 0
    assert ran == [1, 4, None]
    assert capsys.readouterr().out.count("\nn\n") == 3


def test_reduction_flags_accept_the_least_n_that_fits(handlers, capsys):
    ran = []
    handlers("reduction-demo", lambda args: ran.append(args.n) or ([], ("trial",), None))
    assert main(["reduction-demo", "--c1", "6", "--c2", "8", "--n", "11"]) == 0
    assert ran == [11]
    assert capsys.readouterr().out.endswith("\ntrial\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["baseline-tghr", "--n", "1024", "--t", "131073", "--trials", "1"],
            "argument --n/--t: t * ceil(n/8) = 16777344 shared sample bytes exceeds the cap 2**24",
        ),
        (
            ["bounds-validate", "--n", "1024", "--trials", "65537"],
            "argument --trials: trials * n = 67109888 sampled bits per shift exceeds the cap 2**26",
        ),
        (["rect-spectrum", "--n", "4", "--rect", "bogus"], "argument --n/--rect: unknown rectangle family: 'bogus'"),
        (
            ["reduction-demo", "--c1", "6", "--c2", "8", "--n", "16", "--rect", "prefix_zeros(99)"],
            "argument --n/--rect: prefix length 99 outside [0, 16]",
        ),
        (
            ["protocol-failure-exact", "--n", "16", "--exhaustive"],
            "argument --n/--exhaustive: exhaustive enumeration infeasible for n=16",
        ),
    ],
    ids=["baseline-tghr", "bounds-validate", "rect-spectrum --rect", "reduction-demo --rect",
         "protocol-failure-exact --exhaustive"],
)
def test_sample_caps_refused_at_parse_time(argv, message, handlers, capsys):
    # no subcommand may start
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(f"usage: ghrlab {argv[0]} ")
    assert f"error: {message}" in err


def test_sample_caps_accept_their_edges(handlers, capsys):
    # parsed and checked only: each edge run would take about 200 MiB
    ran = []
    for sub in ("baseline-tghr", "bounds-validate"):
        handlers(sub, lambda args: ran.append(args.subcommand) or ([], ("n",), None))
    for argv in (
        ["baseline-tghr", "--n", "1024", "--t", "131072", "--trials", "1"],
        ["bounds-validate", "--n", "1024", "--trials", "65536"],
        ["baseline-tghr", "--n", "1024", "--t", "256", "--trials", "500"],  # README's
        ["bounds-validate", "--n", "256", "--trials", "10000"],  # README's
    ):
        assert main(argv) == 0
    assert ran == ["baseline-tghr", "bounds-validate"] * 2
    capsys.readouterr()


def test_seed_tol_and_shift_t_guards_accept_their_edges(handlers, capsys):
    # parsed and checked only, with stand-in handlers
    ran = []
    for sub in ("aleph-estimate", "coupling-verify", "bounds-validate"):
        handlers(sub, lambda args: ran.append(args.subcommand) or ([], ("n",), None))
    for argv in (
        ["aleph-estimate", "--n", "16", "--trials", "1", "--seed", str(2**64 - 1)],
        ["coupling-verify", "--n", "4", "--tol", "0"],
        ["bounds-validate", "--n", "6", "--trials", "5"],  # 3n/16 rounds down to 1
        ["bounds-validate", "--n", "4"],  # nothing sampled, so no t is needed
    ):
        assert main(argv) == 0
    assert ran == ["aleph-estimate", "coupling-verify", "bounds-validate", "bounds-validate"]
    assert main(["bounds-validate", "--n", "5", "--trials", "5"]) == 2
    assert capsys.readouterr().err.endswith("error: argument --n/--trials: no t values to check at n=5\n")
    assert [cli._shift_t_values(n) for n in (6, 16, 256)] == [[1], [1, 2, 3], [16, 32, 48]]


@pytest.mark.parametrize("sub", ["aleph-estimate", "coupling-verify", "rect-spectrum"])
def test_non_integer_n_gets_argparse_message(sub, capsys):
    assert main([sub, "--n", "4.0"]) == 2
    assert "error: argument --n: invalid int value: '4.0'" in capsys.readouterr().err


def test_size_guards_accept_their_largest_n(handlers, capsys):
    # parsed and checked only: the coupling sweep at n = 16 takes seconds
    ran = []
    for sub in ("aleph-estimate", "protocol-failure-exact", "coupling-verify",
                "rect-spectrum", "bounds-validate", "reduction-demo"):
        handlers(sub, lambda args: ran.append(args.n) or ([], ("n",), None))
    run = lambda argv: main(argv) == 0 and ran.pop()  # noqa: E731
    assert run(["aleph-estimate", "--n", "4096", "--trials", "1"]) == 4096
    assert run(["protocol-failure-exact", "--n", "4"]) == 4
    assert run(["protocol-failure-exact", "--n", "4", "--exhaustive"]) == 4
    assert run(["coupling-verify", "--n", "16"]) == 16
    assert run(["coupling-verify", "--n", "2"]) == 2
    assert run(["rect-spectrum", "--rect", "full", "--n", "20"]) == 20
    assert run(["rect-spectrum", "--rect", "full", "--n", "1"]) == 1
    assert run(["rect-spectrum", "--rect", "prefix_zeros(20)", "--n", "20"]) == 20
    assert run(["bounds-validate", "--n", "4096"]) == 4096
    assert run(["bounds-validate", "--n", "2"]) == 2
    assert run(["reduction-demo", "--c1", "6", "--c2", "8", "--n", "65536"]) == 65536
    assert run(["reduction-demo", "--c1", "6", "--c2", "8", "--n", "16", "--rect", "prefix_zeros(16)"]) == 16
    capsys.readouterr()


def test_runtime_invariant_failure_exits_one(relation_transforms, capsys):
    relation_transforms(lambda product, run: run() + 1)
    assert main(["protocol-success", "--n", "16", "--trials", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: invariant failed: row j=")
    # the outcome reader's second level, the transform of the drawn blocks
    runs = []
    relation_transforms(lambda product, run: run() + 2 * (runs.append(1) or len(runs) == 2))
    assert main(["protocol-success", "--n", "16", "--trials", "2"]) == 1
    assert re.match(r"error: invariant failed: row j=\d+ of pair \d in its stack: block \d ", capsys.readouterr().err)


def test_io_failure_exits_one(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(
        ["aleph-estimate", "--n", "16", "--trials", "5", "--out", str(missing_dir)]
    )
    assert code == 1
    capsys.readouterr()


def test_console_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ghrlab.cli", "coupling-verify", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# subcommand=coupling-verify")


# SHA-256 of each run's CSV, recorded before the replay header was derived
# from the parsed arguments; a change here changes the bytes every seeded run
# replays.
GOLDEN = {
    "aleph-estimate --n 16 --trials 20 --seed 3":
        "b29eae11dff29ec4909eb27fb5d903d5e358efbc18b5d68466b0648fa0f3f46c",
    # several chunks of stacked pairs, about half of them typical
    "aleph-estimate --n 16 --trials 300 --seed 9":
        "27b753660b97244911266ebd167cb6b3215b0a2832bd74843c813aab37724f76",
    # a short last chunk
    "aleph-estimate --n 256 --trials 37 --seed 0":
        "ac3219fbff6fc3d65a6ff238fa42af3573e2fd79190f3bb74a64199870fc90a1",
    "protocol-failure-exact --n 64 --trials 20 --seed 0":
        "9964ee19409f2b0651b77ddc8299695fb88da0b7b59177fa3bc95d5200ce3a7f",
    "protocol-success --n 64 --trials 10 --seed 1":
        "ff0bccfa971a7993ecbfe16522d33f3c28c23485077755634ccb8e38839a41fb",
    "protocol-success --n 64 --trials 10 --seed 1 --t 3":
        "d9688d01b1d479ecaadb08ce58fc7206bf0e82547009d0a502a0915d62d506e4",
    # the smallest block split of the outcome reader: sqrt(n) = 2
    "protocol-success --n 4 --trials 40 --seed 5":
        "9182a574ad0e64083004083eb1e161a2d05ce0871f94e1ab6e96809391734c1a",
    # 4 draws among 16 rows per trial: about a third of the trials draw
    # some row twice
    "protocol-success --n 16 --trials 300 --seed 11":
        "250868aadfda5a598b25a1f140dbbce9261981f84540d1b032dd5386ab8f2fe1",
    # estimate 0.925: some trials reach the typicality fallback
    "protocol-success --n 256 --trials 40 --seed 6 --t 1":
        "b00d0819550604c190c27f8276c64b643adb493952b33576363a1da80a161c78",
    # estimate 0.9667: the typicality fallback at n = 1024
    "protocol-success --n 1024 --trials 30 --seed 1":
        "0c6136ad84067fa36b0c865a34e3320892d0149a9e2c5c6cb1f62aeb25889513",
    # 64-bit outcome draws, blocks of sqrt(n) = 64 selectors
    "protocol-success --n 4096 --trials 6 --seed 8":
        "2ef8aacb345df8f57d46f8dc6af6765c0726332abf2a4b197647bbc24bcc3024",
    "protocol-failure-exact --n 16 --trials 5 --seed 2":
        "a975390c6428cd04a8a9d1f1ec8e29c0d3f7a528ef6c34fc3db85c0f371c498e",
    # the whole statistic at n = 4096, whose int8 first round sums 2**6 signs
    "protocol-failure-exact --n 4096 --trials 2 --seed 4":
        "d98ba2ed85b49349100bc452e0e362bb2f7f1d7dbed5e68137ce7bd78d4f1c5e",
    "protocol-failure-exact --n 4 --exhaustive":
        "19bc09d2e86375b259093c7a912290f917f073807cbae259f84b029dac328563",
    "baseline-tghr --n 64 --t 8 --trials 20 --seed 1":
        "5da3343baea14bff7f2ff9bc33b6841c53c1f6c5d3df1c6cda496657f55d8471",
    # recorded while every trial still read all t samples and took the argmin
    "baseline-tghr --n 1024 --t 256 --trials 50 --seed 0":
        "32681246425550b8e4b4fcf69d0bd1de9751bdc4b182111a009302fa0afbc5b7",
    # estimate 0.825: a failing trial's last chunk holds the 6 samples left
    "baseline-tghr --n 4096 --t 70 --trials 40 --seed 3":
        "c13ec694bf0a7146c6bae9725d0212e0b9fac7bc2901329adb4f226c5c06d1ff",
    # estimate 0.8667, one uint32 word per row
    "baseline-tghr --n 15 --t 100 --trials 60 --seed 4":
        "661682fbe56f1e50406dc47a3f0610503a3192ad45e467775f21388339afa300",
    # estimate 0: no sample passes below n = 4, so every trial reads all t
    "baseline-tghr --n 3 --t 5 --trials 4 --seed 0":
        "16486031715cd5520f15eea494415c11af9ed2ece280f910098205fd5c8d7903",
    "coupling-verify --n 4 --tol 0.001":
        "5b55a885014c16f745d93c80318b2226b8bef4aacc5dedd1e9fac19412b9e3a6",
    # perfbench's verifier-round op, recorded while the CLI still verified
    # every one of the 64 selectors on its own
    "coupling-verify --n 6":
        "ede0314569af52fa426a560929b3b1cc3286bf0830c4b7c36ac1bb803f74a475",
    "bounds-validate":
        "e2394922845d0584da489e9cff0c1df056cb4abfdaf6bda2632fc95a5ac4ceb2",
    # perfbench's verifier-round op; the default n, so the bytes above
    "bounds-validate --n 256":
        "e2394922845d0584da489e9cff0c1df056cb4abfdaf6bda2632fc95a5ac4ceb2",
    "bounds-validate --n 16 --trials 20 --seed 4":
        "60f29ede8eeff46d186baf80c7945350eed43ccdbc5c008bb40f3be8a981e030",
    "reduction-demo --c1 6 --c2 8 --n 16 --rect parity_even --trials 2 --seed 5":
        "d2574508b65f15ed35bd994e98caf500ce27bd026f76b0c2364c0264800c2d2a",
    "rect-spectrum --rect prefix_zeros(1) --n 4":
        "225d7f32bee441163df70183ed5a0ccdaeed0e224d4da1ee12bba3b02b498512",
}


def run_stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


@functools.cache
def csv_bytes(command: str) -> bytes:
    """Stdout of one run, shared by the golden and the replay test."""
    return run_stdout(command.split())


def subparsers():
    action = next(a for a in build_parser()._actions if a.dest == "subcommand")
    return action.choices


def argv_from_header(data: bytes) -> list[str]:
    """The argv that a CSV's own `# key=value` lines describe."""
    lines = [l[2:] for l in data.decode("utf-8").splitlines() if l.startswith("# ")]
    (first, sub), *config = (l.split("=", 1) for l in lines)
    assert first == "subcommand"
    flags = {a.dest: a for a in subparsers()[sub]._actions}
    argv = [sub]
    for key, value in config:
        if key == "rng":
            assert value == RNG_ALGORITHM
        elif flags[key].nargs == 0:  # a switch: present iff the header says 1
            argv += [f"--{key}"] if value == "1" else []
        else:
            argv += [f"--{key}", value]
    return argv


def refuse_table(x, y):
    raise AssertionError("a CLI run built a full delta table")


def refuse_point(*args):
    raise AssertionError("a CLI run built a BoundPoint")


@pytest.mark.parametrize("command", GOLDEN)
def test_csv_bytes_match_golden(command, monkeypatch):
    assert hashlib.sha256(csv_bytes(command)).hexdigest() == GOLDEN[command]
    # the same bytes again with delta_table refused wherever it is imported:
    # every verdict comes from the streamed statistic or single rows; and
    # with BoundPoint refused: bounds-validate reads the reports' columns
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ghrlab" and "delta_table" in vars(module):
            monkeypatch.setattr(module, "delta_table", refuse_table)
    monkeypatch.setattr(bounds, "BoundPoint", refuse_point)
    assert hashlib.sha256(run_stdout(command.split())).hexdigest() == GOLDEN[command]


def default_columns():
    """The columns of the three default dominance reports, which the grid
    memos could change: the labels come from the grid alone."""
    reports = (
        bounds.hoeffding_dominance_report(),
        bounds.chernoff_dominance_report(),
        bounds.window_lower_dominance_report(),
    )
    return [(r.description, r.bound_value.tolist(), r.observed.tolist(), r.satisfied.tolist()) for r in reports]


@pytest.mark.parametrize(
    "fill",
    [
        lambda: None,
        lambda: bounds.window_lower_dominance_report(),
        # a grid over other m, kept at another divisor, partly overlapping
        lambda: bounds.hoeffding_dominance_report(range(300, 700, 3), t_max_divisor=1),
        # memo entries for the default m at another divisor
        lambda: (
            bounds.hoeffding_dominance_report(range(10, 401), t_max_divisor=5),
            bounds.chernoff_dominance_report(range(10, 401), t_max_divisor=5),
        ),
        # the memos filled to maxsize with other grids, which the default
        # grids evict
        lambda: [
            (bounds.chernoff_dominance_report(range(10, 20 + j)), bounds.window_lower_dominance_report((50 + 2 * j,)))
            for j in range(bounds._GRIDS_KEPT)
        ],
    ],
    ids=["cold", "window-first", "other-m", "kept-other-divisor", "kept-cap-reached"],
)
def test_bound_reports_ignore_what_the_row_caches_hold(fill, clear_bound_grids):
    expect = default_columns()
    golden = GOLDEN["bounds-validate --n 256"]
    checks = (
        lambda: default_columns() == expect,
        lambda: hashlib.sha256(run_stdout(["bounds-validate", "--n", "256"])).hexdigest() == golden,
    )
    for check in checks:
        clear_bound_grids()
        fill()
        assert check()


def test_second_bounds_validate_converts_no_row(monkeypatch, clear_bound_grids):
    # cold, each grid converts, in one call, the counts that it reads and
    # keeps: the tail grid, which both tail reports read, k = m//2 - m//4
    # ... m//2 - 1 of rows 10..400, and the window grid k = lo - 1 ... hi of
    # its even rows 50..500; then the window candidates' hits are
    # converted.  Warm, only those hits are
    converted, candidates = [], []
    dyadic, pick = bounds._dyadic_floats, bounds._window_candidates
    monkeypatch.setattr(bounds, "_dyadic_floats", lambda counts, e: converted.append(len(counts)) or dyadic(counts, e))
    monkeypatch.setattr(bounds, "_window_candidates", lambda *a: candidates.append(len(pick(*a)[0])) or pick(*a))

    def window_width(m):  # lo - 1 ... hi, with lo >= 1 for every m >= 50
        return min(math.floor(m / 2 + math.sqrt(m)), m) - math.ceil(m / 2 - math.sqrt(m)) + 2

    argv = ["bounds-validate", "--n", "256"]
    run_stdout(argv)
    tails = sum(m // 4 for m in range(10, 401))
    rows = [tails, sum(map(window_width, range(50, 501, 2)))]
    assert converted == rows + candidates and rows == [19892, 7484] and candidates == [452]
    converted.clear()
    assert hashlib.sha256(run_stdout(argv)).hexdigest() == GOLDEN["bounds-validate --n 256"]
    assert converted == candidates[1:] == [452]
    # the memo entries hold no count beyond those: one per tail point and
    # hi - lo + 2 per window row
    counts = bounds._tail_grid(tuple(range(10, 401)), 4)[2]
    windows = bounds._window_columns(tuple(range(50, 501, 2)))[-1]
    assert len(counts) == tails and list(map(len, windows)) == list(map(window_width, range(50, 501, 2)))


def test_second_bounds_validate_evaluates_no_exp(monkeypatch, clear_bound_grids):
    # cold, math.exp runs over the tail grid's Hoeffding column and
    # Chernoff's four (exp_lo, exp_hi and the ratio form's two factors),
    # each of the default grid's 19,892 points.  Warm, the memo serves both
    # reports, and every verdict is made again: one sign column per bound
    # column, then the window's 452 candidates.
    exps, signs = [], []
    exp, excess_signs = bounds._exp, bounds._excess_signs
    monkeypatch.setattr(bounds, "_exp", lambda x: exps.append(x.size) or exp(x))
    monkeypatch.setattr(bounds, "_excess_signs", lambda *a: signs.append(len(a[2])) or excess_signs(*a))

    argv = ["bounds-validate", "--n", "256"]
    golden = GOLDEN["bounds-validate --n 256"]
    verdicts = [19892] * 4 + [452]
    assert hashlib.sha256(run_stdout(argv)).hexdigest() == golden
    assert exps == [19892] * 5 and signs == verdicts
    exps.clear()
    signs.clear()
    assert hashlib.sha256(run_stdout(argv)).hexdigest() == golden
    assert exps == [] and signs == verdicts
    # the grid's m values are read as ints, so each form reaches the memo
    # entry of the CLI's grid, the one entry both reports read
    kept = bounds._tail_grid.cache_info()
    hoeffding = bounds.hoeffding_dominance_report().bound_value
    for m_values in (range(10, 401), list(range(10, 401)), np.arange(10, 401)):
        assert bounds.hoeffding_dominance_report(m_values).bound_value is hoeffding
        bounds.chernoff_dominance_report(m_values)
    info = bounds._tail_grid.cache_info()
    assert exps == [] and (info.misses, info.currsize) == (kept.misses, kept.currsize) == (1, 1)


@pytest.mark.parametrize("command", GOLDEN)
def test_csv_replays_from_its_own_header(command):
    data = csv_bytes(command)
    replay = argv_from_header(data)
    assert replay[0] == command.split()[0]
    assert run_stdout(replay) == data


def test_header_keys_cover_every_flag():
    for sub, parser in subparsers().items():
        flags = {a.dest for a in parser._actions if a.option_strings} - {"help", "out"}
        assert flags == set(parser.get_default("replay")), sub
