"""Experiment driver: seeded subcommands over the library, CSV out.

Every run writes one CSV whose leading `# key=value` comment lines hold the
full replay configuration (subcommand, numeric flags, rectangle family,
generator algorithm), read off the parsed arguments in the order that
build_parser declares each subcommand's flags.  Output is a pure function of
that header: reruns are byte-identical, including under different
GHRLAB_THREADS settings.

Exit codes: 0 success; 1 when a declared mathematical invariant fails the
run's check (the first violating point goes to stderr) or output cannot be
written; 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from pathlib import Path

from .bitkit import RNG_ALGORITHM, BitString, Rng, require_seed
from .bounds import (
    chernoff_dominance_report,
    hoeffding_dominance_report,
    require_shift_samples,
    require_shift_size,
    shift_xor_tail_check,
    window_lower_dominance_report,
)
from .classical import (
    MAX_REDUCTION_N,
    RectangleSpec,
    all_instances,
    estimate_baseline_success,
    reduction_xi,
    relative_weights,
    require_enumerable,
    require_reduction_size,
    require_shared_samples,
    xi_parameters,
)
from .coupling import require_dp_length, require_tolerance, verify_independence
from .protocol import estimate_success, failure_probability, require_repetitions
from .relation import (
    aleph_statistics,
    answer_length,
    enumerate_pairs,
    estimate_aleph_probability,
    is_typical,
    require_exhaustive_size,
    require_transform_size,
    trial_pair,
)
from .util import InvariantError


def parse_rect(text: str, n: int) -> RectangleSpec:
    """Named rectangle families: full, parity_even, prefix_zeros(m)."""
    if text == "full":
        return RectangleSpec.full(n)
    if text == "parity_even":
        return RectangleSpec.parity_even(n)
    match = re.fullmatch(r"prefix_zeros\((\d+)\)", text)
    if match:
        return RectangleSpec.prefix_zeros(n, int(match.group(1)))
    raise ValueError(f"unknown rectangle family: {text!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (float, Fraction)):
        return format(float(value), ".12g")
    return str(value)


def write_csv(rows, schema, path, header) -> None:
    """UTF-8 CSV: `# key=value` config lines, header line, data rows."""
    lines = [f"# {key}={_fmt(value)}" for key, value in header]
    lines.append(",".join(schema))
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def replay_header(args) -> list[tuple[str, object]]:
    """The (key, value) lines that replay a run from its parsed arguments:
    the command's flags in declaration order, then rng for the generator
    algorithm when it takes --seed.

    Keys for randomness a run does not use are left out: an exhaustive
    protocol-failure-exact has no trials or seed, and bounds-validate
    without trials has no rng."""
    skip = set()
    if getattr(args, "exhaustive", False):
        skip = {"trials", "seed"}
    elif args.subcommand == "bounds-validate" and args.trials == 0:
        skip = {"rng"}
    header = [("subcommand", args.subcommand)]
    header += [(key, getattr(args, key)) for key in args.replay if key not in skip]
    if "seed" in args.replay and "rng" not in skip:
        header.append(("rng", RNG_ALGORITHM))
    return header


def _estimate_row(args, est):
    """The one-row result of a Monte Carlo estimate: the command's flags in
    declaration order, then the estimate and its standard error."""
    row = (*(getattr(args, key) for key in args.replay), est.mean, est.stderr)
    return [row], (*args.replay, "estimate", "stderr"), None


def _cmd_aleph_estimate(args):
    return _estimate_row(args, estimate_aleph_probability(args.n, args.trials, Rng(args.seed)))


def _cmd_protocol_success(args):
    if args.t is None:  # resolved here so that the header records the t run
        args.t = answer_length(args.n)
    return _estimate_row(args, estimate_success(args.n, args.trials, Rng(args.seed), t=args.t))


def _cmd_protocol_failure_exact(args):
    if args.exhaustive:
        pairs = list(enumerate_pairs(args.n))
    else:
        rng = Rng(args.seed)
        pairs = [trial_pair(args.n, rng, i)[:2] for i in range(args.trials)]
    xs, ys = zip(*pairs)
    rows = [
        (str(x), str(y), is_typical(args.n, stat), float(failure_probability(args.n, stat)))
        for x, y, stat in zip(xs, ys, aleph_statistics(xs, ys))
    ]
    return rows, ("x", "y", "aleph", "failure"), None


def _cmd_baseline_tghr(args):
    return _estimate_row(args, estimate_baseline_success(args.n, args.t, args.trials, Rng(args.seed)))


def _cmd_coupling_verify(args):
    rows = []
    failure = None
    for value in range(1 << args.n):
        report = verify_independence(BitString(value, args.n), tol=args.tol)
        rows.append((str(report.s), float(report.max_tv), report.passed))
        if failure is None and not report.passed:
            failure = (
                f"coupling check failed at s={report.s}, k={report.worst_k}: "
                f"max_tv {_fmt(report.max_tv)} > tol {_fmt(args.tol)}"
            )
    return rows, ("s", "max_tv", "pass"), failure


def _shift_t_values(n: int) -> list[int]:
    """bounds-validate's sampled deviations n/16, n/8 and 3n/16, rounded
    down, that are at least 1; refused when none is (n < 6)."""
    t_values = [t for t in (n // 16, n // 8, 3 * n // 16) if t >= 1]
    if not t_values:
        raise ValueError(f"no t values to check at n={n}")
    return t_values


def _cmd_bounds_validate(args):
    sampled = []
    if args.trials > 0:
        report = shift_xor_tail_check(args.n, _shift_t_values(args.n), args.trials, Rng(args.seed))
        sampled.append(("shift_xor_tail", report))
    reports = [
        ("hoeffding", hoeffding_dominance_report()),
        ("chernoff", chernoff_dominance_report()),
        ("window_lower", window_lower_dominance_report()),
        *sampled,
    ]
    rows = []
    failure = None
    for name, report in reports:
        rows.append((name, len(report.points), report.worst_margin(), report.passed))
        bad = report.first_violation()
        if failure is None and bad is not None:
            failure = (
                f"{name} check failed at {report.label(bad)}: observed {_fmt(report.observed[bad])}, "
                f"bound {_fmt(report.bound_value[bad])}"
            )
    return rows, ("suite", "points", "worst_margin", "pass"), failure


def _set_string(members, l: int) -> BitString:
    return BitString.from_bits([1 if i in members else 0 for i in range(1, 4 * l)])


def _cmd_reduction_demo(args):
    params = xi_parameters(args.c1, args.c2, args.n)
    rect = parse_rect(args.rect, args.n)
    root = Rng(args.seed)
    rows = []
    for r in range(args.trials):
        for inst in all_instances(params.l):
            # fresh child stream per instance: one trial shares (S, T) across instances
            tr = reduction_xi(inst, args.c1, args.c2, args.n, rect, root.child(r))
            rows.append(
                (
                    r,
                    str(_set_string(inst.x, params.l)),
                    str(_set_string(inst.y, params.l)),
                    inst.intersection_size(),
                    tr.encoded_distance(),
                    tr.masked_distance(),
                    tr.accepted,
                )
            )
    schema = ("trial", "x_set", "y_set", "intersection", "d3", "d5", "accepted")
    return rows, schema, None


def _cmd_rect_spectrum(args):
    rect = parse_rect(args.rect, args.n)
    dist_sets = [{k} for k in range(args.n + 1)] + [{k, k + 1} for k in range(args.n)]
    weights = relative_weights(rect, dist_sets)  # one distance spectrum for every row
    rows = [("+".join(map(str, sorted(d))), float(w)) for d, w in zip(dist_sets, weights)]
    return rows, ("dist_set", "rw"), None


def _at_least(low: int):
    """A flag guard: refuse a value below low."""
    def guard(value: int) -> None:
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")

    return guard


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing never changes it.

    Each subcommand is declared once: its handler, its cross-flag checks as
    (flags, check(args)) pairs, then its flags in replay-header order, each
    with an optional guard on its parsed value.  The flags' guards run
    first, in declaration order, then the cross-flag checks."""
    parser = argparse.ArgumentParser(
        prog="ghrlab", description="Gap-Hamming relation experiments, CSV out."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text, handler, *cross):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        replay, checks = [], list(cross)
        p.set_defaults(handler=handler, replay=replay, checks=checks, usage_error=p.error)

        def flag(key, guard=None, **options):
            p.add_argument(f"--{key}", **options)
            replay.append(key)
            if guard is not None:  # after the flags declared so far, before the cross-flag checks
                checks.insert(len(checks) - len(cross), (f"--{key}", lambda a: guard(getattr(a, key))))

        return flag

    flag = add("aleph-estimate", "Monte Carlo estimate of the typicality probability", _cmd_aleph_estimate)
    flag("n", require_transform_size, type=int, required=True)
    flag("trials", _at_least(1), type=int, required=True)
    flag("seed", require_seed, type=int, default=0)

    flag = add(
        "protocol-success", "Monte Carlo protocol success rate on uniform pairs", _cmd_protocol_success,
        ("--t", lambda a: a.t is None or require_repetitions(a.n, a.t)),
    )
    flag("n", require_transform_size, type=int, required=True)
    flag("trials", _at_least(1), type=int, required=True)
    flag("seed", require_seed, type=int, default=0)
    flag(
        "t", lambda t: t is None or _at_least(1)(t),  # a None --t is the handler's to resolve
        type=int, default=None, help="outcome samples per run (default log2 n)",
    )

    flag = add(
        "protocol-failure-exact", "exact per-pair failure probabilities", _cmd_protocol_failure_exact,
        ("--n/--exhaustive", lambda a: a.exhaustive and require_exhaustive_size(a.n)),
    )
    flag("n", require_transform_size, type=int, required=True)
    flag("trials", _at_least(1), type=int, default=100, help="sampled pairs when not exhaustive")
    flag("seed", require_seed, type=int, default=0)
    flag("exhaustive", action="store_true", help="all pairs (small n)")

    flag = add(
        "baseline-tghr", "shared-randomness baseline success rate", _cmd_baseline_tghr,
        ("--n/--t", lambda a: require_shared_samples(a.n, a.t)),
    )
    flag("n", _at_least(1), type=int, required=True)
    flag("t", _at_least(1), type=int, required=True, help="shared samples per run")
    flag("trials", _at_least(1), type=int, required=True)
    flag("seed", require_seed, type=int, default=0)

    flag = add("coupling-verify", "exact coupled-mixture check for every selector", _cmd_coupling_verify)
    flag("n", require_dp_length, type=int, required=True)
    flag("tol", require_tolerance, type=float, default=1e-9)

    flag = add(
        "bounds-validate", "tail-bound dominance grids, plus sampled shift tails", _cmd_bounds_validate,
        ("--trials", lambda a: require_shift_samples(a.n, a.trials)),
        ("--n/--trials", lambda a: a.trials == 0 or _shift_t_values(a.n)),
    )
    flag("n", require_shift_size, type=int, default=256)
    flag("trials", _at_least(0), type=int, default=0, help="samples per shift (0 skips)")
    flag("seed", require_seed, type=int, default=0)

    # A --c1/--c2 pair refused at MAX_REDUCTION_N is refused at every n: the
    # pads only grow with n, and xi_parameters' other rules do not read it.
    flag = add(
        "reduction-demo", "set-disjointness encoding over all instances", _cmd_reduction_demo,
        ("--c1/--c2", lambda a: xi_parameters(a.c1, a.c2, MAX_REDUCTION_N)),
        ("--n", lambda a: xi_parameters(a.c1, a.c2, a.n)),
        ("--n/--rect", lambda a: parse_rect(a.rect, a.n)),
    )
    flag("n", require_reduction_size, type=int, required=True)
    flag("trials", _at_least(1), type=int, default=1, help="independent seeds")
    flag("seed", require_seed, type=int, default=0)
    flag("rect", default="full")
    flag("c1", type=int, required=True)
    flag("c2", type=int, required=True)

    flag = add(
        "rect-spectrum", "relative distance weights of a rectangle", _cmd_rect_spectrum,
        ("--n/--rect", lambda a: parse_rect(a.rect, a.n)),
    )
    flag("n", require_enumerable, type=int, required=True)
    flag("rect", required=True)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # each flag's guard, then the cross-flag checks; a refusal prints the
        # command's usage and exits 2, like any parse error
        for flags, check in args.checks:
            try:
                check(args)
            except ValueError as exc:
                args.usage_error(f"argument {flags}: {exc}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rows, schema, failure = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return 1
    try:
        write_csv(rows, schema, args.out, replay_header(args))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
