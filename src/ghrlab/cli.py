"""Experiment driver: seeded subcommands over the library, CSV out.

Every run writes one CSV whose leading `# key=value` comment lines hold the
full replay configuration (subcommand, numeric flags, rectangle family,
generator algorithm), read off the parsed arguments through one key list
per subcommand (HEADER_KEYS).  Output is a pure function of that header:
reruns are byte-identical, including under different GHRLAB_THREADS settings.

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

from .bitkit import RNG_ALGORITHM, BitString, Rng
from .bounds import (
    chernoff_dominance_report,
    hoeffding_dominance_report,
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
    xi_parameters,
)
from .coupling import require_dp_length, verify_independence
from .protocol import estimate_success, failure_probability, require_repetitions
from .relation import (
    aleph_statistics,
    answer_length,
    enumerate_pairs,
    estimate_aleph_probability,
    is_typical,
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


# Replay header of each subcommand: after subcommand=, these keys in order,
# each a parsed flag or "rng" for the generator algorithm.
HEADER_KEYS = {
    "aleph-estimate": ("n", "trials", "seed", "rng"),
    "protocol-success": ("n", "trials", "seed", "t", "rng"),
    "protocol-failure-exact": ("n", "trials", "seed", "exhaustive", "rng"),
    "baseline-tghr": ("n", "t", "trials", "seed", "rng"),
    "coupling-verify": ("n", "tol"),
    "bounds-validate": ("n", "trials", "seed", "rng"),
    "reduction-demo": ("n", "trials", "seed", "rect", "c1", "c2", "rng"),
    "rect-spectrum": ("n", "rect"),
}


def replay_header(args) -> list[tuple[str, object]]:
    """The (key, value) lines that replay a run from its parsed arguments.

    Keys for randomness a run does not use are left out: an exhaustive
    protocol-failure-exact has no trials or seed, and bounds-validate
    without trials has no rng."""
    skip = set()
    if getattr(args, "exhaustive", False):
        skip = {"trials", "seed"}
    elif args.subcommand == "bounds-validate" and args.trials == 0:
        skip = {"rng"}
    header = [("subcommand", args.subcommand)]
    for key in HEADER_KEYS[args.subcommand]:
        if key not in skip:
            header.append((key, RNG_ALGORITHM if key == "rng" else getattr(args, key)))
    return header


def _estimate_row(args, est):
    """The one-row result of a Monte Carlo estimate: its replay keys other
    than rng (HEADER_KEYS), then the estimate and its standard error."""
    keys = [key for key in HEADER_KEYS[args.subcommand] if key != "rng"]
    row = (*(getattr(args, key) for key in keys), est.mean, est.stderr)
    return [row], (*keys, "estimate", "stderr"), None


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


def _cmd_bounds_validate(args):
    sampled = []
    if args.trials > 0:  # first, so that an n too small to sample fails fast
        t_values = [t for t in (args.n // 16, args.n // 8, 3 * args.n // 16) if t >= 1]
        report = shift_xor_tail_check(args.n, t_values, args.trials, Rng(args.seed))
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


_HANDLERS = {
    "aleph-estimate": _cmd_aleph_estimate,
    "protocol-success": _cmd_protocol_success,
    "protocol-failure-exact": _cmd_protocol_failure_exact,
    "baseline-tghr": _cmd_baseline_tghr,
    "coupling-verify": _cmd_coupling_verify,
    "bounds-validate": _cmd_bounds_validate,
    "reduction-demo": _cmd_reduction_demo,
    "rect-spectrum": _cmd_rect_spectrum,
}


def _checked_int(guard):
    """argparse type: an int that guard accepts, else a usage error (exit 2).

    guard raises ValueError for a refused value; argparse prefixes its
    message with the flag, and a refused value never reaches a handler."""
    def parse(text: str) -> int:
        value = int(text)
        try:
            guard(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = "int"  # argparse names the type in its message for a non-integer
    return parse


def _int_at_least(low: int):
    """argparse type: an int >= low, else a usage error (exit 2)."""
    def guard(value: int) -> None:
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")

    return _checked_int(guard)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="ghrlab", description="Gap-Hamming relation experiments, CSV out."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.set_defaults(usage_error=p.error)  # this command's usage, for _FLAG_CHECKS
        return p

    transform_n = _checked_int(require_transform_size)

    p = add("aleph-estimate", "Monte Carlo estimate of the typicality probability")
    p.add_argument("--n", type=transform_n, required=True)
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("protocol-success", "Monte Carlo protocol success rate on uniform pairs")
    p.add_argument("--n", type=transform_n, required=True)
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=_int_at_least(1), default=None, help="outcome samples per run (default log2 n)")

    p = add("protocol-failure-exact", "exact per-pair failure probabilities")
    p.add_argument("--n", type=transform_n, required=True)
    p.add_argument("--exhaustive", action="store_true", help="all pairs (small n)")
    p.add_argument("--trials", type=_int_at_least(1), default=100, help="sampled pairs when not exhaustive")
    p.add_argument("--seed", type=int, default=0)

    p = add("baseline-tghr", "shared-randomness baseline success rate")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--t", type=_int_at_least(1), required=True, help="shared samples per run")
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("coupling-verify", "exact coupled-mixture check for every selector")
    p.add_argument("--n", type=_checked_int(require_dp_length), required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("bounds-validate", "tail-bound dominance grids, plus sampled shift tails")
    p.add_argument("--n", type=_checked_int(require_shift_size), default=256)
    p.add_argument("--trials", type=_int_at_least(0), default=0, help="samples per shift (0 skips)")
    p.add_argument("--seed", type=int, default=0)

    p = add("reduction-demo", "set-disjointness encoding over all instances")
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--n", type=_checked_int(require_reduction_size), required=True)
    p.add_argument("--rect", default="full")
    p.add_argument("--trials", type=_int_at_least(1), default=1, help="independent seeds")
    p.add_argument("--seed", type=int, default=0)

    p = add("rect-spectrum", "relative distance weights of a rectangle")
    p.add_argument("--rect", required=True)
    p.add_argument("--n", type=_checked_int(require_enumerable), required=True)

    return parser


def _check_reduction_flags(args) -> None:
    """Refuse, as a usage error naming the flags, a --c1/--c2 pair that
    xi_parameters refuses at every n, or at the --n given.  The pads only
    grow with n and the other rules do not depend on it, so a pair refused
    at MAX_REDUCTION_N is refused at every n.  The refusal prints
    reduction-demo's usage, as its other flags' refusals do."""
    for flags, n in (("--c1/--c2", MAX_REDUCTION_N), ("--n", args.n)):
        try:
            xi_parameters(args.c1, args.c2, n)
        except ValueError as exc:
            args.usage_error(f"argument {flags}: {exc}")


def _check_protocol_flags(args) -> None:
    """Refuse, as a usage error naming the flag, a --t that
    require_repetitions refuses at the --n given."""
    if args.t is not None:
        try:
            require_repetitions(args.n, args.t)
        except ValueError as exc:
            args.usage_error(f"argument --t: {exc}")


# Checks of flags that depend on each other, run right after parsing; a
# refusal prints the command's usage and exits 2, like any parse error.
_FLAG_CHECKS = {
    "protocol-success": _check_protocol_flags,
    "reduction-demo": _check_reduction_flags,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.subcommand in _FLAG_CHECKS:
            _FLAG_CHECKS[args.subcommand](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rows, schema, failure = _HANDLERS[args.subcommand](args)
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
