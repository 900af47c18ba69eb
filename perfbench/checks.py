"""Output checks for one CLI operation: exit code, replay header, the CSV's
own identities and, where recorded, the SHA-256 of the whole file.

`check_output(argv, code, data, refs)` returns None when the output is
correct and otherwise a one-line reason.
"""

from __future__ import annotations

import hashlib
import math

SCHEMAS = {
    "aleph-estimate": "n,trials,seed,estimate,stderr",
    "protocol-success": "n,trials,seed,t,estimate,stderr",
    "protocol-failure-exact": "x,y,aleph,failure",
    "baseline-tghr": "n,t,trials,seed,estimate,stderr",
    "coupling-verify": "s,max_tv,pass",
    "bounds-validate": "suite,points,worst_margin,pass",
    "reduction-demo": "trial,x_set,y_set,intersection,d3,d5,accepted",
    "rect-spectrum": "dist_set,rw",
}


class CheckError(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


def argv_key(argv) -> str:
    return " ".join(argv)


def flags(argv) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _estimate(row: dict, trials: int) -> None:
    """The estimate is successes/trials and stderr is sqrt(p(1-p)/trials),
    both as the CLI formats reals (12 significant digits)."""
    hits = round(float(row["estimate"]) * trials)
    require(0 <= hits <= trials, f"estimate {row['estimate']} outside [0, 1]")
    p = hits / trials
    require(row["estimate"] == format(p, ".12g"), f"estimate {row['estimate']} is not k/{trials}")
    stderr = format(math.sqrt(p * (1.0 - p) / trials), ".12g")
    require(row["stderr"] == stderr, f"stderr {row['stderr']} != {stderr}")


def _bits(text: str, n: int) -> None:
    require(len(text) == n and set(text) <= {"0", "1"}, f"{text!r} is not {n} bits")


def _rows_aleph_estimate(rows, f):
    require(len(rows) == 1, "one row expected")
    for key in ("n", "trials", "seed"):
        require(rows[0][key] == f[key], f"{key} column differs from the argv")
    _estimate(rows[0], int(f["trials"]))


def _rows_protocol_success(rows, f):
    _rows_aleph_estimate(rows, f)
    t = f.get("t", str(int(f["n"]).bit_length() - 1))
    require(rows[0]["t"] == t, f"t column {rows[0]['t']} != {t}")


def _rows_baseline_tghr(rows, f):
    _rows_aleph_estimate(rows, f)
    require(rows[0]["t"] == f["t"], "t column differs from the argv")


def _rows_protocol_failure_exact(rows, f):
    n = int(f["n"])
    require(len(rows) == int(f["trials"]), "one row per sampled pair expected")
    for row in rows:
        _bits(row["x"], n)
        _bits(row["y"], n)
        require(row["aleph"] in ("0", "1"), f"aleph {row['aleph']} not 0/1")
        fail = float(row["failure"])
        require(0.0 <= fail <= 1.0, f"failure {fail} outside [0, 1]")
        require(row["aleph"] == "1" or fail == 0.0, "atypical pair with nonzero failure")


def _rows_coupling_verify(rows, f):
    n = int(f["n"])
    require(len(rows) == 1 << n, f"{1 << n} selectors expected")
    require(len({row["s"] for row in rows}) == len(rows), "repeated selector")
    for row in rows:
        _bits(row["s"], n)
        require(row["max_tv"] == "0", f"max_tv {row['max_tv']} at s={row['s']}")
        require(row["pass"] == "1", f"fail at s={row['s']}")


def _rows_bounds_validate(rows, f):
    suites = ["hoeffding", "chernoff", "window_lower"]
    if int(f.get("trials", "0")) > 0:
        suites.append("shift_xor_tail")
    require([row["suite"] for row in rows] == suites, "suite rows differ")
    for row in rows:
        require(int(row["points"]) > 0, f"{row['suite']} has no points")
        require(row["pass"] == "1", f"{row['suite']} failed")


def _rows_rect_spectrum(rows, f):
    """Relative weights of single distances, weighted by the uniform
    distance law, sum to one: the rectangle's pair mass is a distribution."""
    n = int(f["n"])
    labels = [str(k) for k in range(n + 1)] + [f"{k}+{k + 1}" for k in range(n)]
    require([row["dist_set"] for row in rows] == labels, "distance sets differ")
    weights = [float(row["rw"]) for row in rows]
    require(all(w >= 0.0 for w in weights), "negative relative weight")
    total = sum(weights[k] * math.comb(n, k) for k in range(n + 1)) / 2**n
    require(abs(total - 1.0) < 1e-9, f"rectangle mass sums to {total}")


def _rows_reduction_demo(rows, f):
    trials, n = int(f["trials"]), int(f["n"])
    require(rows and len(rows) % trials == 0, "rows do not split evenly by trial")
    per = len(rows) // trials
    require([row["trial"] for row in rows] == [str(r) for r in range(trials) for _ in range(per)],
            "trial column out of order")
    for row in rows:
        require(row["accepted"] in ("0", "1"), "accepted not 0/1")
        require(int(row["intersection"]) >= 0, "negative intersection")
        require(0 <= int(row["d3"]) <= n and 0 <= int(row["d5"]) <= n, "distance outside [0, n]")


ROW_CHECKS = {
    "aleph-estimate": _rows_aleph_estimate,
    "protocol-success": _rows_protocol_success,
    "protocol-failure-exact": _rows_protocol_failure_exact,
    "baseline-tghr": _rows_baseline_tghr,
    "coupling-verify": _rows_coupling_verify,
    "bounds-validate": _rows_bounds_validate,
    "reduction-demo": _rows_reduction_demo,
    "rect-spectrum": _rows_rect_spectrum,
}


def check_csv(argv, text: str) -> None:
    """Raise CheckError unless text is a well-formed, self-consistent CSV
    for argv."""
    require(text.endswith("\n"), "missing final newline")
    lines = text[:-1].split("\n")
    meta = {}
    while lines and lines[0].startswith("# "):
        key, sep, value = lines.pop(0)[2:].partition("=")
        require(bool(sep), "malformed comment line")
        meta[key] = value
    sub = argv[0]
    require(meta.get("subcommand") == sub, "subcommand line differs")
    for key, value in flags(argv).items():
        require(meta.get(key) == value, f"# {key}= line differs from the argv")
    require(bool(lines) and lines[0] == SCHEMAS[sub], "CSV header differs")
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        require(len(cells) == len(columns), "ragged row")
        rows.append(dict(zip(columns, cells)))
    ROW_CHECKS[sub](rows, flags(argv))


def check_output(argv, code, data: bytes | None, refs: dict[str, str]) -> str | None:
    """None if the op's output is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if data is None:
        return "no output file"
    want = refs.get(argv_key(argv))
    if want is not None and hashlib.sha256(data).hexdigest() != want:
        return "SHA-256 differs from the recorded reference"
    try:
        check_csv(argv, data.decode("utf-8"))
    except (CheckError, UnicodeDecodeError, ValueError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
