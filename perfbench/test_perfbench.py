"""Tests of the benchmark's own checks, failure accounting and tracer.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import hashlib
import sys

import pytest

from checks import argv_key, check_output
from run import ROOT, Run, tail
from tracer import Tracer

sys.path.insert(0, str(ROOT / "src"))
import ghrlab  # noqa: E402
from ghrlab import cli, relation  # noqa: E402

ALEPH = ["aleph-estimate", "--n", "16", "--trials", "7", "--seed", "3"]
RECT = ["rect-spectrum", "--rect", "parity_even", "--n", "6"]


def cli_bytes(argv, tmp_path) -> bytes:
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("argv", [ALEPH, RECT])
def test_correct_output_passes(argv, tmp_path):
    data = cli_bytes(argv, tmp_path)
    refs = {argv_key(argv): hashlib.sha256(data).hexdigest()}
    assert check_output(argv, 0, data, refs) is None
    assert check_output(argv, 0, data, {}) is None


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text.replace("n,trials,seed", "n,trials,sed"),
        lambda text: text.replace("# trials=7", "# trials=8"),
        lambda text: text.rsplit(",", 1)[0] + ",0.25\n",   # stderr off the identity
        lambda text: text[:-1],
    ],
)
def test_corrupted_output_fails(corrupt, tmp_path):
    data = cli_bytes(ALEPH, tmp_path)
    bad = corrupt(data.decode()).encode()
    assert bad != data
    assert check_output(ALEPH, 0, bad, {}) is not None
    refs = {argv_key(ALEPH): hashlib.sha256(data).hexdigest()}
    assert check_output(ALEPH, 0, bad, refs) is not None


def test_rect_mass_identity_catches_a_changed_weight(tmp_path):
    text = cli_bytes(RECT, tmp_path).decode()
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith("2,"))
    lines[row] = "2,1.5"
    assert "mass" in check_output(RECT, 0, "\n".join(lines).encode(), {})


def test_exit_code_and_missing_file_fail(tmp_path):
    data = cli_bytes(ALEPH, tmp_path)
    assert check_output(ALEPH, 1, data, {}) == "exit code 1"
    assert check_output(ALEPH, 0, None, {}) == "no output file"


class CorruptingWorker:
    """Stands in for the workload process: writes a CSV with a wrong stderr."""

    def __init__(self, work, data):
        self.work, self.data = work, data

    def request(self, msg):
        (self.work / "out0.csv").write_bytes(self.data.replace(b",0.", b",0.1", 1))
        return {"codes": [0], "stats": None}


def test_corrupted_op_counts_as_failed(tmp_path):
    data = cli_bytes(ALEPH, tmp_path)
    run = Run("aleph-n256", 0, {}, tmp_path)
    latency, slowness, ok, _ = run.op(CorruptingWorker(tmp_path, data), [ALEPH])
    assert not ok and latency > 0 and slowness > 0
    assert (run.attempted, run.failed, len(run.failures)) == (1, 1, 1)


def test_tail_has_ten_ops_beyond_or_falls_back_to_the_median():
    value, pct, beyond = tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    value, pct, beyond = tail([float(i) for i in range(11)])
    assert (value, beyond) == (5.0, 5)


def test_tracer_counts_repeat_and_uninstall_restores(tmp_path):
    original = relation.delta_table
    tracer = Tracer(ghrlab)
    argv = ["protocol-success", "--n", "16", "--trials", "5", "--seed", "2",
            "--out", str(tmp_path / "p.csv")]
    seen = []
    for _ in range(2):
        tracer.install()
        try:
            assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
        seen.append(tracer.collect())
    assert relation.delta_table is original
    first, second = seen
    assert first["relation.delta_table"][0] == 5
    assert first["relation.delta_table"][3] == 5 * 16 * 16
    assert first["util.map_trials"][0] == 1
    assert first["cli.main"][0] == 1
    assert {k: (v[0], v[3]) for k, v in first.items()} == {
        k: (v[0], v[3]) for k, v in second.items()
    }
    main = first["cli.main"]
    assert 0 <= main[1] <= main[2]
