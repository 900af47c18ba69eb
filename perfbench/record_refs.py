"""Record the SHA-256 of every CSV that the benchmark's ops write under the
reference seed, into perfbench/refs.json.

Usage (from the root of a checkout): python3 perfbench/record_refs.py

A run under the reference seed (0, the default) checks each op's output
against these hashes; every run checks its cold-start op, which always uses
the reference seed.  Re-record only when a change is meant to alter CSV
bytes, and say so in that change.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from checks import argv_key, check_csv
from run import HERE, REFERENCE_SEED, ROOT, WORKLOADS, op_seed

# Ops recorded per workload: about twice what a 25-second run gets through.
RECORDED_OPS = {"protocol-n1024": 80, "aleph-n256": 700, "verifier-round": 30}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from ghrlab import cli

    refs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "out.csv"
        for workload, count in RECORDED_OPS.items():
            make_argvs = WORKLOADS[workload][0]
            for i in range(count):
                for argv in make_argvs(op_seed(REFERENCE_SEED, i)):
                    if argv_key(argv) in refs:
                        continue
                    if cli.main(argv + ["--out", str(out)]) != 0:
                        raise SystemExit(f"{argv_key(argv)} failed")
                    data = out.read_bytes()
                    check_csv(argv, data.decode("utf-8"))
                    refs[argv_key(argv)] = hashlib.sha256(data).hexdigest()
            print(f"{workload}: {count} ops", file=sys.stderr)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
