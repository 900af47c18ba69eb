"""Workload process: runs ghrlab CLI operations sent by the controller (run.py).

Usage: python3 worker.py SRC_DIR WORK_DIR

Imports ghrlab from SRC_DIR, then reads one JSON request per line on stdin
and answers each with one JSON line:

  {"cmd": "op", "op": ID, "argvs": [[...], ...]}
      runs ghrlab.cli.main(argv + ["--out", WORK_DIR/out<k>.csv]) for each
      argv in order; answers {"codes": [...], "stats": [...] | null}.  With
      tracing on, stats holds one span-total table per argv.
  {"cmd": "trace", "on": true|false}   installs or removes the tracer.
  {"cmd": "rss"}                       answers {"rss_kb": peak resident set}.

The process exits at end of input.  Nothing but replies goes to stdout: the
CLI's own prints go to stderr.
"""

import json
import os
import resource
import sys
import traceback
from pathlib import Path


def peak_rss_kb() -> int:
    """Peak resident set of this process.  Linux carries ru_maxrss across
    exec, so it would report the controller's peak if that were larger; VmHWM
    belongs to this process's own address space."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    src, work = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr
    sys.path.insert(0, str(src))
    import ghrlab
    from ghrlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"worker: ghrlab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    from tracer import Tracer

    tracer = Tracer(ghrlab)
    tracing = False
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "op":
            tracer.op = msg["op"]
            codes, stats = [], []
            for k, argv in enumerate(msg["argvs"]):
                try:
                    codes.append(cli.main(argv + ["--out", str(work / f"out{k}.csv")]))
                except Exception:
                    traceback.print_exc()
                    codes.append(-1)
                if tracing:
                    stats.append(tracer.collect())
            answer = {"codes": codes, "stats": stats if tracing else None}
        elif msg["cmd"] == "trace":
            if msg["on"] and not tracing:
                tracer.install()
            elif tracing and not msg["on"]:
                tracer.uninstall()
            tracing = msg["on"]
            answer = {"tracing": tracing}
        elif msg["cmd"] == "rss":
            answer = {"rss_kb": peak_rss_kb()}
        else:
            raise ValueError(f"unknown request {msg!r}")
        reply.write(json.dumps(answer) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
