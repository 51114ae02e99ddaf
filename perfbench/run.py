"""The repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

Workloads: ``serve-warm``, ``serve-cold``, ``ingest-churn``, ``campaign``
(see ``workloads.py`` and ``layers.json``).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
exit code is 0 only when every check passed.

The program is imported from ``src/`` next to this directory; scratch
files (a database, sweep caches, request bodies the server spools) go to
``.perfbench-work/`` there and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-warm", "serve-cold", "ingest-churn", "campaign")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import harness  # after sys.path points at the program

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=_work_root()))
    spool = workdir / "tmp"
    spool.mkdir()
    tempfile.tempdir = str(spool)
    os.environ["TMPDIR"] = str(spool)
    try:
        result = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    for line in harness.report_lines(result, bool(args.trace)):
        print(line)
    metrics = result.per_layer() if args.trace else result.e2e()
    print(
        json.dumps(
            {
                "correct": result.tally.failed == 0,
                "attempted": result.tally.attempted,
                "failed": result.tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if result.tally.failed == 0 else 1


def _work_root() -> Path:
    root = ROOT / ".perfbench-work"
    root.mkdir(exist_ok=True)
    return root


if __name__ == "__main__":
    sys.exit(main())
