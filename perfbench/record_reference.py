"""Record each seed's outcome digest in ``perfbench/reference.json``.

Usage (from the root of a checkout)::

    python3 perfbench/record_reference.py --workload fig1-mix --seeds 0-19

The benchmark compares every run against the digest recorded for its
seed.  Re-record only for a change that is meant to alter query
outcomes, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.json"


def parse_seeds(spec: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-19 or 1,4,9")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import Round, make_inputs

    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    entries = table.setdefault(args.workload, {})
    for seed in parse_seeds(args.seeds):
        result = Round(make_inputs(args.workload, seed)).run()
        if result.problems or result.failed_epochs:
            print(f"seed {seed}: not recorded, {result.failed_epochs} epochs failed, "
                  f"checks: {result.problems[:3]}", file=sys.stderr)
            return 1
        entries[str(seed)] = {"digest": result.digest, "hashes": "".join(result.hashes)}
        print(f"{args.workload} seed {seed}: {result.digest}")
    table[args.workload] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
