#!/usr/bin/env python3
"""Compare the run records of two commits.

Usage: python3 perfbench/compare.py OLD NEW

OLD and NEW are run-record files or directories of them (the
``.perfbench/results`` directory of each checkout). For every workload and
trace mode both sides ran, prints each metric's median per side and their
ratio, and flags a comparison whose two sides ran different backends or
different job sets. Exits 1 when any comparison is flagged.
"""
import json
import statistics
import sys
from pathlib import Path


def load(path):
    path = Path(path)
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    groups = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        prov = record["provenance"]
        groups.setdefault((prov["workload"], prov["trace"]), []).append(record)
    return groups


def flags(old, new):
    out = []
    backends = [{r["provenance"]["backend"] for r in side} for side in (old, new)]
    if len(backends[0] | backends[1]) > 1:
        out.append(f"BACKEND MISMATCH {sorted(backends[0])} vs {sorted(backends[1])}")
    seeds = [{r["provenance"]["seed"] for r in side} for side in (old, new)]
    if seeds[0] != seeds[1]:
        out.append(f"SEEDS DIFFER {sorted(seeds[0])} vs {sorted(seeds[1])}")
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    flagged = False
    for key in sorted(old.keys() & new.keys()):
        problems = flags(old[key], new[key])
        flagged |= bool(problems)
        print(f"{key[0]} trace={key[1]}: {len(old[key])} vs {len(new[key])} runs "
              + " ".join(problems))
        for name, meta in old[key][0]["metrics"].items():
            a = statistics.median(r["metrics"][name]["value"] for r in old[key])
            b = statistics.median(r["metrics"][name]["value"] for r in new[key])
            ratio = f"{b / a:8.3f}" if a else "       -"
            print(f"  {name:34s} {a:14.6g} {b:14.6g} {ratio}  {meta['unit']}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
