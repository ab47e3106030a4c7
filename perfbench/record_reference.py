#!/usr/bin/env python3
"""Write reference.json: the status and report SHA-256 of every case of
every workload at the default seed. Each distinct digest is stored once
with the cases that share it; all identities-sweep reports are alike, as
they hold only check names and horizons.

    python3 perfbench/record_reference.py

Reports must stay byte-identical, so rerun this only when a change to
the report format is intended, and review the diff.
"""
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402


def main():
    tree = {}
    for name in workloads.WORKLOADS:
        statuses, reports = [], {}
        for case in workloads.build(name, workloads.DEFAULT_SEED):
            result = case.run()
            digest = hashlib.sha256(workloads.canonical_bytes(result)).hexdigest()
            statuses.append(result.status)
            reports.setdefault(digest, []).append(case.index)
        spec = workloads.SPECS[name]
        tree[name] = {"seed": workloads.DEFAULT_SEED, "entry": spec.entry,
                      "moment_order": spec.moment_order,
                      "check_order": spec.check_order,
                      "first_20_summary": Counter(statuses[:20]),
                      "statuses": statuses, "reports": reports}
        print(name, dict(tree[name]["first_20_summary"]))
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(tree, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
