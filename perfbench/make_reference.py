"""Compute the digest of every pool instance and write reference.json.

    PYTHONHASHSEED=0 python3 perfbench/make_reference.py claims means
    PYTHONHASHSEED=1 python3 perfbench/make_reference.py --check claims means

With --check nothing is written; the digests are compared with the
committed ones, which is how hash-seed independence is confirmed.  Each
instance runs in this one process, in pool order.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, _import_program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    _import_program()
    from workloads import WORKLOADS, POOL_SEED, digest

    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {"pool_seed": POOL_SEED, "digests": {}}
    if data["pool_seed"] != POOL_SEED:
        sys.exit("error: reference.json was made from another pool seed")
    mismatches = 0
    for name in args.workloads:
        w = WORKLOADS[name]
        table = {}
        for s in w.strata:
            table[s] = [
                digest(w.canon(w.build(s, w.instance_seed(s, j), j)()))
                for j in range(w.pool)
            ]
            print(f"{name}/{s}: {w.pool} instances", file=sys.stderr, flush=True)
        if args.check:
            committed = data["digests"].get(name, {})
            for s, digests in table.items():
                bad = [j for j, d in enumerate(digests) if committed.get(s, [None] * w.pool)[j] != d]
                mismatches += len(bad)
                if bad:
                    print(f"{name}/{s}: {len(bad)} digests differ, first at {bad[0]}")
        else:
            data["digests"][name] = table
    if args.check:
        print(f"{mismatches} digests differ from reference.json")
        return 1 if mismatches else 0
    data["digests"] = dict(sorted(data["digests"].items()))
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
