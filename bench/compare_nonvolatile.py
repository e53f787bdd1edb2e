#!/usr/bin/env python3
"""Compare two bench JSON documents with every "volatile" object removed.

Wall-clock timings live under "volatile" keys; everything else in a BENCH
document (sweep rows, fingerprints, counters) is deterministic and must
reproduce byte for byte.

Usage: compare_nonvolatile.py EXPECTED.json ACTUAL.json
Exits 0 when the stripped documents are equal, 1 (naming the first
differing path) when they are not.
"""

import json
import sys


def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k != "volatile"}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def first_difference(a, b, path="$"):
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if a == b else path


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(argv[1]) as f:
        expected = strip(json.load(f))
    with open(argv[2]) as f:
        actual = strip(json.load(f))
    where = first_difference(expected, actual)
    if where:
        print(f"{argv[2]} differs from {argv[1]} at {where}", file=sys.stderr)
        return 1
    print(f"{argv[2]}: identical to {argv[1]} outside volatile blocks")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
