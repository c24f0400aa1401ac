#!/usr/bin/env python3
"""Compare the CSV artifacts of two output trees column by column.

    python scripts/compare_artifacts.py OUT_A OUT_B

Each tree holds ``<experiment>/<file>.csv`` as ``run_all_experiments.py``
writes it. For every CSV the script prints one line per column. A column
whose values all parse as integers in both trees is an index or count, and
one that does not parse as numbers is a string column: either must match
exactly, and the line reads ``equal`` or the number of differing rows. Any
other numeric column prints its largest absolute difference and its largest
relative difference |a - b| / max(|a|, |b|).

Exits 1 when an integer or string column differs, when a CSV's header or row
count differs, or when a CSV exists in only one tree; numeric columns never
fail the comparison. Other files (JSON sidecars) are not compared; the hash
list in ``artifacts.sha256`` covers their bytes.
"""

import argparse
import csv
import math
import sys
from pathlib import Path


def read_csv(path) -> tuple:
    """(header, rows) of a CSV file, every cell a string."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


def _parsed(values, kind):
    try:
        return [kind(v) for v in values]
    except ValueError:
        return None


def compare_column(a: list, b: list) -> tuple:
    """(kind, exact, detail) for two equal-length columns of strings.

    kind is "int", "str" or "float". For int and str columns exact says
    whether every row matches and detail counts the rows that differ; for
    float columns exact is True and detail is (max abs, max relative)
    difference, NaNs in the same row counting as equal and any other
    non-finite mismatch as an infinite difference.
    """
    ints = _parsed(a + b, int)
    floats = None if ints is not None else _parsed(a + b, float)
    if floats is None:
        differing = sum(x != y for x, y in zip(a, b))
        return ("str" if ints is None else "int"), differing == 0, differing
    max_abs = max_rel = 0.0
    for x, y in zip(floats[: len(a)], floats[len(a) :]):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return "float", True, (math.inf, math.inf)
        diff = abs(x - y)
        max_abs = max(max_abs, diff)
        max_rel = max(max_rel, diff / max(abs(x), abs(y)))
    return "float", True, (max_abs, max_rel)


def compare_trees(root_a, root_b) -> bool:
    """Print every CSV column's comparison; True when nothing exact differs."""
    root_a, root_b = Path(root_a), Path(root_b)
    names_a = {p.relative_to(root_a).as_posix() for p in root_a.rglob("*.csv")}
    names_b = {p.relative_to(root_b).as_posix() for p in root_b.rglob("*.csv")}
    ok = True
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {root_a if name in names_a else root_b}")
        ok = False
    for name in sorted(names_a & names_b):
        header_a, rows_a = read_csv(root_a / name)
        header_b, rows_b = read_csv(root_b / name)
        if header_a != header_b:
            print(f"{name}: header {header_a} != {header_b}")
            ok = False
            continue
        if len(rows_a) != len(rows_b):
            print(f"{name}: {len(rows_a)} rows != {len(rows_b)} rows")
            ok = False
            continue
        for i, col in enumerate(header_a):
            kind, exact, detail = compare_column([r[i] for r in rows_a], [r[i] for r in rows_b])
            if kind == "float":
                print(f"{name} {col}: max abs {detail[0]:.3g}, max rel {detail[1]:.3g}")
            else:
                print(f"{name} {col} ({kind}): {'equal' if exact else f'{detail} rows differ'}")
            ok = ok and exact
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tree_a", help="first output tree")
    parser.add_argument("tree_b", help="second output tree")
    args = parser.parse_args()
    return 0 if compare_trees(args.tree_a, args.tree_b) else 1


if __name__ == "__main__":
    sys.exit(main())
