#!/usr/bin/env python3
"""Run every shipped config into a temporary directory and hash its artifacts.

Prints one ``<sha256>  <experiment>/<file>`` line per artifact, sorted, in
the format ``sha256sum`` uses. Save the output of one tree and compare
another against it:

    python scripts/artifact_hashes.py > hashes.txt
    python scripts/artifact_hashes.py --check hashes.txt

With ``--check`` the script exits 1 and names every artifact whose hash
differs from the file, is missing from it, or is missing from the run. The
configs run through ``run_all_experiments.py`` with this checkout's ``src/``.
Set ``OPENBLAS_NUM_THREADS`` to compare runs at a given BLAS thread count.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tree_hashes(root) -> dict:
    """{"<experiment>/<file>": sha256 hex} of every artifact under root."""
    root = Path(root)
    return {
        f.relative_to(root).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(root.glob("*/*"))
    }


def read_hashes(path) -> dict:
    """{"<experiment>/<file>": sha256 hex} of a saved hash list."""
    lines = Path(path).read_text().splitlines()
    return {name: digest for digest, name in (line.split(maxsplit=1) for line in lines if line.strip())}


def mismatches(hashes: dict, expected: dict) -> list:
    """Sorted names whose hash differs, or that only one side has."""
    return [name for name in sorted(set(hashes) | set(expected)) if hashes.get(name) != expected.get(name)]


def artifact_hashes() -> dict:
    """{"<experiment>/<file>": sha256 hex} over every shipped config."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_all_experiments.py"),
             "--configs", str(ROOT / "configs"), "--out", tmp],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        return tree_hashes(tmp)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", metavar="FILE", help="compare against a saved hash list")
    args = parser.parse_args()

    hashes = artifact_hashes()
    for name, digest in hashes.items():
        print(f"{digest}  {name}")
    if args.check is None:
        return 0

    expected = read_hashes(args.check)
    bad = mismatches(hashes, expected)
    for name in bad:
        print(f"MISMATCH {name}: {hashes.get(name, 'not produced')} != {expected.get(name, 'not listed')}",
              file=sys.stderr)
    print(f"{len(bad)} mismatches" if bad else f"all {len(hashes)} artifacts match", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
