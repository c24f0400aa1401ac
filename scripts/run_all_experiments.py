#!/usr/bin/env python3
"""Run every shipped config and collect the artifacts under one directory."""

import argparse
import json
import sys
from pathlib import Path

from nfisac.config import ConfigError, load_config
from nfisac.experiments import run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", default="configs", help="directory of YAML scenarios")
    parser.add_argument("--out", default="out", help="root output directory")
    args = parser.parse_args()

    config_dir = Path(args.configs)
    out_root = Path(args.out)
    paths = sorted(config_dir.glob("*.yaml"))
    if not paths:
        print(f"no .yaml files under {config_dir}", file=sys.stderr)
        return 2

    for path in paths:
        try:
            cfg = load_config(path)
        except ConfigError as exc:
            print(str(exc.report), file=sys.stderr)
            return 2
        outdir = out_root / cfg.name
        result = run_experiment(cfg, outdir)
        print(f"[{cfg.name}] -> {outdir}")
        print(json.dumps(result.summary, indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
