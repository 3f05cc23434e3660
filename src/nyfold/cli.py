"""Command line front end.

``nyfold EXPERIMENT`` resolves the preset configuration for the chosen scale,
overlays an optional INI file, runs the experiment, and writes ``results.csv``
plus ``manifest.txt`` (and SVG plots with ``--plots``) into the output
directory. Exit codes: 0 success, 2 configuration error, a run that runs out
of memory or an output directory that cannot be written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .experiments import (
    EXPERIMENTS,
    SCALES,
    RUNNERS,
    ConfigError,
    load_config_file,
    resolve_config,
    write_outputs,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nyfold",
        description=(
            "Seeded experiments for modulated non-uniform sampling of sparse "
            "wideband spectra."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument(
        "--config",
        metavar="INI",
        default=None,
        help="INI file overriding preset values (unknown keys are rejected)",
    )
    parser.add_argument("--seed", type=int, default=1234567, help="master seed")
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="output directory (default results/<experiment>)",
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="desk",
        help="preset scale: full operating point or reduced desk run",
    )
    parser.add_argument(
        "--plots", action="store_true", help="also write SVG plots of the results"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = load_config_file(args.config) if args.config else {}
        config = resolve_config(args.experiment, args.scale, overrides)
    except (ConfigError, ValueError) as exc:
        print(f"nyfold: config error: {exc}", file=sys.stderr)
        return 2

    runner = RUNNERS[args.experiment]
    try:
        manifest = runner(config, args.seed, args.scale)
    except ConfigError as exc:
        print(f"nyfold: config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes such as [grid] n_points set every array's size
        print(f"nyfold: config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        print(f"nyfold: numerical failure: {exc}", file=sys.stderr)
        return 3

    out_dir = Path(args.out) if args.out else Path("results") / args.experiment
    try:
        written = write_outputs(manifest, out_dir, plots=args.plots)
    except OSError as exc:
        print(f"nyfold: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    print(f"{args.experiment} ({args.scale} scale, seed {args.seed}): "
          f"{len(manifest.records)} records in {manifest.wall_clock_s:.2f}s")
    for key, value in manifest.notes.items():
        print(f"  {key} = {value}")
    for path in written:
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
