"""Command-line front end.

Subcommands: simulate (one chain, trace output), rho (correlation
series or bounds along the activity grid), moments (reference and
limit constants), experiment (the numbered drivers e1..e4).  All take
a flat key-value config file and run through the harness; outputs land
in --out as trace or results (.csv or .json) plus a manifest.json with
checksums.
"""

from __future__ import annotations

import argparse
import sys

from .harness import build_experiment_config, parse_config, run_experiment


def _summary(command: str, res: dict) -> None:
    diag = res["chain"]
    if diag is not None:
        n_mean, n_se = diag.n_mean_se()
        g_mean, g_se = diag.g_mean_se(diag.d)
        print(f"retained {diag.n_retained} states "
              f"(birth rate {diag.birth_rate:.3f}, "
              f"death rate {diag.death_rate:.3f})")
        print(f"mean count {n_mean:.4f} +- {n_se:.4f}; "
              f"mean G_{diag.d} {g_mean:.4g} +- {g_se:.4g}")
    kind = ""
    if command == "rho":
        kind = " (series)" if "series" in res["header"] else " (bounds)"
    print(f"{command}: {len(res['rows'])} rows{kind} -> {res['results']}")
    print(f"manifest -> {res['manifest']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="facetproc",
        description="Facet-process simulation and numerical checks")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "rho", "moments", "experiment"):
        sub = subs.add_parser(name)
        if name == "experiment":
            sub.add_argument("id", choices=("e1", "e2", "e3", "e4"))
        sub.add_argument("--config", required=True,
                         help="key-value config file")
        sub.add_argument("--seed", type=int, default=0, help="master seed")
        sub.add_argument("--out", default="facetproc-out",
                         help="output directory")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--threads", type=int, default=1,
                         help="worker threads for experiment tasks")
    args = parser.parse_args(argv)
    command = getattr(args, "id", args.command)
    try:
        cfg = build_experiment_config(command, parse_config(args.config),
                                      args.out, args.seed)
        res = run_experiment(cfg, threads=args.threads, fmt=args.format)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _summary(command, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
