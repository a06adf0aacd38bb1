"""Command-line front end.

Subcommands:
    run     advance a scenario, write run.csv / run.json
    bounds  evaluate the closed-form lifespan bounds only (no simulation)
    mms     manufactured-solution convergence study over a list of grids

Exit codes: 0 Completed, 1 Error, 2 BlowupDetected, 3 Invalidated.

Only `run` and `mms` import the run loop (`harness`, and through it the
solver), so `bounds` loads the configuration, scenario and diagnostics
modules alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import (apply_overrides, build_config, load_preset_text,
                     parse_pairs)
from .core import init_scenario
from .diagnostics import (bound_template, lifespan_bound, optimize_alpha,
                          total_energy)
from .errors import MHDLabError


def _load_config(args) -> "ScenarioConfig":
    if args.config is None and args.preset is None:
        raise MHDLabError("provide a config file or --preset NAME")
    if args.config is not None and args.preset is not None:
        raise MHDLabError("provide either a config file or --preset, not both")
    if args.preset is not None:
        text = load_preset_text(args.preset)
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    pairs = parse_pairs(text)
    pairs = apply_overrides(pairs, args.override or [])
    return build_config(pairs)


def _cmd_run(args) -> int:
    from .harness import EXIT_CODES, RunStatus, run

    cfg = _load_config(args)
    out_dir = args.out or cfg.output_dir or "."
    result = run(cfg, out_dir=out_dir)
    print(f"status={result.status.value} t_final={result.outcome.t_final:.6g}"
          + (f" T_detected={result.outcome.T_detected:.6g}"
             if result.outcome.T_detected is not None else ""))
    if result.status is RunStatus.ERROR:
        summary = result.outcome.summary
        reason = summary.get("error") or summary.get("invalid_reason")
        print(f"error: {reason}", file=sys.stderr)
    return EXIT_CODES[result.status]


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    state, front = init_scenario(cfg)
    grid = cfg.grid()
    e0 = total_energy(state, grid, cfg.phys)
    if front is None:
        raise MHDLabError("bounds needs a scenario with a vacuum region (vacuum.r0)")
    template = bound_template(cfg, front.C0, e0)
    alpha_star, t_star = optimize_alpha(template)
    doc = {
        "C0": front.C0,
        "E0": e0,
        "alpha_star": alpha_star,
        "T_bound": t_star,
    }
    if cfg.geometry.is_free:
        doc["C_envelope"] = template.R_ref
    if cfg.alpha is not None:
        doc["alpha"] = cfg.alpha
        doc["T_bound_at_alpha"] = lifespan_bound(
            dataclasses.replace(template, alpha=cfg.alpha))
    print(json.dumps(doc, indent=2))
    return 0


def _grid_sizes(text: str) -> list:
    """The distinct integer grid sizes of a comma-separated --n list."""
    sizes = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            n = int(tok)
        except ValueError:
            raise MHDLabError(f"--n: {tok!r} is not an integer grid size") from None
        if n in sizes:
            raise MHDLabError(f"--n: grid size {n} is listed twice")
        sizes.append(n)
    if not sizes:
        raise MHDLabError("--n needs a comma-separated list of grid sizes")
    return sizes


def _cmd_mms(args) -> int:
    from .harness import convergence_study, format_convergence_table

    cfg = _load_config(args)
    n_list = _grid_sizes(args.n)
    rows = convergence_study(cfg, n_list)
    print(format_convergence_table(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mhdlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("config", nargs="?", default=None,
                        help="scenario file (or use --preset)")
        sp.add_argument("--preset", default=None,
                        help="named built-in scenario")
        sp.add_argument("--override", action="append", metavar="KEY=VALUE",
                        help="override a config key")

    sp = sub.add_parser("run", help="simulate a scenario")
    common(sp)
    sp.add_argument("--out", default=None, help="output directory")
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("bounds", help="closed-form lifespan bounds only")
    common(sp)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("mms", help="manufactured-solution convergence study")
    common(sp)
    sp.add_argument("--n", required=True, help="comma-separated grid sizes")
    sp.set_defaults(func=_cmd_mms)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MHDLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
