"""Command-line interface: run experiments, list functions and presets.

Configuration precedence: built-in defaults < preset < CLI flags. A
malformed command line (a missing, unknown or wrongly typed flag) exits
with status 2; a well-formed run that is invalid or fails exits with 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .baselines import BaselineConfig
from .harness import (OPTIMIZERS, PRESETS, ExperimentSpec, changed_fields, list_functions,
                      preset, run_experiment)
from .optimizer import AdaDgsConfig

# flag -> (field it sets, parser); the flag is --key with "_" -> "-"
_ADADGS_FIELDS = {  # AdaDgsConfig fields
    "gh_points": ("M", int),
    "lmax": ("L_max", float),
    "lmin": ("L_min", float),
    "line_points": ("S", int),
    "sigma0": ("sigma0", float),
    "sigma0_scale": ("sigma0_scale", float),
    "gamma": ("gamma", float),
    "contraction": ("contraction", float),
    "reset_interval": ("reset_interval", int),
}
_BASELINE_FIELDS = {  # BaselineConfig fields
    "learning_rate": ("learning_rate", float),
    "sigma_or_h": ("sigma_or_h", float),
    "population": ("population", int),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="adadgs", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a multi-trial benchmark experiment")
    run.add_argument("--func", required=True, help="benchmark function name")
    run.add_argument("--dim", type=int, required=True, help="problem dimension")
    run.add_argument("--optimizer", choices=OPTIMIZERS, required=True)
    run.add_argument("--trials", type=int, default=ExperimentSpec.trials)
    run.add_argument("--budget", type=int, required=True, help="evaluation budget per trial")
    run.add_argument("--seed", type=int, default=ExperimentSpec.seed, help="master seed")
    run.add_argument("--out", default=ExperimentSpec.out_dir, help="output directory")
    run.add_argument("--preset", choices=PRESETS)
    for section, table in (("adadgs", _ADADGS_FIELDS), ("baseline", _BASELINE_FIELDS)):
        group = run.add_argument_group(f"{section} options")
        for key, (fld, parse) in table.items():
            group.add_argument("--" + key.replace("_", "-"), dest=key, type=parse,
                               help=f"sets {fld}")

    sub.add_parser("list", help="list benchmark functions")
    sub.add_parser("presets", help="list hyper-parameter presets")
    return p


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The preset, if one is named, with the flags that were given on top. A
    baseline reads no AdaDGS option, so `--preset` or an AdaDGS flag given to
    one is an error, whatever its value; the spec's `validate` checks the rest."""

    def given(table):
        return {fld: getattr(args, key) for key, (fld, _) in table.items()
                if getattr(args, key) is not None}

    adadgs_flags = ["--preset"] * (args.preset is not None) + [
        f"--{key.replace('_', '-')} (field {fld!r})"
        for key, (fld, _) in _ADADGS_FIELDS.items() if getattr(args, key) is not None]
    if adadgs_flags and args.optimizer != "adadgs":
        raise ValueError(f"optimizer {args.optimizer!r} does not read {adadgs_flags[0]}")
    ada_cfg = preset(args.preset) if args.preset else AdaDgsConfig()
    return ExperimentSpec(
        function=args.func,
        dim=args.dim,
        optimizer=args.optimizer,
        budget=args.budget,
        trials=args.trials,
        seed=args.seed,
        out_dir=args.out,
        adadgs=dataclasses.replace(ada_cfg, **given(_ADADGS_FIELDS)),
        baseline=BaselineConfig(**given(_BASELINE_FIELDS)),
    )


def cmd_run(args) -> int:
    spec = build_spec(args)
    summary = run_experiment(spec)
    final = summary["final"]
    print(f"wrote {spec.run_dir}")
    print(f"final f_best over {spec.trials} trials: "
          f"median {final['median_f_best']:.6g} "
          f"(median reduction {final['median_reduction']:.3e}x), "
          f"mean {final['mean_f_best']:.6g} +- {final['std_f_best']:.6g}")
    return 0


def cmd_list() -> int:
    rows = list_functions()
    width = max(len(r["name"]) for r in rows)
    print(f"{'name':<{width}}  {'domain':<18}  optimum")
    for r in rows:
        print(f"{r['name']:<{width}}  {r['domain']:<18}  {r['optimum']}")
    return 0


def cmd_presets() -> int:
    """Each preset's fields that differ from AdaDgsConfig()."""
    for name, cfg in PRESETS.items():
        changed = [f"{field}={getattr(cfg, field)}" for field in changed_fields(cfg)]
        print(f"{name}: {', '.join(changed)}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "list":
            return cmd_list()
        return cmd_presets()
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
