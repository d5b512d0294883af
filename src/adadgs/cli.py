"""Command-line interface: run experiments, list functions and presets.

Configuration precedence: built-in defaults < preset < config file < CLI
flags. The config file is INI-style with [experiment], [adadgs] and
[baseline] sections whose keys mirror the long CLI flags.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys

from .harness import OPTIMIZERS, PRESETS, ExperimentSpec, list_functions, preset, run_experiment
from .optimizer import AdaDgsConfig

_ADADGS_FIELDS = {
    # flag/config key -> (AdaDgsConfig field, parser)
    "gh_points": ("M", int),
    "lmax": ("L_max", float),
    "lmin": ("L_min", float),
    "line_points": ("S", int),
    "sigma0": ("sigma0", float),
    "sigma0_scale": ("sigma0_scale", float),
    "gamma": ("gamma", float),
    "contraction": ("contraction", float),
    "reset_interval": ("reset_interval", int),
    "radius_update": ("radius_update_uses", str),
    "initial_frame": ("initial_frame", str),
    "skip_zero_node": ("skip_zero_node", lambda s: str(s).lower() in ("1", "true", "yes")),
}

_BASELINE_FIELDS = {
    "learning_rate": float,
    "sigma_or_h": float,
    "population": int,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="adadgs", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a multi-trial benchmark experiment")
    run.add_argument("--func", help="benchmark function name")
    run.add_argument("--dim", type=int, help="problem dimension")
    run.add_argument("--optimizer", choices=OPTIMIZERS)
    run.add_argument("--trials", type=int)
    run.add_argument("--budget", type=int, help="evaluation budget per trial")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument("--out", help="output directory")
    run.add_argument("--config", help="INI config file; CLI flags override it")
    run.add_argument("--preset", choices=PRESETS)
    grp = run.add_argument_group("adadgs options")
    grp.add_argument("--gh-points", type=int, dest="gh_points")
    grp.add_argument("--lmax", type=float)
    grp.add_argument("--lmin", type=float)
    grp.add_argument("--line-points", type=int, dest="line_points")
    grp.add_argument("--sigma0", type=float)
    grp.add_argument("--sigma0-scale", type=float, dest="sigma0_scale")
    grp.add_argument("--gamma", type=float)
    grp.add_argument("--contraction", type=float)
    grp.add_argument("--reset-interval", type=int, dest="reset_interval")
    grp.add_argument("--radius-update", choices=("distance", "learning_rate"),
                     dest="radius_update")
    grp.add_argument("--initial-frame", choices=("identity", "random"),
                     dest="initial_frame")
    grp.add_argument("--skip-zero-node", dest="skip_zero_node",
                     choices=("true", "false"))
    bl = run.add_argument_group("baseline options")
    bl.add_argument("--learning-rate", type=float, dest="learning_rate")
    bl.add_argument("--sigma-or-h", type=float, dest="sigma_or_h")
    bl.add_argument("--population", type=int)

    sub.add_parser("list", help="list benchmark functions")
    sub.add_parser("presets", help="list hyper-parameter presets")
    return p


def _read_config_file(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    return {section: dict(parser[section]) for section in parser.sections()}


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    file_cfg = _read_config_file(args.config) if args.config else {}
    exp_file = file_cfg.get("experiment", {})
    ada_file = file_cfg.get("adadgs", {})
    base_file = file_cfg.get("baseline", {})

    def pick(key, parse, file_section, required=False, default=None):
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            return parse(cli_val)
        if key in file_section:
            return parse(file_section[key])
        if required:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        return default

    preset_name = pick("preset", str, exp_file)
    ada_cfg = preset(preset_name) if preset_name else AdaDgsConfig()

    overrides = {}
    for key, (fld, parse) in _ADADGS_FIELDS.items():
        val = pick(key, parse, ada_file)
        if val is not None:
            overrides[fld] = val
    if overrides:
        ada_cfg = dataclasses.replace(ada_cfg, **overrides)

    baseline = {}
    for key, parse in _BASELINE_FIELDS.items():
        val = pick(key, parse, base_file)
        if val is not None:
            baseline[key] = val

    return ExperimentSpec(
        function=pick("func", str, exp_file, required=True),
        dim=pick("dim", int, exp_file, required=True),
        optimizer=pick("optimizer", str, exp_file, required=True),
        budget=pick("budget", int, exp_file, required=True),
        trials=pick("trials", int, exp_file, default=20),
        seed=pick("seed", int, exp_file, default=0),
        out_dir=pick("out", str, exp_file, default="results"),
        adadgs=ada_cfg,
        baseline_overrides=baseline,
    )


def cmd_run(args) -> int:
    spec = build_spec(args)
    summary = run_experiment(spec)
    final = summary["final"]
    print(f"wrote {spec.run_dir}")
    print(f"final f_best over {spec.trials} trials: "
          f"median {final['median_f_best']:.6g}, "
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
    for name in PRESETS:
        cfg = preset(name)
        print(f"{name}: M={cfg.M}, S={cfg.S}, contraction={cfg.contraction}, "
              f"gamma={cfg.gamma}, sigma0={cfg.sigma0_scale}*width, "
              f"L_max=domain diagonal")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "list":
            return cmd_list()
        return cmd_presets()
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
