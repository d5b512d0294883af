"""Command-line interface: run experiments, list functions and presets.

Configuration precedence: built-in defaults < preset < config file < CLI
flags. The config file is INI-style with [experiment], [adadgs] and
[baseline] sections whose keys mirror the long CLI flags; an unknown
section or key is an error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys

from .harness import OPTIMIZERS, PRESETS, ExperimentSpec, list_functions, preset, run_experiment
from .optimizer import AdaDgsConfig

# flag/INI key -> (field it sets, parser); the flag is --key with "_" -> "-"
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
_BASELINE_FIELDS = {  # BaselineConfig fields, kept as ExperimentSpec.baseline_overrides
    "learning_rate": ("learning_rate", float),
    "sigma_or_h": ("sigma_or_h", float),
    "population": ("population", int),
}
_EXPERIMENT_KEYS = ("func", "dim", "optimizer", "trials", "budget", "seed", "out", "preset")
_SECTIONS = {"experiment": _EXPERIMENT_KEYS, "adadgs": _ADADGS_FIELDS,
             "baseline": _BASELINE_FIELDS}


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
    for section in ("adadgs", "baseline"):
        group = run.add_argument_group(f"{section} options")
        for key, (fld, parse) in _SECTIONS[section].items():
            group.add_argument("--" + key.replace("_", "-"), dest=key, type=parse,
                               help=f"sets {fld}")

    sub.add_parser("list", help="list benchmark functions")
    sub.add_parser("presets", help="list hyper-parameter presets")
    return p


def _read_config_file(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"{path}: unknown section [{section}]; "
                             f"expected one of {', '.join(_SECTIONS)}")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
    return {section: dict(parser[section]) for section in parser.sections()}


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    file_cfg = _read_config_file(args.config) if args.config else {}

    def pick(key, parse, section="experiment", required=False, default=None):
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            return parse(cli_val)
        if key in file_cfg.get(section, {}):
            try:
                return parse(file_cfg[section][key])
            except ValueError as exc:
                raise ValueError(f"{args.config}: [{section}] {key}: {exc}") from exc
        if required:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        return default

    def given(section):
        picked = {fld: pick(key, parse, section)
                  for key, (fld, parse) in _SECTIONS[section].items()}
        return {fld: val for fld, val in picked.items() if val is not None}

    preset_name = pick("preset", str)
    ada_cfg = preset(preset_name) if preset_name else AdaDgsConfig()
    return ExperimentSpec(
        function=pick("func", str, required=True),
        dim=pick("dim", int, required=True),
        optimizer=pick("optimizer", str, required=True),
        budget=pick("budget", int, required=True),
        trials=pick("trials", int, default=20),
        seed=pick("seed", int, default=0),
        out_dir=pick("out", str, default="results"),
        adadgs=dataclasses.replace(ada_cfg, **given("adadgs")),
        baseline_overrides=given("baseline"),
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
