"""Golden outputs: the committed sha256 of each trial CSV and of summary.json,
and the manifest's `config`, for a set of small runs. A change that moves any
trajectory by one ulp changes a hash.

The runs cover the four optimizers, the serial and the threaded block paths
of a `Lines` batch, the identity frame every AdaDGS and `fd` trial starts
from, frame resets (AdaDGS's default config) and the process pool. The hashes
hold for the software recorded beside them; where the running software
differs, the test skips and names the first field that differs.

After a change that moves the outputs on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import hashlib
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from adadgs import harness
from adadgs.harness import ExperimentSpec, preset, run_experiment

GOLDEN = Path(__file__).with_name("golden_outputs.json")

PAPER = preset("paper-1000d")
# name: (ADADGS_WORKERS, spec); paper-1000d has 4*d stencil points, so a d=200
# stencil (160,000 coordinates) and a d=300 one (360,000) are evaluated in
# threads, and a d=100 stencil (40,000) and every line search serially
RUNS = {
    "adadgs-default-rastrigin-100-pooled": (2, ExperimentSpec(
        "rastrigin", 100, "adadgs", 50_000, trials=2, seed=3)),
    "adadgs-paper-ackley-200": (1, ExperimentSpec(
        "ackley", 200, "adadgs", 1 + 3 * (4 * 200 + 200), trials=1, seed=5, adadgs=PAPER)),
    "adadgs-paper-ackley-300": (1, ExperimentSpec(
        "ackley", 300, "adadgs", 1 + 2 * (4 * 300 + 200), trials=1, seed=6, adadgs=PAPER)),
    "adadgs-paper-rastrigin-20": (1, ExperimentSpec(
        "rastrigin", 20, "adadgs", 6_000, trials=2, seed=7, adadgs=PAPER)),
    **{f"{optimizer}-rastrigin-10": (1, ExperimentSpec(
        "rastrigin", 10, optimizer, 3_000, trials=2, seed=9))
       for optimizer in ("es_bpop", "nesterov", "fd")},
}


def software() -> dict:
    """The software the hashes hold for: the float64 cosine is libm's, and
    numpy's SIMD dispatch and BLAS set the rounding of the rest."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": harness.hardware()["simd"], "libc": " ".join(platform.libc_ver())}


def outputs(out_dir: Path, setenv) -> dict:
    """Run every spec of RUNS under `out_dir`; per run, the manifest's config
    and the sha256 of each trial CSV and of summary.json."""
    runs = {}
    for name, (workers, spec) in RUNS.items():
        spec = dataclasses.replace(spec, out_dir=str(out_dir / name))
        setenv("ADADGS_WORKERS", str(workers))
        run_experiment(spec)
        files = [f"trial_{k}.csv" for k in range(spec.trials)] + ["summary.json"]
        runs[name] = {
            "config": json.loads((spec.run_dir / "manifest.json").read_text())["config"],
            "sha256": {f: hashlib.sha256((spec.run_dir / f).read_bytes()).hexdigest()
                       for f in files}}
    return runs


def test_outputs_match_the_golden_hashes(tmp_path, monkeypatch):
    golden, running = json.loads(GOLDEN.read_text()), software()
    differs = next((key for key, value in golden["software"].items()
                    if running.get(key) != value), None)
    if differs is not None:
        pytest.skip(f"the golden hashes hold for {differs} {golden['software'][differs]!r}, "
                    f"not {running.get(differs)!r}")
    assert outputs(tmp_path, monkeypatch.setenv) == golden["runs"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = outputs(Path(tmp), os.environ.__setitem__)
    GOLDEN.write_text(json.dumps({"software": software(), "runs": runs}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
