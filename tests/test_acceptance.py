"""End-to-end acceptance checks for the full optimizer stack.

Each test covers one release criterion and emits a single PASS line on
success (run with ``pytest -s`` to see them; a failed assertion means the
line is never printed and pytest reports the failure instead).
"""
import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor  # noqa: F401 (parallel check below)

import numpy as np
import pytest

from adadgs.benchmarks import BENCHMARKS, Objective, make_benchmark, optimum_value
from adadgs.gradient import Frame, dgs_gradient
from adadgs.harness import (
    ExperimentSpec,
    parse_trace_csv,
    preset,
    run_experiment,
)
from adadgs.optimizer import (
    AdaDgsConfig,
    adadgs_minimize,
    line_search,
    random_rotation,
    sigma_update,
)
from adadgs.gradient import gauss_hermite_rule


def report(n: int, msg: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {msg}")


def gaussian_moment(k: int) -> float:
    # integral of v^k exp(-v^2) dv over the real line
    return 0.0 if k % 2 else math.gamma((k + 1) / 2.0)


def test_criterion_1_quadrature_exactness():
    t0 = time.perf_counter()
    checked = 0
    for m in range(1, 11):
        rule = gauss_hermite_rule(m)
        for k in range(2 * m):
            got = float(np.sum(rule.weights * rule.nodes**k))
            want = gaussian_moment(k)
            if k % 2 == 0:
                assert abs(got - want) <= 1e-10 * abs(want)
            else:
                # exact value is 0; bound the summation rounding noise
                noise = np.sum(np.abs(rule.weights * rule.nodes**k))
                assert abs(got) <= 1e-10 * noise + 1e-300
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"{checked} moment identities exact to rel 1e-10 in {elapsed:.3f}s")


def test_criterion_2_dgs_gradient_on_quadratics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for case in range(50):
        d = int(rng.integers(2, 21))
        A = rng.normal(size=(d, d))
        A = 0.5 * (A + A.T)
        F = Objective(
            lambda X, A=A: 0.5 * np.einsum("ni,ij,nj->n", X, A, X), d, (-10, 10)
        )
        x = rng.normal(size=d) * rng.uniform(0.5, 3.0)
        frame = random_rotation(d, rng)
        sigma = float(rng.uniform(0.05, 10.0))
        m = int(rng.choice([2, 3, 5]))
        g = dgs_gradient(F, x, frame, sigma, gauss_hermite_rule(m))
        want = A @ x
        assert np.linalg.norm(g - want) <= 1e-8 * max(np.linalg.norm(want), 1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"50 random quadratics matched A@x to rel 1e-8 in {elapsed:.2f}s")


def test_criterion_3_line_search_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    matched = 0
    for case in range(100):
        d = int(rng.integers(1, 8))
        A = rng.normal(size=(d, d))
        A = A @ A.T + np.eye(d)
        b = rng.normal(size=d)
        F = Objective(
            lambda X, A=A, b=b: np.einsum("ni,ij,nj->n", X, A, X) + X @ b,
            d, (-10, 10),
        )
        x = rng.normal(size=d) * 2
        g = rng.normal(size=d)
        L_max = float(rng.uniform(0.5, 10.0))
        L_min = L_max * float(rng.uniform(1e-4, 0.1))
        S = int(rng.integers(3, 40))
        f_x = float(F(x))
        res = line_search(F, x, g, L_max, L_min, S, f_x=f_x)
        rho = (L_min / L_max) ** (1.0 / (S - 1))
        ghat = g / np.linalg.norm(g)
        vals = [float(F(x - L_max * rho**j * ghat)) for j in range(S)]
        if min(vals) < f_x:
            assert res.j == int(np.argmin(vals))  # argmin ties -> smallest j
        else:
            assert res.j is None and res.step_distance == 0.0
        matched += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, f"{matched}/100 line searches matched brute force in {elapsed:.2f}s")


def test_criterion_4_benchmark_optima():
    t0 = time.perf_counter()
    checked = 0
    for name in sorted(BENCHMARKS):
        for d in (10, 100):
            want = optimum_value(name, d)
            tol = 1e-3 * d if name == "styblinski_tang" else 1e-9 * max(1, d)
            for seed in range(10):
                b = make_benchmark(name, d, seed)
                assert abs(float(b(b.x_opt)) - want) <= tol
                checked += 1
    # headline large-dimension value for the shifted-minimum function
    b = make_benchmark("styblinski_tang", 1000, 0)
    want = optimum_value("styblinski_tang", 1000)
    assert abs(want - (-39166.0)) < 1.0
    assert abs(float(b(b.x_opt)) - want) <= 1e-3 * 1000
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, f"{checked} optimum checks plus d=1000 value -39166 in {elapsed:.2f}s")


def _median_final(tmp_path, function, optimizer, dim=100, budget=300_000,
                  trials=20, seed=0):
    # a baseline reads only its own config, so it takes AdaDgsConfig()
    spec = ExperimentSpec(
        function=function, dim=dim, optimizer=optimizer, budget=budget,
        trials=trials, seed=seed, out_dir=str(tmp_path),
        adadgs=preset("paper-1000d") if optimizer == "adadgs" else AdaDgsConfig(),
    )
    return run_experiment(spec)["final"]["median_f_best"]


@pytest.mark.slow
def test_criterion_5_multimodal_contrast(tmp_path):
    t0 = time.perf_counter()
    medians = {}
    for function, bound in (("ackley", 1e-1), ("rastrigin", 10.0)):
        for optimizer in ("adadgs", "fd", "es_bpop"):
            medians[function, optimizer] = _median_final(
                tmp_path / optimizer, function, optimizer
            )
        assert medians[function, "adadgs"] < bound
        assert medians[function, "fd"] > medians[function, "adadgs"]
        assert medians[function, "es_bpop"] > medians[function, "adadgs"]
    elapsed = time.perf_counter() - t0
    report(
        5,
        "d=100, 20 trials, 3e5 evals: Ackley medians "
        f"adadgs={medians['ackley', 'adadgs']:.2e} "
        f"fd={medians['ackley', 'fd']:.3g} es={medians['ackley', 'es_bpop']:.3g}; "
        "Rastrigin "
        f"adadgs={medians['rastrigin', 'adadgs']:.3g} "
        f"fd={medians['rastrigin', 'fd']:.3g} es={medians['rastrigin', 'es_bpop']:.3g} "
        f"({elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_6_dimension_scaling(tmp_path):
    t0 = time.perf_counter()
    ratios = {}
    for d in (200, 400):
        spec = ExperimentSpec(
            function="ackley", dim=d, optimizer="adadgs", budget=3000 * d,
            trials=5, seed=0, out_dir=str(tmp_path / str(d)),
            adadgs=preset("paper-1000d"),
        )
        run_experiment(spec)
        per_trial = []
        for k in range(5):
            trace = parse_trace_csv(
                (spec.run_dir / f"trial_{k}.csv").read_text()
            )
            rows = list(trace)
            per_trial.append(rows[0].f_best / max(rows[-1].f_best, 1e-300))
        ratios[d] = float(np.median(per_trial))
        assert ratios[d] >= 1e4
    elapsed = time.perf_counter() - t0
    report(
        6,
        "Ackley median reduction "
        f"d=200: {ratios[200]:.2e}x, d=400: {ratios[400]:.2e}x "
        f"(budget 3000*d, {elapsed:.0f}s)",
    )


def test_criterion_7_byte_identical_csvs(tmp_path, monkeypatch):
    def run(sub, workers=None):
        if workers is not None:
            monkeypatch.setenv("ADADGS_WORKERS", str(workers))
        else:
            monkeypatch.delenv("ADADGS_WORKERS", raising=False)
        spec = ExperimentSpec(
            function="rastrigin", dim=6, optimizer="adadgs", budget=800,
            trials=4, seed=11, out_dir=str(tmp_path / sub),
        )
        run_experiment(spec)
        return [
            (spec.run_dir / f"trial_{k}.csv").read_bytes() for k in range(4)
        ]

    serial1 = run("serial1")
    serial2 = run("serial2")
    parallel = run("parallel", workers=2)
    assert serial1 == serial2 == parallel
    report(7, "4-trial experiment byte-identical across reruns and 2-worker pool")


def test_criterion_8_invariant_battery():
    cases = 0
    rng = np.random.default_rng(8)

    # quadrature invariants
    for i in range(250):
        m = 1 + i % 64
        rule = gauss_hermite_rule(m)
        assert np.all(rule.weights > 0)
        assert abs(np.sum(rule.weights) - math.sqrt(math.pi)) < 1e-12
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        cases += 1

    # frame orthonormality after random rotation
    for _ in range(250):
        d = int(rng.integers(1, 31))
        M = random_rotation(d, rng).matrix
        assert np.max(np.abs(M @ M.T - np.eye(d))) <= 1e-10
        cases += 1

    # sigma update stays positive and between its operands
    for _ in range(200):
        sigma = float(rng.uniform(1e-8, 1e6))
        step = float(rng.uniform(0.0, 1e6))
        new = sigma_update(sigma, step)
        assert new > 0
        assert min(sigma, step) - 1e-300 <= new <= max(sigma, step) + 1e-300
        cases += 1

    # full mini-runs: monotone best, positive sigma, exact eval accounting
    for _ in range(250):
        d = int(rng.integers(2, 5))
        A = rng.normal(size=(d, d))
        A = A @ A.T + 0.1 * np.eye(d)
        F = Objective(
            lambda X, A=A: np.einsum("ni,ij,nj->n", X, A, X), d, (-10, 10)
        )
        x0 = rng.uniform(-3, 3, d)
        cfg = AdaDgsConfig(
            M=int(rng.choice([2, 3])), T_max=2,
            gamma=float(rng.choice([0.0, 1e-3])), seed=int(rng.integers(2**31)),
        )
        _, f_best, trace = adadgs_minimize(F, x0, cfg)
        rows = list(trace)
        assert all(a.f_best >= b.f_best for a, b in zip(rows, rows[1:]))
        assert all(r.sigma > 0 for r in rows)
        assert rows[-1].evals == F.evals
        assert f_best == rows[-1].f_best
        cases += 1

    # positive scaling (power of two) leaves the iterate sequence unchanged
    for _ in range(60):
        d = int(rng.integers(2, 4))
        A = rng.normal(size=(d, d))
        A = A @ A.T + 0.5 * np.eye(d)
        x0 = rng.uniform(-3, 3, d)
        seed = int(rng.integers(2**31))

        def run(c):
            F = Objective(
                lambda X, A=A: c * np.einsum("ni,ij,nj->n", X, A, X), d, (-10, 10)
            )
            return adadgs_minimize(
                F, x0, AdaDgsConfig(M=3, T_max=2, gamma=0.0, seed=seed)
            )

        x1, f1, t1 = run(1.0)
        x2, f2, t2 = run(2.0)
        assert np.array_equal(x1, x2)
        assert f2 == 2.0 * f1
        assert [r.step for r in t1] == [r.step for r in t2]
        cases += 1

    assert cases >= 1000
    report(8, f"{cases} randomized invariant cases all hold")
