import ast
import dataclasses
import functools
import gc
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadgs import benchmarks, optimizer
from adadgs.benchmarks import (
    BENCHMARKS,
    Lines,
    Objective,
    TransformedBenchmark,
    haar_rotation,
    make_benchmark,
    optimum_value,
)
from adadgs.harness import blas_threads
from adadgs.optimizer import AdaDgsConfig, adadgs_minimize, random_rotation

DOMAINS = {
    "ackley": (-32.768, 32.768),
    "alpine": (-10.0, 10.0),
    "ellipsoidal": (-2.0, 2.0),
    "quintic": (-10.0, 10.0),
    "rastrigin": (-5.12, 5.12),
    "rosenbrock": (-5.0, 10.0),
    "schaffer_f7": (-100.0, 100.0),
    "sharp_ridge": (-10.0, 10.0),
    "salomon": (-100.0, 100.0),
    "styblinski_tang": (-5.0, 5.0),
    "trigonometric": (-500.0, 500.0),
    "wavy": (-np.pi, np.pi),
}


def base_value(name, z):
    """The untransformed base function of a benchmark at z, one point or a batch."""
    z = np.asarray(z, float)
    if z.ndim == 1:
        return float(BENCHMARKS[name].fn(z[None, :])[0])
    return BENCHMARKS[name].fn(z)


def rows(X):
    """The rows of an (n, d) array as one `Lines` batch: 0 + 1 * X is X."""
    return Lines(np.zeros(X.shape[1]), X, np.ones(1))


def test_registry_names_and_domains():
    assert set(BENCHMARKS) == set(DOMAINS)
    for name, (lo, hi) in DOMAINS.items():
        assert BENCHMARKS[name].lower == lo
        assert BENCHMARKS[name].upper == hi


# --- base function point values ---------------------------------------------


def test_rastrigin_zero():
    assert base_value("rastrigin", np.zeros(6)) == 0.0


def test_quintic_roots():
    assert base_value("quintic", np.array([-1.0, 2.0])) == pytest.approx(0.0, abs=1e-12)


def test_alpine_hand_value():
    z = np.ones(10)
    assert base_value("alpine", z) == pytest.approx(10 * abs(np.sin(1.0) + 0.1), rel=1e-12)
    assert base_value("alpine", z) == pytest.approx(9.414709848, abs=1e-8)


def test_ackley_zero():
    assert base_value("ackley", np.zeros(4)) == pytest.approx(0.0, abs=1e-12)


def test_styblinski_optimum_value():
    d = 10
    z = np.full(d, -2.903534)
    assert base_value("styblinski_tang", z) == pytest.approx(optimum_value("styblinski_tang", d), abs=1e-9)
    assert optimum_value("styblinski_tang", d) == pytest.approx(-39.166 * d, abs=1e-3 * d)


def test_trigonometric_optimum():
    assert base_value("trigonometric", np.full(7, 0.9)) == pytest.approx(1.0, abs=1e-12)


def test_rosenbrock_at_ones():
    assert base_value("rosenbrock", np.ones(5)) == 0.0


def test_sharp_ridge_formula():
    z = np.array([2.0, 3.0, 4.0])
    assert base_value("sharp_ridge", z) == pytest.approx(4.0 + 100.0 * 5.0, rel=1e-12)


def test_schaffer_no_wraparound():
    # the pair sum runs i = 1..d-1 only; last and first coordinates never pair
    z = np.array([0.0, 0.0, 3.0])
    s = [np.sqrt(0.0), np.sqrt(9.0)]
    expected = sum(np.sqrt(si) * (1 + np.sin(50 * si**0.2) ** 2) for si in s) ** 2 / 2
    assert base_value("schaffer_f7", z) == pytest.approx(expected, rel=1e-12)


def test_wavy_value():
    z = np.zeros(3)
    assert base_value("wavy", z) == pytest.approx(0.0, abs=1e-12)
    z = np.array([np.pi / 10])  # cos(10z) = cos(pi) = -1
    want = 1.0 + np.exp(-((np.pi / 10) ** 2) / 2)
    assert base_value("wavy", z) == pytest.approx(want, rel=1e-12)


def test_salomon_ring():
    # any z with |z| = 1 gives 1 - cos(2 pi) + 0.1 = 0.1
    z = np.array([0.6, 0.8])
    assert base_value("salomon", z) == pytest.approx(0.1, rel=1e-12)


def test_ellipsoidal_conditioning():
    z = np.zeros(11)
    z[-1] = 1.0
    assert base_value("ellipsoidal", z) == pytest.approx(1e6, rel=1e-12)


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        make_benchmark("sphere", 5, 0)


def test_dimension_too_small():
    with pytest.raises(ValueError):
        make_benchmark("ackley", 1, 0)


# --- transformed benchmarks ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("d", [10, 100])
def test_optimum_at_x_opt(name, d):
    for seed in range(3):
        b = make_benchmark(name, d, seed)
        tol = 1e-3 * d if name == "styblinski_tang" else 1e-9
        assert b(b.x_opt) == pytest.approx(optimum_value(name, d), abs=tol)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_optimum_independent_of_rotation(name):
    d = 10
    vals = [make_benchmark(name, d, seed)(make_benchmark(name, d, seed).x_opt)
            for seed in range(10)]
    np.testing.assert_allclose(vals, optimum_value(name, d), atol=1e-9 * max(1, d))


def test_x_opt_inside_central_domain():
    for seed in range(5):
        b = make_benchmark("rosenbrock", 20, seed)
        lo, hi = b.lower, b.upper
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        assert np.all(b.x_opt >= c - 0.8 * h) and np.all(b.x_opt <= c + 0.8 * h)


def test_rotation_orthonormal():
    b = make_benchmark("ackley", 30, 4)
    assert np.max(np.abs(b.rotation @ b.rotation.T - np.eye(30))) < 1e-10


BLOCK = benchmarks.TRANSPOSE_BLOCK


@pytest.mark.parametrize("d,seed", [(d, seed) for d in (1, 2, 3, 7, 100, 129, 257)
                                    for seed in (0, 1, 2)] + [(1000, 0)]
                         + [(d, 0) for d in (BLOCK - 1, BLOCK, BLOCK + 1)])
def test_haar_rotation_is_the_bits_of_numpys_qr(d, seed, monkeypatch):
    # haar_rotation calls the LAPACK routines of numpy's OpenBLAS itself; this
    # pins them to the public np.linalg.qr, so a numpy that changes its QR, or
    # the work size it passes, fails here. Without the routines it falls back
    # to np.linalg.qr, which the second draw pins. d around the in-place
    # transpose's block size ends the buffer in a full, a one-wide and a
    # one-short block
    with blas_threads():
        Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
        expected = Q * np.sign(np.diag(R))
        lapack = haar_rotation(d, np.random.default_rng(seed))
        monkeypatch.setattr(benchmarks, "openblas_function", lambda name: None)
        fallback = haar_rotation(d, np.random.default_rng(seed))
    for got in (lapack, fallback):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("path", ["lapack", "fallback"])
def test_a_haar_rotation_of_no_dimension_is_a_value_error_on_both_paths(path, monkeypatch,
                                                                        capfd):
    # d=0 made LAPACK print a complaint to stderr and raise LinAlgError, and
    # np.linalg.qr return a (0, 0) Q; d is now checked before either runs
    if path == "fallback":
        monkeypatch.setattr(benchmarks, "openblas_function", lambda name: None)
    for d in (0, -1):
        with pytest.raises(ValueError, match="d must be >= 1"):
            haar_rotation(d, np.random.default_rng(0))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("d", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 1000])
def test_the_in_place_transpose_is_a_transposed_copy(d):
    A = np.random.default_rng(d).standard_normal((d, d))
    expected = A.T.copy()
    benchmarks._transpose_in_place(A)
    assert A.flags.c_contiguous and A.tobytes() == expected.tobytes()


def test_haar_rotation_keeps_no_copy_of_the_drawn_matrix():
    # the drawn A, transposed in place, factored into R and the reflectors,
    # then into Q, and transposed back: one d*d array, plus small work arrays
    # and one transpose block; a column-major copy of A and a C-ordered Q took
    # two, and np.linalg.qr's copy of A, its R and the sign product would take
    # the peak above four. tracemalloc sees numpy's arrays only, not the C
    # buffers a gufunc mallocs, so it read 2.06*d*d*8 bytes with numpy's QR
    # gufuncs too; the tests below read RSS
    d = 400
    haar_rotation(d, np.random.default_rng(0))  # warm-up
    tracemalloc.start()
    try:
        haar_rotation(d, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * d * d * 8


def in_a_fresh_process(script: str) -> str:
    """What `script` prints, run in a fresh process, whose high-water mark no
    earlier test has raised: everything it touches, C buffers included,
    counts in VmHWM. `status(key)` reads a /proc/self/status field in bytes."""
    status = ("def status(key):\n"
              "    with open('/proc/self/status') as fh:\n"
              "        return next(int(line.split()[1]) * 1024 for line in fh\n"
              "                    if line.startswith(key + ':'))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(benchmarks.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", status + script], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


@functools.cache
def resident_rise_over_a_draw() -> int:
    """VmHWM's rise over one d=1000 draw, in bytes, in a fresh process."""
    return int(in_a_fresh_process(
        "import numpy as np\n"
        "from adadgs.benchmarks import haar_rotation\n"
        "from adadgs.harness import blas_threads\n"
        "with blas_threads():\n"
        "    haar_rotation(50, np.random.default_rng(0))\n"
        "    before = status('VmRSS')\n"
        "    haar_rotation(1000, np.random.default_rng(1))\n"
        "    print(status('VmHWM') - before)\n"))


needs_proc_status = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                       reason="no /proc/self/status to read RSS from")


@needs_proc_status
def test_a_haar_rotation_raises_the_resident_peak_by_at_most_two_and_a_half_matrices():
    rise = resident_rise_over_a_draw()
    assert rise <= 2.5 * 1000 * 1000 * 8, f"{rise / 8e6:.2f} d*d*8 bytes"


@needs_proc_status
def test_a_haar_rotation_raises_the_resident_peak_by_at_most_one_and_a_half_matrices():
    # the one buffer, with OpenBLAS's and malloc's own pages, read 1.16 d*d*8
    # bytes; a column-major copy of the drawn matrix and a C-ordered Q read 2.15
    rise = resident_rise_over_a_draw()
    assert rise <= 1.5 * 1000 * 1000 * 8, f"{rise / 8e6:.2f} d*d*8 bytes"


def cached(b):
    """The benchmark's cached (directions, W), its weak reference dereferenced."""
    ref, W = b._rotated
    return ref(), W


@pytest.mark.parametrize("path", ["lapack", "fallback"])
def test_a_random_frame_is_read_only_owns_its_data_and_is_cached(path, monkeypatch):
    # random_rotation hands out the drawn Q itself, with no copy, on both
    # draw paths; a benchmark caches its rotation by the array's identity
    if path == "fallback":
        monkeypatch.setattr(benchmarks, "openblas_function", lambda name: None)
    frame = random_rotation(6, np.random.default_rng(3))
    assert not frame.flags.writeable and frame.flags.owndata and frame.base is None
    assert frame.flags.c_contiguous
    b = make_benchmark("rastrigin", 6, 1)
    b(Lines(np.zeros(6), frame, np.array([-1.0, 1.0])))
    assert cached(b)[0] is frame


def test_the_lapack_workspace_is_queried_once_per_routine_and_size(monkeypatch):
    # every draw ran a workspace query (LWORK = -1) before each routine; the
    # size it answers is kept per routine and d, with the same bits
    real = benchmarks.openblas_function
    if real("scipy_dgeqrf_64_") is None or real("scipy_dorgqr_64_") is None:
        pytest.skip("numpy's OpenBLAS lacks the QR routines")
    lworks = []

    def spied(name):
        routine, integer = real(name)

        def call(*args):
            lworks.append((name, args[-2]._obj.value))  # LWORK, passed by reference
            return routine(*args)

        call.__name__ = routine.__name__
        return call, integer

    monkeypatch.setattr(benchmarks, "openblas_function", spied)
    monkeypatch.setattr(benchmarks, "_WORK_SIZES", {})
    first = haar_rotation(11, np.random.default_rng(0))
    assert [lwork for _, lwork in lworks].count(-1) == 2
    queried, lworks[:] = list(lworks), []
    again = haar_rotation(11, np.random.default_rng(0))
    assert lworks == [call for call in queried if call[1] != -1] and len(lworks) == 2
    assert again.tobytes() == first.tobytes()
    haar_rotation(12, np.random.default_rng(0))
    assert [lwork for _, lwork in lworks].count(-1) == 2  # a new size is queried


def test_lapack_refuses_an_array_it_would_misread():
    # the routines take any pointer: a C-ordered F would be factored as its
    # transpose, and a non-square one read as len(F) x len(F). Each bad F
    # starts len(F) x len(F) doubles or more before the end of its memory, so
    # a call that went through would still stay inside memory numpy owns
    if benchmarks.openblas_function("scipy_dgeqrf_64_") is None:
        pytest.skip("numpy's OpenBLAS lacks the QR routines")
    geqrf, integer = benchmarks.openblas_function("scipy_dgeqrf_64_")
    buffer = np.random.default_rng(0).standard_normal((8, 8))
    drawn, tau = buffer.copy(), np.zeros(8)
    single = np.zeros(64, np.float32)[:16].reshape(4, 4, order="F")
    for bad in (buffer[:4, :4].copy(), buffer.T[:, :3], buffer[:4, :4], single):
        with pytest.raises(ValueError, match="square column-major float64"):
            benchmarks._lapack(geqrf, integer, 2, bad, tau)
    assert buffer.tobytes() == drawn.tobytes() and not tau.any()


def test_an_adadgs_trial_on_the_axes_allocates_less_than_one_matrix():
    # a d=1000 trial's first stencil, on the coordinate axes: each block
    # copies its own rows of R^T, so the trial allocates no d x d array; a
    # cached W, a copy of R^T, took its peak to 1.48 d*d*8 bytes, and an
    # identity frame's matrix took a second. gamma=0 and one iteration, so no
    # frame is drawn; S=2 keeps the line search's block small
    d = 1000
    b = make_benchmark("ackley", d, 0)
    x0 = np.random.default_rng(1).uniform(b.lower, b.upper)
    tracemalloc.start()
    try:
        adadgs_minimize(b, x0, AdaDgsConfig(T_max=1, gamma=0.0, S=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cached(b) == (None, None)
    assert peak < 0.75 * d * d * 8, f"{peak / (d * d * 8):.2f} d*d*8 bytes"


@needs_proc_status
def test_a_resetting_d1000_trial_holds_no_old_frame_while_the_next_w_is_made():
    # paper-1000d with gamma=0.99 and reset_interval=2 draws 4 frames in 8
    # iterations, here on 2 evaluation threads whatever the machine's CPUs.
    # The peak is making the next frame's W: R, the frame, W and the
    # product's transient, plus the 0.6 over R that a trial that never resets
    # reads (the stencil's blocks, malloc's pages): 3.89 d*d*8 bytes, and
    # 3.98-4.04 with concurrent.futures.thread, which the trial's first
    # threaded batch imports after `before` is read. Freeing the old W
    # before the draw leaves this peak as it is (3.97-4.03). While
    # the old frame stayed held through the draw, it read 4.72-4.78; while the
    # old pair stayed cached as the next frame's W = frame R^T was made, that
    # product set the peak with 5 d x d arrays: 5.69
    rise, resets = map(int, in_a_fresh_process(
        "import dataclasses\n"
        "import numpy as np\n"
        "from adadgs import benchmarks\n"
        "from adadgs.harness import blas_threads, preset\n"
        "from adadgs.optimizer import adadgs_minimize\n"
        "benchmarks.eval_threads = lambda: 2\n"
        "cfg = dataclasses.replace(preset('paper-1000d'), gamma=0.99, reset_interval=2,\n"
        "                          T_max=8, seed=1)\n"
        "with blas_threads():\n"
        "    b = benchmarks.make_benchmark('ackley', 50, 0)\n"
        "    adadgs_minimize(b, np.zeros(50), dataclasses.replace(cfg, T_max=2))\n"
        "    before = status('VmRSS')\n"
        "    b = benchmarks.make_benchmark('ackley', 1000, 0)\n"
        "    x0 = np.random.default_rng(1).uniform(b.lower, b.upper, 1000)\n"
        "    _, _, trace = adadgs_minimize(b, x0, cfg)\n"
        "    rise = status('VmHWM') - before\n"
        "print(rise, sum(row.sigma == trace.rows[0].sigma for row in trace.rows[1:]))\n").split())
    assert resets == 4
    assert rise <= 4.25 * 1000 * 1000 * 8, f"{rise / 8e6:.2f} d*d*8 bytes"


def test_the_old_frame_is_freed_before_the_next_is_drawn(monkeypatch):
    # neither the generator nor the benchmark's cache holds a frame once a
    # reset has begun, so a draw never runs beside the frame it replaces
    draw, frames, alive = optimizer.random_rotation, [], []

    def drawn(d, rng):
        alive.append(sum(ref() is not None for ref in frames))
        frame = draw(d, rng)
        frames.append(weakref.ref(frame))
        return frame

    monkeypatch.setattr(optimizer, "random_rotation", drawn)
    b = make_benchmark("ackley", 8, 0)
    cfg = AdaDgsConfig(gamma=0.99, reset_interval=1, T_max=6, seed=1)
    adadgs_minimize(b, np.random.default_rng(2).uniform(b.lower, b.upper), cfg)
    assert len(alive) >= 3 and alive == [0] * len(alive)


@pytest.mark.parametrize("name", ["ackley", "rastrigin", "salomon", "wavy"])
def test_identity_transform_equivalence(name):
    # origin-minimum functions: R=I, x_opt=0 reproduces the base bit-for-bit
    d = 7
    b = TransformedBenchmark(name, np.eye(d), np.zeros(d))
    X = np.random.default_rng(0).uniform(-2, 2, (40, d))
    assert np.array_equal(b(rows(X)), base_value(name, X))
    assert np.array_equal(b.fn(X), base_value(name, X))


def test_identity_transform_shifted_minimizer():
    # functions whose base minimizer is away from the origin are offset so
    # the optimum still lands at x_opt
    d = 5
    b = TransformedBenchmark("rosenbrock", np.eye(d), np.zeros(d))
    X = np.random.default_rng(1).uniform(-2, 2, (20, d))
    assert np.array_equal(b(rows(X)), base_value("rosenbrock", X + 1.0))
    assert np.array_equal(b.fn(X), base_value("rosenbrock", X + 1.0))


def test_non_separability_with_rotation():
    d = 6
    b = make_benchmark("rastrigin", d, 8)
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, (10, d))
    # evaluating coordinates one at a time and summing must not reproduce
    # the rotated function (guards against applying R per coordinate)
    parts = np.zeros(10)
    for i in range(d):
        Xi = np.tile(b.x_opt, (10, 1))
        Xi[:, i] = X[:, i]
        parts += b(rows(Xi)) - b(b.x_opt)
    full = b(rows(X)) - b(b.x_opt)
    assert not np.allclose(parts, full, rtol=1e-3)


def test_counter_and_determinism():
    b = make_benchmark("alpine", 8, 3)
    X = np.random.default_rng(2).uniform(-1, 1, (17, 8))
    v1 = b(rows(X))
    x_single = X[0]
    v2 = b(x_single)
    assert b.evals == 18
    # a point is evaluated as row 0 of fn's batch; a Lines batch rounds its
    # own way (see test_lines_fast_path_matches_materialized)
    assert b.fn(X)[0] == v2
    assert np.array_equal(v1, b(rows(X)))


def test_objective_shape_validation():
    b = make_benchmark("ackley", 4, 0)
    with pytest.raises(ValueError):
        b(np.zeros(5))
    with pytest.raises(ValueError):
        b(np.zeros((3, 5)))
    with pytest.raises(ValueError, match="Lines"):  # a batch must be Lines
        b(np.zeros((3, 4)))
    assert b.evals == 0


@pytest.mark.parametrize("dim", [3.7, True, 0, np.float64(3.0)])
def test_objective_dim_is_a_count(dim):
    # int(dim) made 3.7 a 3-d objective and True a 1-d one
    with pytest.raises(ValueError, match="dim must be"):
        Objective(lambda X: X[:, 0], dim, (-5.0, 5.0))


def test_objective_takes_a_numpy_integer_dim():
    F = Objective(lambda X: X[:, 0], np.int64(3), (-5.0, 5.0))
    assert F.dim == 3 and type(F.dim) is int


def test_objective_domain_helpers():
    F = Objective(lambda X: X[:, 0], 4, (-2.0, 6.0))
    assert F.domain_width == 8.0
    assert F.domain_diagonal == pytest.approx(8.0 * 2.0)


# --- structured (Lines) batches -----------------------------------------------


def stencil_and_line_search_batches(b, rng):
    """A stencil-shaped batch (the d frame directions, 4 offsets) and a
    line-search-shaped one (1 writable direction, 20 offsets)."""
    d = b.dim
    origin = rng.uniform(b.lower, b.upper)
    frame = random_rotation(d, rng)
    ghat = rng.standard_normal(d)
    ghat /= np.linalg.norm(ghat)
    return (Lines(origin, frame, rng.uniform(-3.0, 3.0, 4)),
            Lines(origin, ghat[None, :], -np.geomspace(50.0, 0.1, 20)))


def test_lines_points_are_direction_major():
    lines = Lines(np.array([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 1.0]]),
                  np.array([-1.0, 3.0]))
    np.testing.assert_array_equal(lines.points,
                                  [[0.0, 2.0], [4.0, 2.0], [1.0, 1.0], [1.0, 5.0]])


def axes_and_eye(d, offsets, rng):
    """A batch along the d coordinate axes, as None and as an explicit np.eye;
    the origin holds a -0.0, which adding +0.0 would turn into 0.0."""
    origin = rng.uniform(-2.0, 2.0, d)
    origin[0] = -0.0
    return Lines(origin, None, offsets), Lines(origin, np.eye(d), offsets)


def test_axes_points_are_the_explicit_eyes_bit_for_bit():
    rng = np.random.default_rng(12)
    axes, eye = axes_and_eye(5, np.array([-1.5, 0.0, 2.0]), rng)
    assert axes.points.tobytes() == eye.points.tobytes()
    # point(k) is row k of points, for the axes and for explicit directions
    for lines in (axes, eye, Lines(axes.origin, rng.standard_normal((3, 5)), axes.offsets)):
        points = lines.points
        assert all(lines.point(k).tobytes() == points[k].tobytes() for k in range(len(points)))


def test_a_point_outside_the_batch_is_an_index_error():
    # on the axes, point(6) and point(-1) of 3 x 2 points returned the
    # origin, which is no row of points; explicit directions counted -1 from
    # the end
    rng = np.random.default_rng(12)
    axes, eye = axes_and_eye(3, np.array([1.0, -1.0]), rng)
    for lines in (axes, eye, Lines(axes.origin, rng.standard_normal((2, 3)), axes.offsets)):
        rows = len(lines.points)
        for k in (-1, -rows, rows, rows + 1, 100):
            with pytest.raises(IndexError):
                lines.point(k)


def test_an_objective_counts_a_batch_along_the_axes_as_d_times_m():
    seen = []
    F = Objective(lambda X: seen.append(X.copy()) or np.sum(X**2, axis=1), 5, (-1.0, 1.0))
    axes, eye = axes_and_eye(5, np.array([-1.0, 0.5, 2.0]), np.random.default_rng(13))
    values = F(axes)
    assert F.evals == 5 * 3 and values.shape == (15,)
    assert np.array_equal(values, F(eye)) and seen[0].tobytes() == seen[1].tobytes()
    b = make_benchmark("ackley", 5, 0)
    b(axes)
    assert b.evals == 15


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_lines_fast_path_matches_materialized(name):
    # the rotated-coordinates evaluation differs from rotating each point
    # only by rounding, including for base functions with z_star != 0
    rng = np.random.default_rng(5)
    b = make_benchmark(name, 30, 2)
    for _ in range(3):
        for lines in stencil_and_line_search_batches(b, rng):
            fast = b(lines)
            slow = b.fn(lines.points)
            assert fast.shape == slow.shape == (len(lines.directions) * len(lines.offsets),)
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)


def test_lines_count_every_point():
    rng = np.random.default_rng(6)
    for F in (make_benchmark("ackley", 12, 0),
              Objective(lambda X: np.sum(X**2, axis=1), 12, (-1.0, 1.0))):
        stencil, search = stencil_and_line_search_batches(F, rng)
        F(stencil)
        assert F.evals == 12 * 4
        F(search)
        assert F.evals == 12 * 4 + 20


def test_lines_default_path_is_the_materialized_batch():
    F = Objective(lambda X: np.sum(X**2, axis=1), 6, (-1.0, 1.0))
    stencil, search = stencil_and_line_search_batches(F, np.random.default_rng(7))
    for lines in (stencil, search):
        assert np.array_equal(F(lines), F.fn(lines.points))


def test_lines_shape_validation():
    b = make_benchmark("ackley", 4, 0)
    with pytest.raises(ValueError):
        b(Lines(np.zeros(5), np.eye(4), np.ones(2)))
    with pytest.raises(ValueError):
        b(Lines(np.zeros(4), np.ones(4), np.ones(2)))
    with pytest.raises(ValueError):
        b(Lines(np.zeros(4), np.eye(4), np.ones((2, 1))))
    # the axes (directions None) are checked against the origin and offsets
    with pytest.raises(ValueError, match=r"directions \(4, 4\)"):
        b(Lines(np.zeros(5), None, np.ones(2)))
    for bad in (Lines(np.zeros((4, 1)), None, np.ones(2)), Lines(np.zeros(4), None, np.ones((2, 1))),
                Lines(None, None, np.ones(2)), Lines(np.zeros(4), None, None)):
        with pytest.raises(ValueError, match="expected lines of dim 4"):
            b(bad)
    assert b.evals == 0


def test_new_frame_gets_new_rotated_directions():
    rng = np.random.default_rng(8)
    b = make_benchmark("rastrigin", 10, 1)
    origin, offsets = rng.uniform(-1, 1, 10), np.array([-0.5, 0.5])
    for _ in range(3):
        frame = random_rotation(10, rng)
        lines = Lines(origin, frame, offsets)
        np.testing.assert_allclose(b(lines), b.fn(lines.points), rtol=1e-12)
        assert cached(b)[0] is frame


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_identity_frame_is_rotated_without_a_matmul(name, monkeypatch):
    # the premise: I R^T, and a reversed identity's P R^T, are R^T's rows bit for bit
    d = 30
    b = make_benchmark(name, d, 4)
    R_T = b.rotation.T
    assert (np.eye(d) @ R_T).tobytes() == R_T.tobytes()
    assert (np.eye(d)[::-1] @ R_T).tobytes() == R_T[::-1].tobytes()
    rng = np.random.default_rng(10)
    origin, offsets = rng.uniform(*DOMAINS[name], d), np.array([-0.5, 0.5, 1.0])
    values = b(Lines(origin, None, offsets))
    assert cached(b) == (None, None)  # the axes keep no W
    # an explicit identity is a writable array like any other: the matmul
    # path, uncached, with the axes' values bit for bit
    assert np.array_equal(b(Lines(origin, np.eye(d), offsets)), values)
    # a reversed identity is no identity, so it takes the matmul path
    reversed_values = b(Lines(origin, np.eye(d)[::-1], offsets))
    assert np.array_equal(values, reversed_values.reshape(d, -1)[::-1].ravel())
    assert cached(b) == (None, None)
    # no matmul rotates the axes: a NaN at R[1, 2] stays in direction 2's row
    # of R^T, where I R^T would spread it over every direction (0 * NaN is
    # NaN). z0 = R(origin - x_opt) would carry it to every point, so here z0
    # is made from the NaN-free R
    R = b.rotation.copy()
    R[1, 2] = np.nan
    c = TransformedBenchmark(name, R, b.x_opt)
    to_base = benchmarks._to_base
    monkeypatch.setattr(benchmarks, "_to_base",
                        lambda X, rotation, *args: to_base(X, b.rotation, *args))
    with np.errstate(all="ignore"):
        nan_values = c(Lines(origin, None, offsets)).reshape(d, -1)
        assert np.isnan(np.eye(d) @ R.T).sum() == d
    finite = np.isfinite(nan_values).all(axis=1)
    assert not finite[2] and finite.sum() == d - 1
    assert np.array_equal(nan_values[finite], values.reshape(d, -1)[finite])


def test_writable_directions_are_never_cached():
    rng = np.random.default_rng(9)
    b = make_benchmark("ellipsoidal", 8, 3)
    frame = random_rotation(8, rng)
    origin, offsets = rng.uniform(-1, 1, 8), np.array([-1.0, 1.0])
    b(Lines(origin, frame, offsets))
    directions = rng.standard_normal((2, 8))
    view = directions.view()
    view.flags.writeable = False  # read-only, but its data can still change
    for D in (directions, view):
        b(Lines(origin, D, offsets))
        directions *= 2.0  # a cached W would now be stale
        lines = Lines(origin, D, offsets)
        np.testing.assert_allclose(b(lines), b.fn(lines.points), rtol=1e-12)
        # the frame's entry is neither replaced nor evicted
        assert cached(b)[0] is frame


def test_benchmark_is_freed_without_the_cycle_collector():
    # a reference cycle would keep the rotation and a frame's rotated
    # directions (2 d x d arrays) alive until the collector runs
    b = make_benchmark("ackley", 6, 0)
    b(Lines(np.zeros(6), None, np.array([-1.0, 1.0])))
    b(Lines(np.zeros(6), random_rotation(6, np.random.default_rng(1)), np.array([-1.0, 1.0])))
    ref = weakref.ref(b)
    gc.disable()
    try:
        del b
        assert ref() is None
    finally:
        gc.enable()


# --- blocked, threaded evaluation of Lines batches ---------------------------


def blocked_values(b, lines, monkeypatch, rows, threads, points=None):
    """b(lines) in blocks of `rows` directions, or of `points` points where
    given, which may be fewer than one direction's (neither: one serial
    block), spread over `threads` threads, or serially when `threads` is None."""
    if points is None and rows is not None:
        points = rows * len(lines.offsets)
    size = 2**62 if points is None else points * b.dim
    serial = threads is None or points is None
    monkeypatch.setattr(benchmarks, "BLOCK_ELEMENTS", 2**62 if serial else size)
    monkeypatch.setattr(benchmarks, "SERIAL_BLOCK_ELEMENTS", size)
    monkeypatch.setattr(benchmarks, "eval_threads", lambda: threads or 1)
    return b(lines)


def spy_on_base_function(monkeypatch, name, record=lambda Z: Z.shape):
    """`record` (by default the shape) of each array that reaches benchmark
    `name`'s base function, for benchmarks made after the call."""
    info = BENCHMARKS[name]
    records = []

    def spy(Z):
        records.append(record(Z))
        return info.fn(Z)

    monkeypatch.setitem(BENCHMARKS, name, dataclasses.replace(info, fn=spy))
    return records


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_blocked_evaluation_is_bit_identical(name, monkeypatch):
    # 13 directions: one serial block, and blocks of at most 1 and 5 rows,
    # serial and threaded, 5 rows giving blocks of unequal sizes; a benchmark
    # is row-wise, so neither the blocks nor the threads may move a bit.
    # Blocks of fewer points than a direction's cut it into runs of offsets:
    # the line search (1 direction x 20 offsets) in runs of 6-7 offsets and
    # of 1, and the stencil in runs of 1
    rng = np.random.default_rng(11)
    b = make_benchmark(name, 13, 4)
    stencil, search = stencil_and_line_search_batches(b, rng)
    whole = blocked_values(b, stencil, monkeypatch, None, 1)
    assert whole.shape == (13 * 4,)
    for rows, threads in ((1, None), (5, None), (1, 1), (1, 3), (5, 2), (5, 4)):
        np.testing.assert_array_equal(
            blocked_values(b, stencil, monkeypatch, rows, threads), whole)
    for threads in (None, 1, 2, 3):
        np.testing.assert_array_equal(
            blocked_values(b, stencil, monkeypatch, None, threads, points=1), whole)
    whole = blocked_values(b, search, monkeypatch, None, 1)
    assert whole.shape == (20,)
    for points in (7, 1):
        for threads in (None, 1, 2, 3):
            np.testing.assert_array_equal(
                blocked_values(b, search, monkeypatch, None, threads, points=points), whole)


def test_threaded_blocks_keep_the_callers_errstate(monkeypatch):
    # the caller's np.errstate holds in the pool's threads as on the serial
    # path: an overflow it ignores is inf with no warning, one it raises on
    # is a FloatingPointError
    b = make_benchmark("quintic", 6, 0)
    lines = Lines(np.full(6, 1e70), None, np.array([-1.0, 1.0]))
    for rows in (None, 1):
        with np.errstate(over="ignore"):
            assert np.all(blocked_values(b, lines, monkeypatch, rows, 2) == np.inf)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            blocked_values(b, lines, monkeypatch, rows, 2)


def test_a_small_batch_reaches_the_base_function_in_128_kib_blocks(monkeypatch):
    # a d=100 stencil (100 directions x 4 offsets, 40,000 coordinates) in one
    # block makes 320 KiB temporaries, above glibc's mmap threshold, so each
    # call mapped and faulted in fresh pages
    shapes = spy_on_base_function(monkeypatch, "rastrigin")
    b = make_benchmark("rastrigin", 100, 0)
    stencil, _ = stencil_and_line_search_batches(b, np.random.default_rng(3))
    blocked = b(stencil)
    assert len(shapes) > 1
    assert all(rows * d <= 2**14 for rows, d in shapes)
    assert sum(rows for rows, _ in shapes) == 400
    monkeypatch.setattr(benchmarks, "SERIAL_BLOCK_ELEMENTS", benchmarks.BLOCK_ELEMENTS)
    shapes.clear()
    whole = b(stencil)
    assert shapes == [(400, 100)]
    np.testing.assert_array_equal(blocked, whole)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_a_batch_of_no_offsets_or_no_directions_is_empty(name, monkeypatch):
    # along the axes and along explicit directions, in one block and in
    # blocks of one direction, serial and on 2 threads: shape (0,), no
    # evaluation counted and no warning
    b = make_benchmark(name, 5, 0)
    origin = np.random.default_rng(14).uniform(b.lower, b.upper)
    batches = [Lines(origin, None, np.empty(0)), Lines(origin, np.eye(5), np.empty(0)),
               Lines(origin, np.empty((0, 5)), np.ones(3)),
               Lines(origin, np.empty((0, 5)), np.empty(0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lines in batches:
            for rows, threads in ((None, None), (1, None), (1, 2)):
                assert blocked_values(b, lines, monkeypatch, rows, threads).shape == (0,)
    assert b.evals == 0


def test_a_point_wider_than_a_block_is_a_block_of_its_own(monkeypatch):
    # d=13 against blocks of 8 coordinates: each point reaches the base
    # function alone, serially and threaded, with the bits of one block
    shapes = spy_on_base_function(monkeypatch, "rastrigin")
    b = make_benchmark("rastrigin", 13, 4)
    X = np.random.default_rng(15).uniform(b.lower, b.upper, (5, 13))
    whole = blocked_values(b, rows(X), monkeypatch, None, None)
    assert shapes == [(5, 13)]
    monkeypatch.setattr(benchmarks, "SERIAL_BLOCK_ELEMENTS", 8)
    for block, threads in ((2**62, 1), (8, 2)):
        shapes.clear()
        monkeypatch.setattr(benchmarks, "BLOCK_ELEMENTS", block)
        monkeypatch.setattr(benchmarks, "eval_threads", lambda: threads)
        np.testing.assert_array_equal(b(rows(X)), whole)
        assert shapes == [(1, 13)] * 5


@settings(max_examples=500, deadline=None)
@given(name=st.sampled_from(sorted(BENCHMARKS)), d=st.integers(2, 9),
       k=st.none() | st.integers(0, 7), m=st.integers(0, 11), block=st.integers(0, 120),
       serial_block=st.integers(0, 120), threads=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_every_partition_evaluates_each_point_once_with_the_bits_of_one_block(
        name, d, k, m, block, serial_block, threads, seed):
    # the axes (k None) or k directions, m offsets, any two block sizes and
    # thread counts: the blocks see the points of one serial block, each
    # exactly once and bit for bit, and none holds more than max(size, d)
    # coordinates, size being the block size the batch's own size picks
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        blocks = spy_on_base_function(mp, name, lambda Z: Z.copy())
        b = make_benchmark(name, d, seed)
        lines = Lines(rng.uniform(b.lower, b.upper, d),
                      None if k is None else rng.standard_normal((k, d)),
                      rng.uniform(-1.0, 1.0, m))
        whole = blocked_values(b, lines, mp, None, 1)
        points = sorted(row.tobytes() for Z in blocks for row in Z)
        blocks.clear()
        mp.setattr(benchmarks, "BLOCK_ELEMENTS", block)
        mp.setattr(benchmarks, "SERIAL_BLOCK_ELEMENTS", serial_block)
        mp.setattr(benchmarks, "eval_threads", lambda: threads)
        values = b(lines)
    assert values.tobytes() == whole.tobytes()
    assert sorted(row.tobytes() for Z in blocks for row in Z) == points
    size = block if (d if k is None else k) * m * d > block else serial_block
    assert all(Z.size <= max(size, d) for Z in blocks)


def test_a_paper_1000d_line_search_is_cut_into_runs_of_offsets(monkeypatch):
    # one direction and paper-1000d's S=200 offsets at d=1000 is 200*d
    # coordinates; as one block on the calling thread its temporaries peaked
    # at 0.60 d*d*8 bytes under tracemalloc. Cut into runs of at most
    # BLOCK_ELEMENTS coordinates it peaks at 0.15, and on 2 threads the pool
    # evaluates the second half of the runs
    d = 1000
    sizes = spy_on_base_function(monkeypatch, "ackley", lambda Z: Z.size)
    b = make_benchmark("ackley", d, 0)
    rng = np.random.default_rng(16)
    ghat = rng.standard_normal(d)
    ghat /= np.linalg.norm(ghat)
    search = Lines(rng.uniform(b.lower, b.upper), ghat[None, :], -np.geomspace(50.0, 0.1, 200))
    monkeypatch.setattr(benchmarks, "eval_threads", lambda: 1)
    tracemalloc.start()
    try:
        values = b(search)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * d * d * 8, f"{peak / (d * d * 8):.2f} d*d*8 bytes"
    assert sum(sizes) == 200 * d and max(sizes) <= 2**16
    runs = len(sizes)
    submitted = spy_on_submissions(monkeypatch, 2)
    np.testing.assert_array_equal(b(search), values)
    assert submitted == [(runs // 2, runs)]


@pytest.fixture
def own_pool(monkeypatch):
    """Give the test a process pool of its own, made by `_eval_pool` on first
    use with the `eval_threads()` of that moment, and shut down after it."""
    pool_of = functools.cache(benchmarks._eval_pool.__wrapped__)
    monkeypatch.setattr(benchmarks, "_eval_pool", pool_of)
    yield
    if pool_of.cache_info().currsize:
        pool_of(os.getpid()).shutdown()


def spy_on_submissions(monkeypatch, threads):
    """The (start, stop) directions of each share submitted to the process's
    own pool, which is made with `threads` - 1 threads if there is none."""
    monkeypatch.setattr(benchmarks, "eval_threads", lambda: threads)
    pool = benchmarks._eval_pool(os.getpid())
    shares = []

    def submit(run, share, a, b):
        shares.append((a, b))
        return ThreadPoolExecutor.submit(pool, run, share, a, b)

    monkeypatch.setattr(pool, "submit", submit)
    return shares


@pytest.mark.parametrize("threads,rows", [(2, [6, 7]), (3, [4, 4, 5])])
def test_threaded_blocks_are_balanced_over_the_threads(threads, rows, monkeypatch):
    # 13 directions in blocks of at most 5: one contiguous share of
    # directions per thread, the caller's first and one future for each
    # other, the sizes differing by at most one direction, and each share
    # walked in blocks that tile it
    d, m = 13, 4
    caller = threading.current_thread()
    blocks = spy_on_base_function(
        monkeypatch, "ackley", lambda Z: (threading.current_thread() is caller, Z.copy()))
    # with R = I and x_opt = 0 the base function sees the batch's points
    b = TransformedBenchmark("ackley", np.eye(d), np.zeros(d))
    stencil, _ = stencil_and_line_search_batches(b, np.random.default_rng(11))
    submitted = spy_on_submissions(monkeypatch, threads)
    blocked_values(b, stencil, monkeypatch, 5, threads)
    points, spans = stencil.points, []
    for by_caller, Z in blocks:
        assert Z.size <= 5 * m * d
        start = int(np.flatnonzero((points == Z[0]).all(axis=1))[0])
        np.testing.assert_array_equal(Z, points[start:start + len(Z)])
        spans.append((start // m, (start + len(Z)) // m, by_caller))
    spans.sort()
    edges = [0] + [stop for _, stop, _ in spans]
    assert [start for start, _, _ in spans] == edges[:-1] and edges[-1] == d
    first = max(stop for _, stop, by_caller in spans if by_caller)
    assert all(by_caller == (stop <= first) for _, stop, by_caller in spans)
    shares = [(0, first)] + sorted(submitted)
    assert [start for start, _ in shares[1:]] == [stop for _, stop in shares[:-1]]
    assert shares[-1][1] == d and {stop for _, stop in shares} <= set(edges)
    assert sorted(stop - start for start, stop in shares) == rows
    # one direction of 20 offsets in blocks of at most 3 points: one block per
    # run of 2 or 3 offsets, the runs tiling the offsets in order, and one
    # contiguous share of whole runs per thread, the caller's first, the
    # sizes differing by at most one run
    _, search = stencil_and_line_search_batches(b, np.random.default_rng(11))
    blocks.clear()
    submitted.clear()
    blocked_values(b, search, monkeypatch, None, threads, points=3)
    points, runs = search.points, []
    for by_caller, Z in blocks:
        assert len(Z) in (2, 3)
        start = int(np.flatnonzero((points == Z[0]).all(axis=1))[0])
        np.testing.assert_array_equal(Z, points[start:start + len(Z)])
        runs.append((start, start + len(Z), by_caller))
    runs.sort()
    assert [start for start, _, _ in runs] == [0] + [stop for _, stop, _ in runs[:-1]]
    assert runs[-1][1] == 20
    first = sum(by_caller for _, _, by_caller in runs)
    assert all(by_caller == (i < first) for i, (_, _, by_caller) in enumerate(runs))
    shares = [(0, first)] + sorted(submitted)
    assert [start for start, _ in shares[1:]] == [stop for _, stop in shares[:-1]]
    assert shares[-1][1] == len(runs) and len(shares) == threads
    assert max(stop - start for start, stop in shares) - min(
        stop - start for start, stop in shares) <= 1


def test_a_batch_of_few_directions_keeps_the_pool(monkeypatch, own_pool):
    # a threaded call submits one future per share but the caller's; a batch
    # of fewer directions than threads makes fewer shares on the same pool
    # of eval_threads() - 1 threads, neither replaced nor resized
    b = make_benchmark("ackley", 13, 4)
    stencil, _ = stencil_and_line_search_batches(b, np.random.default_rng(11))
    few = Lines(stencil.origin, stencil.directions[:2], stencil.offsets)
    expected = b(few)
    submitted = spy_on_submissions(monkeypatch, 4)
    pool = benchmarks._eval_pool(os.getpid())
    blocked_values(b, stencil, monkeypatch, 1, 4)
    assert len(submitted) == 3
    submitted.clear()
    np.testing.assert_array_equal(blocked_values(b, few, monkeypatch, 1, 4), expected)
    assert submitted == [(1, 2)]
    assert benchmarks._eval_pool(os.getpid()) is pool and pool._max_workers == 3


def test_threaded_calls_share_the_pools_threads_and_the_caller(monkeypatch, own_pool):
    # the pool lives as long as the process, so the same worker evaluates
    # blocks of both calls, and the caller evaluates its share itself
    # instead of waiting for a pool made for the call
    threads = spy_on_base_function(monkeypatch, "ackley",
                                   lambda Z: threading.current_thread())
    b = TransformedBenchmark("ackley", np.eye(1000), np.zeros(1000))
    rng = np.random.default_rng(5)
    lines = Lines(rng.uniform(-1.0, 1.0, 1000), rng.standard_normal((8, 1000)),
                  np.array([-2.0, -1.0, 1.0, 2.0]))
    monkeypatch.setattr(benchmarks, "BLOCK_ELEMENTS", 4 * 1000)
    monkeypatch.setattr(benchmarks, "eval_threads", lambda: 2)
    b(lines)
    first = set(threads)
    threads.clear()
    b(lines)
    assert set(threads) == first
    assert len(first) == 2 and threading.current_thread() in first


def test_another_thread_count_keeps_the_pool(monkeypatch, own_pool):
    # the pool is made once per process, with the eval_threads() of its first
    # use; a later count changes the shares, not the pool, and every share is
    # row-wise, so the values are the same and no thread starts or ends
    b = make_benchmark("ackley", 13, 4)
    stencil, _ = stencil_and_line_search_batches(b, np.random.default_rng(11))
    expected = blocked_values(b, stencil, monkeypatch, 1, 2)
    pool, before = benchmarks._eval_pool(os.getpid()), set(threading.enumerate())
    for threads in (4, 3, 2):
        np.testing.assert_array_equal(blocked_values(b, stencil, monkeypatch, 1, threads),
                                      expected)
    assert benchmarks._eval_pool(os.getpid()) is pool and pool._max_workers == 1
    assert set(threading.enumerate()) == before


def test_a_threaded_batch_imports_the_thread_pool_and_not_the_process_pool():
    # the evaluation pool's module is imported when the first batch of more
    # than BLOCK_ELEMENTS coordinates makes the pool; the trial pool's
    # modules are imported only where a run makes that pool
    loaded = ast.literal_eval(in_a_fresh_process(
        "import sys\n"
        "import numpy as np\n"
        "from adadgs import benchmarks\n"
        "from adadgs.benchmarks import Lines\n"
        "benchmarks.eval_threads = lambda: 2\n"
        "b = benchmarks.make_benchmark('rastrigin', 100, 0)\n"
        "before = 'concurrent.futures.thread' in sys.modules\n"
        "assert 100 * 8 * 100 > benchmarks.BLOCK_ELEMENTS\n"
        "b(Lines(np.zeros(100), None, np.linspace(-1.0, 1.0, 8)))\n"
        "print([before, sorted(m for m in sys.modules\n"
        "                      if m.split('.')[0] in ('concurrent', 'multiprocessing'))])"))
    before, modules = loaded
    assert not before and "concurrent.futures.thread" in modules
    assert "concurrent.futures.process" not in modules
    assert not [m for m in modules if m.split(".")[0] == "multiprocessing"]


def test_concurrent_callers_share_the_pool(monkeypatch):
    # 8 callers, more than the CPUs, evaluate threaded batches at once with a
    # short switch interval; each gets its own batch's serial values
    benches = [make_benchmark(name, 13, 4) for name in ("ackley", "rastrigin", "wavy")]
    batches = [stencil_and_line_search_batches(b, np.random.default_rng(11))[0]
               for b in benches]
    expected = [b(stencil) for b, stencil in zip(benches, batches)]
    monkeypatch.setattr(benchmarks, "BLOCK_ELEMENTS", 4 * 13)
    monkeypatch.setattr(benchmarks, "eval_threads", lambda: 3)

    def caller(i):
        b, stencil = benches[i % 3], batches[i % 3]
        return [b(stencil) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as callers:
            results = list(callers.map(caller, range(8)))
    finally:
        sys.setswitchinterval(interval)
    for i, values in enumerate(results):
        for got in values:
            np.testing.assert_array_equal(got, expected[i % 3])
