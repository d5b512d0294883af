import dataclasses
import gc
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from adadgs import benchmarks
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


@pytest.mark.parametrize("d,seed", [(d, seed) for d in (1, 2, 3, 7, 100, 129, 257)
                                    for seed in (0, 1, 2)] + [(1000, 0)])
def test_haar_rotation_is_the_bits_of_numpys_qr(d, seed, monkeypatch):
    # haar_rotation calls the LAPACK routines of numpy's OpenBLAS itself; this
    # pins them to the public np.linalg.qr, so a numpy that changes its QR, or
    # the work size it passes, fails here. Without the routines it falls back
    # to np.linalg.qr, which the second draw pins
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


def test_haar_rotation_keeps_no_copy_of_the_drawn_matrix():
    # the drawn A, its column-major copy (factored into R and the reflectors,
    # then into Q) and the C-ordered Q, of which two are alive at a time,
    # plus small work arrays; np.linalg.qr's copy of A, its R and the sign
    # product would take the peak above four d*d arrays. tracemalloc sees
    # numpy's arrays only, not the C buffers a gufunc mallocs, so it read
    # 2.06*d*d*8 bytes with numpy's QR gufuncs too; the test below reads RSS
    d = 400
    haar_rotation(d, np.random.default_rng(0))  # warm-up
    tracemalloc.start()
    try:
        haar_rotation(d, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * d * d * 8


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="no /proc/self/status to read RSS from")
def test_a_haar_rotation_raises_the_resident_peak_by_at_most_two_and_a_half_matrices():
    # in a fresh process, whose high-water mark no earlier test has raised:
    # everything a d=1000 draw touches, C buffers included, counts in VmHWM
    script = (
        "import numpy as np\n"
        "from adadgs.benchmarks import haar_rotation\n"
        "from adadgs.harness import blas_threads\n"
        "def status(key):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) * 1024 for line in fh\n"
        "                    if line.startswith(key + ':'))\n"
        "with blas_threads():\n"
        "    haar_rotation(50, np.random.default_rng(0))\n"
        "    before = status('VmRSS')\n"
        "    haar_rotation(1000, np.random.default_rng(1))\n"
        "    print(status('VmHWM') - before)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(benchmarks.__file__).parents[1])}
    rise = int(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True, timeout=60).stdout)
    assert rise <= 2.5 * 1000 * 1000 * 8, f"{rise / 8e6:.2f} d*d*8 bytes"


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
    assert b._rotated[0] is frame


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


def test_an_adadgs_trial_on_the_axes_allocates_no_matrix_but_the_cached_w():
    # a d=1000 trial's first stencil, on the coordinate axes: the benchmark's
    # W, a copy of R^T, is the one d x d array it allocates; an identity
    # frame's matrix took a second. gamma=0 and one iteration, so no frame
    # is drawn; S=2 keeps the line search's block small
    d = 1000
    b = make_benchmark("ackley", d, 0)
    x0 = np.random.default_rng(1).uniform(b.lower, b.upper)
    tracemalloc.start()
    try:
        adadgs_minimize(b, x0, AdaDgsConfig(T_max=1, gamma=0.0, S=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b._rotated[0] is None and b._rotated[1].nbytes == d * d * 8
    assert peak < 1.75 * d * d * 8, f"{peak / (d * d * 8):.2f} d*d*8 bytes"


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
        assert b._rotated[0] is frame


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_identity_frame_is_rotated_without_a_matmul(name):
    # the premise: I R^T, and a reversed identity's P R^T, are R^T's rows bit for bit
    d = 30
    b = make_benchmark(name, d, 4)
    R_T = b.rotation.T
    assert (np.eye(d) @ R_T).tobytes() == R_T.tobytes()
    assert (np.eye(d)[::-1] @ R_T).tobytes() == R_T[::-1].tobytes()
    rng = np.random.default_rng(10)
    origin, offsets = rng.uniform(*DOMAINS[name], d), np.array([-0.5, 0.5, 1.0])
    values = b(Lines(origin, None, offsets))
    cached, W = b._rotated
    assert cached is None and W.flags.c_contiguous and W.tobytes() == R_T.tobytes()
    assert W.base is None and not np.shares_memory(W, b.rotation)
    # an explicit identity is a writable array like any other: the matmul
    # path, uncached, with the axes' values bit for bit
    assert np.array_equal(b(Lines(origin, np.eye(d), offsets)), values)
    assert b._rotated[0] is None and b._rotated[1] is W
    # a reversed identity is no identity, so it takes the matmul path
    reversed_values = b(Lines(origin, np.eye(d)[::-1], offsets))
    assert np.array_equal(values, reversed_values.reshape(d, -1)[::-1].ravel())
    # no matmul makes the axes' W: a NaN in R stays in its place in a copy of
    # R^T, where I R^T would spread it over a row (0 * NaN is NaN)
    R = b.rotation.copy()
    R[1, 2] = np.nan
    c = TransformedBenchmark(name, R, b.x_opt)
    with np.errstate(all="ignore"):
        c(Lines(origin, None, offsets))
        assert np.isnan(np.eye(d) @ R.T).sum() == d
    assert c._rotated[1].tobytes() == R.T.copy().tobytes()


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
        assert b._rotated[0] is frame


def test_benchmark_is_freed_without_the_cycle_collector():
    # a reference cycle would keep the rotation and the axes' rotated
    # directions (2 d x d arrays) alive until the collector runs
    b = make_benchmark("ackley", 6, 0)
    b(Lines(np.zeros(6), None, np.array([-1.0, 1.0])))
    ref = weakref.ref(b)
    gc.disable()
    try:
        del b
        assert ref() is None
    finally:
        gc.enable()


# --- blocked, threaded evaluation of Lines batches ---------------------------


def blocked_values(b, lines, monkeypatch, rows, threads):
    """b(lines) in blocks of `rows` directions (None: one serial block),
    spread over `threads` threads, or serially when `threads` is None."""
    per_direction = len(lines.offsets) * b.dim
    size = 2**62 if rows is None else rows * per_direction
    serial = threads is None or rows is None
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
    # is row-wise, so neither the blocks nor the threads may move a bit
    rng = np.random.default_rng(11)
    b = make_benchmark(name, 13, 4)
    stencil, _ = stencil_and_line_search_batches(b, rng)
    whole = blocked_values(b, stencil, monkeypatch, None, 1)
    assert whole.shape == (13 * 4,)
    for rows, threads in ((1, None), (5, None), (1, 1), (1, 3), (5, 2), (5, 4)):
        np.testing.assert_array_equal(
            blocked_values(b, stencil, monkeypatch, rows, threads), whole)


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


def spy_on_submissions(monkeypatch, threads):
    """The (start, stop) directions of each share submitted to the process's
    pool of `threads` - 1 threads, which is made if there is none."""
    pool = benchmarks._eval_pool(threads - 1)
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


def test_a_batch_of_few_directions_keeps_the_pool(monkeypatch):
    # a threaded call submits one future per share but the caller's; a batch
    # of fewer directions than threads makes fewer shares on the same pool
    # of eval_threads() - 1 threads, neither replaced nor resized
    b = make_benchmark("ackley", 13, 4)
    stencil, _ = stencil_and_line_search_batches(b, np.random.default_rng(11))
    few = Lines(stencil.origin, stencil.directions[:2], stencil.offsets)
    expected = b(few)
    submitted = spy_on_submissions(monkeypatch, 4)
    pool = benchmarks._POOL[2]
    blocked_values(b, stencil, monkeypatch, 1, 4)
    assert len(submitted) == 3
    submitted.clear()
    np.testing.assert_array_equal(blocked_values(b, few, monkeypatch, 1, 4), expected)
    assert submitted == [(1, 2)]
    assert benchmarks._POOL[2] is pool and pool._max_workers == 3


def test_threaded_calls_share_the_pools_threads_and_the_caller(monkeypatch):
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


def test_another_thread_count_replaces_the_pool(monkeypatch):
    # the replaced pool is shut down: its threads exit, and the thread count
    # returns to what it was with the first pool
    b = make_benchmark("ackley", 13, 4)
    stencil, _ = stencil_and_line_search_batches(b, np.random.default_rng(11))
    blocked_values(b, stencil, monkeypatch, 1, 2)
    before = set(threading.enumerate())
    blocked_values(b, stencil, monkeypatch, 1, 4)
    made = set(threading.enumerate()) - before
    assert made
    blocked_values(b, stencil, monkeypatch, 1, 2)
    assert not any(thread.is_alive() for thread in made)
    assert threading.active_count() == len(before)


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
