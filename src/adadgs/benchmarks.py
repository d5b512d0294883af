"""Benchmark suite: 12 rotated/shifted test functions and objective wrappers.

Each base function is defined on all of R^d; the stated domains are the
initial search regions only. A benchmark instance evaluates
F_base(R(x - x_opt) + z_star) where z_star is the base function's
minimizer, so the global optimum sits at x_opt regardless of rotation.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import select
import shlex
import subprocess
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import EvaluationError, check_count


class Lines(NamedTuple):
    """A structured batch: the k*m points origin + offsets[j] * directions[i],
    direction-major (row i*m + j), for k directions and m offsets.
    Directions None are the d coordinate axes, with no array built for them."""

    origin: np.ndarray  # shape (d,)
    directions: np.ndarray | None  # shape (k, d), or None: the axes, k = d
    offsets: np.ndarray  # shape (m,)

    @property
    def points(self) -> np.ndarray:
        """The batch as a (k*m, d) array of points."""
        d = self.origin.shape[0]
        directions = np.eye(d) if self.directions is None else self.directions
        steps = self.offsets[None, :, None] * directions[:, None, :]
        return (self.origin + steps).reshape(-1, d)

    def point(self, k: int) -> np.ndarray:
        """Row k of `points`, bit for bit, without building the others; an
        IndexError unless 0 <= k < len(points), on the axes as elsewhere."""
        rows = len(self.origin if self.directions is None else self.directions)
        i, j = divmod(k, len(self.offsets))
        if not 0 <= i < rows:
            raise IndexError(f"point {k} of a batch of {rows} directions x "
                             f"{len(self.offsets)} offsets")
        if self.directions is not None:
            return self.origin + self.offsets[j] * self.directions[i]
        # axis i as a mask: an offset times True or False is offset * 1.0 or * 0.0
        return self.origin + self.offsets[j] * (np.arange(len(self.origin)) == i)


class Objective:
    """A counted black-box loss function with an initial search domain.

    `dim` is a count, checked with `check_count`. Accepts a single point of
    shape (d,) or a `Lines` batch, the one batch form; the evaluation
    counter increments by the number of points evaluated. `fn` maps an
    (n, d) array to n values. A `Lines` batch goes to `_eval_lines`, which
    builds its points and calls `fn`; a subclass may override that hook to
    use the batch's structure.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        dim: int,
        bounds: tuple[np.ndarray, np.ndarray],
    ):
        check_count("dim", dim, 1)
        self.fn = fn
        self.dim = int(dim)
        lower, upper = bounds
        self.lower = np.broadcast_to(np.asarray(lower, float), (self.dim,)).copy()
        self.upper = np.broadcast_to(np.asarray(upper, float), (self.dim,)).copy()
        self._count = 0

    def __call__(self, x):
        if isinstance(x, Lines):
            lines = Lines(*(a if a is None else np.asarray(a, float) for a in x))
            origin, directions, offsets = lines
            shape = (self.dim, self.dim) if directions is None else directions.shape
            if (np.shape(origin) != (self.dim,) or len(shape) != 2
                    or shape[1] != self.dim or np.ndim(offsets) != 1):
                raise ValueError(
                    f"expected lines of dim {self.dim}, got origin {np.shape(origin)}, "
                    f"directions {shape}, offsets {np.shape(offsets)}")
            self._count += shape[0] * offsets.shape[0]
            return np.asarray(self._eval_lines(lines), float)
        x = np.asarray(x, float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a point of shape ({self.dim},) or a Lines "
                             f"batch, got shape {x.shape}")
        self._count += 1
        return float(self.fn(x[None, :])[0])

    def _eval_lines(self, lines: Lines) -> np.ndarray:
        return self.fn(lines.points)

    @property
    def evals(self) -> int:
        return self._count

    @property
    def domain_width(self) -> float:
        return float(np.max(self.upper - self.lower))

    @property
    def domain_diagonal(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))


# ---------------------------------------------------------------------------
# Base functions (batched: Z of shape (n, d) -> values of shape (n,))
# ---------------------------------------------------------------------------


def _ackley(Z):
    d = Z.shape[1]
    a, b, c = 20.0, 0.2, 2.0 * np.pi
    r = np.sqrt(np.sum(Z**2, axis=1) / d)
    return -a * np.exp(-b * r) - np.exp(np.mean(np.cos(c * Z), axis=1)) + a + np.e


def _alpine(Z):
    return np.sum(np.abs(Z * np.sin(Z) + 0.1 * Z), axis=1)


def _ellipsoidal(Z):
    d = Z.shape[1]
    expo = 6.0 * np.arange(d) / (d - 1) if d > 1 else np.zeros(1)
    return np.sum(10.0**expo * Z**2, axis=1)


def _quintic(Z):
    p = Z**5 - 3 * Z**4 + 4 * Z**3 + 2 * Z**2 - 10 * Z - 4
    return np.sum(np.abs(p), axis=1)


def _rastrigin(Z):
    d = Z.shape[1]
    return 10.0 * d + np.sum(Z**2 - 10.0 * np.cos(2.0 * np.pi * Z), axis=1)


def _rosenbrock(Z):
    return np.sum(100.0 * (Z[:, 1:] - Z[:, :-1] ** 2) ** 2 + (Z[:, :-1] - 1.0) ** 2, axis=1)


def _schaffer_f7(Z):
    d = Z.shape[1]
    s = np.sqrt(Z[:, :-1] ** 2 + Z[:, 1:] ** 2)
    rs = np.sqrt(s)
    inner = np.sum(rs + rs * np.sin(50.0 * s**0.2) ** 2, axis=1)
    return inner**2 / (d - 1)


def _sharp_ridge(Z):
    return Z[:, 0] ** 2 + 100.0 * np.sqrt(np.sum(Z[:, 1:] ** 2, axis=1))


def _salomon(Z):
    r = np.sqrt(np.sum(Z**2, axis=1))
    return 1.0 - np.cos(2.0 * np.pi * r) + 0.1 * r


def _styblinski_tang(Z):
    return 0.5 * np.sum(Z**4 - 16.0 * Z**2 + 5.0 * Z, axis=1)


def _trigonometric(Z):
    W = Z - 0.9
    return 1.0 + np.sum(
        8.0 * np.sin(7.0 * W**2) ** 2 + 6.0 * np.sin(14.0 * W**2) ** 2 + W**2, axis=1
    )


def _wavy(Z):
    return 1.0 - np.mean(np.cos(10.0 * Z) * np.exp(-(Z**2) / 2.0), axis=1)


_STYBLINSKI_Z = -2.903534
_STYBLINSKI_F1D = 0.5 * (
    _STYBLINSKI_Z**4 - 16.0 * _STYBLINSKI_Z**2 + 5.0 * _STYBLINSKI_Z
)  # = -39.16599...


@dataclass(frozen=True)
class BenchmarkInfo:
    fn: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float
    z_star: float  # per-coordinate minimizer of the base function
    optimum_per_dim: float  # f(x_opt) = offset + slope * d
    optimum_offset: float = 0.0


BENCHMARKS: dict[str, BenchmarkInfo] = {
    "ackley": BenchmarkInfo(_ackley, -32.768, 32.768, 0.0, 0.0),
    "alpine": BenchmarkInfo(_alpine, -10.0, 10.0, 0.0, 0.0),
    "ellipsoidal": BenchmarkInfo(_ellipsoidal, -2.0, 2.0, 0.0, 0.0),
    "quintic": BenchmarkInfo(_quintic, -10.0, 10.0, -1.0, 0.0),
    "rastrigin": BenchmarkInfo(_rastrigin, -5.12, 5.12, 0.0, 0.0),
    "rosenbrock": BenchmarkInfo(_rosenbrock, -5.0, 10.0, 1.0, 0.0),
    "schaffer_f7": BenchmarkInfo(_schaffer_f7, -100.0, 100.0, 0.0, 0.0),
    "sharp_ridge": BenchmarkInfo(_sharp_ridge, -10.0, 10.0, 0.0, 0.0),
    "salomon": BenchmarkInfo(_salomon, -100.0, 100.0, 0.0, 0.0),
    "styblinski_tang": BenchmarkInfo(
        _styblinski_tang, -5.0, 5.0, _STYBLINSKI_Z, _STYBLINSKI_F1D
    ),
    "trigonometric": BenchmarkInfo(_trigonometric, -500.0, 500.0, 0.9, 0.0, 1.0),
    "wavy": BenchmarkInfo(_wavy, -np.pi, np.pi, 0.0, 0.0),
}


def optimum_value(name: str, d: int) -> float:
    """Global minimum value of a benchmark at dimension d."""
    info = BENCHMARKS[name]
    return info.optimum_offset + info.optimum_per_dim * d


# Elements of Z per block of a Lines batch (numpy 2.4.6, OpenBLAS 0.3.31, 2
# vCPUs). A batch of more than BLOCK_ELEMENTS is split into one share per
# thread, each walked in blocks of at most that many (512 KiB of float64):
# blocks of 2**18 evaluate a d=1000 stencil as fast, but each thread's malloc
# arena keeps their temporaries, and a d=1000 trial peaked at 79.9-81.9 MB RSS
# against 76.8-77.1 MB in blocks of 2**16. A smaller batch is evaluated
# serially in blocks of at most SERIAL_BLOCK_ELEMENTS: 2**14 float64 is 128
# KiB, glibc's default mmap threshold, so malloc reuses each block's
# temporaries instead of mapping fresh pages on every call; a third run of
# two d=100 Rastrigin trials of 5e4 evaluations in one process took 65.5k
# minor page faults in one block, 40.2k in blocks of 2**15 and 1.6k in 2**14.
BLOCK_ELEMENTS = 2**16
SERIAL_BLOCK_ELEMENTS = 2**14


def eval_threads() -> int:
    """Threads that evaluate a batch of more than one block: the CPUs this
    process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


@functools.cache
def _eval_pool(pid: int):
    """Process `pid`'s `ThreadPoolExecutor` of `eval_threads()` - 1 evaluation
    threads, made, and its module imported, on first use; called as
    `_eval_pool(os.getpid())`, so a forked child, whose copy of its parent's
    pool has no threads, makes its own. A later `eval_threads()` changes the
    share count, not the pool; every share is row-wise, so a pool of another
    size gives the same values."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(eval_threads() - 1, thread_name_prefix="adadgs-eval")


def _to_base(X: np.ndarray, rotation, x_opt, z_star: float) -> np.ndarray:
    """Base-function coordinates R(x - x_opt) + z_star of x, or of each row of X."""
    Z = (X - x_opt) @ rotation.T
    return Z + z_star if z_star != 0.0 else Z


class TransformedBenchmark(Objective):
    """A rotated and shifted benchmark with its optimum at x_opt.

    A `Lines` batch is evaluated in rotated coordinates, as
    z0 + offsets[j] * W[i] with z0 = R(origin - x_opt) + z_star and
    W = directions R^T, so no point array is built and the rotation costs
    k*d*d instead of k*m*d*d. W is kept for the last directions array that
    is read-only and owns its data (a random frame, as `haar_rotation`
    draws it), matched by identity, so a frame is rotated once however
    often it is used. The cache holds that array by a weak reference, so it
    never keeps a frame alive, and it lets go of the old W before it makes
    the next. The coordinate axes (directions None), which every AdaDGS and
    `fd` trial starts from, have W = R^T (I R^T is R^T bit for bit), a view
    whose rows each block copies; R is the one d x d array such a trial
    holds. `make_benchmark` draws R read-only; a caller's own R must not be
    written after the benchmark is built, or a cached W goes stale.

    A batch of more than `BLOCK_ELEMENTS` (2**16) coordinates is threaded,
    in blocks of at most `BLOCK_ELEMENTS` (numpy releases the GIL); a
    smaller one is serial, in blocks of at most `SERIAL_BLOCK_ELEMENTS`
    (2**14, 128 KiB), whose memory malloc reuses. A direction of more
    coordinates than the block size is cut into c = ceil(m / (size // d))
    runs of consecutive offsets (one offset each where d alone is more),
    their sizes differing by at most one offset; else c = 1. The work units
    are the k*c (direction, run) pairs, direction-major like the values.
    They are split into n contiguous shares, differing by at most one unit:
    n = min(k*c, `eval_threads()`) when threaded, else 1. Each share is
    walked in blocks of whole directions when c = 1, else of one run each.
    The caller evaluates the first share and the process's pool
    (`_eval_pool`) the others. The pool lives as long as the process, so
    its threads' malloc arenas are reused from call to call. A
    `paper-1000d` line search at d=1000 (one direction, 200 offsets) is 4
    runs of 50 offsets, two per thread on 2 CPUs: one call's temporaries
    peak at 0.15 d*d*8 bytes on one thread, against 0.60 as one block.
    Every base function is row-wise, so the values do not depend on the
    block size, the runs or the thread count.
    """

    def __init__(self, name: str, rotation: np.ndarray, x_opt: np.ndarray):
        info = BENCHMARKS[name]
        self.rotation = np.asarray(rotation, float)
        self.x_opt = np.asarray(x_opt, float)
        self._info = info
        # (a weak reference to the cached directions, their W); None matches none
        self._rotated = (lambda: None, None)

        # fn must not refer to self: the cycle would keep each benchmark's
        # d x d arrays alive until the cyclic garbage collector runs
        def fn(X, _info=info, _R=self.rotation, _xo=self.x_opt):
            return _info.fn(_to_base(X, _R, _xo, _info.z_star))

        super().__init__(fn, len(x_opt), (info.lower, info.upper))

    def _eval_lines(self, lines: Lines) -> np.ndarray:
        origin, directions, offsets = lines
        cached, W = self._rotated  # one read: another caller may replace the pair
        if directions is None:
            W = self.rotation.T  # the axes: I R^T is R^T, a view
        elif cached() is not directions:
            # a read-only array that owns its data cannot change under the cache
            if cache := not directions.flags.writeable and directions.base is None:
                cached, W = self._rotated = (lambda: None, None)  # the old W dies before the new
            W = directions @ self.rotation.T
            if cache:
                self._rotated = (weakref.ref(directions), W)
        z0 = _to_base(origin, self.rotation, self.x_opt, self._info.z_star)
        base_fn, d, m, k = self._info.fn, self.dim, len(offsets), len(W)
        out = np.empty(k * m)

        threaded = k * m * d > BLOCK_ELEMENTS
        size = BLOCK_ELEMENTS if threaded else SERIAL_BLOCK_ELEMENTS
        # a direction of more than size coordinates is cut into c runs of
        # consecutive offsets, each of at most size coordinates, or one point
        # where d is more; the units are the k*c (direction, run) pairs
        c = max(1, -(-m // max(1, size // d)))
        units = k * c
        n = min(units, eval_threads()) if threaded else 1

        def share(a, b):
            # units a..b in blocks of at most size coordinates: whole directions
            # when c = 1, else one run each; blocks and shares are whole units,
            # their sizes differing by at most one
            blocks = -(-(b - a) // max(1, size // max(1, m * d)))
            for i in range(blocks):
                lo, hi = a + (b - a) * i // blocks, a + (b - a) * (i + 1) // blocks
                # directions lo//c..ceil(hi/c), offsets from lo's run to (hi-1)'s
                first, stop = lo // c, -(-hi // c)
                j0, j1 = m * (lo % c) // c, m * ((hi - 1) % c + 1) // c
                # the view R^T's strided rows are copied: read in place, they
                # slowed a d=1000 stencil by ~6%
                rows = np.ascontiguousarray(W[first:stop])
                Z = offsets[None, j0:j1, None] * rows[:, None, :]
                Z += z0  # in place: a second block-sized temporary slowed d=200 by ~10%
                out[first * m + j0:(stop - 1) * m + j1] = base_fn(Z.reshape(-1, d))
                del Z, rows  # before the next block's are made, or malloc trims and refaults the heap

        # the caller evaluates the first share and the pool the rest, each of
        # those in a copy of the caller's context, so that np.errstate applies
        # in the pool's threads too
        futures = [_eval_pool(os.getpid()).submit(contextvars.copy_context().run, share,
                                                  units * i // n, units * (i + 1) // n)
                   for i in range(1, n)]
        try:
            share(0, units // n)
        finally:
            if futures:  # a serial batch submits none, and so imports no executor
                from concurrent.futures import wait
                wait(futures)  # no share writes to out once this call has ended
        for future in futures:
            future.result()
        return out


def make_benchmark(name: str, d: int, seed) -> TransformedBenchmark:
    """Draw a random rotation and optimum location for a named benchmark.

    x_opt is uniform over the central 80% of the initial search domain;
    the rotation is Haar-distributed.
    """
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}")
    check_count("d", d, 2)
    info = BENCHMARKS[name]
    rng = np.random.default_rng(seed)
    R = haar_rotation(d, rng)
    center = 0.5 * (info.lower + info.upper)
    half = 0.5 * (info.upper - info.lower)
    x_opt = rng.uniform(center - 0.8 * half, center + 0.8 * half, size=d)
    return TransformedBenchmark(name, R, x_opt)


def haar_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform random orthogonal matrix: Q of A = QR, A standard normal,
    with Q's columns multiplied by the signs of R's diagonal.

    A is factored in the buffer it is drawn in, by the LAPACK routines
    `np.linalg.qr` runs, taken from numpy's bundled OpenBLAS with the work
    size numpy passes. The buffer is transposed in place, so that its `.T`
    view is A in the routines' column-major order: `dgeqrf` leaves R on and
    above the diagonal, `dorgqr` forms Q over it, and a second transpose
    leaves Q in C order for the sign product. `np.linalg.qr` and its gufuncs
    copy A, and A and Q again, into buffers of their own, and make an R and
    a second Q for the sign product; at d=1000 those set the peak memory of
    a trial. This draw holds one d*d array. Where numpy's library lacks
    either routine, `np.linalg.qr` draws it. A test pins the result, bit
    for bit, to `np.linalg.qr`'s on both paths. A d below 1 is a ValueError
    on both. On both, Q is C-contiguous, owns its data and is read-only:
    no R or frame changes after the draw, so no cached W goes stale.
    """
    check_count("d", d, 1)
    A = rng.standard_normal((d, d))
    routines = [openblas_function(name) for name in ("scipy_dgeqrf_64_", "scipy_dorgqr_64_")]
    if None in routines:
        A, R = np.linalg.qr(A)
        A *= np.sign(np.diag(R))
    else:
        _transpose_in_place(A)  # A.T is now the drawn matrix, column-major
        tau = np.empty(d)
        (geqrf, integer), (orgqr, _) = routines
        _lapack(geqrf, integer, 2, A.T, tau)
        signs = np.sign(A.diagonal())
        _lapack(orgqr, integer, 3, A.T, tau)
        _transpose_in_place(A)  # Q, in C order
        A *= signs
    A.setflags(write=False)
    return A


# Rows and columns per block of `_transpose_in_place` (numpy 2.4.6, 2 vCPUs):
# a d=1000 transpose in blocks of 64 or 128 took 1.3 ms, as long as numpy's
# copy to column-major order, against 2.3 ms in blocks of 32 and 1.5 ms in
# 256. A block of 64 is 32 KiB
TRANSPOSE_BLOCK = 64


def _transpose_in_place(A: np.ndarray) -> None:
    """Transpose the square array A in place, swapping each block above the
    diagonal with its mirror below through a copy of one block."""
    d, b = len(A), TRANSPOSE_BLOCK
    for i in range(0, d, b):
        for j in range(i, d, b):
            upper = A[i:i + b, j:j + b].copy()
            if j != i:
                A[i:i + b, j:j + b] = A[j:j + b, i:i + b].T
            A[j:j + b, i:i + b] = upper.T


_WORK_SIZES: dict = {}  # (routine name, n) -> LWORK, filled by _lapack's queries


def _lapack(routine, integer, sizes: int, F: np.ndarray, tau: np.ndarray) -> None:
    """Call the LAPACK routine (M, N[, K], A, LDA, TAU, WORK, LWORK, INFO) on
    the square column-major F, every size len(F). LWORK is max(1, N, the size
    a workspace query asks for), as numpy's gufuncs pass; the query runs on
    the first call for each routine and size, and its answer is kept. Any
    other F is a ValueError: the routines would read a C-ordered F as its
    transpose, and a non-square one past its end."""
    if (F.ndim != 2 or F.shape[0] != F.shape[1] or not F.flags.f_contiguous
            or F.dtype != np.float64):
        raise ValueError(f"expected a square column-major float64 array, got shape "
                         f"{F.shape}, dtype {F.dtype}, f_contiguous {F.flags.f_contiguous}")
    n, info = ctypes.byref(integer(len(F))), integer()

    def call(work, lwork):
        routine(*[n] * sizes, F.ctypes, n, tau.ctypes, work.ctypes,
                ctypes.byref(integer(lwork)), ctypes.byref(info))
        if info.value:
            raise np.linalg.LinAlgError(
                "Incorrect argument found while performing QR factorization")

    if (key := (routine.__name__, len(F))) not in _WORK_SIZES:
        query = np.empty(1)
        call(query, -1)
        _WORK_SIZES[key] = max(1, len(F), int(query[0]))
    call(np.empty(_WORK_SIZES[key]), _WORK_SIZES[key])


@functools.cache
def openblas_function(name: str):
    """The function `name` of numpy's bundled OpenBLAS, paired with the ctypes
    type of the library's integers (int64 where the name ends in `64_`, as an
    ILP64 build's do), or None where numpy's library exports no such name.
    Each name is looked up on first use, not when adadgs is imported."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return getattr(lib, name), ctypes.c_int64 if name.endswith("64_") else ctypes.c_int
    except (AttributeError, OSError):
        return None


# the BLAS thread count every trial runs under: a matvec's rounding depends on
# it, and a second BLAS thread spins on a CPU that a stencil's blocks can use
BLAS_THREADS = 1


def _blas_thread_functions():
    """numpy's bundled OpenBLAS (get, set) thread-count functions, or None
    where there are none to be found."""
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                           ("openblas_", "")):
        found = [openblas_function(f"{prefix}{verb}_num_threads{suffix}")
                 for verb in ("get", "set")]
        if None not in found:
            # each takes or returns a C int, whatever the library's integers
            (get, _), (set_, _) = found
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def blas_threads():
    """Run the block with numpy's BLAS on `BLAS_THREADS` threads, restoring
    the previous count on exit; where no setter was found, the BLAS keeps
    its own count."""
    if (functions := _blas_thread_functions()) is None:
        yield
        return
    get, set_ = functions
    before = get()
    set_(BLAS_THREADS)
    try:
        yield
    finally:
        set_(before)


# ---------------------------------------------------------------------------
# External-process objectives
# ---------------------------------------------------------------------------


class SubprocessObjective(Objective):
    """Objective backed by an external process speaking a line protocol.

    Handshake: send "H <d>", expect "OK". Per evaluation: send
    "E <x_1> ... <x_d>", expect one line holding the value, or
    "ERR <message>". Requests are serialized (one in flight).
    """

    def __init__(self, command, dim: int, bounds=None, timeout: float | None = 30.0):
        check_count("dim", dim, 1)  # before the worker starts, so none is left running
        if isinstance(command, str):
            command = shlex.split(command)
        if bounds is None:
            bounds = (np.full(dim, -np.inf), np.full(dim, np.inf))
        self.timeout = timeout
        self._proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        try:
            if (reply := self._roundtrip(f"H {dim}")) != "OK":
                raise EvaluationError(f"handshake failed: expected 'OK', got {reply!r}")
        except BaseException:  # no object is returned, so nothing else would close it
            self.close()
            raise
        super().__init__(self._eval_batch, dim, bounds)

    def _roundtrip(self, line: str) -> str:
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
            if self.timeout is not None:
                ready, _, _ = select.select([self._proc.stdout], [], [], self.timeout)
                if not ready:
                    self._proc.kill()
                    raise EvaluationError(
                        f"subprocess timed out after {self.timeout}s"
                    )
            reply = self._proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise EvaluationError(f"subprocess pipe failure: {exc}") from exc
        if reply == "":
            code = self._proc.poll()
            raise EvaluationError(f"subprocess exited (code {code}) without replying")
        return reply.strip()

    def _eval_batch(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for k, x in enumerate(X):
            request = "E " + " ".join(repr(float(v)) for v in x)
            reply = self._roundtrip(request)
            if reply.startswith("ERR"):
                raise EvaluationError(f"objective reported error: {reply}", index=k)
            try:
                out[k] = float(reply)
            except ValueError:
                raise EvaluationError(f"garbled response {reply!r}", index=k) from None
        return out

    def close(self):
        """Close both pipes and reap the worker, killing it if it has not
        exited 5 s after its stdin closed."""
        with contextlib.suppress(BrokenPipeError):  # the worker may be gone
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
