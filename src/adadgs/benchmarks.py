"""Benchmark suite: 12 rotated/shifted test functions and objective wrappers.

Each base function is defined on all of R^d; the stated domains are the
initial search regions only. A benchmark instance evaluates
F_base(R(x - x_opt) + z_star) where z_star is the base function's
minimizer, so the global optimum sits at x_opt regardless of rotation.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import select
import shlex
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import EvaluationError, check_count


class Lines(NamedTuple):
    """A structured batch: the k*m points origin + offsets[j] * directions[i],
    direction-major (row i*m + j), for k directions and m offsets."""

    origin: np.ndarray  # shape (d,)
    directions: np.ndarray  # shape (k, d)
    offsets: np.ndarray  # shape (m,)

    @property
    def points(self) -> np.ndarray:
        """The batch as a (k*m, d) array of points."""
        steps = self.offsets[None, :, None] * self.directions[:, None, :]
        return (self.origin + steps).reshape(-1, self.origin.shape[0])


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
            lines = Lines(*(np.asarray(a, float) for a in x))
            origin, directions, offsets = lines
            if (origin.shape != (self.dim,) or directions.ndim != 2
                    or directions.shape[1] != self.dim or offsets.ndim != 1):
                raise ValueError(
                    f"expected lines of dim {self.dim}, got origin {origin.shape}, "
                    f"directions {directions.shape}, offsets {offsets.shape}")
            self._count += directions.shape[0] * offsets.shape[0]
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


# Elements of Z per block of a Lines batch. A batch of more than BLOCK_ELEMENTS
# is spread over the CPUs in blocks of at most that many: one d=1000 stencil
# call (4000 x 1000 points, rotated Ackley) took 166 ms unblocked, 133 ms in
# blocks of 2**18 on one thread and 74 ms on 2 CPUs. A smaller batch is
# evaluated serially in blocks of at most SERIAL_BLOCK_ELEMENTS: 2**14 float64
# is 128 KiB, glibc's default mmap threshold, so malloc reuses each block's
# temporaries from the heap instead of mapping fresh pages on every call. Two
# d=100 Rastrigin trials of 5e4 evaluations took 65.6k minor page faults in one
# block, 40k in blocks of 2**15 and 1.6k in blocks of 2**14 (numpy 2.4.6,
# OpenBLAS 0.3.31, the BLAS on one thread).
BLOCK_ELEMENTS = 2**18
SERIAL_BLOCK_ELEMENTS = 2**14


def eval_threads() -> int:
    """Threads that evaluate a batch of more than one block: the CPUs this
    process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


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
    is read-only and owns its data (a `Frame`'s matrix), matched by
    identity, so a frame is rotated once however often it is used. The
    identity frame, which every AdaDGS and `fd` trial starts from, is
    rotated without a matmul: its W is a copy of R^T.

    The batch is built and evaluated in blocks of whole directions. A batch
    of at most `BLOCK_ELEMENTS` (2**18) coordinates runs serially in blocks
    of at most `SERIAL_BLOCK_ELEMENTS` (2**14, 128 KiB), whose memory malloc
    reuses: two d=100 trials took 1.6k minor page faults, not 65.6k. A larger
    batch is spread over `eval_threads()` threads (numpy releases the GIL),
    in blocks of at most `BLOCK_ELEMENTS`, as many as a multiple of the thread
    count, in a pool made for the call, so a forked process inherits no idle
    pool. Every base function is row-wise, so the values do not depend on the
    block size or the thread count.
    """

    def __init__(self, name: str, rotation: np.ndarray, x_opt: np.ndarray):
        info = BENCHMARKS[name]
        self.rotation = np.asarray(rotation, float)
        self.x_opt = np.asarray(x_opt, float)
        self._info = info
        self._rotated = (None, None)  # (directions, directions @ R^T)

        # fn must not refer to self: the cycle would keep each benchmark's
        # d x d arrays alive until the cyclic garbage collector runs
        def fn(X, _info=info, _R=self.rotation, _xo=self.x_opt):
            return _info.fn(_to_base(X, _R, _xo, _info.z_star))

        super().__init__(fn, len(x_opt), (info.lower, info.upper))

    def _eval_lines(self, lines: Lines) -> np.ndarray:
        origin, directions, offsets = lines
        cached, W = self._rotated
        if cached is not directions:
            # I R^T is R^T bit for bit, so the identity frame needs no matmul
            identity = (directions.shape == self.rotation.shape
                        and (directions.diagonal() == 1).all()
                        and np.count_nonzero(directions) == self.dim)
            W = self.rotation.T.copy() if identity else directions @ self.rotation.T
            # a read-only array that owns its data cannot change under the cache
            if not directions.flags.writeable and directions.base is None:
                self._rotated = (directions, W)
        z0 = _to_base(origin, self.rotation, self.x_opt, self._info.z_star)
        base_fn, d, m, k = self._info.fn, self.dim, len(offsets), len(W)
        serial = k * m * d <= BLOCK_ELEMENTS
        size = SERIAL_BLOCK_ELEMENTS if serial else BLOCK_ELEMENTS
        blocks = max(1, -(-k // max(1, size // max(1, m * d))))
        if not serial:  # a multiple of the thread count, so that no thread idles
            threads = eval_threads()
            blocks = min(k, -(-blocks // threads) * threads)
        # whole directions per block, the sizes differing by at most one
        spans = [(k * i // blocks, k * (i + 1) // blocks) for i in range(blocks)]
        out = np.empty(k * m)

        def block(a, b):
            Z = offsets[None, :, None] * W[a:b, None, :]
            Z += z0  # in place: a second block-sized temporary slowed d=200 by ~10%
            out[a * m:b * m] = base_fn(Z.reshape(-1, d))

        if serial or blocks == 1:
            for a, b in spans:
                block(a, b)
        else:
            # each block runs in a copy of the caller's context, so that
            # np.errstate applies in the pool's threads too
            context = contextvars.copy_context()
            with ThreadPoolExecutor(threads) as pool:
                list(pool.map(lambda s: context.copy().run(block, *s), spans))
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
    """Haar-uniform random orthogonal matrix (QR with sign correction)."""
    A = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


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
