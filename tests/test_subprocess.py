import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adadgs.benchmarks import Lines, SubprocessObjective
from adadgs.errors import EvaluationError
from adadgs.optimizer import AdaDgsConfig, adadgs_minimize

HELPER = Path(__file__).parent / "helpers" / "echo_sphere.py"


def spawn(mode="ok", d=2, timeout=10.0):
    return SubprocessObjective([sys.executable, str(HELPER), mode], d,
                               bounds=(-10.0, 10.0), timeout=timeout)


@pytest.mark.parametrize("dim", [3.7, True])
def test_dim_is_checked_before_the_worker_starts(dim, monkeypatch):
    def no_worker(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(subprocess, "Popen", no_worker)
    with pytest.raises(ValueError, match="dim must be an integer"):
        SubprocessObjective([sys.executable, str(HELPER), "ok"], dim, bounds=(-10.0, 10.0))


def test_echo_sphere_value():
    with spawn() as F:
        assert F(np.array([3.0, 4.0])) == 25.0
        assert F.evals == 1


def test_batch_and_roundtrip_precision():
    with spawn(d=3) as F:
        X = np.array([[0.1, 0.2, 0.3], [1e-17, 2.0, -3.5]])
        got = F(Lines(np.zeros(3), X, np.ones(1)))  # the points X, as one batch
        np.testing.assert_array_equal(got, np.sum(X**2, axis=1))
        assert F.evals == 2


def test_lines_batch_counts_what_the_worker_answers(tmp_path):
    count_file = tmp_path / "count"
    lines = Lines(np.array([1.0, -2.0, 0.5]), np.eye(3)[:2], np.array([-0.25, 0.5, 2.0]))
    with SubprocessObjective([sys.executable, str(HELPER), "ok", str(count_file)], 3,
                             bounds=(-10.0, 10.0), timeout=10.0) as F:
        got = F(lines)
        np.testing.assert_array_equal(got, np.sum(lines.points**2, axis=1))
        assert F.evals == 6
    assert int(count_file.read_text()) == F.evals


def test_a_batch_along_the_axes_sends_the_explicit_identitys_points():
    # directions None reach the worker as the points np.eye would give,
    # down to the -0.0 that adding +0.0 would turn into 0.0
    origin, offsets = np.array([1.0, -0.0, 0.5]), np.array([-0.25, 0.5])
    with spawn(d=3) as F:
        sent, roundtrip = [], F._roundtrip
        F._roundtrip = lambda line: sent.append(line) or roundtrip(line)
        axes = F(Lines(origin, None, offsets))
        requests, sent[:] = list(sent), []
        eye = F(Lines(origin, np.eye(3), offsets))
        assert requests == sent and len(sent) == 6
        np.testing.assert_array_equal(axes, eye)
        assert F.evals == 12


def test_garbled_response():
    with spawn("garbled") as F:
        with pytest.raises(EvaluationError, match="garbled"):
            F(np.array([1.0, 2.0]))


def test_err_response():
    with spawn("err") as F:
        with pytest.raises(EvaluationError, match="simulated failure"):
            F(np.array([1.0, 2.0]))


def test_bad_handshake_fails_before_optimization():
    with pytest.raises(EvaluationError, match="handshake"):
        spawn("bad-handshake")


@pytest.mark.parametrize("path,failure", [
    ("normal", None),
    ("bad-handshake", "handshake"),
    ("exit-at-handshake", "exited"),
    ("hang-at-handshake", "timed out"),
    ("timeout", None),
], ids=["normal", "bad-handshake", "exit-at-handshake", "hang-at-handshake", "timeout"])
def test_close_closes_both_pipes_and_reaps_the_worker(monkeypatch, path, failure):
    procs = []
    popen = subprocess.Popen

    def record(*args, **kw):
        procs.append(popen(*args, **kw))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", record)
    if failure is not None:  # the constructor fails, and must clean up itself
        with pytest.raises(EvaluationError, match=failure):
            spawn(path, timeout=0.5)
    else:
        with spawn("ok" if path == "normal" else "hang", timeout=0.5) as F:
            if path == "timeout":
                with pytest.raises(EvaluationError, match="timed out"):
                    F(np.array([1.0, 2.0]))
            else:
                F(np.array([1.0, 2.0]))
    [proc] = procs
    assert proc.stdin.closed and proc.stdout.closed
    assert proc.returncode is not None


def test_dimension_mismatch_reported():
    with spawn(d=3) as F:
        F.dim = 4  # force a protocol-level mismatch
        with pytest.raises(EvaluationError, match="expected 3 coordinates"):
            F(np.zeros(4))


def test_timeout():
    with spawn("hang", timeout=0.5) as F:
        with pytest.raises(EvaluationError, match="timed out"):
            F(np.array([1.0, 2.0]))


def test_optimizer_aborts_cleanly_on_protocol_error():
    with spawn("garbled") as F:
        with pytest.raises(EvaluationError):
            adadgs_minimize(F, np.array([1.0, 1.0]), AdaDgsConfig(T_max=5))


def test_optimize_through_subprocess():
    with spawn(d=2) as F:
        x_best, f_best, trace = adadgs_minimize(
            F, np.array([3.0, -4.0]), AdaDgsConfig(T_max=10, gamma=0.0, seed=0)
        )
        assert f_best < 1e-2
        assert trace.final.evals == F.evals
