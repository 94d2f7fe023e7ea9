"""Fuzz trials in contiguous shards across forked children.

`run_fuzz_trials` runs the first shard of its trials in the calling
process and each other shard in a child made with `os.fork`. The shard
rule is forced here by lowering the private `_MIN_TRIALS_PER_SHARD`; the
worker count never exceeds the usable CPUs, so no test starts more
processes than there are CPUs to run them. A stage patched to act only
in a child (its pid differs from the test's) shows which trials each
process ran, how a child's failure or exception comes back, and that no
child is left once the call returns or raises.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import roughcm.errors as errors
import roughcm.oracle as oracle
from roughcm import (
    OverlapViolationError,
    TheoremReport,
    UnknownAttributeError,
    run_fuzz_trials,
)
from roughcm.cli import main

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
forks = pytest.mark.skipif(
    not hasattr(os, "fork") or CPUS < 2, reason="sharding needs os.fork and two usable CPUs"
)

TRIALS = 10
# with _MIN_TRIALS_PER_SHARD = TRIALS // 2 a run has exactly two shards,
# trials 0-4 here and trials 5-9 in one child
SECOND_SHARD = 5


@pytest.fixture
def two_shards(monkeypatch):
    monkeypatch.setattr(oracle, "_MIN_TRIALS_PER_SHARD", TRIALS // 2)


@pytest.fixture
def fork_count(monkeypatch):
    """The forks the run makes, counted in the calling process."""
    made = []
    real_fork = os.fork

    def fork():
        made.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return made


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_children(monkeypatch, act, everywhere=False):
    """Patch the verifier to run `act` in each child, or in every process;
    elsewhere it verifies as before."""
    here, real_verify = os.getpid(), oracle.verify_theorems

    def verify(gfm, f, cm, bounds, context=None):
        if everywhere or os.getpid() != here:
            return act()
        return real_verify(gfm, f, cm, bounds, context)

    monkeypatch.setattr(oracle, "verify_theorems", verify)


def _not_applicable():
    return TheoremReport(False, (), (), {})


def test_the_worker_count_is_the_usable_cpus_capped_by_the_trials(monkeypatch):
    monkeypatch.setattr(oracle, "_MIN_TRIALS_PER_SHARD", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [oracle._workers(t) for t in (0, 199, 200, 299, 300, 10_000)] == [1, 1, 2, 2, 3, 3]


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_one_process_where_the_platform_cannot_shard(monkeypatch, missing):
    monkeypatch.setattr(oracle, "_MIN_TRIALS_PER_SHARD", 1)
    monkeypatch.delattr(os, missing, raising=False)
    assert oracle._workers(10_000) == 1


def test_the_runs_that_tests_patch_stay_in_one_process():
    # every other test of a patched stage runs 200 trials or fewer
    assert oracle._workers(200) == 1


@forks
@pytest.mark.parametrize("kinds", [("mrc", "random"), ("random",)])
def test_a_sharded_run_gives_the_one_process_summary(monkeypatch, fork_count, kinds):
    monkeypatch.setattr(oracle, "_MIN_TRIALS_PER_SHARD", 1)
    sharded = run_fuzz_trials(40, 7, max_objects=12, classifier_kinds=kinds)
    assert fork_count == [1] * (min(CPUS, 40) - 1)
    _no_child_left()
    monkeypatch.setattr(oracle, "_MIN_TRIALS_PER_SHARD", 41)
    assert run_fuzz_trials(40, 7, max_objects=12, classifier_kinds=kinds) == sharded
    assert len(fork_count) == min(CPUS, 40) - 1


@forks
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_the_command_line_writes_the_same_bytes_in_shards(monkeypatch, capsys, fork_count, fmt):
    argv = ["fuzz", "--trials", "60", "--seed", "42", "--format", fmt]
    assert main(argv) == 0
    alone = capsys.readouterr()
    assert fork_count == []
    monkeypatch.setattr(oracle, "_MIN_TRIALS_PER_SHARD", 1)
    assert main(argv) == 0
    assert fork_count == [1] * (min(CPUS, 60) - 1)
    assert capsys.readouterr() == alone
    _no_child_left()


@forks
def test_a_failure_in_a_child_is_the_first_failure_of_its_shard(monkeypatch, two_shards):
    _in_children(monkeypatch, _not_applicable)
    summary = run_fuzz_trials(TRIALS, 3)
    assert (summary.checks, summary.failures) == (2 * TRIALS, 2 * (TRIALS - SECOND_SHARD))
    assert summary.first_failure.trial == SECOND_SHARD
    assert summary.first_failure.classifier_kind == "mrc"
    assert summary.first_failure.failed_checks == ("not-applicable",)
    _no_child_left()


@forks
def test_the_lowest_failing_trial_is_first_whatever_the_shards(monkeypatch, two_shards):
    _in_children(monkeypatch, _not_applicable, everywhere=True)
    summary = run_fuzz_trials(TRIALS, 3)
    assert (summary.checks, summary.failures) == (2 * TRIALS, 2 * TRIALS)
    assert summary.first_failure.trial == 0
    monkeypatch.setattr(oracle, "_MIN_TRIALS_PER_SHARD", TRIALS + 1)
    assert run_fuzz_trials(TRIALS, 3) == summary


def _raise(exc):
    def act():
        raise exc

    return act


@forks
@pytest.mark.parametrize(
    "exc",
    [
        ValueError("a child's own error"),
        OverlapViolationError((3, 4)),
        UnknownAttributeError(("colour",)),
    ],
)
def test_an_exception_in_a_child_reaches_the_caller_as_itself(monkeypatch, two_shards, exc):
    _in_children(monkeypatch, _raise(exc))
    with pytest.raises(type(exc)) as raised:
        run_fuzz_trials(TRIALS, 3)
    assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
    _no_child_left()


@forks
def test_a_child_that_ends_without_a_result_is_an_error(monkeypatch, two_shards):
    _in_children(monkeypatch, lambda: os._exit(3))
    message = f"^the fuzz shard of trials {SECOND_SHARD}..{TRIALS - 1} ended without a result$"
    with pytest.raises(ChildProcessError, match=message):
        run_fuzz_trials(TRIALS, 3)
    _no_child_left()


@forks
@pytest.mark.parametrize("exc", [RuntimeError("the caller's shard"), KeyboardInterrupt()])
def test_the_children_are_killed_and_reaped_when_the_caller_raises(monkeypatch, two_shards, exc):
    here, real_verify = os.getpid(), oracle.verify_theorems

    def verify(gfm, f, cm, bounds, context=None):
        if os.getpid() == here:
            raise exc
        return real_verify(gfm, f, cm, bounds, context)

    monkeypatch.setattr(oracle, "verify_theorems", verify)
    with pytest.raises(type(exc)):
        run_fuzz_trials(TRIALS, 3)
    _no_child_left()


@forks
def test_a_run_beside_another_thread_stays_in_one_process(two_shards, fork_count):
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_fuzz_trials(TRIALS, 7)
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert fork_count == []
    assert summary == run_fuzz_trials(TRIALS, 7)
    assert fork_count == [1]


ERRORS = [getattr(errors, name) for name in errors.__all__]
ARGUMENTS = {
    errors.UnknownAttributeError: (("colour", "size"),),
    errors.UndefinedClassError: (2,),
    errors.OverlapViolationError: (tuple(range(1, 13)),),
}


@pytest.mark.parametrize("error", ERRORS, ids=[error.__name__ for error in ERRORS])
def test_every_package_error_pickles_to_its_type_and_message(error):
    exc = error(*ARGUMENTS.get(error, ("a message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is error and str(back) == str(exc) and vars(back) == vars(exc)


def test_importing_the_command_line_imports_no_pickle_or_multiprocessing():
    probe = "import sys, roughcm.cli; print(sorted({'pickle', 'multiprocessing'} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
