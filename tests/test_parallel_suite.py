"""run_suite over forked processes: the same records as one process, the
same exceptions, and no process left behind."""

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dfalg import identities as idn
from dfalg import scalars
from dfalg.cli import main
from dfalg.fixtures import suite_fixtures

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # every child was reaped: this process has none, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def records(fixture_sets, processes, only=None):
    return [r.to_json() for r in idn.run_suite(fixture_sets, only=only,
                                               processes=processes)]


@pytest.mark.parametrize("field", [scalars.RATIONAL, scalars.FLOAT64])
def test_processes_give_the_serial_records_n2_6(field):
    sets = [suite_fixtures(n, 1, field) for n in range(2, 7)]
    serial = records(sets, 1)
    assert len(serial) == 2233
    for k in (2, 3):
        assert records(sets, k) == serial


def test_processes_give_the_serial_records_n8():
    sets = [suite_fixtures(8, 1)]
    serial = records(sets, 1)
    for k in (2, 3):
        assert records(sets, k) == serial


def test_filters_that_leave_one_task_or_none():
    fx = suite_fixtures(6, 1)
    fx.bianchi3 = fx.bianchi3[1:]
    assert len(idn._suite_tasks([fx], "cofactor_vanishing_pp")) == 1
    one = records([fx], 1, only="cofactor_vanishing_pp")
    assert one and {r["params"]["fixture"] for r in one} == {"random_bianchi3"}
    # n = 5 is odd: the row is there, with no call
    odd = [suite_fixtures(5, 1)]
    assert idn._suite_tasks(odd, "lovelock_top_even") == []
    for k in (1, 2, 3):
        assert records([fx], k, only="cofactor_vanishing_pp") == one
        assert records(odd, k, only="lovelock_top_even") == []


def test_deal_is_a_fixed_snake_over_the_largest_tasks():
    tasks = idn._suite_tasks([suite_fixtures(n, 1) for n in range(2, 7)], None)
    assert len(tasks) == 42
    for k in (2, 3):
        shares = idn._deal(tasks, k)
        assert sorted(i for share in shares for i in share) == list(range(42))
        assert idn._deal(tasks, k) == shares
    # the n = 6 tasks first, most calls first: A B B A over 2 processes
    biggest = sorted(range(42), key=lambda i: (tasks[i][0], len(tasks[i][2])),
                     reverse=True)
    first, second = idn._deal(tasks, 2)
    assert [i in first for i in biggest[:8]] == [True, False, False, True] * 2


def raise_for(monkeypatch, raising):
    """Make cayley_hamilton raise raising(w), where that is an exception."""
    check = idn.check_cayley_hamilton

    def patched(h):
        exc = raising(h)
        if exc is not None:
            raise exc
        return check(h)

    monkeypatch.setattr(idn, "check_cayley_hamilton", patched)


@pytest.mark.parametrize("k", [2, 3])
def test_a_child_exception_is_raised_with_its_type_and_message(monkeypatch, k):
    sets = [suite_fixtures(n, 1) for n in range(2, 5)]
    tasks = idn._suite_tasks(sets, "cayley_hamilton")
    target = tasks[idn._deal(tasks, k)[-1][-1]][1]  # the last child's last task
    raise_for(monkeypatch, lambda h: LookupError(f"no entry at n = {h.n}")
              if h is target else None)
    with pytest.raises(LookupError, match=rf"^no entry at n = {target.n}$"):
        idn.run_suite(sets, only="cayley_hamilton", processes=k)


def test_the_first_exception_in_task_order_is_raised_as_in_a_serial_run(monkeypatch):
    sets = [suite_fixtures(n, 1) for n in range(2, 5)]
    tasks = idn._suite_tasks(sets, "cayley_hamilton")
    mine, theirs = idn._deal(tasks, 2)
    # one failing task in each share; the child's comes first in task order
    failing = {id(tasks[min(theirs)][1]): min(theirs), id(tasks[max(mine)][1]): max(mine)}
    assert min(theirs) < max(mine)
    raise_for(monkeypatch, lambda h: ValueError(f"task {failing[id(h)]}")
              if id(h) in failing else None)
    for k in (1, 2):
        with pytest.raises(ValueError, match=rf"^task {min(theirs)}$"):
            idn.run_suite(sets, only="cayley_hamilton", processes=k)


def test_a_failure_first_in_task_order_does_not_wait_for_the_children(monkeypatch):
    parent = os.getpid()
    sets = [suite_fixtures(n, 1) for n in range(2, 5)]
    tasks = idn._suite_tasks(sets, None)
    mine, theirs = idn._deal(tasks, 2)
    assert mine[0] < theirs[0]
    run_task = idn._run_task

    def slow_child_failing_parent(n, w, todo):
        if os.getpid() != parent:
            time.sleep(60)
        if w is tasks[mine[0]][1]:
            raise ValueError("the first task")
        return run_task(n, w, todo)

    monkeypatch.setattr(idn, "_run_task", slow_child_failing_parent)
    t = time.perf_counter()
    with pytest.raises(ValueError, match="^the first task$"):
        idn.run_suite(sets, processes=2)
    assert time.perf_counter() - t < 30


def refuse_fork(monkeypatch, after):
    """Let os.fork make `after` children, then raise EAGAIN."""
    fork, made = os.fork, []

    def limited_fork():
        if len(made) >= after:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", limited_fork)
    return made


@pytest.mark.parametrize("k, after", [(2, 0), (3, 0), (3, 1)])
def test_a_share_without_a_child_runs_in_the_caller(monkeypatch, k, after):
    sets = [suite_fixtures(n, 1) for n in range(2, 5)]
    serial = records(sets, 1)
    made = refuse_fork(monkeypatch, after)
    assert records(sets, k) == serial
    assert len(made) == after


def test_verify_runs_in_one_process_when_fork_fails(monkeypatch, capsys):
    from dfalg import cli as cli_mod

    assert main(["verify", "--n-range", "2:4", "--seeds", "1"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(cli_mod, "_suite_processes", lambda: 2)
    refuse_fork(monkeypatch, 0)
    assert main(["verify", "--n-range", "2:4", "--seeds", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "meta"}
    assert strip(out) == strip(serial)


@pytest.mark.parametrize("cores, processes", [(1, 1), (2, 2), (64, 2)])
def test_verify_starts_at_most_two_processes(monkeypatch, cores, processes):
    from dfalg import cli as cli_mod

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert cli_mod._suite_processes() == processes


@pytest.mark.parametrize("unpicklable", ["record", "exception"])
def test_a_child_that_sends_no_records_is_an_error(monkeypatch, unpicklable):
    parent = os.getpid()
    check = idn.check_cayley_hamilton

    class LocalError(Exception):
        """Pickled by reference, which a class local to a function has not."""

    def unpicklable_in_a_child(h):
        rec = check(h)
        if os.getpid() != parent:
            if unpicklable == "exception":
                raise LocalError("in a child")
            rec.residual = lambda: 0
        return rec

    monkeypatch.setattr(idn, "check_cayley_hamilton", unpicklable_in_a_child)
    sets = [suite_fixtures(n, 1) for n in range(2, 5)]
    with pytest.raises(RuntimeError, match="ended without sending its records"):
        idn.run_suite(sets, only="cayley_hamilton", processes=2)


def test_a_child_value_error_exits_2_without_traceback(monkeypatch, capsys):
    from dfalg import cli as cli_mod

    parent = os.getpid()
    monkeypatch.setattr(cli_mod, "_suite_processes", lambda: 2)
    raise_for(monkeypatch, lambda h: ValueError("refused in a child")
              if os.getpid() != parent else None)
    assert main(["verify", "--n-range", "2:4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "dfalg: error: refused in a child\n"


def test_a_failing_record_from_a_child_exits_1(monkeypatch, capsys):
    from dfalg import cli as cli_mod

    parent = os.getpid()
    check = idn.check_cayley_hamilton

    def failing_in_a_child(h):
        rec = check(h)
        if os.getpid() != parent:
            rec.residual, rec.exact_zero = 1, False
        return rec

    monkeypatch.setattr(cli_mod, "_suite_processes", lambda: 2)
    monkeypatch.setattr(idn, "check_cayley_hamilton", failing_in_a_child)
    assert main(["verify", "--n-range", "2:4", "--only", "cayley_hamilton"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [r for r in report["identities"] if not r["passed"]]
    assert 0 < len(failed) == report["summary"]["failures"] < report["summary"]["checks"]


def test_verify_leaves_no_process_in_its_session():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "dfalg", "verify", "--n-range", "2:5"],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == b""
    assert json.loads(out)["summary"]["failures"] == 0
    # the command's process group is empty once it has exited
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
