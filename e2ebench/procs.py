"""Child-process containment for the benchmark.

Every program process the benchmark starts goes through
:class:`Children`:

* it is started in its own session (``start_new_session``), so its
  process group id is its pid and one ``killpg`` reaches anything it
  forks;
* it is reaped with ``os.wait4``, which returns that child's own
  resource usage (peak RSS), never a ``RUSAGE_CHILDREN`` sum over
  everything the benchmark ran;
* :meth:`Children.kill_all` SIGKILLs every group still registered.
  The entry point calls it in a ``finally``, from its SIGINT/SIGTERM
  handlers and at exit;
* :meth:`Children.survivors` lists, from ``/proc``, every process that
  descends from the benchmark or lives in a session it created. The
  entry point fails the run if that list is not empty at the end.
"""

from __future__ import annotations

import atexit
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple


class Interrupted(BaseException):
    """Raised from the SIGINT/SIGTERM handler to unwind to ``finally``."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


class Exited:
    """How one reaped child ended: exit status, wall time, peak RSS."""

    __slots__ = ("returncode", "wall_s", "maxrss_kb", "timed_out")

    def __init__(self, returncode: int, wall_s: float, maxrss_kb: int,
                 timed_out: bool) -> None:
        self.returncode = returncode
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb
        self.timed_out = timed_out


def _decode_status(status: int) -> int:
    if os.WIFEXITED(status):
        return os.WEXITSTATUS(status)
    if os.WIFSIGNALED(status):
        return -os.WTERMSIG(status)
    return status


class Children:
    """Registry of the program processes one benchmark run started."""

    def __init__(self) -> None:
        self._live: Dict[int, subprocess.Popen] = {}
        self._started: Dict[int, float] = {}
        self._sessions: List[int] = []
        self._dirs: List[str] = []
        self._lock = threading.Lock()
        atexit.register(self.close)

    # ------------------------------------------------------------ spawning
    def spawn(self, argv: Sequence[str], *, env: Dict[str, str],
              cwd: str, log_path: str) -> subprocess.Popen:
        """Start ``argv`` in a new session, stdout+stderr to ``log_path``."""
        with open(log_path, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                list(argv), cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, start_new_session=True,
            )
        with self._lock:
            self._live[proc.pid] = proc
            self._started[proc.pid] = t0
            self._sessions.append(proc.pid)
        return proc

    def started_at(self, proc: subprocess.Popen) -> float:
        return self._started[proc.pid]

    def wait(self, proc: subprocess.Popen,
             timeout: Optional[float] = None) -> Exited:
        """Reap ``proc`` with ``wait4``; SIGKILL its group past ``timeout``.

        The wait blocks in the kernel (no polling), so the wall time it
        reports has no sampling error; a watchdog timer does the kill.
        """
        timed_out = threading.Event()
        timer = None
        if timeout is not None:
            def expire() -> None:
                timed_out.set()
                self.signal_group(proc, signal.SIGKILL)
            timer = threading.Timer(timeout, expire)
            timer.daemon = True
            timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if timer is not None:
                timer.cancel()
        t1 = time.perf_counter()
        code = _decode_status(status)
        proc.returncode = code  # reaped here, so Popen must not wait
        # anything the child forked dies with it: no orphan outlives it
        self.signal_group(proc, signal.SIGKILL)
        with self._lock:
            self._live.pop(proc.pid, None)
            t0 = self._started.pop(proc.pid, t1)
        return Exited(code, t1 - t0, int(usage.ru_maxrss),
                      timed_out.is_set())

    def signal_group(self, proc: subprocess.Popen, signum: int) -> None:
        try:
            os.killpg(proc.pid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def kill(self, proc: subprocess.Popen) -> Exited:
        """SIGKILL the child's whole group and reap it."""
        self.signal_group(proc, signal.SIGKILL)
        return self.wait(proc, timeout=30.0)

    def kill_all(self) -> None:
        with self._lock:
            procs = list(self._live.values())
        for proc in procs:
            self.signal_group(proc, signal.SIGKILL)
        for proc in procs:
            try:
                self.wait(proc, timeout=30.0)
            except ChildProcessError:
                with self._lock:
                    self._live.pop(proc.pid, None)

    # --------------------------------------------------------- scratch dirs
    def scratch_dir(self, parent: str, prefix: str) -> str:
        os.makedirs(parent, exist_ok=True)
        path = tempfile.mkdtemp(prefix=prefix, dir=parent)
        with self._lock:
            self._dirs.append(path)
        return path

    def remove_dirs(self) -> None:
        with self._lock:
            dirs, self._dirs = self._dirs, []
        for path in dirs:
            shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        self.kill_all()
        self.remove_dirs()

    # ------------------------------------------------------------ survivors
    def survivors(self) -> List[Tuple[int, str]]:
        """``(pid, comm)`` of every live descendant or session member."""
        me = os.getpid()
        table = _proc_table()
        sessions = set(self._sessions)
        children: Dict[int, List[int]] = {}
        for pid, (ppid, _, _) in table.items():
            children.setdefault(ppid, []).append(pid)
        found = set()
        stack = [me]
        while stack:
            for kid in children.get(stack.pop(), ()):
                if kid not in found:
                    found.add(kid)
                    stack.append(kid)
        found.update(
            pid for pid, (_, sid, _) in table.items() if sid in sessions
        )
        found.discard(me)
        return sorted((pid, table[pid][2]) for pid in found if pid in table)


def _proc_table() -> Dict[int, Tuple[int, int, str]]:
    """``pid -> (ppid, session, comm)`` for every live non-zombie process."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                raw = fh.read().decode("utf-8", "replace")
        except OSError:
            continue
        head, _, tail = raw.rpartition(")")
        fields = tail.split()
        if len(fields) < 4 or fields[0] == "Z":
            continue
        comm = head.partition("(")[2]
        table[int(name)] = (int(fields[1]), int(fields[3]), comm)
    return table


def install_signal_handlers() -> None:
    """Turn SIGINT/SIGTERM into :class:`Interrupted` on the main thread."""
    def handler(signum, _frame):
        raise Interrupted(signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, handler)
