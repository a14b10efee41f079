"""Process bookkeeping for one benchmark run, read from ``/proc``.

Every process the run starts (Ray's gcs_server, raylet and workers, the
check process) is a descendant of the benchmark process while it lives.
A sampler thread walks that tree a few times a second, remembers every
``(pid, start time)`` it has seen, and keeps each process's peak resident
size (``VmHWM``). Teardown then waits until none of the remembered
processes is alive, whether or not it is still our descendant: an orphaned
Ray worker is re-parented to init but is still the run's process.
"""

from __future__ import annotations

import os
import signal
import threading
import time

__all__ = ["ProcessTracker"]


def _stat(pid: int) -> tuple[str, int, int] | None:
    """(state, ppid, start time in clock ticks) of a live pid, else None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1]), int(fields[19])


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode("utf-8", "replace")[:200]
    except OSError:
        return ""


class ProcessTracker:
    """Remembers the run's processes and their peak RSS.

    ``excluded`` pids (the check process) are tracked for teardown but left
    out of the RSS figures, which describe the program under test.
    """

    def __init__(self, interval_s: float = 0.25):
        self.root = os.getpid()
        self.interval_s = interval_s
        self.excluded: set[int] = set()
        self.seen: dict[tuple[int, int], str] = {}  # (pid, start) -> cmdline
        self.peak_kb: dict[tuple[int, int], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler",
                                        daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.sample()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def _descendants(self) -> list[tuple[int, int]]:
        children: dict[int, list[tuple[int, int]]] = {}
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            st = _stat(int(name))
            if st is None or st[0] == "Z":
                continue
            children.setdefault(st[1], []).append((int(name), st[2]))
        out, front = [], [self.root]
        while front:
            for key in children.get(front.pop(), []):
                out.append(key)
                front.append(key[0])
        return out

    def sample(self) -> None:
        me = _stat(self.root)
        keys = self._descendants() + ([(self.root, me[2])] if me else [])
        with self._lock:
            for key in keys:
                if key not in self.seen:
                    self.seen[key] = _cmdline(key[0])
                kb = _vm_hwm_kb(key[0])
                if kb > self.peak_kb.get(key, 0):
                    self.peak_kb[key] = kb

    def peak_mb(self) -> tuple[float, float]:
        """(benchmark-process peak, largest peak of any other process), MB."""
        driver = worker = 0
        with self._lock:
            for (pid, _start), kb in self.peak_kb.items():
                if pid == self.root:
                    driver = max(driver, kb)
                elif pid not in self.excluded:
                    worker = max(worker, kb)
        return driver / 1024.0, worker / 1024.0

    def alive(self) -> list[tuple[int, str]]:
        """Remembered processes (other than this one) that still run."""
        self._reap()
        with self._lock:
            keys = list(self.seen.items())
        out = []
        for (pid, start), cmd in keys:
            if pid == self.root:
                continue
            st = _stat(pid)
            if st is not None and st[0] != "Z" and st[2] == start:
                out.append((pid, cmd))
        return out

    @staticmethod
    def _reap() -> None:
        """Collect exited children of this process so none stays a zombie."""
        while True:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return

    def wait_all_gone(self, grace_s: float) -> tuple[list, list]:
        """Wait up to ``grace_s`` for the run's processes to exit, then kill
        the rest. Returns (killed, survivors): survivors outlived SIGKILL."""
        self.sample()
        deadline = time.monotonic() + grace_s
        while self.alive() and time.monotonic() < deadline:
            time.sleep(0.1)
        killed = self.alive()
        for pid, _cmd in killed:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5
        while self.alive() and time.monotonic() < deadline:
            time.sleep(0.1)
        return killed, self.alive()
