"""Starts benchmark ops on request and reports what each one cost.

    python3 bench/launcher.py STDERR_FILE

Reads one JSON request per line on stdin, {"argv": [...], "out": path},
runs argv as a child process with its standard output in `out`, and
answers one JSON line: wall and CPU time, the time it waited for its CPU,
peak RSS, exit code and the calibration times just before and after it.

It is a separate small process for two reasons.  Linux charges a child's
ru_maxrss with the memory high-water mark of the process that spawned it,
so spawning from the benchmark itself, whose references take tens of MiB,
would inflate every op's peak RSS.  And on a shared virtual machine
co-tenants disturb the timing in three ways, which the launcher measures
around each op, pinned to one CPU so that all three refer to the CPU the op
ran on.  CPUs change speed by up to about 1.7x within seconds, so it times
a fixed calibration loop on every CPU it may use, runs the op on the
fastest and times the loop there again afterwards.  The host takes the CPU
away (steal time, /proc/stat), and other processes hold it while the op is
runnable (run delay, /proc/PID/schedstat, read before the op is reaped):
both are reported as time the op waited.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time


def calibrate() -> float:
    """Median CPU time of a fixed loop of integer steps and dict stores."""
    times = []
    for _ in range(3):
        start = time.process_time()
        seen = {}
        v = 27
        for i in range(5000):
            t = 6 * v - 2
            v = ((t >> ((t & -t).bit_length() - 1)) + 1) >> 1
            if v < 4:
                v = 27 + i
            seen[i] = v
        times.append(time.process_time() - start)
    return statistics.median(times)


def run_delay(pid: int) -> float:
    """Seconds an exited, unreaped process spent runnable but off CPU (0 if unknown)."""
    try:
        with open(f"/proc/{pid}/schedstat", encoding="ascii") as fh:
            return int(fh.read().split()[1]) / 1e9
    except OSError:  # kernels without scheduler statistics
        return 0.0


def steal(cpu: int) -> float:
    """Seconds the host has taken the given CPU away from this machine."""
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(f"cpu{cpu} "):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    return 0.0


def main() -> int:
    cpus = sorted(os.sched_getaffinity(0))
    with open(sys.argv[1], "ab") as err:
        for line in sys.stdin:
            request = json.loads(line)
            speeds = []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                speeds.append((calibrate(), cpu))
            before, cpu = min(speeds)
            os.sched_setaffinity(0, {cpu})  # inherited by the op
            with open(request["out"], "wb") as out:
                stolen = steal(cpu)
                start = time.perf_counter()
                pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ,
                                     file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
                waited = run_delay(pid) + steal(cpu) - stolen
                _, status, usage = os.wait4(pid, 0)
            after = calibrate()
            os.sched_setaffinity(0, set(cpus))
            print(json.dumps({"wall": wall, "waited": waited,
                              "cpu": usage.ru_utime + usage.ru_stime,
                              "rss_mib": usage.ru_maxrss / 1024,
                              "code": os.waitstatus_to_exitcode(status),
                              "calibration": [before, after]}),
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
