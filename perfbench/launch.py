"""Run one command and report its wall time and its own peak RSS.

Usage: python3 -I -S launch.py TIMEOUT_S OUT ERR COMMAND...

Prints "wall_s maxrss_kb exit_code timed_out" on stdout. On Linux a child's
ru_maxrss starts from the high-water RSS of the process it was spawned
from, so a child spawned straight from the benchmark, which holds tables
and parsed reports, would report at least the benchmark's own peak. This
launcher is a fresh, small process, so the figure os.wait4 gives it is the
command's own (floor: this launcher's ~13 MB). A SIGALRM handler kills a
command that outlives TIMEOUT_S, so the wait is a single blocking os.wait4.
"""

import os
import signal
import subprocess
import sys
import time


def main() -> None:
    timeout_s, out_path, err_path, *command = sys.argv[1:]
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)

        def kill(signum, frame):
            nonlocal timed_out
            timed_out = True
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        signal.signal(signal.SIGALRM, kill)
        signal.alarm(int(timeout_s))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(wall, usage.ru_maxrss, proc.returncode, int(timed_out))


if __name__ == "__main__":
    main()
