"""Speed reference: a fixed kernel co-scheduled on the benchmark's CPU.

The speed of a shared 2-core virtual machine drifts by up to 2x within
minutes, as other tenants load the host, and the drift moves every
wall-clock time.  The benchmark therefore pins itself and this process to
one CPU.  The operating system's scheduler interleaves the two every few
milliseconds, so both see the same machine speed.  This process repeats a
fixed kernel, numpy calls on 2x2 matrices, which costs per call like the
workloads' loops and interpreter set-up do, and publishes its operation count
and CPU time through a 16-byte shared file.

A CPU time ``t`` of the measured process, taken over an interval in which the
reference achieved ``rate`` operations per CPU second, is ``t * rate /
RATE`` seconds at the reference speed.  Normalised that way, unit times vary
by 1-4% from unit to unit instead of 9-26%.

    python3 bench/reference.py <counter-file>

It exits when its parent exits, and after ``MAX_LIFETIME_S`` at the latest.
"""

import contextlib
import mmap
import os
import struct
import subprocess
import sys
import time

# The kernel's operations per CPU second while co-scheduled with a benchmark
# process, as measured on the 2-core Intel Xeon virtual machine where the
# baseline was recorded.  It only sets the scale of normalised times.
RATE = 8000.0
MAX_LIFETIME_S = 200.0
_LAYOUT = struct.Struct("qd")  # operations done, CPU seconds used


class Counter:
    """Reader of the reference's published (operations, CPU seconds)."""

    def __init__(self, path):
        with open(path, "r+b") as fh:
            self._map = mmap.mmap(fh.fileno(), _LAYOUT.size)

    def read(self):
        return _LAYOUT.unpack_from(self._map, 0)

    def close(self):
        self._map.close()


@contextlib.contextmanager
def running(path, env, deadline):
    """Run the reference on the caller's CPUs; yields its Counter once it has
    made progress, and stops it on exit."""
    with open(path, "wb") as fh:
        fh.write(bytes(_LAYOUT.size))
    proc = subprocess.Popen([sys.executable, __file__, str(path)], env=env)
    counter = Counter(path)
    try:
        while counter.read()[0] == 0:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the speed reference did not start")
            time.sleep(0.01)
        yield counter
    finally:
        proc.kill()
        proc.wait()
        counter.close()


def scaled(cpu_s, progress):
    """``cpu_s`` at the reference speed, given the reference's progress
    (operations, CPU seconds) over the same interval."""
    ops, ref_cpu = progress
    if ops <= 0 or ref_cpu <= 0.0:
        raise ValueError("the reference made no progress over the interval")
    return cpu_s * (ops / ref_cpu) / RATE


def main(path) -> int:
    import numpy as np

    matrix = np.array([[3.0, 0.1], [0.1, 2.0]])
    inv = np.linalg.inv
    parent = os.getppid()
    deadline = time.monotonic() + MAX_LIFETIME_S
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), _LAYOUT.size)
    ops = 0
    while True:
        for _ in range(20):  # one operation
            inv(matrix)
        ops += 1
        _LAYOUT.pack_into(shared, 0, ops, time.process_time())
        if ops % 200 == 0 and (os.getppid() != parent
                               or time.monotonic() > deadline):
            return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
