"""A fixed reference computation, timed between rounds of operations.

It uses no emlink code, so its mean time over a run stands for the host's
speed during that run, and the untraced run reports the mean operation time
in units of it (`op_time_ref`, README.md).  The work mixes what the workloads
do: streaming complex exponentials over arrays larger than the caches (like
the plane-wave factors), GEMMs (like the kernel product and eigh) and an
interpreter loop (like the CLI and JSON code).

It runs in a child process of its own, single-threaded, so its arrays do not
count in the workload's peak RSS and no BLAS thread of it is left spinning
beside the workload.  The child waits on its standard input and does one
sample per line; it ends at end of input.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time


def work(phases, matrix) -> None:
    import numpy as np

    np.exp(-1j * phases).sum()
    for _ in range(8):
        matrix @ matrix
    sum(i * i for i in range(600_000))


def serve() -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    phases = rng.uniform(0.0, 2.0 * np.pi, 2_000_000)
    matrix = rng.normal(size=(400, 400))
    work(phases, matrix)  # warm-up: first-touch page faults
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        work(phases, matrix)
        print(repr(time.perf_counter() - start), flush=True)


class Reference:
    """The reference child process; `run()` takes one timed sample."""

    def __init__(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.times: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("reference process did not start")

    def run(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.times.append(float(self.proc.stdout.readline()))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
