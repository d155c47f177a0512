"""Run one workload's CLI jobs in this fresh process and record what happened.

Usage: ``python3 bench/child.py SPEC.json`` with the working directory set
to the run's output directory.  SPEC holds ``jobs`` (argument vectors for
``mlresample.cli.main``), ``trace`` (bool) and the ``result`` and ``spans``
paths.  The process starts, imports the CLI, then times the jobs back to
back; its ``ru_maxrss`` therefore covers this run alone.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import numpy as np


class SpeedProbe:
    """A fixed mix of interpreter and numpy work whose time tracks the machine's speed.

    The buffers are allocated once and the probe runs once untimed, so page
    faults and first calls land outside the timed probes, and the probe's
    time does not depend on the allocator state the jobs leave behind.
    """

    def __init__(self):
        self.grid = np.linspace(0.0, 1.0, 500)
        self.buf = np.empty((500, 500))
        self.seconds()

    def seconds(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for i in range(20000):
            total += float(repr(i * 0.37))
        for _ in range(16):
            np.subtract(self.grid[:, None], self.grid[None, :], out=self.buf)
            np.multiply(self.buf, self.buf, out=self.buf)
            np.sqrt(self.buf, out=self.buf)
            total += float(self.buf.sum())
        return time.perf_counter() - start


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    from mlresample import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    probe = SpeedProbe()
    jobs = []
    probe_s = [probe.seconds()]
    for index, argv in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.job = index
        job_start = time.perf_counter()
        error = None
        try:
            code = cli.main(list(argv))
        except Exception:
            code, error = None, traceback.format_exc()
        jobs.append({"code": code, "error": error, "seconds": time.perf_counter() - job_start})
        probe_s.append(probe.seconds())
    wall = sum(job["seconds"] for job in jobs)
    sys.stdout.flush()

    if tracer is not None:
        tracer.dump(spec["spans"])
    result = {
        "wall_s": wall,
        "probe_s": probe_s,
        "max_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": jobs,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
