"""Run one fieldsense CLI invocation in this fresh interpreter and report its cost.

    python3 perfbench/child.py '<job json>'

The job gives the CLI argv, the ``src`` directory fieldsense must be
imported from, ``spawned`` (``time.monotonic()`` in the parent just before
it started this process) and, for a traced run, where to write the spans.
The last line of standard output is a JSON object with ``setup_s`` (wall
seconds from ``spawned`` to ``fieldsense.cli`` imported: interpreter
start-up and the import of fieldsense, numpy and scipy), ``run_s`` (wall
seconds of ``fieldsense.cli.main``: config parse, run and emit),
``calib_s`` (median wall seconds of a calibration pass, timed before and
after the run), ``rc``, ``maxrss_kb``, ``bytes_written``, and under ``env``
the numpy, scipy and OpenBLAS versions and BLAS thread counts this process
sees.
"""

import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time

# Calibration passes before and after the run (about 10 ms each).
CALIBRATION_PASSES = 10


def _blas_info():
    """Build string and thread count of the OpenBLAS bundled with numpy and scipy."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for lib in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            handle = ctypes.CDLL(lib)
            info = {}
            for suffix in ("64_", ""):
                config = getattr(handle, "scipy_openblas_get_config" + suffix, None)
                threads = getattr(handle, "scipy_openblas_get_num_threads" + suffix, None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    info = {"config": config().decode(), "threads": threads()}
                    break
            out[pkg.__name__] = info
    return out


def calibrate(reps):
    """Wall seconds of each of ``reps`` passes of a fixed kernel.

    The kernel is the host-speed yardstick: interpreted Python, small
    Cholesky solves and an elementwise exp, the mix fieldsense spends its
    time on, with no fieldsense code in it.  Its arrays are small (under
    100 kB each), so it stays below the peak RSS of every workload's run.
    """
    import numpy as np
    from scipy.linalg import cholesky, solve_triangular

    rng = np.random.default_rng(0)
    a = rng.random((40, 40))
    spd = a @ a.T + 40 * np.eye(40)
    rhs = rng.random((40, 200))
    grid = rng.random((100, 100))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(40):
            solve_triangular(cholesky(spd, lower=True), rhs, lower=True)
            sum({j: j * j for j in range(200)}.values())
            np.exp(-grid * grid)
        times.append(time.perf_counter() - start)
    return times


def main():
    job = json.loads(sys.argv[1])
    import fieldsense
    import fieldsense.cli

    setup_s = time.monotonic() - job["spawned"]
    import numpy
    import scipy

    src = os.path.realpath(job["src"])
    if not os.path.realpath(fieldsense.__file__).startswith(src + os.sep):
        print(f"child: fieldsense imported from {fieldsense.__file__}, not {src}",
              file=sys.stderr)
        return 2
    calib = calibrate(CALIBRATION_PASSES)

    tracer = None
    if job.get("spans"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    rc = fieldsense.cli.main(job["argv"])
    run_s = time.perf_counter() - start
    calib += calibrate(CALIBRATION_PASSES)

    out = job["out"]
    written = sum(os.path.getsize(p) for p in (out, out + ".agg") if os.path.exists(p))
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calib_s": statistics.median(calib),
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "bytes_written": written,
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas": _blas_info()},
    }
    if tracer is not None:
        tracer.write(job["spans"])
        result["counters"] = tracer.counters
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
