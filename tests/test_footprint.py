"""Peak memory and import footprint, each measured in a fresh interpreter.

The conditioner computes kernel rows only as observations and weight rows
need them, so max-variance, virtual-target and app-weighted runs use memory
in proportion to uploads times sensors, not sensors squared (at L = 20000 a
dense prior alone would take 3.2 GB); a factor block sized up front holds
only the rows written; a seed batch keeps only as many seeds in flight as its bound
allows; an ALOHA sweep's forked children peak below their parent; the
package runs on numpy alone, with scipy needed by the tests only; and a
das-csv run leaves numpy.ma unimported.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest


# Starts the measured interpreter from a bare one: Linux carries a parent's
# peak RSS across fork and exec into the child's ru_maxrss, so a child of
# this test process would report the test process's peak.
LAUNCHER = ("import subprocess, sys; "
            "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)")


def run_fresh(code):
    """Run ``code`` in a new interpreter (one BLAS thread); return its stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


PEAK_MB = """
    import resource
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


@pytest.mark.parametrize("body,limit_mb", [
    ("""
    from fieldsense.das import run_das_batches
    from fieldsense.fields import gen_2d
    from fieldsense.gp import KernelParams
    for _ in run_das_batches([1], lambda rng: gen_2d(5000, 0.1, rng), "max-variance", 200,
                             KernelParams()):
        pass
    """, 200),
    ("""
    from fieldsense.das import run_das_batches
    from fieldsense.fields import gen_2d
    from fieldsense.gp import KernelParams
    for _ in run_das_batches([1], lambda rng: gen_2d(20000, 0.1, rng), "max-variance", 200,
                             KernelParams()):
        pass
    """, 160),
], ids=["run_das-L5000-200", "run_das-L20000-200"])
def test_peak_memory(body, limit_mb):
    peak = float(run_fresh(textwrap.dedent(body) + textwrap.dedent(PEAK_MB)))
    assert peak < limit_mb, f"peak RSS {peak:.0f} MB"


SCORED_RUN = """
    import numpy as np
    from fieldsense.das import run_das_batches
    from fieldsense.fields import {make}
    from fieldsense.gp import KernelParams
    for _ in run_das_batches([1], lambda rng: {make}(4000, 0.1, rng), {policy!r}, 50,
                             KernelParams(), virtual_locs={virtual},
                             apps=([np.full(4000, 1 / 4000)], [1.0])):
        pass
"""

# each generator's field and five virtual points inside its domain
SCORED_FIELDS = {
    "1d": ("gen_1d", [1.0, 3.0, 5.0, 7.0, 9.0]),
    "2d": ("gen_2d", [(0.1, 0.1), (0.3, 0.7), (0.5, 0.5), (0.7, 0.3), (0.9, 0.9)]),
}


@pytest.mark.parametrize("policy,dim", [
    ("virtual", "1d"), ("app-weighted", "1d"), ("virtual", "2d"), ("app-weighted", "2d"),
], ids=["virtual", "app-weighted", "virtual-2d", "app-weighted-2d"])
def test_scored_policy_peaks_where_max_variance_does(policy, dim):
    # the virtual policy scores from its 5 targets' kernel rows (5 x 4005
    # floats) and the mean application from its row's products with the
    # prior, built from 128 kernel rows at a time and downdated per upload,
    # where a prior over every target would hold 128 MB; each block of
    # kernel rows is formed one coordinate at a time, so on 2-D points no
    # (2, 128, 4000) array of differences is held beside it
    make, virtual = SCORED_FIELDS[dim]
    peaks = {p: float(run_fresh(textwrap.dedent(SCORED_RUN.format(policy=p, make=make,
                                                                  virtual=virtual))
                                + textwrap.dedent(PEAK_MB)))
             for p in ("max-variance", policy)}
    assert peaks[policy] - peaks["max-variance"] < 10, f"peak RSS {peaks}"


SEED_BATCH = """
    from fieldsense.aloha import AlohaConfig, run_aloha_batches
    from fieldsense.fields import gen_random_sinusoid
    from fieldsense.gp import KernelParams
    cfg = AlohaConfig(channels=5, candidates=10, mode="conventional")  # fig7's largest cell
    runs = run_aloha_batches(range(1, {seeds} + 1),
                             lambda rng: gen_random_sinusoid(200, 10, 0.1, rng), cfg, 40,
                             KernelParams())
    total = sum(sum(rnd.sse) for _, _, _, rnd, _ in runs)
"""


def test_seed_batch_memory_follows_the_in_flight_bound():
    # A seed batch holds each seed's factor (about 80 uploads x 200 sensors
    # here), but only for the seeds in flight, the 12 that fit the 4 MB
    # budget in this cell: 320 seeds play in 27 batches and peak where one
    # batch of 8 does, where all 320 seeds at once would need some 40 MB more.
    one = float(run_fresh(textwrap.dedent(SEED_BATCH.format(seeds=8)) + textwrap.dedent(PEAK_MB)))
    many = float(run_fresh(textwrap.dedent(SEED_BATCH.format(seeds=320)) + textwrap.dedent(PEAK_MB)))
    assert many - one < 2, f"peak RSS {many:.1f} MB over 320 seeds, {one:.1f} MB over 8"


REUSED_BLOCK = """
    import numpy as np
    from fieldsense.gp import IncrementalConditioner, KernelParams
    locs = np.random.default_rng(1).uniform(0, 10, size=(5000, 1))
    for _ in range({blocks}):
        # 600 rows over 5000 targets (a 24 MB block), 10 of them written
        cond = IncrementalConditioner(locs[None], KernelParams(), 0.1, capacity=600)
        for i in range(10):
            cond.observe(i, 0.0, 0)
        del cond
"""


def test_block_sized_up_front_peaks_with_the_rows_written():
    # The allocator hands the third block the memory the second one freed,
    # and zero-filling it there would make all 24 MB resident; the factor
    # block is laid on fresh pages, so three blocks in turn peak where one
    # does, with the 0.4 MB of rows written.
    one = float(run_fresh(textwrap.dedent(REUSED_BLOCK.format(blocks=1))
                          + textwrap.dedent(PEAK_MB)))
    three = float(run_fresh(textwrap.dedent(REUSED_BLOCK.format(blocks=3))
                            + textwrap.dedent(PEAK_MB)))
    assert three - one < 2, f"peak RSS {three:.1f} MB over 3 blocks, {one:.1f} MB over 1"


DAS_SEED_BATCH = """
    from fieldsense.das import run_das_batches
    from fieldsense.fields import gen_2d
    from fieldsense.gp import KernelParams
    runs = run_das_batches(range(1, {seeds} + 1), lambda rng: gen_2d(20000, 0.1, rng),
                           "max-variance", 200, KernelParams())
    total = sum(sum(rnd.mse) for _, _, _, rnd, _ in runs)
"""


def test_large_das_fields_play_one_seed_at_a_time():
    # Each seed's factor here is 200 x 20000 floats (32 MB), past the byte
    # budget of a DAS seed batch, so the seeds play one at a time: three peak
    # where one does, where three in flight would need some 64 MB more.
    one = float(run_fresh(textwrap.dedent(DAS_SEED_BATCH.format(seeds=1))
                          + textwrap.dedent(PEAK_MB)))
    three = float(run_fresh(textwrap.dedent(DAS_SEED_BATCH.format(seeds=3))
                            + textwrap.dedent(PEAK_MB)))
    assert three - one < 2, f"peak RSS {three:.1f} MB over 3 seeds, {one:.1f} MB over 1"


def test_cli_import_leaves_scipy_out():
    out = run_fresh("""
        import sys
        import fieldsense.cli
        print("scipy" in sys.modules)
    """)
    assert out.strip() == "False"


SPLIT_SWEEP = """
    import resource, tempfile
    from fieldsense.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["aloha", "--preset", "fig7", "--seed", "1..10",
                     "--out", tmp + "/fig7.csv"]) == 0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        print(resource.getrusage(who).ru_maxrss / 1024)
"""


def test_forked_cells_peak_below_their_parent():
    # The sweep's forked children share the parent's pages until they write
    # to them and return their records up a pipe, while the parent gathers
    # every cell's records; a benchmark that reads the parent's peak alone
    # sees the run's largest process.
    lines = run_fresh(SPLIT_SWEEP).split()
    parent, children = float(lines[-2]), float(lines[-1])
    print(f"fig7 at 10 seeds: parent peak {parent:.1f} MB, children {children:.1f} MB")
    assert children <= parent, f"children peak {children:.1f} MB, parent {parent:.1f} MB"


def test_forked_cells_with_blas_threads(tmp_path):
    # OpenBLAS keeps a thread pool; forking beside it must neither deadlock
    # nor change a byte, and only the parent reports what it wrote.
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        if threads:
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
        out = tmp_path / f"fig7-{threads or 'default'}.csv"
        proc = subprocess.run([sys.executable, "-m", "fieldsense", "aloha", "--preset", "fig7",
                               "--seed", "1..3", "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("wrote") == 1, proc.stdout
        outputs.append((out.read_bytes(), pathlib.Path(f"{out}.agg").read_bytes()))
    assert outputs[0] == outputs[1]


def test_das_csv_run_leaves_numpy_ma_out(tmp_path):
    # np.unique in its plain form imports numpy.ma, tens of ms in a fresh
    # interpreter; a das-csv run checks its stations and uploads without it
    rows = "".join(f"{i % 7},{i // 7},{i * 0.1}\n" for i in range(40))
    (tmp_path / "stations.csv").write_text("x,y,value\n" + rows)
    (tmp_path / "run.cfg").write_text(
        f"experiment = das-csv\ncsv = {tmp_path / 'stations.csv'}\nrounds = 10\n"
        "policy = max-variance,random,app-weighted\napps = mean,e:3\nbetas = 1,1\n")
    out = run_fresh(f"""
        import sys
        from fieldsense.cli import main
        assert main(["das", "--config", {str(tmp_path / "run.cfg")!r}, "--seed", "1..3",
                     "--out", {str(tmp_path / "r.csv")!r}]) == 0
        print("numpy.ma" in sys.modules)
    """)
    assert out.split()[-1] == "False"
