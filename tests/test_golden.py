"""Byte identity: the golden run matrix's outputs against a committed manifest.

``scripts/golden_outputs.py`` writes 60 files (18 CLI cases, their inputs
and logs).  This test runs the same matrix through ``fieldsense.cli.main``
in-process, at the default share count, and once more in a fresh
interpreter pinned to one CPU (one share), and compares every file's SHA-256
with ``golden_manifest.json``.  The last bits depend on numpy and on the
OpenBLAS build and the CPU kernels it picks, so the manifest records them;
on another environment the test fails and names the difference.

A change meant to move numbers rewrites the manifest, in its own diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import ctypes
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("golden_manifest.json")
SCRIPT = ROOT / "scripts" / "golden_outputs.py"

_spec = importlib.util.spec_from_file_location("golden_outputs", SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

# The one-share pass: a fresh interpreter pinned to one CPU before numpy loads,
# so the run splits into one share, as under ``taskset -c 0``.
PINNED = """
import contextlib, importlib.util, io, json, os, sys
from pathlib import Path
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
spec = importlib.util.spec_from_file_location("golden_outputs", sys.argv[1])
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)
out = Path(sys.argv[2])
out.mkdir()
with contextlib.redirect_stdout(io.StringIO()):
    golden.write_matrix(out, golden.run_in_process)
print(json.dumps(golden.digests(out)))
"""


def environment() -> dict:
    """numpy's version, and the OpenBLAS build and CPU kernels it runs: its
    build's own report, read from numpy's OpenBLAS library (scipy may load
    another), or else numpy's build configuration."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found = f"{blas.get('name')} {blas.get('version')}"
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
        numpy_libs = [lib for lib in libs if "numpy" in lib]
        for lib in map(ctypes.CDLL, numpy_libs or libs):
            name = next((name for name in ("scipy_openblas_get_config64_",
                                           "openblas_get_config64_", "openblas_get_config")
                         if hasattr(lib, name)), None)
            if name:
                config = getattr(lib, name)
                config.restype = ctypes.c_char_p
                found = " ".join(config().decode().split())
                break
    return {"numpy": np.__version__, "openblas": found}


def in_process(out: Path) -> dict:
    """Digests of the matrix run in this interpreter, written into ``out``."""
    out.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        golden.write_matrix(out, golden.run_in_process)
    return golden.digests(out)


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    # the one-share pass plays on one CPU beside the default pass
    pinned = subprocess.Popen([sys.executable, "-c", PINNED, str(SCRIPT), str(tmp_path / "one")],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=golden.blas_env())
    try:
        passes = {"default shares": in_process(tmp_path / "default")}
    finally:
        stdout, stderr = pinned.communicate(timeout=600)
    assert pinned.returncode == 0, stderr
    passes["one share"] = json.loads(stdout.splitlines()[-1])
    problems = [f"{key}: {got!r} here, {manifest[key]!r} in the manifest"
                for key, got in environment().items() if got != manifest[key]]
    want = manifest["files"]
    for label, got in passes.items():
        moved = sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
        if moved:
            problems.append(f"{label}: {len(moved)} of {len(want)} files differ: {moved}")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = in_process(Path(tmp) / "default")
    MANIFEST.write_text(json.dumps({**environment(), "files": files}, indent=1) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(files)} digests to {MANIFEST}")
