"""The import contract, checked in fresh interpreters: the package binds
SciPy's compiled BLAS and LAPACK wrappers without importing the
``scipy.linalg`` package, and the process pool only when a sweep uses one."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# the wrappers rwsparse.solvers binds, by the SciPy module that exports them
BOUND = {
    "blas": ["daxpy", "dger"],
    "lapack": ["dgeqrf", "dormqr", "dpotrf", "dpotrs", "dtrtrs"],
}

PROBE = """
import json, sys

def openblas_paths():
    with open("/proc/self/maps") as maps:
        return sorted({line.split(maxsplit=5)[5].strip()
                       for line in maps if "openblas" in line.lower()})

if sys.argv[1] == "before":
    import scipy.linalg
import numpy
numpy_openblas = openblas_paths()
import rwsparse, rwsparse.bench, rwsparse.cli
from rwsparse import bench, solvers
loaded = {name: name in sys.modules for name in ("scipy.linalg", "concurrent.futures.process")}
controls = len(bench._blas_thread_controls())
found = [path for path, _ in bench._openblas_libraries()]
import scipy.linalg.blas, scipy.linalg.lapack
bound = json.loads(sys.argv[2])
same = {name: getattr(solvers, name, None) is getattr(getattr(scipy.linalg, module), name)
        for module, names in bound.items() for name in names}
print(json.dumps({"loaded": loaded, "controls": controls, "found": found,
                  "numpy_openblas": numpy_openblas, "every_openblas": openblas_paths(),
                  "same": same}))
"""


@functools.cache
def probe(order):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, order, json.dumps(BOUND)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(proc.stdout)


def test_a_fresh_import_loads_neither_scipy_linalg_nor_the_process_pool():
    assert probe("after")["loaded"] == {
        "scipy.linalg": False,
        "concurrent.futures.process": False,
    }


@pytest.mark.parametrize("order", ["after", "before"])
def test_the_bound_wrappers_are_scipys_own(order):
    # the very objects scipy.linalg.blas and scipy.linalg.lapack export,
    # whether scipy.linalg is imported after the package or before it
    same = probe(order)["same"]
    assert sorted(same) == sorted(sum(BOUND.values(), []))
    assert all(same.values()), same


def test_the_thread_controls_reach_every_openblas():
    # the OpenBLAS copies are looked up once, at first use: by then the one
    # behind the bound wrappers is loaded next to numpy's, so scipy.linalg
    # loads none that the one-thread pin of sweeps and `solve` misses
    seen = probe("after")
    assert set(seen["numpy_openblas"]) <= set(seen["found"])
    assert seen["found"] == seen["every_openblas"]
    assert seen["controls"] == len(seen["found"]) >= 1
