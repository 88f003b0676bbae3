"""Set-up child of a benchmark run: discrete oracles, node counts, machine.

    python3 perfbench/prepare.py CASES.json RESULT.json

For every case it rasterizes the domain with build_grid and records the
node count N.  For a case whose ``discrete`` oracle is "eigenvalue" or
"torsion" it solves the discrete problem exactly on that mask, with its
own 5-point Laplacian and a sparse LU factorization:

* eigenvalue: the smallest eigenvalue of the Laplacian, which is the
  minimum of the discrete quotient at p = 2;
* torsion: 1 / (h^2 * sum(A^-1 1)), the minimum of the discrete quotient
  at p = 1.

It also records the machine and library versions the run used.
"""

import json
import os
import platform
import sys

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu


def laplacian(mask, h):
    """5-point Dirichlet Laplacian on the mask nodes (row-major order)."""
    ny, nx = mask.shape

    def second_difference(m):
        return sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])

    full = (sp.kron(sp.identity(ny), second_difference(nx))
            + sp.kron(second_difference(ny), sp.identity(nx))).tocsr() / h**2
    inside = np.flatnonzero(mask.ravel())
    return full[inside][:, inside].tocsc()


def discrete_oracle(kind, mask, h):
    A = laplacian(mask, h)
    if kind == "eigenvalue":
        return float(eigsh(A, k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0])
    if kind == "torsion":
        x = splu(A, permc_spec="MMD_AT_PLUS_A").solve(np.ones(A.shape[0]))
        return 1.0 / (h * h * float(x.sum()))
    raise ValueError(f"unknown discrete oracle {kind!r}")


def _read(path, default=""):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return default


def machine():
    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level")).strip()
        kind = _read(os.path.join(base, index, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size")).strip()
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": model, **caches,
            "ram_mb": mem_kb // 1024, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(cases_path, result_path):
    from sobolev_lab import DomainSpec, build_grid

    with open(cases_path, encoding="utf-8") as fh:
        cases = json.load(fh)
    out = {"machine": machine(), "nodes": {}, "discrete": {}}
    for case in cases:
        grid = build_grid(DomainSpec.from_json(case["spec"]), case["h"])
        out["nodes"][case["name"]] = int(np.count_nonzero(grid.mask))
        kind = case.get("discrete")
        if isinstance(kind, str):
            out["discrete"][case["name"]] = discrete_oracle(kind, grid.mask, grid.h)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
