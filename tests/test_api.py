"""Contracts shared by every module: the exponent gate, the exports, and the
test settings that every module's tests run under."""

import ast
import csv
import importlib
import json
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import sobolev_lab
from sobolev_lab import (AdmissibilityError, DomainSpec, SobolevResult,
                         VerificationError, alpha, build_grid, constant_K,
                         cp_ball, khat, minimize_quotient, shoot,
                         unit_ball_profile, verify_reverse_holder)
from sobolev_lab.cli import main as cli_main

SQUARE = '{"shape": "rectangle", "width": 1.0, "height": 1.0, "scale": 1.0}'

# bad input -> (n, p, qs or None, substrings the error message must carry)
BAD = {
    "critical": (3, 6.0, None, ["2n/(n-2)"]),
    "dimension-one": (1, 1.0, None, ["not admissible", "need n >= 2"]),
    "p-below-one": (2, 0.5, None, ["not admissible"]),
    "supercritical": (2, 2.5, None, ["experimental", "1 <= p <= 2"]),
    "q-below-p": (2, 1.0, [0.5], ["must be >=", "below p"]),
    "empty-q": (2, 1.0, [], ["at least one exponent q"]),
    "q-nan": (2, 1.0, [math.nan], ["finite", "nan"]),
    "q-inf": (2, 1.0, [math.inf], ["finite", "inf"]),
    # ints past float range: out of range, not an OverflowError
    "p-past-float": (2, 10**400, None, ["not admissible", "need p in float range"]),
    "n-past-float": (10**400, 1.0, None, ["not admissible", "need n in float range"]),
    "q-past-float": (2, 1.0, [10**400], ["finite"]),
    # ints past str()'s digit limit (the API's alone: the CLI's parser refuses
    # them): the message names their length
    "n-past-str": (10**5000, 1.0, None, ["not admissible", "an int of 5001 digits"]),
    "p-past-str": (2, 10**5000, None, ["need p in float range", "an int of 5001 digits"]),
    "q-past-str": (2, 1.5, [10**5000], ["finite", "an int of 5001 digits"]),
}
NON_FINITE_Q = {"q-nan", "q-inf", "q-past-float"}
# the cases of an entry point that takes the dimension n
BAD_N = {"critical", "dimension-one", "n-past-float"}
# p past float range, and an int p past str()'s limit
HUGE_P = {"p-past-float", "p-past-str"}


def _grid():
    return build_grid(DomainSpec.rectangle(1.0, 1.0), 1.0 / 8)


def _q(p, qs):
    return p if qs is None else qs[0]


def _q_flags(p, qs):
    return [a for q in ([p] if qs is None else qs) for a in ("-q", repr(q))]


# entry point -> (call(n, p, qs, out), cases it takes, error class, stage); the
# error class is None for a CLI exit code and "row" for a table row's error
ENTRY = {
    "alpha": (lambda n, p, qs, out: alpha(n, p),
              {*BAD_N, "n-past-str", "p-below-one", *HUGE_P}, AdmissibilityError, None),
    "shoot": (lambda n, p, qs, out: shoot(n, p),
              {*BAD_N, "n-past-str", "p-below-one", *HUGE_P, "supercritical"},
              AdmissibilityError, None),
    "unit_ball_profile": (lambda n, p, qs, out: unit_ball_profile(n, p),
                          {*BAD_N, "n-past-str", "p-below-one", *HUGE_P, "supercritical"},
                          AdmissibilityError, None),
    "cp_ball": (lambda n, p, qs, out: cp_ball(n, p, 0.5),
                {*BAD_N, "n-past-str", "p-below-one", *HUGE_P, "supercritical"},
                AdmissibilityError, None),
    "minimize_quotient": (lambda n, p, qs, out: minimize_quotient(_grid(), p),
                          {"p-below-one", *HUGE_P, "supercritical"},
                          AdmissibilityError, None),
    "constant_K": (lambda n, p, qs, out: constant_K(n, p, _q(p, qs), 1.0),
                   {*BAD_N, "n-past-str", "p-below-one", *HUGE_P, "supercritical", "q-below-p",
                    *NON_FINITE_Q, "q-past-str"},
                   AdmissibilityError, None),
    "khat": (lambda n, p, qs, out: khat(n, p, _q(p, qs)),
             {*BAD_N, "n-past-str", "p-below-one", *HUGE_P, "supercritical", "q-below-p",
              *NON_FINITE_Q, "q-past-str"},
             AdmissibilityError, None),
    "verify_reverse_holder": (
        lambda n, p, qs, out: verify_reverse_holder(
            SobolevResult(field=_grid(), cp=1.0, iterations=0, residual=0.0, p=p),
            [p] if qs is None else qs),
        {"p-below-one", *HUGE_P, "supercritical", "q-below-p", "empty-q", *NON_FINITE_Q,
         "q-past-str"},
        VerificationError, "preconditions"),
    "cli verify": (lambda n, p, qs, out: cli_main(
        ["verify", "--spec", SQUARE, "-p", repr(p), *_q_flags(p, qs), "--out", out]),
        {"p-below-one", "supercritical", "q-below-p", "empty-q", *NON_FINITE_Q}, None, None),
    "cli ball": (lambda n, p, qs, out: cli_main(
        ["ball", "-n", str(n), "-p", repr(p), *_q_flags(p, qs), "--out", out]),
        {*BAD_N, "p-below-one", "supercritical", "q-below-p", *NON_FINITE_Q}, None, None),
    # the flag lifts the profile's gate but not khat's, so -q is still rejected
    "cli ball lifted": (lambda n, p, qs, out: cli_main(
        ["ball", "-n", str(n), "-p", repr(p), *_q_flags(p, qs),
         "--experimental-supercritical", "--out", out]),
        {"supercritical"}, None, None),
    # a sweep records the refusal in each row's error and exits 0
    "cli table": (lambda n, p, qs, out: cli_main(
        ["table", "--spec", SQUARE, "-p", repr(p), *_q_flags(p, qs), "--h", "0.125"]),
        {"supercritical"}, "row", None),
}
# the entries that compute khat: nothing lifts their p <= 2 gate, and they
# say so; every other entry names the flag that lifts it
KHAT_GATED = {"constant_K", "khat", "verify_reverse_holder", "cli verify", "cli ball",
              "cli ball lifted", "cli table"}

PAIRS = [(entry, case) for entry, (_, cases, _, _) in ENTRY.items()
         for case in BAD if case in cases]


@pytest.mark.parametrize("entry,case", PAIRS, ids=[f"{e}-{c}" for e, c in PAIRS])
def test_exponent_gate(entry, case, tmp_path, capsys, monkeypatch):
    call, _, error, stage = ENTRY[entry]
    n, p, qs, pinned = BAD[case]
    if error == "row":  # the sweep goes to stdout, no cache entry is written
        monkeypatch.delenv("SOBOLEV_LAB_CACHE", raising=False)
        assert call(n, p, qs, str(tmp_path)) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        columns, *rows = csv.reader(lines[1:])  # past the JSON header line
        (message,) = {row[columns.index("error")] for row in rows}
    elif error is None:  # CLI: usage exit code, message on stderr
        try:
            code = call(n, p, qs, str(tmp_path))
        except SystemExit as exc:  # rejected by the argument parser
            code = exc.code
        assert code == 2
        message = capsys.readouterr().err
    else:
        with pytest.raises(error) as exc:
            call(n, p, qs, str(tmp_path))
        assert getattr(exc.value, "stage", None) == stage
        message = str(exc.value)
    for text in pinned:
        assert text in message
    if case == "supercritical":  # what lifts the gate, if anything
        if entry in KHAT_GATED:
            assert "no flag lifts khat's gate" in message
            assert "allow_supercritical" not in message
        else:
            assert "--experimental-supercritical" in message
    assert list(tmp_path.iterdir()) == []  # rejected before any output


# every public name of the package; adding or removing one is an API change
PUBLIC = {
    "AdmissibilityError", "CrossingError", "DomainSpec", "GridError", "SolverError",
    "SpecError", "VerificationError", "admissible", "alpha", "check_exponents",
    "unit_ball_volume",
    "RadialProfile", "RawShot", "VolumeProfile", "cp_ball",
    "normalize_to_unit_ball", "shoot", "unit_ball_profile", "volume_profile",
    "GriddedField", "SobolevResult", "build_grid", "minimize_quotient", "quotient",
    "decreasing_rearrangement",
    "ComparisonBall", "CrossingAnalysis", "ReverseHolderReport", "ReverseHolderRow",
    "comparison_ball", "constant_K", "crossing_analysis", "dominance_check", "khat",
    "verify_reverse_holder",
    "formats", "__version__",
}


def test_public_surface_declared_once():
    names = sobolev_lab.__all__
    assert len(names) == len(set(names))
    modules = [sobolev_lab.core, sobolev_lab.radial, sobolev_lab.elliptic,
               sobolev_lab.rearrange, sobolev_lab.chiti]
    assert names == [n for mod in modules for n in mod.__all__] + ["formats", "__version__"]
    assert set(names) == PUBLIC


def test_every_export_resolves():
    names = ["sobolev_lab"] + [f"sobolev_lab.{m.name}"
                               for m in pkgutil.iter_modules(sobolev_lab.__path__)
                               if m.name != "__main__"]
    for modname in names:
        mod = importlib.import_module(modname)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{modname}.__all__ lists missing {name!r}"


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _traced():
    """TRACED of the benchmark's tracer: module -> the function names it rebinds."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets))


def test_traced_names_resolve():
    # the benchmark's tracer rebinds these functions by name (and elliptic.cg
    # as the per-sweep solve), so a rename must fail here too
    traced = _traced()
    traced = {**traced, "elliptic": (*traced["elliptic"], "cg")}
    for module, names in traced.items():
        mod = importlib.import_module(f"sobolev_lab.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"sobolev_lab.{module}.{name} is gone"


MODULES = {"sobolev_lab", "core", "radial", "elliptic", "rearrange", "chiti", "formats", "cli"}


def test_every_public_name_has_a_caller():
    # a name has a caller when the package or the benchmark reads it, bare or
    # as an attribute of one of the package's modules, outside the top-level
    # statement that defines it; the tests do not count
    read = set()
    for path in [*(ROOT / "src" / "sobolev_lab").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                     or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in MODULES}
            read |= names - {getattr(top, "name", None)}
    # the version string is read by people and packaging tools, not by code
    public = set(sobolev_lab.__all__) - {"__version__"} | set(sobolev_lab.formats.__all__)
    assert sorted(public - read) == []


def test_failing_hypothesis_example_does_not_abort_the_run(tmp_path):
    # hypothesis's failure report imports libcst, which warns on import; under
    # the repo's warnings-as-errors that warning must not stop the run
    (tmp_path / "test_sample.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n\n"
        "def test_passes():\n"
        "    assert True\n", encoding="utf-8")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                          str(tmp_path / "test_sample.py")],
                         capture_output=True, text=True, cwd=tmp_path)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout


# ------------------------------------------------------ what an import loads

def _fresh(code, *argv, **env):
    """The last stdout line of code, run in a fresh interpreter on this source
    tree with argv and env added, read as JSON."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path, **env}, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_package_names_load_their_module_on_first_use():
    code = ("import json, sys; import sobolev_lab; before = 'numpy' in sys.modules; "
            "from sobolev_lab import chiti; print(json.dumps([before, 'numpy' in sys.modules]))")
    assert _fresh(code) == [False, True]


# what a cache-hit table has no use for: the solver's numpy, the pool's
# concurrent.futures (which loads logging), and dataclasses (which loads inspect)
UNUSED_WHEN_WARM = ("numpy", "concurrent.futures", "dataclasses", "inspect", "logging")


def _unused_when_warm(modules):
    """The UNUSED_WHEN_WARM names among modules that a bare interpreter does not load."""
    bare = _fresh("import json, sys; print(json.dumps(sorted(sys.modules)))")
    return sorted(set(UNUSED_WHEN_WARM) & set(modules) - set(bare))


def test_cli_registers_the_traced_modules_without_loading_them():
    # the tracer reads sys.modules["sobolev_lab.<m>"] right after the import
    modules = _fresh("import json, sys, sobolev_lab.cli; print(json.dumps(sorted(sys.modules)))")
    assert {f"sobolev_lab.{m}" for m in _traced()} <= set(modules)
    assert _unused_when_warm(modules) == []


def test_warm_table_loads_no_numpy(tmp_path):
    # nor anything else in UNUSED_WHEN_WARM
    code = ("import json, sys, sobolev_lab, sobolev_lab.cli; "
            "rc = sobolev_lab.cli.main(sys.argv[1:]); "
            "print(json.dumps([rc, sorted(sys.modules)]))")
    argv = ["table", "--spec", SQUARE, "-p", "1", "-q", "2", "--h", repr(1 / 16)]
    cache = str(tmp_path / "cache")
    rc, cold = _fresh(code, *argv, "--out", str(tmp_path / "cold"), SOBOLEV_LAB_CACHE=cache)
    assert rc == 0 and "numpy" in cold
    rc, warm = _fresh(code, *argv, "--out", str(tmp_path / "warm"), SOBOLEV_LAB_CACHE=cache)
    assert rc == 0 and _unused_when_warm(warm) == []
    cold, warm = ((tmp_path / run / "sweep.csv").read_bytes() for run in ("cold", "warm"))
    assert cold == warm


# what loads OpenSSL's libcrypto: only a polygon's label imports it
OPENSSL = {"hashlib", "_hashlib"}


def test_cli_and_cached_table_load_no_openssl(tmp_path):
    # cache entries are named by a CRC-32, with binascii, not by a sha256
    modules = _fresh("import json, sys, sobolev_lab.cli; print(json.dumps(sorted(sys.modules)))")
    assert OPENSSL.isdisjoint(modules)
    code = ("import json, sys, sobolev_lab.cli; "
            "rc = sobolev_lab.cli.main(sys.argv[1:]); "
            "print(json.dumps([rc, sorted(sys.modules)]))")
    argv = ["table", "--spec", '{"shape": "disk", "radius": 1.0}', "--spec", SQUARE,
            "-p", "1", "-q", "2", "--h", "0.0625", "--jobs", "1"]
    cache = str(tmp_path / "cache")
    rc, cold = _fresh(code, *argv, "--out", str(tmp_path / "cold"), SOBOLEV_LAB_CACHE=cache)
    assert rc == 0 and "numpy" in cold and OPENSSL.isdisjoint(cold)
    rc, warm = _fresh(code, *argv, "--out", str(tmp_path / "warm"), SOBOLEV_LAB_CACHE=cache)
    assert rc == 0 and "numpy" not in warm and OPENSSL.isdisjoint(warm)  # every group read
    assert len(os.listdir(cache)) == 2


def test_verify_loads_no_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rule of the radial norms is constants, not leggauss(8)
    code = ("import json, sys, sobolev_lab.cli; "
            "rc = sobolev_lab.cli.main(sys.argv[1:]); "
            "print(json.dumps([rc, 'numpy' in sys.modules, 'numpy.polynomial' in sys.modules]))")
    disk = '{"shape": "disk", "radius": 1.0}'
    assert _fresh(code, "verify", "--spec", disk, "-p", "2", "-q", "3", "--h", repr(1 / 32),
                  "--out", str(tmp_path)) == [0, True, False]


def test_pool_workers_verify_through_the_cli_name(tmp_path):
    # a replaced cli.verify_reverse_holder sees every group, in the workers
    code = textwrap.dedent("""
        import json, os, sys
        from sobolev_lab import cli
        log, verify = sys.argv[1], cli.verify_reverse_holder

        def recorded(res, qs):
            with open(log, "a", encoding="utf-8") as fh:
                print(json.dumps([os.getpid(), res.p]), file=fh)
            return verify(res, qs)

        cli.verify_reverse_holder = recorded
        print(json.dumps([cli.main(sys.argv[2:]), os.getpid(),
                          "concurrent.futures" in sys.modules]))
    """)
    log = tmp_path / "calls.jsonl"
    disk = '{"shape": "disk", "radius": 0.5}'
    rc, pid, pool_loaded = _fresh(code, str(log), "table", "--spec", SQUARE, "--spec", disk,
                                  "-p", "1", "-p", "2", "-q", "2", "--h", repr(1 / 16),
                                  "--jobs", "2", "--out", str(tmp_path))
    calls = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert rc == 0 and pool_loaded  # a cold table --jobs 2 starts its pool
    assert sorted(p for _, p in calls) == [1.0, 1.0, 2.0, 2.0]  # one call per group
    assert pid not in {worker for worker, _ in calls}
