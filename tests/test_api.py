"""Contracts shared by every module: the exponent gate and the exports."""

import ast
import importlib
import math
import pathlib
import pkgutil

import pytest

import sobolev_lab
from sobolev_lab import (AdmissibilityError, DomainSpec, SobolevResult,
                         VerificationError, alpha, build_grid, constant_K,
                         cp_ball, khat, minimize_quotient, shoot, torsion_form,
                         unit_ball_profile, verify_reverse_holder)
from sobolev_lab.cli import main as cli_main

SQUARE = '{"shape": "rectangle", "width": 1.0, "height": 1.0, "scale": 1.0}'

# bad input -> (n, p, qs or None, substrings the error message must carry)
BAD = {
    "critical": (3, 6.0, None, ["2n/(n-2)"]),
    "p-below-one": (2, 0.5, None, ["not admissible"]),
    "supercritical": (2, 2.5, None, ["experimental", "1 <= p <= 2"]),
    "q-below-p": (2, 1.0, [0.5], ["must be >=", "below p"]),
    "empty-q": (2, 1.0, [], ["at least one exponent q"]),
    "q-nan": (2, 1.0, [math.nan], ["finite", "nan"]),
    "q-inf": (2, 1.0, [math.inf], ["finite", "inf"]),
}
NON_FINITE_Q = {"q-nan", "q-inf"}


def _grid():
    return build_grid(DomainSpec.rectangle(1.0, 1.0), 1.0 / 8)


def _q(p, qs):
    return p if qs is None else qs[0]


def _q_flags(p, qs):
    return [a for q in ([p] if qs is None else qs) for a in ("-q", repr(q))]


# entry point -> (call(n, p, qs, out), cases it takes, error class, stage)
ENTRY = {
    "alpha": (lambda n, p, qs, out: alpha(n, p),
              {"critical", "p-below-one"}, AdmissibilityError, None),
    "shoot": (lambda n, p, qs, out: shoot(n, p),
              {"critical", "p-below-one", "supercritical"}, AdmissibilityError, None),
    "unit_ball_profile": (lambda n, p, qs, out: unit_ball_profile(n, p),
                          {"critical", "p-below-one", "supercritical"},
                          AdmissibilityError, None),
    "cp_ball": (lambda n, p, qs, out: cp_ball(n, p, 0.5),
                {"critical", "p-below-one", "supercritical"}, AdmissibilityError, None),
    "minimize_quotient": (lambda n, p, qs, out: minimize_quotient(_grid(), p),
                          {"p-below-one", "supercritical"}, AdmissibilityError, None),
    "constant_K": (lambda n, p, qs, out: constant_K(n, p, _q(p, qs), 1.0),
                   {"critical", "p-below-one", "supercritical", "q-below-p", *NON_FINITE_Q},
                   AdmissibilityError, None),
    "khat": (lambda n, p, qs, out: khat(n, p, _q(p, qs)),
             {"critical", "p-below-one", "supercritical", "q-below-p", *NON_FINITE_Q},
             AdmissibilityError, None),
    "torsion_form": (lambda n, p, qs, out: torsion_form(n, _q(p, qs), 1.0),
                     {"q-below-p", *NON_FINITE_Q}, AdmissibilityError, None),
    "verify_reverse_holder": (
        lambda n, p, qs, out: verify_reverse_holder(
            SobolevResult(field=_grid(), cp=1.0, iterations=0, residual=0.0, p=p),
            [p] if qs is None else qs),
        {"p-below-one", "supercritical", "q-below-p", "empty-q", *NON_FINITE_Q},
        VerificationError, "preconditions"),
    "cli verify": (lambda n, p, qs, out: cli_main(
        ["verify", "--spec", SQUARE, "-p", repr(p), *_q_flags(p, qs), "--out", out]),
        {"p-below-one", "supercritical", "q-below-p", "empty-q", *NON_FINITE_Q}, None, None),
    "cli ball": (lambda n, p, qs, out: cli_main(
        ["ball", "-n", str(n), "-p", repr(p), *_q_flags(p, qs), "--out", out]),
        {"critical", "p-below-one", "supercritical", "q-below-p", *NON_FINITE_Q}, None, None),
}

PAIRS = [(entry, case) for entry, (_, cases, _, _) in ENTRY.items()
         for case in BAD if case in cases]


@pytest.mark.parametrize("entry,case", PAIRS, ids=[f"{e}-{c}" for e, c in PAIRS])
def test_exponent_gate(entry, case, tmp_path, capsys):
    call, _, error, stage = ENTRY[entry]
    n, p, qs, pinned = BAD[case]
    if error is None:  # CLI: usage exit code, message on stderr
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
    assert list(tmp_path.iterdir()) == []  # rejected before any output


# every public name of the package; adding or removing one is an API change
PUBLIC = {
    "AdmissibilityError", "CrossingError", "DomainSpec", "GridError", "SolverError",
    "SpecError", "VerificationError", "admissible", "alpha", "check_exponents",
    "unit_ball_volume",
    "RadialProfile", "RawShot", "VolumeProfile", "cp_ball",
    "normalize_to_unit_ball", "shoot", "unit_ball_profile",
    "verify_integro_differential", "volume_profile",
    "GriddedField", "SobolevResult", "build_grid", "minimize_quotient",
    "poisson_solve", "quotient",
    "DistributionFunction", "decreasing_rearrangement", "distribution",
    "equimeasurability_residual", "hlp_conclusion_check", "hlp_dominates",
    "symmetrized_sample", "verify_talenti",
    "ComparisonBall", "CrossingAnalysis", "ReverseHolderReport", "ReverseHolderRow",
    "comparison_ball", "constant_K", "crossing_analysis", "dominance_check", "khat",
    "torsion_form", "verify_reverse_holder",
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


def test_traced_names_resolve():
    # the benchmark's tracer rebinds these functions by name (and elliptic.cg
    # as the per-sweep solve), so a rename must fail here too
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    traced = {**traced, "elliptic": (*traced["elliptic"], "cg")}
    for module, names in traced.items():
        mod = importlib.import_module(f"sobolev_lab.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"sobolev_lab.{module}.{name} is gone"
