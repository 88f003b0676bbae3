"""File-format roundtrips and the command-line interface."""

import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from identities import read_profile, read_volume_profile
from sobolev_lab import chiti, cli
from sobolev_lab.chiti import dominance_check, verify_reverse_holder
from sobolev_lab.cli import main
from sobolev_lab.core import DomainSpec
from sobolev_lab.elliptic import build_grid, minimize_quotient
from sobolev_lab.formats import (DEFAULT_GRID, FORMAT_VERSION, canonical_json, csv_text,
                                 read_field, report_to_dict, report_to_json,
                                 report_to_table, write_field,
                                 write_radial_profile, write_volume_profile)
from sobolev_lab.radial import VolumeProfile, unit_ball_profile
from sobolev_lab.rearrange import decreasing_rearrangement

SQUARE = '{"shape": "rectangle", "width": 1.0, "height": 1.0, "scale": 1.0}'
DISK = '{"shape": "disk", "radius": 1.0}'


def run(*argv) -> int:
    return main(list(argv))


class TestProfileFiles:
    def test_radial_roundtrip(self, tmp_path):
        prof = unit_ball_profile(2, 1.5)
        path = str(tmp_path / "prof.csv")
        write_radial_profile(path, prof, config={"note": "x"})
        header, r, phi = read_profile(path)
        assert header["kind"] == "radial"
        assert header["version"] == FORMAT_VERSION
        assert header["n"] == 2 and header["p"] == 1.5
        assert header["config"] == {"note": "x"}
        grid = np.linspace(0.0, 1.0, DEFAULT_GRID) * prof.radius
        np.testing.assert_array_equal(r, grid)
        np.testing.assert_array_equal(phi, prof.phi(grid))

    def test_volume_roundtrip_step(self, tmp_path):
        vp = VolumeProfile(s=np.array([0.0, 0.25, 1.0, 1.5]),
                           values=np.array([3.0, 1.0, 0.25]))
        path = str(tmp_path / "vps.csv")
        write_volume_profile(path, vp, meta={"p": 2.0})
        header, back = read_volume_profile(path)
        assert "step" not in header and header["p"] == 2.0
        assert header["samples"] == 3
        np.testing.assert_array_equal(back.s, vp.s)
        np.testing.assert_array_equal(back.values, vp.values)
        assert back.total_volume == 1.5

    def test_rejects_non_volume_file(self, tmp_path):
        prof = unit_ball_profile(2, 1.0)
        path = str(tmp_path / "radial.csv")
        write_radial_profile(path, prof)
        with pytest.raises(ValueError, match="not a volume-profile"):
            read_volume_profile(path)


class TestFieldFiles:
    def test_roundtrip(self, tmp_path):
        spec = DomainSpec.disk(1.0)
        res = minimize_quotient(build_grid(spec, 1 / 16), 2.0)
        path = str(tmp_path / "disk.field.csv")
        write_field(path, res.field, p=2.0, cp=res.cp)
        header, back = read_field(path)
        assert header["p"] == 2.0 and header["cp"] == res.cp
        np.testing.assert_array_equal(back.mask, res.field.mask)
        np.testing.assert_array_equal(back.values[back.mask],
                                      res.field.values[res.field.mask])
        assert back.spec.shape == "disk"
        # NaN count in the file body equals the unmasked node count
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            nan_count = fh.read().count("nan")
        assert nan_count == int(np.sum(~res.field.mask))

    def test_shape_mismatch_detected(self, tmp_path):
        spec = DomainSpec.rectangle(0.5, 0.5)
        res = minimize_quotient(build_grid(spec, 1 / 16), 1.0)
        path = str(tmp_path / "f.csv")
        write_field(path, res.field, p=1.0, cp=res.cp)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        head = json.loads(lines[0])
        head["nx"] += 1
        lines[0] = canonical_json(head)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="header says"):
            read_field(path)


@pytest.fixture(scope="module")
def report():
    spec = DomainSpec.rectangle(1.0, 1.0)
    res = minimize_quotient(build_grid(spec, 1 / 32), 2.0)
    return verify_reverse_holder(res, [2.0, 4.0])


class TestReportRendering:
    def test_json_is_canonical(self, report):
        text = report_to_json(report, config={"command": "verify"})
        payload = json.loads(text)
        assert text == canonical_json(payload)
        assert payload["format"] == "sobolev-lab/report"
        assert payload["passed"] is True and payload["failed_gates"] == []
        assert payload["config"] == {"command": "verify"}
        assert [r["q"] for r in payload["rows"]] == [2.0, 4.0]

    def test_dict_matches_report(self, report):
        d = report_to_dict(report)
        assert d["cp"] == report.cp
        assert d["crossing"]["count"] == report.crossing.crossing_count
        assert d["crossing"]["max_I"] == report.crossing.max_I
        assert d["crossing"]["wrong_way"] == report.crossing.wrong_way
        assert d["dominance_min"] == report.dominance_min
        assert d["failed_gates"] == report.failed_gates()

    def test_table_rendering(self, report):
        table = report_to_table(report)
        assert "PASS" in table
        assert "rectangle(1x1)" in table
        assert "crossing" in table and "dominance" in table
        # one aligned row per exponent
        assert sum(line.lstrip().startswith("2 ") for line in table.splitlines()) >= 1

    def test_unspecified_domain_label(self, report):
        import dataclasses
        bare = dataclasses.replace(report, domain=None)
        assert "(unspecified)" in report_to_table(bare)

    def test_table_line_for_a_real_crossing(self):
        # at h = 1/64 the square's I peaks at the edge of 1,622 cells
        res = minimize_quotient(build_grid(DomainSpec.rectangle(1.0, 1.0), 1 / 64), 2.0)
        lines = report_to_table(verify_reverse_holder(res, [2.0, 4.0])).splitlines()
        assert ("crossing      count=1  s1=0.3959961  max I=5.861e-03  wrong way=4.658e-04"
                in lines)
        assert "equality      no" in lines


class TestCliBall:
    def test_writes_profile_and_khat(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run("ball", "-n", "2", "-p", "1", "-q", "1", "-q", "2",
                   "--out", out) == 0
        text = capsys.readouterr().out
        assert "C_p(B)" in text
        prof_path = os.path.join(out, "ball_n2_p1.profile.csv")
        khat_path = os.path.join(out, "khat_n2_p1.csv")
        assert os.path.exists(prof_path) and os.path.exists(khat_path)
        header, r, phi = read_profile(prof_path)
        assert header["n"] == 2 and abs(header["cp_ball"] - 8 / math.pi) < 1e-8
        with open(khat_path, encoding="utf-8") as fh:
            head = json.loads(fh.readline())
            assert head["format"] == "sobolev-lab/khat"
            assert fh.readline().strip() == "q,khat"
            rows = [line.split(",") for line in fh.read().splitlines()]
        assert [float(a) for a, _ in rows] == [1.0, 2.0]

    def test_module_entry_point(self, tmp_path):
        # `python -m sobolev_lab` runs __main__.py in a fresh interpreter
        proc = subprocess.run([sys.executable, "-m", "sobolev_lab", "ball", "-n", "2", "-p", "1",
                               "--out", str(tmp_path)], capture_output=True, text=True,
                              env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        assert os.listdir(tmp_path) == ["ball_n2_p1.profile.csv"]

    def test_q_beyond_khat_gate_names_no_lift(self, tmp_path, capsys):
        # the flag lifts the profile's gate; no flag lifts khat's
        out = tmp_path / "out"
        assert run("ball", "-n", "2", "-p", "2.5", "-q", "3", "--experimental-supercritical",
                   "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "no flag lifts khat's gate" in captured.err
        assert "allow_supercritical" not in captured.err

    def test_large_q(self, tmp_path, capsys):
        # khat reads ||phi||_q as phi(0) times a sum of (phi/phi(0))^q, so a
        # large q is fine until that sum underflows, an input error
        assert run("ball", "-n", "2", "-p", "1.01", "-q", "1e10",
                   "--out", str(tmp_path / "fine")) == 0
        out = tmp_path / "out"
        assert run("ball", "-n", "2", "-p", "1.01", "-q", "1e300", "--out", str(out)) == 2
        assert "q = 1e+300 is too large" in capsys.readouterr().err
        assert not out.exists()
        # the domain's ||u*||_q is scaled by u*(0) too: u*(0) = 0.637 at p = 1.01,
        # whose 2000th power underflows, and 1.087 at p = 2, whose 1e5th overflows
        for p, q in (("1.01", 2000.0), ("2", 1e5)):
            assert run("verify", "--spec", '{"shape": "disk", "radius": 1}', "-p", p,
                       "-q", repr(q), "--h", str(1 / 32), "--format", "json",
                       "--out", str(tmp_path / "v")) == 0
            payload = json.loads(capsys.readouterr().out.splitlines()[0])
            row, = payload["rows"]
            assert row["q"] == q and 0.0 < row["rhs"] < math.inf
            assert payload["failed_gates"] == []

    def test_dimension_past_float_range(self, tmp_path, capsys):
        # r^(n-1) in the normalization integral overflows from about n = 250,
        # and Gamma(n/2 + 1) in the unit ball volume from n = 342
        for n, what in (("250", "normalization integral"), ("400", "Gamma(n/2 + 1)")):
            out = tmp_path / n
            assert run("ball", "-n", n, "-p", "1.001", "--out", str(out)) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert f"dimension n = {n} is past float range" in captured.err and what in captured.err
        assert run("ball", "-n", "200", "-p", "1.001", "--out", str(tmp_path / "200")) == 0
        assert "C_p(B) = 4.413072300280988e+112" in capsys.readouterr().out

    def test_supercritical_needs_flag(self, tmp_path, capsys):
        assert run("ball", "-n", "3", "-p", "6", "--out", str(tmp_path)) == 2
        assert "2n/(n-2)" in capsys.readouterr().err

    def test_q_below_p_rejected(self, tmp_path, capsys):
        assert run("ball", "-n", "2", "-p", "2", "-q", "1",
                   "--out", str(tmp_path)) == 2
        assert "below p" in capsys.readouterr().err

    def test_tol_out_of_range(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("ball", "-n", "2", "-p", "1", "--tol", "1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tol must lie in" in err
        assert not out.exists()


class TestCliDomain:
    def test_solves_and_writes_field(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run("domain", "--spec", SQUARE, "-p", "2", "--h",
                   str(1 / 16), "--out", out) == 0
        text = capsys.readouterr().out
        assert "C_p(Omega)" in text
        fpath = os.path.join(out, "rectangle_height1_width1_p2_h16.field.csv")
        assert os.path.exists(fpath)
        header, fld = read_field(fpath)
        assert fld.spec.shape == "rectangle"
        assert header["config"]["command"] == "domain"

    def test_spec_file_input(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(SQUARE)
        assert run("domain", "--spec", str(spec_path), "-p", "1", "--h",
                   str(1 / 8), "--out", str(tmp_path)) == 0

    def test_unresolved_grid(self, tmp_path, capsys):
        tiny = '{"shape": "rectangle", "width": 0.01, "height": 0.01, "scale": 1.0}'
        assert run("domain", "--spec", tiny, "-p", "1", "--h", str(1 / 16),
                   "--out", str(tmp_path)) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["1e-300", "1e-320"])
    def test_spacing_past_any_node_count(self, h, tmp_path, capsys):
        # span / h at or past float range: exit 2 with short counts, no traceback
        out = tmp_path / "out"
        assert run("domain", "--spec", '{"shape":"disk","radius":1.0}', "-p", "1",
                   "--h", h, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceeds the budget" in err and len(err) < 100
        assert not out.exists()

    def test_malformed_spec(self, tmp_path, capsys):
        assert run("domain", "--spec", '{"shape": "heptagon"}', "-p", "1",
                   "--out", str(tmp_path)) == 2
        assert run("domain", "--spec", "/nonexistent/spec.json", "-p", "1",
                   "--out", str(tmp_path)) == 2
        assert run("domain", "--spec", '{"shape": disk}', "-p", "1",
                   "--out", str(tmp_path)) == 2
        capsys.readouterr()

    def test_non_numeric_spec_value(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("domain", "--spec", '{"shape":"disk","radius":"1"}', "-p", "1",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["domain", "verify", "table"])
    @pytest.mark.parametrize("text", [
        '{"shape": "disk", "radius": BIG}',
        '{"shape": "disk", "radius": 1.0, "scale": BIG}',
        '{"shape": "polygon", "vertices": [[0, 0], [BIG, 0], [0, 1]]}',
    ], ids=["radius", "scale", "vertex"])
    def test_number_past_float_range(self, command, text, tmp_path, capsys, monkeypatch):
        # a 401-digit int is an input error, not an OverflowError traceback
        cache = tmp_path / "cache"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(cache))
        out = tmp_path / "out"
        q_flags = [] if command == "domain" else ["-q", "2"]
        assert run(command, "--spec", text.replace("BIG", str(10**400)), "-p", "1", *q_flags,
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and "Traceback" not in err
        assert not out.exists() and not cache.exists()

    @pytest.mark.parametrize("argv", [
        ("domain", "--tol", "-1"),
        ("domain", "--max-iter", "0"),
        ("verify", "-q", "2", "--tol", "-1"),
        ("verify", "-q", "2", "--tol", "nan"),  # rejected by the argument parser
    ])
    def test_out_of_range_solver_options(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        try:
            code = run(*argv, "--spec", SQUARE, "-p", "2", "--h", str(1 / 8), "--out", str(out))
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        assert run("domain", "--spec", SQUARE, "-p", "1.5", "--h", str(1 / 16),
                   "--tol", "1e-15", "--max-iter", "1",
                   "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "solver error" in err
        assert "trajectory" in err


class TestCliVerify:
    def test_report_files_and_pass(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run("verify", "--spec", SQUARE, "-p", "1", "-q", "1", "-q", "2",
                   "--h", str(1 / 32), "--out", out) == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        stem = os.path.join(out, "report_rectangle_height1_width1_p1_h32")
        assert os.path.exists(stem + ".json")
        assert os.path.exists(stem + ".txt")
        with open(stem + ".json", encoding="utf-8") as fh:
            payload = json.loads(fh.read())
        assert payload["passed"] is True
        assert payload["config"]["command"] == "verify"

    def test_dominance_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def planted(u_star, ball, p, c):  # I dips below -c at its last edge
            I = dominance_check(u_star, ball, p, c)
            I[-1] = -2.0 * c
            return I

        monkeypatch.setattr(chiti, "dominance_check", planted)
        assert run("verify", "--spec", SQUARE, "-p", "1", "-q", "2",
                   "--h", str(1 / 32), "--out", str(tmp_path)) == 4
        err = capsys.readouterr().err
        assert "verification failed: dominance" in err

    def test_internal_error_propagates(self, tmp_path, monkeypatch):
        # a broken invariant is a fault of the program, not an input error:
        # main raises instead of returning exit code 2
        def scrambled(fld):
            u_star = decreasing_rearrangement(fld)
            return VolumeProfile(u_star.s, u_star.values[::-1])
        monkeypatch.setattr(chiti, "decreasing_rearrangement", scrambled)
        with pytest.raises(ValueError, match="non-increasing"):
            run("verify", "--spec", SQUARE, "-p", "1", "-q", "2",
                "--h", str(1 / 32), "--out", str(tmp_path))

    def test_json_format_flag(self, tmp_path, capsys):
        assert run("verify", "--spec", SQUARE, "-p", "2", "-q", "2",
                   "--h", str(1 / 32), "--format", "json",
                   "--out", str(tmp_path)) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert json.loads(first)["format"] == "sobolev-lab/report"

    def test_inadmissible_p(self, tmp_path, capsys):
        assert run("verify", "--spec", SQUARE, "-p", "2.5", "-q", "3",
                   "--out", str(tmp_path)) == 2
        assert "1 <= p <= 2" in capsys.readouterr().err

    def test_q_below_p(self, tmp_path, capsys):
        assert run("verify", "--spec", SQUARE, "-p", "2", "-q", "1",
                   "--out", str(tmp_path)) == 2
        assert "must be >=" in capsys.readouterr().err

    def test_missing_q(self, tmp_path, capsys):
        assert run("verify", "--spec", SQUARE, "-p", "1",
                   "--out", str(tmp_path)) == 2
        capsys.readouterr()

    def test_nonpositive_h(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert run("verify", "--spec", SQUARE, "-p", "2", "-q", "2", "--h", "0",
                   "--out", str(out)) == 2
        assert "grid spacing must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_spec_without_shape(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert run("verify", "--spec", '{"radius": 1.0}', "-p", "1", "-q", "2",
                   "--out", str(out)) == 2
        assert "must be an object with a 'shape' key" in capsys.readouterr().err
        assert not out.exists()

    def test_verification_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # khat off by 1e-6 relative puts the two paths to K past TWO_PATH_RTOL
        khat = chiti.khat
        monkeypatch.setattr(chiti, "khat", lambda *args: (1 + 1e-6) * khat(*args))
        out = tmp_path / "v"
        assert run("verify", "--spec", SQUARE, "-p", "2", "-q", "3",
                   "--h", str(1 / 32), "--out", str(out)) == 4
        assert ("verification error [stage: constant]: two-path constant mismatch"
                in capsys.readouterr().err)
        assert not out.exists() or list(out.iterdir()) == []


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radius,p,code", [
        ("1e80", "2", 0), ("1e-80", "2", 0), ("1e-100", "2", 0), ("1e-150", "2", 0),
        ("1e80", "1", 2), ("1e-80", "1", 2), ("1e-100", "1", 2), ("1e-150", "1", 2)])
    def test_far_scaled_disk(self, tmp_path, capsys, radius, p, code):
        # the solve runs in lattice units and one checked map-back carries
        # it to h = r/16, so under warnings as errors each run reaches a
        # verdict or exits 2 naming cp where cp leaves the normal floats
        # (C_1 of the disk is 8 / (pi r^4)); none ends in a traceback
        out = tmp_path / "v"
        assert run("verify", "--spec", f'{{"shape": "disk", "radius": {radius}}}',
                   "-p", p, "-q", "2", "-q", "3", "--h", repr(float(radius) / 16),
                   "--out", str(out)) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith("error: cp = ")
            assert "is not a normal float" in captured.err
            assert not out.exists()
        else:
            assert "PASS" in captured.out
            (txt,) = out.glob("*.txt")
            lines = txt.read_text(encoding="utf-8").splitlines()
            # significant digits at any scale, where :.8f printed 162 digits
            assert max(len(line) for line in lines[2:4]) <= 80, lines[2:4]
            # so does each q row's K, where :.8f printed 36 digits at radius
            # 1e80 and 0.00000000 at 1e-80
            report = read_report(out)
            for line, row in zip(lines[-4:-2], report["rows"]):
                assert_keeps_digits(line.split()[2], row["K"], 1e-8)

    @pytest.mark.filterwarnings("error")
    def test_far_scaled_crossing(self, tmp_path, capsys):
        # a non-ball domain far below unit size: the crossing's s1 and K
        # keep their digits in the .txt report (:.6f printed s1=0.000000)
        out = tmp_path / "v"
        assert run("verify", "--spec", '{"shape": "ellipse", "a": 1e-80, "b": 5e-81}',
                   "-p", "1.5", "-q", "2", "--h", "6.25e-82", "--out", str(out)) == 0
        assert "PASS" in capsys.readouterr().out
        (txt,) = out.glob("*.txt")
        lines = txt.read_text(encoding="utf-8").splitlines()
        report = read_report(out)
        crossing = dict(cell.split("=") for cell in lines[4].split()[1:3])
        assert crossing["count"] == "1"
        assert_keeps_digits(crossing["s1"], report["crossing"]["s1"], 1e-6)
        assert_keeps_digits(lines[-3].split()[2], report["rows"][0]["K"], 1e-8)


def read_report(out) -> dict:
    """The one JSON report that a verify wrote into the directory out."""
    (path,) = out.glob("*.json")
    return json.loads(path.read_text(encoding="utf-8"))


def assert_keeps_digits(cell: str, value: float, rel: float) -> None:
    """A .txt cell reads back as value to rel, in at most 14 characters."""
    assert len(cell) <= 14 and float(cell) == pytest.approx(value, rel=rel, abs=0.0), cell


class TestCliRearrange:
    def test_field_to_ustar(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run("domain", "--spec", SQUARE, "-p", "2", "--h", str(1 / 16),
                   "--out", out) == 0
        fpath = os.path.join(out, "rectangle_height1_width1_p2_h16.field.csv")
        assert run("rearrange", "--field", fpath, "--out", out) == 0
        capsys.readouterr()
        upath = os.path.join(out, "rectangle_height1_width1_p2_h16.ustar.csv")
        assert os.path.exists(upath)
        header, u_star = read_volume_profile(upath)
        assert "step" not in header
        assert header["source"] == os.path.basename(fpath)
        _, fld = read_field(fpath)
        direct = decreasing_rearrangement(fld)
        np.testing.assert_array_equal(u_star.values, direct.values)
        assert u_star.total_volume == direct.total_volume

    @pytest.mark.parametrize("cut", ["lines", "mid-row"])
    def test_truncated_field_is_an_input_error(self, tmp_path, capsys, cut):
        assert run("domain", "--spec", SQUARE, "-p", "1", "--h", str(1 / 64),
                   "--out", str(tmp_path)) == 0
        fpath = tmp_path / "rectangle_height1_width1_p1_h64.field.csv"
        lines = fpath.read_text(encoding="utf-8").splitlines()[:40]
        if cut == "mid-row":
            lines[-1] = lines[-1][: len(lines[-1]) // 2]
        fpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "out"
        assert run("rearrange", "--field", str(fpath), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


    @pytest.mark.parametrize("key,value", [("nx", None), ("ny", None), ("h", None),
                                           ("origin", None), ("h", "x"), ("origin", "ab"),
                                           ("h", -1.0), ("h", 0.0), ("h", "nan"),
                                           ("h", math.inf),
                                           pytest.param("h", 10**400, id="h-past-float")])
    def test_malformed_field_header_is_an_input_error(self, tmp_path, capsys, key, value):
        assert run("domain", "--spec", SQUARE, "-p", "1", "--h", str(1 / 16),
                   "--out", str(tmp_path)) == 0
        fpath = tmp_path / "rectangle_height1_width1_p1_h16.field.csv"
        first, rest = fpath.read_text(encoding="utf-8").split("\n", 1)
        header = json.loads(first)
        if value is None:
            del header[key]
        else:
            header[key] = value
        fpath.write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "out"
        assert run("rearrange", "--field", str(fpath), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("h", [1e-170, 1e200])
    def test_cell_area_past_float_range_is_an_input_error(self, tmp_path, capsys, h):
        # h is finite and positive, but h^2 underflows below the normal
        # floats or overflows: the rearrangement names it, and nothing is written
        assert run("domain", "--spec", SQUARE, "-p", "1", "--h", str(1 / 16),
                   "--out", str(tmp_path)) == 0
        fpath = tmp_path / "rectangle_height1_width1_p1_h16.field.csv"
        first, rest = fpath.read_text(encoding="utf-8").split("\n", 1)
        fpath.write_text(json.dumps({**json.loads(first), "h": h}) + "\n" + rest,
                         encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "out"
        assert run("rearrange", "--field", str(fpath), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the cell area h^2 = ") and f"at h = {h!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("body,message", [("inf", "infinite node value"),
                                              ("negative", "negative node values"),
                                              ("all-nan", "no node inside")])
    def test_malformed_field_body_is_an_input_error(self, tmp_path, capsys, body, message):
        assert run("domain", "--spec", SQUARE, "-p", "1", "--h", str(1 / 16),
                   "--out", str(tmp_path)) == 0
        fpath = tmp_path / "rectangle_height1_width1_p1_h16.field.csv"
        first, rest = fpath.read_text(encoding="utf-8").split("\n", 1)
        rows = [row.split(",") for row in rest.splitlines()]
        inside = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v != "nan"]
        for i, j in inside[:1] if body != "all-nan" else inside:
            rows[i][j] = {"inf": "inf", "negative": "-1.0", "all-nan": "nan"}[body]
        fpath.write_text("\n".join([first, *map(",".join, rows)]) + "\n", encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "out"
        assert run("rearrange", "--field", str(fpath), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()


class TestCliTable:
    ARGS = ("table", "--spec", SQUARE, "-p", "1", "-p", "2",
            "-q", "1", "-q", "2", "-q", "4", "--h", str(1 / 32))

    def read_sweep(self, out):
        with open(os.path.join(out, "sweep.csv"), "rb") as fh:
            return fh.read()

    @staticmethod
    def replant(cache, old_task, old_row):
        """Rewrite the one entry in cache under its own name, which the next
        identical run looks up, with old_task of its stored task and old_row
        of each of its rows; the entry's path and its bytes before."""
        (entry,) = cache.iterdir()
        written = entry.read_bytes()
        stored = json.loads(written)
        entry.write_text(json.dumps({"task": old_task(stored["task"]),
                                     "rows": [old_row(r) for r in stored["rows"]]}),
                         encoding="utf-8")
        return entry, written

    def test_sweep_rows_and_error_column(self, tmp_path, capsys):
        out = str(tmp_path / "a")
        assert run(*self.ARGS, "--out", out) == 0
        captured = capsys.readouterr()
        assert "1 of 6 rows failed" in captured.err  # q=1 below p=2
        text = self.read_sweep(out).decode()
        lines = text.splitlines()
        head = json.loads(lines[0])
        assert head["format"] == "sobolev-lab/sweep"
        assert lines[1].split(",")[:4] == ["domain", "p", "q", "h"]
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 6
        bad = [r for r in rows if r[1] == "2.0" and r[2] == "1.0"]
        assert len(bad) == 1 and "below p" in bad[0][-1]
        good = [r for r in rows if r[-1] == ""]
        assert len(good) == 5
        for r in good:
            assert float(r[10]) >= -1e-3  # margin column

    def test_failed_gate_is_an_error_row(self, tmp_path, capsys, monkeypatch):
        # margin -0.0010049 against the gate's -1e-3 lhs: verify exits 4 here
        group = ("--spec", '{"shape": "disk", "radius": 1.0}', "-p", "1", "-q", "2",
                 "--h", "0.0625")
        failed = "verification failed: margins out of tolerance"
        assert run("verify", *group, "--out", str(tmp_path / "v")) == 4
        assert failed in capsys.readouterr().err
        cache = tmp_path / "cache"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(cache))
        assert run("table", *group, "--out", str(tmp_path / "cold")) == 0
        assert "1 of 1 rows failed" in capsys.readouterr().err
        cold = self.read_sweep(tmp_path / "cold")
        row = cold.decode().splitlines()[2].split(",")
        assert row[-1] == failed and float(row[10]) < 0  # the numbers are kept
        # the entry as it was written before rows named failed gates, keyed
        # with no salt, holds the group as a pass; under this run's name it
        # is not read, and the group is solved and written again
        entry, written = self.replant(
            cache, lambda task: {k: v for k, v in task.items() if k != "salt"},
            lambda row: {**row, "error": ""})
        assert run("table", *group, "--out", str(tmp_path / "warm")) == 0
        assert "1 of 1 rows failed" in capsys.readouterr().err
        assert self.read_sweep(tmp_path / "warm") == cold
        assert entry.read_bytes() == written

    @pytest.mark.parametrize("spec,failed", [
        ('{"shape": "ellipse", "a": 1.0, "b": 0.6}', []),
        ('{"shape": "disk", "radius": 1.0}', ["margins"]),  # margin -0.0010049
    ], ids=["ellipse-passes", "disk-fails-margins"])
    def test_rows_are_the_reports_flattening(self, spec, failed, tmp_path, capsys,
                                             monkeypatch):
        # `table` and `verify --format json` flatten one report the same way
        monkeypatch.delenv("SOBOLEV_LAB_CACHE", raising=False)
        group = ("--spec", spec, "-p", "1", "-q", "2", "-q", "3", "--h", "0.0625")
        assert run("verify", *group, "--format", "json", "--out", str(tmp_path)) == (
            4 if failed else 0)
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert run("table", *group, "--out", str(tmp_path)) == 0
        capsys.readouterr()
        columns, *rows = self.read_back(tmp_path)
        assert len(rows) == len(report["rows"]) == 2
        for row, flat in zip(rows, report["rows"]):
            got = dict(zip(columns, row))
            for key in ("cp", "rho"):
                assert got[key] == repr(report[key])
            for key in ("q", "khat", "K", "lhs", "rhs", "margin"):
                assert got[key] == repr(flat[key])
            assert got["error"] == (
                f"verification failed: {', '.join(failed)} out of tolerance" if failed else "")

    def test_old_gate_wording_not_replayed(self, tmp_path, capsys, monkeypatch):
        # an entry written when p > 2 rows named allow_supercritical, keyed
        # by a `gates` key in place of the salt, is not read back, even
        # under this run's name
        cache = tmp_path / "cache"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(cache))
        args = ("table", "--spec", SQUARE, "-p", "2.5", "-q", "3", "--h", "0.125")
        assert run(*args, "--out", str(tmp_path / "cold")) == 0
        old = "pass allow_supercritical=True to lift"
        entry, written = self.replant(
            cache, lambda task: {**{k: v for k, v in task.items() if k != "salt"},
                                 "gates": "error"},
            lambda row: {**row, "error": old})
        assert run(*args, "--out", str(tmp_path / "warm")) == 0
        capsys.readouterr()
        warm = self.read_sweep(tmp_path / "warm")
        assert warm == self.read_sweep(tmp_path / "cold")
        assert b"no flag lifts khat's gate" in warm and old.encode() not in warm
        assert entry.read_bytes() == written

    def test_entry_before_the_certified_p1_stop_not_replayed(self, tmp_path, capsys,
                                                             monkeypatch):
        # p = 1 rows changed digits when the solve began to stop on its
        # certified bound; an entry that stores the salt of that time is not
        # read back, even under this run's name
        cache = tmp_path / "cache"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(cache))
        args = ("table", "--spec", SQUARE, "-p", "1", "-q", "2", "--h", "0.125")
        assert run(*args, "--out", str(tmp_path / "cold")) == 0
        entry, written = self.replant(cache, lambda task: {**task, "salt": 2},
                                      lambda row: {**row, "cp": 1.0})
        assert run(*args, "--out", str(tmp_path / "warm")) == 0
        capsys.readouterr()
        assert self.read_sweep(tmp_path / "warm") == self.read_sweep(tmp_path / "cold")
        assert entry.read_bytes() == written  # the group was solved and written again

    def test_entry_of_another_task_is_a_miss(self, tmp_path, capsys, monkeypatch):
        # a forced name collision: the entry of the same group at another
        # --max-iter, whose SolverError rows pass the per-row check, under
        # this group's name
        args = ("table", "--spec", SQUARE, "-p", "2", "-q", "2", "--h", "0.0625")
        other = tmp_path / "other"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(other))
        assert run(*args, "--max-iter", "2", "--out", str(tmp_path / "stopped")) == 0
        cache = tmp_path / "cache"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(cache))
        assert run(*args, "--out", str(tmp_path / "cold")) == 0
        capsys.readouterr()
        cold = self.read_sweep(tmp_path / "cold")
        assert b"SolverError" in self.read_sweep(tmp_path / "stopped")
        assert b"SolverError" not in cold
        (entry,), (foreign,) = cache.iterdir(), other.iterdir()
        written = entry.read_bytes()
        entry.write_bytes(foreign.read_bytes())
        solved, solve = [], cli._solve_domain
        monkeypatch.setattr(cli, "_solve_domain",
                            lambda *args: solved.append(args[1]) or solve(*args))
        assert run(*args, "--out", str(tmp_path / "warm")) == 0
        capsys.readouterr()
        assert solved == [2.0]
        assert self.read_sweep(tmp_path / "warm") == cold
        assert entry.read_bytes() == written

    @pytest.mark.parametrize("spec,p,qs,solved", [
        (DISK, "2", ["1"], None),
        (DISK, "2.5", ["1"], None),
        (DISK, "2.5", ["1", "3"], "AdmissibilityError: p = 2.5 lies outside 1 <= p <= 2"
                                  " and is gated as experimental; no flag lifts khat's gate"),
        # the grid of one node at h = 1/16, whose q = 3 row fails its margin
        ('{"shape": "polygon", "vertices": [[0, 0], [0.09375, 0], [0.09375, 0.09375],'
         ' [0, 0.09375]]}', "2", ["1", "3"], "verification failed: margins out of tolerance"),
    ], ids=["p2-q1", "p2.5-q1", "p2.5-q1-q3", "one-node-p2-q1-q3"])
    def test_rows_below_p_need_no_solve(self, spec, p, qs, solved, tmp_path, capsys,
                                        monkeypatch):
        # a q below p is decided before its group: no solve, no cache entry,
        # and the group's own error stays off its row
        cache = tmp_path / "cache"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(cache))
        if solved is None:
            def no_solve(*args, **kwargs):
                raise AssertionError("a group with no q >= p was solved")
            monkeypatch.setattr(cli, "_solve_domain", no_solve)
        q_flags = [flag for q in qs for flag in ("-q", q)]
        assert run("table", "--spec", spec, "-p", p, *q_flags,
                   "--h", "0.0625", "--out", str(tmp_path / "out")) == 0
        assert f"{len(qs)} of {len(qs)} rows failed" in capsys.readouterr().err
        columns, *rows = self.read_back(tmp_path / "out")
        errors = [row[columns.index("error")] for row in rows]
        assert errors[0] == f"q = 1 below p = {p}"
        if solved is None:
            assert len(errors) == 1
            assert not cache.exists() or list(cache.iterdir()) == []
        else:
            assert len(errors) == 2 and errors[1].startswith(solved)
            assert len(list(cache.iterdir())) == 1
        assert not any("allow_supercritical" in error for error in errors)

    def test_group_keyed_on_the_q_it_solves(self, tmp_path, capsys, monkeypatch):
        # a q below p is not part of the group's task, so a sweep without it
        # replays the same entry
        cache = tmp_path / "cache"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(cache))
        group = ("table", "--spec", SQUARE, "-p", "2", "--h", str(1 / 32))
        assert run(*group, "-q", "1", "-q", "2", "-q", "3", "--out", str(tmp_path / "a")) == 0
        (entry,) = cache.iterdir()

        def no_solve(*args, **kwargs):
            raise AssertionError("a cached group was solved")

        monkeypatch.setattr(cli, "_solve_domain", no_solve)
        assert run(*group, "-q", "2", "-q", "3", "--out", str(tmp_path / "b")) == 0
        capsys.readouterr()
        assert list(cache.iterdir()) == [entry]
        _, *with_below = self.read_back(tmp_path / "a")
        _, *without = self.read_back(tmp_path / "b")
        assert with_below[1:] == without and with_below[0][-1] == "q = 1 below p = 2"

    def test_equal_specs_make_one_task(self, tmp_path, capsys, monkeypatch):
        # the disk as an int, as a float and repeated is one domain: one solve
        # per p, one cache entry, one row per (p, q); --max-rows counts those rows
        cache = tmp_path / "cache"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(cache))
        solved, solve = [], cli._solve_domain

        def counted(spec, p, *args):
            solved.append(p)
            return solve(spec, p, *args)

        monkeypatch.setattr(cli, "_solve_domain", counted)
        disk = '{"shape": "disk", "radius": 1.0}'
        assert run("table", "--spec", '{"shape": "disk", "radius": 1}', "--spec", disk,
                   "--spec", disk, "-p", "1", "-q", "1", "-q", "2", "--h", "0.0625",
                   "--max-rows", "2", "--out", str(tmp_path / "out")) == 0
        capsys.readouterr()
        columns, *rows = self.read_back(tmp_path / "out")
        assert [(row[columns.index("domain")], row[columns.index("q")]) for row in rows] == [
            ("disk_radius1", "1.0"), ("disk_radius1", "2.0")]
        assert solved == [1.0]
        assert len(list(cache.iterdir())) == 1

    def read_back(self, out):
        """The column row and the rows of sweep.csv, as Python's csv module reads them."""
        with open(os.path.join(out, "sweep.csv"), newline="", encoding="utf-8") as fh:
            fh.readline()  # the JSON header line
            return list(csv.reader(fh))

    def test_solver_error_with_commas_reads_back(self, tmp_path, capsys, monkeypatch):
        # two steps leave the quotient short of converging; the SolverError
        # quotes the tail "20.00154846, 19.67846626", a comma inside `error`
        monkeypatch.delenv("SOBOLEV_LAB_CACHE", raising=False)
        out = str(tmp_path)
        assert run("table", "--spec", SQUARE, "-p", "2", "-q", "2", "-q", "3",
                   "--h", "0.0625", "--max-iter", "2", "--out", out) == 0
        assert "2 of 2 rows failed" in capsys.readouterr().err
        columns, *rows = self.read_back(out)
        assert columns == cli.TABLE_COLUMNS and len(columns) == 12
        assert len(rows) == 2 and all(len(row) == 12 for row in rows)
        for row in rows:
            assert row[-1].startswith("SolverError: quotient iteration did not converge")
            assert ", " in row[-1]
        lines = self.read_sweep(out).decode().splitlines()
        assert lines[2].endswith(f'"{rows[0][-1]}"')  # quoted, and only that field

    def test_two_failed_gates_read_back(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SOBOLEV_LAB_CACHE", raising=False)
        monkeypatch.setattr(chiti.ReverseHolderReport, "failed_gates",
                            lambda self: ["margins", "dominance"])
        out = str(tmp_path)
        assert run("table", "--spec", SQUARE, "-p", "2", "-q", "2", "-q", "3",
                   "--h", str(1 / 32), "--out", out) == 0
        assert "2 of 2 rows failed" in capsys.readouterr().err
        columns, *rows = self.read_back(out)
        assert len(rows) == 2 and all(len(row) == len(columns) == 12 for row in rows)
        for row in rows:
            assert row[-1] == "verification failed: margins, dominance out of tolerance"
            assert float(row[columns.index("cp")]) > 0  # the numbers are kept

    def test_quoting_only_where_needed(self):
        text = csv_text("sweep", {}, None, ("a", "b", "c"),
                        [("plain", 'say "hi"', "two\nlines"), ("x, y", 1, "")])
        assert text.splitlines()[1:3] == ["a,b,c", 'plain,"say ""hi""","two']
        assert list(csv.reader(text.splitlines(keepends=True)[2:])) == [
            ["plain", 'say "hi"', "two\nlines"], ["x, y", "1.0", ""]]

    def test_non_finite_q_rejected_before_any_group(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*self.ARGS, "-q", "nan", "--out", str(out))
        assert exc.value.code == 2
        assert "argument -q: invalid finite value: 'nan'" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_tol_gives_error_rows(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run("table", "--spec", SQUARE, "-p", "2", "-q", "2", "-q", "4",
                   "--h", str(1 / 8), "--tol", "-1", "--out", out) == 0
        assert "2 of 2 rows failed" in capsys.readouterr().err
        rows = self.read_sweep(out).decode().splitlines()[2:]
        assert len(rows) == 2
        for row in rows:
            assert "InputError: need a finite tol > 0 and max_iter >= 1" in row

    def test_reruns_byte_identical(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert run(*self.ARGS, "--out", out1) == 0
        assert run(*self.ARGS, "--out", out2) == 0
        capsys.readouterr()
        assert self.read_sweep(out1) == self.read_sweep(out2)

    def test_cache_reuse_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(cache))
        out1, out2 = str(tmp_path / "c1"), str(tmp_path / "c2")
        assert run(*self.ARGS, "--out", out1) == 0
        entries = list(cache.glob("*.json"))
        assert len(entries) == 2  # one per (domain, p) group
        stamps = {e: e.stat().st_mtime_ns for e in entries}
        assert run(*self.ARGS, "--out", out2) == 0
        capsys.readouterr()
        assert self.read_sweep(out1) == self.read_sweep(out2)
        for e in entries:  # second run read the cache, never rewrote it
            assert e.stat().st_mtime_ns == stamps[e]

    def test_truncated_cache_entry_is_recomputed(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(cache))
        clean, again = str(tmp_path / "clean"), str(tmp_path / "again")
        assert run(*self.ARGS, "--out", clean) == 0
        entry = sorted(cache.glob("*.json"))[0]
        whole = entry.read_text(encoding="utf-8")
        entry.write_text(whole[: len(whole) // 2], encoding="utf-8")
        assert run(*self.ARGS, "--out", again) == 0
        capsys.readouterr()
        assert self.read_sweep(again) == self.read_sweep(clean)
        assert json.loads(entry.read_text(encoding="utf-8")) == json.loads(whole)
        assert len(list(cache.iterdir())) == 2  # no temp file left behind

    @pytest.mark.parametrize("bad", ["{}", '[{"domain": "x"}]', "other group"])
    def test_misshapen_cache_entry_is_recomputed(self, tmp_path, capsys, monkeypatch, bad):
        # an entry that parses but is not this group's rows is a miss too
        cache = tmp_path / "cache"
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(cache))
        clean, again = str(tmp_path / "clean"), str(tmp_path / "again")
        assert run(*self.ARGS, "--out", clean) == 0
        entry, other = sorted(cache.glob("*.json"))
        whole = entry.read_text(encoding="utf-8")
        entry.write_text(other.read_text(encoding="utf-8") if bad == "other group" else bad,
                         encoding="utf-8")
        assert run(*self.ARGS, "--out", again) == 0
        capsys.readouterr()
        assert self.read_sweep(again) == self.read_sweep(clean)
        assert entry.read_text(encoding="utf-8") == whole

    def test_programming_errors_propagate(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SOBOLEV_LAB_CACHE", raising=False)

        def broken(*args, **kwargs):
            raise TypeError("broken verifier")

        monkeypatch.setattr(cli, "verify_reverse_holder", broken)
        with pytest.raises(TypeError, match="broken verifier"):
            run(*self.ARGS, "--jobs", "1", "--out", str(tmp_path))
        assert not (tmp_path / "sweep.csv").exists()

    def test_parallel_matches_serial(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "s"), str(tmp_path / "p")
        assert run(*self.ARGS, "--out", out1) == 0
        assert run(*self.ARGS, "--jobs", "2", "--out", out2) == 0
        capsys.readouterr()
        # config echoes the jobs flag, so compare data rows only
        rows1 = self.read_sweep(out1).decode().splitlines()[1:]
        rows2 = self.read_sweep(out2).decode().splitlines()[1:]
        assert rows1 == rows2

    def test_pool_never_larger_than_the_missed_groups(self, tmp_path, capsys, monkeypatch):
        asked = []

        class Recorder:  # stands in for the pool: records its size, runs the groups here
            def __init__(self, max_workers, **placement):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        # cli looks the pool up in concurrent.futures on a cache miss
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(tmp_path / "cache"))
        assert run(*self.ARGS, "--jobs", "64", "--out", str(tmp_path / "cold")) == 0
        assert asked == [2]  # two (domain, p) groups
        assert run(*self.ARGS, "--jobs", "64", "--out", str(tmp_path / "warm")) == 0
        assert run("table", "--spec", SQUARE, "-p", "1", "-q", "1", "--h", str(1 / 16),
                   "--jobs", "8", "--out", str(tmp_path / "one")) == 0
        capsys.readouterr()
        assert asked == [2]  # every group cached, then one group: no pool
        assert self.read_sweep(tmp_path / "cold") == self.read_sweep(tmp_path / "warm")

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity and at least two CPUs")
    def test_workers_start_on_distinct_cpus(self, tmp_path):
        # a fresh interpreter records every affinity call, the forked
        # workers' too: each worker moves to one CPU of its own, then is
        # allowed the parent's CPUs again
        code = ("import os, sys\n"
                "real = os.sched_setaffinity\n"
                "def recording(pid, cpus):\n"
                "    with open(sys.argv[1], 'a') as fh:\n"
                "        fh.write(f'{os.getpid()} {sorted(cpus)}\\n')\n"
                "    real(pid, cpus)\n"
                "os.sched_setaffinity = recording\n"
                "from sobolev_lab.cli import main\n"
                "sys.exit(main(sys.argv[2:]))\n")
        log = tmp_path / "affinity.log"
        proc = subprocess.run(
            [sys.executable, "-c", code, str(log), *self.ARGS, "--jobs", "2",
             "--out", str(tmp_path / "out")], capture_output=True, text=True,
            env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path),
                              "SOBOLEV_LAB_CACHE": str(tmp_path / "cache")})
        assert proc.returncode == 0, proc.stderr
        calls = {}
        for line in log.read_text().splitlines():
            pid, cpus = line.split(" ", 1)
            calls.setdefault(pid, []).append(json.loads(cpus))
        allowed = sorted(os.sched_getaffinity(0))
        assert len(calls) == 2  # the two workers; the parent makes no call
        assert all(len(first) == 1 and rest == [allowed] for first, *rest in calls.values())
        assert len({first[0] for first, *_ in calls.values()}) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected_at_parse(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*self.ARGS, "--jobs", jobs, "--out", str(out))
        assert exc.value.code == 2
        assert f"argument --jobs: invalid positive value: '{jobs}'" in capsys.readouterr().err
        assert not out.exists()

    def test_row_budget(self, tmp_path, capsys):
        assert run("table", "--spec", SQUARE, "-p", "1", "-q", "1",
                   "--max-rows", "0", "--out", str(tmp_path)) == 2
        assert "exceeds --max-rows" in capsys.readouterr().err

    def test_distinct_polygons_get_distinct_labels(self, tmp_path, capsys):
        small = '{"shape": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]}'
        large = '{"shape": "polygon", "vertices": [[0, 0], [2, 0], [0, 2]]}'
        slugs = {cli._spec_slug(DomainSpec.from_json(t)) for t in (small, large)}
        assert len(slugs) == 2
        out = str(tmp_path / "t")
        assert run("table", "--spec", small, "--spec", large, "-p", "1", "-q", "1",
                   "--h", str(1 / 16), "--out", out) == 0
        capsys.readouterr()
        rows = self.read_sweep(out).decode().splitlines()[2:]
        assert {row.split(",")[0] for row in rows} == slugs

    def test_polygon_label_keeps_its_digest(self):
        # the vertex count and the first 8 hex digits of the vertices' sha256
        unit = '{"shape": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}'
        assert cli._spec_slug(DomainSpec.from_json(unit)) == "polygon_vertices4-7f0936ec"

    def test_close_values_get_distinct_names(self, tmp_path, capsys):
        # :g keeps six significant digits, which would print 1.0000001 as 1
        one = '{"shape": "disk", "radius": 1.0}'
        near = '{"shape": "disk", "radius": 1.0000001}'
        out = str(tmp_path / "t")
        assert run("table", "--spec", one, "--spec", near, "-p", "1", "-q", "1",
                   "--h", str(1 / 16), "--out", out) == 0
        rows = self.read_sweep(out).decode().splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["disk_radius1", "disk_radius1.0000001"]
        for spec in (one, near):
            assert run("domain", "--spec", spec, "-p", "1.0000001", "--h", "0.1",
                       "--out", str(tmp_path / "d")) == 0
        capsys.readouterr()
        assert sorted(os.listdir(tmp_path / "d")) == [
            "disk_radius1.0000001_p1.0000001_h10.field.csv",
            "disk_radius1_p1.0000001_h10.field.csv"]
        assert cli._h_slug(0.1 + 0.2) == "h0.30000000000000004"
        assert cli._h_slug(0.3) == "h0.3"

    def test_h_slug_is_exact(self):
        h = 1 / (128 + 1e-10)
        assert cli._h_slug(1 / 128) == "h128"
        assert cli._h_slug(h) == f"h{h!r}"
        cases = {1 / 64: "h64", 1 / 3: "h3", 0.1: "h10", 0.01: "h100",
                 0.003: "h0.003", 2.5: "h2.5",  # round(1 / 2.5) = 0
                 1.0: "h1", 0.5: "h2", 2.0: "h2.0", 3.0: "h3.0",  # h3 names 1/3
                 # 1/k names h only while a float holds k exactly, up to 2**53
                 2.0**-53: "h9007199254740992", 2.0**-54: "h5.551115123125783e-17",
                 1e-20: "h1e-20", 1e-100 / 16: "h6.25e-102"}
        assert {h: cli._h_slug(h) for h in cases} == cases

    def test_stdout_when_no_out(self, capsys):
        assert run("table", "--spec", SQUARE, "-p", "1", "-q", "1",
                   "--h", str(1 / 16)) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("domain,")
