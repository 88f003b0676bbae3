"""File-format roundtrips and the command-line interface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sobolev_lab import chiti, cli
from sobolev_lab.chiti import verify_reverse_holder
from sobolev_lab.cli import main
from sobolev_lab.core import DomainSpec
from sobolev_lab.elliptic import build_grid, minimize_quotient
from sobolev_lab.formats import (DEFAULT_GRID, FORMAT_VERSION, canonical_json, read_field,
                                 read_profile, read_volume_profile,
                                 report_to_dict, report_to_json,
                                 report_to_table, write_field,
                                 write_radial_profile, write_volume_profile)
from sobolev_lab.radial import VolumeProfile, unit_ball_profile
from sobolev_lab.rearrange import decreasing_rearrangement

SQUARE = '{"shape": "rectangle", "width": 1.0, "height": 1.0, "scale": 1.0}'


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

    def test_volume_roundtrip_sampled(self, tmp_path):
        s = np.linspace(0.0, 2.0, 40)
        vp = VolumeProfile(s=s, values=np.exp(-s))
        path = str(tmp_path / "vp.csv")
        write_volume_profile(path, vp)
        header, back = read_volume_profile(path)
        assert not header["step"]
        np.testing.assert_array_equal(back.s, vp.s)
        np.testing.assert_array_equal(back.values, vp.values)
        assert back.power_integral(2.0) == vp.power_integral(2.0)

    def test_volume_roundtrip_step(self, tmp_path):
        vp = VolumeProfile(s=np.array([0.0, 0.25, 1.0, 1.5]),
                           values=np.array([3.0, 1.0, 0.25]), step=True)
        path = str(tmp_path / "vps.csv")
        write_volume_profile(path, vp, meta={"p": 2.0})
        header, back = read_volume_profile(path)
        assert header["step"] and header["p"] == 2.0
        assert back.step
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
        assert payload["passed"] is True
        assert payload["config"] == {"command": "verify"}
        assert [r["q"] for r in payload["rows"]] == [2.0, 4.0]

    def test_dict_matches_report(self, report):
        d = report_to_dict(report)
        assert d["cp"] == report.cp
        assert d["crossing"]["count"] == report.crossing.crossing_count
        assert d["dominance_min"] == report.dominance_min

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
        # the h = 1/32 square of the fixture lies inside its band (equality
        # case); at h = 1/64 the profiles cross once, outside the band
        res = minimize_quotient(build_grid(DomainSpec.rectangle(1.0, 1.0), 1 / 64), 2.0)
        lines = report_to_table(verify_reverse_holder(res, [2.0, 4.0])).splitlines()
        assert "crossing      count=1  s1=0.616874  band=5.193e-02" in lines
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
        monkeypatch.setattr(chiti, "dominance_check", lambda *args, **kwargs: -1.0)
        assert run("verify", "--spec", SQUARE, "-p", "1", "-q", "2",
                   "--h", str(1 / 32), "--out", str(tmp_path)) == 4
        err = capsys.readouterr().err
        assert "verification failed: dominance" in err

    def test_internal_error_propagates(self, tmp_path, monkeypatch):
        # a broken invariant is a fault of the program, not an input error:
        # main raises instead of returning exit code 2
        def scrambled(fld):
            u_star = decreasing_rearrangement(fld)
            return VolumeProfile(u_star.s, u_star.values[::-1], step=True)
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

    def test_verification_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # a negative slack makes every comparison ball too large for its domain
        monkeypatch.setattr(chiti, "FK_TOL", -0.5)
        out = tmp_path / "v"
        assert run("verify", "--spec", SQUARE, "-p", "2", "-q", "3",
                   "--h", str(1 / 32), "--out", str(out)) == 4
        assert "verification error [stage: comparison_ball]" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []


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
        assert header["step"] is True
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
                                           ("origin", None), ("h", "x"), ("origin", "ab")])
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


class TestCliTable:
    ARGS = ("table", "--spec", SQUARE, "-p", "1", "-p", "2",
            "-q", "1", "-q", "2", "-q", "4", "--h", str(1 / 32))

    def read_sweep(self, out):
        with open(os.path.join(out, "sweep.csv"), "rb") as fh:
            return fh.read()

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
                 1.0: "h1", 0.5: "h2", 2.0: "h2.0", 3.0: "h3.0"}  # h3 names 1/3
        assert {h: cli._h_slug(h) for h in cases} == cases

    def test_stdout_when_no_out(self, capsys):
        assert run("table", "--spec", SQUARE, "-p", "1", "-q", "1",
                   "--h", str(1 / 16)) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("domain,")
