"""Acceptance suite: ten quantitative criteria, one verdict line each.

Each test computes its criterion end to end, appends a [PASS]/[FAIL]
line to the shared summary (printed after the run), and then asserts.
Tolerances are pinned here, not imported, so a regression in package
constants cannot silently relax a gate.
"""

import json
import math
import os
import time

import numpy as np

import conftest
import oracles
from identities import (equimeasurability_residual, hlp_conclusion_check, hlp_dominates,
                        torsion_form, verify_integro_differential, verify_talenti)
from sobolev_lab.chiti import (comparison_ball, constant_K, dominance_check, khat,
                               verify_reverse_holder)
from sobolev_lab.cli import main as cli_main
from sobolev_lab.core import alpha, unit_ball_volume
from sobolev_lab.radial import VolumeProfile, cp_ball, unit_ball_profile, volume_profile
from sobolev_lab.rearrange import decreasing_rearrangement

SOLVED_PLANE = [(shape, p) for shape in ("disk", "square", "ellipse", "lshape")
                for p in (1.0, 1.5, 2.0)]


def record(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
    conftest.ACCEPTANCE_LINES.append((num, line))
    print(line)
    assert ok, line


def test_criterion_01_radial_oracles():
    # frozen Bessel literal still matches the live root-finder oracle
    assert abs(oracles.first_bessel_zero() - oracles.J0_FIRST_ZERO) < 1e-14
    cases = [
        (2, 1.0, 8.0 / math.pi),
        (2, 2.0, oracles.J0_FIRST_ZERO**2),
        (3, 2.0, math.pi**2),
    ] + [(n, 1.0, oracles.torsion_cp(n)) for n in range(2, 6)]
    worst_err, worst_time = 0.0, 0.0
    for n, p, expected in cases:
        t0 = time.perf_counter()
        got = cp_ball(n, p)
        worst_time = max(worst_time, time.perf_counter() - t0)
        worst_err = max(worst_err, abs(got - expected) / expected)
    ok = worst_err <= 1e-8 and worst_time < 1.0
    record(1, ok, f"ball constants match closed forms: max rel err "
                  f"{worst_err:.2e} (tol 1e-8), slowest call {worst_time:.2f}s (< 1s)")


def test_criterion_02_scaling_law(solve):
    t0 = time.perf_counter()
    worst_radial = 0.0
    for n in (2, 3):
        for p in (1.0, 1.5, 2.0):
            base = cp_ball(n, p)
            for r in (0.5, 2.0, 3.0):
                predicted = r ** alpha(n, p) * base
                err = abs(cp_ball(n, p, radius=r) - predicted) / predicted
                worst_radial = max(worst_radial, err)
    worst_grid = 0.0
    for p in (1.0, 2.0):
        predicted = 2.0 ** alpha(2, p) * solve("square", p).cp
        err = abs(solve("square2", p).cp - predicted) / predicted
        worst_grid = max(worst_grid, err)
    elapsed = time.perf_counter() - t0
    ok = worst_radial <= 1e-8 and worst_grid <= 0.02 and elapsed < 120
    record(2, ok, f"dilation power law holds: radial max rel err {worst_radial:.2e} "
                  f"(tol 1e-8), grid scale-2 max rel err {worst_grid:.2e} "
                  f"(tol 2e-2), {elapsed:.0f}s (< 2 min)")


def test_criterion_03_grid_solver_oracles(solve):
    t0 = time.perf_counter()
    square_target = oracles.SQUARE_EIGENVALUE
    sq_rel = abs(solve("square", 2.0, 1 / 256).cp - square_target) / square_target
    disk2_target = oracles.DISK_EIGENVALUE
    d2_rel = abs(solve("disk", 2.0).cp - disk2_target) / disk2_target
    d1_target = oracles.DISK_TORSION_CP
    d1_rel = abs(solve("disk", 1.0).cp - d1_target) / d1_target
    sq_ratio = (abs(solve("square", 2.0, 1 / 128).cp - square_target)
                / abs(solve("square", 2.0, 1 / 256).cp - square_target))
    dk_ratio = (abs(solve("disk", 2.0, 1 / 64).cp - disk2_target)
                / abs(solve("disk", 2.0, 1 / 128).cp - disk2_target))
    elapsed = time.perf_counter() - t0
    ok = (sq_rel <= 0.005 and d2_rel <= 0.02 and d1_rel <= 0.02
          and 1.5 <= sq_ratio <= 4.5 and 1.5 <= dk_ratio <= 4.5
          and elapsed < 300)
    record(3, ok, f"grid constants match eigenvalue/torsion oracles: square "
                  f"{sq_rel:.2e} (tol 5e-3), disk p=2 {d2_rel:.2e} and p=1 "
                  f"{d1_rel:.2e} (tol 2e-2), refinement ratios {sq_ratio:.2f}/"
                  f"{dk_ratio:.2f} in [1.5, 4.5], {elapsed:.0f}s (< 5 min)")


def grid_unit(res) -> float:
    """c = h^2 u*(0)^p, the p-mass of u*'s fullest cell, from the field itself."""
    return res.field.h**2 * float(np.max(res.field.values)) ** res.p


def test_criterion_04_disk_cross_pipeline(solve):
    t0 = time.perf_counter()
    worst_shape, worst_margin, all_equal, own_c, peaks = 0.0, 0.0, True, True, []
    for p in (1.0, 1.5, 2.0):
        res = solve("disk", p)
        report = verify_reverse_holder(res, [p, 2.0 * p])
        all_equal = all_equal and report.crossing.identical
        own_c = own_c and report.tau_dominance == grid_unit(res)
        u_star = decreasing_rearrangement(res.field)
        ball = comparison_ball(res.cp, 2, p, u_star)
        max_d = float(np.max(np.abs(ball.phi_star.values - u_star.values)))
        worst_shape = max(worst_shape, max_d / float(ball.phi_star.values[0]))
        peaks.append((report.crossing.max_I / report.tau_dominance,
                      report.crossing.max_I, report.tau_dominance))
        worst_margin = max(worst_margin,
                           max(abs(r.margin) / r.lhs for r in report.rows))
    _, worst_I, worst_c = max(peaks)
    elapsed = time.perf_counter() - t0
    ok = (all_equal and own_c and worst_I <= worst_c and worst_shape <= 0.03
          and worst_margin <= 0.02 and elapsed < 180)
    record(4, ok, f"disk grid pipeline reproduces the radial extremal: "
                  f"equality branch {'hit' if all_equal else 'MISSED'}, "
                  f"max|phi*-u*| {worst_shape:.2%} of phi*(0) (tol 3%), "
                  f"max I {worst_I:.3e} (tol c = {worst_c:.3e}"
                  f"{'' if own_c else '; the report holds another c'}), "
                  f"margin {worst_margin:.2%} (tol 2%), {elapsed:.0f}s (< 3 min)")


def test_criterion_05_nonball_verification(solve):
    t0 = time.perf_counter()
    h = 1.0 / 128
    worst_margin, structure_ok, own_c, dips = math.inf, True, True, []
    # the headline: the q = p row's margin is 0 by construction and I's
    # minimum over all edges is I(|Omega|), phi*'s quadrature deficit, whose
    # tail also holds I's least interior value (one cell before |Omega| on
    # every case), so the line prints the smallest margin over q > p and
    # I's least value over (0, s1), before the crossing, from
    # dominance_check's own I
    qp_margin, before = math.inf, []
    for shape in ("square", "ellipse", "lshape"):
        for p in (1.0, 1.5, 2.0):
            res = solve(shape, p, h)
            report = verify_reverse_holder(res, sorted({p, 2.0 * p, 4.0}))
            worst_margin = min(worst_margin,
                               min(r.margin / r.lhs for r in report.rows))
            qp_margin = min([qp_margin] + [r.margin / r.lhs for r in report.rows if r.q > p])
            own_c = own_c and report.tau_dominance == grid_unit(res)
            dips.append((report.dominance_min / report.tau_dominance,
                         report.dominance_min, report.tau_dominance))
            u_star = decreasing_rearrangement(res.field)
            I = dominance_check(u_star, comparison_ball(res.cp, 2, p, u_star), p,
                                report.tau_dominance)
            inside = (u_star.s > 0.0) & (u_star.s < report.crossing.s1)
            before.append((float(np.min(I[inside])), f"{shape} p = {p:g}"))
            structure_ok = structure_ok and (
                report.crossing.crossing_count == 1
                and 0.0 < report.crossing.s1 < report.bstar_volume
                and report.bstar_volume < report.omega_volume)
    _, worst_dom, worst_c = min(dips)
    least_I, where = min(before)
    elapsed = time.perf_counter() - t0
    ok = (worst_margin >= -1e-3 and worst_dom >= -worst_c and own_c and structure_ok
          and elapsed < 600)
    record(5, ok, f"reverse Holder verified on square/ellipse/L-shape: "
                  f"least margin over q > p {qp_margin:+.2e} (every margin >= -1e-3), "
                  f"single crossing with 0 < s1 < |B*| {structure_ok}, "
                  f"least I over (0, s1) {least_I:+.2e} ({where}; gate min I >= -c, "
                  f"-c = {-worst_c:.2e} at the least min I / c"
                  f"{'' if own_c else '; the report holds another c'}), "
                  f"{elapsed:.0f}s (< 10 min)")


def test_criterion_06_profile_lemmas(solve):
    worst_res, ratios = 0.0, []
    for n in (2, 3):
        for p in (1.0, 1.5, 2.0):
            prof = unit_ball_profile(n, p)
            vp = volume_profile(prof, np.linspace(0.0, unit_ball_volume(n), 2049))
            worst_res = max(worst_res,
                            verify_integro_differential(vp, prof.cp_ball, n, p))
            if p >= 1.5:  # p = 1 residual sits at roundoff, no order to read
                coarse = verify_integro_differential(
                    volume_profile(prof, np.linspace(0.0, unit_ball_volume(n), 1025)),
                    prof.cp_ball, n, p)
                fine = verify_integro_differential(vp, prof.cp_ball, n, p)
                ratios.append(coarse / fine)
    order_ok = all(1.6 <= r <= 2.4 for r in ratios)
    worst_talenti = 0.0
    for shape, p in SOLVED_PLANE + [("square2", 1.0), ("square2", 2.0)]:
        res = solve(shape, p)
        u_star = decreasing_rearrangement(res.field)
        budget = 5.0 * res.field.h
        worst_talenti = max(worst_talenti,
                            verify_talenti(u_star, res.cp, 2, p) / budget)
    ok = worst_res <= 1e-3 and order_ok and worst_talenti <= 1.0
    record(6, ok, f"profile identities hold: integro-differential residual "
                  f"{worst_res:.2e} (tol 1e-3) with refinement ratios "
                  f"{min(ratios):.2f}-{max(ratios):.2f} (first order), "
                  f"rearrangement slope bound at {worst_talenti:.0%} of "
                  f"the 5h budget")


def test_criterion_07_hlp_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250819)
    counterexamples, accepted_total = 0, 0
    for q1 in (0.5, 1.0, 2.0):
        accepted, attempts = 0, 0
        while accepted < 1000 and attempts < 50000:
            attempts += 1
            m = int(rng.integers(3, 60))
            breaks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, m))])
            g_vals = np.sort(rng.uniform(0.0, 3.0, m))[::-1]
            f_vals = np.sort(g_vals * rng.uniform(0.3, 1.05, m))[::-1]
            f = VolumeProfile(s=breaks, values=f_vals)
            g = VolumeProfile(s=breaks, values=g_vals)
            if not hlp_dominates(f, g, q1):
                continue
            accepted += 1
            for q2 in (q1, 2.0 * q1, 5.0 * q1):
                if not hlp_conclusion_check(f, g, q1, q2):
                    counterexamples += 1
        accepted_total += accepted
    # the hand-computed pair
    breaks, f_vals, g_vals = oracles.hand_hlp_pair()
    f = VolumeProfile(s=breaks, values=f_vals)
    g = VolumeProfile(s=breaks, values=g_vals)
    hand_ok = (hlp_dominates(f, g, 1.0)
               and hlp_conclusion_check(f, g, 1.0, 2.0))
    elapsed = time.perf_counter() - t0
    ok = (counterexamples == 0 and accepted_total >= 3000 and hand_ok
          and elapsed < 10)
    record(7, ok, f"cumulative dominance propagates to higher powers: "
                  f"{accepted_total} random dominated pairs, "
                  f"{counterexamples} counterexamples, hand pair "
                  f"{'ok' if hand_ok else 'BAD'}, {elapsed:.1f}s (< 10 s)")


def test_criterion_08_constant_self_consistency():
    worst = 0.0
    for p in (1.0, 1.5, 2.0):
        cp_b = unit_ball_profile(2, p).cp_ball
        for q in sorted({p, 2.0 * p, 4.0}):
            e = (2.0 / alpha(2, p)) * (1.0 / p - 1.0 / q)
            for factor in (0.1, 1.0, 10.0):
                cp = factor * cp_b
                direct = constant_K(2, p, q, cp)  # raises if paths split
                via = khat(2, p, q) * cp**e
                worst = max(worst, abs(direct - via) / direct)
    hand = abs(constant_K(2, 1.0, 2.0, oracles.DISK_TORSION_CP)
               - oracles.K_DISK_1_2)
    torsion_ok = all(
        math.isclose(torsion_form(2, q, f * oracles.DISK_TORSION_CP),
                     constant_K(2, 1.0, q, f * oracles.DISK_TORSION_CP),
                     rel_tol=1e-10)
        for q in (1.0, 2.0, 4.0) for f in (0.1, 1.0, 10.0))
    ok = worst <= 1e-8 and hand <= 1e-6 and torsion_ok
    record(8, ok, f"sharp constant consistent along both routes: ratio vs "
                  f"power form max rel err {worst:.2e} (tol 1e-8), "
                  f"disk K(1,2) vs sqrt(3 pi)/2 off by {hand:.2e} (tol 1e-6), "
                  f"torsional parameterization {'exact' if torsion_ok else 'BAD'}")


def test_criterion_09_equimeasurability(solve):
    worst = 0.0
    combos = (SOLVED_PLANE + [("square2", 1.0), ("square2", 2.0)])
    for shape, p in combos:
        res = solve(shape, p)
        for q in sorted({0.5, 1.0, p, 2.0, 4.0}):
            worst = max(worst, equimeasurability_residual(res.field, q))
    ok = worst <= 1e-12
    record(9, ok, f"rearranged power integrals match the field on "
                  f"{len(combos)} extremals: worst relative residual "
                  f"{worst:.2e} (tol 1e-12)")


def test_criterion_10_determinism(tmp_path):
    disk = '{"shape": "disk", "radius": 1.0, "scale": 1.0}'
    square = '{"shape": "rectangle", "width": 1.0, "height": 1.0, "scale": 1.0}'
    table_args = ["table", "--spec", square, "--spec", disk,
                  "-p", "1", "-p", "2", "-q", "2", "-q", "4",
                  "--h", repr(1 / 32)]
    outs = [str(tmp_path / f"t{i}") for i in (1, 2)]
    for out in outs:
        assert cli_main(table_args + ["--out", out]) == 0
    sweeps = []
    for out in outs:
        with open(os.path.join(out, "sweep.csv"), "rb") as fh:
            sweeps.append(fh.read())
    reruns_identical = sweeps[0] == sweeps[1]

    # every command replayed from the config each output embeds
    def replay(argv, out_a, out_b, config_of, files_of) -> bool:
        assert cli_main(argv + ["--out", out_a]) == 0
        cfg = config_of(out_a)
        argv2 = [cfg["command"]]
        for key in sorted(k for k in cfg if k not in ("command", "format_version")):
            val = cfg[key]
            flag = f"-{key}" if key in ("n", "p", "q") else "--" + key.replace("_", "-")
            vals = val if isinstance(val, list) else [val]
            if isinstance(val, bool):
                if val:
                    argv2.append(flag)
                continue
            for v in vals:
                argv2 += [flag, repr(v) if isinstance(v, float) else str(v)]
        assert cli_main(argv2 + ["--out", out_b]) == 0
        for name in files_of(out_a):
            with open(os.path.join(out_a, name), "rb") as fa, \
                 open(os.path.join(out_b, name), "rb") as fb:
                if fa.read() != fb.read():
                    return False
        return True

    def header_config(fname):
        def read(out):
            with open(os.path.join(out, fname), encoding="utf-8") as fh:
                return json.loads(fh.readline())["config"]
        return read

    ok_ball = replay(
        ["ball", "-n", "2", "-p", "1.5", "-q", "2", "-q", "3"],
        str(tmp_path / "b1"), str(tmp_path / "b2"),
        header_config("ball_n2_p1.5.profile.csv"),
        lambda out: sorted(os.listdir(out)))
    field_name = "rectangle_height1_width1_p1_h16.field.csv"
    ok_domain = replay(
        ["domain", "--spec", square, "-p", "1", "--h", repr(1 / 16)],
        str(tmp_path / "d1"), str(tmp_path / "d2"),
        header_config(field_name), lambda out: [field_name])

    def report_config(out):
        with open(os.path.join(out, "report_rectangle_height1_width1_p1_h32.json"),
                  encoding="utf-8") as fh:
            return json.load(fh)["config"]

    ok_verify = replay(
        ["verify", "--spec", square, "-p", "1", "-q", "2", "--h", repr(1 / 32)],
        str(tmp_path / "v1"), str(tmp_path / "v2"), report_config,
        lambda out: sorted(os.listdir(out)))
    ok_rearrange = replay(
        ["rearrange", "--field", os.path.join(str(tmp_path / "d1"), field_name)],
        str(tmp_path / "r1"), str(tmp_path / "r2"),
        header_config("rectangle_height1_width1_p1_h16.ustar.csv"),
        lambda out: sorted(os.listdir(out)))
    ok_table = replay(
        table_args, str(tmp_path / "t3"), str(tmp_path / "t4"),
        header_config("sweep.csv"), lambda out: ["sweep.csv"])

    replayed = {"ball": ok_ball, "domain": ok_domain, "verify": ok_verify,
                "rearrange": ok_rearrange, "table": ok_table}
    ok = reruns_identical and all(replayed.values())
    bad = [k for k, v in replayed.items() if not v]
    record(10, ok, f"sweep reruns byte-identical: {reruns_identical}; all 5 "
                   f"commands replay byte-identically from their embedded "
                   f"run config{'' if not bad else ' EXCEPT ' + ', '.join(bad)}")
