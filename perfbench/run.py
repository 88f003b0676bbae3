"""Verify-pipeline benchmark of sobolev-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout: the program is imported from
./src, never from an installed copy, and everything the run writes goes
under ./.perfbench.  Workloads (see workloads.py and BENCHMARK.json):

* verify-fine       API, h = 1/256, disk p=2 anchor + seeded ellipse, l-shape
* constants-many-q  API, h = 1/64, 3 shapes x 3 p x 8 q, plus radial.cp_ball
* cli-sweep         ``sobolev-lab table --jobs 2`` at p = 1, h = 1/256, cold
                    (empty cache) then warm (identical command, every group cached)

Every pass runs in a fresh child process, one pass at a time (closed
loop, one caller), with BLAS/OpenMP pools pinned to one thread and a fresh
sweep cache; the caller's SOBOLEV_LAB_CACHE is never used.  Passes repeat
until --seconds have been spent measuring (at least two).  Set-up
times ``import sobolev_lab`` in fresh interpreters (setup_s; more samples
come from every pass: each child times its own import, and one more fresh
interpreter follows the pass) and computes the discrete oracles.

Every case is checked: report.passed() (for the CLI, recorded inside
its processes by clirun.py), the anchor oracles, cp
bit-identical across passes (traced and untraced alike), the warm rerun
identical to the first, and for the CLI no error row and byte-identical
cold and warm sweep.csv.  A case failing any check counts in ``failed``;
the run then prints ``"correct": false`` and exits 1.

With --trace 0 the last line carries the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it carries the
per-layer metrics.  Lines before it give every metric with its sample
count, median and quartiles, and N and sweeps per case.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from tracing import layer_metrics, read_spans  # noqa: E402
from workloads import SMOKE_H, WORKLOADS, make_cases  # noqa: E402

END_TO_END = {"wall_s": "s", "cached_wall_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "cp_rel_err": "ratio", "cp_solver_err": "ratio"}
PER_LAYER = {
    "elliptic.build_grid_s": "s", "elliptic.nodes": "count",
    "elliptic.minimize_s": "s", "elliptic.sweeps": "count",
    "elliptic.sweep_s": "s", "elliptic.share": "ratio",
    "rearrange.decreasing_rearrangement_s": "s", "rearrange.cells": "count",
    "radial.unit_ball_profile_s": "s", "radial.unit_ball_profile_calls": "count",
    "radial.cp_ball_s": "s", "radial.cp_ball_calls": "count",
    "radial.volume_profile_s": "s", "radial.share": "ratio",
    "chiti.comparison_ball_s": "s", "chiti.crossing_analysis_s": "s",
    "chiti.dominance_check_s": "s", "chiti.constant_K_s": "s", "chiti.khat_s": "s",
    "chiti.constant_calls": "count", "chiti.verify_self_s": "s", "chiti.share": "ratio",
    "formats.report_s": "s", "formats.report_bytes": "bytes",
    "cli.groups": "count", "cli.rows": "count", "cli.cache_entries_written": "count",
    "cli.cache_entries_read": "count", "cli.cache_bytes": "bytes",
    "cli.sweep_bytes": "bytes",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}

CONTINUUM_TOL_PER_H = 3.0  # |cp/ref - 1| <= 3h: the staircase boundary error is O(h)
DISCRETE_TOL = 1e-7        # |cp/ref - 1| against the exact discrete minimum
CP_BALL_TOL = 1e-8         # C_p(B*) from radial.cp_ball against the domain's cp
IMPORT_PROBES = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150.0
CLI_JOBS = 2
WARM_RUNS = 3
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# ------------------------------------------------------------ children

def child_env(root, cache=None):
    env = {k: v for k, v in os.environ.items() if k != "SOBOLEV_LAB_CACHE"}
    env.update(PINNED, PYTHONPATH=os.path.join(root, "src"))
    if cache is not None:
        env["SOBOLEV_LAB_CACHE"] = cache
    return env


def _kill_session(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def cpu_for(k):
    """The CPU the k-th single-process child is pinned to, in turn over this
    process's CPUs.

    On a shared host each virtual CPU slows down on its own, for seconds
    to minutes, while its physical core is busy with other work.  Taking
    consecutive samples on different CPUs keeps one slow CPU from
    setting a whole run's figures.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[k % len(cpus)] if len(cpus) > 1 else None


def run_child(argv, env, log_path, cpu=None):
    """Run argv to exit in its own session; return (exit code, wall seconds).

    The wait blocks in waitpid, so the wall time has no polling slack.  A
    timer kills the session (the child and any pool workers) after
    CHILD_TIMEOUT_S, and whatever of it outlives the child is killed too.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_session, (proc,))
        timer.start()
        try:
            rc = proc.wait()
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            _kill_session(proc)
            proc.wait()
    return rc, wall


def import_seconds(env, root, k, module="sobolev_lab"):
    """Wall seconds of `import module` in a fresh interpreter on the k-th CPU."""
    cpu = cpu_for(k)
    pin = f"import os; os.sched_setaffinity(0, {{{cpu}}}); " if cpu is not None else ""
    code = (f"{pin}import time; t = time.perf_counter(); import {module}; "
            "print(repr(time.perf_counter() - t))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.split()[-1])


# --------------------------------------------------------------- passes

def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def api_pass(ctx, pass_dir, traced):
    spans = os.path.join(pass_dir, "spans.jsonl") if traced else None
    config = os.path.join(pass_dir, "config.json")
    result = os.path.join(pass_dir, "result.json")
    _write_json(config, {"cases": ctx["cases"], "spans": spans,
                         "cp_ball": ctx["workload"] == "constants-many-q",
                         "warm_start": ctx.get("warm_next", 0),
                         "warm_min": -(-len(ctx["cases"]) // MIN_PASSES)})
    rc, _ = run_child([sys.executable, os.path.join(BENCH, "passrun.py"), config, result],
                      child_env(ctx["root"]), os.path.join(pass_dir, "log.txt"),
                      cpu=cpu_for(ctx["passes"]))
    if rc != 0 or not os.path.exists(result):
        return {"wall_s": None, "peak_rss_mb": None,
                "cases": [{"name": c["name"], "error": f"pass child exited {rc}"}
                          for c in ctx["cases"]]}
    out = _read_json(result)
    os.remove(result)
    ctx["warm_next"] = out["warm_next"]
    record = {"wall_s": out["wall_s"], "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
              "import_s": [out["import_s"]], "cases": out["cases"]}
    if traced:
        # the API workloads never run the CLI: its counters read zero
        record["layers"] = {**layer_metrics(read_spans([spans]), out["wall_s"]),
                            **{name: 0 for name in PER_LAYER if name.startswith("cli.")}}
    return record


def _cache_snapshot(cache):
    if not os.path.isdir(cache):
        return {}
    snap = {}
    for name in sorted(os.listdir(cache)):
        st = os.stat(os.path.join(cache, name))
        snap[name] = (st.st_size, st.st_mtime_ns)
    return snap


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _parse_sweep(text):
    lines = text.splitlines()
    if len(lines) < 2:
        return []
    columns = lines[1].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[2:] if line]


def _tree_rss_mb(stats_dir):
    """Peak RSS of one CLI run's process tree.

    The main process's peak plus, for each pool worker, its peak less its
    RSS at the fork (see clirun.py), so that the pages a worker shares
    with the main process are counted once.
    """
    total = 0
    for name in os.listdir(stats_dir):
        if name.startswith("rss-"):
            peak, base = map(int, _read_text(os.path.join(stats_dir, name)).split())
            total += peak - base
    return total / 1024.0


def _verdicts(stats_dir):
    """report.passed() of every verification a CLI run made, by shape."""
    verdicts = {}
    for name in sorted(os.listdir(stats_dir)):
        if name.startswith("verdict-"):
            for line in _read_text(os.path.join(stats_dir, name)).splitlines():
                v = json.loads(line)
                verdicts.setdefault(_shape_key(v["label"]), []).append(v["passed"])
    return verdicts


def _import_sample(stats_dir):
    text = _read_text(os.path.join(stats_dir, "import.txt"))
    return [float(text)] if text else []


def _shape_key(text):
    # the CLI labels a domain by its shape without "-" plus its parameters
    return text.replace("-", "").split("_")[0]


def cli_pass(ctx, pass_dir, traced):
    """Cold `table` run on an empty cache, then WARM_RUNS identical warm runs."""
    cases = ctx["cases"]
    cache = os.path.join(pass_dir, "cache")
    args = ["table"]
    for case in cases:
        args += ["--spec", json.dumps(case["spec"], sort_keys=True)]
    args += ["-p", repr(cases[0]["p"])]
    for q in cases[0]["qs"]:
        args += ["-q", repr(q)]
    args += ["--h", repr(cases[0]["h"]), "--jobs", str(ctx["jobs"])]
    env = child_env(ctx["root"], cache=cache)
    log = os.path.join(pass_dir, "log.txt")

    def table(tag, trace):
        stats, out = os.path.join(pass_dir, f"{tag}-stats"), os.path.join(pass_dir, tag)
        os.makedirs(stats)
        rc, wall = run_child([sys.executable, os.path.join(BENCH, "clirun.py"), stats,
                              str(int(trace))] + args + ["--out", out], env, log)
        return rc, wall, stats, _read_text(os.path.join(out, "sweep.csv"))

    rc, wall, cold_stats, text = table("cold", traced)
    after_cold = _cache_snapshot(cache)
    problems = [] if rc == 0 else [f"cold table exited {rc}"]
    cached_walls, imports = [], _import_sample(cold_stats)
    for i in range(WARM_RUNS):
        rc_warm, cached_wall, warm_stats, warm_text = table(f"warm{i}", False)
        cached_walls.append(cached_wall)
        imports += _import_sample(warm_stats)
        if rc_warm != 0:
            problems.append(f"warm table exited {rc_warm}")
        elif warm_text != text:
            problems.append("a warm sweep.csv differs from the cold one")
    rewritten = sum(1 for k, v in _cache_snapshot(cache).items() if after_cold.get(k) != v)
    if len(after_cold) != len(cases) or rewritten:
        problems.append(f"cache wrote {len(after_cold)} entries cold and rewrote "
                        f"{rewritten} warm for {len(cases)} groups")

    rows = _parse_sweep(text)
    verdicts = _verdicts(cold_stats)
    record = {"wall_s": wall, "cached_walls": cached_walls, "import_s": imports,
              "peak_rss_mb": _tree_rss_mb(cold_stats), "cases": []}
    for case in cases:
        key = _shape_key(case["spec"]["shape"])
        mine = [r for r in rows if _shape_key(r["domain"]) == key]
        out = {"name": case["name"], "passed": True}
        errors = [r["error"] for r in mine if r["error"]]
        if problems or errors or len(mine) != len(case["qs"]):
            out["error"] = "; ".join(problems + errors) or f"{len(mine)} rows"
        elif len(verdicts.get(key, [])) != 1:
            out["error"] = f"{len(verdicts.get(key, []))} verifications recorded, not 1"
        else:
            out["cp"] = mine[0]["cp"]
            out["passed"] = verdicts[key][0]
        record["cases"].append(out)
    if traced:
        spans = read_spans(os.path.join(cold_stats, f) for f in sorted(os.listdir(cold_stats))
                           if f.endswith(".jsonl"))
        record["layers"] = {
            **layer_metrics(spans, wall),
            "cli.groups": len({(r["domain"], r["p"]) for r in rows}),
            "cli.rows": len(rows),
            "cli.cache_entries_written": len(after_cold),
            "cli.cache_entries_read": len(after_cold) - rewritten,  # per warm run
            "cli.cache_bytes": sum(size for size, _ in after_cold.values()),
            "cli.sweep_bytes": len(text.encode())}
        sweeps = {_shape_key(s["case"]): s["attrs"].get("sweeps") for s in spans
                  if s["name"] == "elliptic.minimize_quotient"}
        for case, out in zip(cases, record["cases"]):
            out["sweeps"] = sweeps.get(_shape_key(case["spec"]["shape"]))
    for name in os.listdir(pass_dir):
        if name == "cache" or name == "cold" or name.startswith("warm"):
            shutil.rmtree(os.path.join(pass_dir, name), ignore_errors=True)
    return record


# ------------------------------------------------------------- judging

def oracle_misses(case, cp, discrete):
    misses = []
    if "continuum" in case:
        err = abs(cp / case["continuum"] - 1.0)
        if err > CONTINUUM_TOL_PER_H * case["h"]:
            misses.append(f"cp {cp!r} is {err:.2e} from the continuum value "
                          f"{case['continuum']!r} (tol {CONTINUUM_TOL_PER_H:g}h)")
    if "discrete" in case:
        err = abs(cp / discrete - 1.0)
        if err > DISCRETE_TOL:
            misses.append(f"cp {cp!r} is {err:.2e} from the exact discrete value "
                          f"{discrete!r} (tol {DISCRETE_TOL:g})")
    return misses


def judge(ctx, record, first_cp):
    """Mark each case of a pass ok or failed; returns the failed names."""
    failed = []
    for case, out in zip(ctx["cases"], record["cases"]):
        why = [out["error"]] if "error" in out else []
        if not why:
            cp = float(out["cp"])
            if not out["passed"]:
                why.append("verification did not pass")
            if out.get("rerun_identical") is False:
                why.append("warm rerun wrote a different report")
            why += oracle_misses(case, cp, ctx["discrete"].get(case["name"], case.get("discrete")))
            if "cp_ball" in out and abs(float(out["cp_ball"]) / cp - 1.0) > CP_BALL_TOL:
                why.append(f"C_p(B*) = {out['cp_ball']} does not reproduce cp {out['cp']}")
            if first_cp.setdefault(case["name"], out["cp"]) != out["cp"]:
                why.append(f"cp {out['cp']} differs from the first pass "
                           f"{first_cp[case['name']]}")
        out["failures"] = why
        if why:
            failed.append(case["name"])
    return failed


def accuracy(ctx, first_cp):
    """cp_rel_err over the disk continuum anchors and cp_solver_err on the discrete one."""
    rel, solver = [], []
    for case in ctx["cases"]:
        if case["name"] not in first_cp:
            continue
        cp = float(first_cp[case["name"]])
        if "continuum" in case and case["spec"]["shape"] == "disk":
            rel.append(abs(cp / case["continuum"] - 1.0))
        if "discrete" in case:
            ref = ctx["discrete"].get(case["name"], case["discrete"])
            # an error below one unit in the last place cannot be resolved
            solver.append(max(abs(cp / ref - 1.0), sys.float_info.epsilon))
    return (max(rel) if rel else None), (max(solver) if solver else None)


def summary(samples):
    """Sample count, median and quartiles."""
    samples = [v for v in samples if v is not None]
    if not samples:
        return {"n": 0, "median": None, "q1": None, "q3": None}
    q1, q3 = samples[0], samples[0]
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "median": statistics.median(samples), "q1": q1, "q3": q3}


def per_case_summary(ctx, passes, key):
    """Sum over cases of each case's median time (and quartiles) over the passes.

    A case's samples are seconds apart and alternate between CPUs, so a
    burst of load from elsewhere on the machine that slows some of them
    moves the median little; the sum estimates the time of one pass.
    """
    total = {"n": None, "median": 0.0, "q1": 0.0, "q3": 0.0}
    for case in ctx["cases"]:
        times = [t for p in passes for c in p["cases"] if c["name"] == case["name"]
                 for t in (c[key] if isinstance(c.get(key), list) else [c.get(key)])
                 if t is not None]
        if not times:
            return {"n": 0, "median": None, "q1": None, "q3": None}
        one = summary(times)
        total["n"] = one["n"] if total["n"] is None else min(total["n"], one["n"])
        for stat in ("median", "q1", "q3"):
            total[stat] += one[stat]
    return total


def timings(ctx, passes):
    """Summaries of wall_s and cached_wall_s."""
    if ctx["workload"] == "cli-sweep":
        return {"wall_s": summary([p["wall_s"] for p in passes]),
                "cached_wall_s": summary([t for p in passes for t in p["cached_walls"]])}
    return {"wall_s": per_case_summary(ctx, passes, "seconds"),
            "cached_wall_s": per_case_summary(ctx, passes, "warm_seconds")}


# ------------------------------------------------------------------ run

def run_workload(root, workload, seed, seconds, trace, smoke):
    cases = make_cases(workload, seed, SMOKE_H if smoke else None)
    run_dir = os.path.join(root, ".perfbench", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    jobs = min(CLI_JOBS, os.cpu_count() or 1)
    ctx = {"root": root, "workload": workload, "cases": cases, "jobs": jobs}

    env = child_env(root)
    # a fresh checkout compiles its bytecode here, CLI included; not counted
    import_seconds(env, root, 0, "sobolev_lab.cli")
    setup = [import_seconds(env, root, k) for k in range(IMPORT_PROBES)]
    _write_json(os.path.join(run_dir, "cases.json"), cases)
    prep_out = os.path.join(run_dir, "prepare.json")
    rc, _ = run_child([sys.executable, os.path.join(BENCH, "prepare.py"),
                       os.path.join(run_dir, "cases.json"), prep_out],
                      env, os.path.join(run_dir, "prepare.log"))
    if rc != 0:
        raise RuntimeError(f"set-up child exited {rc}; see {run_dir}/prepare.log")
    prep = _read_json(prep_out)
    ctx["discrete"] = prep["discrete"]

    run_pass = cli_pass if workload == "cli-sweep" else api_pass
    passes, first_cp = [], {}
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = bool(trace) and len(passes) % 2 == 1
        pass_dir = os.path.join(run_dir, f"pass{len(passes)}")
        os.makedirs(pass_dir)
        ctx["passes"] = len(passes)
        record = run_pass(ctx, pass_dir, traced)
        record["traced"] = traced
        record["failed"] = judge(ctx, record, first_cp)
        passes.append(record)
        # more set-up samples, spread over the run's changing machine load:
        # the import each pass child timed, and one more fresh interpreter
        setup += record.get("import_s", [])
        setup.append(import_seconds(env, root, IMPORT_PROBES + len(passes)))

    plain = [p for p in passes if not p["traced"]]
    if trace:
        units = PER_LAYER
        traced = [p for p in passes if p["traced"]]
        stats = {name: summary([p["layers"][name] for p in traced if "layers" in p])
                 for name in PER_LAYER if name != "trace.overhead_s"}
        walls = [timings(ctx, group)["wall_s"]["median"] for group in (traced, plain)]
        stats["trace.overhead_s"] = summary(
            [walls[0] - walls[1] if None not in walls else None])
    else:
        units = END_TO_END
        rel_err, solver_err = accuracy(ctx, first_cp)
        stats = {**timings(ctx, plain), "setup_s": summary(setup),
                 "peak_rss_mb": summary([p["peak_rss_mb"] for p in plain]),
                 "cp_rel_err": summary([rel_err]), "cp_solver_err": summary([solver_err])}
    attempted = len(passes) * len(cases)
    failed = sum(len(p["failed"]) for p in passes)

    first = passes[0]
    case_rows = []
    for case in cases:
        out = next(c for c in first["cases"] if c["name"] == case["name"])
        case_rows.append({"name": case["name"], "spec": case["spec"], "p": case["p"],
                          "qs": case["qs"], "h": case["h"],
                          "nodes": prep["nodes"][case["name"]],
                          "sweeps": out.get("sweeps"), "cp": out.get("cp")})
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "machine": prep["machine"], "jobs": jobs,
              "threads": PINNED, "passes_run": len(passes),
              "cases": case_rows, "passes": passes, "metrics": stats,
              "attempted": attempted, "failed": failed}
    _write_json(os.path.join(run_dir, "result.json"), result)
    return result, units


def print_report(result, units):
    w = result["workload"]
    m = result["machine"]
    print(f"# {w} seed={result['seed']} trace={result['trace']} passes={result['passes_run']} "
          f"jobs={result['jobs']} threads={','.join(f'{k}={v}' for k, v in result['threads'].items())}")
    print(f"# machine: {m['nproc']} cpus, {m['cpu']}, L2 {m.get('L2')}, L3 {m.get('L3')}, "
          f"{m['ram_mb']} MB RAM; python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, {m['blas']}")
    for c in result["cases"]:
        print(f"case {w}/{c['name']}: {json.dumps(c['spec'], sort_keys=True)} p={c['p']:g} "
              f"h=1/{round(1 / c['h'])} N={c['nodes']} sweeps={c['sweeps']} cp={c['cp']}")
    for p in result["passes"]:
        for c in p["cases"]:
            for why in c["failures"]:
                print(f"FAIL {w}/{c['name']}: {why}")
    for name, unit in units.items():
        s = result["metrics"][name]
        print(f"metric {w} {name} [{unit}] value={s['median']!r} n={s['n']} "
              f"q1={s['q1']!r} q3={s['q3']!r}")
    print(f"metric {w} fail_ratio [ratio] {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']!r}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"grid spacing {SMOKE_H:g} everywhere: a quick check of the harness")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sobolev_lab", "__init__.py")):
        print("error: run from the root of a sobolev-lab checkout "
              "(src/sobolev_lab not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        result, units = run_workload(root, name, args.seed, args.seconds, args.trace, args.smoke)
        print_report(result, units)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": result["metrics"][metric]["median"],
                                        "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
