"""Command-line front end: compute, verify, sweep, and export.

Subcommands
    ball       C_p of the unit ball plus profile and constant tables
    domain     extremal of a planar domain on a masked grid
    verify     full reverse Holder verification report
    table      sweep over domains x p x q with per-row caching
    rearrange  decreasing rearrangement of a stored field file

Exit codes: 0 success, 2 usage or input error (core.InputError: a
malformed spec or field file, inadmissible exponents, an unresolvable
grid, an out-of-range option; or malformed JSON, a missing file), 3
solver failure, 4 verification failure; any other error is a fault of
the program and propagates with its traceback.  All commands are
deterministic for fixed flags; outputs embed the run configuration and a
format version.

Only numpy-free modules load with this one: `core` for specs and errors,
`csvtext` for the CSV layout.  The solver modules are registered lazily
(importlib's LazyLoader) and run on their first attribute access, and
`concurrent.futures` is imported only to start a pool, so a `table` whose
every group is cached reads JSON and writes CSV without loading numpy or
the pool machinery.
"""

from __future__ import annotations

import argparse
import binascii
import importlib.util
import json
import math
import os
import sys

from .core import DomainSpec, InputError, SolverError, VerificationError, check_exponents
from .csvtext import FORMAT_VERSION, canonical_json, csv_text, write_csv

CACHE_ENV = "SOBOLEV_LAB_CACHE"


def _lazy(name: str):
    """sobolev_lab.<name>, registered in sys.modules so that its code runs
    on the first attribute access; the loaded module when there is one."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


chiti, elliptic, formats, radial, rearrange = map(
    _lazy, ("chiti", "elliptic", "formats", "radial", "rearrange"))


def verify_reverse_holder(res, qs):
    """chiti.verify_reverse_holder.  `verify` and every `table` group call
    it through this module-level name, so one replacement here, made
    before a pool forks, sees every verification of a command."""
    return chiti.verify_reverse_holder(res, qs)


def _fmt(x: float) -> str:
    """Short form of x for names: :g where it reads back as x, repr otherwise."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _spec_from_arg(text: str) -> DomainSpec:
    """Accept either a path to a spec JSON file or an inline JSON object."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return DomainSpec.from_json(stripped)
    with open(text, encoding="utf-8") as fh:
        return DomainSpec.from_json(fh.read())


def _spec_slug(spec: DomainSpec) -> str:
    parts = [spec.shape.replace("-", "")]
    for key in sorted(spec.params):
        val = spec.params[key]
        if isinstance(val, list):  # vertex count plus a digest, so polygons differ
            import hashlib  # only here: it loads OpenSSL's libcrypto
            digest = hashlib.sha256(json.dumps(val).encode()).hexdigest()[:8]
            parts.append(f"{key}{len(val)}-{digest}")
        else:
            parts.append(f"{key}{_fmt(val)}")
    if spec.scale != 1.0:
        parts.append(f"scale{_fmt(spec.scale)}")
    return "_".join(parts)


def _h_slug(h: float) -> str:
    """h{k} when h is exactly 1.0 / k for an integer k <= 2**53, the last
    integer a float holds exactly; else h{h!r} for a whole h of 2 or more
    (h3.0, since h3 is 1/3), and h{_fmt(h)} otherwise (h6.25e-102)."""
    k = round(1.0 / h)
    if 0 < k <= 2**53 and 1.0 / k == h:
        return f"h{k}"
    return f"h{float(h)!r}" if float(h).is_integer() else f"h{_fmt(h)}"


def _run_config(args: argparse.Namespace, command: str) -> dict:
    cfg = {"command": command, "format_version": FORMAT_VERSION}
    for key, val in sorted(vars(args).items()):
        if key in ("func", "out") or val is None:
            continue
        cfg[key] = val
    return cfg


# ---------------------------------------------------------------- ball

def cmd_ball(args: argparse.Namespace) -> int:
    # before any output; with -q it is khat's gate, which the flag does not lift
    check_exponents(args.n, args.p, args.q or None,
                    allow_supercritical=args.experimental_supercritical)
    prof = radial.unit_ball_profile(args.n, args.p, tol=args.tol,
                                    allow_supercritical=args.experimental_supercritical)
    # before any file: a q too large for the ball's L^q norm is an input error
    khats = [(q, chiti.khat(args.n, args.p, q, tol=args.tol)) for q in sorted(set(args.q or ()))]
    print(f"C_p(B) = {prof.cp_ball!r}   (n={args.n}, p={_fmt(args.p)})")
    print(f"Lambda  = {prof.cp_ball!r}")
    print(f"phi(0)  = {float(prof.phi(0.0))!r}")
    os.makedirs(args.out, exist_ok=True)
    cfg = _run_config(args, "ball")
    ppath = os.path.join(args.out, f"ball_n{args.n}_p{_fmt(args.p)}.profile.csv")
    formats.write_radial_profile(ppath, prof, config=cfg)
    print(f"profile -> {ppath}")
    if args.q:
        kpath = os.path.join(args.out, f"khat_n{args.n}_p{_fmt(args.p)}.csv")
        write_csv(kpath, "khat", {}, cfg, ("q", "khat"), khats)
        print(f"khat    -> {kpath}")
    return 0


# -------------------------------------------------------------- domain

def _solve_domain(spec: DomainSpec, p: float, h: float, tol: float,
                  max_iter: int, supercritical: bool):
    grid = elliptic.build_grid(spec, h)
    return elliptic.minimize_quotient(grid, p, tol=tol, max_iter=max_iter,
                                      allow_supercritical=supercritical)


def cmd_domain(args: argparse.Namespace) -> int:
    spec = _spec_from_arg(args.spec)
    res = _solve_domain(spec, args.p, args.h, args.tol, args.max_iter,
                        args.experimental_supercritical)
    print(f"C_p(Omega) = {res.cp!r}   ({spec.describe()}, p={_fmt(args.p)}, "
          f"h={args.h:g})")
    print(f"iterations = {res.iterations}   residual = {res.residual:.3e}")
    os.makedirs(args.out, exist_ok=True)
    fpath = os.path.join(
        args.out, f"{_spec_slug(spec)}_p{_fmt(args.p)}_{_h_slug(args.h)}.field.csv")
    formats.write_field(fpath, res.field, p=args.p, cp=res.cp,
                        config=_run_config(args, "domain"))
    print(f"field -> {fpath}")
    return 0


# -------------------------------------------------------------- verify

def _verify(spec: DomainSpec, p: float, qs, h: float, tol: float, max_iter: int):
    """Solve and verify; the report, and its failed gates as `verify`
    prints them ("" if it passed).  Callers run the exponent gate first."""
    res = _solve_domain(spec, p, h, tol, max_iter, False)
    report = verify_reverse_holder(res, qs)
    failed = report.failed_gates()
    return report, f"verification failed: {', '.join(failed)} out of tolerance" if failed else ""


def cmd_verify(args: argparse.Namespace) -> int:
    check_exponents(2, args.p, args.q)  # before the spec: a bad spec does not hide it
    spec = _spec_from_arg(args.spec)
    report, error = _verify(spec, args.p, args.q, args.h, args.tol, args.max_iter)
    cfg = _run_config(args, "verify")
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out,
                        f"report_{_spec_slug(spec)}_p{_fmt(args.p)}_{_h_slug(args.h)}")
    text = {"json": formats.report_to_json(report, config=cfg),
            "table": formats.report_to_table(report)}
    for ext, fmt in ((".json", "json"), (".txt", "table")):
        with open(stem + ext, "w", encoding="utf-8") as fh:
            fh.write(text[fmt] + "\n")
    print(text[args.format])
    print(f"report -> {stem}.json, {stem}.txt")
    if error:
        print(error, file=sys.stderr)
        return 4
    return 0


# --------------------------------------------------------------- table

def _cache_task(task: dict) -> dict:
    """The task as its cache entry is named by and stores it: with the format
    version and a salt."""
    # the salt changes whenever a task's rows change text (failed gates named
    # in `error`, then the p > 2 gate's wording, then the digits of p = 1's
    # certified stop, then the verdicts of balls past |Omega|, then cp's last
    # bits from the solve in lattice units), so no older entry replays
    return {**task, "version": FORMAT_VERSION, "salt": 5}


def _cache_path(task: dict) -> str | None:
    """The task's cache entry, named by a CRC-32 of its _cache_task's
    canonical JSON: 32 bits suffice, since a read replays only an entry that
    stores the same task."""
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    name = binascii.crc32(canonical_json(_cache_task(task)).encode())
    return os.path.join(root, f"{name:08x}.json")


def _cached_rows(cpath: str, task: dict) -> list[dict] | None:
    """The task's rows from its cache entry; None, a miss, when the entry is
    absent or truncated, stores another task (a stale entry or a name
    collision), or is not one row per q keyed as the task's."""
    try:
        with open(cpath, encoding="utf-8") as fh:
            entry = json.load(fh)
    except (FileNotFoundError, ValueError):
        return None
    if not (isinstance(entry, dict)
            and canonical_json(entry.get("task")) == canonical_json(_cache_task(task))):
        return None
    rows = entry.get("rows")
    keys = [{"domain": task["label"], "p": task["p"], "h": task["h"], "q": q}
            for q in task["qs"]]
    if isinstance(rows, list) and len(rows) == len(keys) and all(
            isinstance(row, dict) and {k: row.get(k) for k in key} == key
            for row, key in zip(rows, keys)):
        return rows
    return None


def _table_group(task: dict) -> list[dict]:
    """Solve one (domain, p) pair and emit a row per q, every q >= p;
    errors become rows.

    Each row's numbers are formats.report_to_dict's, as `verify` writes
    them; a report that fails a gate keeps them, with the gates that
    failed in each row's `error`."""
    base = {"domain": task["label"], "p": task["p"], "h": task["h"]}
    try:
        check_exponents(2, task["p"], task["qs"])  # khat's gate, as `verify` meets it
        report, error = _verify(DomainSpec.from_json(task["spec"]), task["p"], task["qs"],
                                task["h"], task["tol"], task["max_iter"])
    except (InputError, SolverError, VerificationError) as exc:
        # per-row failure contract: record, continue
        return [{**base, "q": q, "error": f"{type(exc).__name__}: {exc}"} for q in task["qs"]]
    flat = formats.report_to_dict(report)
    return [{**base, **row, "cp": flat["cp"], "rho": flat["rho"], "error": error}
            for row in flat["rows"]]


def _place_worker(cpus, allowed: set) -> None:
    """Pool initializer: move to the next CPU of the queue, then allow the
    parent's CPUs again, so the kernel can still move the worker."""
    os.sched_setaffinity(0, {cpus.get()})
    os.sched_setaffinity(0, allowed)


TABLE_COLUMNS = ["domain", "p", "q", "h", "cp", "rho", "khat", "K",
                 "lhs", "rhs", "margin", "error"]


def cmd_table(args: argparse.Namespace) -> int:
    # one per distinct domain, in --spec order: equal specs share one JSON form
    specs = list({canonical_json(s.to_json()): s for s in map(_spec_from_arg, args.spec)}.values())
    ps = sorted(set(args.p))
    qs = sorted(set(args.q))
    n_rows = len(specs) * len(ps) * len(qs)
    if n_rows > args.max_rows:
        raise InputError(f"sweep of {n_rows} rows exceeds --max-rows {args.max_rows}")
    # a q below p needs no solve: its row is written here, and a (domain, p)
    # pair with no q >= p makes no task, so no solve, cache entry or worker
    flat, tasks = [], []
    for spec in specs:
        label = _spec_slug(spec)
        for p in ps:
            flat += [{"domain": label, "p": p, "h": args.h, "q": q,
                      "error": f"q = {q:g} below p = {p:g}"} for q in qs if q < p]
            solved = [q for q in qs if q >= p]
            if solved:
                tasks.append({"spec": spec.to_json(), "label": label, "p": p, "qs": solved,
                              "h": args.h, "tol": args.tol, "max_iter": args.max_iter})

    pending: list[tuple[dict, str | None]] = []
    for task in tasks:
        cpath = _cache_path(task)
        cached = _cached_rows(cpath, task) if cpath else None
        if cached is None:
            pending.append((task, cpath))
        else:
            flat += cached

    if pending:
        # a forked pool starts all its workers at once, so start no idle one
        jobs = min(args.jobs, len(pending))
        if jobs > 1:
            # load the solver here, once, before the pool forks: the workers
            # then share its pages rather than each importing numpy
            vars(chiti)  # any attribute access runs a lazy module's code
            import concurrent.futures  # only a pool needs it; it loads logging
            placement = {}
            if hasattr(os, "sched_setaffinity"):
                # a forked worker starts on its parent's CPU, where the kernel
                # may leave it: give each worker its own first CPU
                import multiprocessing
                allowed = sorted(os.sched_getaffinity(0))
                cpus = multiprocessing.SimpleQueue()
                for i in range(jobs):
                    cpus.put(allowed[i % len(allowed)])
                placement = {"initializer": _place_worker, "initargs": (cpus, set(allowed))}
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs, **placement) as pool:
                fresh = list(pool.map(_table_group, [t for t, _ in pending]))
        else:
            fresh = [_table_group(t) for t, _ in pending]
        for (task, cpath), rows in zip(pending, fresh):
            flat += rows
            if cpath:  # write then rename, so a killed run leaves no partial entry
                tmp = f"{cpath}.{os.getpid()}.tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump({"rows": rows, "task": _cache_task(task)}, fh, sort_keys=True)
                os.replace(tmp, cpath)

    flat.sort(key=lambda r: (r["domain"], r["p"], r["q"]))
    cfg = _run_config(args, "table")
    rows = [[r.get(col, "") for col in TABLE_COLUMNS] for r in flat]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        tpath = os.path.join(args.out, "sweep.csv")
        write_csv(tpath, "sweep", {}, cfg, TABLE_COLUMNS, rows)
        print(f"sweep -> {tpath}")
    else:
        sys.stdout.write(csv_text("sweep", {}, cfg, TABLE_COLUMNS, rows))
    failures = sum(1 for r in flat if r.get("error"))
    if failures:
        print(f"warning: {failures} of {len(flat)} rows failed", file=sys.stderr)
    return 0


# ----------------------------------------------------------- rearrange

def cmd_rearrange(args: argparse.Namespace) -> int:
    header, fld = formats.read_field(args.field)
    u_star = rearrange.decreasing_rearrangement(fld)
    meta = {"n": 2, "p": header.get("p"), "cp": header.get("cp"),
            "source": os.path.basename(args.field)}
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.field))[0]
    if stem.endswith(".field"):
        stem = stem[: -len(".field")]
    opath = os.path.join(args.out, stem + ".ustar.csv")
    formats.write_volume_profile(opath, u_star, meta=meta,
                                 config=_run_config(args, "rearrange"))
    print(f"u* -> {opath}  (cells={u_star.values.size}, "
          f"|Omega|={u_star.total_volume!r})")
    return 0


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sobolev-lab",
        description="Extremal Sobolev functions, sharp constants, and "
                    "reverse Holder verification on balls and planar domains.")
    sub = ap.add_subparsers(dest="command", required=True)

    def finite(text):  # the type of every float option; argparse names it in its error
        val = float(text)
        if not math.isfinite(val):
            raise ValueError(text)
        return val

    def positive(text):  # the type of --jobs
        val = int(text)
        if val < 1:
            raise ValueError(text)
        return val

    def common(sp, tol, with_grid=True):
        sp.add_argument("--out", default=".", help="output directory")
        if tol is not None:
            sp.add_argument("--tol", type=finite, default=tol,
                            help="solver tolerance (default %(default)g)")
        if with_grid:
            sp.add_argument("--h", type=finite, default=1.0 / 128,
                            help="grid spacing (default 1/128)")
            sp.add_argument("--max-iter", type=int, default=300)

    b = sub.add_parser("ball", help="unit-ball constant and extremal profile")
    b.add_argument("-n", type=int, required=True, help="dimension")
    b.add_argument("-p", type=finite, required=True)
    b.add_argument("-q", type=finite, action="append", default=[],
                   help="also tabulate khat(n,p,q); repeatable")
    b.add_argument("--experimental-supercritical", action="store_true")
    common(b, 1e-12, with_grid=False)
    b.set_defaults(func=cmd_ball)

    d = sub.add_parser("domain", help="extremal on a planar domain")
    d.add_argument("--spec", required=True,
                   help="domain spec: JSON file path or inline JSON")
    d.add_argument("-p", type=finite, required=True)
    d.add_argument("--experimental-supercritical", action="store_true")
    common(d, 1e-8)
    d.set_defaults(func=cmd_domain)

    v = sub.add_parser("verify", help="reverse Holder verification report")
    v.add_argument("--spec", required=True)
    v.add_argument("-p", type=finite, required=True)
    v.add_argument("-q", type=finite, action="append", default=[],
                   help="target exponent, q >= p; repeatable")
    v.add_argument("--format", choices=("table", "json"), default="table")
    common(v, 1e-8)
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("table", help="sweep domains x p x q to CSV")
    t.add_argument("--spec", action="append", required=True,
                   help="domain spec (repeatable)")
    t.add_argument("-p", type=finite, action="append", required=True)
    t.add_argument("-q", type=finite, action="append", required=True)
    t.add_argument("--jobs", type=positive, default=1)
    t.add_argument("--max-rows", type=int, default=1000)
    common(t, 1e-8)
    t.set_defaults(func=cmd_table, out=None)

    r = sub.add_parser("rearrange", help="decreasing rearrangement of a field file")
    r.add_argument("--field", required=True, help="field file to rearrange")
    common(r, None, with_grid=False)
    r.set_defaults(func=cmd_rearrange)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # any other ValueError propagates
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        if exc.trajectory:
            tail = ", ".join(f"{c:.8g}" for c in exc.trajectory[-5:])
            print(f"cp trajectory tail: {tail}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        stage = getattr(exc, "stage", None)
        tag = f" [stage: {stage}]" if stage else ""
        print(f"verification error{tag}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
