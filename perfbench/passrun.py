"""One pass of an API workload, in a fresh interpreter.

    python3 perfbench/passrun.py CONFIG.json RESULT.json

CONFIG holds the cases (see workloads.make_cases), whether to check
C_p(B*) with radial.cp_ball, and an optional span file; with a span file
the pass is traced.  The pass runs each case through the public API
(build_grid -> minimize_quotient -> verify_reverse_holder ->
formats.report_to_json), timing each case and the whole loop.  It then
reruns the verification of solved cases with the in-process caches warm,
in turn from CONFIG's warm_start, at least warm_min of them and for at
least WARM_SECONDS, timing each rerun and checking that it writes the
same report.  RESULT gets the timings, the
peak RSS of the process and, per case, the node count, sweeps, cp (as
repr), passed() and any error; the driver judges them.
"""

import json
import resource
import sys
import time
import traceback

WARM_SECONDS = 2.0


def run_case(case, api, check_cp_ball):
    elliptic, chiti, formats, radial, DomainSpec = api
    grid = elliptic.build_grid(DomainSpec.from_json(case["spec"]), case["h"])
    res = elliptic.minimize_quotient(grid, case["p"])
    report = chiti.verify_reverse_holder(res, case["qs"])
    text = formats.report_to_json(report)
    out = {"name": case["name"], "nodes": int(grid.mask.sum()),
           "sweeps": res.iterations, "cp": repr(res.cp), "rho": repr(report.rho),
           "passed": bool(report.passed()), "report_bytes": len(text)}
    if check_cp_ball:
        out["cp_ball"] = repr(radial.cp_ball(2, case["p"], report.rho))
    return out, res, text


def main(config_path, result_path):
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    t0 = time.perf_counter()
    import sobolev_lab
    from sobolev_lab import chiti, elliptic, formats, radial
    import_s = time.perf_counter() - t0

    tracer = None
    if config.get("spans"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    api = (elliptic, chiti, formats, radial, sobolev_lab.DomainSpec)

    cases, solved = [], []
    start = time.perf_counter()
    for case in config["cases"]:
        if tracer is not None:
            tracer.case = case["name"]
        t0 = time.perf_counter()
        try:
            out, res, text = run_case(case, api, config.get("cp_ball", False))
            solved.append((out, case, res, text))
        except Exception as exc:  # a failed case is recorded and judged, never dropped
            out = {"name": case["name"],
                   "error": "".join(traceback.format_exception_only(type(exc), exc)).strip()}
        out["seconds"] = time.perf_counter() - t0
        cases.append(out)
    wall_s = time.perf_counter() - start

    if tracer is not None:
        tracer.active = False
        tracer.dump(config["spans"])
    # the warm rerun: same extremals, radial-profile cache and imports warm.
    # Cases are rerun in turn, starting where the previous pass stopped:
    # at least warm_min of them and for at least WARM_SECONDS.
    for out, *_ in solved:
        out["warm_seconds"], out["rerun_identical"] = [], True
    spent, i, k = 0.0, 0, config.get("warm_start", 0)
    while solved and (i < config.get("warm_min", 1) or spent < WARM_SECONDS):
        out, case, res, text = solved[(k + i) % len(solved)]
        t0 = time.perf_counter()
        again = formats.report_to_json(chiti.verify_reverse_holder(res, case["qs"]))
        out["warm_seconds"].append(time.perf_counter() - t0)
        out["rerun_identical"] = out["rerun_identical"] and again == text
        spent += out["warm_seconds"][-1]
        i += 1
    warm_next = (k + i) % len(solved) if solved else 0

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "wall_s": wall_s, "warm_next": warm_next,
                   "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   "cases": cases}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
