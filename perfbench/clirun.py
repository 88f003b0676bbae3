"""Run the sobolev-lab CLI as its console script does, reporting what it did.

    python3 perfbench/clirun.py STATS_DIR TRACE table --spec ... --jobs 2 ...

Calls ``sobolev_lab.cli.main`` with the arguments after TRACE and exits
with its return value, as the ``sobolev-lab`` entry point does.  It
writes to STATS_DIR:

* import.txt: the wall seconds of ``import sobolev_lab``, the first
  thing this fresh interpreter does (a set-up sample);
* rss-<pid>.txt: "<peak> <base>", in KiB.  For the main process the
  peak RSS (ru_maxrss) when main returns, and base 0.  For each pool
  worker, after every (domain, p) group it solves, its peak RSS and its
  ru_maxrss when it entered its first group.  A forked worker's
  ru_maxrss starts at its RSS at the fork, which is mostly pages shared
  with the main process, so peak - base is what the worker added.
  Workers leave without running exit handlers, hence the write per
  group;
* verdict-<pid>.txt: one JSON line per verification the CLI ran, with the
  group's label and ``report.passed()``.  The CSV has no column for the
  crossing count, so this is how the driver sees the whole verdict.

With TRACE = 1 the tracer is installed first.  Forked workers inherit
the traced bindings; a worker writes the spans of each group to
STATS_DIR/<pid>.jsonl when the group ends, the main process its own
spans when main returns.
"""

import contextlib
import functools
import json
import os
import resource
import sys
import time


def _peak_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(stats_dir, trace, argv):
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    with tracer.span("cli.import") if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        import sobolev_lab  # noqa: F401
        import_s = time.perf_counter() - t0
        import sobolev_lab.cli as cli
    with open(os.path.join(stats_dir, "import.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"{import_s!r}\n")
    if tracer is not None:
        tracer.install()
    group, verify = cli._table_group, cli.verify_reverse_holder
    main_pid = os.getpid()
    state = {"label": None, "base_kb": None}

    def write_rss(base_kb):
        path = os.path.join(stats_dir, f"rss-{os.getpid()}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{_peak_kb()} {base_kb}\n")

    @functools.wraps(verify)
    def judged_verify(*args, **kwargs):
        report = verify(*args, **kwargs)
        path = os.path.join(stats_dir, f"verdict-{os.getpid()}.txt")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"label": state["label"],
                                 "passed": bool(report.passed())}) + "\n")
        return report

    @functools.wraps(group)
    def reporting_group(task):
        worker = os.getpid() != main_pid
        if worker and state["base_kb"] is None:
            state["base_kb"] = _peak_kb()
        state["label"] = task["label"]
        if tracer is None:
            rows = group(task)
        else:
            first = tracer.enter_worker()
            tracer.case = task["label"]
            with tracer.span("cli.group"):
                rows = group(task)
            if worker:
                tracer.dump(os.path.join(stats_dir, f"{os.getpid()}.jsonl"), first)
        if worker:
            write_rss(state["base_kb"])
        return rows

    cli._table_group, cli.verify_reverse_holder = reporting_group, judged_verify
    try:
        if tracer is None:
            return cli.main(argv)
        with tracer.span("cli.main"):
            return cli.main(argv)
    finally:
        write_rss(0)
        if tracer is not None:
            tracer.dump(os.path.join(stats_dir, f"{main_pid}.jsonl"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
