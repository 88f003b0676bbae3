"""Fast check of the benchmark harness itself.

    python3 perfbench/smoke.py

From the root of a checkout, runs every workload once untraced and once
traced with --smoke (every grid at h = 1/32, two passes) and asserts that
each run is correct and that its last line names exactly the metrics
BENCHMARK.json lists for that mode, each with its unit.  It then copies
BENCHMARK.json and perfbench/ alone into a scratch directory and asserts
that the benchmark refuses to run there: non-zero exit, no result line.
Takes about a minute and a half.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    command = spec["command"]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable if command[0] == "python3" else command[0], *command[1:],
                    "--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
            result = last_json(proc.stdout)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0 or result is None or not result["correct"]:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                                f"{proc.stderr[-2000:]}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics {sorted(got.items())} != "
                                f"{sorted(expected[trace].items())}")
            bad = [name for name, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))]
            if bad or result["attempted"] < 1 or result["failed"] != 0:
                problems.append(f"{tag}: non-numeric {bad} or counts {result}")
            print(f"ok {tag}: {len(got)} metrics, {result['attempted']} cases", flush=True)

    scratch = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(root, ".perfbench"))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), scratch)
        shutil.copytree(BENCH, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, *command[1:], "--workload",
                               spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=scratch, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print(f"ok bare directory: exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
