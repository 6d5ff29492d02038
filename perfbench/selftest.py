"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, traced and untraced, then feeds the
judges deliberately corrupted reports, kernel results and exit codes and
expects each to be counted as failed.  Finally it runs the benchmark in
a directory without the program and expects it to fail without a
result.  Exits non-zero if any case fails.
"""
import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run
import workloads

failures = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def tiny(workload: str, trace: int) -> dict:
    args = argparse.Namespace(workload=workload, seed=0, seconds=0.0, trace=trace)
    work = run.OUT / f"selftest-{workload}-{trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run.run(args, work, tiny=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def tiny_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = tiny(workload, trace)
            wrong = [r["why"] for r in res["ops"] if r["wrong"]]
            expect(not wrong, f"{workload} trace={trace}: no wrong output {wrong[:1]}")
            names = {m["name"] for m in spec[key]}
            expect(set(res["metrics"]) == names, f"{workload} trace={trace}: reports every {key} metric")
            if trace:
                walls = sum(r["wall_s"] for r in res["passes"][1]["records"])
                gap = res["metrics"]["trace.unaccounted_s"]["value"]
                expect(abs(gap) <= 0.05 * walls, f"{workload}: layer self times account for op wall")
            else:
                expect(all(v > 0 for v in res["metrics"].values()),
                       f"{workload}: end-to-end metrics are positive")


def corrupted_reports() -> None:
    ops = [op for op in workloads.quick_mix(0, tiny=True) if op.command in ("payoff", "sweep")]
    ops += workloads.tournament_100k(0, tiny=True)[:1]
    work = run.OUT / f"selftest-corrupt-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for op in ops:
            (work / f"{op.id}.json").write_text(json.dumps(op.config))
        for rec in run.cli_pass(ops, work, "good", False)["records"]:
            run.judge_cli(rec)
            expect(not rec["failed"], f"{rec['op'].id}: genuine report passes")
            name = rec["op"].command
            if name == "payoff":
                path = rec["out"] / "payoff.json"
                report = json.loads(path.read_text())
                report["payoffs"][0] += 1e-6
                path.write_text(json.dumps(report))
            else:
                path = rec["out"] / f"{name}.csv"
                lines = path.read_text().splitlines(keepends=True)
                if name == "sweep":  # nudge one payoff in the last row
                    cells = lines[-1].rstrip("\n").split(",")
                    cells[1] = repr(float(cells[1]) + 1e-6)
                    lines[-1] = ",".join(cells) + "\n"
                else:  # a tournament report one round short
                    lines = lines[:-1]
                path.write_text("".join(lines))
            run.judge_cli(rec)
            expect(rec["failed"] and rec["wrong"], f"{rec['op'].id}: corrupted report is counted as failed")
        for rc, wrong in ((3, False), (1, True)):
            rec = {"op": ops[0], "rc": rc, "stderr": "error: simulated\n", "out": work / "none"}
            run.judge_cli(rec)
            expect(rec["failed"] and rec["wrong"] == wrong,
                   f"exit {rc} counts as failed ({'wrong' if wrong else 'documented'})")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def corrupted_kernel() -> None:
    sys.path.insert(0, str(run.SRC))
    import qgames as qg

    for op in workloads.library_kernel(0, qg, tiny=True):
        if op.kind not in ("grid", "noisy"):
            continue
        result = op.call(qg)
        rec = {"op": op, "result": result, "error": None}
        run.judge_lib(rec, qg)
        expect(not rec["failed"], f"{op.id}: genuine kernel result passes")
        first = result[0] if isinstance(result, list) else result
        bad = dataclasses.replace(first, payoff_I=first.payoff_I + 1e-6)
        bad = [bad] + result[1:] if isinstance(result, list) else bad
        rec = {"op": op, "result": bad, "error": None}
        run.judge_lib(rec, qg)
        expect(rec["failed"] and rec["wrong"], f"{op.id}: corrupted kernel result is counted as failed")
        expect(run.fingerprint(bad) != run.fingerprint(result), f"{op.id}: fingerprint sees the change")


def without_program() -> None:
    bare = run.OUT / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "quick-mix",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the program: non-zero exit and no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tiny_runs()
    corrupted_reports()
    corrupted_kernel()
    without_program()
    print(f"{len(failures)} failing case(s)" if failures else "all cases pass")
    sys.exit(1 if failures else 0)
