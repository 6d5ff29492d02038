"""qgames benchmark: four seeded workloads, oracle-checked, optionally traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qgames source tree (the program is taken from
./src).  Workloads: equilibria-B, tournament-100k, quick-mix (one
`qgames` subprocess per op) and library-kernel (in-process library
questions).  Each is a closed loop: one client, one op at a time.

A pass runs the workload's fixed op list once.  With --trace 0 the
list runs as many times as fit in --seconds at the nominal pass time
(workloads.PASS_S; at least once), so the ops attempted depend on the
seed and --seconds alone; set-up samples are taken between ops spread
over the run, one op is re-run to check determinism, and the
end-to-end metrics are reported.  With --trace 1 the list runs once
untraced and once traced, and the per-layer metrics are reported.

Every op's output is checked by the benchmark's own oracles
(oracle.py).  stdout carries a readable report, then, as its last line,
{"correct", "attempted", "failed", "metrics"}.  `failed` counts ops
with a nonzero exit, an exception, a failed check or a determinism
mismatch.  `correct` is false when an output is wrong (failed check,
determinism mismatch) or an op ended other than by success or a
documented numeric error (exit 3 / qgames.ConvergenceError).
"""
import os

THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)  # before numpy is imported, here and in every child

import argparse  # noqa: E402
import enum  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import lib_setup  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
OP_TIMEOUT_S = 60
CLI_MAIN = "import sys; from qgames.cli import main; sys.exit(main())"
NUMERIC_EXIT = 3  # documented exit code of a numeric error (e.g. ConvergenceError)



def units(key: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


class SetupError(Exception):
    """The program could not be set up; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, work: Path, tag: str) -> dict:
    """Run one child to completion; wall time, exit code, peak RSS, output."""
    out_path, err_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "end": end, "wall_s": end - start, "rc": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024, "stdout": out_path.read_text(),
            "stderr": err_path.read_text()}


class SetupSampler:
    """Set-up time of fresh processes, sampled at points spread over the
    run: this host's speed drifts over seconds, and one burst of samples
    would see only one phase of it."""

    def __init__(self, argv, work: Path, in_process: bool, total_ops: int):
        self.argv, self.work, self.in_process = argv, work, in_process
        self.at = {k * total_ops // SETUP_SAMPLES for k in range(SETUP_SAMPLES)}
        self.samples = []

    def before(self, index: int) -> None:
        """Called before the run's op number `index`."""
        if index not in self.at:
            return
        r = run_child(self.argv, self.work, f"setup{index}")
        if r["rc"] != 0:
            raise SetupError(f"set-up child exited {r['rc']}: {r['stderr'].strip()[-400:]}")
        self.samples.append(float(r["stdout"].split()[-1]) if self.in_process else r["wall_s"])


# -- CLI workloads -------------------------------------------------------------

def importtime(stderr: str) -> dict:
    """Self time (s) of all imports, and of numpy, scipy and qgames modules."""
    totals = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "qgames": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        totals["total"] += int(self_us) / 1e6
        if top in totals:
            totals[top] += int(self_us) / 1e6
    return totals


def cli_pass(ops, work: Path, tag: str, traced: bool, before=None) -> dict:
    """Run every op once; returns the op records and the pass wall time.
    `before(k)` runs before op k, outside the pass wall time."""
    records, paused = [], 0.0
    t0 = time.monotonic()
    for k, op in enumerate(ops):
        if before:
            t = time.monotonic()
            before(k)
            paused += time.monotonic() - t
        out = work / tag / op.id
        args = [op.command, "--config", str(work / f"{op.id}.json"), "--out", str(out), "--quiet"]
        if traced:
            argv = [sys.executable, "-X", "importtime", str(HERE / "traced_cli.py"),
                    str(work / f"{tag}-{op.id}.spans.json")] + args
        else:
            argv = [sys.executable, "-c", CLI_MAIN] + args
        rec = run_child(argv, work, f"{tag}-{op.id}")
        rec.update(op=op, out=out)
        records.append(rec)
    return {"records": records, "wall_s": time.monotonic() - t0 - paused}


def report_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}


def judge_cli(rec) -> None:
    """Exit code and oracle checks of one op; sets rec['failed'/'wrong'/'why']."""
    rc = rec["rc"]
    if rc == 0:
        errs = oracle.check_report(rec["op"], rec["out"])
        rec.update(failed=bool(errs), wrong=bool(errs), why="; ".join(errs[:3]))
    else:
        last = (rec["stderr"].strip().splitlines() or ["(no message)"])[-1]
        rec.update(failed=True, wrong=rc != NUMERIC_EXIT, why=f"exit {rc}: {last[:300]}")


def outside_spans() -> dict:
    """Per-layer quantities measured outside the spans, all zero."""
    return {"import": 0.0, "trace": 0.0, "report_bytes": 0,
            "imports": dict.fromkeys(("total", "numpy", "scipy", "qgames"), 0.0)}


def trace_cli(records, work: Path, tag: str) -> tuple:
    """Merge the traced children's spans; per-layer extras from outside them."""
    table = spans.empty_table()
    extra = outside_spans()
    for k, rec in enumerate(records):
        path = work / f"{tag}-{rec['op'].id}.spans.json"
        extra["imports"] = {key: v + importtime(rec["stderr"])[key] for key, v in extra["imports"].items()}
        extra["report_bytes"] += sum(len(b) for b in report_bytes(rec["out"]).values())
        if not path.is_file():  # the child died before writing its spans
            extra["import"] += rec["wall_s"]
            continue
        child = json.loads(path.read_text())
        t_dumped = float(rec["stdout"].split()[-1])
        first = child["spans"]["start"][0] if child["spans"]["start"] else child["t_main_end"]
        extra["import"] += (child["t_imported"] - rec["start"]) + (rec["end"] - t_dumped)
        extra["trace"] += (child["t_installed"] - child["t_imported"]) + (first - child["t_installed"]) \
            + (t_dumped - child["t_main_end"])
        spans.merge(table, child["spans"], k)
    return table, extra


# -- library-kernel ------------------------------------------------------------

def fingerprint(obj) -> str:
    """Exact, address-free rendering of a library result."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str + obj.tobytes().hex()
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(fingerprint(x) for x in obj) + "]"
    if isinstance(obj, (str, int, float, bool, type(None), enum.Enum)):
        return repr(obj)
    state = {s: getattr(obj, s) for c in type(obj).__mro__ for s in getattr(c, "__slots__", ())}
    state.update(getattr(obj, "__dict__", {}))
    return type(obj).__name__ + fingerprint(sorted(state.items()))


def lib_pass(ops, qg, traced: bool = False, before=None) -> dict:
    records, paused = [], 0.0
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        t0 = time.monotonic()
        for k, op in enumerate(ops):
            if before:
                t = time.monotonic()
                before(k)
                paused += time.monotonic() - t
            if tracer:
                tracer.current_op = k
            start = time.monotonic()
            try:
                result, error = op.call(qg), None
            except Exception as exc:  # recorded and judged below; the loop must go on
                result, error = None, exc
            records.append({"op": op, "wall_s": time.monotonic() - start, "result": result,
                            "error": error})
        wall = time.monotonic() - t0 - paused
    finally:
        if tracer:
            tracer.uninstall()
    return {"records": records, "wall_s": wall, "spans": tracer.to_dict() if tracer else None}


def judge_lib(rec, qg) -> None:
    error = rec["error"]
    if error is None:
        try:
            errs = rec["op"].check(rec["result"])
        except (AttributeError, TypeError, ValueError, IndexError) as exc:
            errs = [f"result has an unexpected shape: {type(exc).__name__}: {exc}"]
        rec.update(failed=bool(errs), wrong=bool(errs), why="; ".join(errs[:3]))
    else:
        rec.update(failed=True, wrong=not isinstance(error, qg.ConvergenceError),
                   why=f"{type(error).__name__}: {str(error)[:300]}")
    rec["fingerprint"] = fingerprint(rec["result"]) if error is None else repr(error)
    rec["result"] = None


# -- metrics -------------------------------------------------------------------

def per_layer(agg: dict, extra: dict, op_wall: float, traced_wall: float, untraced_wall: float) -> dict:
    by, layer = agg["by_name"], dict(agg["layer_self"])
    layer["import"] += extra["import"]

    def get(name, field):
        return by.get(name, {}).get(field, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    rounds = get("hft.play_tournament", "extra")
    m = {
        "import.total_s": extra["imports"]["total"], "import.scipy_s": extra["imports"]["scipy"],
        "import.numpy_s": extra["imports"]["numpy"], "import.qgames_self_s": extra["imports"]["qgames"],
        "cli.report_bytes": extra["report_bytes"],
        "hft.rounds": rounds,
        "hft.pair_cache_hit_ratio": ratio(rounds - agg["kernel_calls_in_tournaments"], rounds),
        "search.minimize.nfev": get("search.minimize", "extra"),
        "search.mixed_quantum_equilibrium.protocol_calls": agg["protocol_calls_in_menu_eq"],
        "noise.verify_pass_ratio": ratio(agg["verify_passed_under_noise"], agg["verify_under_noise"]),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_s": extra["trace"],
        "trace.unaccounted_s": op_wall - sum(layer.values()) - extra["trace"],
    }
    wanted = units("per_layer")
    for name in wanted:
        if name in m:
            continue
        head, _, field = name.rpartition(".")
        if name.endswith(".self_s") and head in layer:
            m[name] = layer[head]
        else:
            m[name] = get(head, field)
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in wanted.items()}


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


# -- entry point ---------------------------------------------------------------

def manifest(args, ops_per_pass: int) -> dict:
    git, sha = ROOT / ".git", None
    if (git / "HEAD").is_file():  # a git checkout; otherwise src_sha256 identifies the code
        head = (git / "HEAD").read_text().strip()
        ref = git / head[5:] if head.startswith("ref: ") else None
        sha = head if ref is None else (ref.read_text().strip() if ref.is_file() else None)
    digest = hashlib.sha256()
    for path in sorted((SRC / "qgames").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "git_sha": sha, "src_sha256": digest.hexdigest(),
        "thread_env": THREAD_ENV, "ops_per_pass": ops_per_pass,
    }


def run(args, work: Path, tiny: bool = False) -> dict:
    """Run one workload; returns everything the report and result need."""
    library = args.workload == "library-kernel"
    n_passes = workloads.passes(args.workload, args.seconds)
    qg = None
    if library:
        setup_argv = [sys.executable, str(HERE / "lib_setup.py")]
        sys.path.insert(0, str(SRC))
        import qgames as qg
        lib_setup.warm_up(qg)
        ops = workloads.library_kernel(args.seed, qg, tiny)
        do_pass = lambda tag, traced=False, before=None: lib_pass(ops, qg, traced, before)  # noqa: E731
        judge = lambda rec: judge_lib(rec, qg)  # noqa: E731
        same = lambda a, b: a["fingerprint"] == b["fingerprint"]  # noqa: E731
    else:
        setup_argv = [sys.executable, "-c", "import qgames.cli"]
        ops = workloads.CLI_WORKLOADS[args.workload](args.seed, tiny)
        for op in ops:
            (work / f"{op.id}.json").write_text(json.dumps(op.config))
        do_pass = lambda tag, traced=False, before=None: cli_pass(ops, work, tag, traced, before)  # noqa: E731
        judge = judge_cli
        same = lambda a, b: report_bytes(a["out"]) == report_bytes(b["out"])  # noqa: E731

    def judged(p: dict) -> dict:
        # judging drops library results, so no pass runs with the last one's garbage
        for rec in p["records"]:
            judge(rec)
        gc.collect()
        return p

    passes, mismatches = [], []
    gc.collect()
    if args.trace:
        passes = [judged(do_pass("untraced")), judged(do_pass("traced", True))]
        pairs, reruns = list(zip(passes[0]["records"], passes[1]["records"])), []
    else:
        setup = SetupSampler(setup_argv, work, library, n_passes * len(ops))
        for k in range(n_passes):
            before = lambda i, base=k * len(ops): setup.before(base + i)  # noqa: E731
            passes.append(judged(do_pass(f"pass{k}", before=before)))
        # the first op once more, after the timed passes
        again = lib_pass(ops[:1], qg) if library else cli_pass(ops[:1], work, "rerun", False)
        reruns = judged(again)["records"]
        pairs = [(passes[0]["records"][0], reruns[0])]
    attempted = [r for p in passes for r in p["records"]] + reruns
    for a, b in pairs:
        if not same(a, b):
            b.update(failed=True, wrong=True, why=f"determinism: {a['op'].id} differs between runs")
            mismatches.append(a["op"].id)

    result = {"ops": attempted, "passes": passes, "mismatches": mismatches, "ops_per_pass": len(ops),
              "determinism_pairs": len(pairs)}
    if args.trace:
        untraced, traced = passes
        if library:
            table, extra = traced["spans"], outside_spans()
        else:
            table, extra = trace_cli(traced["records"], work, "traced")
        op_wall = sum(r["wall_s"] for r in traced["records"])
        result["metrics"] = per_layer(spans.aggregate(table), extra, op_wall,
                                      traced["wall_s"], untraced["wall_s"])
        result["spans"] = table
    else:
        op_walls = [r["wall_s"] for p in passes for r in p["records"]]
        # each op's mean over the passes, which lie seconds apart: a median
        # of single short ops would follow this host's speed phases
        op_means = [statistics.fmean(p["records"][k]["wall_s"] for p in passes) for k in range(len(ops))]
        peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 if library
                else max(r["rss_mb"] for r in attempted))
        result["metrics"] = {
            "wall_s": sum(p["wall_s"] for p in passes),
            "op_s.p50": statistics.median(op_means),
            "setup_s": statistics.median(setup.samples),
            "peak_rss_mb": peak,
        }
        result["extra_metrics"] = {
            "failed_frac": sum(r["failed"] for r in attempted) / len(attempted),
            "op_samples": len(op_walls),
            "setup_samples": len(setup.samples),
        }
        if library:
            result["extra_metrics"]["op_s.p90"] = percentile(op_walls, 90)
    return result


def describe(args, man: dict, res: dict) -> list:
    """The readable report printed before the result line."""
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}",
             "manifest " + json.dumps(man, sort_keys=True)]
    failures = {}
    for rec in res["ops"]:
        if rec["failed"]:
            failures.setdefault(rec["op"].id, [rec, 0])[1] += 1
    for rec, times in failures.values():
        config = getattr(rec["op"], "config", None)
        lines.append(f"FAILED op {rec['op'].id} (x{times}): {rec['why']}"
                     + (f" config={json.dumps(config, sort_keys=True)}" if config else ""))
    wrong = sum(r["wrong"] for r in res["ops"])
    lines.append(f"checks: {len(res['ops'])} ops judged, {sum(r['failed'] for r in res['ops'])} failed, "
                 f"{wrong} wrong or undocumented; determinism: "
                 + (f"MISMATCH in {res['mismatches']}" if res["mismatches"]
                    else f"identical on {res['determinism_pairs']} repeated op(s)"))
    if args.trace:
        for name, m in res["metrics"].items():
            lines.append(f"{name:52s} {m['value']:.6g} {m['unit']}")
        return lines
    em = res["extra_metrics"]
    unit = dict(units("end_to_end"), failed_frac="ratio", **{"op_s.p90": "s"})
    shown = dict(res["metrics"], failed_frac=em["failed_frac"])
    if "op_s.p90" in em:
        shown["op_s.p90"] = em["op_s.p90"]
    notes = {"wall_s": f"{len(res['passes'])} pass(es) of {res['ops_per_pass']} ops",
             "op_s.p50": f"median of {res['ops_per_pass']} per-op means over {len(res['passes'])} pass(es)",
             "op_s.p90": f"n={em['op_samples']}",
             "setup_s": f"median of {em['setup_samples']}, spread over the run",
             "failed_frac": f"{sum(r['failed'] for r in res['ops'])}/{len(res['ops'])}",
             "peak_rss_mb": "runner process" if args.workload == "library-kernel"
             else "largest op process"}
    for name in ("wall_s", "op_s.p50", "op_s.p90", "failed_frac", "setup_s", "peak_rss_mb"):
        if name in shown:
            lines.append(f"{name:12s} {shown[name]:.6g} {unit[name]}  ({notes[name]})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qgames" / "cli.py").is_file():
        print(f"error: no qgames source tree at {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        res = run(args, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    man = manifest(args, res["ops_per_pass"])
    ops = res["ops"]
    metrics = res["metrics"] if args.trace else {
        name: {"value": float(res["metrics"][name]), "unit": unit}
        for name, unit in units("end_to_end").items()}
    line = {"correct": not any(r["wrong"] for r in ops), "attempted": len(ops),
            "failed": sum(r["failed"] for r in ops), "metrics": metrics}
    saved = OUT / "results"
    saved.mkdir(parents=True, exist_ok=True)
    stem = saved / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"manifest": man, "result": line, "extra_metrics": res.get("extra_metrics"),
         "ops": [{"id": r["op"].id, "wall_s": r["wall_s"], "failed": r["failed"], "why": r["why"]}
                 for r in ops]}, indent=1))
    if args.trace:
        spans.dump(res["spans"], stem.with_suffix(".spans.json"))
    print("\n".join(describe(args, man, res)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
