"""One-shot job benchmark for hyptile.

Usage (from the repository root):

    python3 perfbench/run.py --workload groups --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

A workload is a fixed list of jobs (see workloads.py).  Every job runs
in its own fresh interpreter (perfbench/job.py), one at a time, with
the package imported from ./src, so each pays interpreter start and a
full import the way a CLI user does.  A run does --seconds divided by
the workload's nominal round time (workloads.ROUND_SECONDS) whole rounds
of the job list, at least one.  It checks every job's output (checks.py)
and prints the metrics by name and unit, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics from each job's median over
its rounds (setup_s: the median over all job executions).  --trace 1
runs one untimed round untraced, then the rounds traced (tracer.py); it
checks that every traced output is byte-identical to the untraced one
and that the work counts repeat exactly across traced rounds, and it
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import (ROUND_SECONDS, SPECS, WORKLOADS,  # noqa: E402
                       jobs_for)

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
JOB_TIMEOUT_S = 150.0

END_TO_END = [("setup_s", "s"), ("compute_s", "s"), ("wall_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB")]


# -- running one job --

def _env() -> dict:
    env = dict(os.environ)
    env.pop("HYPTILE_THREADS", None)  # measure the sampler's default pool
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(job, trace: bool, workdir: str) -> dict:
    """Spawn the job's interpreter, wait for it, return timings and output."""
    spec_path = os.path.join(workdir, f"{job.spec}.json")
    out_path = os.path.join(workdir, f"{job.name}.out") if job.out else None
    stdout_path = os.path.join(workdir, f"{job.name}.stdout")
    stderr_path = os.path.join(workdir, f"{job.name}.stderr")
    report_path = os.path.join(workdir, f"{job.name}.report")
    for p in (out_path, report_path):
        if p and os.path.exists(p):
            os.unlink(p)
    desc = {"src": SRC, "trace": trace, "report": report_path,
            "kind": job.kind}
    if job.kind == "cli":
        desc["argv"] = job.cli_args(spec_path, out_path)
    else:
        desc["args"] = {"spec": SPECS[job.spec], **job.params}
    argv = [sys.executable, os.path.join(HERE, "job.py"), json.dumps(desc)]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir,
                                env=_env())
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = b""
    if os.path.exists(out_path or stdout_path):
        with open(out_path or stdout_path, "rb") as fh:
            output = fh.read()
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    return {
        "job": job,
        "rc": proc.returncode,
        "wall_s": t_exit - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": report["imported_at"] - t_spawn if report else None,
        "report": report,
        "output": output,
        "stderr": stderr,
    }


def run_round(jobs, trace: bool, workdir: str) -> list[dict]:
    return [run_job(job, trace, workdir) for job in jobs]


# -- checking --

def check_round(results: list[dict], jobs) -> tuple[int, list[str]]:
    """(failed jobs, problems).

    A job fails when it exits non-zero or its output fails a check.  A
    failure whose every message names the job's known fault is counted
    but is not a problem: it is the program's standing defect, the same
    in every run.
    """
    failed = 0
    problems = []
    texts = {}
    for r in results:
        job = r["job"]
        if r["rc"] != 0 or r["report"] is None:
            found = [f"exit {r['rc']}: {r['stderr'].strip()[-300:]}"]
        else:
            text = r["output"].decode("utf-8")
            texts[job.name] = text
            found = checks.check_job(job, SPECS[job.spec], text)
        if found:
            failed += 1
            if not (job.known_fault
                    and all(job.known_fault in p for p in found)):
                problems += [f"{job.name}: {p}" for p in found]
    problems += checks.check_k_against_h(texts, jobs)
    return failed, problems


# -- metrics --

def end_to_end(rounds: list[list[dict]]) -> dict:
    """Sums over jobs of each job's median over the rounds; setup_s is
    the median over every job execution, peak_rss_mb the largest of them.

    Every job does the same deterministic work in each round, but the
    shared VM's speed moves between rounds: the same job varied by up to
    a factor of two within a few minutes.  Its fastest readings are
    rare, so a sum of fastest rounds moves more from run to run than a
    sum of medians (see README.md).
    """
    def typical(value):
        return sum(statistics.median(value(results[i]) for results in rounds)
                   for i in range(len(rounds[0])))

    executions = [r for results in rounds for r in results]
    return {
        "setup_s": statistics.median(
            r["setup_s"] for r in executions if r["setup_s"] is not None),
        "compute_s": typical(
            lambda r: r["report"]["compute_s"] if r["report"] else 0.0),
        "wall_s": typical(lambda r: r["wall_s"]),
        "cpu_s": typical(lambda r: r["cpu_s"]),
        "peak_rss_mb": max(r["rss_mb"] for r in executions),
    }


def _layer_value(source: str, results: list[dict]):
    reports = [r["report"] for r in results if r["report"]]
    if source == "import_s":
        return statistics.median(rep["import_s"] for rep in reports)
    if source == "sympy_at_import":
        return sum(1 for rep in reports if rep["sympy_at_import"])
    if source.startswith("self:"):
        layer = source[5:]
        return sum(rep["trace"]["self_s"].get(layer, 0.0) for rep in reports)
    _, func, field = source.split(":")
    return sum(rep["trace"]["funcs"].get(func, {}).get(field, 0)
               for rep in reports)


def per_layer(rounds: list[list[dict]]) -> tuple[dict, list[str]]:
    """Medians of the times over traced rounds; counts must not vary."""
    values, problems = {}, []
    for name, unit, source in PER_LAYER:
        seq = [_layer_value(source, results) for results in rounds]
        if unit == "s":
            values[name] = statistics.median(seq)
        else:
            values[name] = seq[0]
            if len(set(seq)) != 1:
                problems.append(f"{name} differs between traced rounds: "
                                f"{seq}")
    return values, problems


# -- one workload --

def _prepare(workdir: str):
    os.makedirs(workdir, exist_ok=True)
    for key, spec in SPECS.items():
        with open(os.path.join(workdir, f"{key}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(spec, fh)


def _warm_up(workdir: str):
    """Compile the package's bytecode and warm the file cache, untimed."""
    probe = [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import hyptile.cli",
             SRC]
    subprocess.run(probe, cwd=workdir, env=_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)


def rounds_for(name: str, seconds: float) -> int:
    """Whole rounds in a run: derived from --seconds and the workload's
    nominal round time alone, so that a run's work and its attempted
    and failed counts never depend on how fast the machine is."""
    return max(1, int(seconds // ROUND_SECONDS[name]))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = jobs_for(name, seed)
    workdir = os.path.join(SCRATCH, name)
    _prepare(workdir)
    _warm_up(workdir)
    baseline = run_round(jobs, False, workdir) if trace else None
    rounds = [run_round(jobs, trace, workdir)
              for _ in range(rounds_for(name, seconds))]

    attempted = failed = 0
    problems = []
    for results in rounds + ([baseline] if baseline else []):
        f, p = check_round(results, jobs)
        attempted += len(results)
        failed += f
        problems += p
    if trace:
        for results in rounds:
            for r, b in zip(results, baseline):
                if r["output"] != b["output"]:
                    problems.append(f"{r['job'].name}: traced output differs "
                                    "from the untraced output")
        metrics, count_problems = per_layer(rounds)
        problems += count_problems
        units = {n: u for n, u, _ in PER_LAYER}
        overhead = (end_to_end(rounds[:1])["compute_s"]
                    - end_to_end([baseline])["compute_s"])
    else:
        metrics = end_to_end(rounds)
        units = dict(END_TO_END)
        overhead = None
    return {"workload": name, "correct": not problems, "problems": problems,
            "attempted": attempted, "failed": failed, "rounds": rounds,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
            "tracing_overhead_s": overhead}


def _print_summary(res: dict):
    print(f"workload {res['workload']}: {len(res['rounds'])} round(s), "
          f"jobs attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for p in res["problems"]:
        print(f"  PROBLEM {p}")
    print("  wall_s by round: " + " ".join(
        f"{sum(r['wall_s'] for r in rnd):.3f}" for rnd in res["rounds"]))
    for r in res["rounds"][-1]:
        compute = r["report"]["compute_s"] if r["report"] else float("nan")
        print(f"  job {r['job'].name:24s} exit {r['rc']}  wall "
              f"{r['wall_s']:7.3f} s  compute {compute:7.3f} s  "
              f"rss {r['rss_mb']:6.1f} MB")
    for k, m in res["metrics"].items():
        print(f"  {k:40s} {m['value']:>14.6g} {m['unit']}")
    if res["tracing_overhead_s"] is not None:
        print(f"  tracing overhead (first traced round - untraced round, "
              f"compute_s): {res['tracing_overhead_s']:.4f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyptile", "cli.py")):
        print(f"error: package source not found under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for res in results:
        _print_summary(res)
    metrics = {(k if len(results) == 1 else f"{r['workload']}.{k}"): m
               for r in results for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
