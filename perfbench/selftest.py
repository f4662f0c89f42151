"""Self-test of the output checks: each must reject a corrupted output.

Usage (from the repository root): python3 perfbench/selftest.py

Runs a few small jobs, requires every genuine output to pass its check,
then corrupts each output in one way (a wrong torsion, a dropped tile,
a changed measure, a moved statistic, ...) and requires the check to
report a problem.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from checks import check_job, check_k_against_h
from tracer import PER_LAYER
from workloads import SPECS, Job


def _json_edit(fn):
    def edit(text):
        doc = json.loads(text)
        fn(doc)
        return json.dumps(doc)
    return edit


def _drop_tile(doc):
    doc["tiles"].pop(len(doc["tiles"]) // 2)
    doc["count"] -= 1


def _drop_path(text):
    lines = text.split("\n")
    i = next(i for i, ln in enumerate(lines) if ln.startswith("<path"))
    return "\n".join(lines[:i] + lines[i + 1:])


def _move(doc, sigmas=10.0):
    m = doc["marginals"]["first_letter"]
    n = doc["config"]["samples"]
    m["statistic"] += sigmas * (m["expected"] * (1 - m["expected"]) / n) ** .5


def _shrink_control(doc):
    for g in doc["negative_control"]["report"]["per_g"]:
        g["std_error"] = abs(g["statistic"]) or g["std_error"]


def _pipeline_drop(doc):
    doc["tiles"].pop()
    doc["count"] -= 1
    doc["boundary_charge_gap"] -= 1


def _pipeline_svg(doc):
    doc["svg"] = _drop_path(doc["svg"])


def _invariance_move(doc):
    g = doc["per_g"][0]
    g["statistic"] += 10 * g["std_error"] + 1e-6


CASES = [
    (Job("cech-tm", "cli", "cech", "tm", {"nmax": 4}), [
        ("wrong H1 torsion",
         _json_edit(lambda d: d["H1"]["torsion"].append(3))),
        ("wrong H2 rank", _json_edit(
            lambda d: d["H2"].__setitem__("rank", d["H2"]["rank"] + 1))),
        ("H0 not Z", _json_edit(lambda d: d["H0"].__setitem__("rank", 2))),
    ]),
    (Job("kgroups-tm", "cli", "kgroups", "tm", {"nmax": 4}), [
        ("wrong K0 torsion",
         _json_edit(lambda d: d["K0"]["summands"][0]["torsion"].append(5))),
    ]),
    (Job("gaplabels-per5", "cli", "gaplabels", "per5", {"nmax": 5}), [
        ("wrong periodic label", lambda t: t.replace('"1/5"', '"1/4"')),
    ]),
    (Job("gaplabels-fib", "cli", "gaplabels", "fib", {"nmax": 3}), [
        ("index-2 Fibonacci labels", _json_edit(
            lambda d: d["gap_labels"]["generators"][0].__setitem__(
                "coordinates", ["-6/1", "4/1"]))),
    ]),
    (Job("measures-tm", "cli", "measures", "tm", {"nmax": 3}), [
        ("changed measure", lambda t: t.replace("\n11,2,1/6,", "\n11,2,1/5,")),
        ("dropped word", lambda t: "\n".join(
            ln for ln in t.split("\n") if not ln.startswith("121,"))),
    ]),
    (Job("measures-fib", "cli", "measures", "fib", {"nmax": 3}), [
        ("changed algebraic measure",
         lambda t: t.replace("\n11,2,algebraic,0.2360679",
                             "\n11,2,algebraic,0.2460679")),
    ]),
    (Job("patch-fib-r2", "cli", "patch", "fib", {"radius": 2}), [
        ("dropped tile", _json_edit(_drop_tile)),
        ("recoloured scale", _json_edit(
            lambda d: [t.__setitem__("colour", 3) for t in d["tiles"]
                       if t["k"] == 0])),
    ]),
    (Job("render-tm-r2", "cli", "render", "tm", {"radius": 2}), [
        ("dropped path", _drop_path),
    ]),
    (Job("hullcheck-tm", "cli", "hullcheck", "tm",
         {"samples": 20000, "seed": 7}), [
        ("first-letter statistic moved 10 sigma", _json_edit(_move)),
        ("negative control copied from invariance_0", _json_edit(
            lambda d: d["negative_control"].__setitem__(
                "report", d["checks"]["invariance_0"]))),
        ("negative control shrunk to 1 sigma", _json_edit(_shrink_control)),
    ]),
    (Job("cocycle-fib", "cli", "cocycle", "fib",
         {"samples": 20000, "seed": 7}), [
        ("antisymmetry defect inflated", _json_edit(
            lambda d: d["tau_with_one"].__setitem__(
                "antisymmetry_defect", 1e3))),
    ]),
    (Job("pipeline-tm-r2", "tiling", "tiling", "tm", {"radius": 2}), [
        ("dropped tile", _json_edit(_pipeline_drop)),
        ("dropped path", _json_edit(_pipeline_svg)),
    ]),
    (Job("invariance-fib", "invariance", "invariance", "fib",
         {"samples": 20000, "seed": 7,
          "elements": [[1.5, 0.25], [0.75, -1.0]]}), [
        ("invariance statistic moved 10 sigma", _json_edit(_invariance_move)),
    ]),
]


def _declared_metrics_match() -> bool:
    """BENCHMARK.json names the metrics that run.py and tracer.py report."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    ok = True
    for key, reported in (("end_to_end", run.END_TO_END),
                          ("per_layer", [(n, u) for n, u, _ in PER_LAYER])):
        declared = [(m["name"], m["unit"]) for m in bench[key]]
        same = declared == list(reported)
        print(f"BENCHMARK.json {key} metrics "
              f"{'match' if same else 'DIFFER FROM'} the reported ones")
        ok &= same
    return ok


def main() -> int:
    workdir = os.path.join(run.SCRATCH, "selftest")
    run._prepare(workdir)
    ok = _declared_metrics_match()
    texts = {}
    try:
        for job, corruptions in CASES:
            r = run.run_job(job, False, workdir)
            text = r["output"].decode("utf-8")
            texts[job.name] = text
            genuine = check_job(job, SPECS[job.spec], text)
            print(f"{job.name}: genuine output "
                  f"{'passes' if not genuine and r['rc'] == 0 else 'FAILS'}")
            ok &= not genuine and r["rc"] == 0
            for what, corrupt in corruptions:
                found = check_job(job, SPECS[job.spec], corrupt(text))
                print(f"  {what}: {'rejected' if found else 'NOT REJECTED'}")
                ok &= bool(found)
        jobs = [job for job, _ in CASES]
        ok &= not check_k_against_h(texts, jobs)
        changed = dict(texts)
        changed["kgroups-tm"] = _json_edit(
            lambda d: d["K1"].__setitem__("rank", d["K1"]["rank"] + 1))(
                texts["kgroups-tm"])
        found = check_k_against_h(changed, jobs)
        print(f"K1/H1 cross-check on mismatched groups: "
              f"{'rejected' if found else 'NOT REJECTED'}")
        ok &= bool(found)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(run.SCRATCH):
            os.rmdir(run.SCRATCH)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
