"""Run one benchmark job in this fresh interpreter and report its timings.

Usage: python3 job.py '<json description>'

The description names the package source directory, the job (CLI argv
or a pipeline from pipelines.py with its arguments), whether to trace,
and the file that receives the report.  The job's own output goes to
this process's stdout (or to the CLI's --out file).  The report holds
the perf_counter instant at which `hyptile.cli` finished importing (the
parent subtracts its spawn instant; both read the system-wide monotonic
clock), the in-process import time, the wall time from import done to
the job's call returning, the exit code and, when traced, the per-layer
record.
"""

import json
import sys
import time


def main() -> int:
    desc = json.loads(sys.argv[1])
    sys.path.insert(1, desc["src"])
    t0 = time.perf_counter()
    import hyptile.cli
    t1 = time.perf_counter()
    sympy_at_import = "sympy" in sys.modules

    import pipelines
    recorder = None
    if desc["trace"]:
        import tracer
        recorder = tracer.Tracer()
        recorder.install(extra_modules=[pipelines])

    t2 = time.perf_counter()
    if desc["kind"] == "cli":
        rc = hyptile.cli.main(desc["argv"])
    else:
        try:
            sys.stdout.write(getattr(pipelines, desc["kind"])(**desc["args"]))
            rc = 0
        except Exception as exc:  # reported like the CLI's structured error
            err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            print(json.dumps(err, sort_keys=True), file=sys.stderr)
            rc = 1
    sys.stdout.flush()
    t3 = time.perf_counter()

    report = {
        "imported_at": t1,
        "import_s": t1 - t0,
        "compute_s": t3 - t2,
        "rc": rc,
        "sympy_at_import": sympy_at_import,
        "trace": recorder.summary() if recorder else None,
    }
    with open(desc["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
