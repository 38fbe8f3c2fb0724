"""One measured pass, run as a fresh process by run.py.

    python3 worker.py SRC JOBS RESULT [--trace] [--setup-only]

Sets up the package the way every CLI invocation does (import ``nudfa.cli``
and run each fixture's self-test), timing it.  Then runs the jobs in JOBS
one after another through ``nudfa.cli.main(argv)``, capturing stdout and
timing each call, and writes everything to RESULT as JSON.  The set-up and
each job also get the mean time of the fixed reference work
(``reference``) run just before and just after them.  The working
directory is the input directory, so the jobs name their files relatively.

``con`` jobs that carry a ``localize`` entry are followed by ``localize``
jobs on cover pairs of the lattice they printed, picked with the given seed.
With ``--trace`` the tracer is installed after the import and before the
self-tests; the traced pass is reported in full, not as setup time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import sys
import time
from pathlib import Path


def localize_jobs(con_job: dict, stdout: str) -> list[dict]:
    """Seeded cover pairs of the lattice a ``con`` job printed."""
    doc = json.loads(stdout)
    pairs = sorted((c["lower"], c["upper"]) for c in doc["covers"])
    spec = con_job["argv"][con_job["argv"].index("--algebra") + 1]
    rng = random.Random(con_job["localize"]["seed"])
    picked = rng.sample(pairs, min(con_job["localize"]["count"], len(pairs)))
    blocks = {e["index"]: e["blocks"] for e in doc["elements"]}
    name = con_job["id"].rsplit("/", 1)[1]
    return [
        {
            "id": f"structure/localize/{name}/{lo}-{hi}",
            "argv": ["localize", "--algebra", spec, "--lower", str(lo), "--upper", str(hi)],
            "expect": 0,
            "check": {
                "kind": "localize",
                "algebra": con_job["check"]["algebra"],
                "lower": blocks[lo],
                "upper": blocks[hi],
            },
        }
        for lo, hi in picked
    ]


# Fixed pure-Python work, timed around the set-up and around every job.
# Its time tracks how fast the machine runs interpreted code at that moment:
# on a shared machine that drifts by tens of percent over seconds and
# minutes, and dividing by it removes most of the drift (see run.py).  Every
# reported time is scaled by this function's time, so it must never change.
_REF_TABLE = {(x, y): (x * 5 + y * 3 + x * y) % 7 for x in range(7) for y in range(7)}


def reference() -> float:
    """Seconds to evaluate a five-gate term over a 7-element operation
    table on 42 * 7^3 argument tuples, the package's evaluators' kind of
    loop (about 20 ms)."""
    # A collection here would charge the size of the jobs' heap to the
    # reference; its own lists are freed by reference counting.
    gc.disable()
    try:
        start = time.perf_counter()
        t = _REF_TABLE
        acc = 0
        for a in range(42):
            for b in range(7):
                for c in range(7):
                    for d in range(7):
                        vals = [a % 7, b, c, d]
                        vals.append(t[vals[0], vals[1]])
                        vals.append(t[vals[4], vals[2]])
                        vals.append(t[vals[5], vals[3]])
                        vals.append(t[vals[6], vals[0]])
                        vals.append(t[vals[7], vals[5]])
                        acc += t[vals[8], vals[1]]
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_job(main, argv: list[str]) -> tuple:
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    except Exception as exc:  # the program under test raised: a failed job
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start, buf.getvalue(), error


def main(argv: list[str]) -> int:
    src, jobs_path, result_path = argv[:3]
    trace = "--trace" in argv
    setup_only = "--setup-only" in argv
    sys.path.insert(0, src)
    jobs = json.loads(Path(jobs_path).read_text())

    ref_before_setup = reference()
    start = time.perf_counter()
    import nudfa
    import nudfa.cli
    from nudfa import fixtures

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    for name in fixtures.fixture_names():
        fixtures.get_fixture(name)
    setup_s = time.perf_counter() - start
    if not Path(nudfa.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported nudfa from {nudfa.__file__}, not from {src}")

    results = []
    queue = [] if setup_only else list(jobs)
    ref = reference()
    setup_ref = (ref_before_setup + ref) / 2
    while queue:
        job = queue.pop(0)
        # Look the entry point up per job: the tracer rebinds it.
        rc, seconds, stdout, error = run_job(nudfa.cli.main, job["argv"])
        ref_after = reference()
        results.append(
            {
                "id": job["id"],
                "job": job,
                "rc": rc,
                "seconds": seconds,
                "ref": (ref + ref_after) / 2,
                "stdout": stdout,
                "error": error,
            }
        )
        ref = ref_after
        if "localize" in job and rc == 0:
            try:
                queue[:0] = localize_jobs(job, stdout)
            except (ValueError, KeyError):
                pass  # unreadable lattice: the con oracle reports it

    doc = {
        "setup_s": setup_s,
        "setup_ref": setup_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = tracer.report()
    Path(result_path).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
