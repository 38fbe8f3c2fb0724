"""The nudfa benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload compile|structure|solve --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  The run

1. writes the workload's seeded inputs to a fresh directory under
   ``.bench_out/`` (see gen.py), untimed;
2. runs passes while another fits in ``--seconds``, at least one.  A pass
   is a fresh single-threaded process (worker.py) that times its set-up and
   then every job of the list through ``nudfa.cli.main``;
3. takes more set-up-only processes until it has at least four set-up
   samples (without ``--trace``);
4. checks every distinct output against the oracles (oracles.py), untimed,
   and compares each job's stdout digest across passes.

End-to-end metrics (``--trace 0``):

- ``wall_s``: the sum over the job list of each job's median wall time;
- ``setup_s``: the median time to import ``nudfa.cli`` and run every
  fixture's self-test, which every CLI invocation pays;
- ``peak_rss_mb``: the median peak resident set of a pass process.

Both times are in reference seconds: each measured time is divided by the
time of a fixed pure-Python computation run just before and just after it
(``worker.reference``), then multiplied by ``REF_S``, that computation's
typical time on the 2-core Xeon VM the benchmark was tuned on.  A shared
machine runs interpreted code faster or slower by up to half over seconds
and minutes; there the raw sums spread by 15-26% (quartile distance over
median, ten seeds) and the scaled ones by 5-11%.  The raw times go to the
record as ``raw_wall_s`` and ``raw_setup_samples``.

With ``--trace 1`` the run ends with one traced pass instead (tracer.py)
and prints the per-layer metrics, the tracing overhead (traced ``wall_s``
minus the untraced one, in reference seconds), the emitted circuit size
and the share of compile jobs the compiler verified.  Layer times are raw
seconds of the traced pass.

A job fails if it raised, exited with another code than expected, printed
output the oracle rejects, or printed different bytes in two passes.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.  The
full record, with each job's digest and time, goes to
``.bench_out/results/<workload>-seed<N>-trace<T>.json``; compare two such
records with compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 4
# Typical time of ``worker.reference`` on the machine the benchmark was
# tuned on; it turns reference units back into seconds (see above).
REF_S = 0.015
# Every process this run starts is killed once the run is this old, so the
# run ends (without a result) well inside three minutes.
DEADLINE_S = 170

SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

# The labels ``limits.charge`` is called with; each gets a peak-ratio metric.
BUDGET_LABELS = (
    "unary clone",
    "Malcev search",
    "circuit truth table",
    "base-case monomials",
    "correction-term table",
    "multilinear product",
    "coset indicator product",
    "coset indicator form",
    "divisibility polynomial",
    "conjunction table",
    "polynomial collapse",
    "interpolated monomials",
    "program input words",
    "assignment scan",
    "quotient scan",
)

MODULES = (
    "algebra", "congruence", "compile", "lowering", "fieldpoly", "modcircuit",
    "programs", "circuits", "solvers", "hardness", "localize", "cli",
)

LAYER_TIMES = (
    "algebra.UnaryClone", "algebra.find_malcev_polynomial",
    "congruence.all_congruences", "congruence.commutator",
    "congruence.distinguished_congruences",
    "compile.compile_nilpotent", "compile.compile_supernilpotent",
    "compile.descend_mod_beta",
    "lowering.collapse_5to3", "lowering.apply_func",
    "fieldpoly.multilinear_interpolate",
    "modcircuit.eval_cc", "modcircuit.cc_truth_table",
    "programs.truth_table",
    "circuits.eval_circuit",
    "solvers.progcsat_exhaustive", "solvers.ceqv_via_meet_irreducibles",
    "hardness.find_two_prime_witness", "hardness.cnf_to_lattice_program",
    "localize.minimal_sets",
    "fixtures.get_fixture", "cli.verify_harness",
)

LAYER_CALLS = (
    "algebra.UnaryClone", "algebra.find_malcev_polynomial",
    "congruence.all_congruences", "congruence.commutator",
    "compile.central_representation", "compile.descend_mod_beta",
    "lowering.emit_modsum",
    "fieldpoly.multilinear_interpolate",
    "modcircuit.eval_cc",
    "programs.AlgProgram.accepts", "programs.quotient_program",
    "circuits.eval_circuit",
)

LAYER_SIZES = ("algebra.UnaryClone.functions", "congruence.all_congruences.elements")


def budget_metric(label: str) -> str:
    return "limits." + label.replace(" ", "_") + ".peak_ratio"


def layer_metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and direction."""
    out = {f"{m}.self_s": ("s", "lower") for m in MODULES}
    out.update({f"{k}.s": ("s", "lower") for k in LAYER_TIMES})
    out.update({f"{k}.calls": ("count", "lower") for k in LAYER_CALLS})
    out.update({k: ("count", "lower") for k in LAYER_SIZES})
    out.update({budget_metric(b): ("ratio", "lower") for b in BUDGET_LABELS})
    out["solvers.tried"] = ("count", "lower")
    out["trace_overhead_s"] = ("s", "lower")
    out["circuit_size"] = ("count", "lower")
    out["verified_frac"] = ("ratio", "higher")
    return out


END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_worker(workdir: Path, deadline: float, tag: str, *flags: str) -> dict:
    result = workdir / f"pass-{tag}.json"
    env = {k: v for k, v in os.environ.items() if k not in ("NUDFA_BUDGET", "PYTHONPATH")}
    env.update(SINGLE_THREAD)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(SRC), "jobs.json", str(result), *flags],
        cwd=workdir,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def run_passes(
    workdir: Path, deadline: float, seconds: float, trace: bool
) -> tuple[list[dict], dict | None]:
    """Passes while another whole one fits in the budget, at least one.
    With ``trace`` a traced pass follows, and the budget keeps room for it
    (tracing makes a pass up to a third slower)."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        passes.append(run_worker(workdir, deadline, str(len(passes))))
        per_pass = (time.perf_counter() - start) / len(passes)
        room = seconds - (time.perf_counter() - start)
        if room < per_pass * (2.3 if trace else 1.0):
            break
    traced = run_worker(workdir, deadline, "traced", "--trace") if trace else None
    return passes, traced


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Checking and metrics
# ---------------------------------------------------------------------------


def judge(passes: list[dict], workdir: Path) -> dict:
    """Oracle verdicts and cross-pass digest agreement, per job id."""
    verdicts: dict[str, dict] = {}
    checked: dict[tuple[str, str], list[str]] = {}
    for p in passes:
        for rec in p["jobs"]:
            d = digest(rec["stdout"])
            v = verdicts.setdefault(
                rec["id"], {"digest": d, "problems": [], "runs": 0, "failed_runs": 0}
            )
            v["runs"] += 1
            if (rec["id"], d) not in checked:
                if rec["error"] is not None:
                    problems = [f"raised {rec['error']}"]
                else:
                    problems = oracles.check(rec["job"], rec["rc"], rec["stdout"], workdir)
                checked[(rec["id"], d)] = problems
            problems = checked[(rec["id"], d)]
            if d != v["digest"]:
                problems = problems + ["stdout differs between passes"]
            if problems:
                v["failed_runs"] += 1
                v["problems"].extend(p for p in problems if p not in v["problems"])
    return verdicts


def job_samples(passes: list[dict], field: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for p in passes:
        for rec in p["jobs"]:
            out.setdefault(rec["id"], []).append(rec[field])
    return out


def wall(passes: list[dict]) -> float:
    """Sum over jobs of each job's median time, in reference seconds."""
    scaled: dict[str, list[float]] = {}
    for p in passes:
        for rec in p["jobs"]:
            scaled.setdefault(rec["id"], []).append(rec["seconds"] / rec["ref"] * REF_S)
    return sum(statistics.median(v) for v in scaled.values())


def setup(samples: list[dict]) -> float:
    """Median set-up time, in reference seconds."""
    return statistics.median(s["setup_s"] / s["setup_ref"] * REF_S for s in samples)


def output_metrics(one_pass: dict) -> dict[str, float]:
    """Metrics read from the documents a pass printed."""
    size = tried = 0
    compiled = verified = 0
    for rec in one_pass["jobs"]:
        try:
            doc = json.loads(rec["stdout"])
        except ValueError:
            continue
        if rec["job"]["argv"][0] == "compile":
            reports = doc.get("passes") or []
            compiled += 1
            size += doc.get("size", 0)
            verified += bool(reports) and all(r.get("verified") is True for r in reports)
        if isinstance(doc, dict) and isinstance(doc.get("tried"), int):
            tried += doc["tried"]
    return {
        "circuit_size": size,
        "verified_frac": verified / compiled if compiled else 0.0,
        "solvers.tried": tried,
    }


def layer_metrics(traced: dict, untraced_wall: float) -> dict[str, float]:
    tr = traced["trace"]
    out: dict[str, float] = {}
    for m in MODULES:
        out[f"{m}.self_s"] = tr["self_s"].get(m, 0.0)
    for k in LAYER_TIMES:
        out[f"{k}.s"] = tr["s"].get(k, 0.0)
    for k in LAYER_CALLS:
        out[f"{k}.calls"] = tr["calls"].get(k, 0)
    for k in LAYER_SIZES:
        out[k] = tr["sizes"].get(k, 0)
    for label in BUDGET_LABELS:
        out[budget_metric(label)] = tr["peaks"].get(label, 0.0)
    out["trace_overhead_s"] = wall([traced]) - untraced_wall
    out.update(output_metrics(traced))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "nudfa" / "cli.py").is_file():
        print(f"no nudfa sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=OUT))
    try:
        gen.write_workload(args.workload, args.seed, workdir)
        passes, traced = run_passes(workdir, deadline, args.seconds, bool(args.trace))
        setups = list(passes)
        if not args.trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(run_worker(workdir, deadline, f"setup{len(setups)}", "--setup-only"))
        verdicts = judge(passes + ([traced] if traced else []), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    times = job_samples(passes, "seconds")
    refs = job_samples(passes, "ref")
    wall_s = wall(passes)
    if args.trace:
        values = layer_metrics(traced, wall_s)
        units = {k: u for k, (u, _) in layer_metric_units().items()}
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END
    attempted = sum(v["runs"] for v in verdicts.values())
    failed = sum(v["failed_runs"] for v in verdicts.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "raw_setup_samples": [s["setup_s"] for s in setups],
        "raw_wall_s": sum(statistics.median(v) for v in times.values()),
        "jobs": {
            k: {
                "digest": v["digest"],
                "seconds": times.get(k),
                "ref": refs.get(k),
                "problems": v["problems"],
            }
            for k, v in verdicts.items()
        },
        "metrics": values,
    }
    if traced:
        record["spans"] = traced["trace"]["spans"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    for k, v in verdicts.items():
        for problem in v["problems"]:
            print(f"FAILED {k}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
