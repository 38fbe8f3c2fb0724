from __future__ import annotations

import json

import pytest

import gen
import oracles


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_writes_identical_job_files(tmp_path, workload):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    jobs = gen.write_workload(workload, 7, first)
    assert gen.write_workload(workload, 7, second) == jobs
    assert _files(first) == _files(second)
    gen.write_workload(workload, 8, other)
    assert _files(first) != _files(other)
    assert json.loads((first / "jobs.json").read_text()) == jobs
    assert len({job["id"] for job in jobs}) == len(jobs)


def test_relabelled_algebras_keep_their_congruence_count():
    base = gen.dihedral4()
    copy = gen.relabel(base, [3, 1, 7, 0, 2, 6, 5, 4], "D4")
    assert copy != base
    assert len(oracles.congruences(copy)) == len(oracles.congruences(base)) == 6


def test_sat_instances_have_their_first_solution_mid_scan():
    import random

    rng = random.Random(1)
    clauses = gen.cnf_with_status(rng, 10, 43, True)
    first = gen.first_solution(10, clauses)
    assert 0.4 <= first / 1024 < 0.6
    assert gen.first_solution(10, gen.cnf_with_status(rng, 10, 43, False)) is None


def test_benchmark_json_lists_the_metrics_the_run_prints():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        run.layer_metric_units()
    )
