from __future__ import annotations

import pytest

import compare
import run
import worker


def _pass(*jobs) -> dict:
    return {
        "jobs": [
            {"id": i, "job": {"expect": 0}, "rc": 0, "seconds": s, "ref": r,
             "stdout": out, "error": None}
            for i, s, r, out in jobs
        ]
    }


def test_wall_sums_per_job_medians_in_reference_seconds():
    passes = [
        _pass(("a", 1.0, 0.01, ""), ("b", 0.2, 0.02, "")),
        _pass(("a", 3.0, 0.01, ""), ("b", 0.2, 0.01, "")),
        _pass(("a", 2.0, 0.02, ""), ("b", 0.1, 0.01, "")),
    ]
    # time / reference: a 100, 300, 100 -> 100; b 10, 20, 10 -> 10
    assert run.wall(passes) == pytest.approx(110 * run.REF_S)


def test_setup_is_the_median_in_reference_seconds():
    samples = [{"setup_s": s, "setup_ref": r} for s, r in ((1.0, 0.01), (3.0, 0.01), (1.0, 0.02))]
    assert run.setup(samples) == pytest.approx(100 * run.REF_S)


def test_stdout_that_changes_between_passes_fails_the_job(monkeypatch):
    monkeypatch.setattr(run.oracles, "check", lambda *args: [])
    verdicts = run.judge(
        [_pass(("a", 1, 1, "x"), ("b", 1, 1, "y")), _pass(("a", 1, 1, "x"), ("b", 1, 1, "z"))],
        None,
    )
    assert verdicts["a"]["failed_runs"] == 0
    assert verdicts["b"]["failed_runs"] == 1
    assert verdicts["b"]["problems"] == ["stdout differs between passes"]


def test_compare_names_jobs_whose_digests_differ():
    a = {"jobs": {"x": {"digest": "1"}, "y": {"digest": "2"}, "z": {"digest": "3"}}}
    b = {"jobs": {"x": {"digest": "1"}, "y": {"digest": "9"}, "w": {"digest": "4"}}}
    assert compare.differing_jobs(a, b) == [
        "only in B: w",
        "digest differs: y",
        "only in A: z",
    ]


def test_reference_work_takes_a_measurable_time():
    assert 0.001 < worker.reference() < 1.0
