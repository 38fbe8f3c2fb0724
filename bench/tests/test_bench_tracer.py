from __future__ import annotations

import contextlib
import io
import json

import pytest

import gen
import nudfa.cli
from tracer import Tracer


@pytest.fixture
def traced(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text(json.dumps(gen.two_bit(gen.cyclic(6), "+", {2})))
    original_main = nudfa.cli.main
    original_lattice = nudfa.cli.all_congruences
    tracer = Tracer().install()
    try:
        for argv in (
            ["con", "--algebra", "fixtures:Z6%2"],
            ["compile", "--program", "p.json", "--verify-n", "4"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert nudfa.cli.main(argv) == 0
        assert nudfa.cli.all_congruences is not original_lattice
    finally:
        tracer.uninstall()
    assert nudfa.cli.main is original_main
    assert nudfa.cli.all_congruences is original_lattice
    return tracer.report()


def test_module_self_times_sum_to_the_outermost_spans(traced):
    total = traced["total_s"]
    roots = [s for s in traced["spans"] if s[1] is None]
    assert [s[0] for s in roots] == ["cli.main", "cli.main"]
    assert sum(s[3] - s[2] for s in roots) == pytest.approx(total, rel=1e-6)
    assert sum(traced["self_s"].values()) == pytest.approx(total, rel=1e-9)
    assert all(v >= 0 for v in traced["self_s"].values())


def test_spans_nest_inside_their_parents(traced):
    spans = traced["spans"]
    for name, parent, start, end in spans:
        assert end is not None and end >= start
        if parent is not None:
            assert spans[parent][2] <= start and end <= spans[parent][3]


def test_counts_sizes_and_budget_peaks(traced):
    calls = traced["calls"]
    assert calls["cli.main"] == 2
    assert calls["congruence.all_congruences"] >= 2
    assert calls["compile.compile_supernilpotent"] == 1
    assert calls["modcircuit.eval_cc"] >= 4
    assert traced["sizes"]["congruence.all_congruences.elements"] >= 3 + 4
    assert 0 < traced["peaks"]["unary clone"] < 1
    assert "compile.compile_supernilpotent" in traced["s"]
