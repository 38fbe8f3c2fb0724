"""Each oracle accepts the CLI's real output and rejects a corrupted copy."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random

import pytest

import gen
import oracles
from nudfa.cli import main


def run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def dump(directory, name, doc) -> str:
    (directory / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return name


def verdict(job, doc, directory, rc=None) -> list[str]:
    text = doc if isinstance(doc, str) else json.dumps(doc)
    return oracles.check(job, job["expect"] if rc is None else rc, text, directory)


def job(kind, expect=0, **check) -> dict:
    return {"id": kind, "expect": expect, "check": {"kind": kind, **check}}


def test_compile_oracle_rejects_a_flipped_mod_gate(workdir):
    f = dump(workdir, "p.json", gen.count_ones(6))
    rc, out = run(["compile", "--program", f, "--verify-n", "20"])
    j = job("compile", program=f)
    doc = json.loads(out)
    assert verdict(j, doc, workdir, rc) == []
    bad = copy.deepcopy(doc)
    gate = next(g for g in bad["circuit"]["gates"] if g["kind"] == "MOD")
    gate["accepting"] = sorted(set(range(gate["m"])) - set(gate["accepting"]))
    assert "circuit truth table differs from the program" in verdict(j, bad, workdir)


def test_compile_oracle_rejects_a_wrong_size_and_exit_code(workdir):
    f = dump(workdir, "p.json", gen.two_bit(gen.cyclic(6), "+", {2}))
    rc, out = run(["compile", "--program", f, "--verify-n", "20"])
    j = job("compile", program=f)
    doc = json.loads(out)
    doc["size"] += 1
    assert verdict(j, doc, workdir)
    assert verdict(j, out, workdir, rc=1) == ["exit code 1, expected 0"]


def test_circuit_evaluator_reads_sump_row_sums():
    cc = {
        "inputs": 2,
        "shape": "SUMPC(3)",
        "output": 2,
        "gates": [
            {
                "kind": "SUMPC", "layer": 1, "wires": [[0, 1], [1, 2]], "p": 3,
                "nu": 2, "coeffs": [[[1, 0], [0, 1]], [[1, 1], [0, 0]]],
                "offset": [0, 0], "target": [1, 1],
            }
        ],
    }
    # vector = x0 * (1, 1) + 2 * x1 * (2, 0) mod 3
    assert oracles.circuit_table(cc).tolist() == [0, 1, 0, 0]


def test_con_oracle_rejects_missing_and_extra_congruences(workdir):
    alg = dump(workdir, "a.json", gen.retraction(6, 2))
    rc, out = run(["con", "--algebra", "fixtures:Z6%2"])
    j = job("con", algebra=alg)
    doc = json.loads(out)
    assert verdict(j, doc, workdir, rc) == []
    fewer = copy.deepcopy(doc)
    fewer["elements"].pop()
    assert verdict(j, fewer, workdir)
    wrong = copy.deepcopy(doc)
    wrong["elements"][1]["blocks"] = [[0, 1], [2, 3], [4, 5]]
    assert "elements differ from the compatible partitions" in verdict(j, wrong, workdir)
    covers = copy.deepcopy(doc)
    covers["covers"].pop()
    assert verdict(j, covers, workdir)


def test_brute_force_congruences_of_small_groups():
    assert len(oracles.congruences(gen.cyclic(6))) == 4
    assert len(oracles.congruences(gen.cyclic_product(2, 2))) == 5
    assert len(oracles.congruences(gen.symmetric3())) == 3


def test_localize_oracle_rejects_a_wrong_witness_and_trace(workdir):
    alg = dump(workdir, "a.json", gen.symmetric3())
    _, con = run(["con", "--algebra", "fixtures:S3"])
    blocks = {e["index"]: e["blocks"] for e in json.loads(con)["elements"]}
    lo, hi = json.loads(con)["covers"][0]["lower"], json.loads(con)["covers"][0]["upper"]
    rc, out = run(["localize", "--algebra", "fixtures:S3", "--lower", str(lo), "--upper", str(hi)])
    j = job("localize", algebra=alg, lower=blocks[lo], upper=blocks[hi])
    doc = json.loads(out)
    assert doc["minimal_sets"] and verdict(j, doc, workdir, rc) == []
    bad = copy.deepcopy(doc)
    bad["minimal_sets"][0]["witness"] = list(range(6))
    assert verdict(j, bad, workdir)
    bad = copy.deepcopy(doc)
    bad["minimal_sets"][0]["traces"] = []
    assert verdict(j, bad, workdir)


def test_lattice_and_progcsat_oracles_reject_wrong_answers(workdir):
    rng = random.Random(3)
    n = 8
    cnf = dump(workdir, "f.cnf", gen.dimacs(n, gen.cnf_with_status(rng, n, 34, True)))
    rc, out = run(["gadget", "lattice", "--cnf", cnf, "--out", "p.json"])
    lat = job("lattice", cnf=cnf, program="p.json")
    assert verdict(lat, out, workdir, rc) == []
    rc, out = run(["solve", "progcsat", "--program", "p.json"])
    sat = job("progcsat", cnf=cnf)
    doc = json.loads(out)
    assert doc["status"] == "sat" and verdict(sat, doc, workdir, rc) == []
    assert verdict(sat, {**doc, "status": "unsat"}, workdir)
    flipped = [1 - b for b in doc["witness"]]
    assert verdict(sat, {**doc, "witness": flipped}, workdir) == [
        "witness word does not satisfy the CNF"
    ]
    prog = json.loads((workdir / "p.json").read_text())
    prog["accepting"] = [0]
    (workdir / "p.json").write_text(json.dumps(prog))
    assert verdict(lat, out, workdir)


def test_equation_oracles_reject_wrong_status_and_points(workdir):
    rng = random.Random(5)
    s3 = gen.symmetric3()
    alg = dump(workdir, "a.json", s3)
    holds, e = gen.identity_equation(rng, s3, 3, 4)
    f = dump(workdir, "h.json", holds)
    argv = ["--algebra", "fixtures:S3", "--circuit", f, "--e", str(e)]
    ceqv = job("ceqv", algebra=alg, circuit=f, e=e)
    rc, out = run(["solve", "ceqv", *argv, "--strategy", "meet"])
    assert json.loads(out)["status"] == "holds" and verdict(ceqv, out, workdir, rc) == []
    assert verdict(ceqv, {**json.loads(out), "status": "fails"}, workdir)
    rc, out = run(["solve", "csat", *argv])
    csat = job("csat", algebra=alg, circuit=f, e=e)
    doc = json.loads(out)
    assert verdict(csat, doc, workdir, rc) == []
    assert verdict(csat, {**doc, "status": "unsat"}, workdir)

    z6 = gen.cyclic(6)
    alg = dump(workdir, "z.json", z6)
    circ, e = gen.random_equation(rng, z6, 3, 5)
    f = dump(workdir, "r.json", circ)
    ceqv = job("ceqv", algebra=alg, circuit=f, e=e)
    rc, out = run(["solve", "ceqv", "--algebra", "fixtures:Z6", "--circuit", f, "--e", str(e)])
    doc = json.loads(out)
    assert doc["status"] == "fails" and verdict(ceqv, doc, workdir, rc) == []
    row = int((oracles.term_table(z6, circ) == e).argmax())
    solution = [(row // 6 ** (2 - i)) % 6 for i in range(3)]
    bad = {**doc, "counterexample": solution}
    assert verdict(ceqv, bad, workdir) == [f"counterexample {solution} does not re-check"]


def test_twoprime_oracle_wants_a_witness_failure(workdir):
    j = job("twoprime", expect=1)
    cnf = dump(workdir, "f.cnf", "p cnf 3 1\n1 2 3 0\n")
    rc, out = run(["gadget", "twoprime", "--algebra", "fixtures:Z6", "--cnf", cnf])
    assert verdict(j, out, workdir, rc) == []
    assert verdict(j, {"kind": "domain", "error": "x"}, workdir)
