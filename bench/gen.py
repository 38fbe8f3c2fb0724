"""Seeded inputs and job lists for the benchmark workloads.

Everything here is built from plain operation tables: the benchmark never
imports the package under test to make its inputs.  Algebras, programs and
equation circuits are dicts in the package's JSON formats; CNFs are DIMACS
text.  ``write_workload`` writes one workload's files into a directory and
returns its job list.  The same seed gives byte-identical files and jobs.

A job is a dict:

- ``id``: a stable name, used for digests and failure reports;
- ``argv``: the CLI arguments, with file names relative to the input
  directory (the worker runs there, so outputs carry no absolute paths);
- ``expect``: the exit code a correct run returns;
- ``check``: what the oracle needs to judge the output (see oracles.py);
- ``localize`` (``con`` jobs only): how many seeded cover pairs of the
  printed lattice to pass to ``localize`` next, and the seed that picks them.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import numpy as np

import oracles

WORKLOADS = ("compile", "structure", "solve")


# ---------------------------------------------------------------------------
# Algebras as operation tables
# ---------------------------------------------------------------------------


def tabulate(name: str, arity: int, size: int, fn) -> dict:
    table = [fn(*args) for args in itertools.product(range(size), repeat=arity)]
    return {"name": name, "arity": arity, "table": table}


def algebra(name: str, size: int, ops: list) -> dict:
    return {"name": name, "size": size, "ops": ops}


def cyclic(k: int) -> dict:
    return algebra(f"Z{k}", k, [tabulate("+", 2, k, lambda x, y: (x + y) % k)])


def cyclic_product(a: int, b: int) -> dict:
    """Z_a x Z_b with (i, j) encoded as i * b + j."""

    def add(x: int, y: int) -> int:
        return ((x // b + y // b) % a) * b + (x % b + y % b) % b

    return algebra(f"Z{a}xZ{b}", a * b, [tabulate("+", 2, a * b, add)])


def dihedral4() -> dict:
    """The symmetries of a square; r^i s^j is encoded as 2 i + j."""

    def mul(x: int, y: int) -> int:
        i, j = divmod(x, 2)
        k, l = divmod(y, 2)
        return 2 * ((i + (k if j == 0 else -k)) % 4) + (j + l) % 2

    return algebra("D4", 8, [tabulate("*", 2, 8, mul)])


def retraction(k: int, d: int) -> dict:
    """Z_k expanded by the retraction x -> x mod d (the Z6%2 pattern)."""
    return algebra(
        f"Z{k}%{d}",
        k,
        [
            tabulate("+", 2, k, lambda x, y: (x + y) % k),
            tabulate(f"%{d}", 1, k, lambda x: x % d),
        ],
    )


S3_PERMS = tuple(itertools.permutations(range(3)))


def symmetric3() -> dict:
    """S3 on lexicographically numbered permutations; a*b applies b first."""

    def mul(a: int, b: int) -> int:
        pa, pb = S3_PERMS[a], S3_PERMS[b]
        return S3_PERMS.index(tuple(pa[pb[i]] for i in range(3)))

    return algebra("S3", 6, [tabulate("*", 2, 6, mul)])


def lattice2() -> dict:
    return algebra(
        "LAT2",
        2,
        [
            tabulate("and", 2, 2, lambda x, y: x & y),
            tabulate("or", 2, 2, lambda x, y: x | y),
        ],
    )


def fixture_tables() -> dict[str, dict]:
    """The package's built-in fixtures, rebuilt from their definitions."""
    out = {f"Z{k}": cyclic(k) for k in (2, 3, 4, 6)}
    out["Z6%2"] = retraction(6, 2)
    out["LAT2"] = lattice2()
    out["S3"] = symmetric3()
    return out


def relabel(alg: dict, perm: list[int], name: str) -> dict:
    """The isomorphic copy in which element x is called perm[x]."""
    n = alg["size"]
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    ops = []
    for op in alg["ops"]:
        r = op["arity"]
        table = []
        for args in itertools.product(range(n), repeat=r):
            idx = 0
            for a in args:
                idx = idx * n + inv[a]
            table.append(perm[op["table"][idx]])
        ops.append({"name": op["name"], "arity": r, "table": table})
    return algebra(name, n, ops)


# Generated algebras for the structure workload: cyclic groups, their direct
# products, D4 and retraction expansions.  Algebras whose lattice and
# localization take more than about a second at this writing (Z9, Z10,
# Z2xZ5, and the retractions Z8%2, Z8%4, Z9%3, Z10%2) are left out so that
# a pass stays short.
STRUCTURE_CATALOG = (
    lambda: cyclic(5),
    lambda: cyclic(7),
    lambda: cyclic(8),
    lambda: cyclic_product(2, 2),
    lambda: cyclic_product(2, 4),
    lambda: cyclic_product(3, 3),
    dihedral4,
    lambda: retraction(4, 2),
    lambda: retraction(6, 3),
)


# ---------------------------------------------------------------------------
# Circuits and programs
# ---------------------------------------------------------------------------


class Circuit:
    """Append-only node list in the package's AlgCircuit JSON format."""

    def __init__(self, k: int):
        self.k = k
        self.nodes: list = [["var", i] for i in range(k)]

    def const(self, a: int) -> int:
        self.nodes.append(["const", a])
        return len(self.nodes) - 1

    def gate(self, op: str, *children: int) -> int:
        self.nodes.append(["gate", op, list(children)])
        return len(self.nodes) - 1

    def fold(self, op: str, items: list[int]) -> int:
        acc = items[0]
        for item in items[1:]:
            acc = self.gate(op, acc, item)
        return acc

    def to_json(self, output: int) -> dict:
        return {"k": self.k, "nodes": self.nodes, "output": output}


def program(alg: dict, circ: dict, n: int, instructions, accepting) -> dict:
    return {
        "algebra": alg,
        "circuit": circ,
        "n": n,
        "instructions": [
            {"var": v, "bit": b, "a0": a0, "a1": a1}
            for v, b, a0, a1 in instructions
        ],
        "accepting": sorted(accepting),
    }


def parity_sum(n: int) -> dict:
    """Z6%2: the sum of %2(x_i + x_{i+1}) over i = 0, 2, 4, ..., accepting {2}."""
    c = Circuit(n)
    terms = [c.gate("%2", c.gate("+", i, i + 1)) for i in range(0, n - 1, 2)]
    circ = c.to_json(c.fold("+", terms))
    ins = [(i, i, 0, 1) for i in range(n)]
    return program(retraction(6, 2), circ, n, ins, {2})


def count_ones(n: int) -> dict:
    """Z6: x_0 + ... + x_{n-1} with 0/1 inputs, accepting {2}."""
    c = Circuit(n)
    circ = c.to_json(c.fold("+", list(range(n))))
    ins = [(i, i, 0, 1) for i in range(n)]
    return program(cyclic(6), circ, n, ins, {2})


def two_bit(alg: dict, op: str, accepting) -> dict:
    """The package's two-input demos: x0 op x1 on 0/1 inputs."""
    c = Circuit(2)
    circ = c.to_json(c.gate(op, 0, 1))
    return program(alg, circ, 2, [(0, 0, 0, 1), (1, 1, 0, 1)], accepting)


def random_term(rng: random.Random, alg: dict, c: Circuit, gates: int) -> int:
    """Random gates over the variables, each child drawn from the last few
    nodes so that the term stays deep rather than bushy."""
    size = alg["size"]
    ops = alg["ops"]
    node = None
    for _ in range(gates):
        op = rng.choice(ops)
        kids = []
        for _ in range(op["arity"]):
            if rng.random() < 0.1:
                kids.append(c.const(rng.randrange(size)))
            else:
                lo = max(0, len(c.nodes) - 6)
                kids.append(rng.randrange(lo, len(c.nodes)))
        node = c.gate(op["name"], *kids)
    return node


def random_program(rng: random.Random, alg: dict, n: int, gates: int) -> dict:
    size = alg["size"]
    c = Circuit(n)
    out = random_term(rng, alg, c, gates)
    bits = list(range(n))
    rng.shuffle(bits)
    ins = []
    for v in range(n):
        a0, a1 = rng.sample(range(size), 2)
        ins.append((v, bits[v], a0, a1))
    accepting = rng.sample(range(size), rng.randrange(1, size))
    return program(alg, c.to_json(out), n, ins, accepting)


# ---------------------------------------------------------------------------
# CNFs and equations
# ---------------------------------------------------------------------------


def random_3cnf(rng: random.Random, n: int, m: int) -> list[tuple[int, ...]]:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def dimacs(n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in cl) + " 0" for cl in clauses]
    return "\n".join(lines) + "\n"


def first_solution(n: int, clauses) -> int | None:
    """Index of the first satisfying word, bit i holding variable i + 1."""
    hits = np.flatnonzero(oracles.cnf_table(n, clauses))
    return int(hits[0]) if len(hits) else None


def cnf_with_status(rng: random.Random, n: int, m: int, sat: bool):
    """Redraw random 3-CNFs until one is unsatisfiable, or satisfiable with
    its first solution in the middle fifth of the words: an exhaustive scan
    then does a known share of its work on every seed."""
    while True:
        clauses = random_3cnf(rng, n, m)
        first = first_solution(n, clauses)
        if first is None and not sat:
            return clauses
        if first is not None and sat and 0.4 <= first / (1 << n) < 0.6:
            return clauses


# Every element of Z6 and of S3 has order dividing 6, so a term repeated six
# times under the group operation equals the identity (element 0) everywhere.
GROUP_OP = {"Z6": "+", "Z6%2": "+", "S3": "*"}


def identity_equation(rng: random.Random, alg: dict, k: int, gates: int):
    c = Circuit(k)
    s = random_term(rng, alg, c, gates)
    out = c.fold(GROUP_OP[alg["name"]], [s] * 6)
    return c.to_json(out), 0


def random_equation(rng: random.Random, alg: dict, k: int, gates: int):
    """A random nonconstant term, with e its value at a random point: csat
    is sat and ceqv fails, both at the first few assignments."""
    while True:
        c = Circuit(k)
        circ = c.to_json(random_term(rng, alg, c, gates))
        values = oracles.term_table(alg, circ)
        if (values != values[0]).any():
            return circ, int(values[rng.randrange(len(values))])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _dump(directory: Path, name: str, doc) -> str:
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True)
    (directory / name).write_text(text)
    return name


def compile_jobs(rng: random.Random, d: Path) -> list[dict]:
    progs = {}
    # Nilpotent path; every Z6%2 compile also pays a Malcev search.
    progs["and2_z6m2"] = two_bit(retraction(6, 2), "+", {2})
    progs["parity_sum_z6m2_10"] = parity_sum(10)
    progs["random_z6m2_0"] = random_program(rng, retraction(6, 2), 4, 6)
    # Supernilpotent path; width 14 lies above the compiler's own
    # verification bound, so only the CLI harness checks it.
    for n in (2, 6, 10, 14):
        progs[f"count_ones_z6_{n}"] = count_ones(n)
    progs["and2_z6"] = two_bit(cyclic(6), "+", {2})
    progs["parity2_z2"] = two_bit(cyclic(2), "+", {1})
    for i in range(3):
        progs[f"random_z6_{i}"] = random_program(rng, cyclic(6), 10, 12)
    jobs = []
    for name, prog in progs.items():
        f = _dump(d, f"{name}.json", prog)
        jobs.append(
            {
                "id": f"compile/{name}",
                "argv": ["compile", "--program", f, "--verify-n", "20"],
                "expect": 0,
                "check": {"kind": "compile", "program": f},
            }
        )
    return jobs


def structure_jobs(rng: random.Random, d: Path) -> list[dict]:
    jobs = []
    cnf = _dump(d, "twoprime.cnf", dimacs(4, random_3cnf(rng, 4, 6)))
    for name, alg in fixture_tables().items():
        tables = _dump(d, f"fixture_{name.replace('%', 'm')}.json", alg)
        spec = f"fixtures:{name}"
        jobs.append(_con_job(rng, f"structure/con/{name}", spec, tables))
        jobs.append(
            {
                "id": f"structure/twoprime/{name}",
                "argv": ["gadget", "twoprime", "--algebra", spec, "--cnf", cnf],
                "expect": 1,
                "check": {"kind": "twoprime"},
            }
        )
    for make in STRUCTURE_CATALOG:
        base = make()
        perm = list(range(base["size"]))
        rng.shuffle(perm)
        alg = relabel(base, perm, base["name"])
        f = _dump(d, f"alg_{alg['name'].replace('%', 'm')}.json", alg)
        jobs.append(_con_job(rng, f"structure/con/{alg['name']}", f, f))
    return jobs


def _con_job(rng: random.Random, job_id: str, spec: str, tables: str) -> dict:
    return {
        "id": job_id,
        "argv": ["con", "--algebra", spec],
        "expect": 0,
        "check": {"kind": "con", "algebra": tables},
        "localize": {"count": 2, "seed": rng.randrange(1 << 30)},
    }


def solve_jobs(rng: random.Random, d: Path) -> list[dict]:
    jobs = []
    # 3-CNFs at the satisfiability threshold (4.26 clauses per variable),
    # three satisfiable and three not.
    n = 12
    for i, sat in enumerate((True, False) * 3):
        clauses = cnf_with_status(rng, n, round(4.26 * n), sat)
        cnf = _dump(d, f"cnf_{i}.cnf", dimacs(n, clauses))
        prog = f"lattice_{i}.json"
        jobs.append(
            {
                "id": f"solve/gadget_lattice/{i}",
                "argv": ["gadget", "lattice", "--cnf", cnf, "--out", prog],
                "expect": 0,
                "check": {"kind": "lattice", "cnf": cnf, "program": prog},
            }
        )
        jobs.append(
            {
                "id": f"solve/progcsat/{i}",
                "argv": ["solve", "progcsat", "--program", prog],
                "expect": 0,
                "check": {"kind": "progcsat", "cnf": cnf},
            }
        )
    fixtures = fixture_tables()
    for name in ("Z6", "Z6%2", "S3"):
        alg = fixtures[name]
        tables = _dump(d, f"fixture_{name.replace('%', 'm')}.json", alg)
        # Scans cover 6^6 assignments, the reductions 2^(5*2) program words.
        # S3 is not nilpotent, so the reductions do not apply to it.
        groups = [(6, (("csat", "scan"), ("ceqv", "scan"), ("ceqv", "meet")))]
        if name != "S3":
            groups.append((2, (("csat", "reduce"), ("ceqv", "reduce"))))
        for shape, make in (("holds", identity_equation), ("random", random_equation)):
            for k, strategies in groups:
                circ, e = make(rng, alg, k, 6)
                tag = f"{name.replace('%', 'm')}_{shape}_k{k}"
                f = _dump(d, f"eq_{tag}.json", circ)
                for problem, strategy in strategies:
                    jobs.append(
                        {
                            "id": f"solve/{problem}_{strategy}/{tag}",
                            "argv": [
                                "solve", problem, "--algebra", f"fixtures:{name}",
                                "--circuit", f, "--e", str(e), "--strategy", strategy,
                            ],
                            "expect": 0,
                            "check": {"kind": problem, "algebra": tables, "circuit": f, "e": e},
                        }
                    )
    return jobs


_MAKERS = {"compile": compile_jobs, "structure": structure_jobs, "solve": solve_jobs}


def write_workload(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the workload's input files for ``seed`` and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _MAKERS[workload](rng, Path(directory))
    _dump(directory, "jobs.json", jobs)
    return jobs
