"""Independent checks of the CLI's outputs.

Nothing here imports the package under test: every check recomputes its
answer from operation tables with numpy or by brute force.

- ``program_table``: a program's acceptance on all 2^n words.
- ``circuit_table``: a modular circuit's output on all 2^n words, read from
  the emitted JSON (AND, OR, MOD, SUMP and SUMPC gates).
- ``congruences``: every partition compatible with the operation tables.
- ``unary_clone``: the unary polynomial functions, by closure.
- ``cnf_table``: a CNF's value on all assignments.
- ``term_table``: an equation's left side on all assignments.

``check(job, rc, stdout, directory)`` judges one job's output and returns
the list of problems found; an empty list means the output is right.
Words are numbered with bit i of the row index as input bit i.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import numpy as np


def _load(directory: Path, name: str):
    return json.loads((Path(directory) / name).read_text())


def _bits(n: int) -> np.ndarray:
    """(2^n, n) array: row r holds the bits of r, least significant first."""
    rows = np.arange(1 << n, dtype=np.int64)
    return ((rows[:, None] >> np.arange(n)) & 1).astype(bool)


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------


def circuit_values(alg: dict, circ: dict, args: list[np.ndarray]) -> np.ndarray:
    """Values of an algebra circuit on columns of variable values."""
    size = alg["size"]
    tables = {op["name"]: np.asarray(op["table"], dtype=np.int64) for op in alg["ops"]}
    length = len(args[0]) if args else 1
    vals: list[np.ndarray] = []
    for node in circ["nodes"]:
        if node[0] == "var":
            vals.append(args[node[1]])
        elif node[0] == "const":
            vals.append(np.full(length, node[1], dtype=np.int64))
        else:
            idx = np.zeros(length, dtype=np.int64)
            for child in node[2]:
                idx = idx * size + vals[child]
            vals.append(tables[node[1]][idx])
    return vals[circ["output"]]


def program_values(prog: dict) -> np.ndarray:
    bits = _bits(prog["n"])
    args = [None] * prog["circuit"]["k"]
    for ins in prog["instructions"]:
        args[ins["var"]] = np.where(bits[:, ins["bit"]], ins["a1"], ins["a0"]).astype(np.int64)
    return circuit_values(prog["algebra"], prog["circuit"], args)


def program_table(prog: dict) -> np.ndarray:
    return np.isin(program_values(prog), prog["accepting"])


def circuit_table(cc: dict) -> np.ndarray:
    """Output column of a modular circuit; SUMP outputs come back as rows of
    vectors.  A SUMP/SUMPC coefficient matrix M acts on (b, ..., b), so
    only its row sums matter."""
    n = cc["inputs"]
    bits = _bits(n)
    vals: list[np.ndarray] = [bits[:, i].astype(np.int64) for i in range(n)]
    for gate in cc["gates"]:
        srcs = [(vals[s], mult) for s, mult in gate["wires"]]
        kind = gate["kind"]
        if kind == "AND":
            out = np.ones(1 << n, dtype=np.int64)
            for v, _ in srcs:
                out &= v
        elif kind == "OR":
            out = np.zeros(1 << n, dtype=np.int64)
            for v, _ in srcs:
                out |= v
        elif kind == "MOD":
            total = np.zeros(1 << n, dtype=np.int64)
            for v, mult in srcs:
                total += v * mult
            out = np.isin(total % gate["m"], gate["accepting"]).astype(np.int64)
        elif kind in ("SUMP", "SUMPC"):
            p = gate["p"]
            acc = np.tile(np.asarray(gate["offset"], dtype=np.int64), (1 << n, 1))
            for (v, mult), mat in zip(srcs, gate["coeffs"]):
                rowsum = np.asarray(mat, dtype=np.int64).sum(axis=1)
                acc += v[:, None] * mult * rowsum[None, :]
            acc %= p
            if kind == "SUMP":
                out = acc
            else:
                target = np.asarray(gate["target"], dtype=np.int64) % p
                out = np.all(acc == target, axis=1).astype(np.int64)
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        vals.append(out)
    return vals[cc["output"]]


def term_table(alg: dict, circ: dict) -> np.ndarray:
    """Values on all size^k assignments, first variable most significant."""
    size, k = alg["size"], circ["k"]
    rows = np.arange(size**k, dtype=np.int64)
    args = [(rows // size ** (k - 1 - i)) % size for i in range(k)]
    return circuit_values(alg, circ, args)


def term_at(alg: dict, circ: dict, point) -> int:
    args = [np.asarray([a], dtype=np.int64) for a in point]
    return int(circuit_values(alg, circ, args)[0])


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    n, clauses, pending = 0, [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            n = int(line.split()[2])
            continue
        for tok in line.split():
            if tok == "0":
                clauses.append(pending)
                pending = []
            else:
                pending.append(int(tok))
    return n, clauses


def cnf_table(n: int, clauses) -> np.ndarray:
    bits = _bits(n)
    ok = np.ones(1 << n, dtype=bool)
    for clause in clauses:
        sat = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            col = bits[:, abs(lit) - 1]
            sat |= col if lit > 0 else ~col
        ok &= sat
    return ok


# ---------------------------------------------------------------------------
# Congruences and unary polynomials
# ---------------------------------------------------------------------------


def _restricted_growth(n: int) -> np.ndarray:
    """Every partition of {0..n-1} as a block-label vector (first-occurrence
    labels), one per row."""
    rows = np.zeros((1, 1), dtype=np.int8)
    for _ in range(1, n):
        tops = rows.max(axis=1) + 1
        parts = []
        for label in range(int(tops.max()) + 1):
            keep = rows[tops >= label]
            col = np.full((len(keep), 1), label, dtype=np.int8)
            parts.append(np.hstack([keep, col]))
        rows = np.vstack(parts)
    return rows


def translations(alg: dict) -> np.ndarray:
    """The basic translations: each operation with all arguments but one
    fixed to constants, as rows of unary value tables."""
    n = alg["size"]
    out = []
    for op in alg["ops"]:
        r = op["arity"]
        table = np.asarray(op["table"], dtype=np.int64).reshape((n,) * r) if r else None
        for pos in range(r):
            moved = np.moveaxis(table, pos, -1).reshape(-1, n)
            out.extend(moved)
    return np.unique(np.asarray(out, dtype=np.int64).reshape(-1, n), axis=0)


def congruences(alg: dict) -> set[tuple[int, ...]]:
    """Compatible partitions as least-member vectors (class_of[x] is the
    least element of x's block)."""
    n = alg["size"]
    labels = _restricted_growth(n).astype(np.int64)
    # least member of each block: first position carrying that label
    first = np.argmax(labels[:, None, :] == np.arange(n)[None, :, None], axis=2)
    least = np.take_along_axis(first, labels, axis=1)
    ok = np.ones(len(labels), dtype=bool)
    for f in translations(alg):
        image = labels[:, f]  # label of f(x)
        image_of_least = np.take_along_axis(image, least, axis=1)
        ok &= np.all(image == image_of_least, axis=1)
    return {tuple(int(v) for v in row) for row in least[ok]}


def class_of(n: int, blocks) -> tuple[int, ...]:
    out = [0] * n
    for block in blocks:
        for x in block:
            out[x] = min(block)
    return tuple(out)


def _leq(a: tuple, b: tuple) -> bool:
    """a refines b."""
    return all(b[x] == b[a[x]] for x in range(len(a)))


def cover_pairs(parts: list[tuple]) -> set[tuple[int, int]]:
    out = set()
    for i, lo in enumerate(parts):
        for j, hi in enumerate(parts):
            if i == j or not _leq(lo, hi):
                continue
            if not any(
                m != lo and m != hi and _leq(lo, m) and _leq(m, hi) for m in parts
            ):
                out.add((i, j))
    return out


def unary_clone(alg: dict) -> set[tuple[int, ...]]:
    """Closure of the identity and the constants under the operations."""
    n = alg["size"]
    seen = {tuple(range(n))} | {(a,) * n for a in range(n)}
    frontier = set(seen)
    while frontier:
        funcs = np.asarray(sorted(seen), dtype=np.int64)
        new = np.asarray(sorted(frontier), dtype=np.int64)
        fresh = set()
        for op in alg["ops"]:
            r = op["arity"]
            table = np.asarray(op["table"], dtype=np.int64)
            if r == 0:
                fresh.add((int(table[0]),) * n)
                continue
            if r == 1:
                results = table[new]
            elif r == 2:
                left = (new[:, None, :] * n + funcs[None, :, :]).reshape(-1, n)
                right = (funcs[:, None, :] * n + new[None, :, :]).reshape(-1, n)
                idx = np.concatenate([left, right])
                results = table[idx]
            else:
                raise ValueError("operations of arity above 2 are not supported")
            fresh |= set(map(tuple, np.unique(results, axis=0).tolist()))
        frontier = fresh - seen
        seen |= frontier
    return seen


# ---------------------------------------------------------------------------
# Per-job checks
# ---------------------------------------------------------------------------


def _check_compile(check, doc, directory) -> list[str]:
    prog = _load(directory, check["program"])
    cc = doc["circuit"]
    problems = []
    if doc["n"] != prog["n"]:
        problems.append("reported n differs from the program")
    size = len(cc["gates"]) + sum(m for g in cc["gates"] for _, m in g["wires"])
    if doc["size"] != size or doc["gates"] != len(cc["gates"]):
        problems.append("reported size or gate count differs from the circuit")
    got = circuit_table(cc)
    if got.ndim != 1:
        problems.append("circuit output is vector-valued")
    elif not np.array_equal(got.astype(bool), program_table(prog)):
        problems.append("circuit truth table differs from the program")
    if doc.get("verified") is not True:
        problems.append("the CLI harness did not report verified: true")
    return problems


def _check_con(check, doc, directory) -> list[str]:
    alg = _load(directory, check["algebra"])
    n = alg["size"]
    listed = [class_of(n, e["blocks"]) for e in doc["elements"]]
    problems = []
    if [e["index"] for e in doc["elements"]] != list(range(len(listed))):
        problems.append("elements are not indexed 0..k-1")
    if len(set(listed)) != len(listed) or set(listed) != congruences(alg):
        problems.append("elements differ from the compatible partitions")
        return problems
    covers = {(c["lower"], c["upper"]) for c in doc["covers"]}
    if covers != cover_pairs(listed):
        problems.append("covers differ from the covering pairs of the elements")
    return problems


def _check_localize(check, doc, directory) -> list[str]:
    alg = _load(directory, check["algebra"])
    n = alg["size"]
    lo = class_of(n, check["lower"])
    hi = class_of(n, check["upper"])
    clone = unary_clone(alg)
    hi_pairs = [(a, b) for a, b in combinations(range(n), 2) if hi[a] == hi[b]]

    def separates(f) -> bool:
        return any(lo[f[a]] != lo[f[b]] for a, b in hi_pairs)

    images = {frozenset(f) for f in clone if separates(f)}
    minimal = {u for u in images if not any(o < u for o in images)}
    problems = []
    listed = [frozenset(ms["universe"]) for ms in doc["minimal_sets"]]
    if set(listed) != minimal or len(listed) != len(minimal):
        problems.append("minimal sets differ from the minimal separating ranges")
    for ms in doc["minimal_sets"]:
        u = frozenset(ms["universe"])
        w = tuple(ms["witness"])
        if w not in clone or frozenset(w) != u or not separates(w):
            problems.append(f"witness for {sorted(u)} is not a separating polynomial onto it")
        idem = ms["idempotent"]
        if idem is None:
            if any(frozenset(f) == u and all(f[f[x]] == f[x] for x in range(n)) for f in clone):
                problems.append(f"an idempotent onto {sorted(u)} exists but none was reported")
        elif (
            tuple(idem) not in clone
            or frozenset(idem) != u
            or any(idem[idem[x]] != idem[x] for x in range(n))
        ):
            problems.append(f"idempotent for {sorted(u)} is wrong")
        want = sorted(
            sorted(block)
            for block in (
                [x for x in sorted(u) if hi[x] == c] for c in sorted({hi[x] for x in u})
            )
            if len({lo[x] for x in block}) > 1
        )
        if ms["traces"] != want:
            problems.append(f"traces of {sorted(u)} are wrong")
    return problems


def _check_twoprime(check, doc, directory) -> list[str]:
    err = doc.get("error")
    if doc.get("kind") != "witness-failure" or not isinstance(err, dict):
        return ["expected a witness-failure document"]
    if not err.get("stage") or not err.get("detail"):
        return ["witness failure lacks its stage or detail"]
    return []


def _check_lattice(check, doc, directory) -> list[str]:
    n, clauses = parse_dimacs((Path(directory) / check["cnf"]).read_text())
    prog = _load(directory, check["program"])
    problems = []
    if (doc["cnf_vars"], doc["clauses"], doc["n"]) != (n, len(clauses), n):
        problems.append("reported CNF or program dimensions are wrong")
    if doc.get("out") != check["program"]:
        problems.append("program not reported as written")
    if not np.array_equal(program_table(prog), cnf_table(n, clauses)):
        problems.append("program does not accept exactly the satisfying words")
    return problems


def _check_progcsat(check, doc, directory) -> list[str]:
    n, clauses = parse_dimacs((Path(directory) / check["cnf"]).read_text())
    table = cnf_table(n, clauses)
    want = "sat" if table.any() else "unsat"
    if doc["status"] != want:
        return [f"status {doc['status']!r}, expected {want!r}"]
    if want == "sat":
        word = doc.get("witness")
        if word is None or len(word) != n:
            return ["sat without a full witness word"]
        if not table[sum(b << i for i, b in enumerate(word))]:
            return ["witness word does not satisfy the CNF"]
    return []


def _check_equation(check, doc, directory) -> list[str]:
    alg = _load(directory, check["algebra"])
    circ = _load(directory, check["circuit"])
    e = check["e"]
    table = term_table(alg, circ)
    if check["kind"] == "csat":
        want = "sat" if (table == e).any() else "unsat"
        field, agrees = "witness", lambda v: v == e
    else:
        want = "holds" if (table == e).all() else "fails"
        field, agrees = "counterexample", lambda v: v != e
    if doc["status"] != want:
        return [f"status {doc['status']!r}, expected {want!r}"]
    if doc.get("level") == "program":
        # The reduction reports a word of its own program: only its length
        # is independent of the construction.
        word = doc.get("witness", doc.get("program_word"))
        if word is not None and len(word) != circ["k"] * (alg["size"] - 1):
            return ["program word has the wrong length"]
        return []
    if want in ("sat", "fails"):
        point = doc.get(field)
        if point is None or len(point) != circ["k"]:
            return [f"{want} without a full {field}"]
        if not agrees(term_at(alg, circ, point)):
            return [f"{field} {point} does not re-check"]
    return []


CHECKS = {
    "compile": _check_compile,
    "con": _check_con,
    "localize": _check_localize,
    "twoprime": _check_twoprime,
    "lattice": _check_lattice,
    "progcsat": _check_progcsat,
    "csat": _check_equation,
    "ceqv": _check_equation,
}


def check(job: dict, rc, stdout: str, directory: Path) -> list[str]:
    if rc != job["expect"]:
        return [f"exit code {rc}, expected {job['expect']}"]
    try:
        doc = json.loads(stdout)
        return CHECKS[job["check"]["kind"]](job["check"], doc, directory)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
