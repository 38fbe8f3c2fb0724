"""Program-to-circuit compilation and the module/quotient representation."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest

from conftest import (
    count_lattices,
    count_quotient_algebras,
    count_root_structures,
    variable_circuit,
)
from nudfa import congruence, lowering, modcircuit, programs
from nudfa import compile as compile_module
from nudfa.algebra import FiniteAlgebra, make_op, quotient_algebra
from nudfa.circuits import CircuitBuilder
from nudfa.cli import main
from nudfa.compile import (
    HypothesisViolation,
    central_representation,
    compile_nilpotent,
    compile_supernilpotent,
)
from nudfa.congruence import all_congruences, structure
from nudfa.fixtures import demo_program, get_fixture
from nudfa.limits import Budget
from nudfa.modcircuit import cc_truth_table, validate_shape
from nudfa.partitions import Partition
from nudfa.programs import AlgProgram, Instruction, truth_table

ETA = Partition.from_blocks(6, [{0, 2, 4}, {1, 3, 5}])


def assert_compiled_matches(circuit, program):
    assert [bool(v) for v in cc_truth_table(circuit)] == truth_table(program)
    ok, problems = validate_shape(circuit)
    assert ok, problems


# -- the supernilpotent path -------------------------------------------------


def test_supernilpotent_compile_of_the_conjunction_demo():
    prog = demo_program("and2_z6")
    circuit, report = compile_supernilpotent(prog)
    assert_compiled_matches(circuit, prog)
    assert circuit.declared_shape == "AND(2)∘MOD(6)∘OR(1)"
    assert report.verified is True


def test_supernilpotent_compile_of_the_parity_demo():
    prog = demo_program("parity2_z2")
    circuit, _ = compile_supernilpotent(prog)
    assert_compiled_matches(circuit, prog)
    assert circuit.declared_shape == "AND(1)∘MOD(2)∘OR(1)"


def test_supernilpotent_compile_refuses_the_marked_algebra():
    with pytest.raises(HypothesisViolation):
        compile_supernilpotent(demo_program("and2_z6%2"))


# -- the nilpotent path ------------------------------------------------------


def test_nilpotent_compile_of_the_marked_demo():
    prog = demo_program("and2_z6%2")
    circuit, reports = compile_nilpotent(prog)
    assert_compiled_matches(circuit, prog)
    assert circuit.declared_shape == "AND(1)∘MOD(2)∘MOD(3)"
    names = [r.pass_name for r in reports]
    assert names[0].startswith("base_cache")
    assert names[1].startswith("descend_assemble")
    assert "collapse_5to3" in names
    assert any(n.startswith("apply_func") for n in names)


def test_nilpotent_compile_also_handles_plain_modules():
    """Z6 is supernilpotent, so its program gets the AND∘MOD∘OR circuit of
    ``compile_supernilpotent`` with that pass's one report."""
    prog = demo_program("and2_z6")
    circuit, reports = compile_nilpotent(prog)
    assert_compiled_matches(circuit, prog)
    base, report = compile_supernilpotent(prog)
    assert (circuit, reports) == (base, [report])


def test_nilpotent_compile_refuses_non_nilpotent_algebras():
    with pytest.raises(HypothesisViolation):
        compile_nilpotent(demo_program("or2_lat2"))


def test_descent_reads_instruction_bits_directly(monkeypatch):
    """x0 + x1 over Z6%2 with each bit choosing 0 or 2 moves only the
    module part, so the descent wires both input bits through one-atom
    circuits (``_atom_circuit``), and every base indicator is a constant;
    accepting {2} leaves the words with one bit set."""
    bits = []
    atom_circuit = compile_module._atom_circuit

    def recording(n, m, p, coeffs, accepting):
        bits.extend(mask.bit_length() - 1 for mask in coeffs)
        return atom_circuit(n, m, p, coeffs, accepting)

    monkeypatch.setattr(compile_module, "_atom_circuit", recording)
    b = CircuitBuilder(2)
    prog = AlgProgram(
        get_fixture("Z6%2").algebra, b.finish(b.gate("+", b.var(0), b.var(1))),
        2, (Instruction(0, 0, 0, 2), Instruction(1, 1, 0, 2)), frozenset({2}),
    )
    circuit, _ = compile_nilpotent(prog)
    assert bits == [0, 1]
    assert truth_table(prog) == [False, True, True, False]
    assert_compiled_matches(circuit, prog)


def z12_mod3() -> FiniteAlgebra:
    add = make_op("+", 2, 12, lambda x, y: (x + y) % 12)
    return FiniteAlgebra("Z12%3", 12, (add, make_op("%3", 1, 12, lambda x: x % 3)))


def parity_sum(algebra: FiniteAlgebra, mod: str, n: int) -> AlgProgram:
    """The sum of mod(x_i + x_{i+1}) over i = 0, 2, 4, ..., accepting {2}."""
    b = CircuitBuilder(n)
    terms = [
        b.gate(mod, b.gate("+", b.var(i), b.var(i + 1))) for i in range(0, n - 1, 2)
    ]
    out = terms[0]
    for term in terms[1:]:
        out = b.gate("+", out, term)
    return AlgProgram(
        algebra, b.finish(out), n,
        tuple(Instruction(i, i, 0, 1) for i in range(n)), frozenset({2}),
    )


def test_the_descent_runs_down_a_chain_of_length_two(monkeypatch):
    """Over Z12 with x -> x mod 3 the one characteristic below the
    supernilpotent quotient is 2, and the chain from 0 to the congruence
    mod 3 is 0 < mod 6 < mod 3, so the descent has h = 2 levels where every
    fixture has one.  The lattice lies above the default universe cap, and
    the Malcev term is built: the search exceeds its table cap.  Every
    level reads Z12%3's one Structure, under the caller's budget, or a
    view of it, so one lattice is built."""
    chains = []
    maximal_chain = compile_module._maximal_chain
    monkeypatch.setattr(
        compile_module, "_maximal_chain",
        lambda *args: chains.append(maximal_chain(*args)) or chains[-1],
    )
    prog = parity_sum(z12_mod3(), "%3", 4)
    monkeypatch.setattr(congruence, "_STRUCTURES", {})  # a fresh run
    quotients = count_quotient_algebras(monkeypatch)
    lattices = count_lattices(monkeypatch)
    roots = count_root_structures(monkeypatch)
    circuit, reports = compile_nilpotent(prog, Budget(lattice_universe=12))
    assert [len(chain) - 1 for chain in chains] == [2]
    assert len(quotients) == 2  # one program over A/gamma_j per level j > 0
    assert (len(lattices), len(roots)) == (1, 1)
    assert all(r.verified is True for r in reports)
    assert_compiled_matches(circuit, prog)


def test_each_module_part_is_computed_once(monkeypatch):
    """The plan computes the module part of each (level, node) once, and
    the descents of all the node's targets read it: the Z12%3 compile at
    n = 4 runs 14 descents on 4 module parts."""
    calls = []
    module_part = compile_module._module_part

    def recording(program, node, rep, budget):
        calls.append((id(rep), node))
        return module_part(program, node, rep, budget)

    monkeypatch.setattr(compile_module, "_module_part", recording)
    prog = parity_sum(z12_mod3(), "%3", 4)
    circuit, reports = compile_nilpotent(prog, Budget(lattice_universe=12))
    assert len(calls) == len(set(calls)) == 4
    assert sum(r.pass_name.startswith("descend_assemble") for r in reports) == 14
    assert circuit.size == 2283
    assert_compiled_matches(circuit, prog)


def test_a_correction_table_its_coefficients_miss_is_refused(monkeypatch):
    """An entry of +'s correction table raised by p is the same element of
    Z_p, so its Moebius coefficients do not change; summing them over the
    subsets of that row gives the reduced entry, not the table's, and the
    descent refuses the table."""
    represent = compile_module.central_representation

    def corrupted(*args):
        rep = represent(*args)
        rep.hat["+"][1, 1, 0] += rep.p
        return rep

    monkeypatch.setattr(compile_module, "central_representation", corrupted)
    prog = parity_sum(get_fixture("Z6%2").algebra, "%2", 4)
    with pytest.raises(AssertionError, match="correction coefficients miss its table"):
        compile_nilpotent(prog)


class ReadStore(dict):
    """A copy of one level's indicator store that records the keys read."""

    def __init__(self, store):
        super().__init__(store)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize(
    "algebra, mod, n, budget, h, base, passes, size",
    [
        (get_fixture("Z6%2").algebra, "%2", 10, Budget(), 1, 17, 1, 253),
        (z12_mod3(), "%3", 4, Budget(lattice_universe=12), 2, 7, 14, 2283),
        (z12_mod3(), "%3", 2, Budget(lattice_universe=12), 2, 1, 2, 7),
    ],
    ids=["Z6%2-10", "Z12%3-4", "Z12%3-2"],
)
def test_every_indicator_the_descent_builds_is_read_above(
    monkeypatch, algebra, mod, n, budget, h, base, passes, size
):
    """Each level's store, the base's included, holds only the (node,
    target) indicators that the descents of the level above read, and the
    circuit still matches the program."""
    stores = {}  # id of a level's store -> (the store, its recording copy)
    descend = compile_module.descend_mod_beta

    def recording(program, node, target, rep, cache, *rest, **kw):
        _, copy = stores.setdefault(id(cache), (cache, ReadStore(cache)))
        return descend(program, node, target, rep, copy, *rest, **kw)

    monkeypatch.setattr(compile_module, "descend_mod_beta", recording)
    prog = parity_sum(algebra, mod, n)
    circuit, reports = compile_nilpotent(prog, budget)
    names = [r.pass_name for r in reports]
    assert names[0] == f"base_cache[{base} entries]"
    assert sum(name.startswith("descend_assemble") for name in names) == passes
    assert len(stores) == h  # the base's first
    for _, copy in stores.values():
        assert copy.read == copy.keys()
    assert len(next(iter(stores.values()))[1]) == base
    assert circuit.size == size
    assert all(r.verified is True for r in reports)
    assert_compiled_matches(circuit, prog)


def test_the_descent_adds_a_constant_node_into_the_offset(monkeypatch):
    """x0 + 3 + %2(x1 + x2) over Z6%2: the constant 3 has module part 1
    in Z_3, which the descent adds into the offset of the node's affine
    form."""
    b = CircuitBuilder(3)
    three = b.const(3)
    out = b.gate(
        "+", b.gate("+", b.var(0), three),
        b.gate("%2", b.gate("+", b.var(1), b.var(2))),
    )
    prog = AlgProgram(
        get_fixture("Z6%2").algebra, b.finish(out), 3,
        tuple(Instruction(i, i, 0, 1) for i in range(3)), frozenset({4}),
    )
    weights = []
    coefficients = compile_module.path_coefficients

    def recording(circuit, rep, root=None):
        coeff, variables = coefficients(circuit, rep, root)
        weights.append((coeff[three] @ rep.mcoords[3] % rep.p).any())
        return coeff, variables

    monkeypatch.setattr(compile_module, "path_coefficients", recording)
    circuit, _ = compile_nilpotent(prog)
    assert weights and all(weights)
    assert circuit.size == 13
    assert truth_table(prog) == [False, True, True, False, True, False, False, True]
    assert_compiled_matches(circuit, prog)


class IngestMemo(dict):
    """An ingestion memo that counts its hits, or that never finds a key."""

    def __init__(self, forget: bool):
        super().__init__()
        self.forget = forget
        self.hits = 0

    def get(self, key, default=None):
        if self.forget or key not in self:
            return default
        self.hits += 1
        return self[key]


@pytest.mark.parametrize(
    "algebra, mod, n, budget, size",
    [
        (get_fixture("Z6%2").algebra, "%2", 8, Budget(), 59),
        (z12_mod3(), "%3", 2, Budget(lattice_universe=12), 7),
    ],
    ids=["Z6%2-8", "Z12%3-2"],
)
def test_the_ingestion_memo_only_saves_time(
    monkeypatch, algebra, mod, n, budget, size
):
    """A memo that never finds a circuit gives the same circuit and the same
    pass reports as one that is read.  Z12%3 descends h = 2 levels."""
    prog = parity_sum(algebra, mod, n)
    runs = []
    for memo in (IngestMemo(forget=False), IngestMemo(forget=True)):
        monkeypatch.setattr(lowering, "_INGEST_CACHE", memo)
        circuit, reports = compile_nilpotent(prog, budget)
        assert circuit.size == size
        runs.append((circuit.to_json(), reports, memo.hits))
    (cached, cached_reports, hits), (forgot, forgot_reports, _) = runs
    assert hits > 0
    assert (forgot, forgot_reports) == (cached, cached_reports)


class OrderedMemo(dict):
    """An ingestion memo that lists every key it is given, in order."""

    def __init__(self):
        super().__init__()
        self.added = []

    def __setitem__(self, key, value):
        self.added.append(key)
        super().__setitem__(key, value)


def test_the_ingestion_memo_keeps_its_newest_entries(monkeypatch):
    """Past ``modcircuit.TABLE_MEMO_ENTRIES`` the oldest ingested circuit
    goes first; a compile under a cap of 2 holds the two newest and builds
    the circuit and reports of an unbounded memo."""
    prog = parity_sum(get_fixture("Z6%2").algebra, "%2", 8)
    monkeypatch.setattr(lowering, "_INGEST_CACHE", {})
    circuit, reports = compile_nilpotent(prog, Budget())
    memo = OrderedMemo()
    monkeypatch.setattr(lowering, "_INGEST_CACHE", memo)
    monkeypatch.setattr(modcircuit, "TABLE_MEMO_ENTRIES", 2)
    capped, capped_reports = compile_nilpotent(prog, Budget())
    assert len(memo.added) > 2 and list(memo) == memo.added[-2:]
    assert (capped.to_json(), capped_reports) == (circuit.to_json(), reports)


# -- the central representation ---------------------------------------------


def represent(algebra, beta, e, malcev):
    """The representation along beta, with A/beta built from the algebra."""
    return central_representation(algebra, *quotient_algebra(algebra, beta), e, malcev)


@pytest.fixture(scope="module")
def marked_rep():
    fx = get_fixture("Z6%2")
    return represent(fx.algebra, ETA, 0, structure(fx.algebra).malcev)


def test_representation_parameters(marked_rep):
    rep = marked_rep
    assert (rep.p, rep.nu) == (3, 1)
    assert [x for x in range(6) if rep.proj[x] == rep.proj[0]] == [0, 2, 4]
    assert rep.quotient.size == 2
    assert sorted(set(map(tuple, rep.mcoords.tolist()))) == [(0,), (1,), (2,)]


def test_encode_decode_round_trip(marked_rep):
    """x -> (coordinates of its module part, class) is injective, so the
    descent's encoding of an element can be decoded."""
    rep = marked_rep
    pairs = {(tuple(rep.mcoords[x].tolist()), rep.proj[x]) for x in range(rep.D.size)}
    assert len(pairs) == rep.D.size


def test_operations_act_affinely_on_the_module(marked_rep):
    rep = marked_rep
    assert rep.alpha["+"].tolist() == [[[1]], [[1]]]
    assert rep.alpha["%2"].tolist() == [[[0]]]
    assert rep.hat["+"][1, 1].tolist() == rep.mcoords[2].tolist()
    for op in rep.D.ops:
        mats = rep.alpha[op.name]
        for dbar in itertools.product(range(rep.D.size), repeat=op.arity):
            val = rep.D.eval_op(op.name, dbar)
            acc = rep.hat[op.name][tuple(rep.proj[d] for d in dbar)]
            for mat, d in zip(mats, dbar):
                acc = (acc + mat @ rep.mcoords[d]) % rep.p
            assert rep.mcoords[val].tolist() == acc.tolist()
            assert rep.proj[val] == rep.quotient.eval_op(
                op.name, [rep.proj[d] for d in dbar]
            )


def test_representation_checks_the_projection():
    """The projection must map D onto the quotient, and be a homomorphism:
    with the labels of Z6%2 mod 2 swapped its kernel is still a
    congruence, but + no longer commutes with it."""
    fx = get_fixture("Z6%2")
    malcev = structure(fx.algebra).malcev
    quo, proj = quotient_algebra(fx.algebra, ETA)
    for bad in (proj[:5], (0,) * 6):
        with pytest.raises(ValueError, match="not a map of D onto the quotient"):
            central_representation(fx.algebra, quo, bad, 0, malcev)
    swapped = tuple(1 - c for c in proj)
    with pytest.raises(HypothesisViolation, match="representation identity fails"):
        central_representation(fx.algebra, quo, swapped, 0, malcev)


def test_representation_rejects_a_misplaced_anchor():
    fx = get_fixture("Z6%2")
    with pytest.raises(ValueError):
        represent(fx.algebra, ETA, 2, structure(fx.algebra).malcev)


def test_representation_rejects_a_non_difference_circuit():
    fx = get_fixture("Z6%2")
    with pytest.raises(ValueError):
        represent(fx.algebra, ETA, 0, variable_circuit(3, 0))


def test_representation_rejects_non_abelian_congruences():
    fx = get_fixture("S3")
    malcev = structure(fx.algebra).malcev
    assert malcev is not None  # groups always have one
    lat = all_congruences(fx.algebra)
    with pytest.raises(HypothesisViolation):
        represent(fx.algebra, lat.one, 0, malcev)


def test_representation_rejects_a_module_that_is_not_elementary():
    """The total congruence of Z6 has a block of size 6, and that of Z4 a
    group of exponent 4: neither block is a vector space over a prime
    field."""
    for name, message in [
        ("Z6", "not a prime power"), ("Z4", "coordinates do not respect addition"),
    ]:
        alg = get_fixture(name).algebra
        total = Partition.from_blocks(alg.size, [set(alg.elements)])
        with pytest.raises(HypothesisViolation, match=message):
            represent(alg, total, 0, structure(alg).malcev)


def z3_squared_times_z2() -> FiniteAlgebra:
    """Z3^2 x Z2, coded 6*a1 + 2*a2 + b, with addition, the rotation
    r(a1, a2, b) = (-a2, a1, b), irreducible over GF(3), and
    %2(a1, a2, b) = (b, 0, b)."""

    def split(x):
        return x // 6, x // 2 % 3, x % 2

    def code(a1, a2, b):
        return 6 * (a1 % 3) + 2 * (a2 % 3) + b % 2

    ops = (
        make_op("+", 2, 18, lambda x, y: code(*(
            u + v for u, v in zip(split(x), split(y))
        ))),
        make_op("r", 1, 18, lambda x: code(-split(x)[1], split(x)[0], split(x)[2])),
        make_op("%2", 1, 18, lambda x: code(x % 2, 0, x % 2)),
    )
    return FiniteAlgebra("Z3^2xZ2", 18, ops)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_the_descent_over_a_module_of_dimension_two(n, monkeypatch):
    """Over Z3^2 x Z2 the atom is the Z3^2 block, a module of dimension
    nu = 2 on which r acts by a matrix that is not symmetric, so a
    transposed alpha would show.  The parity-sum through r, the sum of
    r(%2(x_i + x_{i+1})) over i = 0, 2, ..., is compiled and matched with
    the program's truth table."""
    alg = z3_squared_times_z2()
    budget = Budget(lattice_universe=18)
    s = structure(alg, budget)
    assert len(s.lattice.elements) == 3
    beta = s.lattice.elements[1]
    rep = represent(alg, beta, 0, s.malcev)
    assert (rep.p, rep.nu) == (3, 2)
    assert rep.alpha["r"].tolist() == [[[0, 1], [2, 0]]]

    nus = []
    descend = compile_module.descend_mod_beta
    monkeypatch.setattr(
        compile_module, "descend_mod_beta",
        lambda *args, **kw: nus.append(args[3].nu) or descend(*args, **kw),
    )
    b = CircuitBuilder(n)
    terms = [
        b.gate("r", b.gate("%2", b.gate("+", b.var(i), b.var(i + 1))))
        for i in range(0, n, 2)
    ]
    acc = terms[0]
    for t in terms[1:]:
        acc = b.gate("+", acc, t)
    prog = AlgProgram(
        alg, b.finish(acc), n,
        tuple(Instruction(i, i, 0, 1) for i in range(n)), frozenset({3}),
    )
    circuit, reports = compile_nilpotent(prog, budget)
    assert nus and set(nus) == {2}
    assert all(r.verified is True for r in reports)
    assert_compiled_matches(circuit, prog)


# -- one copy of each table per compile ---------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


def _compile_golden(name: str) -> dict:
    argv = ["compile", "--program", f"inputs/{name}.json", "--verify-n", "20"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    assert buf.getvalue() == (GOLDEN / "expected" / f"compile_{name}.out").read_text()
    return json.loads(buf.getvalue())


@pytest.mark.parametrize("name", ["parity_sum_z6m2_10", "count_ones_z6_14"])
def test_a_compile_evaluates_each_whole_table_once(name, monkeypatch):
    """Every check of a circuit, the CLI harness's included, reads the one
    table the first check computed; the program's table is built once."""
    monkeypatch.chdir(GOLDEN)
    blocks = []
    block = modcircuit._cc_block

    def counted(circuit, rows, readers):
        blocks.append((circuit, int(rows[0])))
        return block(circuit, rows, readers)

    monkeypatch.setattr(modcircuit, "_cc_block", counted)
    program_blocks = []
    columns = programs.eval_columns
    monkeypatch.setattr(
        programs, "eval_columns",
        lambda *a: program_blocks.append(1) or columns(*a),
    )
    doc = _compile_golden(name)
    assert doc["verified"] is True and all(r["verified"] for r in doc["passes"])
    assert len(blocks) > 1 and len(set(blocks)) == len(blocks)
    assert len(program_blocks) == -(-(1 << doc["n"]) // modcircuit.TABLE_BLOCK)


@pytest.mark.parametrize("name", ["parity_sum_z6m2_10", "count_ones_z6_14"])
def test_one_transform_per_node_table_and_prime(name, monkeypatch):
    """The indicators of all classes of one node table under one prime come
    from one Moebius transform."""
    monkeypatch.chdir(GOLDEN)
    pairs = set()
    indicators = compile_module._combined_indicators

    def recording(polys, table, targets, dec, *rest):
        pairs.update((table.tobytes(), pj) for pj in dec.primes)
        return indicators(polys, table, targets, dec, *rest)

    transforms = []
    transform = compile_module.moebius_transform

    def counted(table, p):
        """Counts the indicator tables (boolean) and not the correction
        tables, which go through the same name."""
        transforms.extend([1] * (table.dtype == bool))
        return transform(table, p)

    monkeypatch.setattr(compile_module, "_combined_indicators", recording)
    monkeypatch.setattr(compile_module, "moebius_transform", counted)
    _compile_golden(name)
    assert len(pairs) > 1 and len(transforms) == len(pairs)

