"""Program-to-modular-circuit compiler for nilpotent Malcev algebras.

Two entry points:

- :func:`compile_supernilpotent` turns a program over a supernilpotent
  algebra into an AND∘MOD(pdiv)∘OR circuit: split the algebra into
  prime-power factors, interpolate each factor's acceptance indicator over
  its prime field, and recombine the polynomials into a single MOD gate per
  accepting element.

- :func:`compile_nilpotent` handles the wider nilpotent class whose
  characteristics below the least supernilpotent quotient form a single
  prime {p}.  It compiles the supernilpotent top quotient as a base case,
  then walks a maximal congruence chain downward.  Each step splits the
  current algebra as module-times-quotient along an abelian atom (a
  :class:`CentralRep`), writes the module component of every circuit value
  as an affine combination of instruction bits and per-gate correction
  terms, lowers those through indicator circuits from the previous level,
  and glues with the quotient circuit.  The output shape is
  AND∘MOD(m)∘MOD(p) with m the squarefree part of the quotient order.

Every constructed representation is verified pointwise on all tuples, and
every emitted circuit is checked against its truth-table oracle whenever
the input word is narrow enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .algebra import FiniteAlgebra, malcev_addition, verify_malcev
from .circuits import AlgCircuit, CONST, GATE, VAR, _reachable, eval_columns
from .congruence import (
    CongruenceLattice,
    charr_set,
    commutator,
    is_nilpotent_congruence,
    is_pupi,
    is_supernilpotent_algebra,
    is_supernilpotent_congruence,
    prime_power_decomposition,
    structure,
)
from .fieldpoly import (
    MultilinearPoly,
    accumulate,
    coefficient_poly,
    mask_bits,
    moebius_transform,
    monomial_key,
    pdiv,
    prime_divisors,
)
from .limits import Budget, charge, default_budget
from . import lowering
from .lowering import (
    AtomPool,
    PassReport,
    _verify_tables,
    apply_func,
    collapse_5to3,
    emit_modsum,
    make_atom,
    monomial_gates,
)
from .modcircuit import (
    AND,
    MOD,
    OR,
    SUMPC,
    CCircuit,
    Gate,
    shape_of,
    validate_shape,
)
from .partitions import Partition
from .programs import (
    AlgProgram,
    map_circuit_constants,
    quotient_program,
)


class HypothesisViolation(Exception):
    """The input algebra falls outside the compilable class."""


# ---------------------------------------------------------------------------
# Central representations along an abelian atom, as arrays over Z_p
# ---------------------------------------------------------------------------


@dataclass
class CentralRep:
    """Split of an algebra D as (module M) x (quotient D') along an atom.

    M is the atom block of the anchor, an elementary abelian p-group of
    dimension nu under x + y = d(x, e, y).  Every basic operation then acts
    as f(d1..dr) = (sum alpha_i . d_i^M  +  hat_f(classes), f'(classes)):
    the alpha matrices and hat tables are extracted from the operation
    tables and the whole identity is re-checked on every tuple.  All three
    are int64 arrays with entries in 0..p-1: ``mcoords`` has shape
    (|D|, nu), ``alpha[op]`` shape (r, nu, nu), column t of matrix i being
    the image of basis element t in argument i, and ``hat[op]`` shape
    (|D'|,) * r + (nu,).
    """

    D: FiniteAlgebra
    p: int
    nu: int
    quotient: FiniteAlgebra
    proj: tuple[int, ...]  # D -> D' class indices
    mcoords: np.ndarray  # element of D -> coords of its M-part
    alpha: dict[str, np.ndarray]
    hat: dict[str, np.ndarray]
    # each operation's correction term over its arguments' class indicators,
    # made once per level: row S holds the coefficients of monomial S
    lowered: dict[str, np.ndarray] = field(default_factory=dict)


def central_representation(
    D: FiniteAlgebra,
    quotient: FiniteAlgebra,
    proj: Sequence[int],
    e: int,
    malcev: AlgCircuit,
) -> CentralRep:
    """Build and exhaustively verify the module/quotient split of D along
    beta, the kernel of the map ``proj`` of D onto ``quotient``.

    The block M of e is read as a group through one table of
    x + y = d(x, e, y), and p is the one prime dividing |M|.  Greedy
    generators give coordinates in Z_p^nu; they are checked to be a
    bijection onto Z_p^nu that turns + into vector addition, with every
    sum inside M.  So (M, +) is isomorphic to Z_p^nu, which gives every
    group axiom, e as the zero and exponent p.  The representation
    identity is checked on every tuple, proj(f(d)) = f(proj(d)) included,
    so ``proj`` is verified to be a homomorphism onto ``quotient``, which
    the caller may have built from another algebra.  D has no Structure,
    so the uncached ``commutator`` checks beta abelian.
    """
    if not verify_malcev(D, malcev):
        raise ValueError("the supplied circuit is not a Malcev polynomial")
    if len(proj) != D.size or set(proj) != set(range(quotient.size)):
        raise ValueError("the projection is not a map of D onto the quotient")
    transversal: dict[int, int] = {}  # class -> its least member
    beta = Partition(tuple(transversal.setdefault(c, x) for x, c in enumerate(proj)))
    if not commutator(D, beta, beta).is_identity():
        raise HypothesisViolation("the congruence is not abelian")
    n, s = D.size, quotient.size
    classes_of = np.asarray(proj)
    lifts = np.array([transversal[c] for c in range(s)])
    module = np.flatnonzero(classes_of == proj[e])
    if e != module[0]:
        raise ValueError("the anchor must be the least element of its block")
    primes = prime_divisors(len(module))
    if len(primes) != 1:
        raise HypothesisViolation(
            f"module block has size {len(module)}, not a prime power"
        )
    p = primes[0]
    add = malcev_addition(D, malcev, e)
    sums = add[np.ix_(module, module)]
    if not np.isin(sums, module).all():
        raise HypothesisViolation("pseudo-addition leaves the module block")

    # greedy independent generators of (M, +), then the element at each
    # coefficient vector: the generators added on to e in order
    span = np.zeros(n, bool)
    span[e] = True
    basis: list[int] = []
    for x in module.tolist():
        if not span[x]:
            basis.append(x)
            grown = np.flatnonzero(span)
            for _ in range(p - 1):
                grown = add[grown, x]
                span[grown] = True
    nu = len(basis)
    combos = np.indices((p,) * nu).reshape(nu, -1).T
    elts = np.full(len(combos), e)
    for j, b in enumerate(basis):
        for c in range(1, p):
            elts = np.where(combos[:, j] >= c, add[elts, b], elts)
    if len(combos) != len(module) or len(set(elts.tolist())) != len(module):
        raise HypothesisViolation("coordinates are not a bijection onto Z_p^nu")
    coords = np.zeros((n, nu), np.int64)
    coords[elts] = combos
    mc = coords[module]
    if not ((mc[:, None] + mc[None, :]) % p == coords[sums]).all():
        raise HypothesisViolation("coordinates do not respect addition")

    # x = d(m(x), e, t(x)) with m(x) = d(x, t(x), e), t(x) the least
    # element of the class of x
    ts = lifts[classes_of]
    es = np.full(n, e)
    mpart = eval_columns(D, malcev, np.stack([np.arange(n), ts, es]))
    escaped = np.flatnonzero(~np.isin(mpart, module))
    if escaped.size:
        raise HypothesisViolation(f"module part of {escaped[0]} escapes the block")
    back = eval_columns(D, malcev, np.stack([mpart, es, ts]))
    wrong = np.flatnonzero(back != np.arange(n))
    if wrong.size:
        raise HypothesisViolation(f"encode/decode fails at {wrong[0]}")
    mcoords = coords[mpart]

    alpha: dict[str, np.ndarray] = {}
    hat: dict[str, np.ndarray] = {}
    for op in D.ops:
        r = op.arity
        table = np.asarray(op.table)
        place = n ** np.arange(r - 1, -1, -1)  # row-major weights of a tuple
        cplace = s ** np.arange(r - 1, -1, -1)
        cgrid = np.indices((s,) * r).reshape(r, s**r)
        hat_flat = mcoords[table[lifts[cgrid].T @ place]]
        hat[op.name] = hat_flat.reshape((s,) * r + (nu,))
        # decode(b, class of e) = d(b, e, e) = b: argument i is b, the rest e
        at_e = e * place.sum()
        moved = table[at_e + np.multiply.outer(place, np.array(basis) - e)]
        cols = (mcoords[moved] - mcoords[table[at_e]]) % p
        alpha[op.name] = mats = cols.transpose(0, 2, 1)

        # the representation identity, on every tuple: this is the hard gate
        grid = np.indices((n,) * r).reshape(r, n**r)
        cidx = classes_of[grid].T @ cplace
        want_cls = np.asarray(quotient.op(op.name).table)[cidx]
        acc = (hat_flat[cidx] + np.einsum("irt,ikt->kr", mats, mcoords[grid])) % p
        ok = (classes_of[table] == want_cls) & (mcoords[table] == acc).all(axis=1)
        if not ok.all():
            k = int(np.argmin(ok))
            raise HypothesisViolation(
                f"representation identity fails for {op.name} at "
                f"{tuple(grid[:, k].tolist())}: value {table[k]} vs "
                f"({tuple(acc[k].tolist())}, class {want_cls[k]})"
            )

    return CentralRep(
        D=D,
        p=p,
        nu=nu,
        quotient=quotient,
        proj=tuple(proj),
        mcoords=mcoords,
        alpha=alpha,
        hat=hat,
    )


def path_coefficients(
    circuit: AlgCircuit, rep: CentralRep, root: int
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Module-part weight of every node reachable from the root.

    The root weighs the identity; a gate passes weight W down to its i-th
    child as W @ alpha_i, summed over all paths (the DAG is hash-consed, so
    one node stands for every occurrence of its subterm).  Returns
    (per-node weights, per-variable-index weights).
    """
    reach = _reachable(circuit.nodes, root)
    coeff = {v: np.zeros((rep.nu, rep.nu), np.int64) for v in reach}
    coeff[root] = np.eye(rep.nu, dtype=np.int64)
    for v in reversed(reach):  # children precede their gates
        node = circuit.nodes[v]
        if node[0] == GATE:
            for child, a in zip(node[2], rep.alpha[node[1]]):
                coeff[child] = (coeff[child] + coeff[v] @ a) % rep.p
    variables = {
        circuit.nodes[v][1]: coeff[v]
        for v in reach
        if circuit.nodes[v][0] == VAR
    }
    return coeff, variables


# ---------------------------------------------------------------------------
# Supernilpotent base case
# ---------------------------------------------------------------------------


def _combined_indicators(
    polys: dict,
    value_table: np.ndarray,
    targets: Sequence[int],
    dec,
    m: int,
    delta: int,
    budget: Budget,
) -> list[tuple[dict[int, int], int]]:
    """Monomial coefficients mod m and accepted residue for [value == t],
    for each target t.

    Per prime-power factor, interpolate the factor indicators over GF(p_j),
    then recombine with the coprime weights m/p_j; the word is accepted
    exactly when the combined sum hits delta = sum of the weights.
    ``polys``, one compile's store, keeps each factor's class indicators
    under the factor and its table of classes, so one transform serves
    every class the call needs and every node with that table.
    """
    accs: list[dict[int, int]] = [{} for _ in targets]
    for j, pj in enumerate(dec.primes):
        proj = np.asarray(dec.projections[j])
        classes = proj.astype(np.min_scalar_type(proj.max()))[value_table]
        made = polys.setdefault((j, classes.tobytes()), {})
        wanted = [int(proj[t]) for t in targets]
        missing = sorted(set(wanted) - made.keys())
        if missing:
            coeffs = moebius_transform(classes[:, None] == missing, pj)
            for c, column in zip(missing, coeffs.T):
                made[c] = coefficient_poly(column, pj)
        for acc, c in zip(accs, wanted):
            for key, cf in made[c].terms.items():
                accumulate(acc, key, m // pj * cf, m)
    out = []
    for acc in accs:
        const = acc.pop(0, 0)
        charge(len(acc), budget.monomials, "base-case monomials")
        out.append((acc, (delta - const) % m))
    return out


def compile_supernilpotent(
    program: AlgProgram, budget: Optional[Budget] = None
) -> tuple[CCircuit, PassReport]:
    """Program over a supernilpotent algebra as AND∘MOD(pdiv)∘OR."""
    budget = budget or default_budget()
    A = program.algebra
    if A.size == 1:
        raise HypothesisViolation(
            f"{A.name} has one element, so no prime divides its size"
        )
    if not is_supernilpotent_algebra(A, budget):
        raise HypothesisViolation(f"{A.name} is not supernilpotent")
    dec = prime_power_decomposition(structure(A, budget), A.name)
    m = pdiv(A.size)
    delta = sum(m // pj for pj in dec.primes) % m

    if program.n > budget.truth_table_bits:
        raise ValueError("too many input bits for value tables")
    root_values = program.node_columns()[program.circuit.output]
    branches = _combined_indicators(
        {}, root_values, sorted(program.accepting), dec, m, delta, budget
    )

    n = program.n
    gates, mono_node = monomial_gates(n, {key for acc, _ in branches for key in acc})
    branch_nodes = []
    for acc, resid in branches:
        wires = tuple(
            (mono_node[key], acc[key]) for key in sorted(acc, key=monomial_key)
        )
        branch_nodes.append(n + len(gates))
        gates.append(
            Gate(kind=MOD, layer=2, wires=wires, m=m, accepting=frozenset({resid}))
        )
    gates.append(
        Gate(kind=OR, layer=3, wires=tuple((b, 1) for b in branch_nodes))
    )
    width = max((k.bit_count() for k in mono_node), default=1)
    circuit = CCircuit(
        inputs=n,
        gates=tuple(gates),
        output=n + len(gates) - 1,
        declared_shape=f"AND({width})∘MOD({m})∘OR({len(branches)})",
    )

    verified = _verify_tables(circuit, program.accept_column, n, "base-case circuit")
    return circuit, PassReport(
        pass_name="compile_supernilpotent",
        input_shape=f"program(size={program.size})",
        output_shape=circuit.declared_shape or shape_of(circuit),
        input_size=program.size,
        output_size=circuit.size,
        verified=verified,
    )


# ---------------------------------------------------------------------------
# Descent along an abelian atom
# ---------------------------------------------------------------------------

def _atom_circuit(
    n: int, m: int, p: int, coeffs: dict[int, int], accepting
) -> CCircuit:
    """AND∘MOD(m)∘MOD(p) circuit of the one atom [sum of coeffs over the
    monomials lands in ``accepting`` mod m]; a form that vanishes gives the
    constant [0 in accepting]."""
    pool = AtomPool()
    atom = make_atom(m, coeffs, accepting)
    modsum = (MultilinearPoly.constant(p, int(0 in accepting)) if atom is None
              else MultilinearPoly.variable(p, pool.get(atom)))
    return emit_modsum(n, m, p, pool, modsum, and_layer=True, final=MOD)


class _LayerMerge:
    """Structurally dedup the 3-layer sub-circuits into shared layers."""

    def __init__(self, inputs: int) -> None:
        self.inputs = inputs
        self.gates: list[Gate] = []
        self._intern: dict[Gate, int] = {}

    def add_gate(self, gate: Gate) -> int:
        node = self._intern.get(gate)
        if node is None:
            node = self.inputs + len(self.gates)
            self.gates.append(gate)
            self._intern[gate] = node
        return node

    def add_sub(self, sub: CCircuit) -> int:
        if sub.inputs != self.inputs:
            raise ValueError("sub-circuit reads a different input word")
        remap: dict[int, int] = {i: i for i in range(sub.inputs)}
        for gid, gate in enumerate(sub.gates):
            rewired = replace(
                gate, wires=tuple((remap[s], mult) for s, mult in gate.wires)
            )
            remap[sub.inputs + gid] = self.add_gate(rewired)
        return remap[sub.output]


def _module_part(
    program: AlgProgram, node: int, rep: CentralRep, budget: Budget
) -> tuple[np.ndarray, dict[int, np.ndarray], dict[frozenset, np.ndarray]]:
    """The module part of the node's value over rep.D, as an affine form:
    (offset, weight of each instruction bit, weight of each correction
    monomial).  A gate's correction term hat_f is a polynomial over GF(p)
    in the class indicators of its children: one Moebius transform of its
    table gives every coordinate's coefficients, which ``rep.lowered``
    keeps, and their subset sums are checked to give the table back.  A
    monomial is the frozenset of (child node, class of rep.quotient) pairs
    whose indicators it multiplies, so the union of the monomials is every
    indicator of the level below that the node's descent reads, for any
    target.
    """
    nu, p = rep.nu, rep.p
    circuit = program.circuit
    coeff, var_coeff = path_coefficients(circuit, rep, root=node)

    ins_by_var = {ins.var: ins for ins in program.instructions}
    offset = np.zeros(nu, np.int64)
    bit_vecs: dict[int, np.ndarray] = {}
    for var_idx, W in sorted(var_coeff.items()):
        ins = ins_by_var[var_idx]
        base = rep.mcoords[ins.a0]
        offset += W @ base
        dv = W @ (rep.mcoords[ins.a1] - base) % p
        if dv.any():
            bit_vecs[ins.bit] = (bit_vecs.get(ins.bit, 0) + dv) % p

    s = rep.quotient.size
    mono_vecs: dict[frozenset, np.ndarray] = {}
    for v in sorted(coeff):
        nd = circuit.nodes[v]
        W = coeff[v]
        if nd[0] == CONST:
            offset += W @ rep.mcoords[nd[1]]
        elif nd[0] == GATE:
            if not W.any():
                continue
            children = nd[2]
            coeffs = rep.lowered.get(nd[1])
            if coeffs is None:
                width = len(children) * s
                charge(1 << width, budget.monomials, "correction-term table")
                # row y reads position i's class off bits i*s..i*s+s-1:
                # the first set bit, or class 0 when none is set
                bits = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
                classes = bits.reshape(1 << width, len(children), s).argmax(axis=2)
                table = rep.hat[nd[1]][tuple(classes.T)].reshape(1 << width, nu)
                coeffs = rep.lowered[nd[1]] = moebius_transform(table, p)
                sums = coeffs.astype(np.int64)
                for i in range(width):  # row y: the sum over the subsets of y
                    halves = sums.reshape(-1, 2, 1 << i, nu)
                    halves[:, 1] += halves[:, 0]
                if (sums % p != table).any():
                    raise AssertionError(f"{nd[1]}'s correction coefficients miss its table")
            weighted = coeffs @ W.T % p  # row S: the weight of monomial S
            offset += weighted[0]
            for mask in (np.flatnonzero(weighted[1:].any(axis=1)) + 1).tolist():
                pairs = frozenset(
                    (children[pos // s], pos % s) for pos in mask_bits(mask)
                )
                mono_vecs[pairs] = (mono_vecs.get(pairs, 0) + weighted[mask]) % p
    return offset, bit_vecs, mono_vecs


def descend_mod_beta(
    program: AlgProgram,
    node: int,
    target: int,
    rep: CentralRep,
    cache: dict[tuple[int, int], CCircuit],
    part: tuple[np.ndarray, dict[int, np.ndarray], dict[frozenset, np.ndarray]],
    m: int,
    budget: Budget,
    reports: list[PassReport],
    value_table: np.ndarray,
) -> CCircuit:
    """One chain step: compile [node value == target] over rep.D.

    ``part`` is the node's module part from :func:`_module_part`: an
    affine form over Z_p^nu, p = rep.p, in the instruction bits and the
    correction monomials.  ``cache`` holds indicator circuits of the level
    below, keyed by (node, class of rep.quotient).  This step reads from it
    exactly the pairs of the correction monomials and the quotient
    indicator (node, rep.proj[target]), and nothing else, so a store
    holding only those keys will do.  The monomials become AND gates over
    the indicators, the bits one-atom circuits; the form is assembled as a
    5-layer circuit, collapsed to three layers and AND-glued with the
    quotient-level indicator.  ``value_table`` holds the node's value on
    every word; the pass reports are appended to ``reports``.
    """
    if program.algebra is not rep.D and program.algebra != rep.D:
        raise ValueError("program and representation disagree on the algebra")
    n = program.n
    nu, p = rep.nu, rep.p
    offset, bit_vecs, mono_vecs = part

    merge = _LayerMerge(n)
    sub_out: dict[tuple[int, int], int] = {}
    for key in sorted(set().union(*mono_vecs)):
        sub_out[key] = merge.add_sub(cache[key])
    bit_out: dict[int, int] = {}
    for bit in sorted(bit_vecs):
        bit_out[bit] = merge.add_sub(_atom_circuit(n, m, p, {1 << bit: 1}, {1}))

    sumpc_wires: list[tuple[int, int]] = []
    sumpc_coeffs: list[tuple[int, ...]] = []
    for key in sorted(mono_vecs, key=lambda k: sorted(k)):
        srcs = sorted({sub_out[pair] for pair in key})
        gate_id = merge.add_gate(
            Gate(kind=AND, layer=4, wires=tuple((x, 1) for x in srcs))
        )
        sumpc_wires.append((gate_id, 1))
        sumpc_coeffs.append(tuple(mono_vecs[key].tolist()))
    for bit in sorted(bit_vecs):
        gate_id = merge.add_gate(
            Gate(kind=AND, layer=4, wires=((bit_out[bit], 1),))
        )
        sumpc_wires.append((gate_id, 1))
        sumpc_coeffs.append(tuple(bit_vecs[bit].tolist()))

    target_vec = rep.mcoords[target]
    gates = list(merge.gates)
    gates.append(
        Gate(
            kind=SUMPC,
            layer=5,
            wires=tuple(sumpc_wires),
            p=p,
            nu=nu,
            coeffs=tuple(sumpc_coeffs),
            offset=tuple((offset % p).tolist()),
            target=tuple(target_vec.tolist()),
        )
    )
    five = CCircuit(
        inputs=n,
        gates=tuple(gates),
        output=n + len(gates) - 1,
        declared_shape=f"AND(*)∘MOD({m})∘MOD({p})∘AND(*)∘SUMPC({p})",
    )
    ok, errors = validate_shape(five)
    if not ok:
        raise AssertionError(f"assembled circuit is malformed: {errors[0]}")

    five_verified = _verify_tables(
        five,
        lambda: (rep.mcoords[value_table] == target_vec).all(axis=1),
        n,
        "module-part circuit",
    )
    reports.append(
        PassReport(
            pass_name=f"descend_assemble[node={node},target={target}]",
            input_shape="module-part display",
            output_shape=shape_of(five),
            input_size=program.size,
            output_size=five.size,
            verified=five_verified,
        )
    )

    collapsed, creport = collapse_5to3(five, budget)
    reports.append(creport)

    quotient_cc = cache[(node, rep.proj[target])]
    glued, greport = apply_func([0, 0, 0, 1], [quotient_cc, collapsed], budget)
    reports.append(greport)

    _verify_tables(glued, lambda: value_table == target, n, "descended circuit")
    return glued


# ---------------------------------------------------------------------------
# The full nilpotent pipeline
# ---------------------------------------------------------------------------


def _maximal_chain(
    lat: CongruenceLattice, top: Partition
) -> list[Partition]:
    """Lexicographically least maximal chain from zero to ``top``."""
    chain = [lat.zero]
    cur = lat.zero
    while cur != top:
        cur_i = lat.index(cur)
        nexts = sorted(
            b
            for a, b in lat.covers
            if a == cur_i and lat.elements[b].leq(top)
        )
        if not nexts:
            raise AssertionError("chain construction stuck below the target")
        cur = lat.elements[nexts[0]]
        chain.append(cur)
    return chain


def _or_table(k: int) -> list[int]:
    return [0 if idx == 0 else 1 for idx in range(1 << k)]


def compile_nilpotent(
    program: AlgProgram, budget: Optional[Budget] = None
) -> tuple[CCircuit, list[PassReport]]:
    """Compile a program over a nilpotent Malcev algebra whose
    characteristics below the least supernilpotent quotient are one prime.
    A supernilpotent algebra goes to ``compile_supernilpotent``, and its
    AND∘MOD∘OR circuit comes back with that pass's one report.

    The descent walks a maximal chain 0 = gamma_0 < ... < gamma_h = sigma
    in two passes.  The plan runs from the root down: level 0 reads the
    indicators (root, c) for c in the accepting set, and a descent of
    (node, target) at level j reads, of level j + 1, the pairs of the
    node's correction monomials and (node, class of target).  The build
    runs from the base up and builds only the planned indicators, so every
    store holds just what the level above reads: at the base, one
    interpolation per node covers the classes it needs; above it, one
    descent per planned pair.  Each indicator is checked against its
    table.  Output is an AND∘MOD(m)∘MOD(p) circuit with m the product of
    the other primes; its truth table is checked against the program
    whenever the word is narrow enough.
    """
    budget = budget or default_budget()
    reports: list[PassReport] = []
    A = program.algebra
    n = program.n
    s = structure(A, budget)
    lat = s.lattice
    if is_supernilpotent_congruence(s, lat.one):
        circuit, report = compile_supernilpotent(program, budget)
        return circuit, [report]
    if not is_nilpotent_congruence(s, lat.one):
        raise HypothesisViolation(f"{A.name} is not nilpotent")
    malcev = s.malcev
    if malcev is None:
        raise HypothesisViolation(
            f"no Malcev polynomial of {A.name}: no operation is a Latin "
            "square and the search found none within its depth bound"
        )

    dist = s.distinguished
    kappa = dist.smallest_supernilpotent_quotient
    chars = charr_set(s, lat.zero, kappa)
    if len(chars) != 1:
        raise HypothesisViolation(
            f"characteristics below the supernilpotent quotient are "
            f"{sorted(chars)}; need a single prime"
        )
    (p,) = chars

    sigma = dist.by_prime.get(p, lat.zero)
    if not kappa.leq(sigma):
        raise AssertionError("supernilpotent quotient escapes the p-radical")
    m = pdiv(sigma.num_blocks())
    if m * p != pdiv(A.size):
        raise AssertionError("quotient primes do not complement p")
    if m == 1:
        raise HypothesisViolation(
            "the p-radical covers the whole algebra; the two-modulus "
            "construction needs a nontrivial coprime quotient"
        )
    if m % p == 0:
        raise AssertionError(f"quotient modulus {m} is divisible by {p}")

    chain = _maximal_chain(lat, sigma)
    h = len(chain) - 1
    progs = [program]
    projs = [tuple(range(A.size))]
    for gamma in chain[1:]:
        Pj, mapping = quotient_program(program, gamma)
        progs.append(Pj)
        projs.append(mapping)
    Abar = progs[h].algebra

    if n > budget.truth_table_bits:
        raise ValueError("too many input bits for value tables")
    vals = program.node_columns()
    root = program.circuit.output
    S0 = sorted(program.accepting)

    top = s.quotient(sigma)
    if not is_pupi(top, sigma, lat.one):
        raise HypothesisViolation(
            "supernilpotent quotient has no independent prime split"
        )
    dec = prime_power_decomposition(top, Abar.name)
    delta = sum(m // pj for pj in dec.primes) % m

    reps: dict[int, CentralRep] = {}
    for j in range(h - 1, -1, -1):
        Dj = progs[j].algebra
        # D_j -> D_{j+1} through the least member in A of each class
        step = [projs[j + 1][projs[j].index(y)] for y in range(Dj.size)]
        malcev_j = map_circuit_constants(malcev, projs[j])
        reps[j] = rep = central_representation(
            Dj, progs[j + 1].algebra, step, 0, malcev_j
        )
        if rep.p != p:
            raise AssertionError(
                f"atom at level {j} has characteristic {rep.p}, expected {p}"
            )

    # plan, from the root down: the (node, target) indicators each level
    # reads of the one below, starting from the accepting set at the root
    keys = [{(root, c) for c in S0}]
    parts: list[dict] = []  # level j: each planned node's module part
    for j in range(h):
        parts.append({q: _module_part(progs[j], q, reps[j], budget)
                      for q in sorted({q for q, _ in keys[j]})})
        below = {(q, reps[j].proj[t]) for q, t in keys[j]}
        for _, _, monomials in parts[j].values():
            below.update(*monomials)
        keys.append(below)

    # build, from the base up: the supernilpotent quotient, one atom per
    # planned (node, target), then one descent per planned pair and level
    cache: dict[tuple[int, int], CCircuit] = {}
    polys: dict = {}
    for q, group in groupby(sorted(keys[h]), key=itemgetter(0)):
        targets = [t for _, t in group]
        table = np.asarray(projs[h])[vals[q]]
        indicators = _combined_indicators(
            polys, table, targets, dec, m, delta, budget
        )
        for t, (acc, resid) in zip(targets, indicators):
            cc = _atom_circuit(n, m, p, acc, {resid})
            _verify_tables(
                cc, lambda: table == t, n,
                f"base indicator for node {q}, target {t}",
            )
            cache[(q, t)] = cc
    reports.append(
        PassReport(
            pass_name=f"base_cache[{len(cache)} entries]",
            input_shape=f"program(size={program.size})/supernilpotent quotient",
            output_shape=f"AND(*)∘MOD({m})∘MOD({p})",
            input_size=program.size,
            output_size=sum(cc.size for cc in cache.values()),
            verified=n <= lowering.VERIFY_INPUT_BOUND or None,
        )
    )

    for j in range(h - 1, -1, -1):
        newcache = {}
        for q, t in sorted(keys[j]):
            newcache[(q, t)] = descend_mod_beta(
                progs[j], q, t, reps[j], cache, parts[j][q], m, budget, reports,
                value_table=np.asarray(projs[j])[vals[q]],
            )
        cache = newcache

    branches = [cache[(root, c)] for c in S0]
    if not branches:
        final = _atom_circuit(n, m, p, {}, ())
    elif len(branches) == 1:
        final = branches[0]
    else:
        final, oreport = apply_func(_or_table(len(branches)), branches, budget)
        reports.append(oreport)

    ok, errors = validate_shape(final, f"AND(*)∘MOD({m})∘MOD({p})")
    if not ok:
        raise AssertionError(f"final circuit off-shape: {errors[0]}")
    _verify_tables(final, program.accept_column, n, "compiled circuit")
    return final, reports
