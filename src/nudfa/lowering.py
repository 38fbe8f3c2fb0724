"""Semantics-preserving rewriting passes between layered circuit shapes.

The passes share one symbolic currency.  A *mod atom* is the boolean
indicator [linear form over monomials of the input bits lands in an
accepting set mod m]; it corresponds to one MOD(m) gate, wired either
straight to the inputs or through one level of AND gates (the monomials).
An ``AtomPool`` numbers the atoms, and every intermediate value is a
``MultilinearPoly`` over GF(p) whose variables are pool ids.  The values a
pass emits are affine, ``offset + sum mu_t * atom_t``; this module calls
such a polynomial of degree <= 1 a *sum*.  Two facts drive all rewrites:

- a *conjunction* of atoms is again a sum: view it as a function
  Z_m^d -> Z_p of the raw linear-form values, take its coset-indicator
  normal form, and substitute the forms back in (the composed terms are
  single MOD(m) gates);
- any polynomial over atom booleans therefore collapses to a sum by
  expanding monomial by monomial.

Emission turns a sum into MOD(m)∘SUMP(p) (open affine output),
MOD(m)∘MOD(p) (boolean output), or the AND-prefixed versions when the
monomials need an AND level; ``monomial_gates`` builds that AND level for
every circuit that has one.  All passes compare the truth table of their
output with the input's on up to 2^14 words (``VERIFY_INPUT_BOUND``) and
report sizes.  Circuit tables come from ``cc_table``'s run memo: a circuit
one pass built and checked is read, not evaluated again, by the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .fieldpoly import (
    MultilinearPoly,
    accumulate,
    coset_indicator_form,
    monomial_key,
    multilinear_interpolate,
    pdiv,
    prime_divisors,
)
from .limits import Budget, charge, default_budget
from .modcircuit import (
    AND,
    MOD,
    SUMP,
    CCircuit,
    Gate,
    cc_table,
    parse_shape,
    shape_of,
    validate_shape,
)

VERIFY_INPUT_BOUND = 14


@dataclass(frozen=True)
class PassReport:
    pass_name: str
    input_shape: str
    output_shape: str
    input_size: int
    output_size: int
    verified: Optional[bool]  # None = too many inputs to check exhaustively


# ---------------------------------------------------------------------------
# Atoms and affine sums over them
# ---------------------------------------------------------------------------

Key = frozenset  # monomial over input bits; singleton = a bare input


@dataclass(frozen=True)
class ModAtom:
    """Indicator [sum of coeff * monomial lands in ``accepting`` mod m]."""

    m: int
    coeffs: tuple[tuple[Key, int], ...]
    accepting: frozenset[int]


def make_atom(
    m: int, coeff_map: Mapping[Key, int], accepting
) -> Optional[ModAtom]:
    """Canonical atom, or None when the form vanishes (constant indicator)."""
    items = []
    for key, c in coeff_map.items():
        c %= m
        if c and key:
            items.append((frozenset(key), c))
    if not items:
        return None
    items.sort(key=lambda kc: (monomial_key(kc[0]), kc[1]))
    return ModAtom(m, tuple(items), frozenset(a % m for a in accepting))


def _atom_sort_key(a: ModAtom):
    return (
        [(monomial_key(k), c) for k, c in a.coeffs],
        sorted(a.accepting),
    )


class AtomPool:
    """Interning table giving atoms stable indices for polynomial work."""

    def __init__(self) -> None:
        self.atoms: list[ModAtom] = []
        self._index: dict[ModAtom, int] = {}

    def get(self, atom: ModAtom) -> int:
        idx = self._index.get(atom)
        if idx is None:
            idx = len(self.atoms)
            self.atoms.append(atom)
            self._index[atom] = idx
        return idx


def _conj_modsum_mod2(
    pool: AtomPool, atoms: Sequence[ModAtom], p: int
) -> MultilinearPoly:
    """Fast conjunction for m = 2: [y=r] = (1 + (-1)^(y+r))/2 over GF(p),
    so the product expands into XOR-combinations of the parity forms.  A
    form is an int mask over the monomials, numbered as they occur."""
    number: dict[Key, int] = {}
    forms: list[int] = []
    residues: list[int] = []
    for a in atoms:
        if a.accepting == frozenset({0, 1}):
            continue  # constant 1 factor
        if not a.accepting:
            return MultilinearPoly(p)  # constant 0 factor
        ids = [number.setdefault(key, len(number)) for key, _ in a.coeffs]
        forms.append(sum(1 << i for i in ids))
        residues.append(0 if 0 in a.accepting else 1)
    k = len(forms)
    if k == 0:
        return MultilinearPoly.constant(p, 1)
    unit = pow(pow(2, -1, p), k - 1, p)
    coeffs = (unit, (-unit) % p)
    offset = 0
    acc: dict[int, int] = {}
    # Gray-code walk: subset idx differs from idx - 1 in its lowest set bit
    form = r = 0
    for idx in range(1 << k):
        if idx:
            i = (idx & -idx).bit_length() - 1
            form ^= forms[i]
            r ^= residues[i]
        if form:
            acc[form] = (acc.get(form, 0) + coeffs[r]) % p
        else:
            offset += coeffs[r]
    if all(r == 0 for r in residues):
        offset -= 1
    monomials = list(number)
    terms = {frozenset(): offset}
    for form, c in acc.items():
        if c % p == 0:
            continue
        keys = {key: 1 for b, key in enumerate(monomials) if form >> b & 1}
        atom = make_atom(2, keys, {0})
        if atom is None:
            raise AssertionError("conjunction form collapsed to a constant")
        terms[frozenset([pool.get(atom)])] = c
    return MultilinearPoly(p, terms)


# Keyed by (m, p, accepting profile): the coset machinery depends only on
# those, not on the particular linear forms.
@lru_cache(maxsize=1024)
def _conj_normal_form(m: int, p: int, accepting: tuple[frozenset, ...]):
    d = len(accepting)
    values = [
        1 if all(y in s for y, s in zip(ys, accepting)) else 0
        for ys in product(range(m), repeat=d)
    ]
    form = coset_indicator_form(values, m, d, p)
    return tuple((beta, u, mu) for (beta, u), mu in form.items())


def _conj_modsum_coset(
    pool: AtomPool, atoms: Sequence[ModAtom], p: int
) -> MultilinearPoly:
    """Conjunction through the coset-indicator normal form of the atoms'
    accepting profile: each term, composed with the atoms' linear forms,
    is one MOD(m) atom."""
    m = atoms[0].m
    out = MultilinearPoly(p)
    for beta, u, mu in _conj_normal_form(m, p, tuple(a.accepting for a in atoms)):
        acc: dict[Key, int] = {}
        for b, a in zip(beta, atoms):
            if b == 0:
                continue
            for key, c in a.coeffs:
                accumulate(acc, key, b * c, m)
        atom = make_atom(m, acc, {(-u) % m})
        if atom is None:
            if u % m == 0:
                accumulate(out.terms, frozenset(), mu, p)
        else:
            accumulate(out.terms, frozenset([pool.get(atom)]), mu, p)
    return out


def conj_modsum(
    pool: AtomPool,
    indices: Sequence[int],
    p: int,
    budget: Optional[Budget] = None,
) -> MultilinearPoly:
    """The conjunction of the pooled atoms as a sum over pool ids."""
    budget = budget or default_budget()
    if not indices:
        return MultilinearPoly.constant(p, 1)
    atoms = [pool.atoms[i] for i in indices]
    m = atoms[0].m
    if any(a.m != m for a in atoms):
        raise ValueError("conjunction mixes moduli")
    charge(m ** len(atoms), budget.monomials, "conjunction table")
    if m == 2 and p % 2 == 1:
        return _conj_modsum_mod2(pool, atoms, p)
    return _conj_modsum_coset(pool, atoms, p)


def poly_to_modsum(
    pool: AtomPool,
    poly: MultilinearPoly,
    budget: Optional[Budget] = None,
) -> MultilinearPoly:
    """Collapse a polynomial over atom booleans (variables = pool ids) to a
    sum."""
    budget = budget or default_budget()
    out = MultilinearPoly(poly.p)
    for subset, coeff in poly.terms.items():
        out = out.add(conj_modsum(pool, sorted(subset), poly.p, budget).scale(coeff))
        charge(len(out.terms), budget.monomials, "polynomial collapse")
    return out


# ---------------------------------------------------------------------------
# Circuit ingestion and emission
# ---------------------------------------------------------------------------


@dataclass
class _Ingested:
    n: int
    m: int
    p: int
    pool: AtomPool
    modsum: MultilinearPoly  # the output gate's value, a sum over pool ids


def _layer_count(circuit: CCircuit) -> int:
    return max((g.layer for g in circuit.gates), default=0)


def _layer_modulus(circuit: CCircuit, layer: int, p: int) -> int:
    """The one modulus m of a MOD layer, checked to be squarefree and coprime
    to the prime p; an empty layer reads m off the declared shape."""
    ms = {g.m for g in circuit.gates if g.layer == layer}
    if len(ms) > 1:
        raise ValueError("MOD layer mixes moduli")
    if ms:
        m = ms.pop()
    else:
        spec = parse_shape(circuit.declared_shape)[layer - 1 : layer]
        m = spec[0].param if spec and spec[0].kind == MOD else None
        if m is None:
            raise ValueError(
                f"MOD layer {layer} is empty and its modulus is not declared"
            )
    if prime_divisors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    if pdiv(m) != m:
        raise ValueError(f"{m} is not squarefree")
    if m % p == 0:
        raise ValueError("p must not divide m")
    return m


def _monomial_keys(circuit: CCircuit, has_and: bool) -> dict[int, Key]:
    """Map node id -> monomial over raw inputs for inputs and AND-layer gates."""
    keys: dict[int, Key] = {i: frozenset([i]) for i in range(circuit.inputs)}
    if has_and:
        for gid, gate in enumerate(circuit.gates):
            if gate.layer != 1:
                continue
            if gate.kind != AND:
                raise ValueError("layer 1 must be AND gates")
            members: set[int] = set()
            for src, _ in gate.wires:
                if src >= circuit.inputs:
                    raise ValueError("AND layer must read raw inputs")
                members.add(src)
            keys[circuit.inputs + gid] = frozenset(members)
    return keys


def _mod_layer_atoms(
    circuit: CCircuit, layer: int, keys: dict[int, Key], pool: AtomPool
) -> dict[int, tuple[Optional[int], int]]:
    """Atoms for the MOD(m) gates of a layer.

    Returns node id -> (pool id, 1) or (None, const) for degenerate gates
    whose linear form vanishes.
    """
    out: dict[int, tuple[Optional[int], int]] = {}
    for gid, gate in enumerate(circuit.gates):
        if gate.layer != layer:
            continue
        if gate.kind != MOD:
            raise ValueError(f"layer {layer} must be MOD gates")
        acc: dict[Key, int] = {}
        for src, mult in gate.wires:
            key = keys.get(src)
            if key is None:
                raise ValueError("MOD layer reads a non-monomial node")
            if not key:  # AND of zero inputs: constant 1
                raise ValueError("constant AND gates under MOD not supported")
            accumulate(acc, key, mult, gate.m)
        atom = make_atom(gate.m, acc, gate.accepting)
        node = circuit.inputs + gid
        if atom is None:
            out[node] = (None, 1 if 0 % gate.m in gate.accepting else 0)
        else:
            out[node] = (pool.get(atom), 1)
    return out


def _chi_poly(
    gate: Gate, atoms: dict[int, tuple[Optional[int], int]], budget: Budget
) -> MultilinearPoly:
    """The indicator of a MOD(p) gate over MOD(m)-layer nodes, as a
    polynomial over the pool ids of their atoms (``_mod_layer_atoms``)."""
    p = gate.m
    coeffs: dict[int, int] = {}
    shift = 0
    for src, mult in gate.wires:
        if src not in atoms:
            raise ValueError("a MOD(p) gate must read the MOD(m) layer")
        idx, const = atoms[src]
        if idx is None:
            shift += mult * const
        else:
            coeffs[idx] = (coeffs.get(idx, 0) + mult) % p
    affine = MultilinearPoly.affine(p, coeffs, shift)
    total = MultilinearPoly(p)
    for t in sorted(gate.accepting):
        shifted = affine.sub(MultilinearPoly.constant(p, t))
        total = total.add(
            MultilinearPoly.constant(p, 1).sub(shifted.power(p - 1, budget))
        )
    return total


# circuits produced by emit_modsum remember their sum so re-ingesting
# (apply_func gluing, repeated cache hits) is a dictionary lookup
_INGEST_CACHE: dict[CCircuit, _Ingested] = {}


def _ingest_modmod(circuit: CCircuit, budget: Budget) -> _Ingested:
    """Parse MOD(m)∘MOD(p) or AND∘MOD(m)∘MOD(p) into a sum over atoms."""
    cached = _INGEST_CACHE.get(circuit)
    if cached is not None:
        return cached
    layers = _layer_count(circuit)
    if layers not in (2, 3):
        raise ValueError("expected a 2- or 3-layer circuit")
    has_and = layers == 3
    mod_layer = 2 if has_and else 1
    out_gate = circuit.gates[circuit.output - circuit.inputs]
    if circuit.output < circuit.inputs or out_gate.layer != layers:
        raise ValueError("output must be the last layer")
    if out_gate.kind != MOD:
        raise ValueError("output gate must be MOD(p)")
    p = out_gate.m
    keys = _monomial_keys(circuit, has_and)
    pool = AtomPool()
    atoms = _mod_layer_atoms(circuit, mod_layer, keys, pool)
    m = _layer_modulus(circuit, mod_layer, p)
    chi = _chi_poly(out_gate, atoms, budget)
    result = _Ingested(
        circuit.inputs, m, p, pool, poly_to_modsum(pool, chi, budget)
    )
    _INGEST_CACHE[circuit] = result
    return result


def monomial_gates(
    n: int, monomials: Iterable[Key]
) -> tuple[list[Gate], dict[Key, int]]:
    """The layer-1 AND gates of a circuit on n inputs, one per monomial in
    ``monomial_key`` order, and the node id of each monomial's gate."""
    gates: list[Gate] = []
    node_of: dict[Key, int] = {}
    for key in sorted(monomials, key=monomial_key):
        node_of[key] = n + len(gates)
        gates.append(Gate(kind=AND, layer=1, wires=tuple((i, 1) for i in sorted(key))))
    return gates, node_of


def _affine_parts(modsum: MultilinearPoly) -> tuple[int, dict[int, int]]:
    """The constant and the pool-id coefficients of a sum."""
    if modsum.degree() > 1:
        raise ValueError(f"a sum of degree {modsum.degree()} is not affine")
    coeffs = {next(iter(k)): c for k, c in modsum.terms.items() if k}
    return modsum.terms.get(frozenset(), 0), coeffs


def emit_modsum(
    n: int,
    m: int,
    p: int,
    pool: AtomPool,
    modsum: MultilinearPoly,
    *,
    and_layer: Optional[bool] = None,
    final: str = MOD,
) -> CCircuit:
    """Materialise a sum over pool ids as a layered circuit.

    ``final=MOD`` needs the sum to be boolean-valued and yields
    [AND∘]MOD(m)∘MOD(p); ``final=SUMP`` yields [AND∘]MOD(m)∘SUMP(p).
    """
    offset, coeffs = _affine_parts(modsum)
    order = sorted(coeffs, key=lambda i: _atom_sort_key(pool.atoms[i]))
    keys = {key for i in order for key, _ in pool.atoms[i].coeffs}
    if and_layer is None:
        and_layer = any(len(k) != 1 for k in keys)
    if not and_layer and any(len(k) != 1 for k in keys):
        raise ValueError("monomials of size != 1 need an AND layer")

    if and_layer:
        gates, node_of = monomial_gates(n, keys)
        mod_layer = 2
        and_width = max((len(k) for k in keys), default=1)
    else:
        gates = []
        node_of = {k: next(iter(k)) for k in keys}
        mod_layer = 1
    atom_node: dict[int, int] = {}
    for i in order:
        a = pool.atoms[i]
        atom_node[i] = n + len(gates)
        gates.append(
            Gate(
                kind=MOD,
                layer=mod_layer,
                wires=tuple((node_of[key], c) for key, c in a.coeffs),
                m=m,
                accepting=a.accepting,
            )
        )
    if final == SUMP:
        gates.append(
            Gate(
                kind=SUMP,
                layer=mod_layer + 1,
                wires=tuple((atom_node[i], 1) for i in order),
                p=p,
                nu=1,
                coeffs=tuple((coeffs[i],) for i in order),
                offset=(offset,),
            )
        )
        last = f"SUMP({p})"
    elif final == MOD:
        gates.append(
            Gate(
                kind=MOD,
                layer=mod_layer + 1,
                wires=tuple((atom_node[i], coeffs[i]) for i in order),
                m=p,
                accepting=frozenset({(1 - offset) % p}),
            )
        )
        last = f"MOD({p})"
    else:
        raise ValueError(f"unknown final gate kind {final!r}")
    shape = f"MOD({m})∘{last}"
    if and_layer:
        shape = f"AND({and_width})∘{shape}"
    circuit = CCircuit(inputs=n, gates=tuple(gates), output=n + len(gates) - 1,
                       declared_shape=shape)
    if final == MOD:
        # contract: a MOD-final emission is only asked for boolean sums, so
        # the circuit's indicator semantics coincide with the sum itself
        _INGEST_CACHE[circuit] = _Ingested(n, m, p, pool, modsum)
    return circuit


# ---------------------------------------------------------------------------
# Verification plumbing
# ---------------------------------------------------------------------------


def check_table(got: np.ndarray, want, n: int, what: str) -> None:
    """Raise at the first word where two truth tables differ; row r of each
    is the word whose bit i is (r >> i) & 1, as ``cc_table`` lays it out."""
    want = np.asarray(want)
    if got.shape != want.shape:
        raise AssertionError(
            f"{what} has shape {got.shape}, expected {want.shape}"
        )
    bad = np.flatnonzero((got != want).reshape(len(got), -1).any(axis=1))
    if len(bad):
        row = int(bad[0])
        bits = [(row >> i) & 1 for i in range(n)]
        raise AssertionError(
            f"{what} disagrees at {bits}:"
            f" got {got[row].astype(np.int64).tolist()},"
            f" expected {want[row].astype(np.int64).tolist()}"
        )


def _verify_tables(
    circuit: CCircuit,
    reference: Callable[[], np.ndarray],
    n: int,
    what: str = "pass output",
) -> Optional[bool]:
    """Compare ``cc_table(circuit)`` with the whole expected table that
    ``reference()`` returns, naming ``what`` in a mismatch; returns None
    without building either when n exceeds the bound."""
    if n > VERIFY_INPUT_BOUND:
        return None
    check_table(cc_table(circuit), reference(), n, what)
    return True


def _report(
    name: str,
    in_shape: str,
    in_size: int,
    circuit: CCircuit,
    verified: Optional[bool],
) -> PassReport:
    return PassReport(
        pass_name=name,
        input_shape=in_shape,
        output_shape=shape_of(circuit),
        input_size=in_size,
        output_size=circuit.size,
        verified=verified,
    )


# ---------------------------------------------------------------------------
# The passes
# ---------------------------------------------------------------------------


def and_sum_lower(
    table: Sequence, p: int, budget: Optional[Budget] = None
) -> tuple[CCircuit, PassReport]:
    """Table {0,1}^n -> Z_p^k as an AND(n)∘SUMP(p,k) circuit.

    Row index reads the assignment with bit 0 least significant.  One AND
    gate per nonconstant monomial of the coordinatewise multilinear
    interpolations (shared across coordinates); the SUMP gate carries each
    monomial's coefficient vector.
    """
    budget = budget or default_budget()
    size = len(table)
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("table length must be a power of two")
    rows = [tuple(v) if isinstance(v, (tuple, list)) else (v,) for v in table]
    k = len(rows[0])
    if any(len(r) != k for r in rows):
        raise ValueError("ragged table")
    polys = [
        multilinear_interpolate([r[j] for r in rows], p) for j in range(k)
    ]
    monomials: dict[frozenset, list[int]] = {}
    offset = [0] * k
    for j, poly in enumerate(polys):
        for key, c in poly.terms.items():
            if not key:
                offset[j] = c
            else:
                monomials.setdefault(key, [0] * k)[j] = c
    charge(len(monomials), budget.monomials, "interpolated monomials")
    gates, node_of = monomial_gates(n, monomials)
    gates.append(
        Gate(kind=SUMP, layer=2,
             wires=tuple((node, 1) for node in node_of.values()), p=p, nu=k,
             coeffs=tuple(tuple(monomials[key]) for key in node_of),
             offset=tuple(offset))
    )
    circuit = CCircuit(
        inputs=n, gates=tuple(gates), output=n + len(gates) - 1,
        declared_shape=f"AND({n})∘SUMP({p})",
    )
    verified = _verify_tables(circuit, lambda: rows, n)
    return circuit, _report("and_sum_lower", f"table[{n}bit->Z_{p}^{k}]", size,
                            circuit, verified)


def modm_andd_to_sum(
    circuit: CCircuit, p: int, budget: Optional[Budget] = None
) -> tuple[CCircuit, PassReport]:
    """MOD(m)∘AND(d) -> MOD(m)∘SUMP(p,1).

    The output AND over MOD-gate indicators is one conjunction of atoms;
    its coset-indicator normal form is the answer.
    """
    budget = budget or default_budget()
    ok, errors = validate_shape(circuit, "MOD(*)∘AND(*)")
    if not ok:
        raise ValueError(f"shape mismatch: {errors[0]}")
    out_gate = circuit.gates[circuit.output - circuit.inputs]
    keys = _monomial_keys(circuit, has_and=False)
    pool = AtomPool()
    atoms = _mod_layer_atoms(circuit, 1, keys, pool)
    m = _layer_modulus(circuit, 1, p)
    srcs = sorted({src for src, _ in out_gate.wires})
    indices = []
    const_zero = False
    for src in srcs:
        idx, const = atoms[src]
        if idx is None:
            if const == 0:
                const_zero = True
        else:
            indices.append(idx)
    modsum = MultilinearPoly(p) if const_zero else conj_modsum(pool, indices, p, budget)
    lowered = emit_modsum(circuit.inputs, m, p, pool, modsum,
                          and_layer=False, final=SUMP)
    verified = _verify_tables(
        lowered, lambda: cc_table(circuit)[:, None], circuit.inputs
    )
    return lowered, _report("modm_andd_to_sum", shape_of(circuit), circuit.size,
                            lowered, verified)


def unmod(
    circuit: CCircuit, budget: Optional[Budget] = None
) -> tuple[CCircuit, PassReport]:
    """MOD(m)∘MOD(p) -> MOD(m)∘SUMP(p,1).

    The accepting test of the output gate becomes a degree-(p-1)
    polynomial in the inner indicators, which collapses monomial by
    monomial.
    """
    budget = budget or default_budget()
    ok, errors = validate_shape(circuit, "MOD(*)∘MOD(*)")
    if not ok:
        raise ValueError(f"shape mismatch: {errors[0]}")
    ing = _ingest_modmod(circuit, budget)
    lowered = emit_modsum(ing.n, ing.m, ing.p, ing.pool, ing.modsum,
                          and_layer=False, final=SUMP)
    verified = _verify_tables(
        lowered, lambda: cc_table(circuit)[:, None], ing.n
    )
    return lowered, _report("unmod", shape_of(circuit), circuit.size,
                            lowered, verified)


def finalize_boolean_sum(circuit: CCircuit) -> CCircuit:
    """MOD(m)∘SUMP(p,1) with boolean semantics -> MOD(m)∘MOD(p): the affine
    output becomes a MOD(p) gate accepting 1 - offset."""
    out_gate = circuit.gates[circuit.output - circuit.inputs]
    if out_gate.kind != SUMP or out_gate.nu != 1:
        raise ValueError("expected a scalar SUMP output gate")
    p = out_gate.p
    wires = []
    for (src, mult), vec in zip(out_gate.wires, out_gate.coeffs):
        c = (mult * vec[0]) % p
        if c:
            wires.append((src, c))
    gates = list(circuit.gates[:-1])
    gates.append(
        Gate(kind=MOD, layer=out_gate.layer, wires=tuple(wires), m=p,
             accepting=frozenset({(1 - out_gate.offset[0]) % p}))
    )
    shape = circuit.declared_shape.rsplit("∘", 1)[0] + f"∘MOD({p})"
    return CCircuit(circuit.inputs, tuple(gates), circuit.output, shape)


def apply_func(
    g_table: Sequence[int],
    fs: Sequence[CCircuit],
    budget: Optional[Budget] = None,
) -> tuple[CCircuit, PassReport]:
    """g(f_1, ..., f_k) for a boolean g and MOD(m)∘MOD(p)-shaped f_i
    (with or without a leading AND level), same shape out.

    Interpolates g multilinearly, turns every f_i into an affine sum over a
    shared atom pool, composes, collapses, and finishes with a MOD(p) gate
    (sound because g is 0/1-valued).
    """
    budget = budget or default_budget()
    k = len(g_table).bit_length() - 1
    if 1 << k != len(g_table):
        raise ValueError("g table length must be a power of two")
    if len(fs) != k:
        raise ValueError(f"arity mismatch: table wants {k} circuits, got {len(fs)}")
    if any(v not in (0, 1) for v in g_table):
        raise ValueError("g must be boolean")
    if k == 0:
        raise ValueError("g must have at least one argument")
    n = fs[0].inputs
    if any(f.inputs != n for f in fs):
        raise ValueError("all circuits must read the same input word")
    pool = AtomPool()
    sums: list[MultilinearPoly] = []
    m = None
    p = None
    levels3 = False
    for f in fs:
        levels3 = levels3 or _layer_count(f) == 3
        ing = _ingest_modmod(f, budget)
        # re-intern into the shared pool, constant last: the order of the
        # composed terms fixes the ids of new atoms, which later passes read
        remap = [pool.get(a) for a in ing.pool.atoms]
        offset, coeffs = _affine_parts(ing.modsum)
        sums.append(MultilinearPoly.affine(
            ing.p, {remap[i]: c for i, c in coeffs.items()}, offset
        ))
        if m is None:
            m, p = ing.m, ing.p
        elif (ing.m, ing.p) != (m, p):
            raise ValueError("shape mismatch: circuits disagree on (m, p)")
    if m is None or p is None:
        raise AssertionError("no input circuit fixed the moduli")
    g_poly = multilinear_interpolate(g_table, p)
    composed = g_poly.substitute(dict(enumerate(sums)), budget)
    modsum = poly_to_modsum(pool, composed, budget)
    lowered = emit_modsum(n, m, p, pool, modsum,
                          and_layer=True if levels3 else None, final=MOD)

    def reference() -> np.ndarray:
        idx = sum(cc_table(fs[j]).astype(np.intp) << j for j in range(k))
        return np.asarray(g_table)[idx]

    verified = _verify_tables(lowered, reference, n)
    in_shape = " | ".join(sorted({shape_of(f) for f in fs}))
    return lowered, _report(f"apply_func[{k}]", in_shape,
                            sum(f.size for f in fs), lowered, verified)


def collapse_5to3(
    circuit: CCircuit, budget: Optional[Budget] = None
) -> tuple[CCircuit, PassReport]:
    """AND(d)∘MOD(m)∘MOD(p)∘AND(d')∘SUMPC(p,nu,c) -> AND(d)∘MOD(m)∘MOD(p).

    The vector-target test becomes the product over coordinates j of
    1 - (t_j - c_j)^(p-1); each coordinate t_j is an affine form over the
    middle AND gates, which are products of MOD(p)-rooted sub-results.
    Everything composes into one polynomial over the atom pool.
    """
    budget = budget or default_budget()
    ok, errors = validate_shape(circuit, "AND(*)∘MOD(*)∘MOD(*)∘AND(*)∘SUMPC(*)")
    if not ok:
        raise ValueError(f"shape mismatch: {errors[0]}")
    n = circuit.inputs
    out_gate = circuit.gates[circuit.output - circuit.inputs]
    p = out_gate.p
    nu = out_gate.nu
    keys = _monomial_keys(circuit, has_and=True)
    pool = AtomPool()
    atoms = _mod_layer_atoms(circuit, 2, keys, pool)
    m = _layer_modulus(circuit, 2, p)

    # layer 3: the MOD(p)-rooted boolean sub-results, as polynomials
    f_polys: dict[int, MultilinearPoly] = {}
    for gid, gate in enumerate(circuit.gates):
        if gate.layer != 3:
            continue
        if gate.kind != MOD or gate.m != p:
            raise ValueError("layer 3 must be MOD(p) gates")
        f_polys[circuit.inputs + gid] = _chi_poly(gate, atoms, budget)

    # layer 4: AND over sub-results = products of their polynomials
    z_polys: dict[int, MultilinearPoly] = {}
    for gid, gate in enumerate(circuit.gates):
        if gate.layer != 4:
            continue
        poly = MultilinearPoly.constant(p, 1)
        for src in sorted({s for s, _ in gate.wires}):
            poly = poly.mul(f_polys[src], budget)
        z_polys[circuit.inputs + gid] = poly

    # layer 5: per-coordinate affine forms over the z's, then the target test
    z_ids = sorted(z_polys)
    z_pos = {node: i for i, node in enumerate(z_ids)}
    total = MultilinearPoly.constant(p, 1)
    for j in range(nu):
        row_coeffs: dict[int, int] = {}
        for (src, mult), vec in zip(out_gate.wires, out_gate.coeffs):
            w = (mult * vec[j]) % p
            i = z_pos[src]
            row_coeffs[i] = (row_coeffs.get(i, 0) + w) % p
        t_poly = MultilinearPoly.constant(p, out_gate.offset[j])
        for node, zp in z_polys.items():
            t_poly = t_poly.add(zp.scale(row_coeffs.get(z_pos[node], 0)))
        shifted = t_poly.sub(MultilinearPoly.constant(p, out_gate.target[j]))
        total = total.mul(
            MultilinearPoly.constant(p, 1).sub(shifted.power(p - 1, budget)),
            budget,
        )
    modsum = poly_to_modsum(pool, total, budget)
    lowered = emit_modsum(n, m, p, pool, modsum, and_layer=True, final=MOD)
    verified = _verify_tables(lowered, lambda: cc_table(circuit), n)
    return lowered, _report("collapse_5to3", shape_of(circuit), circuit.size,
                            lowered, verified)
