"""Enumeration budgets shared across the package.

Every potentially explosive search (subpower closures, truth tables, monomial
expansions, exhaustive equation scans) checks one of these caps and raises
:class:`BudgetExceeded` instead of running away.  The single environment
variable ``NUDFA_BUDGET`` overrides the open-ended enumeration caps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


class BudgetExceeded(RuntimeError):
    """An enumeration grew past its configured cap."""


@dataclass(frozen=True)
class Budget:
    clone_functions: int = 100_000     # clone, Malcev, M(alpha, beta) rows; quasigroup gates
    lattice_universe: int = 10         # max |A| for full congruence lattices
    truth_table_bits: int = 20         # 2**bits rows for program truth tables
    progcsat_bits: int = 24            # exhaustive program satisfiability scan
    domain_scan: int = 10_000_000      # |A|**vars cap for equation scans
    monomials: int = 1_000_000         # polynomial expansion size


def default_budget() -> Budget:
    """Budget with ``NUDFA_BUDGET`` applied to the enumeration caps."""
    raw = os.environ.get("NUDFA_BUDGET")
    if raw is None:
        return Budget()
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError("NUDFA_BUDGET must be a positive integer")
    return Budget(clone_functions=cap, monomials=cap)


def charge(count: int, cap: int, what: str) -> None:
    if count > cap:
        raise BudgetExceeded(f"{what}: {count} exceeds cap {cap}")
