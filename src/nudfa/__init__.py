"""Programs over finite algebras and their modular-circuit compilations.

The package takes a finite algebra (operation tables), analyses its
congruence lattice and commutator structure, and — for nilpotent Malcev
algebras whose structure permits it — compiles boolean-input programs
into constant-depth circuits of modular-counting gates.  Around that
core sit decision procedures for program and equation satisfiability,
localization machinery, polynomial normal forms over prime fields, and
the CNF gadgets used to map satisfiability questions into programs.
"""

# ``import nudfa`` binds every submodule.  Without bytecode caches the order
# they are compiled in moves a process's peak memory, so it stays as it was.
from . import (  # noqa: F401
    algebra, circuits, compile, congruence, fieldpoly, fixtures, hardness,
    limits, localize, lowering, modcircuit, partitions, programs, solvers,
)
