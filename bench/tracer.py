"""Outside-in tracing of the package's layers.

``Tracer.install`` replaces selected public functions of ``nudfa.*`` with
timing wrappers.  The modules import each other's functions by name
(``from .algebra import UnaryClone``), so every module attribute bound to
the original object is rebound, not only the defining one; methods are
patched on their class.  ``uninstall`` puts the originals back.

Two kinds of wrapper share one call stack:

- *span* targets (the coarse stages) record one span per call, with its
  parent span, start and end, relative to the tracer's start;
- *leaf* targets (the hot evaluators) only add to a call count and a time.

Both feed the per-module self time: each call's duration minus the
duration of the wrapped calls it made is charged to its module, so the
module self times add up to the duration of the outermost calls.  A
recursive call adds to a target's inclusive time only at its outermost
level.  ``limits.charge`` is wrapped separately to keep, per budget label,
the highest count/cap ratio it was asked to check.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute path) of every span target.  The first group holds the
# stages the benchmark reports; the second holds other public entry points
# that the CLI calls directly, wrapped so their time is charged to their
# own module rather than to the caller.
SPANS = (
    ("cli", "main"),
    ("cli", "verify_harness"),
    ("fixtures", "get_fixture"),
    ("algebra", "UnaryClone.__init__"),
    ("algebra", "find_malcev_polynomial"),
    ("congruence", "all_congruences"),
    ("congruence", "commutator"),
    ("congruence", "distinguished_congruences"),
    ("compile", "compile_nilpotent"),
    ("compile", "compile_supernilpotent"),
    ("compile", "central_representation"),
    ("compile", "descend_mod_beta"),
    ("lowering", "collapse_5to3"),
    ("lowering", "apply_func"),
    ("lowering", "emit_modsum"),
    ("fieldpoly", "multilinear_interpolate"),
    ("modcircuit", "cc_truth_table"),
    ("programs", "truth_table"),
    ("programs", "quotient_program"),
    ("solvers", "progcsat_exhaustive"),
    ("solvers", "ceqv_via_meet_irreducibles"),
    ("hardness", "find_two_prime_witness"),
    ("hardness", "cnf_to_lattice_program"),
    ("localize", "minimal_sets"),
    # attribution only
    ("algebra", "verify_malcev"),
    ("algebra", "quotient_algebra"),
    ("congruence", "is_supernilpotent_algebra"),
    ("congruence", "supernilpotent_rank"),
    ("congruence", "is_nilpotent_congruence"),
    ("localize", "traces"),
    ("hardness", "build_two_prime_program"),
    ("solvers", "csat_exhaustive"),
    ("solvers", "ceqv_exhaustive"),
    ("solvers", "csat_to_progcsat"),
    ("solvers", "ceqv_to_progcsat"),
)

LEAVES = (
    ("modcircuit", "eval_cc"),
    ("circuits", "eval_circuit"),
    ("programs", "AlgProgram.accepts"),
)


# Sizes recorded after a call and summed per target: (name, measure).
SIZES = {
    "algebra.UnaryClone": ("functions", lambda args, result: len(args[0].functions)),
    "congruence.all_congruences": ("elements", lambda args, result: len(result.elements)),
}


def _key(module: str, path: str) -> str:
    """``UnaryClone.__init__`` is reported as the class itself."""
    return f"{module}.{path.removesuffix('.__init__')}"


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.stack: list[list] = []  # [key, module, start, child_s, span]
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = {}
        self.spans: list[list] = []  # [key, parent index, start, end]
        self.total_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- call bookkeeping ----------------------------------------------------

    def enter(self, key: str, module: str, span: bool) -> list:
        now = time.perf_counter()
        index = None
        if span:
            parent = next((f[4] for f in reversed(self.stack) if f[4] is not None), None)
            index = len(self.spans)
            self.spans.append([key, parent, now - self.origin, None])
        frame = [key, module, now, 0.0, index]
        self.stack.append(frame)
        self.depth[key] += 1
        return frame

    def leave(self, frame: list) -> None:
        now = time.perf_counter()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("tracer call stack out of order")
        key, module, start, child_s, index = frame
        elapsed = now - start
        self.self_s[module] += elapsed - child_s
        if self.stack:
            self.stack[-1][3] += elapsed
        else:
            self.total_s += elapsed
        self.calls[key] += 1
        self.depth[key] -= 1
        if self.depth[key] == 0:
            self.inclusive[key] += elapsed
        if index is not None:
            self.spans[index][3] = now - self.origin

    def charged(self, count: int, cap: int, what: str) -> None:
        ratio = count / cap if cap else float("inf")
        if ratio > self.peaks.get(what, 0.0):
            self.peaks[what] = ratio

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, key: str, module: str, span: bool):
        tracer = self
        size = SIZES.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(key, module, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if size is not None:
                name, measure = size
                tracer.sizes[f"{key}.{name}"] += measure(args, result)
            return result

        return wrapper

    def _wrap_charge(self, fn):
        tracer = self

        @functools.wraps(fn)
        def charge(count, cap, what):
            tracer.charged(count, cap, what)
            return fn(count, cap, what)

        return charge

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Point every ``nudfa`` module name bound to ``original`` elsewhere."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "nudfa" or name.startswith("nudfa.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> "Tracer":
        import nudfa.cli  # noqa: F401  (loads every module that gets wrapped)

        for targets, span in ((SPANS, True), (LEAVES, False)):
            for module, path in targets:
                mod = sys.modules[f"nudfa.{module}"]
                key = _key(module, path)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[attr]
                    self._set(cls, attr, self._wrap(original, key, module, span))
                else:
                    original = getattr(mod, path)
                    self._rebind(original, self._wrap(original, key, module, span))
        original = sys.modules["nudfa.limits"].charge
        self._rebind(original, self._wrap_charge(original))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "s": dict(self.inclusive),
            "self_s": dict(self.self_s),
            "sizes": dict(self.sizes),
            "peaks": dict(self.peaks),
            "total_s": self.total_s,
            "spans": self.spans,
        }
