"""Outside-in span tracer for fqav.

``Tracer.install`` replaces the functions and methods listed in ``TRACED``
with timing wrappers: a plain function is replaced in every ``fqav`` module
namespace that binds it, a method on its class.  ``fractions.Fraction``
constructions are counted, not spanned.  ``Tracer.remove`` puts every
original object back.

Each span records its name, start, end, parent span and command id, in
flat arrays kept in memory until the run ends.  A span's self time is its
duration minus the durations of its direct child spans, so it includes
the tracer's own bookkeeping for those children.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import sys
import time
from array import array

PACKAGE = "fqav"

# (module, qualified name) of every traced callable
TRACED = (
    ("cli", "parse_input"),
    ("cli", "serialize"),
    ("action", "close_group"),
    ("action", "AffineAutomorphism.compose"),
    ("action", "fixed_locus"),
    ("action", "pointwise_stabilizer"),
    ("action", "age"),
    ("classify", "ramification_data"),
    ("classify", "reid_tai"),
    ("decompose", "decompose"),
    ("decompose", "_decompose_level"),
    ("decompose", "check_normal"),
    ("decompose", "_element_inverse"),
    ("decompose", "LatticeElement.compose"),
    ("decompose", "element_fixed_solution"),
    ("decompose", "lattice_quasietale_outside"),
    ("decompose", "lattice_kappa"),
    ("decompose", "split_action"),
    ("decompose", "_check_n_tilde_group"),
    ("decompose", "close_elements"),
    ("linalg", "solve_affine_mod_lattice"),
    ("linalg", "snf"),
    ("linalg", "hermite_basis"),
    ("linalg", "TorsionPoint.apply_matrix"),
    ("variety", "rational_rep"),
    ("variety", "EndoBlockMatrix.compose"),
    ("variety", "SubtorusTranslate.canonical_key"),
    ("cyclotomic", "eigen_multiplicity"),
    ("cyclotomic", "kernel_dimension"),
)

FRACTION_NEW = "linalg.fraction_new"


def _matrix_key(matrix):
    return tuple(tuple(row) for row in matrix)


# argument keys for the distinct-input ratio: what a cache would key on
DISTINCT_KEYS = {
    "action.fixed_locus": lambda args: args[0],
    "linalg.solve_affine_mod_lattice": lambda args: (_matrix_key(args[0]), args[1]),
}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{qual}" for mod, qual in TRACED]
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_cmd = array("l")
        self.cmd_id = -1
        self.fraction_news = 0
        self.distinct = {name: set() for name in DISTINCT_KEYS}
        self.closed = {}        # close_group span -> order of the group it returned
        self._stack = [-1]
        self._restore = []      # (owner, attribute, original object)

    # -- installing and removing -------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for mod, _ in TRACED:
            importlib.import_module(f"{PACKAGE}.{mod}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for idx, (mod, qual) in enumerate(TRACED):
            module = sys.modules[f"{PACKAGE}.{mod}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(idx, original))
                continue
            original = getattr(module, qual)
            wrapper = self._wrap(idx, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, original, wrapper)
        self._count_fractions()

    def remove(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def patched(self):
        """(owner, attribute) pairs currently replaced."""
        return [(owner, attr) for owner, attr, _ in self._restore]

    def _patch(self, owner, attr, original, replacement):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _count_fractions(self):
        cls = fractions.Fraction
        original = cls.__dict__["__new__"]
        new = original.__func__
        tracer = self

        def counted_new(cls, *args, **kwargs):
            tracer.fraction_news += 1
            return new(cls, *args, **kwargs)

        self._patch(cls, "__new__", original, counted_new)

    def _wrap(self, idx, func):
        name_at, start, end = self.span_name, self.span_start, self.span_end
        parent, cmd, stack = self.span_parent, self.span_cmd, self._stack
        clock = time.perf_counter
        key = DISTINCT_KEYS.get(self.names[idx])
        seen = self.distinct.get(self.names[idx])
        closed = self.closed if self.names[idx] == "action.close_group" else None
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = len(name_at)
            name_at.append(idx)
            parent.append(stack[-1])
            cmd.append(tracer.cmd_id)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if key is not None:
                seen.add((tracer.cmd_id, key(args)))
            if closed is not None:
                closed[span] = result.order
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def closure_yield(self):
        """(elements, compositions) of the close_group calls that returned
        a group: the elements they found and the compositions they tried."""
        compose = self.names.index("action.AffineAutomorphism.compose")
        tried = sum(1 for i, p in enumerate(self.span_parent)
                    if p in self.closed and self.span_name[i] == compose)
        return sum(self.closed.values()), tried

    def summary(self, command_names):
        """Per-function call counts and self seconds, and calls per command
        name.  ``command_names[i]`` is the fqav command run as command id i."""
        count = len(self.span_name)
        children = [0.0] * count
        names = self.names
        calls = {n: 0 for n in names}
        self_s = {n: 0.0 for n in names}
        calls_by_cmd = {}
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                children[p] += self.span_end[i] - self.span_start[i]
        for i in range(count):
            name = names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - children[i]
            c = self.span_cmd[i]
            key = (name, command_names[c] if c >= 0 else None)
            calls_by_cmd[key] = calls_by_cmd.get(key, 0) + 1
        return calls, self_s, calls_by_cmd
