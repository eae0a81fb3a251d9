"""Per-layer spans around greenkernel's public entry points, installed from outside.

``Tracer.install()`` replaces each entry point named in ``ENTRY_POINTS`` by a
wrapper, wherever a greenkernel module binds it: the defining module, every
module that imported the name, and the class for methods.  Each call records
a span ``[name, start_ns, end_ns, parent_index]`` in memory.  ``layers()``
turns the spans into self time (duration minus the durations of the direct
child spans) and call counts per span name.  Nothing inside greenkernel is
edited; the wrappers live as long as the process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# span name -> entry points ("module", "attribute" or "Class.attribute")
ENTRY_POINTS = {
    "fgl.honda_fgl": [("fgl", "honda_fgl")],
    "fgl.formal_inverse": [("fgl", "formal_inverse")],
    "fgl.m_series": [("fgl", "m_series")],
    "hopftower.honda_level": [("hopftower", "honda_level")],
    "hopftower.hopf_check": [("hopftower", "hopf_check")],
    "hopftower.is_hopf_map": [("hopftower", "is_hopf_map")],
    "hopftower.pdiv_check": [("hopftower", "pdiv_check")],
    "borel.mul_vec": [("borel", "BorelAlgebra.mul_vec")],
    "borel.check_module_map": [("borel", "AlgebraMap.check_module_map")],
    "borel.check_multiplicative": [("borel", "AlgebraMap.check_multiplicative")],
    "borel.from_generator_images": [("borel", "AlgebraMap.from_generator_images")],
    "borel.Subalgebra": [("borel", "Subalgebra.__init__")],
    "borel.BorelAlgebra": [("borel", "BorelAlgebra.__init__")],
    "borel.tensor": [("borel", "tensor")],
    "frobform.gysin": [("frobform", "gysin")],
    "frobform.canonical_form": [("frobform", "canonical_form")],
    "exactkernel.rref": [("exactkernel", "FpMatrix.rref")],
    "exactkernel.subspace_contains": [("exactkernel", "subspace_contains")],
    "green.restrict": [("green", "restrict")],
    "green.stable_elements": [("green", "stable_elements")],
    "green.functor": [("green", "SubgroupGreenFunctor." + m)
                      for m in ("value", "res", "ind", "conj")],
    "audit": [("audit", "audit_mackey"), ("audit", "audit_assumptions")],
    "cli": [("cli", "dispatch")],
}

# The permutation primitives run millions of times inside group closures; a
# span each would cost more than the work, so their time stays in the caller.
_GRP_PRIMITIVES = {"perm_mul", "perm_inv", "perm_order"}


def _grp_entry_points(grp) -> list[tuple[str, str]]:
    """Public functions of ``grp`` and the public methods and constructors of
    its classes, all under the one span name ``grp``."""
    out = []
    for name, obj in vars(grp).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != grp.__name__:
            continue
        if inspect.isfunction(obj) and name not in _GRP_PRIMITIVES:
            out.append(("grp", name))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr == "__init__" or (not attr.startswith("_") and inspect.isfunction(raw)):
                    out.append(("grp", "%s.%s" % (name, attr)))
    return out


class Tracer:
    """Records spans of the wrapped entry points once installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def install(self) -> None:
        import greenkernel.audit  # noqa: F401  (cli imports it lazily)

        modules = {m: sys.modules["greenkernel." + m] for m in
                   ("fgl", "hopftower", "borel", "frobform", "exactkernel",
                    "green", "grp", "audit", "cli")}
        package = [mod for key, mod in sys.modules.items()
                   if key == "greenkernel" or key.startswith("greenkernel.")]
        points = [(span, mod, path) for span, targets in ENTRY_POINTS.items()
                  for mod, path in targets]
        points += [("grp", mod, path) for mod, path in _grp_entry_points(modules["grp"])]
        for span, mod, path in points:
            owner = modules[mod]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(span, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(span, raw))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(span, orig)
            for m in package:
                for bound, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, bound, wrapped)

    def layers(self) -> dict[str, dict[str, float]]:
        """Self time in seconds and call count per span name.  Every name in
        ``ENTRY_POINTS`` (and ``grp``) is present, with zeros if never called."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"self_s": 0.0, "calls": 0} for name in [*ENTRY_POINTS, "grp"]}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            out[name]["self_s"] += (end - start - inner) / 1e9
            out[name]["calls"] += 1
        return out
