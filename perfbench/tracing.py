"""Span tracing around the public functions of every mtzeta module.

``Tracer.install`` replaces each public function (the names in a module's
``__all__``) and the ``Expr`` ring operations with a wrapper that records a
span: name, start, end, parent span and case id.  Every module namespace
that imported a function by name (``reduction.eval_expr``,
``mzvconvert.binomial``, ...) gets the wrapper too, so internal calls are
traced.  Spans stay in memory in flat arrays; ``per_layer`` derives the
per-layer metrics from them and ``write`` saves them when the run ends.
"""

from __future__ import annotations

import array
import importlib
import inspect
import time
from pathlib import Path

LAYERS = (
    "exact", "partitions", "bernprod", "symexpr", "mzvconvert",
    "numerics", "reduction", "dirichlet", "cli",
)
EXPR_OPS = ("__add__", "__sub__", "__mul__", "scale", "substitute")
KERNELS = (
    "even_zeta", "zeta_int", "hurwitz_zeta", "lerch_phi",
    "mzv_eval", "mt_direct", "mt_via_mzv",
)
IDENTITY_CONSTRUCTORS = ("cyclic_sum_identity", "depth2_identity", "quad_identity", "quad_ones_identity")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.case = array.array("l")
        self.case_id = -1
        # span index -> facts observed from arguments and results
        self.facts: dict[int, dict] = {}
        self._stack = [-1]

    # -- recording -------------------------------------------------------

    def _wrap(self, qualname: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(qualname)
        name, start, end, parent, case, stack = (
            self.name, self.start, self.end, self.parent, self.case, self._stack,
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            case.append(tracer.case_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                tracer.facts[idx] = observe(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        modules = [importlib.import_module(f"mtzeta.{m}") for m in LAYERS]
        expr = modules[LAYERS.index("symexpr")].Expr
        self._substitute = expr.substitute
        for layer, mod in zip(LAYERS, modules):
            public = getattr(mod, "__all__", ["main"])  # cli's only public function
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn, self._observer(layer, attr, fn))
        for op in EXPR_OPS:
            setattr(expr, op, self._wrap(f"symexpr.Expr.{op}", getattr(expr, op)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def _observer(self, layer: str, attr: str, fn):
        if layer == "numerics" and attr in KERNELS:
            sig = inspect.signature(fn)

            def kernel(args, kwargs, out):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                facts = {"met": out.bound <= bound.arguments["cfg"].target_tol}
                if attr == "mzv_eval":
                    colors = bound.arguments["colors"] or ()
                    facts["depth"] = len(bound.arguments["exps"])
                    facts["colored"] = any(c % 1 for c in colors)
                return facts

            return kernel
        if layer == "numerics" and attr == "eval_expr":
            def requested(args, kwargs, out):
                e = args[0]
                z0 = args[1] if len(args) > 1 else kwargs.get("z0")
                if z0 is not None:
                    e = self._substitute(e, z0)
                return {"atoms": len(set(e.atoms()))}

            return requested
        if layer == "mzvconvert" and attr == "mt_to_mzv":
            return lambda args, kwargs, out: {"atoms_out": len(out)}
        if layer == "reduction" and attr in IDENTITY_CONSTRUCTORS:
            return lambda args, kwargs, out: {"rhs_terms": len(out.rhs)}
        return None

    # -- derived metrics ---------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def per_layer(self, output_bytes: int) -> dict[str, float]:
        """Per-layer counts and self times.  Ratios whose base is zero read 0."""
        self_s = self.self_times()
        names = [self.names[k] for k in self.name]
        m: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            m[key] = m.get(key, 0) + value

        atoms_requested = kernel_calls = kernels_met = 0
        for i, qual in enumerate(names):
            layer, _, func = qual.partition(".")
            facts = self.facts.get(i, {})
            add(f"{layer}.calls", 1)
            add(f"{layer}.self_s", self_s[i])
            if func.startswith("Expr."):
                add("symexpr.expr_ops", 1)
            if layer == "numerics":
                if func == "mzv_eval" and facts["depth"] >= 2:
                    kind = "mzv_colored" if facts["colored"] else "mzv_trivial"
                    add(f"numerics.{kind}.calls", 1)
                    add(f"numerics.{kind}.self_s", self_s[i])
                elif func != "mzv_eval":
                    add(f"numerics.{func}.calls", 1)
                    add(f"numerics.{func}.self_s", self_s[i])
                if func == "eval_expr":
                    atoms_requested += facts["atoms"]
                p = self.parent[i]
                if func in KERNELS and p >= 0 and names[p] == "numerics.eval_expr":
                    kernel_calls += 1
                    kernels_met += facts["met"]
            if "atoms_out" in facts:
                add("mzvconvert.mzv_atoms_out", facts["atoms_out"])
            if "rhs_terms" in facts:
                add("reduction.identities", 1)
                add("reduction.rhs_terms", facts["rhs_terms"])
            if layer == "bernprod":
                add(f"bernprod.{func}.self_s", self_s[i])
        m["numerics.atoms_requested"] = atoms_requested
        m["numerics.kernel_calls"] = kernel_calls
        m["numerics.atom_reuse"] = 1 - kernel_calls / atoms_requested if atoms_requested else 0.0
        m["numerics.target_met_ratio"] = kernels_met / kernel_calls if kernel_calls else 0.0
        m["cli.output_bytes"] = output_bytes
        return m

    def write(self, path: Path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            case=np.frombuffer(self.case, dtype=np.int64),
        )
