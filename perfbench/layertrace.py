"""Per-layer tracing of cliffspin from outside the package.

``Tracer.install()`` replaces cliffspin's functions, in every cliffspin
namespace that holds them, with wrappers that record calls, work counts and
self time (a span's duration minus that of the wrapped spans nested in it),
aggregated per layer group.  Spans are recorded only inside ``Tracer.op()``,
so the benchmark's own checks cost nothing and count nowhere.
``uninstall()`` puts the original functions back.  No source file of the
package changes.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, qualified name) -> layer group.  Every other public function of a
# module goes to "<module>.other".
GROUPS = {
    ("multivector", "Multivector.__init__"): "multivector.construct",
    ("multivector", "geometric_product"): "multivector.product",
    ("multivector", "wedge"): "multivector.bilinear",
    ("multivector", "left_contraction"): "multivector.bilinear",
    ("multivector", "right_contraction"): "multivector.bilinear",
    ("multivector", "scalar_product"): "multivector.bilinear",
    ("multivector", "inverse"): "multivector.inverse",
    ("multivector", "_left_mult_matrix"): "multivector.inverse",
    ("multivector", "exp_bivector"): "multivector.exp_bivector",
    ("groups", "Rotor.__post_init__"): "groups.rotor_check",
    ("groups", "VectorFrame.__post_init__"): "groups.frame_check",
    ("groups", "SpinorialFrame.__post_init__"): "groups.frame_check",
    ("groups", "is_spin_e"): "groups.spin_e_check",
    ("groups", "is_spin"): "groups.spin_e_check",
    ("groups", "is_pin"): "groups.spin_e_check",
    ("groups", "is_clifford_group"): "groups.spin_e_check",
    ("spinors", "bilinear_covariants"): "spinors.covariants",
    ("spinors", "BilinearCovariants.__post_init__"): "spinors.covariants",
    ("spinors", "fierz_residuals"): "spinors.fierz",
    ("spinors", "canonical_decompose"): "spinors.decompose",
    ("spinors", "canonical_reconstruct"): "spinors.decompose",
    ("spinors", "recover_from_covariants"): "spinors.recover",
    ("dirac", "dhe_residual"): "dirac.dhe",
    ("dirac", "asf_residual"): "dirac.asf",
    ("dirac", "matrix_dirac_residual"): "dirac.matrix",
    ("dirac", "matrix_column_at"): "dirac.matrix",
    ("dirac", "planewave_solution"): "dirac.fields",
    ("dirac", "right_gauge"): "dirac.fields",
    ("dirac", "left_gauge"): "dirac.fields",
    ("dirac", "both_gauge"): "dirac.fields",
    ("matrixrep", "matrix_of"): "matrixrep.matrix_of",
    ("matrixrep", "standard_gammas"): "matrixrep.gammas",
    ("classify", "find_primitive_idempotent"): "classify.search",
    ("classify", "ideal_real_dim"): "classify.span",
    ("classify", "ideal_basis"): "classify.span",
    ("classify", "_subalgebra_basis"): "classify.span",
    ("classify", "division_ring_of"): "classify.span",
    ("expressions", "tokenize"): "expressions.evaluate",
    ("expressions", "parse"): "expressions.evaluate",
    ("expressions", "evaluate"): "expressions.evaluate",
    ("expressions", "evaluate_source"): "expressions.evaluate",
    ("expressions", "ast_to_text"): "expressions.evaluate",
    ("serialization", "to_json"): "serialization.write",
    ("serialization", "to_json_dict"): "serialization.write",
    ("serialization", "format_multivector"): "serialization.write",
    ("serialization", "from_json"): "serialization.read",
    ("serialization", "from_json_dict"): "serialization.read",
    ("serialization", "parse_multivector"): "serialization.read",
}

LAYER_MODULES = (
    "multivector",
    "groups",
    "spinors",
    "dirac",
    "matrixrep",
    "classify",
    "expressions",
    "serialization",
)


def _product_pairs(args, kwargs) -> int:
    a, b = args[0], args[1]
    return len(a._terms) * len(b._terms)


def _constructed_terms(args, kwargs) -> int:
    terms = args[2] if len(args) > 2 else kwargs.get("terms")
    return len(terms) if terms else 0


# Work counters: (module, name) -> (counter key, function of the call's arguments).
WORK = {
    ("multivector", "geometric_product"): ("multivector.product.term_pairs", _product_pairs),
    ("multivector", "Multivector.__init__"): ("multivector.construct.terms", _constructed_terms),
    ("multivector", "_left_mult_matrix"): ("multivector.inverse.general_calls", lambda a, k: 1),
    ("classify", "ideal_real_dim"): ("classify.search.rank_probes", lambda a, k: 1),
}


# Counters of a call's result: (module, name) -> (counter key, function of the result).
RESULT_WORK = {
    ("classify", "find_primitive_idempotent"): ("classify.search.factors_kept", lambda r: len(r.factors)),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.op_ns = 0
        self.bench_self_ns = 0
        self._stack: list[list] = []  # [group, time of wrapped children in ns]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn, work=None, result_work=None):
        stack = self._stack
        calls, self_ns, counts = self.calls, self.self_ns, self.work
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if work is not None:
                counts[work[0]] += work[1](args, kwargs)
            # A call counts once per entry into its group: nested calls in the
            # same group (recursion, is_spin_e -> is_spin, inverse's general
            # path) add time but not calls.
            if stack[-1][0] != group:
                calls[group] += 1
            frame = [group, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if result_work is not None:
                    counts[result_work[0]] += result_work[1](result)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                self_ns[group] += dt - frame[1]
                stack[-1][1] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self) -> None:
        """Wrap every traced function of the loaded cliffspin modules."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "cliffspin" or name.startswith("cliffspin."))
        }
        for short in LAYER_MODULES:
            mod = modules["cliffspin." + short]
            targets: dict[str, object] = {}
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not name.startswith("_") or (short, name) in GROUPS:
                        targets[name] = obj
            for (m, qual), _ in GROUPS.items():
                if m == short and "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[meth]
                    wrapped = self._wrap(GROUPS[(m, qual)], fn, WORK.get((m, qual)))
                    self._patches.append((cls, meth, fn))
                    setattr(cls, meth, wrapped)
            for name, fn in targets.items():
                group = GROUPS.get((short, name), f"{short}.other")
                wrapped = self._wrap(
                    group, fn, WORK.get((short, name)), RESULT_WORK.get((short, name))
                )
                for ns in modules.values():
                    if vars(ns).get(name) is fn:
                        self._patches.append((ns, name, fn))
                        setattr(ns, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patches):
            setattr(owner, name, fn)
        self._patches.clear()

    @contextmanager
    def op(self):
        """One traced operation: the root span of every layer span in it."""
        root = [None, 0]
        self._stack.append(root)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            dt = perf_counter_ns() - t0
            self._stack.pop()
            self.bench_self_ns += dt - root[1]
            self.op_ns += dt

    def group_self_ms(self, group: str) -> float:
        return self.self_ns.get(group, 0) / 1e6

    def accounted_ms(self) -> float:
        """Layer self times plus the benchmark's own time inside operations."""
        return (sum(self.self_ns.values()) + self.bench_self_ns) / 1e6
