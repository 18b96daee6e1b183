"""Per-layer tracing from outside the program.

The tracer wraps public functions at each module boundary of gglab and
records one span per call: (name, start, end, parent span, op id).  Spans
stay in compact arrays in memory and are written out once, at the end.
A span's self time is its duration minus the time of its child spans.

Nothing inside gglab is edited.  Because ``suite.py`` and
``instances.py`` import many functions by name, a wrapper has to replace
every module attribute that holds the function.  ``install`` first
asserts that every gglab module binding one of the traced names holds the
very same object, so a later rebinding fails loudly instead of quietly
reporting zero calls.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> (home module, attribute path); dotted paths patch a class
SPANS = {
    "kernel.rref_mod": ("gglab._purerref", "rref_mod"),
    "kernel.rref_frac": ("gglab._purerref", "rref_frac"),
    "linalg.rref": ("gglab.linalg", "rref"),
    "linalg.subspace_coords": ("gglab.linalg", "Subspace.coords"),
    "linalg.solve": ("gglab.linalg", "solve"),
    "linalg.nullspace": ("gglab.linalg", "nullspace"),
    "fields.reduce": ("gglab.fields", "Field.reduce"),
    "algebra.mul": ("gglab.algebra", "Algebra.mul"),
    "algebra.validate_algebra": ("gglab.algebra", "validate_algebra"),
    "algebra.commutant": ("gglab.algebra", "commutant"),
    "algebra.is_unital_subalgebra": ("gglab.algebra", "is_unital_subalgebra"),
    "groupoid.enumerate_subgroupoids": ("gglab.groupoid", "enumerate_subgroupoids"),
    "groupoid.closure": ("gglab.groupoid", "closure"),
    "action.validate_action": ("gglab.action", "validate_action"),
    "action.restrict": ("gglab.action", "restrict"),
    "action.invariants": ("gglab.action", "invariants"),
    "action.fixer_subgroupoid": ("gglab.action", "fixer_subgroupoid"),
    "galois.j_module": ("gglab.galois", "j_module"),
    "galois.check_galois_coordinates": ("gglab.galois", "check_galois_coordinates"),
    "galois.solve_galois_coordinates": ("gglab.galois", "solve_galois_coordinates"),
    "galois.build_skew_groupoid_ring": ("gglab.galois", "build_skew_groupoid_ring"),
    "galois.j_isomorphism_check": ("gglab.galois", "j_isomorphism_check"),
    "separability.enumerate": ("gglab.separability", "enumerate_separable_subalgebras"),
    "separability.is_separable_over": ("gglab.separability", "is_separable_subalgebra_over"),
    "separability.separability_idempotent": ("gglab.separability", "separability_idempotent"),
    "separability.tensor_square": ("gglab.separability", "tensor_square"),
    "suite.run_suite": ("gglab.suite", "run_suite"),
    "suite.restriction": ("gglab.suite", "SuiteState.restriction"),
    "instances.load_instance_dict": ("gglab.instances", "load_instance_dict"),
    "report.to_json": ("gglab.report", "VerificationReport.to_json"),
}

# layer -> workloads on which it must record at least one call
HEAVY = {
    "kernel": ("builtins", "klein_p", "objects", "rational"),
    "linalg": ("klein_p", "objects"),
    "fields": ("builtins", "klein_p", "objects", "rational"),
    "algebra": ("builtins", "rational"),
    "groupoid": ("objects",),
    "action": ("objects",),
    "galois": ("builtins", "objects"),
    "separability": ("builtins", "klein_p"),
    "suite": ("builtins", "klein_p", "objects", "rational"),
    "instances": ("builtins", "klein_p", "objects", "rational"),
    "report": ("builtins", "klein_p", "objects", "rational"),
}


KERNEL_TWINS = ("gglab._purerref", "gglab._fastrref")


class BindingError(RuntimeError):
    pass


def _gglab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "gglab" or name.startswith("gglab.")]


def binding_sites(home: str, path: str) -> list:
    """Every gglab module attribute bound to the traced object's top name.

    Raises BindingError when one of them holds a different object.
    """
    top = path.split(".")[0]
    obj = getattr(sys.modules[home], top)
    sites = []
    for mod in _gglab_modules():
        value = vars(mod).get(top)
        if value is None:
            continue
        if value is not obj:
            if home in KERNEL_TWINS and mod.__name__ in KERNEL_TWINS:
                continue  # the other kernel's own function of the same name
            raise BindingError(
                f"{mod.__name__}.{top} is not {home}.{top}; a wrapper there would miss calls"
            )
        sites.append(mod)
    return sites


class Tracer:
    def __init__(self):
        self.names = ["op", "trace.record"] + list(SPANS)
        self.sid = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters = Counter(dict.fromkeys(
            ["kernel.rref_mod.cells", "kernel.rref_frac.cells", "groupoid.subgroupoids", "separability.found"], 0
        ))
        self.check_seconds: Counter = Counter()
        self.kernel_calls: list[tuple] = []  # (matrix copy, p or None, field kind)
        self.record_kernel = False
        self._last_add = 0.0
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, sid: int) -> int:
        idx = len(self.sid)
        self.sid.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._open(0)

    def end_op(self) -> None:
        self._close(self.stack[-1])

    def _wrap(self, fn, sid: int, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks ---------------------------------------------------------------

    def _kernel(self, kind: str):
        def before(args):
            mat = args[0]
            self.counters[f"{kind}.cells"] += mat.shape[0] * mat.shape[1]
            if self.record_kernel:
                idx = self._open(1)  # keeps the copy out of the caller's self time
                p = args[1] if len(args) > 1 else None
                self.kernel_calls.append((mat.copy(), p, kind))
                self._close(idx)

        return before

    def _count(self, key: str, measure):
        def after(result):
            self.counters[key] += measure(result)

        return after

    def _suite_start(self, args):
        self._last_add = time.perf_counter()

    def _traced_add(self, fn):
        def add(report, record):
            now = time.perf_counter()
            self.check_seconds[record.check_id] += now - self._last_add
            self._last_add = now
            return fn(report, record)

        add.__wrapped__ = fn
        return add

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Check every binding site, then patch them all."""
        plan = []
        for name, (home, path) in SPANS.items():
            plan.append((name, home, path, binding_sites(home, path)))
        fast = sys.modules.get("gglab._fastrref")
        if fast is not None:
            plan.append(("kernel.rref_mod", "gglab._fastrref", "rref_mod", binding_sites("gglab._fastrref", "rref_mod")))
        hooks = {
            "kernel.rref_mod": (self._kernel("kernel.rref_mod"), None),
            "kernel.rref_frac": (self._kernel("kernel.rref_frac"), None),
            "groupoid.enumerate_subgroupoids": (None, self._count("groupoid.subgroupoids", len)),
            "separability.enumerate": (
                None,
                self._count("separability.found", lambda res: len(res.subalgebras)),
            ),
            "suite.run_suite": (self._suite_start, None),
        }
        for name, home, path, sites in plan:
            sid = self.names.index(name)
            before, after = hooks.get(name, (None, None))
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(sys.modules[home], cls_name)
                self._patch(cls, attr, self._wrap(vars(cls)[attr], sid, before, after))
            else:
                wrapped = self._wrap(getattr(sys.modules[home], path), sid, before, after)
                for mod in sites:
                    self._patch(mod, path, wrapped)
        report_cls = sys.modules["gglab.report"].VerificationReport
        self._patch(report_cls, "add", self._traced_add(report_cls.add))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def span_arrays(self) -> dict:
        return {
            "sid": np.frombuffer(self.sid, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def totals(self) -> dict:
        """Per span name: calls and self seconds, summed over all ops."""
        s = self.span_arrays()
        dur = s["end"] - s["start"]
        child = np.zeros(len(dur))
        nested = s["parent"] >= 0
        np.add.at(child, s["parent"][nested], dur[nested])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(s["sid"], minlength=k)
        self_s = np.bincount(s["sid"], weights=own, minlength=k)
        return {nm: {"calls": int(calls[i]), "self_s": float(self_s[i])} for i, nm in enumerate(self.names)}

    def candidates(self) -> int:
        """Candidate subalgebras: unital-subalgebra tests made directly by
        the separable-subalgebra enumeration."""
        sid, parent = np.frombuffer(self.sid, dtype=np.uint16), np.frombuffer(self.parent, dtype=np.int32)
        parents = parent[sid == self.names.index("algebra.is_unital_subalgebra")]
        return int(np.sum(sid[parents] == self.names.index("separability.enumerate")))

    def layers(self) -> tuple[Counter, Counter]:
        """Calls and self seconds summed per layer (the first part of a span name)."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name, row in self.totals().items():
            if name in SPANS:
                calls[name.split(".")[0]] += row["calls"]
                self_s[name.split(".")[0]] += row["self_s"]
        return calls, self_s

    def idle_layers(self, workload: str) -> list[str]:
        """Layers that recorded no call on a workload meant to load them."""
        calls, _ = self.layers()
        return [layer for layer, heavy in HEAVY.items() if workload in heavy and calls[layer] == 0]

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.span_arrays())


def replay(kernel_calls: list[tuple], kernels: dict, reps: int = 3) -> float:
    """Median seconds to push the recorded rref inputs through ``kernels``
    (field kind -> callable taking (matrix, p))."""
    times = []
    for _ in range(reps):
        work = [(m.copy(), p, kernels[kind]) for m, p, kind in kernel_calls]
        t0 = time.perf_counter()
        for m, p, fn in work:
            fn(m, p)
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def shape_histogram(kernel_calls: list[tuple], top: int = 12) -> list:
    counts = Counter((m.shape[0], m.shape[1], kind.split(".")[-1]) for m, _, kind in kernel_calls)
    return [[f"{m}x{n}", kind, c] for (m, n, kind), c in counts.most_common(top)]
