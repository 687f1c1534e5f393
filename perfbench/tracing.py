"""Span tracer for the benchmark's traced runs.

``install`` wraps the public functions of each crlab module and rebinds
each wrapper in every crlab module that imported the function by name, so
calls made inside crlab are seen too.  Every call becomes one span (name,
start, end, parent span, operation id) kept in memory; counters are
recorded at the same boundaries.  ``per_layer`` derives per-layer counts,
inclusive and self times from the spans.

Importing this module imports neither numpy nor crlab, so a traced CLI
child can time ``import crlab.cli`` by itself.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# Spans whose calls and times are reported as ``<name>.calls`` / ``<name>.s``.
SPAN_LAYERS = (
    "autsolve.assemble",
    "autsolve.svd",
    "autsolve.validation_residual",
    "autsolve.canonicalize",
    "germs.eval",
    "germs.wirt",
    "models.surface_point",
    "models.rho_gradient",
    "models.rho",
    "fields.eval",
    "fields.tangency_residual",
    "flow.integrate_field",
    "flow.characteristic_flow",
    "vtype.vanishing_order",
    "mapverify.verdict_report",
    "counterexample.certificate",
)

CLI_SUBCOMMANDS = ("solve", "flow", "vtype", "verify", "counterexample", "examples")


class Tracer:
    """In-memory span store.  Spans are appended in start order; a span's
    parent is the innermost span open when it started (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _append(self, nid: int, parent: int, op: int, start: int, end: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return i

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        i = self._append(self._name_id(name), parent, self.op_id, perf_counter_ns(), 0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def record(self, name: str, start_ns: int, end_ns: int, parent: int = -1) -> int:
        """Add a span timed elsewhere (e.g. in a child process)."""
        return self._append(self._name_id(name), parent, self.op_id, start_ns, end_ns)

    def wrap(self, name: str, fn, after=None):
        """``fn`` traced as span ``name``; ``after(args, kwargs, result)``
        records counters from a successful call."""
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._append(nid, stack[-1] if stack else -1, self.op_id, 0, 0)
            stack.append(i)
            self.start[i] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
            },
            "counts": dict(self.counts),
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    def merge(self, data: dict, parent: int = -1) -> None:
        """Append spans saved by ``save`` in another process under
        ``parent``, tagged with the current operation id."""
        sp = data["spans"]
        base = len(self.start)
        ids = [self._name_id(n) for n in data["names"]]
        for nid, par, start, end in zip(sp["name"], sp["parent"], sp["start_ns"], sp["end_ns"]):
            self._append(ids[nid], parent if par < 0 else base + par, self.op_id, start, end)
        self.counts.update(data["counts"])


def _rebind(original, wrapper, undo: list) -> None:
    """Replace ``original`` by ``wrapper`` wherever a crlab module holds it."""
    for modname, mod in list(sys.modules.items()):
        if modname != "crlab" and not modname.startswith("crlab."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                _setattr(mod, attr, wrapper, undo)


def _setattr(obj, attr, value, undo: list) -> None:
    undo.append((obj, attr, getattr(obj, attr)))
    setattr(obj, attr, value)


def install(tracer: Tracer):
    """Wrap the public functions of each crlab layer.  Call after
    ``import crlab`` (and ``crlab.cli`` where it is used).  Returns a
    function that puts the originals back."""
    import numpy as np
    import scipy.integrate

    from crlab import autsolve, fields, flow, germs, mapverify, models, vtype
    from crlab import counterexample

    counts = tracer.counts
    tiny = np.finfo(float).tiny
    undo: list = []

    def on_assemble(args, kwargs, system):
        counts["autsolve.assemble.matrix_bytes"] += int(system.matrix.nbytes)

    def on_svd(args, kwargs, factors):
        counts["autsolve.svd.factor_bytes"] += sum(int(np.asarray(a).nbytes) for a in factors)

    def on_nullspace(args, kwargs, basis):
        counts["autsolve.null_dim_total"] += basis.dimension

    def on_validation(args, kwargs, resid):
        f = args[1] if len(args) > 1 else kwargs["f"]
        counts["autsolve.validated"] += 1
        counts["autsolve.certified"] += int(resid <= autsolve.CERT_TOL * max(f.max_coefficient(), tiny))

    def on_canonicalize(args, kwargs, basis):
        counts["autsolve.labels"] += len(basis.labels)
        counts["autsolve.labeled"] += sum(lab != "unidentified" for lab in basis.labels)

    def points(key):
        def after(args, kwargs, result):
            counts[key] += int(np.size(args[1]))
        return after

    functions = (
        (autsolve, "assemble", "autsolve.assemble", on_assemble),
        (autsolve, "nullspace", "autsolve.nullspace", on_nullspace),
        (autsolve, "validation_residual", "autsolve.validation_residual", on_validation),
        (autsolve, "canonicalize", "autsolve.canonicalize", on_canonicalize),
        (autsolve, "solve_model", "autsolve.solve_model", None),
        (models, "surface_point", "models.surface_point", None),
        (models, "rho_gradient", "models.rho_gradient", None),
        (models, "rho", "models.rho", None),
        (fields, "tangency_residual", "fields.tangency_residual", None),
        (flow, "integrate_field", "flow.integrate_field", None),
        (flow, "characteristic_flow", "flow.characteristic_flow", None),
        (vtype, "vanishing_order", "vtype.vanishing_order", None),
        (mapverify, "verdict_report", "mapverify.verdict_report", None),
        (counterexample, "certificate", "counterexample.certificate", None),
    )
    for mod, attr, name, after in functions:
        original = getattr(mod, attr)
        _rebind(original, tracer.wrap(name, original, after), undo)

    methods = (
        (germs.SmoothGerm, "__call__", "germs.eval", points("germs.eval.points")),
        (germs.SmoothGerm, "wirt", "germs.wirt", points("germs.wirt.points")),
        (fields.VectorFieldPoly, "eval", "fields.eval", None),
    )
    for cls, attr, name, after in methods:
        _setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after), undo)

    # autsolve calls the SVD as ``np.linalg.svd``; numpy's own functions do
    # not look that attribute up, so patching it sees autsolve's calls only.
    _setattr(np.linalg, "svd", tracer.wrap("autsolve.svd", np.linalg.svd, on_svd), undo)

    # Right-hand-side evaluations are counted, not spanned: each is a few
    # microseconds and the count is what an optimisation would move.  The
    # wrapper replaces ``scipy.integrate.solve_ivp`` itself, so a lazy
    # ``from scipy.integrate import solve_ivp`` inside crlab picks it up, and
    # every crlab module global bound to it.
    solve_ivp = scipy.integrate.solve_ivp

    @functools.wraps(solve_ivp)
    def counted_solve_ivp(fun, *args, **kwargs):
        def rhs(t, y):
            counts["flow.rhs_evals"] += 1
            return fun(t, y)
        return solve_ivp(rhs, *args, **kwargs)

    _setattr(scipy.integrate, "solve_ivp", counted_solve_ivp, undo)
    _rebind(solve_ivp, counted_solve_ivp, undo)

    def uninstall():
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return uninstall


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(tracer: Tracer, n_passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, counts and times per traced pass."""
    n = len(tracer.start)
    names = tracer.names
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_ns: Counter = Counter()
    durations: dict[str, list[int]] = {}
    germ_calls_in_vtype = 0
    for i in range(n):
        name = names[tracer.name[i]]
        calls[name] += 1
        incl[name] += dur[i]
        self_ns[name] += dur[i] - child[i]
        if name.startswith("cli."):
            durations.setdefault(name, []).append(dur[i])
        p = tracer.parent[i]
        if name == "germs.eval" and p >= 0 and names[tracer.name[p]] == "vtype.vanishing_order":
            germ_calls_in_vtype += 1

    k = max(n_passes, 1)
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = (calls[layer] / k, "count")
        out[f"{layer}.s"] = (incl[layer] / k * 1e-9, "s")
    out["autsolve.svd.factor_mb"] = (c["autsolve.svd.factor_bytes"] / k / 1e6, "MB")
    out["autsolve.assemble.matrix_mb"] = (c["autsolve.assemble.matrix_bytes"] / k / 1e6, "MB")
    out["autsolve.nullspace.self_s"] = (self_ns["autsolve.nullspace"] / k * 1e-9, "s")
    out["autsolve.certified_ratio"] = (_ratio(c["autsolve.certified"], c["autsolve.validated"]), "ratio")
    out["autsolve.labeled_ratio"] = (_ratio(c["autsolve.labeled"], c["autsolve.labels"]), "ratio")
    out["autsolve.null_dim_total"] = (c["autsolve.null_dim_total"] / k, "count")
    out["germs.eval.points"] = (c["germs.eval.points"] / k, "count")
    out["germs.wirt.points"] = (c["germs.wirt.points"] / k, "count")
    out["flow.rhs_evals"] = (c["flow.rhs_evals"] / k, "count")
    out["vtype.germ_calls_per_point"] = (
        _ratio(germ_calls_in_vtype, calls["vtype.vanishing_order"]), "count")
    out["cli.python_start_s"] = (_median(durations.get("cli.python_start")) * 1e-9, "s")
    out["cli.import_s"] = (_median(durations.get("cli.import")) * 1e-9, "s")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.s"] = (_median(durations.get(f"cli.{sub}")) * 1e-9, "s")
    out["cli.report_bytes"] = (c["cli.report_bytes"] / k, "B")
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
