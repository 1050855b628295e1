"""Spans around the package's layer boundaries, recorded from outside.

The tracer wraps public functions at the names that ``solver``,
``analysis`` and ``cli`` call, plus the ``SymmetricBandedMatrix`` methods
the solver path uses, and restores them afterwards.  ``get`` is left alone
on purpose: it runs about 800k times per fine solve, and wrapping it would
measure the wrapper.

A span is ``[name, start, end, parent, op_id, attrs]``; spans stay in
memory until the run writes them out.  Span names are ``<layer>.<call>``
with the layer being the package module that owns the callee.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

import hermvi
import hermvi.analysis
import hermvi.assembly
import hermvi.cli
import hermvi.solver

ROOT_SPAN = "bench.op"

#: Layers in report order; ``bench`` is the harness time between calls.
LAYERS = ("mesh", "assembly", "qp", "problems", "solver", "analysis", "cli", "bench")


def _pdas_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "active": len(result.active_set)}


def _evaluate_attrs(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _solve_attrs(args, kwargs, result):
    return {"reduced_dofs": result.qp.dim, "elements": result.solution.mesh.n_elements}


#: (owner, attribute, span name, attribute recorder).  A function imported
#: into several modules is wrapped at each name its callers use.
TARGETS = (
    (hermvi, "solve_problem", "solver.solve_problem", _solve_attrs),
    (hermvi.analysis, "solve_problem", "solver.solve_problem", _solve_attrs),
    (hermvi.cli, "solve_problem", "solver.solve_problem", _solve_attrs),
    (hermvi.solver, "assemble_system", "solver.assemble_system", None),
    (hermvi.solver, "build_mesh", "mesh.build_mesh", None),
    (hermvi.solver, "assemble_energy", "assembly.assemble_energy", None),
    (hermvi.solver, "assemble_load", "assembly.assemble_load", None),
    (hermvi.solver, "constraint_bounds", "assembly.constraint_bounds", None),
    (hermvi.solver, "apply_dirichlet", "assembly.apply_dirichlet", None),
    (hermvi.assembly.AssembledSystem, "to_qp", "assembly.to_qp", None),
    (hermvi.assembly.SymmetricBandedMatrix, "submatrix", "assembly.submatrix", None),
    (hermvi.assembly.SymmetricBandedMatrix, "factor", "assembly.factor", None),
    (hermvi.assembly.SymmetricBandedMatrix, "residual", "assembly.residual", None),
    (hermvi.assembly.SymmetricBandedMatrix, "matvec", "assembly.matvec", None),
    (hermvi.solver, "solve_pdas", "qp.solve_pdas", _pdas_attrs),
    (hermvi.solver, "kkt_residual", "qp.kkt_residual", None),
    (hermvi.cli, "kkt_residual", "qp.kkt_residual", None),
    (hermvi.cli, "get_problem", "problems.get_problem", None),
    (hermvi.cli, "verify_continuous_kkt", "problems.verify_continuous_kkt", None),
    (hermvi.cli, "run_convergence_study", "analysis.run_convergence_study", None),
    (hermvi.analysis, "error_norms", "analysis.error_norms", None),
    (hermvi.analysis, "convergence_rates", "analysis.convergence_rates", None),
    (hermvi.cli, "render_report", "analysis.render_report", None),
    (hermvi.analysis, "evaluate", "mesh.evaluate", _evaluate_attrs),
    (hermvi.cli, "evaluate", "mesh.evaluate", _evaluate_attrs),
    (hermvi.cli, "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder with reversible instrumentation."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.op_id = None
        self._root = None
        #: (qp, qp_solution) of the latest ``kkt_residual`` call, so the
        #: scaled residual can be computed after the operation.
        self.last_kkt = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        self.spans.append([name, 0.0, 0.0, parent, self.op_id, None])
        self.spans[idx][1] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if attrs is not None:
                tracer.spans[idx][5] = attrs(args, kwargs, result)
            if name == "qp.kkt_residual":
                tracer.last_kkt = args[:2]
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, attrs in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, attrs))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def begin_op(self, op_id) -> None:
        """Instrument and open the root span of operation ``op_id``."""
        self.op_id = op_id
        self._root = len(self.spans)
        self.install()
        self.open(ROOT_SPAN)

    def end_op(self) -> "OpProfile":
        """Close the root span, restore the originals, profile the operation."""
        self.close(self._root)
        self.uninstall()
        return OpProfile(self.spans, self._root)

    def to_records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, "attrs": a}
            for n, s, e, p, o, a in self.spans
        ]


class OpProfile:
    """Totals, calls and self times of one operation's spans.

    A span's self time is its duration minus its children's durations;
    calls are strictly nested in one thread, so children never overlap and
    the self times of all spans sum to the root span's duration.
    """

    def __init__(self, spans: list, first: int):
        self.spans = spans
        self.first = first
        self.last = len(spans)
        self.total = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        child = defaultdict(float)
        for name, start, end, parent, _, _ in spans[first:]:
            if parent is not None:
                child[parent] += end - start
        for idx in range(first, len(spans)):
            name, start, end = spans[idx][:3]
            own = end - start - child[idx]
            self.total[name] += end - start
            self.calls[name] += 1
            self.self_time[name] += own
            self.layer_self[name.split(".", 1)[0]] += own
        self.duration = spans[first][2] - spans[first][1]

    def ancestor(self, idx: int, name: str):
        """Index of the nearest enclosing span called ``name``, or None."""
        parent = self.spans[idx][3]
        while parent is not None and self.spans[parent][0] != name:
            parent = self.spans[parent][3]
        return parent

    def child_total(self, name: str, parent: str) -> float:
        """Summed duration of ``name`` spans whose direct parent is ``parent``."""
        return sum(
            end - start
            for n, start, end, p, _, _ in self.spans[self.first:self.last]
            if n == name and p is not None and self.spans[p][0] == parent
        )

    def attrs(self, name: str) -> list:
        return [s[5] for s in self.spans[self.first:self.last] if s[0] == name]

    def count_within(self, name: str, ancestor: str) -> dict:
        """Calls of ``name`` grouped by their nearest ``ancestor`` span."""
        out = defaultdict(int)
        for idx in range(self.first, self.last):
            if self.spans[idx][0] == name:
                out[self.ancestor(idx, ancestor)] += 1
        return out

    def solves(self) -> list:
        """Per ``solve_problem`` call: mesh size, DOFs, PDAS and core counts."""
        factors = self.count_within("assembly.factor", "solver.solve_problem")
        subs = self.count_within("assembly.submatrix", "solver.solve_problem")
        pdas = {
            self.ancestor(idx, "solver.solve_problem"): self.spans[idx][5]["iterations"]
            for idx in range(self.first, self.last)
            if self.spans[idx][0] == "qp.solve_pdas"
        }
        out = []
        for idx in range(self.first, self.last):
            name, _, _, _, _, attrs = self.spans[idx]
            if name == "solver.solve_problem":
                out.append({
                    **attrs,
                    "pdas_iterations": pdas.get(idx, 0),
                    "factorizations": factors.get(idx, 0),
                    "submatrix_extractions": subs.get(idx, 0),
                })
        return out
