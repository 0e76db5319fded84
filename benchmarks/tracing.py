"""Spans around the calls into slipflow's layers, installed from outside.

The traced run replaces each callee at the name its caller looks up
(`slipflow.solver.assemble_residual`, `scipy.sparse.linalg.splu`, ...) by
a wrapper that records one span: name, start, end and parent.  Spans stay
in memory; `layer_metrics` turns one round's spans into the per-layer
metrics, and `self_times` derives each span's self time (its duration
minus the part covered by its children).

Span names are `<layer>.<what>`; the two roots of a round are `setup` and
`solve`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from time import perf_counter

import numpy as np
import scipy.sparse.linalg as spla

import slipflow.forms
import slipflow.solver
import slipflow.stability

# span name -> the name time_march, steady_solve and newton_solve look
# their callee up by in slipflow.solver
_SOLVER_CALLEES = {
    "solver.newton_solve": "newton_solve",
    "forms.residual": "assemble_residual",
    "forms.jacobian": "assemble_jacobian",
    "forms.energy_balance": "energy_balance",
    "forms.boundary_functionals": "boundary_functionals",
}
_STABILITY_CALLEES = (
    "constants_report",
    "inverse_trace_constant",
    "trace_constant_xh",
    "korn_normal_trace_min_eig",
    "infsup_constant",
    "resolve_alpha",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _jacobian_nnz(J) -> dict:
    return {"nnz": int(J.nnz)}


class NullTracer:
    """Tracing off: every hook hands back what it was given."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def wrap(self, name, fn):
        return fn

    def wrap_law(self, law):
        return law

    @contextlib.contextmanager
    def installed(self):
        yield self


class Tracer:
    """Records spans while `enabled`; `installed()` patches the callees."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.attrs = {}          # span index -> {"nnz": ..., "fill": ...}
        self._stack = []
        self.enabled = True

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        i = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        return i

    def _close(self, i):
        self.spans[i][2] = perf_counter()
        self._stack.pop()

    def current_layer(self) -> str:
        return layer_of(self.spans[self._stack[-1]][0]) if self._stack else ""

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield None
            return
        i = self._open(name)
        try:
            yield i
        finally:
            self._close(i)

    def wrap(self, name, fn, note=None):
        """`fn` with a span around each call; `note(result)`, if given,
        makes the span's attributes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if note is not None:
                self.attrs[i] = note(result)
            return result

        return traced

    def wrap_law(self, law):
        return dataclasses.replace(
            law,
            sigma=self.wrap("sliplaw.sigma", law.sigma),
            jacobian=self.wrap("sliplaw.jacobian", law.jacobian),
        )

    # -- callee replacement ----------------------------------------------------

    def _splu(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            layer = self.current_layer()
            i = self._open(f"{layer}.splu")
            try:
                lu = fn(*args, **kwargs)
            finally:
                self._close(i)
            # L and U are materialized as new matrices: a span of its own,
            # so the copy is charged to tracing, not to the caller
            with self.span("trace.fill"):
                self.attrs[i] = {"fill": int(lu.L.nnz + lu.U.nnz)}
            return _TracedLU(lu, self, layer)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced callee for the duration of the block."""
        with contextlib.ExitStack() as stack:
            def patch(obj, attr, new):
                old = getattr(obj, attr)
                setattr(obj, attr, new)
                stack.callback(setattr, obj, attr, old)

            for name, attr in _SOLVER_CALLEES.items():
                note = _jacobian_nnz if name == "forms.jacobian" else None
                patch(slipflow.solver, attr,
                      self.wrap(name, getattr(slipflow.solver, attr), note))
            patch(spla, "splu", self._splu(spla.splu))
            for mod in (slipflow.forms, slipflow.stability):
                patch(mod, "get_cache", self.wrap("forms.cache", mod.get_cache))
            for attr in _STABILITY_CALLEES:
                patch(slipflow.stability, attr,
                      self.wrap(f"stability.{attr}",
                                getattr(slipflow.stability, attr)))
            yield self


class _TracedLU:
    """SuperLU stand-in whose `solve` is one span in the caller's layer."""

    def __init__(self, lu, tracer, layer):
        self._lu = lu
        self.solve = tracer.wrap(f"{layer}.lu_solve", lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = np.array([s[2] - s[1] for s in spans])
    own = dur.copy()
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            own[s[3]] -= d
    return own


def _roots(spans) -> list:
    """Name of the root span above each span."""
    root = []
    for s in spans:
        root.append(s[0] if s[3] < 0 else root[s[3]])
    return root


def layer_metrics(spans, attrs, reports) -> dict:
    """Per-layer metrics of one traced round.

    `reports` are the NewtonReports of the round's newton_solve calls.
    Inclusive `_s` metrics sum span durations over the whole round;
    `self_s` metrics sum self times inside the `solve` root only, so that
    they and `trace.unattributed_s` add up to the traced solve time.
    """
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    own = self_times(spans)
    in_solve = np.array([r == "solve" for r in _roots(spans)])

    def pick(*wanted):
        return np.array([n in wanted for n in names], dtype=bool)

    def total(*wanted):
        return float(dur[pick(*wanted)].sum()) if spans else 0.0

    def count(*wanted):
        return int(pick(*wanted).sum()) if spans else 0

    def layer_self(layer):
        mask = np.array([layer_of(n) == layer for n in names]) & in_solve
        return float(own[mask].sum()) if spans else 0.0

    residual_ms = dur[pick("forms.residual")] * 1e3 if spans else np.empty(0)
    nnz = [a["nnz"] for a in attrs.values() if "nnz" in a]
    fills = [attrs[i]["fill"] for i, n in enumerate(names)
             if n == "solver.splu" and i in attrs]
    iters = sum(r.iterations for r in reports)
    factorizations = count("solver.splu")
    lu_solves = count("solver.lu_solve")
    # every factorization in newton_solve is followed by exactly one
    # full-step solve and makes one iteration; every other LU solve is a
    # reused-factor (chord) attempt, and every other iteration accepted one
    chord_attempts = lu_solves - factorizations
    chord_accepted = iters - factorizations
    solve_root = [i for i, n in enumerate(names) if n == "solve"]
    return {
        "mesh.build_s": total("mesh.build"),
        "fespace.space_s": total("fespace.space"),
        "forms.cache_s": total("forms.cache"),
        "forms.residual_calls": count("forms.residual"),
        "forms.residual_s": total("forms.residual"),
        "forms.residual_ms_p50": (float(np.median(residual_ms))
                                  if residual_ms.size else 0.0),
        "forms.jacobian_calls": count("forms.jacobian"),
        "forms.jacobian_s": total("forms.jacobian"),
        "forms.jacobian_nnz": max(nnz, default=0),
        "forms.energy_s": total("forms.energy_balance"),
        "forms.boundary_functionals_s": total("forms.boundary_functionals"),
        "forms.self_s": layer_self("forms"),
        "sliplaw.sigma_calls": count("sliplaw.sigma"),
        "sliplaw.jacobian_calls": count("sliplaw.jacobian"),
        "sliplaw.eval_s": total("sliplaw.sigma", "sliplaw.jacobian"),
        "verify.forcing_calls": count("verify.forcing"),
        "verify.forcing_s": total("verify.forcing"),
        "solver.steps": len(reports),
        "solver.newton_iters": iters,
        "solver.ls_halvings": sum(sum(r.ls_steps) for r in reports),
        "solver.factorizations": factorizations,
        "solver.factor_s": total("solver.splu"),
        "solver.lu_fill": max(fills, default=0),
        "solver.lu_solve_calls": lu_solves,
        "solver.lu_solve_s": total("solver.lu_solve"),
        "solver.chord_attempts": chord_attempts,
        "solver.chord_accepted": chord_accepted,
        "solver.chord_accept_ratio": (chord_accepted / chord_attempts
                                      if chord_attempts else 0.0),
        "solver.self_s": layer_self("solver"),
        "stability.inverse_trace_s": total("stability.inverse_trace_constant"),
        "stability.trace_xh_s": total("stability.trace_constant_xh"),
        "stability.korn_s": total("stability.korn_normal_trace_min_eig"),
        "stability.infsup_s": total("stability.infsup_constant"),
        "stability.self_s": layer_self("stability"),
        "trace.self_s": layer_self("trace"),
        "trace.unattributed_s": float(own[solve_root].sum()),
    }

