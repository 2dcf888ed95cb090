"""Runtime span tracing of the ``blowup`` modules, and the per-layer metrics
computed from the spans.

``Tracer.install`` wraps, at runtime and from outside the package, the public
functions of each layer module and the public methods of the classes defined
there, plus the two private functions the metrics need (``Grid.__init__``
and the CLI's report writer).  The package source is not touched.  Each
call becomes one span ``[id, name, start_ns, end_ns, parent_id, attrs]`` kept
in memory, its times read from the process CPU clock
(``time.process_time_ns``) so that time spent waiting for a shared CPU does
not count; ``Tracer.dump`` writes them out when the run ends.  ``attrs``
holds the exact counts the metrics need (points, boxes, grid shape, solver
steps, bytes written), taken from the call's arguments and result after its
end time is recorded, so they cost no span time.

``layer_metrics`` turns a span list into the per-layer metrics.  A layer's
self time is the summed duration of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import time

import numpy as np

LAYERS = ("geometry", "grid", "energy", "solver", "whitney", "inequalities", "cli")

_S, _N, _R = "s", "count", "ratio"
# every per-layer metric and its unit, in report order
UNITS = {
    **{f"{layer}.self_s": _S for layer in LAYERS},
    "geometry.signed_distance_s": _S,
    "geometry.signed_distance_points": _N,
    "geometry.signed_distance_s_per_1M": "s/1M",
    "geometry.cube_predicate_s": _S,
    "geometry.cube_predicate_boxes": _N,
    "grid.build_s": _S,
    "grid.laplacian_calls": _N,
    "grid.laplacian_s": _S,
    "grid.laplacian_ms_per_call": "ms",
    "grid.laplacian_flops": "flop-computed",
    "grid.laplacian_bytes": "B-computed",
    "energy.singular_part_s": _S,
    "energy.energy_evals": _N,
    "energy.energy_s": _S,
    "energy.gradient_calls": _N,
    "energy.gradient_s": _S,
    "solver.solve_s": _S,
    "solver.newton_steps": _N,
    "solver.cg_iterations": _N,
    "solver.cg_iterations_per_step": _N,
    "solver.cg_iterations_max_step": _N,
    "solver.linesearch_evals": _N,
    "solver.linesearch_accept_ratio": _R,
    "solver.cg_unconverged_steps": _N,
    "solver.verify_s": _S,
    "inequalities.hardy_s": _S,
    "inequalities.chain_audit_s": _S,
    "inequalities.chain_self_s": _S,
    "inequalities.chain_audits": _N,
    "inequalities.chain_incidences": _N,
    "whitney.decompose_s": _S,
    "whitney.cubes": _N,
    "whitney.selection_yield": _R,
    "whitney.verify_s": _S,
    "whitney.covers_s": _S,
    "whitney.covers_points": _N,
    "whitney.partition_values_s": _S,
    "whitney.partition_values_calls": _N,
    "whitney.partition_values_points": _N,
    "whitney.incidences": _N,
    "whitney.partition_values_repeat_share": _R,
    "cli.report_write_s": _S,
    "cli.report_bytes": "B",
    "trace.spans": _N,
    "trace.cpu_s": _S,
    "trace.untraced_cpu_s": _S,
    "trace.overhead_s": _S,
}

# metrics that count work rather than time it; they repeat exactly (report
# bytes do not: the solve report's runtime field changes its digit count)
EXACT = {k for k, unit in UNITS.items() if unit not in (_S, "ms", "s/1M", "B")}

# private names traced in addition to the public ones
_EXTRA = {
    "cli": ("_write_json",),
    "grid.Grid": ("__init__",),
}


def _leading(shape) -> int:
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _points_attr(args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    return {"points": _leading(np.shape(p))}


def _boxes_attr(args, kwargs, result):
    lo = args[1] if len(args) > 1 else kwargs["lo"]
    return {"boxes": _leading(np.shape(lo))}


def _laplacian_attr(args, kwargs, result):
    g = args[0]
    return {"nx": g.nx, "ny": g.ny, "n": g.n_interior}


def _solve_attr(args, kwargs, result):
    from blowup.solver import SolverConfig, solve

    bound = inspect.signature(solve).bind(*args, **kwargs)
    config = bound.arguments.get("config") or SolverConfig()
    return {
        "newton_steps": result.iterations,
        "cg": [s["cg_iterations"] for s in result.steps],
        "relres": [s["cg_relres"] for s in result.steps],
        "linear_rtol": config.linear_rtol,
    }


def _decompose_attr(args, kwargs, result):
    return {"cubes": result.cube_count}


def _covers_attr(args, kwargs, result):
    return {"points": len(result)}


def _partition_values_attr(args, kwargs, result):
    points = np.ascontiguousarray(np.atleast_2d(args[1]), dtype=float)
    digest = hashlib.blake2b(points.tobytes(), digest_size=16)
    digest.update(str(points.shape).encode())
    return {
        "points": len(points),
        "incidences": len(result[0]),
        "digest": digest.hexdigest(),
    }


def _chain_attr(args, kwargs, result):
    return {"incidences": result.incidence_count}


def _write_attr(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


# span-name suffix -> attribute extractor
_ATTRS = {
    ".signed_distance": _points_attr,
    ".cube_contained": _boxes_attr,
    ".cube_intersects": _boxes_attr,
    "grid.Grid.laplacian": _laplacian_attr,
    "solver.solve": _solve_attr,
    "whitney.decompose": _decompose_attr,
    "whitney.WhitneyDecomposition.covers": _covers_attr,
    "whitney.WhitneyDecomposition.partition_values": _partition_values_attr,
    "inequalities.chain_audit": _chain_attr,
    "cli._write_json": _write_attr,
}


def _attr_fn(name):
    for suffix, fn in _ATTRS.items():
        if name.endswith(suffix):
            return fn
    return None


def _traced_name(owner: str, name: str) -> bool:
    return not name.startswith("_") or name in _EXTRA.get(owner, ())


class Tracer:
    """In-memory span recorder for one process run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, attrs = self.spans, self._stack, _attr_fn(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, 0, 0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span[0])
            span[2] = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.process_time_ns()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and method in place."""
        modules = {layer: importlib.import_module(f"blowup.{layer}") for layer in LAYERS}
        functions = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and _traced_name(layer, name):
                    functions[obj] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not name.startswith("_"):
                    owner = f"{layer}.{name}"
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and _traced_name(owner, mname):
                            setattr(obj, mname, self.wrap(f"{owner}.{mname}", meth))
        # ``from .x import f`` copies the binding, so rebind every module's copy
        for mod in [importlib.import_module("blowup"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in functions:
                    setattr(mod, name, functions[obj])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def laplacian_flops(nx: int, ny: int) -> int:
    """Floating-point operations of one ``Grid.laplacian`` call, computed
    from the array shapes: 3 adds, 1 multiply and 1 subtract per stencil
    point, then one division per array entry."""
    return 5 * (nx - 2) * (ny - 2) + nx * ny


def laplacian_bytes(nx: int, ny: int, n: int) -> int:
    """Bytes one ``Grid.laplacian`` call moves, computed from the array
    shapes with every numpy operand read and every result written once (no
    cache effects): scatter into a zeroed (nx, ny) float array through the
    boolean mask, a zeroed output, four stencil adds/subtracts and a scaled
    centre term over the inner (nx-2, ny-2) block, its assignment, the
    in-place division, and the masked gather of the n interior values."""
    full, inner = nx * ny, (nx - 2) * (ny - 2)
    scatter = 8 * full + full + 16 * n
    stencil = 8 * full + 3 * 24 * inner + 16 * inner + 24 * inner + 16 * inner + 16 * full
    gather = full + 16 * n
    return scatter + stencil + gather


class _Spans:
    """A span list with each span's child time, for ancestry queries."""

    def __init__(self, spans):
        self.spans = spans
        self.child_ns = [0] * len(spans)
        for s in spans:
            if s[4] is not None:
                self.child_ns[s[4]] += s[3] - s[2]

    def ancestors(self, span):
        parent = span[4]
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent][4]

    def select(self, match):
        """Spans whose name matches and that have no matching ancestor, so a
        nested call is never counted twice."""
        return [
            s
            for s in self.spans
            if match(s[1]) and not any(match(a[1]) for a in self.ancestors(s))
        ]

    def under(self, span, name) -> bool:
        return any(a[1] == name for a in self.ancestors(span))

    def self_s(self, spans) -> float:
        return sum(s[3] - s[2] - self.child_ns[s[0]] for s in spans) / 1e9


def _seconds(spans) -> float:
    return sum(s[3] - s[2] for s in spans) / 1e9


def _attr_sum(spans, key) -> float:
    return sum(s[5][key] for s in spans if s[5] is not None)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metric values (name -> number) from one traced run."""
    sp = _Spans(spans)

    def named(*names):
        return sp.select(lambda n: n in names)

    def suffix(layer, *ends):
        return sp.select(lambda n: n.startswith(layer + ".") and n.endswith(ends))

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sp.self_s([s for s in spans if s[1].startswith(layer + ".")])

    # includes the distances that cube predicates and grid builds compute
    sd = suffix("geometry", ".signed_distance")
    m["geometry.signed_distance_s"] = _seconds(sd)
    m["geometry.signed_distance_points"] = _attr_sum(sd, "points")
    m["geometry.signed_distance_s_per_1M"] = 1e6 * _ratio(
        _seconds(sd), m["geometry.signed_distance_points"]
    )
    cp = suffix("geometry", ".cube_contained", ".cube_intersects")
    m["geometry.cube_predicate_s"] = _seconds(cp)
    m["geometry.cube_predicate_boxes"] = _attr_sum(cp, "boxes")

    lap = named("grid.Grid.laplacian")
    m["grid.build_s"] = _seconds(named("grid.Grid.__init__"))
    m["grid.laplacian_calls"] = len(lap)
    m["grid.laplacian_s"] = _seconds(lap)
    m["grid.laplacian_ms_per_call"] = 1e3 * _ratio(_seconds(lap), len(lap))
    m["grid.laplacian_flops"] = _ratio(
        sum(laplacian_flops(s[5]["nx"], s[5]["ny"]) for s in lap), len(lap)
    )
    m["grid.laplacian_bytes"] = _ratio(
        sum(laplacian_bytes(s[5]["nx"], s[5]["ny"], s[5]["n"]) for s in lap), len(lap)
    )

    ev = named("energy.energy")
    gr = named("energy.energy_gradient")
    m["energy.singular_part_s"] = _seconds(named("energy.build_singular_part"))
    m["energy.energy_evals"] = len(ev)
    m["energy.energy_s"] = _seconds(ev)
    m["energy.gradient_calls"] = len(gr)
    m["energy.gradient_s"] = _seconds(gr)

    solves = named("solver.solve")
    steps = _attr_sum(solves, "newton_steps")
    cg = [c for s in solves for c in s[5]["cg"]]
    ls_evals = sum(1 for s in ev if sp.under(s, "solver.solve"))
    m["solver.solve_s"] = _seconds(solves)
    m["solver.newton_steps"] = steps
    m["solver.cg_iterations"] = sum(cg)
    m["solver.cg_iterations_per_step"] = _ratio(sum(cg), len(cg))
    m["solver.cg_iterations_max_step"] = max(cg, default=0)
    m["solver.linesearch_evals"] = ls_evals
    m["solver.linesearch_accept_ratio"] = _ratio(steps, ls_evals)
    m["solver.cg_unconverged_steps"] = sum(
        1
        for s in solves
        for r in s[5]["relres"]
        if not r <= s[5]["linear_rtol"]  # NaN counts as unconverged
    )
    m["solver.verify_s"] = _seconds(
        named("solver.corollary4_check", "solver.liouville_residual")
    )

    chains = named("inequalities.chain_audit")
    m["inequalities.hardy_s"] = _seconds(named("inequalities.resolve_hardy_constant"))
    m["inequalities.chain_audit_s"] = _seconds(chains)
    m["inequalities.chain_self_s"] = sp.self_s(chains)
    m["inequalities.chain_audits"] = len(chains)
    m["inequalities.chain_incidences"] = _attr_sum(chains, "incidences")

    dec = named("whitney.decompose")
    cubes = _attr_sum(dec, "cubes")
    tested = _attr_sum(
        [s for s in suffix("geometry", ".cube_contained") if sp.under(s, "whitney.decompose")],
        "boxes",
    )
    cov = named("whitney.WhitneyDecomposition.covers")
    pv = named("whitney.WhitneyDecomposition.partition_values")
    seen, repeats = set(), 0
    for s in pv:
        repeats += s[5]["digest"] in seen
        seen.add(s[5]["digest"])
    m["whitney.decompose_s"] = _seconds(dec)
    m["whitney.cubes"] = cubes
    m["whitney.selection_yield"] = _ratio(cubes, tested)
    m["whitney.verify_s"] = _seconds(named("whitney.verify_properties"))
    m["whitney.covers_s"] = _seconds(cov)
    m["whitney.covers_points"] = _attr_sum(cov, "points")
    m["whitney.partition_values_s"] = _seconds(pv)
    m["whitney.partition_values_calls"] = len(pv)
    m["whitney.partition_values_points"] = _attr_sum(pv, "points")
    m["whitney.incidences"] = _attr_sum(pv, "incidences")
    m["whitney.partition_values_repeat_share"] = _ratio(repeats, len(pv))

    writes = named("cli._write_json")
    m["cli.report_write_s"] = _seconds(writes)
    m["cli.report_bytes"] = _attr_sum(writes, "bytes")
    m["trace.spans"] = len(spans)
    return m
