"""Spans around the library's public functions, installed from the benchmark side.

`Tracer.install(lib)` replaces every function and method that a `sandpiles`
module defines with a wrapper that records calls and time, in that module and
in every other module that imported it by name.  Nothing under `src/` changes;
`uninstall` puts the originals back.

Function metrics (`intlinalg.determinant_s`, ...) are inclusive: the time
from entry to return, including callees, counted once when a function
re-enters itself.  Times and counts are reported per pass of the op list.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("graphs", "intlinalg", "dynamics", "morphisms", "cubes", "products", "jsonio")
# Private helpers that carry a layer's work and are called directly, not
# through a public function.
PRIVATE = {"dynamics._burning_order_indices"}
# Classes whose public methods are spans.  Graph classes get only their
# constructor: their accessors are called per vertex inside loops, and
# wrapping them would measure the wrapper.
METHOD_CLASSES = {"dynamics.SandpileGroup", "intlinalg.LatticeSolver"}
INIT_CLASSES = {"graphs.Multigraph", "graphs.Digraph", "graphs.SinkedGraph"}
GRAPH_CONSTRUCTORS = {"graphs.build_multigraph", "graphs.build_digraph", "graphs.cone",
                  "graphs.cartesian_product", "graphs.hypercube", "graphs.subcube",
                  "graphs.thick_pair", "graphs.thick_k2_cone", "graphs.cycle_graph",
                  "graphs.contract", "graphs.to_sink_digraph", "graphs.k2",
                  "graphs.Multigraph.__init__", "graphs.Digraph.__init__",
                  "graphs.SinkedGraph.__init__", "cubes.cube_cone"}


class Stat:
    __slots__ = ("calls", "incl", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self._build_depth = 0
        self._patched: list[tuple[object, str, object]] = []
        self._group_cache = None
        self._default_guard = 0

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()

    # -- installation ----------------------------------------------------------

    def install(self, lib) -> None:
        modules = [getattr(lib, name) for name in MODULES]
        self._group_cache = lib.dynamics._group_cache
        self._default_guard = lib.dynamics.DEFAULT_ORBIT_GUARD
        wrapped: dict[int, object] = {}
        for module in modules:
            prefix = module.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(module).items()):
                qual = f"{prefix}.{attr}"
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and (not attr.startswith("_") or qual in PRIVATE):
                    wrapped[id(value)] = self._wrap(qual, value)
                elif inspect.isclass(value) and qual in METHOD_CLASSES | INIT_CLASSES:
                    self._wrap_class(qual, value, init_only=qual in INIT_CLASSES)
        # Rebind the names other modules imported with `from .x import f`.
        for module in modules + [lib.sp]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._set(module, attr, wrapped[id(value)])

    def _wrap_class(self, qual: str, cls, init_only: bool) -> None:
        for attr, value in list(vars(cls).items()):
            if attr != "__init__" and (init_only or attr.startswith("_")):
                continue
            if inspect.isfunction(value):
                self._set(cls, attr, self._wrap(f"{qual}.{attr}", value))
            elif isinstance(value, property):
                self._set(cls, attr, property(self._wrap(f"{qual}.{attr}", value.fget),
                                              value.fset, value.fdel, value.__doc__))

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats
        before, after = _HOOKS.get(name, (None, None))
        constructor = name in GRAPH_CONSTRUCTORS
        tracer = self

        def traced(*args, **kwargs):
            stat = stats[name]
            if before is not None:
                before(tracer, args, kwargs)
            stat.depth += 1
            if constructor:
                tracer._build_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.depth -= 1
                stat.calls += 1
                if stat.depth == 0:
                    stat.incl += elapsed
                if constructor:
                    tracer._build_depth -= 1
                    if tracer._build_depth == 0:
                        tracer.counters["build_s"] += elapsed
                        tracer.counters["build_calls"] += 1
            if after is not None:
                after(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def active(self, name: str) -> bool:
        stat = self.stats.get(name)
        return stat is not None and stat.depth > 0


REPRESENTATIVE = "dynamics.SandpileGroup.representative"
RECURRENTS = "dynamics.SandpileGroup.recurrents"


def _before_stabilize(tracer: Tracer, args, kwargs) -> None:
    if tracer.active(RECURRENTS):
        tracer.counters["orbit_stabilizes"] += 1
    elif tracer.active(REPRESENTATIVE):
        tracer.counters["sink_firing_rounds"] += 1


def _after_stabilize(tracer: Tracer, result) -> None:
    tracer.counters["topplings"] += sum(result[1])


def _after_recurrents(tracer: Tracer, result) -> None:
    if tracer.stats[RECURRENTS].depth == 0:
        tracer.counters["orbit_size"] += len(result)


def _before_group(tracer: Tracer, args, kwargs) -> None:
    graph = args[0]
    guard = args[1] if len(args) > 1 else kwargs.get("orbit_guard", tracer._default_guard)
    cached = tracer._group_cache.get(graph)
    tracer.counters["group_lookups"] += 1
    if cached is not None and cached.orbit_guard >= guard:
        tracer.counters["group_hits"] += 1


_HOOKS = {
    "dynamics.stabilize": (_before_stabilize, _after_stabilize),
    RECURRENTS: (None, _after_recurrents),
    "dynamics.sandpile_group": (_before_group, None),
}


# -- per-layer metrics ------------------------------------------------------------

def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer figures from the spans and counters of `passes` traced passes."""
    s, c = tracer.stats, tracer.counters
    per = 1.0 / max(passes, 1)

    def incl(*names):
        return sum(s[n].incl for n in names if n in s)

    def calls(*names):
        return sum(s[n].calls for n in names if n in s)

    stabilize_s = incl("dynamics.stabilize")
    stabilize_calls = calls("dynamics.stabilize")
    rep_calls = calls(REPRESENTATIVE)
    return {
        "intlinalg.reduced_laplacian_s": (incl("intlinalg.reduced_laplacian") * per, "s"),
        "intlinalg.determinant_s": (incl("intlinalg.determinant") * per, "s"),
        "intlinalg.invariant_factors_s": (incl("intlinalg.invariant_factors") * per, "s"),
        "intlinalg.smith_normal_form_s": (incl("intlinalg.smith_normal_form") * per, "s"),
        "intlinalg.smith_normal_form_calls": (calls("intlinalg.smith_normal_form") * per, "count"),
        "intlinalg.lattice_solver_builds": (calls("intlinalg.LatticeSolver.__init__") * per,
                                            "count"),
        "intlinalg.lattice_solve_s": (incl("intlinalg.LatticeSolver.solve") * per, "s"),
        "intlinalg.lattice_solve_calls": (calls("intlinalg.LatticeSolver.solve") * per, "count"),
        "dynamics.stabilize_s": (stabilize_s * per, "s"),
        "dynamics.stabilize_calls": (stabilize_calls * per, "count"),
        "dynamics.topplings": (c["topplings"] * per, "count"),
        "dynamics.topplings_per_s": (c["topplings"] / stabilize_s if stabilize_s else 0.0, "1/s"),
        "dynamics.stabilize_us_per_call": (
            1e6 * stabilize_s / stabilize_calls if stabilize_calls else 0.0, "us"),
        "dynamics.burning_s": (incl("dynamics.is_recurrent_burning",
                                    "dynamics._burning_order_indices") * per, "s"),
        "dynamics.burning_calls": (calls("dynamics._burning_order_indices") * per, "count"),
        "dynamics.representative_s": (incl(REPRESENTATIVE) * per, "s"),
        "dynamics.representative_calls": (rep_calls * per, "count"),
        "dynamics.sink_firing_rounds_per_call": (
            c["sink_firing_rounds"] / rep_calls if rep_calls else 0.0, "count"),
        "dynamics.identity_s": (incl("dynamics.SandpileGroup.identity") * per, "s"),
        "dynamics.element_order_s": (incl("dynamics.SandpileGroup.element_order") * per, "s"),
        "dynamics.recurrents_s": (incl(RECURRENTS) * per, "s"),
        "dynamics.orbit_yield": (
            c["orbit_size"] / c["orbit_stabilizes"] if c["orbit_stabilizes"] else 0.0, "ratio"),
        "dynamics.group_cache_hit_ratio": (
            c["group_hits"] / c["group_lookups"] if c["group_lookups"] else 0.0, "ratio"),
        "morphisms.validate_hom_s": (incl("morphisms.validate_hom") * per, "s"),
        "morphisms.verify_injection_s": (incl("morphisms.verify_group_injection") * per, "s"),
        "morphisms.induced_map_calls": (calls("morphisms.induced_map") * per, "count"),
        "cubes.verify_s": (incl("cubes.verify_structure", "cubes.verify_decomposition",
                                "cubes.verify_invariant_factor_count",
                                "cubes.verify_even_cone_counterexample") * per, "s"),
        "cubes.stripe_subgroup_s": (incl("cubes.stripe_subgroup",
                                         "cubes.cone_stripe_subgroup") * per, "s"),
        "products.embed_factor_s": (incl("products.embed_factor") * per, "s"),
    }
