"""Per-layer spans for the benchmark's traced runs, recorded from outside.

Nothing in ``weilgraph`` changes.  ``Tracer.install`` rebinds the public
functions of the measured modules, and the few methods the per-layer
metrics need, to wrappers that time each call.  A function is rebound at
every module attribute that holds it, because a from-import binds its own
name: ``sweeps.lift_cycle`` must be wrapped as well as
``cover.lift_cycle``, or the sweeps would call past the wrapper.

Spans are aggregated as they close, per name: calls, total time and self
time (total minus the time of the child spans that ran inside it).  A
sweep pass closes about a million spans, too many to keep one by one;
only the spans named in ``keep_durations`` keep their durations.
"""

from __future__ import annotations

import inspect
from time import perf_counter

import weilgraph
from weilgraph import (
    cli,
    cover,
    curvemodel,
    documents,
    graphs,
    homology,
    linalg,
    sandpile,
    sweeps,
)

MODULES = (graphs, linalg, homology, cover, curvemodel, sandpile, sweeps, documents, cli)

# Span names that differ from "<module>.<function>": these are the layers
# the per-layer metrics are named after.
RENAMED = {
    (sweeps, "connected_multigraphs"): "graphs.enumerate",
    (linalg, "smith_normal_form"): "linalg.smith",
    (homology, "homology_basis"): "homology.basis",
    (homology, "graph_pairing"): "homology.pairing",
    (cover, "build_double_cover"): "cover.build",
    (cover, "lift_cycle"): "cover.lift",
    (sandpile, "critical_group"): "sandpile.critical_group",
    (sandpile, "spanning_tree_count"): "sandpile.tree_count",
    (sandpile, "verify_torsion_on_subdivision"): "sandpile.torsion_check",
    (sweeps, "perfect_pairing_sweep"): "sweeps.perfect_pairing",
    (sweeps, "pairing_equivalence_sweep"): "sweeps.pairing_equivalence",
    (sweeps, "model_sweep"): "sweeps.model",
    (sweeps, "torsion_sweep"): "sweeps.torsion",
    (cli, "cmd_homology"): "cli.homology",
    (cli, "cmd_cover"): "cli.cover",
    (cli, "cmd_torsion"): "cli.torsion",
    (cli, "cmd_tropical"): "cli.tropical",
}

# cli has no __all__; these are the functions a query passes through.
CLI_FUNCTIONS = ("main", "cmd_homology", "cmd_cover", "cmd_torsion", "cmd_tropical")

METHODS = (
    (linalg.GF2Matrix, "rank", "linalg.gf2_rank"),
    (linalg.GF2Matrix, "solve", "linalg.gf2_solve"),
    (linalg.IntMatrix, "det", "linalg.det"),
    (curvemodel.TwistedCurveModel, "weil_form", "curvemodel.weil_form"),
    (graphs.MultiGraph, "subdivide", "graphs.subdivide"),
    (documents.Report, "to_json", "documents.report_json"),
)

# dhar_reduce shifts by a principal divisor first when the largest chip
# count exceeds this many times the vertex count (sandpile's threshold).
DHAR_SHIFT_FACTOR = 8


def _dhar_span(args, kwargs) -> str:
    graph = args[0] if args else kwargs["graph"]
    divisor = args[1] if len(args) > 1 else kwargs["divisor"]
    largest = max(map(abs, divisor.coefficients), default=0)
    if largest > DHAR_SHIFT_FACTOR * graph.vertex_count:
        return "sandpile.dhar_large"
    return "sandpile.dhar_small"


class Tracer:
    """Aggregated spans of one traced stretch of work."""

    def __init__(self, keep_durations=()):
        self._keep = frozenset(keep_durations)
        self._open: list[float] = []  # per open span: time of its closed children
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far; spans must all be closed."""
        if self._open:
            raise RuntimeError("reset with open spans")
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.durations: dict[str, list[float]] = {}
        self.root_s = 0.0
        self.smith_cells = 0

    def _close(self, name: str, dur: float) -> None:
        child = self._open.pop()
        if self._open:
            self._open[-1] += dur
        else:
            self.root_s += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if name in self._keep:
            self.durations.setdefault(name, []).append(dur)

    def wrap(self, name, fn):
        """A wrapper recording one span per call; ``name`` may be a function
        of the call's arguments."""
        opened = self._open
        close = self._close
        named = isinstance(name, str)

        if inspect.isgeneratorfunction(fn):
            # one span per item produced; the consumer's work between items
            # is not part of it
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    opened.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(name, perf_counter() - t0)
                    yield item

            return wrapper

        def wrapper(*args, **kwargs):
            span = name if named else name(args, kwargs)
            opened.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(span, perf_counter() - t0)

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        for mod in (weilgraph, *MODULES):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, extra=()) -> None:
        """Rebind the measured functions and methods to span wrappers, and
        each ``(owner, attribute, span name)`` in ``extra``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = set()
        for mod in MODULES:
            names = getattr(mod, "__all__", None) or CLI_FUNCTIONS
            for attr in names:
                fn = getattr(mod, attr)
                if isinstance(fn, type) or not callable(fn) or fn in wrappers:
                    continue
                span = RENAMED.get((mod, attr), f"{mod.__name__.rsplit('.', 1)[1]}.{attr}")
                if fn is sandpile.dhar_reduce:
                    wrapper = self.wrap(_dhar_span, fn)
                elif fn is linalg.smith_normal_form:
                    wrapper = self._smith_wrapper(span, fn)
                else:
                    wrapper = self.wrap(span, fn)
                wrappers.add(wrapper)
                self._rebind(fn, wrapper)
        for owner, attr, span in (*METHODS, *extra):
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self.wrap(span, getattr(owner, attr)))
        parse = documents.InputDocument.__dict__["parse"]
        self._patches.append((documents.InputDocument, "parse", parse))
        documents.InputDocument.parse = classmethod(self.wrap("documents.parse", parse.__func__))

    def _smith_wrapper(self, span, fn):
        timed = self.wrap(span, fn)

        def wrapper(mat, *args, **kwargs):
            self.smith_cells += mat.rows * mat.cols
            return timed(mat, *args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        """Put every rebound name back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
