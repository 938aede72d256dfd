"""Outside-in spans around the public functions of each hyperind layer.

The tracer times calls into a layer by rebinding the names callers look up:
methods on ``LayeredHypergraph`` are replaced on the class, and module
functions are replaced in every loaded ``hyperind`` module that holds a
reference to them (``hyperind.generators.check_bouquet`` as well as
``hyperind.structure.check_bouquet``).  Module globals are looked up at call
time, so calls made inside the package go through the wrappers too.  Nothing
in the package itself changes; ``uninstall`` restores every original binding.

Each span records its duration; a span's self time is its duration minus the
durations of the spans it directly caused.  Statistics are aggregated as the
spans close, so memory stays flat however many calls are made.
"""

from __future__ import annotations

import sys
import time

# (layer, function, how the wrapper times it).  "span" records a timed span;
# "count" only counts calls and leaves their time in the caller's self time.
# core.add_edge runs ~10^5 times per girth5 instance, where a timed span per
# call would distort the numbers it is meant to explain (see README.md).
CLASS_METHODS = (
    ("core", "add_edge", "count"),
    ("core", "pop_edge", "span"),
    ("core", "copy", "span"),
    ("core", "neighborhood", "span"),
    ("core", "induce", "span"),
    ("core", "is_independent", "span"),
    ("core", "max_min_degree", "span"),
)
MODULE_FUNCTIONS = (
    ("core", "contract"),
    ("core", "read_file"),
    ("structure", "check_bouquet"),
    ("structure", "list_two_cycles"),
    ("structure", "count_two_cycles"),
    ("structure", "find_linear_three_cycles"),
    ("structure", "find_clean_four_cycles"),
    ("structure", "prune_short_cycles"),
    ("structure", "common_neighbor_max"),
    ("schedule", "build_schedule"),
    ("generators", "gen_gnp"),
    ("generators", "gen_girth5"),
    ("generators", "gen_layered_bouquet"),
    ("algorithms.basic", "greedy_set"),
    ("algorithms.basic", "spencer_set"),
    ("algorithms.regular", "almost_regular_complete"),
    ("algorithms.akpss", "akpss_step"),
    ("algorithms.akpss", "akpss_run"),
    ("algorithms.pipelines", "pipeline_kminus2"),
    ("algorithms.pipelines", "pipeline_degree_gap"),
)


def _pipeline(cert):
    return cert.diagnostics["attempt"] + 1, cert.diagnostics["residue"]


# Output counts read from a call's return value, outside its span:
# span name -> (count names, function of the return value giving the counts).
RESULT_COUNTS = {
    "generators.gen_gnp": (("edges",), lambda H: (H.num_edges(),)),
    "generators.gen_girth5": (
        ("initial_edges", "final_n", "final_edges"),
        lambda r: (r[1]["initial_edges"], r[1].get("final_n", 0), r[1].get("final_edges", 0)),
    ),
    "generators.gen_layered_bouquet": (
        ("accepted",),
        lambda r: (sum(r[1]["achieved"].values()),),
    ),
    "structure.prune_short_cycles": (("passes",), lambda r: (r[1]["passes"],)),
    "algorithms.regular.almost_regular_complete": (
        ("edges_added",),
        lambda r: (sum(r[2]["added_per_layer"].values()),),
    ),
    "algorithms.pipelines.pipeline_kminus2": (("attempts", "residue_n"), _pipeline),
    "algorithms.pipelines.pipeline_degree_gap": (("attempts", "residue_n"), _pipeline),
    "algorithms.akpss.akpss_run": (
        ("attempts", "good_rounds", "harvest"),
        lambda c: (
            sum(r["attempts"] for r in c.rounds),
            sum(1 for r in c.rounds if r["good"]),
            len(c.independent_set),
        ),
    ),
}


class Stat:
    __slots__ = ("calls", "self_s", "counts", "callers")

    def __init__(self, count_names: tuple[str, ...]):
        self.calls = 0
        self.self_s = 0.0
        self.counts = dict.fromkeys(count_names, 0)
        # name of the enclosing span ("" at top level) -> calls made from it
        self.callers: dict[str, int] = {}


def span_names() -> list[tuple[str, bool]]:
    """(span name, whether it is timed) for every traced function."""
    names = [(f"{layer}.{fn}", how == "span") for layer, fn, how in CLASS_METHODS]
    return names + [(f"{layer}.{fn}", True) for layer, fn in MODULE_FUNCTIONS]


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric ``Tracer.metrics`` reports."""
    units = {}
    for name, timed in span_names():
        units[f"{name}.calls"] = "count"
        if timed:
            units[f"{name}.self_s"] = "s"
        for key in RESULT_COUNTS.get(name, ((), None))[0]:
            units[f"{name}.{key}"] = "count"
    units["generators.gen_layered_bouquet.accept_ratio"] = "ratio"
    return units


class Tracer:
    """Span statistics for one traced section; use as a context manager."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.top_level_s = 0.0
        # open spans, innermost last: [name, time covered by child spans]
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        stat = self.stats[name]
        keys, extract = RESULT_COUNTS.get(name, ((), None))
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else ""
            stat.callers[caller] = stat.callers.get(caller, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.top_level_s += elapsed
            if extract is not None:
                for key, value in zip(keys, extract(result)):
                    stat.counts[key] += value
            return result

        return traced

    def _counter(self, name: str, fn):
        stat = self.stats[name]

        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn, timed: bool):
        self.stats[name] = Stat(RESULT_COUNTS.get(name, ((), None))[0])
        return self._span(name, fn) if timed else self._counter(name, fn)

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        from hyperind import core

        for layer, method, how in CLASS_METHODS:
            fn = getattr(core.LayeredHypergraph, method)
            wrapper = self._wrap(f"{layer}.{method}", fn, how == "span")
            self._rebind(core.LayeredHypergraph, method, wrapper)
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "hyperind" or key.startswith("hyperind."))
        ]
        for layer, func in MODULE_FUNCTIONS:
            fn = getattr(sys.modules[f"hyperind.{layer}"], func)
            wrapper = self._wrap(f"{layer}.{func}", fn, True)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        """Every metric named by ``metric_units``, totalled over the section."""
        out: dict[str, float] = {}
        for name, timed in span_names():
            stat = self.stats[name]
            out[f"{name}.calls"] = stat.calls
            if timed:
                out[f"{name}.self_s"] = stat.self_s
            for key, value in stat.counts.items():
                out[f"{name}.{key}"] = value
        gen = "generators.gen_layered_bouquet"
        checks = self.stats["structure.check_bouquet"].callers.get(gen, 0)
        accepted = self.stats[gen].counts["accepted"]
        out[f"{gen}.accept_ratio"] = accepted / checks if checks else 0.0
        return out
