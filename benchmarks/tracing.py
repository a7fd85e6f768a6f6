"""In-memory spans, and hooks that time the program's layers in a real run.

A traced round calls the real ``cli.run``.  Inside ``hooks(tracer)``, each
function that the CLI and the studies call through is replaced, at the
module attribute where its caller looks it up, by a wrapper that opens one
span around the call; the originals are put back on exit.  The call chain
is the program's own, so whatever ``run_scenario``, ``actuator_sweep``,
``attack_scenario``, ``compare_architectures`` and the CLI writers do is
what gets timed.  The benchmark checks that the traced round writes files
byte-identical to the untraced one.

Span names are the layer names the benchmark reports, so a later
in-program timer can reuse them.  A hooked function that no longer exists
raises at install time: a change that renames one must rename it in
``HOOKS`` too.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

from sda_netlab import cli, experiments
from sda_netlab.routing import ArchitectureMode

ROUTING_SPAN = {
    ArchitectureMode.ON_ORBIT: "routing.onorbit",
    ArchitectureMode.DOWNHAUL_GREEDY: "routing.downhaul_greedy",
    ArchitectureMode.DOWNHAUL_OPTIMAL: "routing.downhaul_optimal",
}


class Tracer:
    """Spans (name, start, end, parent id, counts) kept in memory until the
    caller writes them out."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def current(self) -> dict | None:
        return self.spans[self._stack[-1]] if self._stack else None

    @contextmanager
    def span(self, name: str):
        """Time the body; yields the span's count dict, which the caller may
        fill after the body so counting stays outside the timed interval."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


# --- counts, read from each hooked call's arguments and result ------------------


def _graph_counts(graph, args) -> dict:
    # pairs_needed is computed: all satellite pairs plus all satellite-station pairs.
    n = graph.sat_count
    return {
        "sat_edges": graph.sat_edge_count,
        "station_edges": graph.station_edge_count,
        "pairs_needed": n * (n - 1) // 2 + n * graph.station_count,
    }


def _overlay_counts(attacked, args) -> dict:
    graph = args["graph"]
    edges_in = graph.sat_edge_count + graph.station_edge_count
    return {
        "edges_in": edges_in,
        "edges_removed": edges_in - attacked.sat_edge_count - attacked.station_edge_count,
    }


def _relay_edges(report, args) -> dict:
    # Computed from the graph, not read from the solver: both directions of
    # every inter-satellite edge, plus, in the optimal mode, one edge per
    # station link and one per station leg to the terminus.
    graph = args["graph"]
    edges = 2 * graph.sat_edge_count
    if args.get("mode") is ArchitectureMode.DOWNHAUL_OPTIMAL:
        edges += graph.station_edge_count + graph.station_count
    return {"relay_edges": edges}


def _unreachable(summary, args) -> dict:
    return {"unreachable": summary.unreachable_count}


def _result_bytes(text, args) -> dict:
    return {"bytes": len(text)}  # the outputs are ASCII


def _written_bytes(_, args) -> dict:
    return {"bytes": len(args["text"])}


# (module, attribute, span name or a function of the call's arguments, counts)
HOOKS = (
    (cli, "validate_config", "cli.validate", None),
    (experiments, "resolve_snapshot", "constellation.resolve", None),
    (experiments, "select_actuators", "constellation.select", None),
    (experiments, "resolve_stations", "constellation.stations", None),
    (experiments, "resolve_terminus", "constellation.stations", None),
    (experiments, "apply_overlay", "topology.overlay", _overlay_counts),
    (experiments, "onorbit_latencies", "routing.onorbit", _relay_edges),
    (experiments, "downhaul_latencies", lambda args: ROUTING_SPAN[args["mode"]], _relay_edges),
    (experiments, "summarize", "experiments.summarize", _unreachable),
    (cli, "report_to_csv", "experiments.report_csv", _result_bytes),
    (cli, "_write_json", "cli.write", None),
    (cli, "_write_text", "cli.write", _written_bytes),
)


def _wrap(tracer: Tracer, fn, name, count):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*a, **kw):
        args = None
        if callable(name) or count is not None:
            bound = signature.bind(*a, **kw)
            bound.apply_defaults()
            args = bound.arguments
        span_name = name(args) if callable(name) else name
        outer = tracer.current()
        if outer is not None and outer["name"] == span_name:
            # A call inside a span of its own layer (``_write_json`` writes
            # through ``_write_text``) is timed by the enclosing span.
            result = fn(*a, **kw)
            counts = outer["counts"]
        else:
            with tracer.span(span_name) as counts:
                result = fn(*a, **kw)
        if count is not None:
            for key, value in count(result, args).items():
                counts[key] = counts.get(key, 0) + value
        return result

    return wrapper


@contextmanager
def hooks(tracer: Tracer):
    """Install the span wrappers for the body.  Yields a list that receives
    the bound arguments and the result of the first visibility build."""
    first_build: list = []

    def graph_counts(graph, args) -> dict:
        if not first_build:
            first_build.append((dict(args), graph))
        return _graph_counts(graph, args)

    saved = []
    try:
        for module, attr, name, count in HOOKS + (
            (experiments, "build_visibility_graph", "topology.graph_build", graph_counts),
        ):
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, name, count))
        yield first_build
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
