"""One benchmark round in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds ``mode`` and the CLI ``commands`` (argv lists):

* ``setup``: import sda_netlab, validate the first command's config and
  resolve its snapshot, then exit (the parent times the whole process);
* ``plain``: run each command in-process through ``cli.run``;
* ``traced``: run each command through ``cli.run`` with ``tracing.hooks``
  installed, then repeat the first visibility build with one thread and time
  each routing mode once on that graph.

RESULT receives the round's wall time, per-command times and errors, the
child's peak RSS, and (traced) the spans.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _first_config(commands: list[list[str]]):
    from sda_netlab import cli

    config = commands[0][commands[0].index("--config") + 1]
    with open(config, "r", encoding="utf-8") as fh:
        cfg, errors = cli.validate_config(fh.read(), base_dir=os.path.dirname(config))
    if cfg is None:
        raise ValueError("; ".join(errors))
    return cfg


def _setup(commands: list[list[str]]) -> dict:
    import sda_netlab  # noqa: F401 - the import is part of the measured set-up
    from sda_netlab.experiments import resolve_snapshot

    return {"sats": len(resolve_snapshot(_first_config(commands).constellation))}


def _call(argv: list[str]) -> str | None:
    """One CLI command; returns its error, or None."""
    from sda_netlab import cli

    try:
        rc = cli.run(argv)
        return None if rc == 0 else f"exit code {rc}"
    except Exception as exc:  # noqa: BLE001 - a failed op is recorded, not fatal
        return f"raised {type(exc).__name__}: {exc}"


def _plain(commands: list[list[str]]) -> dict:
    times, errors = [], []
    start = time.perf_counter()
    for argv in commands:
        t0 = time.perf_counter()
        errors.append(_call(argv))
        times.append(time.perf_counter() - t0)
    return {"wall_s": time.perf_counter() - start, "command_s": times, "errors": errors}


def _traced(commands: list[list[str]]) -> dict:
    import numpy as np
    from sda_netlab.constellation import select_actuators
    from sda_netlab.experiments import resolve_actuator_count, resolve_terminus, route_report
    from sda_netlab.routing import ArchitectureMode
    from sda_netlab.topology import build_visibility_graph

    from tracing import ROUTING_SPAN, Tracer, hooks

    tracer = Tracer()
    times, errors = [], []
    with hooks(tracer) as first_build, tracer.span("workload"):
        for argv in commands:
            index = len(tracer.spans)
            with tracer.span("command"):
                errors.append(_call(argv))
            times.append(tracer.spans[index]["end"] - tracer.spans[index]["start"])
    root = tracer.spans[0]
    result = {"wall_s": root["end"] - root["start"], "command_s": times, "errors": errors}

    if first_build:
        args, graph = first_build[0]
        with tracer.span("topology.graph_build_1t"):
            single = build_visibility_graph(**{**args, "threads": 1})
        result["threads_identical"] = all(
            a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))
            for a, b in [
                (graph.sat_edges, single.sat_edges),
                (graph.sat_delays_ms, single.sat_delays_ms),
                (graph.station_edges, single.station_edges),
                (graph.station_delays_ms, single.station_delays_ms),
            ]
        )
        del single
        # One solve per mode on the same graph, with the first config's
        # actuators: the per-preset baseline table.
        cfg = _first_config(commands)
        snapshot, stations = args["snapshot"], args["stations"]
        flagged = select_actuators(snapshot, resolve_actuator_count(cfg, len(snapshot)), cfg.seed)
        terminus = resolve_terminus(cfg, stations)
        for mode in ArchitectureMode:
            with tracer.span("table." + ROUTING_SPAN[mode]):
                route_report(graph, flagged, stations, terminus, mode, cfg.reroute_penalty_ms)
    result["spans"] = tracer.spans
    return result


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    run = {"setup": _setup, "plain": _plain, "traced": _traced}[spec["mode"]]
    result = run(spec["commands"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(maxrss_kb=usage.ru_maxrss, user_s=usage.ru_utime, sys_s=usage.ru_stime)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
