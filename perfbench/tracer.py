"""In-process tracing of vknot's layers from outside the package.

`Tracer.install` wraps every public module-level function of the six vknot
modules and puts the wrapper in place of every ``vknot.*`` module attribute
that is the original function object, because ``from .x import y`` binds
the same object under several modules.  Each wrapper adds its call, its
inclusive time and its self time (inclusive minus the time of traced
callees) to one record per function; no spans are kept, since a full scan
makes over a million calls.  A generator function is timed on each
``next()``, so its work is charged to it and not to whoever iterates it.

`layer_metrics` turns the records and a few counters into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("braid", "gauss", "invariants", "search", "unknotting", "cli")

# Self-time and call sums behind each per-layer metric, by "module.function".
SELF_TIME = {
    "braid.build_s": ("braid.make_vt", "braid.make_ijk", "search.torus_word",
                      "braid.parse_braid", "braid.classical", "braid.virtual"),
    "braid.components_s": ("braid.permutation", "braid.component_count"),
    "gauss.trace_s": ("gauss.gauss_from_closure",),
    "gauss.normalize_s": ("gauss.normalize_positive",),
    "invariants.p_s": ("invariants.p_invariant", "invariants.chord_index",
                       "invariants.vu_lower_bound"),
    "invariants.u_s": ("invariants.u_invariant", "invariants.crossing_index"),
    "search.virtualize_s": ("search.virtualize_subset",),
    "search.scan_self_s": ("search.scan_torus_virtualizations",),
    "search.summary_s": ("search.summarize_scan",),
    "unknotting.triples_s": ("unknotting.knot_parameter_triples",),
    "unknotting.sequence_s": ("unknotting.next_step", "unknotting.unknotting_sequence"),
    "unknotting.pool_wait_s": ("unknotting.verify_theorem2",),
}
CALLS = {
    "braid.components_calls": ("braid.permutation", "braid.component_count"),
    "gauss.trace_calls": ("gauss.gauss_from_closure",),
    "invariants.p_calls": ("invariants.p_invariant",),
    "invariants.u_calls": ("invariants.u_invariant",),
}
WORD_BUILDERS = ("braid.make_vt", "braid.make_ijk", "braid.parse_braid",
                 "search.torus_word", "search.virtualize_subset")


class Tracer:
    """Per-function call counts and times, plus the counters the hooks keep."""

    def __init__(self) -> None:
        self.records: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts: Counter = Counter()
        self.states: set = set()
        self._stack = [0.0]  # time spent in traced callees, per open call
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        hooks = self._hooks()
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"vknot.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(value)] = (value, self._wrap(value, name, hooks.get(name)))
        for name, module in list(sys.modules.items()):
            if name != "vknot" and not name.startswith("vknot."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def missing(self) -> list[str]:
        """Functions the metrics read that the program no longer has."""
        wanted = {name for group in (*SELF_TIME.values(), *CALLS.values())
                  for name in group}
        return sorted(wanted - set(self.records))

    def _wrap(self, function, name: str, hook):
        record = self.records.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def traced_generator(*args, **kwargs):
                record[0] += 1
                inner = function(*args, **kwargs)
                try:
                    while True:
                        stack.append(0.0)
                        start = clock()
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                        finally:
                            elapsed = clock() - start
                            record[1] += elapsed
                            record[2] += elapsed - stack.pop()
                            stack[-1] += elapsed
                        if hook is not None:
                            hook(args, value)
                        yield value
                finally:
                    inner.close()
            return traced_generator

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - stack.pop()
                stack[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result
        return traced

    def _hooks(self) -> dict:
        counts, states = self.counts, self.states

        def built(args, word):
            counts["words"] += 1
            counts["letters"] += len(word)

        def traced(args, diagram):
            counts["traced_chords"] += diagram.n_chords

        def indexed(args, polynomial):
            counts["indexed_chords"] += args[0].n_chords

        def scanned(args, record):
            counts["subsets"] += 1
            counts["knots"] += record.is_knot

        def sequenced(args, sequence):
            visited = sequence.states()
            counts["states_visited"] += len(visited)
            states.update(state.as_tuple() for state in visited)

        def verified(args, report):
            counts["rows"] += len(report.rows)

        hooks = {name: built for name in WORD_BUILDERS}
        hooks.update({
            "gauss.gauss_from_closure": traced,
            "invariants.p_invariant": indexed,
            "invariants.u_invariant": indexed,
            "search.scan_torus_virtualizations": scanned,
            "unknotting.unknotting_sequence": sequenced,
            "unknotting.verify_theorem2": verified,
        })
        return hooks


def layer_metrics(tracer: Tracer, bytes_out: int, traced_s: float,
                  untraced_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by BENCHMARK.json name."""
    def total(names, column):
        return sum(tracer.records.get(name, (0, 0.0, 0.0))[column] for name in names)

    counts = tracer.counts
    metrics = {name: total(names, 2) for name, names in SELF_TIME.items()}
    metrics.update({name: total(names, 0) for name, names in CALLS.items()})
    metrics.update({
        "braid.words": counts["words"],
        "braid.letters": counts["letters"],
        "gauss.chords": counts["traced_chords"],
        "invariants.chords": counts["indexed_chords"],
        "search.subsets": counts["subsets"],
        "search.knots": counts["knots"],
        "unknotting.rows": counts["rows"],
        "unknotting.states_visited": counts["states_visited"],
        "unknotting.distinct_states": len(tracer.states),
        "cli.self_s": total([name for name in tracer.records if name.startswith("cli.")], 2),
        "cli.bytes_out": bytes_out,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return metrics
