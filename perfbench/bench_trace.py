"""Outside-in tracing of one ``stability-meter run`` for the per-layer metrics.

:func:`install` replaces, from outside the program, the module-level names
that ``cli.execute_run`` and ``evaluation.run_stream`` look up, the policy
models' ``predict``/``observe_label``/``finish_grace`` methods and
``DecisionTree.fit`` with timing wrappers. The program itself is unchanged.

Every wrapper records a span: name (``<module>.<operation>``), start, end and
the span that was open in the same thread when it started. Per-event spans
(replay steps, encode, predict, observe_label) are summed per (name, parent)
in memory instead of kept one by one, so tracing a 20k-case log does not hold
about a million span objects. The coarse spans are kept whole. A span's self
time is its duration minus that of its child spans.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from time import perf_counter_ns

LAYERS = ("event_model", "prefixing", "classifiers", "evaluation", "stability", "cli")
ANALYSIS_SPANS = ("stability.annotate_series", "stability.meta_measures")
FORMAT_SPANS = ("cli.performance_csv", "cli.series_csv", "cli.meta_json")
NS = 1e-9  # seconds per perf_counter_ns tick


class _Thread:
    """Per-thread open-span stack, per-event aggregates and counters."""

    def __init__(self) -> None:
        self.ident = threading.get_ident()
        self.stack: list[list] = []  # [name, span id or 0, child ns]
        self.aggregates: dict[tuple[str, str | None], list[int]] = {}  # count, ns, self ns
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Thread] = []
        self._last_id = 0
        self.spans: list[dict] = []

    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
        return state

    def _new_id(self) -> int:
        with self._lock:
            self._last_id += 1
            return self._last_id

    def count(self, name: str, amount: float = 1) -> None:
        self._thread().counts[name] += amount

    def wrap(self, name: str, fn, per_event: bool = False, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` runs untimed."""

        def traced(*args, **kwargs):
            state = self._thread()
            stack = state.stack
            frame = [name, 0 if per_event else self._new_id(), 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self._close(state, frame, start, end, per_event)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _close(self, state: _Thread, frame: list, start: int, end: int, per_event: bool) -> None:
        name, span_id, child_ns = frame
        duration = end - start
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[2] += duration
        parent_name = parent[0] if parent is not None else None
        if per_event:
            entry = state.aggregates.get((name, parent_name))
            if entry is None:
                entry = state.aggregates[(name, parent_name)] = [0, 0, 0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_ns
        else:
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "parent": parent[1] if parent is not None else None,
                    "parent_name": parent_name,
                    "thread": state.ident,
                    "start_ns": start,
                    "end_ns": end,
                    "self_ns": duration - child_ns,
                }
            )

    def aggregates(self) -> list[dict]:
        """Per-event spans summed per (name, parent) over all threads."""
        merged: dict[tuple[str, str | None], list[int]] = {}
        for state in self._threads:
            for key, (count, total, own) in state.aggregates.items():
                entry = merged.setdefault(key, [0, 0, 0])
                entry[0] += count
                entry[1] += total
                entry[2] += own
        return [
            {"name": name, "parent_name": parent, "count": c, "total_ns": t, "self_ns": s}
            for (name, parent), (c, t, s) in sorted(merged.items(), key=lambda kv: str(kv[0]))
        ]

    def counts(self) -> Counter:
        total: Counter = Counter()
        for state in self._threads:
            total.update(state.counts)
        return total

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the traced run (seconds and counts)."""
        busy: Counter = Counter()  # name -> ns
        own: Counter = Counter()
        calls: Counter = Counter()
        for span in self.spans:
            busy[span["name"]] += span["end_ns"] - span["start_ns"]
            own[span["name"]] += span["self_ns"]
            calls[span["name"]] += 1
        for entry in self.aggregates():
            busy[entry["name"]] += entry["total_ns"]
            own[entry["name"]] += entry["self_ns"]
            calls[entry["name"]] += entry["count"]
        counts = self.counts()

        intervals = sorted(
            (span["start_ns"], span["end_ns"]) for span in self.spans if span["name"] in ANALYSIS_SPANS
        )
        analysis_wall = 0
        cover_start = cover_end = None
        for start, end in intervals:
            if cover_end is None or start > cover_end:
                if cover_end is not None:
                    analysis_wall += cover_end - cover_start
                cover_start, cover_end = start, end
            else:
                cover_end = max(cover_end, end)
        if cover_end is not None:
            analysis_wall += cover_end - cover_start

        # The analysis runs in worker threads while execute_run waits for
        # them, so its spans are not children of execute_run; subtract their
        # wall-clock union from execute_run's self time instead.
        execute_self = own["cli.execute_run"] - analysis_wall
        layer_self: Counter = Counter()
        for name, value in own.items():
            layer_self[name.split(".", 1)[0]] += value
        layer_self["cli"] -= analysis_wall

        refits = counts["tree_fit.refits"]
        analyzed = calls["stability.annotate_series"]
        metrics = {
            "event_model.parse_log.s": busy["event_model.parse_log"] * NS,
            "event_model.parse_log.events": counts["parse_log.events"],
            "event_model.replay.s": busy["event_model.replay"] * NS,
            "event_model.replay.items": counts["replay.items"],
            "prefixing.encode.s": busy["prefixing.encode"] * NS,
            "prefixing.encode.calls": calls["prefixing.encode"],
            "prefixing.encode.features": counts["encode.features"],
            "classifiers.predict.s": busy["classifiers.predict"] * NS,
            "classifiers.predict.calls": calls["classifiers.predict"],
            "classifiers.observe_label.s": busy["classifiers.observe_label"] * NS,
            "classifiers.observe_label.calls": calls["classifiers.observe_label"],
            "classifiers.finish_grace.s": busy["classifiers.finish_grace"] * NS,
            "classifiers.tree_fit.s": busy["classifiers.tree_fit"] * NS,
            "classifiers.tree_fit.calls": calls["classifiers.tree_fit"],
            "classifiers.tree_fit.rows": counts["tree_fit.rows"],
            "classifiers.tree_fit.changed_share": (
                counts["tree_fit.changed"] / refits if refits else 0.0
            ),
            "evaluation.run_stream.s": busy["evaluation.run_stream"] * NS,
            "evaluation.run_stream.self_s": own["evaluation.run_stream"] * NS,
            "evaluation.labels": counts["evaluation.labels"],
            "evaluation.points": counts["evaluation.points"],
            "stability.analysis.wall_s": analysis_wall * NS,
            "stability.annotate_series.s": busy["stability.annotate_series"] * NS,
            "stability.meta_measures.s": busy["stability.meta_measures"] * NS,
            "stability.moving_stats.calls": calls["stability.moving_stats"],
            "stability.moving_stats.per_series": (
                calls["stability.moving_stats"] / analyzed if analyzed else 0.0
            ),
            "stability.points": counts["stability.points"],
            "cli.format.s": sum(busy[name] for name in FORMAT_SPANS) * NS,
            "cli.write.s": busy["cli.write"] * NS,
            "cli.bytes_written": counts["cli.bytes_written"],
            "cli.files_written": calls["cli.write"],
            "cli.execute_run.self_s": execute_self * NS,
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer] * NS
        return metrics


def install(cli) -> Tracer:
    """Wrap the program's layer entry points; returns the tracer."""
    from stability_meter import classifiers, evaluation, stability

    tracer = Tracer()
    wrap = tracer.wrap

    def after_parse(args, traces):
        tracer.count("parse_log.events", sum(len(trace) for trace in traces))

    def after_run_stream(args, result):
        tracer.count("evaluation.labels", result.labels_seen)
        tracer.count("evaluation.points", sum(len(series) for series in result.series.values()))

    def after_annotate(args, rows):
        tracer.count("stability.points", len(rows))

    def after_write(args, result):
        tracer.count("cli.bytes_written", os.path.getsize(args[0]))

    def after_encode(args, sample):
        tracer.count("encode.features", len(sample.features))

    previous_trees: dict[int, dict] = {}  # feature width (one per bucket) -> last tree

    def after_fit(args, tree):
        width = len(args[3])  # fit(self, features, labels, numeric_mask)
        tracer.count("tree_fit.rows", len(args[2]))
        fitted = tree.to_dict()
        if width in previous_trees:
            tracer.count("tree_fit.refits")
            tracer.count("tree_fit.changed", fitted != previous_trees[width])
        previous_trees[width] = fitted

    original_replay = cli.replay
    next_item = wrap("event_model.replay", next, per_event=True)

    def traced_replay(traces):
        items = original_replay(traces)
        while True:
            try:
                item = next_item(items)
            except StopIteration:
                return
            tracer.count("replay.items")
            yield item

    cli.replay = traced_replay
    cli.parse_log = wrap("event_model.parse_log", cli.parse_log, after=after_parse)
    cli.run_stream = wrap("evaluation.run_stream", cli.run_stream, after=after_run_stream)
    cli.annotate_series = wrap("stability.annotate_series", cli.annotate_series, after=after_annotate)
    cli.meta_measures = wrap("stability.meta_measures", cli.meta_measures)
    cli._performance_csv = wrap("cli.performance_csv", cli._performance_csv)
    cli._series_csv = wrap("cli.series_csv", cli._series_csv)
    cli._meta_json = wrap("cli.meta_json", cli._meta_json)
    cli._atomic_write = wrap("cli.write", cli._atomic_write, after=after_write)
    cli.execute_run = wrap("cli.execute_run", cli.execute_run)
    cli.main = wrap("cli.main", cli.main)
    evaluation.encode = wrap("prefixing.encode", evaluation.encode, per_event=True, after=after_encode)
    stability.moving_stats = wrap("stability.moving_stats", stability.moving_stats)
    for model in (classifiers.IncrementalNaiveBayes, classifiers.WindowRetrainModel, classifiers.StaticModel):
        model.predict = wrap("classifiers.predict", model.predict, per_event=True)
        model.observe_label = wrap("classifiers.observe_label", model.observe_label, per_event=True)
        model.finish_grace = wrap("classifiers.finish_grace", model.finish_grace)
    classifiers.DecisionTree.fit = wrap("classifiers.tree_fit", classifiers.DecisionTree.fit, after=after_fit)
    return tracer
