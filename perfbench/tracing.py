"""In-memory spans around the calls the benchmark makes into each ordnet layer.

The tracer never edits the package: it swaps the module-level names that
callers resolve at call time (``ordnet.cli.engine_fit``,
``ordnet.selection.refit_precision``, ...) for timing wrappers, and restores
them on exit.  Every wrapped ``fit`` call also receives a timing ``callback``
through its public parameter, which gives the per-iteration gaps.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call: ``parent`` is the id of the enclosing span, or None."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class FitRecord:
    """Timing and outcome of one ``engine.fit`` call."""

    command: str | None
    start: float
    callbacks: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    data: object = None
    hyper: object = None
    covariate_model: bool = True
    state: object = None

    @property
    def first_iter_s(self) -> float | None:
        return self.callbacks[0] - self.start if self.callbacks else None

    @property
    def iter_gaps(self) -> list[float]:
        return [b - a for a, b in zip(self.callbacks, self.callbacks[1:])]


class Tracer:
    """Collects spans, fit records and selection outcomes for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fits: list[FitRecord] = []
        self.searches: list[object] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        record = Span(id=len(self.spans), name=name, start=time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @property
    def command(self) -> str | None:
        """Name of the outermost open span (the running CLI command)."""
        return self._stack[0].name if self._stack else None

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def wrap_fit(self, function):
        """Wrap ``engine.fit``: a span, an injected callback and a fit record."""
        signature = inspect.signature(function)

        def traced_fit(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            record = FitRecord(command=self.command, start=time.perf_counter())
            user_callback = bound.arguments["callback"]

            def callback(iteration, state, elbo):
                record.callbacks.append(time.perf_counter())
                if user_callback is not None:
                    user_callback(iteration, state, elbo)

            bound.arguments["callback"] = callback
            with self.span("engine.fit"):
                report = function(*bound.args, **bound.kwargs)
            record.iterations = report.iterations
            record.converged = report.converged
            record.data = bound.arguments["data"]
            record.hyper = bound.arguments["hyper"]
            record.covariate_model = bound.arguments["covariate_model"]
            record.state = report.final_state
            self.fits.append(record)
            return report

        return traced_fit

    def wrap_search(self, function):
        traced = self.wrap("selection.line_search_nu0", function)

        def recorded(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.searches.append(result)
            return result

        return recorded

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced names into the ordnet modules; restore them on exit."""
        from ordnet import baseline, cli, core, engine, selection

        targets = [
            (cli, "engine_fit", self.wrap_fit(cli.engine_fit)),
            (baseline, "engine_fit", self.wrap_fit(baseline.engine_fit)),
            (cli, "line_search_nu0", self.wrap_search(cli.line_search_nu0)),
            (cli, "fit_ssl", self.wrap("baseline.fit_ssl", cli.fit_ssl)),
            (selection, "fit_ssl", self.wrap("baseline.fit_ssl", selection.fit_ssl)),
            (selection, "refit_precision",
             self.wrap("selection.refit_precision", selection.refit_precision)),
            (selection, "ebic", self.wrap("selection.ebic", selection.ebic)),
            (cli, "evaluate_fit", self.wrap("metrics.evaluate_fit", cli.evaluate_fit)),
            (cli, "top_k_edge_subnetworks",
             self.wrap("metrics.top_k_edge_subnetworks", cli.top_k_edge_subnetworks)),
            (cli, "rank_nodes_by_beta",
             self.wrap("metrics.rank_nodes_by_beta", cli.rank_nodes_by_beta)),
            (cli, "simulate_experiment",
             self.wrap("simulate.simulate_experiment", cli.simulate_experiment)),
            (cli, "load_grouped_dataset",
             self.wrap("cli.load_grouped_dataset", cli.load_grouped_dataset)),
            (cli, "read_json", self.wrap("cli.read_json", cli.read_json)),
            (cli, "write_json", self.wrap("cli.write_json", cli.write_json)),
            (core.GroupedDataset, "prepare",
             self.wrap("core.prepare", core.GroupedDataset.prepare)),
        ]
        for name in ("update_edge_latents", "update_zeta", "update_beta", "update_sigma"):
            targets.append((engine, name, self.wrap(f"engine.{name}", getattr(engine, name))))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because the traced run is serial.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - child_time[span.id]
        return table

    def layer_self_times(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for name, row in self.totals().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return layers

    def span_dicts(self) -> list[dict]:
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start - origin,
                "end": s.end - origin,
                "parent": s.parent,
            }
            for s in self.spans
        ]
