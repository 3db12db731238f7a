"""In-memory span tracing of stsa's layers, installed from outside the package.

``Tracer.install`` replaces the public names that ``stsa.runner``,
``stsa.client`` and ``stsa.server`` look up at call time (and
``ChaChaStream.standard_normal``) with wrappers that record one span per
call: name, start, end, parent span, stage, and counters such as rows or
flops. Nothing in stsa is edited; without ``install`` nothing is wrapped.
Spans stay in memory until the caller writes them out after the workload.

``layer_metrics`` turns a span list into the per-layer metrics. A span's
self time is its duration minus the durations of its direct children;
calls are single-threaded and nested, so children never overlap. Only
spans inside the entry call count: the harness's own checks also call
wrapped code, such as the synthetic data's noise draws.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter_ns

# Span record fields, kept as plain lists so they serialize to JSON as is.
NAME, START, END, PARENT, STAGE, COUNTS = range(6)

# The span around the whole timed entry call.
ENTRY_SPAN = "runner.run_experiment"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _local_statistics_counts(args, kwargs, result):
    rows, m = _arg(args, kwargs, 0, "feat").shape
    gram = kwargs.get("include_gram", True)
    return {"rows": rows, "flops": 2 * rows * m * m if gram else 0}


def _apply_map_counts(args, kwargs, result):
    return {"rows": _arg(args, kwargs, 1, "raw").shape[0]}


def _ridge_solve_counts(args, kwargs, result):
    m = _arg(args, kwargs, 0, "G").shape[0]
    c = _arg(args, kwargs, 1, "C").shape[1]
    return {"flops": m**3 / 3 + 4 * m * m * c}


def _standard_normal_counts(args, kwargs, result):
    return {"draws": _arg(args, kwargs, 1, "n")}


def _payload_bytes(payloads) -> int:
    total = 0
    for payload in payloads:
        for rec in payload.records:
            for arr in (rec.gram, rec.corr, rec.label_freq):
                if arr is not None:
                    total += arr.nbytes
    return total


class Tracer:
    """Records nested spans of the wrapped stsa calls in one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.stage = 0

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter_ns(), 0, parent, self.stage, counts]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[END] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, counts=None):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if counts is not None:
                record[COUNTS] = counts(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def _wrap_extract_payload(self, owner):
        original = owner.extract_payload

        def traced(shard, *args, **kwargs):
            self.stage = shard.task_id
            with self.span("client.extract_payload") as record:
                result = original(shard, *args, **kwargs)
            record[COUNTS] = {"records": len(result.records)}
            return result

        owner.extract_payload = traced

    def _wrap_spatial_aggregate(self, owner):
        original = owner.spatial_aggregate

        def traced(payloads, *args, **kwargs):
            payloads = list(payloads)
            counts = {"payload_bytes": _payload_bytes(payloads)}
            with self.span("server.spatial_aggregate", counts):
                return original(payloads, *args, **kwargs)

        owner.spatial_aggregate = traced

    def install(self):
        """Wrap every traced name; fails loudly if stsa no longer has one."""
        import stsa.client
        import stsa.runner
        import stsa.server
        from stsa.prng import ChaChaStream

        runner, client, server = stsa.runner, stsa.client, stsa.server
        self._wrap(runner, "load_experiment_data", "data.load_experiment_data")
        self._wrap(runner, "dirichlet_partition", "data.dirichlet_partition")
        for owner in (runner, client):
            self._wrap(owner, "apply_map", "core.apply_map", _apply_map_counts)
            self._wrap(
                owner, "local_statistics", "core.local_statistics", _local_statistics_counts
            )
        self._wrap(server, "ridge_solve", "core.ridge_solve", _ridge_solve_counts)
        self._wrap(runner, "predict", "core.predict")
        self._wrap_extract_payload(runner)
        self._wrap(runner, "add_noise", "client.add_noise")
        self._wrap_spatial_aggregate(runner)
        self._wrap(runner, "estimate_gram", "server.estimate_gram")
        self._wrap(runner, "temporal_aggregate", "server.temporal_aggregate")
        self._wrap(runner, "update_classifier", "server.update_classifier")
        self._wrap(runner, "centralized_oracle", "runner.centralized_oracle")
        self._wrap(
            ChaChaStream, "standard_normal", "prng.standard_normal", _standard_normal_counts
        )


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its ``ENTRY_SPAN`` down.

    Returns every per-layer metric except ``blas.peak_gflops`` and
    ``trace.overhead_s``, which come from outside the span list.
    """
    roots = [i for i, r in enumerate(spans) if r[NAME] == ENTRY_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {ENTRY_SPAN!r} span, found {len(roots)}")
    # A parent is recorded before its children, so one pass marks every
    # descendant of the entry call.
    inside = [False] * len(spans)
    for index, record in enumerate(spans):
        inside[index] = index == roots[0] or (record[PARENT] >= 0 and inside[record[PARENT]])
    child_ns = [0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child_ns[record[PARENT]] += record[END] - record[START]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for index, record in enumerate(spans):
        if not inside[index]:
            continue
        name = record[NAME]
        own = (record[END] - record[START] - child_ns[index]) / 1e9
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in (record[COUNTS] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    spans = [record for record, keep in zip(spans, inside) if keep]

    def rate(name: str) -> float:
        busy = self_s.get(name, 0.0)
        return counts.get(f"{name}.flops", 0) / busy / 1e9 if busy > 0 else 0.0

    held = [
        r[COUNTS]["payload_bytes"] for r in spans if r[NAME] == "server.spatial_aggregate"
    ]
    metrics = {
        "data.load_experiment_data_s": self_s.get("data.load_experiment_data", 0.0),
        "data.dirichlet_partition_s": self_s.get("data.dirichlet_partition", 0.0),
        "core.local_statistics_s": self_s.get("core.local_statistics", 0.0),
        "core.local_statistics.calls": calls.get("core.local_statistics", 0),
        "core.local_statistics.rows": counts.get("core.local_statistics.rows", 0),
        "core.local_statistics.gflops": rate("core.local_statistics"),
        "core.apply_map_s": self_s.get("core.apply_map", 0.0),
        "core.apply_map.rows": counts.get("core.apply_map.rows", 0),
        "core.ridge_solve_s": self_s.get("core.ridge_solve", 0.0),
        "core.ridge_solve.calls": calls.get("core.ridge_solve", 0),
        "core.ridge_solve.gflops": rate("core.ridge_solve"),
        "core.predict_s": self_s.get("core.predict", 0.0),
        "client.extract_payload_s": self_s.get("client.extract_payload", 0.0),
        "client.records": counts.get("client.extract_payload.records", 0),
        "client.add_noise_s": self_s.get("client.add_noise", 0.0),
        "server.spatial_aggregate_s": self_s.get("server.spatial_aggregate", 0.0),
        "server.payload_mb_held": max(held, default=0) / 1e6,
        "server.estimate_gram_s": self_s.get("server.estimate_gram", 0.0),
        "server.estimate_gram.calls": calls.get("server.estimate_gram", 0),
        "server.temporal_aggregate_s": self_s.get("server.temporal_aggregate", 0.0),
        "server.update_classifier_s": self_s.get("server.update_classifier", 0.0),
        "server.stage_update_s": _median_stage_update(spans),
        "runner.centralized_oracle_s": self_s.get("runner.centralized_oracle", 0.0),
        "runner.self_s": self_s[ENTRY_SPAN],
        "prng.standard_normal_s": self_s.get("prng.standard_normal", 0.0),
        "prng.standard_normal.draws": counts.get("prng.standard_normal.draws", 0),
    }
    return metrics


def _median_stage_update(spans: list[list]) -> float:
    """Median over stages of spatial_aggregate start to update_classifier end."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for record in spans:
        stage = record[STAGE]
        if record[NAME] == "server.spatial_aggregate":
            first[stage] = min(first.get(stage, record[START]), record[START])
        elif record[NAME] == "server.update_classifier":
            last[stage] = max(last.get(stage, record[END]), record[END])
    spans_s = [(last[s] - first[s]) / 1e9 for s in first if s in last]
    return statistics.median(spans_s) if spans_s else 0.0
