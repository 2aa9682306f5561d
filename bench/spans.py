"""In-memory spans around the engine's public calls, recorded from outside.

The engine is not edited. `Tracer.wrap` returns a wrapper that opens a span,
calls the original and closes the span; `instrument` rebinds the names that
the engine's own callers look up at call time (module globals such as
`ellchain.cli.construct`) to such wrappers. Each span records its name,
start and end (perf_counter_ns), the index of its parent span and the id of
the tuple being processed.

A wrapper may run an `after` hook on the call's result to count work (pairs,
runs, rows). The hook runs inside a span named BOOKKEEPING, a child of the
caller's span, so its time is charged to no layer.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent_index, tuple_id].
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.tuple_id = -1
        self.counters: Counter[str] = Counter()
        self.classify_calls: Counter[int] = Counter()
        self.case_of: dict[int, str] = {}

    def _open(self, name: str) -> list[Any]:
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.tuple_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _close(self, rec: list[Any]) -> None:
        rec[2] = perf_counter_ns()
        self.stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[[Any, tuple[Any, ...]], None] | None = None,
        *,
        new_tuple: bool = False,
    ) -> Callable[..., Any]:
        """Trace `fn` as span `name`; `new_tuple` starts the next tuple id."""

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if new_tuple:
                self.tuple_id += 1
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                self.untimed(lambda: after(result, args))
            return result

        return wrapper

    def untimed(self, fn: Callable[[], Any]) -> Any:
        """Run `fn` inside a BOOKKEEPING span."""
        book = self._open(BOOKKEEPING)
        try:
            return fn()
        finally:
            self._close(book)

    # -- counters read off results ----------------------------------------

    def on_analyze(self, analysis: Any, args: tuple[Any, ...]) -> None:
        self.counters["cli.tuples"] += 1
        if analysis.classification is not None:
            self.counters["cli.hypothesis_pass"] += 1

    def on_classify(self, classification: Any, args: tuple[Any, ...]) -> None:
        self.classify_calls[self.tuple_id] += 1

    def on_construct(self, skeleton: Any, args: tuple[Any, ...]) -> None:
        self.case_of[self.tuple_id] = skeleton.case.value
        self.counters["construct.table_runs"] += sum(len(t.at_p) + len(t.at_q) for t in skeleton.tables)

    def on_verify(self, report: Any, args: tuple[Any, ...]) -> None:
        skeleton = args[0]
        tables = skeleton.tables
        nodes = report.entry("node_pairing").witness["nodes"]
        c = self.counters
        c["verify.node_oracle_fallbacks"] += sum(1 for n in nodes if n["oracle_used"])
        # Node pairs come from the witness; each component pairs its k P-orders.
        c["verify.pairs"] += sum(len(n["pairs"]) for n in nodes) + skeleton.params.k * len(tables)
        # Runs are the (order, mult) entries the pairings read: Q of component
        # i and P of component i+1 at node i, then P and Q of every component.
        c["verify.runs"] += sum(len(tables[i].at_q) + len(tables[i + 1].at_p) for i in range(len(tables) - 1))
        c["verify.runs"] += sum(len(t.at_p) + len(t.at_q) for t in tables)

    def on_audit(self, audit: Any, args: tuple[Any, ...]) -> None:
        self.counters["ledger.rows"] += len(audit.ledger.rows)

    def on_cross(self, cross: Any, args: tuple[Any, ...]) -> None:
        self.counters["oracle.instances"] += len(cross.checks)
        self.counters["oracle.disagreements"] += len(cross.disagreements)

    def on_dump(self, text: str, args: tuple[Any, ...]) -> None:
        self.counters["skeleton.dump_bytes"] += len(text.encode("utf-8"))

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summarize(self, clock: Any = None) -> dict[str, Any]:
        """Self time (ns) and call count per span name, overall and per case.
        With a ScaledClock, each self time is scaled by the factor of the
        segment its span started in."""
        own: list[float] = self.self_times()
        if clock is not None:
            own = [clock.scale(rec[1], ns) for rec, ns in zip(self.spans, own)]
        ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        case_ns: dict[str, Counter[str]] = defaultdict(Counter)
        case_calls: dict[str, Counter[str]] = defaultdict(Counter)
        for (name, _, _, _, tid), span_ns in zip(self.spans, own):
            case = self.case_of.get(tid, "-")
            ns[name] += span_ns
            calls[name] += 1
            case_ns[name][case] += span_ns
            case_calls[name][case] += 1
        return {"ns": ns, "calls": calls, "case_ns": case_ns, "case_calls": case_calls}

    def classify_calls_per_constructed_tuple(self) -> float:
        """classify calls made while processing tuples that were constructed."""
        constructed = list(self.case_of)
        if not constructed:
            return 0.0
        total = sum(self.classify_calls[tid] for tid in constructed)
        return total / len(constructed)

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\ttuple_id\tcase\n")
            for i, (name, start, end, parent, tid) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{tid}\t{self.case_of.get(tid, '-')}\n")


class instrument:
    """Context manager: rebind the engine's internal call sites to traced
    wrappers, and restore the originals on exit.

    `ellchain/__init__.py` rebinds the package attributes `construct` and
    `ledger` to functions, so those submodules are reached via sys.modules.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.saved: list[tuple[Any, str, Any]] = []

    def _rebind(self, owner: Any, attr: str, name: str, after: Callable[..., None] | None = None,
                **kwargs: Any) -> None:
        original = getattr(owner, attr)
        self.saved.append((owner, attr, original))
        setattr(owner, attr, self.tracer.wrap(name, original, after, **kwargs))

    def __enter__(self) -> Tracer:
        t = self.tracer
        cli = sys.modules["ellchain.cli"]
        self._rebind(cli, "evaluate_tuple", "cli.evaluate_tuple", new_tuple=True)
        self._rebind(cli, "analyze", "cli.analyze", t.on_analyze)
        for module in ("ellchain.cli", "ellchain.construct", "ellchain.ledger"):
            self._rebind(sys.modules[module], "classify", "params.classify", t.on_classify)
        self._rebind(cli, "construct", "construct.construct", t.on_construct)
        self._rebind(cli, "verify", "verify.verify", t.on_verify)
        self._rebind(cli, "audit_equals_rho", "ledger.audit", t.on_audit)
        return t

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
