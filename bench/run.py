#!/usr/bin/env python3
"""ellchain benchmark: end-to-end and per-layer metrics on fixed workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload acceptance_sweep --seed 1 --seconds 30 --trace 0

The engine is imported from `src/` of the checkout, never from an installed
copy. Every workload is a closed loop with one caller. A run sets up its
input three times (import plus input generation; `setup_s` is the median),
then makes as many full passes over the input as fit in `--seconds`, and at
least one. Times are scaled to a fixed CPU speed (see clock.py). Every output
is checked against the digests pinned in `digests.json`; a failing verdict or
a digest mismatch counts the tuple as failed, and the run exits 1 after
printing its result.

`--trace 0` prints the end-to-end metrics. `--trace 1` makes an untraced and
a traced pass and prints the per-layer metrics; the spans are written to
`bench/out/`. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns, thread_time_ns
from typing import Any, Callable, Iterable

from clock import ScaledClock
from spans import BOOKKEEPING, Tracer, instrument

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DIGESTS = BENCH / "digests.json"
SPANS_DIR = BENCH / "out"

CASES = ("large_sections", "small_a", "small_b", "small_c")
BAD_STATUSES = frozenset({"verify_fail", "audit_fail", "oracle_disagree"})
SETUP_REPEATS = 3
ORACLE_MAX_K = 8  # the oracle's default bound; larger k would be skipped, not checked
POOL_JOBS = 2

Lattice = tuple[tuple[int, int], tuple[int, int]]
Tuple4 = tuple[int, int, int, int]

ACCEPTANCE: Lattice = ((2, 12), (1, 5))
FRONTIER: Lattice = ((2, 30), (1, 5))


def load_engine() -> Any:
    """(Re)import ellchain from the checkout's src/ and return ellchain.cli."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "ellchain" or n.startswith("ellchain.")]:
        del sys.modules[name]
    cli = importlib.import_module("ellchain.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ellchain was imported from {cli.__file__}, not from {SRC}")
    return cli


def engine(module: str) -> Any:
    return sys.modules[f"ellchain.{module}"]


def lattice_tuples(lattice: Lattice) -> list[Tuple4]:
    cli = engine("cli")
    return list(cli.iter_tuples(cli.SweepConfig(g=lattice[0], r=lattice[1])))


def constructible(lattice: Lattice, keep: Callable[[Tuple4], bool]) -> list[tuple[Tuple4, str]]:
    """(tuple, case) for every lattice tuple that passes `keep` and classifies."""
    params, errors = engine("params"), engine("errors")
    out = []
    for t in lattice_tuples(lattice):
        if not keep(t):
            continue
        try:
            c = params.classify(params.Params(*t))
        except (errors.KLERegime, errors.HypothesisFailed):
            continue
        out.append((t, c.case.value))
    return out


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    """One full pass over a workload's input. Times are scaled ns."""

    wall_ns: float
    raw_wall_ns: int
    latencies_ns: list[float]
    # (tuple, record) in the order the digest is taken.
    records: list[tuple[Tuple4, str]]
    failed: set[Tuple4] = field(default_factory=set)
    trailer: str = ""
    first_line_ns: int = 0
    clock: ScaledClock | None = None


class Timeline:
    """Per-tuple samples of one pass, scaled once the pass is over. Without
    a clock, times stay raw.

    A tuple's latency is the CPU time of this thread between `begin` and
    `end`. On a shared VM about 0.25% of tuples are preempted for up to a
    few ms, which would make the 99th percentile a measure of the
    neighbours; CPU time leaves that wait out. Wall time still counts it.
    """

    def __init__(self, clock: ScaledClock | None, tracer: Tracer | None) -> None:
        self.clock = clock
        self.tracer = tracer
        # (wall start, CPU ns) per tuple
        self.intervals: list[tuple[int, int]] = []
        self.start = perf_counter_ns()
        self._wall = self.start
        self._cpu = thread_time_ns()

    def begin(self) -> None:
        self._wall = perf_counter_ns()
        self._cpu = thread_time_ns()

    def end(self) -> None:
        self.intervals.append((self._wall, thread_time_ns() - self._cpu))

    def tick(self) -> None:
        """Call between tuples; calibrates when a segment is due. In a traced
        pass the calibration is a bookkeeping span, charged to no layer."""
        if self.clock is None or not self.clock.due():
            return
        if self.tracer is None:
            self.clock.close()
        else:
            self.tracer.untimed(self.clock.close)

    def finish(self, records: list[tuple[Tuple4, str]], failed: set[Tuple4], trailer: str = "",
               first_line_ns: int = 0) -> Pass:
        end = perf_counter_ns()
        clock = self.clock
        if clock is None:
            wall: float = end - self.start
            latencies: list[float] = [float(cpu) for _, cpu in self.intervals]
        else:
            clock.close()
            wall = clock.scaled_between(self.start, end)
            latencies = [clock.scale(start, cpu) for start, cpu in self.intervals]
        return Pass(wall, end - self.start, latencies, records, failed, trailer, first_line_ns, clock)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    lattice: Lattice = ACCEPTANCE
    seeded = True  # digest records are sorted by tuple, since the seed sets the order

    def setup(self, lattice: Lattice, seed: int) -> Any:
        raise NotImplementedError

    def run_pass(self, inputs: Any, tracer: Tracer | None, clock: ScaledClock | None) -> Pass:
        raise NotImplementedError

    def input_digest(self, inputs: Any) -> tuple[int, str] | None:
        """Count and digest of the (tuple, case) input list, order aside."""
        return len(inputs), sha("".join(f"{t} {case}\n" for t, case in sorted(inputs)))


class AcceptanceSweep(Workload):
    """`run_sweep` over the fixed acceptance lattice; the seed is not used.
    Per-tuple latency is the gap between consecutive `emit` calls."""

    name = "acceptance_sweep"
    lattice = ACCEPTANCE
    seeded = False

    def __init__(self, jobs: int = 1, corrupt: Callable[[Tuple4, str], str] | None = None) -> None:
        self.jobs = jobs
        self.corrupt = corrupt

    def setup(self, lattice: Lattice, seed: int) -> Any:
        cli = engine("cli")
        return cli.SweepConfig(g=lattice[0], r=lattice[1], jobs=self.jobs), lattice_tuples(lattice)

    def input_digest(self, inputs: Any) -> None:
        return None  # the lattice is fixed; the trailer pins its counts

    def run_pass(self, inputs: Any, tracer: Tracer | None, clock: ScaledClock | None) -> Pass:
        cfg, tuples = inputs
        run_sweep = engine("cli").run_sweep
        if tracer is not None:
            run_sweep = tracer.wrap("cli.run_sweep", run_sweep)
        lines: list[str] = []
        first_line = []
        timeline = Timeline(clock, tracer)

        def emit(line: str) -> None:
            timeline.end()
            if not lines:
                first_line.append(perf_counter_ns() - timeline.start)
            lines.append(line)
            timeline.tick()
            timeline.begin()

        summary = run_sweep(cfg, emit=emit, corrupt=self.corrupt)
        trailer = (
            f"summary: tried={summary.tried} hypothesis_ok={summary.hypothesis_ok} "
            f"constructed={summary.constructed} verified={summary.verified} "
            f"ledger_ok={summary.ledger_ok} failures={len(summary.failures)}"
        )
        records = list(zip(tuples, lines))
        failed = set(tuples) if len(lines) != len(tuples) else set()
        failed.update(t for t, line in records if line.rsplit("status=", 1)[-1] in BAD_STATUSES)
        return timeline.finish(records, failed, trailer, first_line[0] if first_line else 0)


class SmallFrontier(Workload):
    """`cli.analyze` (what `check` runs) on every small-regime tuple."""

    name = "small_frontier"
    lattice = FRONTIER

    def setup(self, lattice: Lattice, seed: int) -> Any:
        # Tuples with d + r(1-g) >= k are large_sections by definition, so
        # only the others need classifying.
        small = constructible(lattice, lambda t: t[2] + t[1] * (1 - t[0]) < t[3])
        small = [(t, case) for t, case in small if case != "large_sections"]
        random.Random(seed).shuffle(small)
        return small

    def run_pass(self, inputs: Any, tracer: Tracer | None, clock: ScaledClock | None) -> Pass:
        analyze = engine("cli").analyze
        records: list[tuple[Tuple4, str]] = []
        failed: set[Tuple4] = set()
        timeline = Timeline(clock, tracer)
        for i, (t, _) in enumerate(inputs):
            timeline.tick()
            if tracer is not None:
                tracer.tuple_id = i
            timeline.begin()
            try:
                a = analyze(*t)
            except Exception:
                timeline.end()
                traceback.print_exc(file=sys.stderr)
                failed.add(t)
                records.append((t, f"{t} error"))
                continue
            timeline.end()
            case = a.classification.case.value if a.classification else "-"
            records.append((t, f"{t} {case} {a.rho} {a.status}"))
            if a.status != "pass":
                failed.add(t)
        return timeline.finish(records, failed)


class DumpReloadOracle(Workload):
    """construct, dump, reload, verify, report JSON and cross_validate:
    `dump` then `verify-file --oracle --format json`, in memory."""

    name = "dump_reload_oracle"
    lattice = ACCEPTANCE

    def setup(self, lattice: Lattice, seed: int) -> Any:
        tuples = constructible(lattice, lambda t: t[3] <= ORACLE_MAX_K)
        random.Random(seed).shuffle(tuples)
        return tuples

    def run_pass(self, inputs: Any, tracer: Tracer | None, clock: ScaledClock | None) -> Pass:
        params = engine("params")
        construct = engine("construct").construct
        dump = engine("skeleton").skeleton_to_canonical_json
        from_dict = engine("skeleton").skeleton_from_json_dict
        verify = engine("verify").verify
        cross_validate = engine("oracle").cross_validate

        def load(text: str) -> Any:
            return from_dict(json.loads(text))

        def report_json(report: Any) -> str:
            return report.to_canonical_json()

        if tracer is not None:
            construct = tracer.wrap("construct.construct", construct, tracer.on_construct)
            dump = tracer.wrap("skeleton.dump", dump, tracer.on_dump)
            load = tracer.wrap("skeleton.load", load)
            verify = tracer.wrap("verify.verify", verify, tracer.on_verify)
            report_json = tracer.wrap("verify.report_json", report_json)
            cross_validate = tracer.wrap("oracle.cross_validate", cross_validate, tracer.on_cross)

        records: list[tuple[Tuple4, str]] = []
        failed: set[Tuple4] = set()
        timeline = Timeline(clock, tracer)
        for i, (t, _) in enumerate(inputs):
            timeline.tick()
            if tracer is not None:
                tracer.tuple_id = i
            timeline.begin()
            try:
                skeleton = construct(params.Params(*t))
                text = dump(skeleton)
                reloaded = load(text)
                report = verify(reloaded)
                report_text = report_json(report)
                cross = cross_validate(reloaded)
            except Exception:
                timeline.end()
                traceback.print_exc(file=sys.stderr)
                failed.add(t)
                records.append((t, f"{t} error"))
                continue
            timeline.end()
            records.append((t, f"{t} {sha(text)[:16]} {sha(report_text)[:16]}"))
            if reloaded != skeleton or not report.overall or not cross.ok or cross.skipped:
                failed.add(t)
        return timeline.finish(records, failed)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (AcceptanceSweep, SmallFrontier, DumpReloadOracle)
}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def cell_digests(workload: Workload, records: Iterable[tuple[Tuple4, str]]) -> dict[str, str]:
    """One 16-hex digest per (g, r) cell over the cell's records."""
    cells: dict[str, list[tuple[Tuple4, str]]] = {}
    for t, rec in records:
        cells.setdefault(f"{t[0]},{t[1]}", []).append((t, rec))
    out = {}
    for key, items in cells.items():
        if workload.seeded:
            items.sort()
        out[key] = sha("".join(rec + "\n" for _, rec in items))[:16]
    return out


def total_digest(workload: Workload, p: Pass) -> str:
    records = sorted(p.records) if workload.seeded else p.records
    return sha("".join(rec + "\n" for _, rec in records) + p.trailer)


def pinned_entry(workload: Workload, inputs: Any, p: Pass) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "cells": dict(sorted(cell_digests(workload, p.records).items())),
        "total": total_digest(workload, p),
    }
    if p.trailer:
        entry["trailer"] = p.trailer
    digest = workload.input_digest(inputs)
    if digest is not None:
        entry["inputs"] = {"count": digest[0], "sha256": digest[1]}
    return entry


def gate(workload: Workload, lattice: Lattice, inputs: Any, pinned: dict[str, Any],
         p: Pass) -> tuple[bool, set[Tuple4]]:
    """Check one pass against the pinned digests.

    Returns (every check holds, failed tuples). A tuple fails when its
    verdict fails or its (g, r) cell digest differs from the pinned one. On
    the workload's own lattice the input list, the trailer and the digest
    over the whole output are checked too; if one of those differs, every
    tuple of the pass counts as failed.
    """
    failed = set(p.failed)
    for key, digest in cell_digests(workload, p.records).items():
        if pinned["cells"].get(key) != digest:
            failed.update(t for t, _ in p.records if f"{t[0]},{t[1]}" == key)
    if lattice == workload.lattice:
        whole_ok = total_digest(workload, p) == pinned["total"] and p.trailer == pinned.get("trailer", "")
        digest = workload.input_digest(inputs)
        if digest is not None:
            whole_ok &= {"count": digest[0], "sha256": digest[1]} == pinned["inputs"]
        if not whole_ok:
            failed.update(t for t, _ in p.records)
    return not failed, failed


class Gatekeeper:
    """Accumulates gate results over the passes of one run."""

    def __init__(self, workload: Workload, lattice: Lattice, inputs: Any, pinned: dict[str, Any]) -> None:
        self.args = (workload, lattice, inputs, pinned)
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def check(self, p: Pass) -> None:
        ok, failed = gate(*self.args, p)
        self.correct &= ok
        self.attempted += len(p.records)
        self.failed += len(failed)


# ---------------------------------------------------------------------------
# running and reporting
# ---------------------------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = int(-(-q * len(sorted_values) // 1))  # ceil
    return sorted_values[max(0, min(len(sorted_values), rank) - 1)]


def setup_runs(workload: Workload, lattice: Lattice, seed: int, repeats: int) -> tuple[Any, list[float]]:
    """Import the engine and build the input `repeats` times; keep the last.
    Returns the input and each repeat's scaled time in seconds."""
    times = []
    inputs = None
    for _ in range(repeats):
        clock = ScaledClock()
        start = perf_counter_ns()
        load_engine()
        inputs = workload.setup(lattice, seed)
        end = perf_counter_ns()
        clock.close()
        times.append(clock.scaled_between(start, end) / 1e9)
    # Collect set-up garbage and exempt the surviving input from later
    # collections, so the timed passes do not rescan it.
    gc.collect()
    gc.freeze()
    return inputs, times


def peak_rss_mib(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    lattice: Lattice | None = None,
    corrupt: Callable[[Tuple4, str], str] | None = None,
) -> RunResult:
    """One benchmark run. `lattice` and `corrupt` exist for the self-test:
    a smaller lattice is checked cell by cell, and `corrupt` is passed to
    `run_sweep` (acceptance_sweep only)."""
    workload = AcceptanceSweep(corrupt=corrupt) if name == AcceptanceSweep.name else WORKLOADS[name]()
    lattice = lattice or workload.lattice
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    if trace:
        return _traced_run(workload, lattice, seed, pinned)

    inputs, setup_times = setup_runs(workload, lattice, seed, SETUP_REPEATS)
    gk = Gatekeeper(workload, lattice, inputs, pinned)
    walls: list[float] = []
    raw_ns = 0
    latencies: list[float] = []
    while not walls or raw_ns + raw_ns / len(walls) <= seconds * 1e9:
        p = workload.run_pass(inputs, None, ScaledClock())
        gk.check(p)
        walls.append(p.wall_ns)
        raw_ns += p.raw_wall_ns
        latencies.extend(p.latencies_ns)
        del p
        if len(walls) == 1:
            # Later passes may overlap with this one's garbage; take the
            # peak over set-up and one pass, whatever the pass count.
            rss = peak_rss_mib()
    latencies.sort()
    metrics = {
        "wall_s": (statistics.median(walls) / 1e9, "s"),
        "tuples_per_s": (gk.attempted / (sum(walls) / 1e9), "1/s"),
        "tuple_p50_us": (percentile(latencies, 0.50) / 1e3, "us"),
        "tuple_p99_us": (percentile(latencies, 0.99) / 1e3, "us"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "ok_frac": (1.0 - gk.failed / gk.attempted, "ratio"),
    }
    notes = [f"passes={len(walls)} latency_samples={len(latencies)} raw_wall_s={raw_ns / 1e9:.3f}"]
    return RunResult(gk.correct, gk.attempted, gk.failed, metrics, notes)


def _per_case(summary: dict[str, Any], span: str, metric: str) -> dict[str, tuple[float, str]]:
    out = {}
    for case in CASES:
        calls = summary["case_calls"][span][case]
        out[f"{metric}.{case}"] = (summary["case_ns"][span][case] / calls / 1e3 if calls else 0.0, "us")
    return out


def _mean_us(summary: dict[str, Any], span: str) -> float:
    calls = summary["calls"][span]
    return summary["ns"][span] / calls / 1e3 if calls else 0.0


def _traced_run(workload: Workload, lattice: Lattice, seed: int, pinned: dict[str, Any]) -> RunResult:
    inputs, _ = setup_runs(workload, lattice, seed, 1)
    gk = Gatekeeper(workload, lattice, inputs, pinned)
    plain = workload.run_pass(inputs, None, ScaledClock())
    gk.check(plain)
    notes = []

    pool_first_line_ms = pool_efficiency = 0.0
    if isinstance(workload, AcceptanceSweep):
        # Unscaled on both sides: calibrating in the parent while the
        # workers run would measure contention, not core speed.
        pooled_workload = AcceptanceSweep(jobs=POOL_JOBS)
        pooled = pooled_workload.run_pass(pooled_workload.setup(lattice, seed), None, None)
        gk.check(pooled)
        if [r for _, r in pooled.records] != [r for _, r in plain.records] or pooled.trailer != plain.trailer:
            gk.correct = False
        pool_first_line_ms = pooled.first_line_ns / 1e6
        pool_efficiency = plain.raw_wall_ns / (POOL_JOBS * pooled.raw_wall_ns)
        notes.append(f"pool jobs={POOL_JOBS} raw_wall_s={pooled.raw_wall_ns / 1e9:.3f} "
                     f"peak_rss_mib self={peak_rss_mib():.1f} largest_child={peak_rss_mib(True):.1f}")

    tracer = Tracer()
    with instrument(tracer):
        traced = workload.run_pass(inputs, tracer, ScaledClock())
    gk.check(traced)

    s = tracer.summarize(traced.clock)
    c = tracer.counters
    cli_ns = s["ns"]["cli.run_sweep"] + s["ns"]["cli.evaluate_tuple"] + s["ns"]["cli.analyze"]
    tuples = len(traced.records)
    metrics: dict[str, tuple[float, str]] = {
        "params.classify.calls_per_tuple": (tracer.classify_calls_per_constructed_tuple(), "count"),
        "params.classify.self_us": (_mean_us(s, "params.classify"), "us"),
        **_per_case(s, "construct.construct", "construct.self_us"),
        "construct.table_runs": (c["construct.table_runs"], "count"),
        **_per_case(s, "verify.verify", "verify.self_us"),
        "verify.pairs": (c["verify.pairs"], "count"),
        "verify.runs": (c["verify.runs"], "count"),
        "verify.node_oracle_fallbacks": (c["verify.node_oracle_fallbacks"], "count"),
        "verify.report_json_us": (_mean_us(s, "verify.report_json"), "us"),
        **_per_case(s, "ledger.audit", "ledger.audit.self_us"),
        "ledger.rows": (c["ledger.rows"], "count"),
        "skeleton.dump_us": (_mean_us(s, "skeleton.dump"), "us"),
        "skeleton.dump_bytes": (c["skeleton.dump_bytes"], "bytes"),
        "skeleton.load_us": (_mean_us(s, "skeleton.load"), "us"),
        **_per_case(s, "oracle.cross_validate", "oracle.cross_validate.self_us"),
        "oracle.instances": (c["oracle.instances"], "count"),
        "oracle.disagreements": (c["oracle.disagreements"], "count"),
        "cli.self_us_per_tuple": (cli_ns / tuples / 1e3 if cli_ns else 0.0, "us"),
        "cli.hypothesis_pass_frac": (c["cli.hypothesis_pass"] / c["cli.tuples"] if c["cli.tuples"] else 0.0, "ratio"),
        "cli.pool.first_line_ms": (pool_first_line_ms, "ms"),
        "cli.pool.efficiency": (pool_efficiency, "ratio"),
        "trace.overhead_frac": ((traced.wall_ns - plain.wall_ns) / plain.wall_ns, "ratio"),
    }
    layer_ns = sum(ns for name, ns in s["ns"].items() if name != BOOKKEEPING)
    notes.append(f"traced wall_s={traced.wall_ns / 1e9:.3f} untraced wall_s={plain.wall_ns / 1e9:.3f} "
                 f"spans={len(tracer.spans)} layer self-time sum / traced wall={layer_ns / traced.wall_ns:.4f} "
                 f"bookkeeping / traced wall={s['ns'][BOOKKEEPING] / traced.wall_ns:.4f}")
    path = SPANS_DIR / f"spans_{workload.name}_seed{seed}.tsv.gz"
    tracer.write(path)
    notes.append(f"spans written to {path.relative_to(BENCH.parent)}")
    return RunResult(gk.correct, gk.attempted, gk.failed, metrics, notes)


def pin() -> None:
    """Write digests.json from the program as it is. Only for a deliberate
    output change, which CHANGES.md must record."""
    pinned = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        inputs, _ = setup_runs(workload, workload.lattice, 0, 1)
        p = workload.run_pass(inputs, None, None)
        if p.failed:
            raise SystemExit(f"{name}: {len(p.failed)} tuples fail; refusing to pin")
        pinned[name] = pinned_entry(workload, inputs, p)
        print(f"pinned {name}: {len(p.records)} tuples, {len(pinned[name]['cells'])} cells")
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite digests.json from the current program")
    args = parser.parse_args(argv)
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in result.notes:
        print(f"# {note}")
    for metric, (value, unit) in result.metrics.items():
        print(f"{metric:44s} {value:>16.6f} {unit}")
    print(result.to_json())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
