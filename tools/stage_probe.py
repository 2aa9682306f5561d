"""Per-stage cost of the engine: thread-time µs per skeleton, by case.

Method: every Nth (default 4th) constructible k <= 8 tuple of the
acceptance lattice g 2-12, r 1-5, in lattice order (the dump_reload_oracle
input; 4,602 skeletons at N = 4). Each stage runs over each case's
skeletons as one batch, timed by `time.thread_time_ns` with the garbage
collector paused (and run after), so a figure is the stage's own work, not
collections of what other stages keep alive; the best of R (default 5)
repetitions is kept. Each repetition verifies afresh, so report JSON is
written from a fresh report. `cross_validate` keeps its class verdicts for
the process, so after the first repetition it reads warm-table hits.
classify (with `Params`), construct, verify and audit are `cli.analyze`'s
stages; dump, json.loads, load, verify, report JSON and cross_validate are
`dump` then `verify-file --oracle --format json`. Stdlib only; run from a
checkout: python3 tools/stage_probe.py [--every N] [--repeat R]
"""

import argparse
import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellchain.cli import SweepConfig, iter_tuples  # noqa: E402
from ellchain.construct import construct  # noqa: E402
from ellchain.errors import HypothesisFailed, KLERegime  # noqa: E402
from ellchain.ledger import audit_equals_rho  # noqa: E402
from ellchain.oracle import cross_validate  # noqa: E402
from ellchain.params import Case, Params, classify  # noqa: E402
from ellchain.skeleton import skeleton_from_json_dict, skeleton_to_canonical_json  # noqa: E402
from ellchain.verify import VerificationReport, verify  # noqa: E402

STAGES = ("classify", "construct", "verify", "audit", "dump", "json.loads", "load", "report JSON", "cross_validate")


def probe(tuples: list[tuple[int, int, int, int]], repeat: int) -> dict[str, int]:
    """The best total thread time, in ns, of each stage over `tuples`."""
    best: dict[str, int] = {}

    def timed(stage: str, fn, inputs: list) -> list:  # type: ignore[no-untyped-def]
        gc.disable()
        start = time.thread_time_ns()
        out = [fn(x) for x in inputs]
        elapsed = time.thread_time_ns() - start
        gc.enable()
        gc.collect()
        best[stage] = min(best.get(stage, elapsed), elapsed)
        return out

    for _ in range(repeat):
        skeletons = timed("construct", construct, timed("classify", lambda t: classify(Params(*t)), tuples))
        reports = timed("verify", verify, skeletons)
        timed("audit", audit_equals_rho, skeletons)
        docs = timed("json.loads", json.loads, timed("dump", skeleton_to_canonical_json, skeletons))
        loaded = timed("load", skeleton_from_json_dict, docs)
        timed("report JSON", VerificationReport.to_canonical_json, reports)
        timed("cross_validate", cross_validate, loaded)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--every", type=int, default=4, help="keep every Nth tuple (default 4)")
    parser.add_argument("--repeat", type=int, default=5, help="repetitions, the best kept (default 5)")
    args = parser.parse_args()
    constructible = []
    for t in (t for t in iter_tuples(SweepConfig(g=(2, 12), r=(1, 5))) if t[3] <= 8):
        try:
            constructible.append((t, classify(Params(*t)).case))
        except (KLERegime, HypothesisFailed):
            pass
    by_case: dict[Case, list] = {}
    for t, case in constructible[:: args.every]:
        by_case.setdefault(case, []).append(t)
    cases = [case for case in Case if case in by_case]
    best = {case: probe(by_case[case], args.repeat) for case in cases}
    count = sum(map(len, by_case.values()))
    print(f"# {count} skeletons (every {args.every}th), thread time, best of {args.repeat}, µs per skeleton")
    print(f"{'stage':<15}" + "".join(f"{case.value:>16}" for case in cases) + f"{'all':>10}")
    for stage in STAGES:
        cells = "".join(f"{best[case][stage] / 1e3 / len(by_case[case]):>16.1f}" for case in cases)
        print(f"{stage:<15}{cells}{sum(best[case][stage] for case in cases) / 1e3 / count:>10.1f}")


if __name__ == "__main__":
    main()
