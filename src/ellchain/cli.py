"""Command line entry point: single-tuple analysis, lattice sweeps, canonical
skeleton dumps, and re-verification of dumped skeletons.

Commands:
  check G R D K      classify, construct, verify and audit one tuple
  sweep              stream one verdict line per lattice tuple
  dump G R D K       write the canonical JSON skeleton to a file
  verify-file PATH   re-verify a dumped skeleton

Exit codes: 0 all checks pass; 1 verification or audit failure; 2 hypothesis
failure or the k <= r regime.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Iterable, Iterator

from .construct import construct
from .errors import EngineError, HypothesisFailed, KLERegime, ParameterError
from .ledger import AuditResult, audit_equals_rho
from .oracle import CrossValidation, cross_validate
from .params import Case, Classification, Params, brill_noether_rho, classify
from .skeleton import (
    LimitSeriesSkeleton,
    canonical_dumps,
    skeleton_from_json_dict,
    skeleton_to_canonical_json,
    skeleton_to_json_dict,
)
from .verify import VerificationReport, verify

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_HYPOTHESIS = 2


@dataclass(frozen=True)
class Analysis:
    params: Params
    status: str  # "pass" | "verify_fail" | "audit_fail" | "oracle_disagree" | "k_le_r" | "hypothesis_failed"
    detail: str = ""
    classification: Classification | None = None
    rho: int | None = None
    skeleton: LimitSeriesSkeleton | None = None
    report: VerificationReport | None = None
    audit: AuditResult | None = None
    cross: CrossValidation | None = None

    @property
    def exit_code(self) -> int:
        if self.status in ("k_le_r", "hypothesis_failed"):
            return EXIT_HYPOTHESIS
        if self.status == "pass":
            return EXIT_OK
        return EXIT_VERIFICATION_FAILED


def analyze(g: int, r: int, d: int, k: int, *, oracle: bool = False) -> Analysis:
    """Full pipeline on one tuple; never raises for regime failures."""
    p = Params(g=g, r=r, d=d, k=k)
    try:
        classification = classify(p)
    except KLERegime as exc:
        return Analysis(params=p, status="k_le_r", detail=str(exc), rho=brill_noether_rho(p))
    except HypothesisFailed as exc:
        return Analysis(params=p, status="hypothesis_failed", detail=str(exc), rho=brill_noether_rho(p))
    skeleton = construct(p)
    report = verify(skeleton)
    audit = audit_equals_rho(skeleton)
    cross = cross_validate(skeleton) if oracle else None
    if not report.overall:
        status, detail = "verify_fail", "verification failed"
    elif not audit.ok:
        status, detail = "audit_fail", f"ledger total {audit.total} != rho {audit.rho}"
    elif cross is not None and not cross.ok:
        status, detail = "oracle_disagree", "greedy/oracle disagreement"
    else:
        status, detail = "pass", ""
    return Analysis(
        params=p, status=status, detail=detail, classification=classification,
        rho=audit.rho, skeleton=skeleton, report=report, audit=audit, cross=cross,
    )


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Inclusive bounds for the lattice. k and d default to the tuple-relative
    ranges (r, 3r] and [0, 5rg] when not given explicitly."""

    g: tuple[int, int]
    r: tuple[int, int]
    k: tuple[int, int] | None = None
    d: tuple[int, int] | None = None
    cases: frozenset[Case] | None = None
    fmt: str = "text"
    jobs: int = 1
    fail_fast: bool = False

    def __post_init__(self) -> None:
        for name in ("g", "r"):
            bounds = getattr(self, name)
            if bounds[0] > bounds[1]:
                raise ParameterError(f"empty {name} range {bounds}")
        if self.fmt not in ("text", "json"):
            raise ParameterError(f"format must be text or json, got {self.fmt!r}")
        if self.jobs < 1:
            raise ParameterError("jobs must be >= 1")


def iter_tuples(cfg: SweepConfig) -> Iterator[tuple[int, int, int, int]]:
    """Lattice order: (g, r, d, k) ascending."""
    for g in range(cfg.g[0], cfg.g[1] + 1):
        for r in range(cfg.r[0], cfg.r[1] + 1):
            if cfg.d is None:
                d_lo, d_hi = 0, 5 * r * g
            else:
                d_lo, d_hi = cfg.d
            if cfg.k is None:
                k_lo, k_hi = r + 1, 3 * r
            else:
                k_lo, k_hi = cfg.k
            for d in range(d_lo, d_hi + 1):
                for k in range(k_lo, k_hi + 1):
                    yield g, r, d, k


def selected_tuples(cfg: SweepConfig) -> Iterator[tuple[int, int, int, int]]:
    """Lattice tuples in order, keeping only those whose case `cfg.cases`
    selects. Classifying is cheap next to construct, verify and audit, and
    tuples that fail their hypotheses carry no case, so the filter runs
    before any of those."""
    tuples = iter_tuples(cfg)
    if cfg.cases is None:
        return tuples
    return (t for t in tuples if _case_of(t) in cfg.cases)


def _case_of(t: tuple[int, int, int, int]) -> Case | None:
    try:
        return classify(Params(*t)).case
    except (KLERegime, HypothesisFailed):
        return None


def evaluate_tuple(args: tuple[int, int, int, int]) -> tuple[tuple[int, int, int, int], str, str, int]:
    """One sweep cell: ((g,r,d,k), status, case or '-', rho)."""
    g, r, d, k = args
    result = analyze(g, r, d, k)
    case = result.classification.case.value if result.classification else "-"
    return args, result.status, case, result.rho if result.rho is not None else 0


@dataclass
class SweepSummary:
    tried: int = 0
    hypothesis_ok: int = 0
    constructed: int = 0
    verified: int = 0
    ledger_ok: int = 0
    failures: list[tuple[int, int, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_sweep(
    cfg: SweepConfig,
    emit: Callable[[str], None] | None = None,
    corrupt: Callable[[tuple[int, int, int, int], str], str] | None = None,
) -> SweepSummary:
    """Stream per-tuple verdicts in lattice order and return the aggregate.

    `corrupt` is a test hook mapping (tuple, status) -> status, applied before
    aggregation to the tuples `cfg.cases` selects; it requires jobs=1.
    """
    emit = emit or (lambda line: print(line))
    summary = SweepSummary()
    if corrupt is not None and cfg.jobs != 1:
        raise ParameterError("the corrupt hook requires jobs=1")

    def results() -> Iterable[tuple[tuple[int, int, int, int], str, str, int]]:
        tuples = selected_tuples(cfg)
        if cfg.jobs == 1:
            for item in tuples:
                yield evaluate_tuple(item)
        else:
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                yield from pool.map(evaluate_tuple, tuples, chunksize=256)

    for (g, r, d, k), status, case, rho in results():
        if corrupt is not None:
            status = corrupt((g, r, d, k), status)
        summary.tried += 1
        constructed = status in ("pass", "verify_fail", "audit_fail")
        if constructed:
            summary.hypothesis_ok += 1
            summary.constructed += 1
            if status != "verify_fail":
                summary.verified += 1
            if status != "audit_fail":
                summary.ledger_ok += 1
            if status != "pass":
                summary.failures.append((g, r, d, k))
        if cfg.fmt == "json":
            emit(canonical_dumps({"g": g, "r": r, "d": d, "k": k, "case": case, "rho": rho, "status": status}))
        else:
            emit(f"g={g} r={r} d={d} k={k} case={case} rho={rho} status={status}")
        if cfg.fail_fast and summary.failures:
            break
    return summary


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _render_check_text(analysis: Analysis) -> str:
    p = analysis.params
    lines = [f"tuple: g={p.g} r={p.r} d={p.d} k={p.k}", f"rho: {analysis.rho}"]
    if analysis.status in ("k_le_r", "hypothesis_failed"):
        lines.append(f"rejected: {analysis.detail}")
        return "\n".join(lines)
    assert analysis.classification and analysis.skeleton and analysis.report and analysis.audit
    lines.append(f"case: {analysis.classification.case.value}")
    for check in analysis.classification.checks:
        lines.append(f"hypothesis {check.describe()} (slack {check.slack})")
    s = analysis.skeleton
    lines.append(f"skeleton: {s.chain.components} components, b={s.b}, degrees "
                 f"{[b.degree for b in s.bundles]}")
    for name, entry in analysis.report.checks:
        lines.append(f"verify {name}: {entry.status}")
    lines.append(f"node pairing exact: {analysis.report.all_nodes_exact}")
    if analysis.cross is not None:
        if analysis.cross.skipped:
            lines.append(f"oracle cross-validation: skipped ({'; '.join(analysis.cross.skipped)})")
        else:
            lines.append(f"oracle cross-validation: {'agree' if analysis.cross.ok else 'DISAGREE'}")
    lines.append("ledger:")
    lines.extend("  " + row for row in analysis.audit.ledger.to_text().splitlines())
    lines.append(f"audit: total {analysis.audit.total} == rho {analysis.audit.rho}: "
                 f"{'ok' if analysis.audit.ok else 'MISMATCH'}")
    lines.append(f"overall: {analysis.status}")
    for note in s.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _render_check_json(analysis: Analysis) -> str:
    p = analysis.params
    doc: dict[str, Any] = {
        "params": {"g": p.g, "r": p.r, "d": p.d, "k": p.k},
        "rho": analysis.rho,
        "status": analysis.status,
        "detail": analysis.detail,
    }
    if analysis.classification is not None:
        doc["case"] = analysis.classification.case.value
        doc["hypotheses"] = [
            {"name": c.name, "value": c.value, "min_pass": c.min_pass, "slack": c.slack,
             "satisfied": c.satisfied}
            for c in analysis.classification.checks
        ]
    if analysis.report is not None:
        doc["report"] = analysis.report.to_json_dict()
    if analysis.audit is not None:
        doc["audit"] = analysis.audit.to_json_dict()
    if analysis.skeleton is not None:
        doc["skeleton"] = skeleton_to_json_dict(analysis.skeleton)
    return canonical_dumps(doc)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    analysis = analyze(args.g, args.r, args.d, args.k, oracle=args.oracle)
    if args.format == "json":
        print(_render_check_json(analysis))
    else:
        print(_render_check_text(analysis))
    return analysis.exit_code


def cmd_sweep(args: argparse.Namespace) -> int:
    cases = None
    if args.case:
        cases = frozenset(Case(c) for c in args.case)
    cfg = SweepConfig(
        g=args.g, r=args.r, k=args.k, d=args.d, cases=cases,
        fmt=args.format, jobs=args.jobs, fail_fast=args.fail_fast,
    )
    summary = run_sweep(cfg)
    trailer = {
        "tried": summary.tried,
        "hypothesis_ok": summary.hypothesis_ok,
        "constructed": summary.constructed,
        "verified": summary.verified,
        "ledger_ok": summary.ledger_ok,
        "failures": len(summary.failures),
    }
    if args.format == "json":
        print(canonical_dumps({"summary": trailer}))
    else:
        print(
            "summary: tried={tried} hypothesis_ok={hypothesis_ok} "
            "constructed={constructed} verified={verified} "
            "ledger_ok={ledger_ok} failures={failures}".format(**trailer)
        )
    return EXIT_OK if summary.ok else EXIT_VERIFICATION_FAILED


def cmd_dump(args: argparse.Namespace) -> int:
    try:
        classify(Params(g=args.g, r=args.r, d=args.d, k=args.k))
    except (KLERegime, HypothesisFailed) as exc:
        print(f"rejected: {exc}")
        return EXIT_HYPOTHESIS
    skeleton = construct(Params(g=args.g, r=args.r, d=args.d, k=args.k))
    payload = skeleton_to_canonical_json(skeleton)
    if args.timestamps:
        payload = canonical_dumps(
            {
                "canonical": skeleton_to_json_dict(skeleton),
                "generated_at": datetime.now(timezone.utc).isoformat(),
            }
        )
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.write("\n")
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}")
        return EXIT_VERIFICATION_FAILED
    print(f"wrote {args.out}")
    return EXIT_OK


def load_skeleton_file(path: str) -> LimitSeriesSkeleton:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if isinstance(doc, dict) and "canonical" in doc and "schema" not in doc:
        doc = doc["canonical"]
    return skeleton_from_json_dict(doc)


def cmd_verify_file(args: argparse.Namespace) -> int:
    try:
        skeleton = load_skeleton_file(args.path)
    except (OSError, json.JSONDecodeError, ParameterError) as exc:
        print(f"cannot load {args.path}: {exc}")
        return EXIT_VERIFICATION_FAILED
    report = verify(skeleton)
    cross = cross_validate(skeleton) if args.oracle else None
    try:
        audit = audit_equals_rho(skeleton)
        audit_ok = audit.ok
        audit_line = f"audit: total {audit.total} == rho {audit.rho}: {'ok' if audit_ok else 'MISMATCH'}"
    except EngineError as exc:
        audit_ok = False
        audit_line = f"audit: cannot audit: {exc}"
    if args.format == "json":
        print(report.to_canonical_json())
        if not audit_ok:
            print(audit_line, file=sys.stderr)
    else:
        for name, entry in report.checks:
            print(f"verify {name}: {entry.status}")
        print(audit_line)
        print(f"overall: {'pass' if report.overall and audit_ok else 'fail'}")
    if cross is not None and not cross.ok:
        print("oracle cross-validation: DISAGREE")
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK if report.overall and audit_ok else EXIT_VERIFICATION_FAILED


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellchain",
        description="Construct, certify and dimension-audit limit-series skeletons "
        "on chains of elliptic components.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="analyze a single (g, r, d, k) tuple")
    for name in ("g", "r", "d", "k"):
        check.add_argument(name, type=int)
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--oracle", action="store_true", help="also cross-validate against the exhaustive oracle")
    check.set_defaults(func=cmd_check)

    sweep = sub.add_parser("sweep", help="evaluate a lattice of tuples")
    sweep.add_argument("--g", type=_parse_range, default=(2, 12), metavar="LO:HI")
    sweep.add_argument("--r", type=_parse_range, default=(1, 5), metavar="LO:HI")
    sweep.add_argument("--k", type=_parse_range, default=None, metavar="LO:HI",
                       help="absolute bounds; default (r, 3r] per rank")
    sweep.add_argument("--d", type=_parse_range, default=None, metavar="LO:HI",
                       help="absolute bounds; default [0, 5rg] per cell")
    sweep.add_argument("--case", action="append", choices=[c.value for c in Case])
    sweep.add_argument("--format", choices=("text", "json"), default="text")
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--fail-fast", action="store_true")
    sweep.set_defaults(func=cmd_sweep)

    dump = sub.add_parser("dump", help="write the canonical JSON skeleton")
    for name in ("g", "r", "d", "k"):
        dump.add_argument(name, type=int)
    dump.add_argument("--out", required=True)
    dump.add_argument("--timestamps", action="store_true",
                      help="wrap the canonical body with generation metadata")
    dump.set_defaults(func=cmd_dump)

    vf = sub.add_parser("verify-file", help="re-verify a dumped skeleton")
    vf.add_argument("path")
    vf.add_argument("--format", choices=("text", "json"), default="text")
    vf.add_argument("--oracle", action="store_true")
    vf.set_defaults(func=cmd_verify_file)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
