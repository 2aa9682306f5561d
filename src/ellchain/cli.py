"""Command line entry point: single-tuple analysis, lattice sweeps, canonical
skeleton dumps, and re-verification of dumped skeletons.

Commands:
  check G R D K      classify, construct, verify and audit one tuple
  sweep              stream one verdict line per lattice tuple
  dump G R D K       write the canonical JSON skeleton to a file
  verify-file PATH   re-verify a dumped skeleton

One analysis path: `check` and `sweep` build a skeleton, `verify-file` loads
one, and all three take its verdict from `analyze_skeleton`.

Exit codes: 0 all checks pass; 1 verification or audit failure; 2 hypothesis
failure or the k <= r regime.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Iterable, Iterator

from .construct import construct
from .errors import EngineError, HypothesisFailed, KLERegime, ParameterError
from .ledger import AuditResult, audit_equals_rho
from .oracle import CrossValidation, cross_validate
from .params import Case, Params, classify, rho_value
from .skeleton import (
    LimitSeriesSkeleton,
    canonical_dumps,
    skeleton_from_json_dict,
    skeleton_to_json_dict,
)
from .verify import VerificationReport, verify

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_HYPOTHESIS = 2


@dataclass(slots=True)
class Analysis:
    params: Params
    status: str  # "pass" | "verify_fail" | "audit_fail" | "oracle_disagree" | "k_le_r" | "hypothesis_failed"
    detail: str = ""
    classification: Params | None = None
    skeleton: LimitSeriesSkeleton | None = None
    report: VerificationReport | None = None
    audit: AuditResult | None = None
    cross: CrossValidation | None = None

    @property
    def rho(self) -> int:
        p = self.params
        return rho_value(p.g, p.r, p.d, p.k)

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
        return Analysis(params=p, status="k_le_r", detail=str(exc))
    except HypothesisFailed as exc:
        return Analysis(params=p, status="hypothesis_failed", detail=str(exc))
    analysis = analyze_skeleton(construct(p), oracle=oracle)
    analysis.classification = classification
    return analysis


def analyze_skeleton(skeleton: LimitSeriesSkeleton, *, oracle: bool = False) -> Analysis:
    """Verify, audit and optionally cross-validate a built or loaded skeleton.
    Its status is verify_fail, else audit_fail, else oracle_disagree, else
    pass."""
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
    return Analysis(params=skeleton.params, status=status, detail=detail, skeleton=skeleton, report=report,
                    audit=audit, cross=cross)


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
        for name in ("g", "r", "k", "d"):
            bounds = getattr(self, name)
            if bounds is not None and bounds[0] > bounds[1]:
                raise ParameterError(f"empty {name} range {bounds}")
        if self.g[0] < 2 or self.r[0] < 1:
            Params(g=self.g[0], r=self.r[0], d=0, k=1)  # raises the lowest tuple's genus or rank error
        if self.fmt not in ("text", "json"):
            raise ParameterError(f"format must be text or json, got {self.fmt!r}")
        if self.jobs < 1:
            raise ParameterError("jobs must be >= 1")


def iter_tuples(cfg: SweepConfig) -> Iterator[tuple[int, int, int, int]]:
    """Lattice order: (g, r, d, k) ascending."""
    for g in range(cfg.g[0], cfg.g[1] + 1):
        for r in range(cfg.r[0], cfg.r[1] + 1):
            d_lo, d_hi = cfg.d or (0, 5 * r * g)
            k_lo, k_hi = cfg.k or (r + 1, 3 * r)
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
    return args, result.status, case, result.rho


@dataclass
class SweepSummary:
    tried: int = 0
    constructed: int = 0
    verified: int = 0
    ledger_ok: int = 0
    failures: list[tuple[int, int, int, int]] = field(default_factory=list)

    @property
    def hypothesis_ok(self) -> int:
        """Tuples whose hypotheses pass; every one of them is constructed."""
        return self.constructed

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
            # Imported here, not at every command's start-up. The pool forks all its
            # workers on the first submit, so it gets no more than the CPUs.
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=min(cfg.jobs, os.cpu_count() or 1)) as pool:
                yield from pool.map(evaluate_tuple, tuples, chunksize=256)

    for (g, r, d, k), status, case, rho in results():
        if corrupt is not None:
            status = corrupt((g, r, d, k), status)
        summary.tried += 1
        if status in ("pass", "verify_fail", "audit_fail"):
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


def _oracle_line(cross: CrossValidation) -> str:
    """The one-line oracle verdict `check` and `verify-file` print. Skipped
    instances are named, since they were not cross-validated."""
    verdict = "agree" if cross.ok else "DISAGREE"
    if not cross.skipped:
        return f"oracle cross-validation: {verdict}"
    skipped = f"skipped ({'; '.join(cross.skipped)})"
    return f"oracle cross-validation: {f'{verdict}, ' if cross.checks else ''}{skipped}"


def _audit_line(audit: AuditResult) -> str:
    """The audit verdict `check` and `verify-file` print."""
    relation, verdict = ("==", "ok") if audit.ok else ("!=", "MISMATCH")
    return f"audit: total {audit.total} {relation} rho {audit.rho}: {verdict}"


def _render_check_text(analysis: Analysis) -> str:
    p = analysis.params
    lines = [f"tuple: g={p.g} r={p.r} d={p.d} k={p.k}", f"rho: {analysis.rho}"]
    if analysis.status in ("k_le_r", "hypothesis_failed"):
        lines.append(f"rejected: {analysis.detail}")
        return "\n".join(lines)
    assert analysis.classification and analysis.skeleton and analysis.report and analysis.audit
    lines.append(f"case: {analysis.classification.case.value}")
    for check in analysis.classification.hypotheses:
        lines.append(f"hypothesis {check.describe()} (slack {check.slack})")
    s = analysis.skeleton
    lines.append(f"skeleton: {s.params.g} components, b={s.b}, degrees "
                 f"{[b.degree for b in s.bundles]}")
    for name, entry in analysis.report.checks.items():
        lines.append(f"verify {name}: {entry.status}")
    lines.append(f"node pairing exact: {analysis.report.all_nodes_exact}")
    if analysis.cross is not None:
        lines.append(_oracle_line(analysis.cross))
    lines.append("ledger:")
    lines.extend("  " + row for row in analysis.audit.ledger.to_text().splitlines())
    lines.append(_audit_line(analysis.audit))
    lines.append(f"overall: {analysis.status}")
    for note in s.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _render_check_json(analysis: Analysis) -> str:
    doc: dict[str, Any] = {
        "params": analysis.params.to_json_dict(),
        "rho": analysis.rho,
        "status": analysis.status,
        "detail": analysis.detail,
    }
    if analysis.classification is not None:
        doc["case"] = analysis.classification.case.value
        doc["hypotheses"] = [
            {"name": c.name, "value": c.value, "min_pass": c.min_pass, "slack": c.slack,
             "satisfied": c.satisfied}
            for c in analysis.classification.hypotheses
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
        if analysis.cross is not None:  # stdout carries the analysis alone, as in verify-file
            print(_oracle_line(analysis.cross), file=sys.stderr)
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
    trailer = {"tried": summary.tried, "hypothesis_ok": summary.hypothesis_ok, "constructed": summary.constructed,
               "verified": summary.verified, "ledger_ok": summary.ledger_ok, "failures": len(summary.failures)}
    if args.format == "json":
        print(canonical_dumps({"summary": trailer}))
    else:
        print("summary: " + " ".join(f"{key}={value}" for key, value in trailer.items()))
    return EXIT_OK if summary.ok else EXIT_VERIFICATION_FAILED


def cmd_dump(args: argparse.Namespace) -> int:
    try:
        skeleton = construct(Params(g=args.g, r=args.r, d=args.d, k=args.k))
    except (KLERegime, HypothesisFailed) as exc:
        print(f"rejected: {exc}")
        return EXIT_HYPOTHESIS
    doc = skeleton_to_json_dict(skeleton)
    if args.timestamps:
        doc = {"canonical": doc, "generated_at": datetime.now(timezone.utc).isoformat()}
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(canonical_dumps(doc) + "\n")
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}")
        return EXIT_VERIFICATION_FAILED
    print(f"wrote {args.out}")
    return EXIT_OK


def load_skeleton_file(path: str) -> LimitSeriesSkeleton:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if isinstance(doc, dict) and "canonical" in doc and "schema" not in doc:
        # A `dump --timestamps` wrapper: its keys and its time are checked too.
        odd = sorted(doc.keys() ^ {"canonical", "generated_at"})
        if odd:
            raise ParameterError(f"{odd[0]}: {'unexpected' if odd[0] in doc else 'missing'} key in a timestamped dump")
        try:
            datetime.fromisoformat(doc["generated_at"])
        except (TypeError, ValueError):
            raise ParameterError(f"generated_at: expected an ISO 8601 time, got {doc['generated_at']!r}") from None
        doc = doc["canonical"]
    return skeleton_from_json_dict(doc)


def cmd_verify_file(args: argparse.Namespace) -> int:
    try:
        skeleton = load_skeleton_file(args.path)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"cannot load {args.path}: {exc}", file=sys.stderr if args.format == "json" else sys.stdout)
        return EXIT_VERIFICATION_FAILED
    analysis = analyze_skeleton(skeleton, oracle=args.oracle)
    if args.format == "json":
        # stdout carries the report alone; the other lines go to stderr
        print(analysis.report.to_canonical_json())
        if analysis.cross is not None:
            print(_oracle_line(analysis.cross), file=sys.stderr)
        if not analysis.audit.ok:
            print(_audit_line(analysis.audit), file=sys.stderr)
    else:
        for name, entry in analysis.report.checks.items():
            print(f"verify {name}: {entry.status}")
        if analysis.cross is not None:
            print(_oracle_line(analysis.cross))
        print(_audit_line(analysis.audit))
        print(f"overall: {'pass' if analysis.status == 'pass' else 'fail'}")
    return analysis.exit_code


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":") if ":" in text else (text, text)
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO:HI, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    # Arguments shared by several commands, each stated once as a parent parser.
    tuple_args = argparse.ArgumentParser(add_help=False)
    for name in ("g", "r", "d", "k"):
        tuple_args.add_argument(name, type=int)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument("--oracle", action="store_true", help="also cross-validate against the max-flow oracle")

    parser = argparse.ArgumentParser(
        prog="ellchain",
        description="Construct, certify and dimension-audit limit-series skeletons "
        "on chains of elliptic components.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", parents=[tuple_args, fmt, oracle], help="analyze a single (g, r, d, k) tuple")
    check.set_defaults(func=cmd_check)

    # The lattice bounds are a parent too, so `--format` keeps its place after them.
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument("--g", type=_parse_range, default=(2, 12), metavar="LO:HI")
    lattice.add_argument("--r", type=_parse_range, default=(1, 5), metavar="LO:HI")
    lattice.add_argument("--k", type=_parse_range, default=None, metavar="LO:HI",
                         help="absolute bounds; default (r, 3r] per rank")
    lattice.add_argument("--d", type=_parse_range, default=None, metavar="LO:HI",
                         help="absolute bounds; default [0, 5rg] per cell")
    lattice.add_argument("--case", action="append", choices=[c.value for c in Case])
    sweep = sub.add_parser("sweep", parents=[lattice, fmt], help="evaluate a lattice of tuples")
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--fail-fast", action="store_true")
    sweep.set_defaults(func=cmd_sweep)

    dump = sub.add_parser("dump", parents=[tuple_args], help="write the canonical JSON skeleton")
    dump.add_argument("--out", required=True)
    dump.add_argument("--timestamps", action="store_true",
                      help="wrap the canonical body with generation metadata")
    dump.set_defaults(func=cmd_dump)

    vf = sub.add_parser("verify-file", parents=[fmt, oracle], help="re-verify a dumped skeleton")
    vf.add_argument("path")
    vf.set_defaults(func=cmd_verify_file)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Join `--g -2:-1` into `--g=-2:-1`, or argparse reads the negative range as an option.
    joined: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in ("--g", "--r", "--k", "--d") and arg[:1] == "-" and arg[1:2].isdigit():
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    args = build_parser().parse_args(joined)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except BrokenPipeError:
        # The reader went away (`| head`): point stdout at devnull so the
        # interpreter's last flush stays silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
