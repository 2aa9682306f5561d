"""Dimension bookkeeping: per-component moduli, automorphism and gluing
counts whose signed total must equal the Brill-Noether number.

Every term is read off the constructed skeleton, so the audit certifies
the data the engine emits rather than a parallel formula. Per component:

* a first_special bundle with h blocks gives moduli h and autos h;
* m copies of one twisted line give moduli 0 and autos m^2;
* m generic lines give moduli m and autos m;
* the gluing term is the dimension of the node entering the component,
  which the skeleton derives from the bundles that node joins (the first
  component has no such node).

In the small cases, rows group the components of one part of
`params.layout` (first component, line chain, block heads, ...), the
parts the recipes fill; a row whose components disagree is split into one
row per component, so a mismatch localizes to a single term.
The closing +1 accounts for the one-dimensional automorphism family of the
glued stable bundle.

For the regime with surplus sections the rows are global instead: the
stable bundle family is the signed sum of the per-component terms, and the
Grassmannian choice is k(h0-k), where h0 is component 1's degree minus r
times its lowest order at Q1; plus one.

A bundle carries its (moduli, autos) terms, derived once when it is built;
the skeleton's records are frozen because such derived summaries are right
only while their fields cannot change. LedgerRow, DimensionLedger and
AuditResult are result records, built once per audit and handed to the
caller, so they are plain slotted dataclasses. The ledger holds the
skeleton's params and the audit holds only its ledger and rho, so the case
and the total are each read from one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

from .params import Case, Params, classify, layout, rho_value
from .skeleton import LimitSeriesSkeleton


@dataclass(slots=True)
class LedgerRow:
    label: str
    components: tuple[int, ...] | None  # None for global (whole-chain) rows
    count: int
    moduli: int
    autos: int
    gluing: int

    @property
    def net(self) -> int:
        return self.count * (self.moduli - self.autos + self.gluing)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "components": list(self.components) if self.components is not None else None,
            "count": self.count,
            "moduli": self.moduli,
            "autos": self.autos,
            "gluing": self.gluing,
            "net": self.net,
        }


@dataclass(slots=True)
class DimensionLedger:
    params: Params
    rows: tuple[LedgerRow, ...]
    closing: ClassVar[int] = 1

    @property
    def total(self) -> int:
        return sum(row.net for row in self.rows) + self.closing

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "case": self.params.case.value,
            "rows": [row.to_json_dict() for row in self.rows],
            "closing": self.closing,
            "total": self.total,
        }

    def to_text(self) -> str:
        headers = ("row", "components", "count", "moduli", "autos", "gluing", "net")
        body = []
        for row in self.rows:
            comps = "-" if row.components is None else _compact_indices(row.components)
            body.append(
                (row.label, comps, str(row.count), str(row.moduli), str(row.autos), str(row.gluing), str(row.net))
            )
        body.append(("stable_bundle_autos", "-", "1", "1", "0", "0", str(self.closing)))
        widths = [max(len(headers[i]), *(len(r[i]) for r in body)) for i in range(len(headers))]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        for r in body:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
        lines.append(f"total = {self.total}")
        return "\n".join(lines)


def _compact_indices(indices: tuple[int, ...]) -> str:
    """Ascending, non-empty indices as runs: (3, 4, 5, 7) -> "3-5,7"."""
    parts = []
    start = prev = indices[0]
    for i in indices[1:]:
        if i == prev + 1:
            prev = i
            continue
        parts.append(f"{start}" if start == prev else f"{start}-{prev}")
        start = prev = i
    parts.append(f"{start}" if start == prev else f"{start}-{prev}")
    return ",".join(parts)


def ledger(s: LimitSeriesSkeleton) -> DimensionLedger:
    """The termwise dimension count of a skeleton whose hypotheses pass.

    The large_sections audit compares only the total: its rows are r^2(g-1)
    and k(d-r(g-1)-k) on every constructed skeleton, but nothing checks
    them, so a loaded document whose rows compensate passes (at (2,1,3,2),
    twists 0 and 3 with Q1 = {0, 3} give rows -1 and 2, total 2 = rho).
    """
    p = s.params
    classify(p)
    case, r = p.case, p.r

    # (moduli, autos, gluing) per component; each bundle carries its terms.
    terms = [(bundle.moduli, bundle.autos, s.gluing_dims[i - 1] if i else 0) for i, bundle in enumerate(s.bundles)]

    if case is Case.LARGE_SECTIONS:
        h0 = s.bundles[0].degree - r * s.tables[0].at_q[0][0]
        rows = (
            LedgerRow(
                label="stable_bundle_family", components=None, count=1,
                moduli=sum(m - a + gl for m, a, gl in terms), autos=0, gluing=0,
            ),
            LedgerRow(
                label="section_space_grassmannian", components=None, count=1,
                moduli=p.k * (h0 - p.k), autos=0, gluing=0,
            ),
        )
        return DimensionLedger(p, rows)

    out: list[LedgerRow] = []
    for label, components in layout(p).items():
        group = [terms[c - 1] for c in components]
        if not group:
            continue
        if group.count(group[0]) == len(group):
            out.append(LedgerRow(label, tuple(components), len(group), *group[0]))
        else:
            out.extend(LedgerRow(f"{label}[C{c}]", (c,), 1, *term) for c, term in zip(components, group))
    return DimensionLedger(p, tuple(out))


@dataclass(slots=True)
class AuditResult:
    ledger: DimensionLedger
    rho: int

    @property
    def total(self) -> int:
        return self.ledger.total

    @property
    def ok(self) -> bool:
        return self.rho == self.total

    def to_json_dict(self) -> dict[str, Any]:
        p = self.ledger.params
        return {
            "params": p.to_json_dict(),
            "case": p.case.value,
            "rho": self.rho,
            "total": self.total,
            "ok": self.ok,
            "ledger": self.ledger.to_json_dict(),
        }


def audit_equals_rho(s: LimitSeriesSkeleton) -> AuditResult:
    """Exact comparison of the skeleton's ledger total against the
    Brill-Noether number.

    A mismatch is a hard failure; the termwise ledger is the witness.
    """
    p = s.params
    return AuditResult(ledger(s), rho_value(p.g, p.r, p.d, p.k))
