"""Combinatorial data model: chains of elliptic components, bundle summand
lists, vanishing tables, gluing tags, and the assembled skeleton.

Points P_i, Q_i are symbolic; "generic" is a tag, not a witness. A vanishing
table stores order -> multiplicity maps at both marked points of a component;
multiplicities at each point always sum to k. Skeletons serialize to a
canonical JSON document (schema 1, sorted keys, no floats) used by the CLI
and the test fixtures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .errors import MultiplicityMismatch, ParameterError
from .params import Case, Decomposition, Params, decompose


@dataclass(frozen=True)
class ChainCurve:
    """A linear chain of `components` elliptic curves.

    Node i identifies the point Q_i on component i with P_{i+1} on component
    i+1, for i = 1 .. components-1.
    """

    components: int

    def __post_init__(self) -> None:
        if self.components < 2:
            raise ParameterError(f"a chain needs >= 2 components, got {self.components}")

    @property
    def node_count(self) -> int:
        return self.components - 1

    @property
    def nodes(self) -> tuple[tuple[str, str], ...]:
        return tuple((f"Q{i}", f"P{i + 1}") for i in range(1, self.components))


def build_chain(g: int) -> ChainCurve:
    return ChainCurve(components=g)


@dataclass(frozen=True)
class Summand:
    """A direct summand of a component bundle.

    twist = a means `mult` copies of the line bundle O(a*P + (d1-a)*Q) on the
    component; twist = None means `mult` generic line bundles of degree d1.
    """

    mult: int
    twist: int | None = None

    @property
    def kind(self) -> str:
        return "generic_line" if self.twist is None else "twisted"


@dataclass(frozen=True)
class ComponentBundle:
    """Bundle placed on one component.

    kind "first_special": h generic indecomposable factors of rank rbar and
    degree dbar (only ever on the first component; degree d). kind "mixed":
    a list of rank-1 summands totalling rank r (degree r*d1).
    """

    component: int
    kind: str  # "first_special" | "mixed"
    degree: int
    blocks: int | None = None        # first_special: h
    block_rank: int | None = None    # first_special: rbar
    block_degree: int | None = None  # first_special: dbar
    summands: tuple[Summand, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("first_special", "mixed"):
            raise ParameterError(f"unknown bundle kind {self.kind!r}")
        if self.kind == "first_special" and not (self.blocks and self.block_rank):
            raise ParameterError("first_special bundle needs blocks and block_rank")

    @property
    def rank(self) -> int:
        if self.kind == "first_special":
            return self.blocks * self.block_rank  # type: ignore[operator]
        return sum(s.mult for s in self.summands)

    def twist_multiplicity(self, a: int) -> int:
        """Copies of O(a*P + (d1-a)*Q) among the summands (mixed only)."""
        return sum(s.mult for s in self.summands if s.twist == a)


@dataclass(frozen=True)
class VanishingTable:
    """Vanishing multisets of the section space at P_i and at Q_i.

    Stored as (order, multiplicity) runs with strictly ascending distinct
    orders and positive multiplicities; the verifier's run merge relies on
    this, and the JSON loader rejects a side that breaks it.
    """

    component: int
    at_p: tuple[tuple[int, int], ...]
    at_q: tuple[tuple[int, int], ...]

    @classmethod
    def from_maps(cls, component: int, at_p: Mapping[int, int], at_q: Mapping[int, int]) -> "VanishingTable":
        return cls(
            component=component,
            at_p=tuple(sorted((int(o), int(m)) for o, m in at_p.items() if m)),
            at_q=tuple(sorted((int(o), int(m)) for o, m in at_q.items() if m)),
        )

    def p_map(self) -> dict[int, int]:
        return dict(self.at_p)

    def q_map(self) -> dict[int, int]:
        return dict(self.at_q)

    @property
    def total_p(self) -> int:
        return sum(m for _, m in self.at_p)

    @property
    def total_q(self) -> int:
        return sum(m for _, m in self.at_q)


def expand_ascending(runs: Iterable[tuple[int, int]]) -> list[int]:
    """Flatten (order, multiplicity) runs into an ascending list of orders,
    one entry per section. The verifier never expands; this is the
    per-section reference its run merge is tested against."""
    out: list[int] = []
    for order, mult in sorted(runs):
        out.extend([order] * mult)
    return out


def expand_descending(runs: Iterable[tuple[int, int]]) -> list[int]:
    return expand_ascending(runs)[::-1]


def minimal_boundary_table(r: int, k1: int, k2: int) -> dict[int, int]:
    """Smallest possible vanishing multiset of a k-dimensional space:
    orders 0..k1-1 with multiplicity r, then k1 with multiplicity k2."""
    table = {j: r for j in range(k1)}
    if k2:
        table[k1] = k2
    return table


@dataclass(frozen=True)
class GluingSpec:
    """Gluing family at one node: a tag, its parameter dimension, and for
    constrained gluings a short identifier of which blocks are linked."""

    node: int
    tag: str  # "generic" | "constrained"
    parameter_dim: int
    description: str | None = None

    def __post_init__(self) -> None:
        if self.tag not in ("generic", "constrained"):
            raise ParameterError(f"unknown gluing tag {self.tag!r}")
        if self.parameter_dim < 0:
            raise ParameterError(f"gluing dimension must be >= 0, got {self.parameter_dim}")


@dataclass(frozen=True)
class LimitSeriesSkeleton:
    """The whole chain: per-component bundles and tables, per-node gluings,
    the twist parameter b, and the case tag the recipe came from."""

    params: Params
    case: Case
    b: int
    chain: ChainCurve
    bundles: tuple[ComponentBundle, ...]
    tables: tuple[VanishingTable, ...]
    gluings: tuple[GluingSpec, ...]
    notes: tuple[str, ...] = ()
    decomposition: Decomposition = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "decomposition", decompose(self.params))
        g = self.params.g
        if self.chain.components != g or len(self.bundles) != g or len(self.tables) != g:
            raise ParameterError("skeleton component counts disagree with g")
        if len(self.gluings) != g - 1:
            raise ParameterError("skeleton needs exactly g-1 gluings")

    def bundle(self, i: int) -> ComponentBundle:
        return self.bundles[i - 1]

    def table(self, i: int) -> VanishingTable:
        return self.tables[i - 1]

    def gluing(self, node: int) -> GluingSpec:
        return self.gluings[node - 1]


def degree_balance(s: LimitSeriesSkeleton) -> int:
    """Residual of the degree-balance identity sum(D_i) - r(g-1)b - d.

    Zero exactly when the skeleton satisfies the balance condition.
    """
    total = sum(b.degree for b in s.bundles)
    return total - s.params.r * (s.params.g - 1) * s.b - s.params.d


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN, UTF-8."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def _summand_to_json(s: Summand) -> dict[str, Any]:
    doc: dict[str, Any] = {"kind": s.kind, "mult": s.mult}
    if s.twist is not None:
        doc["a"] = s.twist
    return doc


def _bundle_to_json(b: ComponentBundle) -> dict[str, Any]:
    doc: dict[str, Any] = {"component": b.component, "kind": b.kind, "degree": b.degree}
    if b.kind == "first_special":
        doc["blocks"] = b.blocks
        doc["block_rank"] = b.block_rank
        doc["block_degree"] = b.block_degree
    else:
        doc["summands"] = [_summand_to_json(s) for s in b.summands]
    return doc


def _decomposition_to_json(dec: Decomposition) -> dict[str, int]:
    return {"d1": dec.d1, "d2": dec.d2, "k1": dec.k1, "k2": dec.k2, "h": dec.h, "rbar": dec.rbar, "dbar": dec.dbar}


def _nodes_to_json(chain: ChainCurve) -> list[list[str]]:
    return [list(pair) for pair in chain.nodes]


def skeleton_to_json_dict(s: LimitSeriesSkeleton) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "params": {"g": s.params.g, "r": s.params.r, "d": s.params.d, "k": s.params.k},
        "decomposition": _decomposition_to_json(s.decomposition),
        "case": s.case.value,
        "b": s.b,
        "components": s.chain.components,
        "nodes": _nodes_to_json(s.chain),
        "bundles": [_bundle_to_json(b) for b in s.bundles],
        "tables": [
            {"component": t.component, "at_p": [list(x) for x in t.at_p], "at_q": [list(x) for x in t.at_q]}
            for t in s.tables
        ],
        "gluings": [
            {
                "node": gl.node,
                "tag": gl.tag,
                "parameter_dim": gl.parameter_dim,
                "description": gl.description,
            }
            for gl in s.gluings
        ],
        "notes": list(s.notes),
    }


def skeleton_to_canonical_json(s: LimitSeriesSkeleton) -> str:
    return canonical_dumps(skeleton_to_json_dict(s))


def _exact_int(value: Any) -> int:
    """An exact int: bool, float and str are rejected, never converted."""
    if type(value) is not int:
        raise ParameterError(f"expected an integer, got {value!r}")
    return value


def _optional_int(value: Any) -> int | None:
    return None if value is None else _exact_int(value)


def _table_side(entries: Iterable[Any]) -> tuple[tuple[int, int], ...]:
    """One side of a table, held to the VanishingTable invariant that the
    verifier's run merge trusts: non-empty, strictly ascending distinct
    orders, positive multiplicities."""
    side = tuple((_exact_int(o), _exact_int(m)) for o, m in entries)
    if not side:
        raise ParameterError("a table side needs at least one (order, multiplicity) entry")
    for (prev, _), (order, _) in zip(side, side[1:]):
        if order <= prev:
            raise ParameterError(f"table orders must be strictly ascending, got {order} after {prev}")
    for order, mult in side:
        if mult <= 0:
            raise ParameterError(f"order {order} has multiplicity {mult}; multiplicities must be positive")
    return side


def _require_derived(doc: Mapping[str, Any], key: str, expected: Any) -> None:
    """Reject a stored field that differs from its value recomputed from the
    rest of the document."""
    if canonical_dumps(doc[key]) != canonical_dumps(expected):
        raise ParameterError(f"stale {key!r}: the document has {doc[key]!r}, the skeleton gives {expected!r}")


def skeleton_from_json_dict(doc: Mapping[str, Any]) -> LimitSeriesSkeleton:
    """Rebuild a skeleton from its canonical JSON document.

    Raises ParameterError for any document it cannot load, including one
    whose `decomposition` or `nodes` differ from what `params` and
    `components` give, and one with a table side that breaks the
    VanishingTable invariant.
    """
    if not isinstance(doc, Mapping):
        raise ParameterError(f"a skeleton document is a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ParameterError(f"unsupported schema {doc.get('schema')!r}")
    try:
        pd = doc["params"]
        params = Params(g=pd["g"], r=pd["r"], d=pd["d"], k=pd["k"])
        case = Case(doc["case"])
        bundles = []
        for bd in doc["bundles"]:
            if bd["kind"] == "first_special":
                bundles.append(
                    ComponentBundle(
                        component=_exact_int(bd["component"]),
                        kind="first_special",
                        degree=_exact_int(bd["degree"]),
                        blocks=_exact_int(bd["blocks"]),
                        block_rank=_exact_int(bd["block_rank"]),
                        block_degree=_exact_int(bd["block_degree"]),
                    )
                )
            else:
                bundles.append(
                    ComponentBundle(
                        component=_exact_int(bd["component"]),
                        kind="mixed",
                        degree=_exact_int(bd["degree"]),
                        summands=tuple(
                            Summand(mult=_exact_int(sd["mult"]), twist=_optional_int(sd.get("a")))
                            for sd in bd["summands"]
                        ),
                    )
                )
        tables = [
            VanishingTable(
                component=_exact_int(td["component"]),
                at_p=_table_side(td["at_p"]),
                at_q=_table_side(td["at_q"]),
            )
            for td in doc["tables"]
        ]
        gluings = [
            GluingSpec(
                node=_exact_int(gd["node"]),
                tag=gd["tag"],
                parameter_dim=_exact_int(gd["parameter_dim"]),
                description=gd.get("description"),
            )
            for gd in doc["gluings"]
        ]
        skeleton = LimitSeriesSkeleton(
            params=params,
            case=case,
            b=_exact_int(doc["b"]),
            chain=build_chain(_exact_int(doc["components"])),
            bundles=tuple(bundles),
            tables=tuple(tables),
            gluings=tuple(gluings),
            notes=tuple(doc.get("notes", ())),
        )
        _require_derived(doc, "decomposition", _decomposition_to_json(skeleton.decomposition))
        _require_derived(doc, "nodes", _nodes_to_json(skeleton.chain))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParameterError):
            raise
        raise ParameterError(f"malformed skeleton document: {exc}") from exc
    return skeleton


def check_table_totals(s: LimitSeriesSkeleton) -> None:
    """Guard: every table's multiplicities sum to k at both points, with
    orders inside [0, d1] and positive multiplicities."""
    k = s.params.k
    d1 = s.decomposition.d1
    for t in s.tables:
        for label, side in (("P", t.at_p), ("Q", t.at_q)):
            total = sum(m for _, m in side)
            if total != k:
                raise MultiplicityMismatch(
                    f"component {t.component} at {label}: multiplicities sum to {total}, expected k={k}"
                )
            for order, mult in side:
                if mult <= 0:
                    raise MultiplicityMismatch(
                        f"component {t.component} at {label}: order {order} has multiplicity {mult}"
                    )
                if not 0 <= order <= d1:
                    raise MultiplicityMismatch(
                        f"component {t.component} at {label}: order {order} outside [0, {d1}]"
                    )
