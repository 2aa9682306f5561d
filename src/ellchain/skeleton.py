"""Combinatorial data model: bundle summand lists, vanishing tables, and
the skeleton that assembles them on a chain of g elliptic components.

The chain is implicit: g is `params.g`, and position is the index. The i-th
bundle and table (1-based) sit on component i, and the n-th gluing on node
n, which identifies Q_n on component n with P_{n+1}; no record stores its
own index. Points P_i, Q_i are symbolic, and no gluing is stored: the
skeleton derives each node's dimension from the bundles it joins, and its
label from the params' case and the `params.layout` part it enters.
A vanishing table stores (order, multiplicity) runs at both marked points
of a component, and the type itself rejects a side that is empty, out of
order, has a multiplicity below 1 or a run that is not two integers; that
multiplicities at each point sum to k is a rule `verify` checks. A bundle's
summand is a (multiplicity, twist) pair that its bundle checks, as a run is
a pair that its table checks.

Records carry their summaries, computed once when built: a table its side
totals and largest multiplicity, a bundle its rank and twist range, the
skeleton each node's gluing dimension, and `Params` its Euclidean data (d1,
d2, k1, k2, h, rbar, dbar), case, shift s, tail threshold t, block width w
and hypothesis checks. They are derived
fields, left out of equality, hashing and repr, so `dataclasses.replace`
recomputes them and every rule reads them instead of re-summing. Each record
(and `Params`) is a frozen dataclass with a hand-written `__init__`
(init=False, the generated signature) that validates, derives, and stores
all fields, derived ones included, with one instance-dict update rather
than one `object.__setattr__` (about 250 ns) per field. The generated
`__setattr__` and `__delattr__` still raise FrozenInstanceError, so a
summary cannot go stale, and records pickle as dataclasses do.
The skeleton's gluing labels and notes are read only by the JSON writer and
`check`'s text, so they are properties, derived on each read.

Skeletons serialize to a canonical JSON document (schema 1, sorted keys, no
floats) used by the CLI and the test fixtures. The writer derives
`components`, `nodes`, `decomposition`, `notes`, every `component`/`node`
key and each gluing's `description`, `tag` ("generic" iff the description
is null) and `parameter_dim` from params, positions and the chain. The
loader only maps `params`, `b`, `bundles` and `tables` to records, and
accepts the document iff the skeleton built writes back the same JSON
value, integers exact; otherwise it names the first field that differs.
Each record tests its integers inline (`type(v) is int`; `_exact_int` words
the message), a bundle holds only its kind's fields, and the skeleton only
params that classify. So every skeleton that can be built writes a document
that loads, and `verify` and `verify-file` cannot disagree on a type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import HypothesisFailed, KLERegime, ParameterError
from .params import Case, Params, classify, layout


def _exact_int(value: Any, name: str) -> int:
    """`value` if it is an integer as `Params` reads one, an int that is not
    a bool; otherwise ParameterError naming `name`. Floats and strings are
    rejected, never converted. Callers test `type(value) is int` first."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name}: expected an integer, got {value!r}")
    return value


@dataclass(frozen=True, init=False)
class ComponentBundle:
    """Bundle placed on one component.

    kind "first_special": h >= 1 generic indecomposable factors of rank
    rbar >= 1 and degree dbar (only on component 1; degree d). kind "mixed":
    rank-1 summands totalling rank r (degree r*d1), each a (mult, twist)
    pair: twist a means mult >= 1 copies of the line bundle O(a*P + (d1-a)*Q)
    on the component, twist None mult generic lines of degree d1.

    `rank` (blocks*block_rank, or the summands' total multiplicity),
    `min_twist`/`max_twist` (None without twisted summands) and the ledger's
    `moduli`/`autos` terms are derived here: h blocks give moduli h and
    autos h, m copies of one twisted line 0 and m^2, m generic lines m and m.
    Each pair is checked as it is read, its integers and then mult >= 1,
    before the kind's rules. A bundle has one spelling: each kind holds only
    its own fields, and twisted summands are strictly ascending by twist,
    then at most one generic-line entry; anything else raises ParameterError.
    """

    kind: str  # "first_special" | "mixed"
    degree: int
    blocks: int | None = None        # first_special: h
    block_rank: int | None = None    # first_special: rbar
    block_degree: int | None = None  # first_special: dbar
    summands: tuple[tuple[int, int | None], ...] = ()
    rank: int = field(init=False, repr=False, compare=False)
    min_twist: int | None = field(init=False, repr=False, compare=False)
    max_twist: int | None = field(init=False, repr=False, compare=False)
    moduli: int = field(init=False, repr=False, compare=False)
    autos: int = field(init=False, repr=False, compare=False)

    def __init__(
        self, kind: str, degree: int, blocks: int | None = None, block_rank: int | None = None,
        block_degree: int | None = None, summands: Iterable[tuple[int, int | None]] = (),
    ) -> None:
        # The fast path: an int degree, and no block scalars (mixed) or three ints (first_special).
        if type(degree) is not int or not (blocks is block_rank is block_degree is None
                                           or type(blocks) is type(block_rank) is type(block_degree) is int):
            for name, value in zip(("degree", "blocks", "block_rank", "block_degree"),
                                   (degree, blocks, block_rank, block_degree)):
                if name == "degree" or value is not None:
                    _exact_int(value, name)
        pairs = []  # read after the scalars and in order: a loaded bundle passes a generator
        for mult, twist in summands:
            if type(mult) is not int or not (twist is None or type(twist) is int):
                _exact_int(mult, "summands")
                if twist is not None:
                    _exact_int(twist, "summands")
            if mult < 1:
                raise ParameterError(f"summands: multiplicity {mult}, a summand needs at least one copy")
            pairs.append((mult, twist))
        summands = tuple(pairs)
        if kind == "mixed":
            if not blocks is block_rank is block_degree is None:
                name = "blocks" if blocks is not None else "block_rank" if block_rank is not None else "block_degree"
                raise ParameterError(f"{name}: a mixed bundle has no blocks, block_rank or block_degree")
            rank = moduli = autos = 0
            twists = []
            for mult, twist in summands:
                if moduli:  # a generic-line entry came before
                    entry = "generic_line" if twist is None else "twisted"
                    raise ParameterError(
                        f"summands: a {entry} summand after the generic lines, generic lines must be one last entry"
                    )
                rank += mult
                if twist is None:
                    moduli += mult
                    autos += mult
                else:
                    if twists and twist <= twists[-1]:
                        raise ParameterError(
                            f"summands: twist {twist} after {twists[-1]}, twists must be strictly ascending"
                        )
                    autos += mult * mult
                    twists.append(twist)
            lo, hi = (twists[0], twists[-1]) if twists else (None, None)
        elif kind == "first_special":
            if summands:
                raise ParameterError(f"summands: a first_special bundle has no summands, got {len(summands)}")
            if min(blocks or 0, block_rank or 0) < 1:
                raise ParameterError("blocks: a first_special bundle needs blocks and block_rank of at least 1")
            if block_degree is None:
                raise ParameterError("block_degree: a first_special bundle needs a block_degree")
            rank, moduli, autos, lo, hi = blocks * block_rank, blocks, blocks, None, None  # type: ignore[operator]
        else:
            raise ParameterError(f"kind: unknown bundle kind {kind!r}")
        self.__dict__.update(kind=kind, degree=degree, blocks=blocks, block_rank=block_rank, block_degree=block_degree,
                             summands=summands, rank=rank, min_twist=lo, max_twist=hi, moduli=moduli, autos=autos)

    def twist_multiplicity(self, a: int) -> int:
        """Copies of O(a*P + (d1-a)*Q) among the summands (mixed only), 0 outside the twist range."""
        for mult, twist in self.summands:  # twists are distinct: the canonical spelling
            if twist == a:
                return mult
        return 0


def side_summary(name: str, side: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """(total multiplicity, largest multiplicity) of one table side: non-empty
    runs of two integers (each run's order tested, then its multiplicity),
    orders strictly ascending, multiplicities positive; ParameterError
    naming `name` otherwise."""
    if not side:
        raise ParameterError(f"{name}: empty table side")
    prev = None
    total = top = 0
    for order, mult in side:
        if type(order) is not int or type(mult) is not int:
            _exact_int(order, name), _exact_int(mult, name)
        if prev is not None and order <= prev:
            raise ParameterError(f"{name}: order {order} after {prev}, orders must be strictly ascending")
        if mult <= 0:
            raise ParameterError(
                f"{name}: order {order} has multiplicity {mult}, multiplicities must be positive"
            )
        total += mult
        if mult > top:
            top = mult
        prev = order
    return total, top


@dataclass(frozen=True, init=False)
class VanishingTable:
    """Vanishing multisets of the section space at P_i and at Q_i.

    Stored as (order, multiplicity) runs. Each side is non-empty, with
    integer runs, strictly ascending distinct orders and positive
    multiplicities; the verifier's run merge relies on this, so a side that
    breaks it raises ParameterError here, whoever builds the table. The walk
    that checks this also derives `total_p`, `total_q` (each side's total
    multiplicity) and `max_mult` (the largest multiplicity on either side);
    by the invariant, each side's first and last runs hold its extreme
    orders. A side given as JSON arrays is stored as tuples once checked.
    """

    at_p: tuple[tuple[int, int], ...]
    at_q: tuple[tuple[int, int], ...]
    total_p: int = field(init=False, repr=False, compare=False)
    total_q: int = field(init=False, repr=False, compare=False)
    max_mult: int = field(init=False, repr=False, compare=False)

    def __init__(self, at_p: Sequence[Sequence[int]], at_q: Sequence[Sequence[int]]) -> None:
        total_p, top_p = side_summary("at_p", at_p)
        total_q, top_q = side_summary("at_q", at_q)
        if type(at_p) is not tuple or type(at_q) is not tuple:  # JSON arrays, checked above
            at_p, at_q = tuple(map(tuple, at_p)), tuple(map(tuple, at_q))
        self.__dict__.update(at_p=at_p, at_q=at_q, total_p=total_p, total_q=total_q,
                             max_mult=top_p if top_p > top_q else top_q)


def minimal_boundary_table(r: int, k1: int, k2: int) -> tuple[tuple[int, int], ...]:
    """Smallest possible vanishing multiset of a k-dimensional space, as
    ascending runs: orders 0..k1-1 with multiplicity r, then k1 with
    multiplicity k2."""
    return tuple([(j, r) for j in range(k1)]) + (((k1, k2),) if k2 else ())


# Gluing labels: node 1's by case, and every node entering a layout part by that part.
_NODE_ONE = {
    Case.SMALL_A: "full_vanishing_block->line_block",
    Case.SMALL_B: "max_vanishing_block->first_bundle_sections",
}
_PART_GLUINGS = {"line_chain": "line_block->line_block", "block_first": "twisted_block->section_chain"}


@dataclass(frozen=True, init=False)
class LimitSeriesSkeleton:
    """The whole chain: g = params.g bundles and tables in chain order and
    the twist parameter b. Its `case` is `params.case`, stored nowhere else.

    `gluing_dims[n-1]` is node n's family dimension: with t the twisted
    copies on the component it enters, r^2 - t(r-t), the r x r matrices
    keeping a t-plane block-triangular. Node 1 from a first_special bundle
    into a twisted summand sends a t-plane into an m-plane, m the
    multiplicity of order b at Q1 (0 if absent): r^2 - t(r-m) when that
    summand's twist is 0, else r^2 - t*m."""

    params: Params
    b: int
    bundles: tuple[ComponentBundle, ...]
    tables: tuple[VanishingTable, ...]
    gluing_dims: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(
        self, params: Params, b: int, bundles: tuple[ComponentBundle, ...], tables: tuple[VanishingTable, ...],
    ) -> None:
        if type(b) is not int:
            _exact_int(b, "b")
        try:
            classify(params)
        except (KLERegime, HypothesisFailed) as exc:
            raise ParameterError(f"params: {exc}") from None
        g, r = params.g, params.r
        if len(bundles) != g or len(tables) != g:
            name, entries = ("bundles", bundles) if len(bundles) != g else ("tables", tables)
            raise ParameterError(f"{name}: {len(entries)} entries for g = {g}")
        self.__dict__.update(params=params, b=b, bundles=bundles, tables=tables)
        twisted = [e.rank - e.moduli if e.kind == "mixed" else 0 for e in bundles[1:]]
        dims = [r * r - t * (r - t) for t in twisted]
        if self.node_one_reads_q1:
            t, m = twisted[0], dict(tables[0].at_q).get(b, 0)
            dims[0] = r * r - t * (r - m if bundles[1].min_twist == 0 else m)
        self.__dict__["gluing_dims"] = tuple(dims)

    @property
    def case(self) -> Case:
        return self.params.case

    @property
    def node_one_reads_q1(self) -> bool:
        """Whether node 1's dimension reads Q1's table (the exception
        above): a first_special bundle enters a twisted summand."""
        entered = self.bundles[1]
        return self.bundles[0].kind == "first_special" and entered.kind == "mixed" and entered.rank > entered.moduli

    @property
    def gluings(self) -> tuple[str | None, ...]:
        """Node n's gluing description at index n-1, None when generic. In
        SMALL_A and SMALL_B node 1 links the special first bundle into
        component 2 (a label per case), the node entering a line-chain
        component chains the line blocks, and the node entering a block's
        first component links its twisted block into the section chain;
        every other node is generic."""
        g = self.params.g
        if self.case not in _NODE_ONE:
            return (None,) * (g - 1)
        parts = layout(self.params)
        # Each label keyed by the component its node enters: node n enters n+1.
        entering = {i: label for part, label in _PART_GLUINGS.items() for i in parts[part]}
        entering[2] = _NODE_ONE[self.case]
        return tuple([entering.get(i) for i in range(2, g + 1)])

    @property
    def notes(self) -> tuple[str, ...]:
        """The reading notes: SMALL_B's on node 2, and LARGE_SECTIONS' on its
        boundary table when d2 != k2."""
        p = self.params
        if self.case is Case.SMALL_B:
            return ("node 2 links the line block into the glued section space of dimension d2-k2 on component 2",)
        if self.case is Case.LARGE_SECTIONS and p.d2 != p.k2:
            return (
                "boundary table reading: the last vanishing at the final point carries the section-count "
                f"remainder k2={p.k2}; the degree remainder d2={p.d2} would break boundary minimality",
            )
        return ()


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


_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False, check_circular=False
)


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN, UTF-8. The one shared encoder
    skips the cycle check (callers pass fresh trees): a cyclic input raises RecursionError, not ValueError."""
    return _CANONICAL.encode(obj)


def _summand_to_json(mult: int, twist: int | None) -> dict[str, Any]:
    if twist is None:
        return {"kind": "generic_line", "mult": mult}
    return {"kind": "twisted", "mult": mult, "a": twist}


def _bundle_to_json(i: int, b: ComponentBundle) -> dict[str, Any]:
    doc: dict[str, Any] = {"component": i, "kind": b.kind, "degree": b.degree}
    if b.kind == "first_special":
        doc["blocks"] = b.blocks
        doc["block_rank"] = b.block_rank
        doc["block_degree"] = b.block_degree
    else:
        doc["summands"] = [_summand_to_json(mult, twist) for mult, twist in b.summands]
    return doc


def skeleton_to_json_dict(s: LimitSeriesSkeleton) -> dict[str, Any]:
    p = s.params
    return {
        "schema": SCHEMA_VERSION,
        "params": p.to_json_dict(),
        "decomposition": {"d1": p.d1, "d2": p.d2, "k1": p.k1, "k2": p.k2, "h": p.h, "rbar": p.rbar, "dbar": p.dbar},
        "case": s.case.value,
        "b": s.b,
        "components": p.g,
        "nodes": [[f"Q{n}", f"P{n + 1}"] for n in range(1, p.g)],
        "bundles": [_bundle_to_json(i, b) for i, b in enumerate(s.bundles, 1)],
        "tables": [
            {"component": i, "at_p": [list(x) for x in t.at_p], "at_q": [list(x) for x in t.at_q]}
            for i, t in enumerate(s.tables, 1)
        ],
        "gluings": [
            {"node": n, "tag": "generic" if desc is None else "constrained", "parameter_dim": dim, "description": desc}
            for n, (desc, dim) in enumerate(zip(s.gluings, s.gluing_dims), 1)
        ],
        "notes": list(s.notes),
    }


def skeleton_to_canonical_json(s: LimitSeriesSkeleton) -> str:
    return canonical_dumps(skeleton_to_json_dict(s))


def _bundle_from_json(bd: Mapping[str, Any]) -> ComponentBundle:
    return ComponentBundle(
        bd["kind"], bd["degree"], bd.get("blocks"), bd.get("block_rank"), bd.get("block_degree"),
        ((sd["mult"], sd.get("a")) for sd in bd.get("summands", ())),
    )


def _table_from_json(td: Mapping[str, Any]) -> VanishingTable:
    return VanishingTable(td["at_p"], td["at_q"])


def _entries(doc: Mapping[str, Any], key: str, build: Callable[[Any], Any]) -> tuple[Any, ...]:
    """`build` applied to each entry of doc[key]; a rejection names the entry."""
    out = []
    for i, entry in enumerate(doc[key]):
        try:
            out.append(build(entry))
        except ParameterError as exc:
            raise ParameterError(f"{key}[{i}].{exc}") from None
    return tuple(out)


def _rebuilt_ints_exact(doc: Mapping[str, Any]) -> bool:
    """Whether the integers the writer rebuilds rather than reads back are
    exact ints, on a document equal to the written one: `==` equates 1, 1.0
    and true."""
    keys = [e["component"] for e in doc["bundles"] + doc["tables"]]
    keys += [v for e in doc["gluings"] for v in (e["node"], e["parameter_dim"])]
    return set(map(type, (doc["components"], *doc["decomposition"].values(), *keys))) == {int}


class _Absent:
    def __repr__(self) -> str:
        return "no such key"


def _first_difference(got: Any, want: Any, path: str = "") -> tuple[str, Any, Any] | None:
    """(path, got, want) at the first place, in the writer's key order, where
    two JSON values differ, types included, or None if there is none."""
    if isinstance(want, dict) and isinstance(got, Mapping):
        keys = [*want, *(k for k in got if k not in want)]
        pairs = [(f"{path}.{k}" if path else str(k), got.get(k, _Absent()), want.get(k, _Absent())) for k in keys]
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(got, want))]
    else:
        return None if type(got) is type(want) and got == want else (path, got, want)
    return next(filter(None, (_first_difference(a, b, sub) for sub, a, b in pairs)), None)


def skeleton_from_json_dict(doc: Mapping[str, Any]) -> LimitSeriesSkeleton:
    """Rebuild a skeleton from its canonical JSON document.

    The skeleton is built from `params`, `b`, `bundles` and `tables`, and
    its case is the params' own; params that `Params` rejects or that do not
    classify raise ParameterError("params: ..."). A document loads iff that
    skeleton writes back the same JSON value, every integer an exact int.
    Anything else, a value a record rejects (a non-integer, a table side
    breaking the VanishingTable invariant) or a stale derived field
    included, raises ParameterError naming the first offending field.
    """
    if not isinstance(doc, Mapping):
        raise ParameterError(f"a skeleton document is a JSON object, not {type(doc).__name__}")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ParameterError(f"unsupported schema {schema!r}")
    try:
        pd = doc["params"]
        try:
            params = Params(g=pd["g"], r=pd["r"], d=pd["d"], k=pd["k"])
        except ParameterError as exc:
            raise ParameterError(f"params: {exc}") from None
        skeleton = LimitSeriesSkeleton(
            params=params,
            b=doc["b"],
            bundles=_entries(doc, "bundles", _bundle_from_json),
            tables=_entries(doc, "tables", _table_from_json),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParameterError):
            raise
        raise ParameterError(f"malformed skeleton document: {exc}") from exc
    written = skeleton_to_json_dict(skeleton)
    if written != doc or not _rebuilt_ints_exact(doc):
        path, got, want = _first_difference(doc, written)  # type: ignore[misc]
        read = ""
        if path.endswith(".parameter_dim"):  # name the fields the dimension is derived from
            i = int(path[len("gluings[") : -len("].parameter_dim")])
            q1 = i == 0 and skeleton.node_one_reads_q1
            read = f" (derived from {'bundles[0], bundles[1] and tables[0].at_q' if q1 else f'bundles[{i + 1}]'})"
        raise ParameterError(f"stale {path}: the document has {got!r}, the skeleton gives {want!r}{read}")
    return skeleton
