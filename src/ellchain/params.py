"""Parameter arithmetic: Euclidean decomposition, the Brill-Noether number,
classification into the four construction regimes, and the small cases'
part layout.

Everything here is exact integer arithmetic. A tuple (g, r, d, k) is the
genus, the bundle rank, the bundle degree and the dimension of the section
space. The constructions require k > r; the Brill-Noether count itself is
defined for any integers.

Each small case's main hypothesis is one inequality g - w*t >= least, with
the shift s (0 for SMALL_A, 1 otherwise), the tail threshold t = g+k1-d1-s
and the block width w = k1+1 (k1 for SMALL_C), the components per twisted
block. The recipe's head fills w*t + 1 components, so the value minus one
is the length of the generic-line tail: (***) and (*) (least 1) ask for a
tail of at least 0 components, (**) (least 2) for at least 1. `layout`
names those parts: the recipes fill them, the ledger groups its rows by
them, and the skeleton derives its gluing labels from them.

A Params carries its Euclidean data, its case, s, t and w (None on
LARGE_SECTIONS) and its case's hypothesis checks (none when k <= r) as
derived fields, computed once when it is built. Every later layer reads
them, and no call takes a case beside its params: a Params is its own
classification, which `classify` checks and returns. It is built as the
`skeleton` module docstring says of every record, and is frozen, since a
stored value is right only while the fields it comes from cannot change;
so a HypothesisCheck is an immutable named tuple, which formats its text
only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import gcd
from typing import NamedTuple, Sequence

from .errors import HypothesisFailed, KLERegime, ParameterError


class Case(str, Enum):
    """The four construction regimes.

    LARGE_SECTIONS: d + r(1-g) >= k (a generic bundle already has k sections).
    SMALL_A:        d2 < k2.
    SMALL_B:        d2 >= k2, d2 != 0.
    SMALL_C:        d2 = k2 = 0.
    LARGE_SECTIONS takes precedence over the small cases; `Params.case` applies these.
    """

    LARGE_SECTIONS = "large_sections"
    SMALL_A = "small_a"
    SMALL_B = "small_b"
    SMALL_C = "small_c"


@dataclass(frozen=True, init=False)
class Params:
    """Input tuple: genus g >= 2, rank r >= 1, degree d >= 0, sections k >= 1,
    with its Euclidean data d = r*d1 + d2, k = r*k1 + k2, h = gcd(d, r) = d/dbar = r/rbar."""

    g: int
    r: int
    d: int
    k: int
    d1: int = field(init=False, repr=False, compare=False)
    d2: int = field(init=False, repr=False, compare=False)
    k1: int = field(init=False, repr=False, compare=False)
    k2: int = field(init=False, repr=False, compare=False)
    h: int = field(init=False, repr=False, compare=False)
    rbar: int = field(init=False, repr=False, compare=False)
    dbar: int = field(init=False, repr=False, compare=False)
    case: Case = field(init=False, repr=False, compare=False)
    s: int | None = field(init=False, repr=False, compare=False)
    t: int | None = field(init=False, repr=False, compare=False)
    w: int | None = field(init=False, repr=False, compare=False)
    hypotheses: tuple[HypothesisCheck, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, g: int, r: int, d: int, k: int) -> None:
        if not (type(g) is int and type(r) is int and type(d) is int and type(k) is int):
            for name, value in zip("grdk", (g, r, d, k)):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ParameterError(f"{name} must be an integer, got {value!r}")
        if g < 2:
            raise ParameterError(f"genus must be >= 2, got g={g}")
        if r < 1:
            raise ParameterError(f"rank must be >= 1, got r={r}")
        if d < 0:
            raise ParameterError(f"degree must be >= 0, got d={d}")
        if k < 1:
            raise ParameterError(f"section count must be >= 1, got k={k}")
        d1, d2 = divmod(d, r)
        k1, k2 = divmod(k, r)
        h = gcd(d, r)
        case = (Case.LARGE_SECTIONS if d + r * (1 - g) >= k
                else Case.SMALL_A if d2 < k2 else Case.SMALL_B if d2 else Case.SMALL_C)
        s = t = w = None
        if case is not Case.LARGE_SECTIONS:
            s = 0 if case is Case.SMALL_A else 1
            t, w = g + k1 - d1 - s, k1 if case is Case.SMALL_C else k1 + 1
        self.__dict__.update(g=g, r=r, d=d, k=k, d1=d1, d2=d2, k1=k1, k2=k2, h=h, rbar=r // h, dbar=d // h,
                             case=case, s=s, t=t, w=w)
        self.__dict__["hypotheses"] = _hypotheses(self) if k > r else ()

    def to_json_dict(self) -> dict[str, int]:
        """The tuple as every JSON document writes it under "params"."""
        return {"g": self.g, "r": self.r, "d": self.d, "k": self.k}


def rho_value(g: int, r: int, d: int, k: int) -> int:
    """Brill-Noether number r^2(g-1) + 1 - k(k - d + r(g-1)), for any integers.

    May be negative. Exact; no overflow concerns with Python integers.
    """
    return r * r * (g - 1) + 1 - k * (k - d + r * (g - 1))


def layout(p: Params) -> dict[str, Sequence[int]]:
    """The labelled parts of a small case's chain (see `construct`), each a
    run of component indices; together they cover 1..g once. An
    alpha-block's first component is in `block_first`, the rest of it in
    `block_rest`. The recipes lay out t-1 (SMALL_A, SMALL_B) or t (SMALL_C)
    blocks of w components, and the generic-line tail starts after them.
    Raises ValueError for LARGE_SECTIONS, which has none."""
    g, t, w = p.g, p.t, p.w
    if t is None:
        raise ValueError("large_sections has no layout")
    if p.case is Case.SMALL_C:
        return {
            "first_component": range(1, 2),
            "twisted_blocks": range(2, t * w + 2),
            "tail": range(t * w + 2, g + 1),
        }
    return {
        "first_component": range(1, 2),
        "second_component": range(2, 3),
        "line_chain": range(3, w + 2),
        "block_first": range(w + 2, t * w + 2, w),
        "block_rest": [i for i in range(w + 2, t * w + 2) if (i - 2) % w],
        "tail": range(t * w + 2, g + 1),
    }


# The main hypothesis g - w*t >= least per small case: name, template over (g, w, t), least.
_MAIN_HYPOTHESES = {
    Case.SMALL_A: ("(***)", "g - (k1+1)*(g-d1+k1) = {} - {}*{}", 1),
    Case.SMALL_B: ("(*)", "g - (k1+1)*(g-d1+k1-1) = {} - {}*{}", 1),
    Case.SMALL_C: ("(**)", "g - k1*(g-d1+k1-1) = {} - {}*{}", 2),  # strict "> 1"
}


class HypothesisCheck(NamedTuple):
    """One inequality `value >= min_pass`, with its evaluated left side.

    slack = value - min_pass + 1: positive iff the inequality holds, and it
    counts how far the left side sits above the first failing value. The
    text, `statement`, is formatted from template and operands when read.
    """

    name: str
    template: str
    operands: tuple[int, ...]
    value: int
    min_pass: int

    @property
    def statement(self) -> str:
        return self.template.format(*self.operands)

    @property
    def satisfied(self) -> bool:
        return self.value >= self.min_pass

    @property
    def slack(self) -> int:
        return self.value - self.min_pass + 1

    def describe(self) -> str:
        verdict = "holds" if self.satisfied else "fails"
        return (
            f"{self.name} {verdict}: {self.statement} = {self.value} "
            f"{'>=' if self.satisfied else '<'} {self.min_pass}"
        )


def _hypotheses(p: Params) -> tuple[HypothesisCheck, ...]:
    """The checks of `p.case`, in the order `classify` reads them. The
    auxiliary deficiency condition never fails on its own (off
    LARGE_SECTIONS t >= 1), but its value and slack are part of the output."""
    g, r, d, case = p.g, p.r, p.d, p.case
    if case is Case.LARGE_SECTIONS:
        return (HypothesisCheck("section_surplus", "d + r*(1-g) = {} + {}*(1-{})", (d, r, g), d + r * (1 - g), p.k),)
    d1, k1, t, w = p.d1, p.k1, p.t, p.w
    name, template, least = _MAIN_HYPOTHESES[case]
    checks = (HypothesisCheck(name, template, (g, w, t), g - w * t, least),)
    if case is Case.SMALL_A:
        checks += (HypothesisCheck("generic_bundle_deficit", "g - d1 + k1 = {} - {} + {}", (g, d1, k1), t, 1),)
    elif case is Case.SMALL_B:
        checks += (HypothesisCheck("generic_bundle_deficit", "g + k1 - d1 = {} + {} - {}", (g, k1, d1), t + 1, 2),)
    return checks


def classify(p: Params) -> Params:
    """Return `p` if its regime `p.case` can be constructed: raise KLERegime
    for k <= r and HypothesisFailed naming the first of `p.hypotheses` that
    does not hold."""
    if p.k <= p.r:
        raise KLERegime(f"k <= r regime not covered (k={p.k}, r={p.r})")
    for check in p.hypotheses:
        if not check.satisfied:
            raise HypothesisFailed(check)
    return p
