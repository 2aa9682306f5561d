from __future__ import annotations

import dataclasses
import enum
import math
import pickle

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ellchain import (
    Case,
    Params,
    classify,
    rho_value,
)
from ellchain.errors import HypothesisFailed, KLERegime, ParameterError


@pytest.mark.parametrize(
    "g,r,d,k,expected",
    [
        (5, 3, 7, 5, dict(d1=2, d2=1, k1=1, k2=2, h=1)),
        (3, 2, 4, 2, dict(d1=2, d2=0, k1=1, k2=0, h=2, rbar=1, dbar=2)),
        (7, 3, 16, 5, dict(d1=5, d2=1, k1=1, k2=2, h=1)),
    ],
)
def test_decompose_examples(g, r, d, k, expected):
    p = Params(g, r, d, k)
    for field, value in expected.items():
        assert getattr(p, field) == value


@given(g=st.integers(2, 30), r=st.integers(1, 12), d=st.integers(0, 400), k=st.integers(1, 60))
def test_decompose_euclidean_identities(g, r, d, k):
    p = Params(g, r, d, k)
    assert d == r * p.d1 + p.d2 and 0 <= p.d2 < r
    assert k == r * p.k1 + p.k2 and 0 <= p.k2 < r
    assert p.h * p.rbar == r and p.h * p.dbar == d
    assert p.d2 % p.h == 0


def test_rho_examples():
    assert rho_value(2, 2, 6, 2) == 9
    assert rho_value(7, 3, 16, 5) == 20
    # k = 0 annihilates the second term (raw form, below the Params domain)
    for g, r, d in [(2, 1, 0), (5, 3, 17), (9, 4, 2)]:
        assert rho_value(g, r, d, 0) == r * r * (g - 1) + 1


@given(
    g=st.integers(-50, 50),
    r=st.integers(-50, 50),
    d=st.integers(-200, 200),
    k=st.integers(-50, 50),
)
def test_rho_expansion_identity(g, r, d, k):
    # r^2(g-1) + 1 + k(d - r(g-1) - k) is the same polynomial.
    assert r * r * (g - 1) + 1 + k * (d - r * (g - 1) - k) == rho_value(g, r, d, k)


def test_classify_k_le_r_rejected():
    with pytest.raises(KLERegime):
        classify(Params(2, 2, 6, 2))


def test_classify_large_sections():
    c = classify(Params(2, 2, 6, 3))
    assert c.case is Case.LARGE_SECTIONS
    assert c.hypotheses[0].value == 4  # d + r(1-g) = 6 - 2
    assert c.hypotheses[0].min_pass == 3


def test_classify_small_a_with_slack():
    c = classify(Params(7, 3, 16, 5))
    assert c.case is Case.SMALL_A
    main = c.hypotheses[0]
    assert main.name == "(***)"
    assert main.value == 1 and main.satisfied and main.slack == 1
    # the auxiliary deficiency condition is reported independently
    names = [ch.name for ch in c.hypotheses]
    assert "generic_bundle_deficit" in names


def test_classify_small_b():
    c = classify(Params(7, 3, 14, 4))
    assert c.case is Case.SMALL_B
    assert c.hypotheses[0].name == "(*)"
    assert c.hypotheses[0].value == 1 and c.hypotheses[0].satisfied


def test_classify_small_c():
    c = classify(Params(4, 2, 8, 4))
    assert c.case is Case.SMALL_C
    assert c.hypotheses[0].name == "(**)"
    assert c.hypotheses[0].value == 2 and c.hypotheses[0].min_pass == 2


def test_classify_hypothesis_failure_reports_deficit():
    with pytest.raises(HypothesisFailed) as excinfo:
        classify(Params(8, 3, 16, 5))
    assert excinfo.value.failed.name == "(***)"
    assert excinfo.value.failed.value == 0
    assert "(***)" in str(excinfo.value)


@pytest.mark.parametrize(
    "tup,lines",
    [
        ((2, 2, 6, 3), ["section_surplus holds: d + r*(1-g) = 6 + 2*(1-2) = 4 >= 3"]),
        ((7, 3, 16, 5), ["(***) holds: g - (k1+1)*(g-d1+k1) = 7 - 2*3 = 1 >= 1",
                         "generic_bundle_deficit holds: g - d1 + k1 = 7 - 5 + 1 = 3 >= 1"]),
        ((7, 3, 14, 4), ["(*) holds: g - (k1+1)*(g-d1+k1-1) = 7 - 2*3 = 1 >= 1",
                         "generic_bundle_deficit holds: g + k1 - d1 = 7 + 1 - 4 = 4 >= 2"]),
        ((6, 2, 9, 3), ["(*) holds: g - (k1+1)*(g-d1+k1-1) = 6 - 2*2 = 2 >= 1",
                        "generic_bundle_deficit holds: g + k1 - d1 = 6 + 1 - 4 = 3 >= 2"]),
        ((10, 2, 20, 6), ["(**) holds: g - k1*(g-d1+k1-1) = 10 - 3*2 = 4 >= 2"]),
        ((8, 3, 16, 5), ["(***) fails: g - (k1+1)*(g-d1+k1) = 8 - 2*4 = 0 < 1"]),
        ((2, 2, 3, 3), ["(*) fails: g - (k1+1)*(g-d1+k1-1) = 2 - 2*1 = 0 < 1"]),
        ((3, 1, 3, 2), ["(**) fails: g - k1*(g-d1+k1-1) = 3 - 2*1 = 1 < 2"]),
    ],
)
def test_hypothesis_text(tup, lines):
    # The lines `check` prints and a rejection message carries.
    try:
        checks = classify(Params(*tup)).hypotheses
    except HypothesisFailed as exc:
        assert [str(exc)] == [exc.failed.describe()] == lines
    else:
        assert [c.describe() for c in checks] == lines


@pytest.mark.parametrize("tup", [(8, 3, 16, 5), (2, 2, 3, 3), (3, 1, 3, 2)])
def test_hypothesis_failure_pickles(tup):
    with pytest.raises(HypothesisFailed) as excinfo:
        classify(Params(*tup))
    exc = excinfo.value
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(exc, protocol))
        assert type(loaded) is HypothesisFailed
        assert (str(loaded), loaded.failed, loaded.args) == (str(exc), exc.failed, (exc.failed,))


@given(g=st.integers(2, 40), r=st.integers(1, 7), d=st.integers(0, 400), k=st.integers(2, 400))
def test_generic_bundle_deficit_never_fails_on_its_own(g, r, d, k):
    # Not large means r(d1+1-g-k1) < k2-d2, and k2-d2 is at most r-1 in
    # SMALL_A and at most 0 in SMALL_B and SMALL_C. So d1+1-g-k1 <= 0 in
    # SMALL_A and <= -1 otherwise: t = g+k1-d1-s >= 1, which is the deficit
    # check (t >= 1 in SMALL_A, t+1 >= 2 in SMALL_B).
    assume(k > r and d + r * (1 - g) < k)
    p = Params(g, r, d, k)
    case = Case.SMALL_A if p.d2 < p.k2 else Case.SMALL_B if p.d2 else Case.SMALL_C
    assert p.case is case
    assert p.t >= 1
    try:
        classify(p)
    except HypothesisFailed as exc:
        assert exc.failed.name != "generic_bundle_deficit"


# Each regime's own inequalities, by name.
_REGIME_CHECKS = {
    Case.LARGE_SECTIONS: {"section_surplus"},
    Case.SMALL_A: {"(***)", "generic_bundle_deficit"},
    Case.SMALL_B: {"(*)", "generic_bundle_deficit"},
    Case.SMALL_C: {"(**)"},
}


@given(g=st.integers(2, 40), r=st.integers(1, 7), d=st.integers(0, 400), k=st.integers(2, 400))
def test_classify_keeps_the_params_case(g, r, d, k):
    # Classification never moves a tuple to another regime: it returns the
    # case Params derived, or fails on one of that case's own inequalities.
    assume(k > r)
    p = Params(g, r, d, k)
    try:
        c = classify(p)
    except HypothesisFailed as exc:
        assert exc.failed.name in _REGIME_CHECKS[p.case]
    else:
        assert c.case is p.case
        assert {check.name for check in c.hypotheses} == _REGIME_CHECKS[p.case]


@given(g=st.integers(2, 30), r=st.integers(1, 12), d=st.integers(0, 400), k=st.integers(1, 60),
       new_d=st.integers(0, 400))
def test_params_carry_their_decomposition(g, r, d, k, new_d):
    for p in (Params(g, r, d, k), dataclasses.replace(Params(g, r, d, k), d=new_d)):
        d1, d2 = divmod(p.d, p.r)
        k1, k2 = divmod(p.k, p.r)
        h = math.gcd(p.d, p.r)
        expected = dict(d1=d1, d2=d2, k1=k1, k2=k2, h=h, rbar=p.r // h, dbar=p.d // h)
        assert {name: getattr(p, name) for name in expected} == expected


@given(g=st.integers(2, 30), r=st.integers(1, 12), d=st.integers(0, 400), k=st.integers(1, 60),
       new_d=st.integers(0, 400))
def test_params_carry_their_shift_threshold_and_width(g, r, d, k, new_d):
    # s, t and w are None exactly on LARGE_SECTIONS; otherwise s is 0 for
    # SMALL_A and 1 for SMALL_B and SMALL_C, t = g + k1 - d1 - s, and a
    # twisted block is k1 + 1 components wide (k1 for SMALL_C).
    for p in (Params(g, r, d, k), dataclasses.replace(Params(g, r, d, k), d=new_d)):
        if p.case is Case.LARGE_SECTIONS:
            assert (p.s, p.t, p.w) == (None, None, None)
            continue
        s = 0 if p.case is Case.SMALL_A else 1
        w = p.k1 if p.case is Case.SMALL_C else p.k1 + 1
        assert (p.s, p.t, p.w) == (s, p.g + p.k1 - p.d1 - s, w)


@given(g=st.integers(2, 14), r=st.integers(1, 6), d=st.integers(0, 250), k=st.integers(1, 40))
def test_classify_total_and_unique_on_k_gt_r(g, r, d, k):
    p = Params(g, r, d, k)
    if k <= r:
        with pytest.raises(KLERegime):
            classify(p)
        return
    try:
        c = classify(p)
    except HypothesisFailed:
        return
    if d + r * (1 - g) >= k:
        assert c.case is Case.LARGE_SECTIONS
    elif p.d2 < p.k2:
        assert c.case is Case.SMALL_A
    elif p.d2 != 0:
        assert c.case is Case.SMALL_B
    else:
        assert c.case is Case.SMALL_C
    assert all(ch.satisfied for ch in c.hypotheses)


@given(g=st.integers(2, 14), r=st.integers(1, 6), d=st.integers(0, 250), k=st.integers(1, 40))
def test_classify_reads_the_checks_its_params_derived(g, r, d, k):
    p = Params(g, r, d, k)
    if k <= r:
        assert p.hypotheses == ()
        return
    try:
        c = classify(p)
    except HypothesisFailed as exc:
        assert exc.failed is next(check for check in p.hypotheses if not check.satisfied)
    else:
        assert c is p


def test_hypothesis_checks_are_immutable_and_outside_equality():
    p = Params(7, 3, 16, 5)
    with pytest.raises(AttributeError):
        p.hypotheses[0].value = 2
    assert repr(p) == "Params(g=7, r=3, d=16, k=5)"
    assert "hypotheses" not in {f.name for f in dataclasses.fields(p) if f.compare or f.repr or f.init}


def test_params_accept_int_subclasses_other_than_bool():
    # Only bool is refused among int subclasses; the check is isinstance,
    # not an exact type test.
    class Genus(enum.IntEnum):
        SEVEN = 7

    p = Params(Genus.SEVEN, 3, 16, 5)
    assert p == Params(7, 3, 16, 5) and p.g is Genus.SEVEN
    assert classify(p).case is Case.SMALL_A


@pytest.mark.parametrize("bad", [dict(g=1), dict(r=0), dict(d=-1), dict(k=0)])
def test_params_validation(bad):
    base = dict(g=3, r=2, d=5, k=3)
    base.update(bad)
    with pytest.raises(ParameterError):
        Params(**base)
