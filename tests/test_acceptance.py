"""Acceptance gate: the seven exit criteria, each printing one verdict line.

The sweep lattice is g in [2,12], r in [1,5], k in (r, 3r], d in [0, 5rg];
all comparisons are exact integer equality (tolerance 0 throughout).
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

from conftest import ACCEPTANCE_SWEEP, constructible_tuples
from ellchain import (
    Case,
    Params,
    audit_equals_rho,
    classify,
    construct,
    cross_validate,
    min_sum_pairing_exists,
    rho_value,
    skeleton_from_json_dict,
    skeleton_to_canonical_json,
    verify,
)
from ellchain.cli import load_skeleton_file, main
from ellchain.skeleton import skeleton_to_json_dict


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_ledger_rho_identity():
    t0 = time.time()
    checked = 0
    mismatches = []
    for p in constructible_tuples(ACCEPTANCE_SWEEP):
        audit = audit_equals_rho(construct(p))
        checked += 1
        if not audit.ok:
            mismatches.append((p, audit.total, audit.rho))
    elapsed = time.time() - t0
    _criterion(
        1,
        "ledger total equals rho on every hypothesis-passing sweep tuple",
        not mismatches and checked > 30000 and elapsed < 60,
        f"{checked} tuples, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_construction_verification():
    failures = []
    cases = Counter()
    checked = 0
    for p in constructible_tuples(ACCEPTANCE_SWEEP):
        skeleton = construct(p)
        report = verify(skeleton)
        checked += 1
        cases[p.case] += 1
        bad = [name for name, entry in report.checks.items() if entry.status == "fail"]
        if bad or not report.all_nodes_exact:
            failures.append((p, bad or ["pairing not exact"]))
    all_cases = set(cases) == set(Case)
    _criterion(
        2,
        "every constructed sweep skeleton passes balance, exact pairing, "
        "feasibility, boundary and multiplicity checks",
        not failures and all_cases,
        f"{checked} skeletons across {dict((c.value, n) for c, n in cases.items())}, "
        f"{len(failures)} failures",
    )


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    # Exhaustive instances: every unordered pair of equal-size multisets with
    # k <= 6 over orders 0..6. Both verdicts are monotone in the threshold b,
    # so agreement at b = greedy maximin and b = maximin + 1 proves agreement
    # for every b; swapping sides changes neither verdict.
    disagreements = 0
    instances = 0
    for k in range(1, 7):
        msets = []
        for combo in itertools.combinations_with_replacement(range(7), k):
            counts = Counter(combo)
            msets.append((tuple(sorted(counts.items())), list(combo)))
        for i, (left, left_asc) in enumerate(msets):
            for right, right_asc in msets[i:]:
                maximin = min(a + b for a, b in zip(left_asc, right_asc[::-1]))
                instances += 1
                if not min_sum_pairing_exists(left, right, maximin):
                    disagreements += 1
                if min_sum_pairing_exists(left, right, maximin + 1):
                    disagreements += 1

    skeletons = skipped = 0
    for p in constructible_tuples(ACCEPTANCE_SWEEP):
        validation = cross_validate(construct(p))
        skeletons += 1
        disagreements += len(validation.disagreements)
        skipped += len(validation.skipped)
    elapsed = time.time() - t0
    _criterion(
        3,
        "greedy verdicts equal max-flow oracle verdicts on all enumerable "
        "instances (k <= 6, orders <= 6) and on every sweep skeleton",
        disagreements == 0 and skipped == 0 and elapsed < 120,
        f"{instances} instances, {skeletons} skeletons, {disagreements} disagreements, "
        f"{skipped} skipped, {elapsed:.1f}s",
    )


def test_criterion_4_worked_instance():
    p = Params(7, 3, 16, 5)
    classification = classify(p)
    skeleton = construct(p)
    report = verify(skeleton)
    audit = audit_equals_rho(skeleton)
    ok = (
        classification.case is Case.SMALL_A
        and classification.hypotheses[0].name == "(***)"
        and classification.hypotheses[0].slack == 1
        and rho_value(7, 3, 16, 5) == 20
        and skeleton.params.g == 7
        and skeleton.b == 5
        and skeleton.tables[0].at_p == ((0, 3), (1, 2))
        and skeleton.tables[0].at_q == ((3, 1), (4, 3), (5, 1))
        and audit.total == 20
        and report.overall
        and report.all_nodes_exact
    )
    _criterion(
        4,
        "worked instance (7,3,16,5): SMALL_A, (***) slack 1, rho 20, 7 components, "
        "b 5, pinned first-component tables, ledger 20, full verify pass",
        ok,
    )


def test_criterion_5_algebraic_identity():
    rng = random.Random(58121)
    bad = 0
    for _ in range(10_000):
        g = rng.randint(-40, 40)
        r = rng.randint(-40, 40)
        d = rng.randint(-400, 400)
        k = rng.randint(-60, 60)
        lhs = r * r * (g - 1) + 1 + k * (d - r * (g - 1) - k)
        if lhs - rho_value(g, r, d, k) != 0:
            bad += 1
    _criterion(
        5,
        "surplus-sections count r^2(g-1)+1+k(d-r(g-1)-k) equals rho on 10^4 "
        "random integer tuples including negatives",
        bad == 0,
        f"{bad} nonzero residuals",
    )


def test_criterion_6_slope_comparator():
    # k'/r' <= k/r is compared as k'*r <= k*r' on exact integers (ranks >= 1).
    bad = 0
    # scale invariance
    rng = random.Random(4242)
    for _ in range(2000):
        kp, rp, k, r = rng.randint(0, 60), rng.randint(1, 20), rng.randint(0, 60), rng.randint(1, 20)
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        if ((a * kp) * (b * r) <= (b * k) * (a * rp)) != (kp * r <= k * rp):
            bad += 1
    # the subbundle section bound: k' = r'k1 + d2' satisfies k'/r' <= k/r
    # exactly when d2'/r' <= d2/r, for k = r*k1 + d2
    for r in range(1, 21):
        for rp in range(1, 21):
            for k1 in range(0, 4):
                for d2 in range(0, r + 1):
                    for d2p in range(0, rp + 1):
                        kp, k = rp * k1 + d2p, r * k1 + d2
                        if (d2p * r <= d2 * rp) != (kp * r <= k * rp):
                            bad += 1
    _criterion(
        6,
        "slope comparison: scale invariance plus the subbundle section-bound "
        "inequality over all ranks up to 20",
        bad == 0,
        f"{bad} violations",
    )


def test_criterion_7_round_trip_determinism(tmp_path, capsys):
    rng = random.Random(90210)
    pool = list(constructible_tuples(ACCEPTANCE_SWEEP))
    sample = rng.sample(pool, 100)
    bad = []
    for idx, p in enumerate(sample):
        skeleton = construct(p)
        text = skeleton_to_canonical_json(skeleton)
        path = tmp_path / f"skel_{idx}.json"
        code = main(["dump", str(p.g), str(p.r), str(p.d), str(p.k), "--out", str(path)])
        capsys.readouterr()  # swallow the dump confirmation line
        reread = path.read_text(encoding="utf-8").rstrip("\n")
        loaded = load_skeleton_file(str(path))
        rebuilt = skeleton_from_json_dict(skeleton_to_json_dict(skeleton))
        if not (
            code == 0
            and reread == text
            and loaded == skeleton
            and rebuilt == skeleton
            and skeleton_to_canonical_json(loaded) == text
            and verify(loaded).to_canonical_json() == verify(skeleton).to_canonical_json()
        ):
            bad.append(p)
    _criterion(
        7,
        "dump -> read -> verify matches in-memory verify with byte-identical "
        "canonical JSON on 100 random valid tuples",
        not bad,
        f"{len(bad)} round-trip failures",
    )
