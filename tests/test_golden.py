"""Golden digests over every small-regime tuple of g in [2,30], r in [1,5].

Three sha256 digests pin the engine's output on the 17,740 tuples of the
default lattice over those ranges that classify as SMALL_A, SMALL_B or
SMALL_C: one over the canonical skeleton JSON, one over the canonical
ledger JSON and one over the canonical verification report JSON, each
document followed by a newline, in lattice order. A fourth pins the
canonical ledger JSON of the 32,835 LARGE_SECTIONS tuples of the acceptance
lattice (g in [2,12], r in [1,5]). A refactor of the recipes, the ledger or
the verifier must leave all four unchanged.
"""

from __future__ import annotations

import hashlib

from conftest import ACCEPTANCE_SWEEP, constructible_tuples
from ellchain import Case, construct, ledger, skeleton_to_canonical_json, verify
from ellchain.cli import SweepConfig

SMALL_FRONTIER = SweepConfig(g=(2, 30), r=(1, 5))
SMALL_TUPLES = 17_740
SKELETON_SHA256 = "790eaddceea548d65bc320c8c0018efa89838d91aaaa3f3ccf98108287e12bae"
LEDGER_SHA256 = "914888a2b0107250822c29c9b9280033dfd72d9757d097302cdde5c8ae3bdefd"
REPORT_SHA256 = "dadbf59e86e847ae9d38c76033e08c30c1c05d8d62443fbf32d2d4f1f56e3c9a"
LARGE_TUPLES = 32_835
LARGE_LEDGER_SHA256 = "3e788883a83c3e65b13a8a0248bf72caf9ad45c4a39757b7644d52b5957bd371"


def test_small_regime_golden_digests():
    skeletons, ledgers, reports = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count = 0
    for p, classification in constructible_tuples(SMALL_FRONTIER):
        if classification.case is Case.LARGE_SECTIONS:
            continue
        skeleton = construct(p)
        skeletons.update(skeleton_to_canonical_json(skeleton).encode("utf-8") + b"\n")
        ledgers.update(ledger(skeleton).to_canonical_json().encode("utf-8") + b"\n")
        reports.update(verify(skeleton).to_canonical_json().encode("utf-8") + b"\n")
        count += 1
    assert count == SMALL_TUPLES
    assert skeletons.hexdigest() == SKELETON_SHA256
    assert ledgers.hexdigest() == LEDGER_SHA256
    assert reports.hexdigest() == REPORT_SHA256


def test_large_sections_ledger_golden_digest():
    ledgers = hashlib.sha256()
    count = 0
    for p, classification in constructible_tuples(ACCEPTANCE_SWEEP):
        if classification.case is not Case.LARGE_SECTIONS:
            continue
        ledgers.update(ledger(construct(p)).to_canonical_json().encode("utf-8") + b"\n")
        count += 1
    assert count == LARGE_TUPLES
    assert ledgers.hexdigest() == LARGE_LEDGER_SHA256
