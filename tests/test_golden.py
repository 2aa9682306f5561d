"""Golden digests over every small-regime tuple of g in [2,30], r in [1,5].

Three sha256 digests pin the engine's output on the 17,740 tuples of the
default lattice over those ranges that classify as SMALL_A, SMALL_B or
SMALL_C: one over the canonical skeleton JSON, one over the canonical
ledger JSON and one over the canonical verification report JSON, each
document followed by a newline, in lattice order. A fourth pins the
canonical ledger JSON of the 32,835 LARGE_SECTIONS tuples of the acceptance
lattice (g in [2,12], r in [1,5]). A fifth pins the sweep lines of the
small cases of g in [2,20], r in [1,5], k in (3r, 6r], where k1 = k // r
reaches 6 while the lattices above stop at k = 3r. A refactor of the
recipes, the ledger or the verifier must leave all five unchanged.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from conftest import ACCEPTANCE_SWEEP, constructible_tuples
from ellchain import Case, Params, canonical_dumps, construct, ledger, skeleton_to_canonical_json, verify
from ellchain.cli import SweepConfig, run_sweep

SMALL_FRONTIER = SweepConfig(g=(2, 30), r=(1, 5))
SMALL_TUPLES = 17_740
SKELETON_SHA256 = "790eaddceea548d65bc320c8c0018efa89838d91aaaa3f3ccf98108287e12bae"
LEDGER_SHA256 = "914888a2b0107250822c29c9b9280033dfd72d9757d097302cdde5c8ae3bdefd"
REPORT_SHA256 = "dadbf59e86e847ae9d38c76033e08c30c1c05d8d62443fbf32d2d4f1f56e3c9a"
LARGE_TUPLES = 32_835
LARGE_LEDGER_SHA256 = "3e788883a83c3e65b13a8a0248bf72caf9ad45c4a39757b7644d52b5957bd371"
SMALL_CASES = frozenset({Case.SMALL_A, Case.SMALL_B, Case.SMALL_C})
HIGH_K_COUNTS = {"small_a": 1_880, "small_b": 2_610, "small_c": 420}
HIGH_K_SWEEP_SHA256 = "0f90d99b0779375a90b24941abad3d9ee66bd44cf1303192ab81c4019083b941"


def test_small_regime_golden_digests():
    skeletons, ledgers, reports = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count = 0
    for p in constructible_tuples(SMALL_FRONTIER):
        if p.case is Case.LARGE_SECTIONS:
            continue
        skeleton = construct(p)
        skeletons.update(skeleton_to_canonical_json(skeleton).encode("utf-8") + b"\n")
        ledgers.update(canonical_dumps(ledger(skeleton).to_json_dict()).encode("utf-8") + b"\n")
        reports.update(verify(skeleton).to_canonical_json().encode("utf-8") + b"\n")
        count += 1
    assert count == SMALL_TUPLES
    assert skeletons.hexdigest() == SKELETON_SHA256
    assert ledgers.hexdigest() == LEDGER_SHA256
    assert reports.hexdigest() == REPORT_SHA256


def test_large_sections_ledger_golden_digest():
    ledgers = hashlib.sha256()
    count = 0
    for p in constructible_tuples(ACCEPTANCE_SWEEP):
        if p.case is not Case.LARGE_SECTIONS:
            continue
        ledgers.update(canonical_dumps(ledger(construct(p)).to_json_dict()).encode("utf-8") + b"\n")
        count += 1
    assert count == LARGE_TUPLES
    assert ledgers.hexdigest() == LARGE_LEDGER_SHA256


def test_high_k_small_regime_sweep_digest():
    # A sweep status of pass means the skeleton was built, verified and its
    # ledger equals rho, so this extends the acceptance gate's criteria 1
    # and 2 to the recipe branches that only run at k1 >= 4; criterion 2's
    # exact node pairing is asserted on each skeleton below.
    lines: list[str] = []
    failures = 0
    for r in range(1, 6):
        cfg = SweepConfig(g=(2, 20), r=(r, r), k=(3 * r + 1, 6 * r), cases=SMALL_CASES)
        failures += len(run_sweep(cfg, emit=lines.append).failures)
    fields = [dict(field.split("=") for field in line.split()) for line in lines]
    assert failures == 0 and all(f["status"] == "pass" for f in fields)
    assert Counter(f["case"] for f in fields) == HIGH_K_COUNTS
    assert max(int(f["k"]) // int(f["r"]) for f in fields) == 6
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8"))
    assert digest.hexdigest() == HIGH_K_SWEEP_SHA256
    inexact = [f for f in fields if not verify(construct(Params(*(int(f[key]) for key in "grdk")))).all_nodes_exact]
    assert inexact == []
