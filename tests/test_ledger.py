from __future__ import annotations

import dataclasses

import pytest

from conftest import constructible_tuples
from ellchain import (
    Case,
    Params,
    audit_equals_rho,
    construct,
    ledger,
    rho_value,
)
from ellchain.cli import SweepConfig
from ellchain.ledger import _compact_indices


@pytest.mark.parametrize(
    "tup,expected_total",
    [((7, 3, 16, 5), 20), ((2, 2, 6, 3), 8), ((7, 3, 14, 4), 23), ((4, 2, 8, 4), 5)],
)
def test_ledger_totals(tup, expected_total):
    p = Params(*tup)
    led = ledger(construct(p))
    assert led.total == expected_total == rho_value(p.g, p.r, p.d, p.k)


def test_audit_worked_instance():
    audit = audit_equals_rho(construct(Params(7, 3, 16, 5)))
    assert audit.ok and audit.rho == audit.total == 20


def test_large_sections_rows_are_the_global_count():
    p = Params(2, 2, 6, 3)
    led = ledger(construct(p))
    labels = [row.label for row in led.rows]
    assert labels == ["stable_bundle_family", "section_space_grassmannian"]
    g, r, d, k = 2, 2, 6, 3
    assert led.rows[0].net == r * r * (g - 1)
    assert led.rows[1].net == k * (d - r * (g - 1) - k)
    assert led.total == r * r * (g - 1) + 1 + k * (d - r * (g - 1) - k)


def test_block_rest_rows_net_zero():
    led = ledger(construct(Params(7, 3, 16, 5)))
    by_label = {row.label: row for row in led.rows}
    row = by_label["block_rest"]
    assert row.moduli == 0 and row.autos == 9 and row.gluing == 9
    assert row.net == 0


def test_tail_rows_net_r_squared_each():
    # g = 8 with the (7,3,16,5) small-B shape gives a one-component tail
    p = Params(8, 3, 17, 4)
    led = ledger(construct(p))
    by_label = {row.label: row for row in led.rows}
    tail = by_label["tail"]
    assert tail.count >= 1
    assert tail.moduli == tail.autos == p.r
    assert tail.gluing == p.r * p.r
    assert tail.net == tail.count * p.r * p.r


def test_rows_cover_components_exactly_once():
    for tup in [(7, 3, 16, 5), (7, 3, 14, 4), (4, 2, 8, 4), (6, 3, 16, 5), (7, 3, 21, 6)]:
        p = Params(*tup)
        led = ledger(construct(p))
        covered = [c for row in led.rows if row.components for c in row.components]
        assert sorted(covered) == list(range(1, p.g + 1))


def test_row_dimensions_nonnegative_over_sweep():
    cfg = SweepConfig(g=(2, 9), r=(1, 4))
    for p in constructible_tuples(cfg):
        for row in ledger(construct(p)).rows:
            assert row.moduli >= 0 and row.autos >= 0 and row.gluing >= 0


def test_ledger_gluing_matches_skeleton_gluings():
    # summed over rows, the gluing entries must equal the skeleton's per-node
    # family dimensions (small cases; the global large-sections count has no
    # per-node itemization)
    for tup in [(7, 3, 16, 5), (7, 3, 14, 4), (4, 2, 8, 4), (6, 3, 16, 5), (8, 3, 17, 4)]:
        p = Params(*tup)
        led = ledger(construct(p))
        if led.params.case is Case.LARGE_SECTIONS:
            continue
        s = construct(p)
        per_node = dict(enumerate(s.gluing_dims, 1))
        from_rows: dict[int, int] = {}
        for row in led.rows:
            assert row.components is not None
            for component in row.components:
                if component > 1:
                    from_rows[component - 1] = row.gluing
        assert from_rows == per_node


def test_small_c_closed_form():
    # total = r^2 (g - 1 - k1 t) + 1 with t = g - d1 + k1 - 1
    for tup in [(4, 2, 8, 4), (5, 2, 10, 4), (7, 3, 21, 6)]:
        p = Params(*tup)
        led = ledger(construct(p))
        if led.params.case is not Case.SMALL_C:
            continue
        g, r = p.g, p.r
        k1 = p.k // r
        d1 = p.d // r
        t = g - d1 + k1 - 1
        assert led.total == r * r * (g - 1 - k1 * t) + 1 == rho_value(g, r, p.d, p.k)


def test_audit_json_carries_termwise_breakdown():
    doc = audit_equals_rho(construct(Params(7, 3, 14, 4))).to_json_dict()
    assert doc["ok"] is True and doc["rho"] == doc["total"] == 23
    assert [row["label"] for row in doc["ledger"]["rows"]][0] == "first_component"


def test_ledger_text_rendering():
    text = ledger(construct(Params(7, 3, 16, 5))).to_text()
    assert "total = 20" in text
    assert "block_rest" in text


def test_ledger_reads_gluing_dims_off_the_skeleton():
    # (7,3,16,5): block_first covers components 4 and 6, entered by nodes 3
    # and 5. Three generic lines on component 6 leave node 5 no twisted copy,
    # so its derived dimension is r^2 = 9, not 7, and the row splits per
    # component: C6's bracket goes from 1 - 5 + 7 to 3 - 3 + 9.
    s = construct(Params(7, 3, 16, 5))
    bundles = list(s.bundles)
    bundles[5] = dataclasses.replace(bundles[5], summands=((3, None),))
    led = ledger(dataclasses.replace(s, bundles=tuple(bundles)))
    rows = {row.label: row for row in led.rows}
    assert "block_first" not in rows
    assert rows["block_first[C4]"].gluing == 7 and rows["block_first[C6]"].gluing == 9
    assert led.total == 20 - 3 + 9


def test_compact_indices_joins_contiguous_runs():
    assert _compact_indices((3, 4, 5, 7, 9, 10)) == "3-5,7,9-10"
