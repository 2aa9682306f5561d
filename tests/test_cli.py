from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ellchain
from conftest import constructible_tuples
from ellchain import (
    Case,
    ComponentBundle,
    Params,
    cli,
    construct,
    skeleton_from_json_dict,
    skeleton_to_canonical_json,
    skeleton_to_json_dict,
    verify,
)
from ellchain.cli import (
    SweepConfig,
    analyze,
    analyze_skeleton,
    iter_tuples,
    load_skeleton_file,
    main,
    run_sweep,
)
from ellchain.errors import ParameterError
from ellchain.oracle import CrossCheck, CrossValidation
from ellchain.skeleton import LimitSeriesSkeleton

DELETE = object()  # a field value meaning "remove the key"


class TestCheckCommand:
    def test_pass_exit_zero(self, capsys):
        code = main(["check", "7", "3", "16", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "case: small_a" in out
        assert "rho: 20" in out
        assert "total = 20" in out
        assert "overall: pass" in out

    def test_hypothesis_failure_exit_two(self, capsys):
        code = main(["check", "8", "3", "16", "5"])
        out = capsys.readouterr().out
        assert code == 2
        assert "(***)" in out and "0 < 1" in out

    def test_k_le_r_exit_two(self, capsys):
        code = main(["check", "2", "2", "6", "2"])
        out = capsys.readouterr().out
        assert code == 2
        assert "k <= r" in out

    def test_json_format(self, capsys):
        code = main(["check", "2", "2", "6", "3", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["case"] == "large_sections"
        assert doc["audit"]["ok"] is True

    @pytest.mark.parametrize(
        "tup, lines, hypotheses",
        [(("7", "3", "16", "5"),
          ["case: small_a",
           "hypothesis (***) holds: g - (k1+1)*(g-d1+k1) = 7 - 2*3 = 1 >= 1 (slack 1)",
           "hypothesis generic_bundle_deficit holds: g - d1 + k1 = 7 - 5 + 1 = 3 >= 1 (slack 3)"],
          [("(***)", 1, 1, 1), ("generic_bundle_deficit", 3, 1, 3)]),
         (("6", "2", "9", "3"),
          ["case: small_b",
           "hypothesis (*) holds: g - (k1+1)*(g-d1+k1-1) = 6 - 2*2 = 2 >= 1 (slack 2)",
           "hypothesis generic_bundle_deficit holds: g + k1 - d1 = 6 + 1 - 4 = 3 >= 2 (slack 2)"],
          [("(*)", 2, 1, 2), ("generic_bundle_deficit", 3, 2, 2)]),
         (("6", "2", "10", "4"),
          ["case: small_c",
           "hypothesis (**) holds: g - k1*(g-d1+k1-1) = 6 - 2*2 = 2 >= 2 (slack 1)"],
          [("(**)", 2, 2, 1)]),
         (("7", "3", "30", "5"),
          ["case: large_sections",
           "hypothesis section_surplus holds: d + r*(1-g) = 30 + 3*(1-7) = 12 >= 5 (slack 8)"],
          [("section_surplus", 12, 5, 8)])],
        ids=["small_a", "small_b", "small_c", "large_sections"],
    )
    def test_classification_lines(self, capsys, tup, lines, hypotheses):
        # The case line and every hypothesis line, in text and in JSON
        # (name, value, min_pass, slack; each one holds).
        assert main(["check", *tup]) == 0
        out = capsys.readouterr().out.splitlines()
        start = out.index(lines[0])
        assert out[start:start + len(lines)] == lines
        assert not out[start + len(lines)].startswith("hypothesis ")
        assert main(["check", *tup, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == lines[0].removeprefix("case: ")
        assert doc["hypotheses"] == [
            {"name": name, "value": value, "min_pass": least, "satisfied": True, "slack": slack}
            for name, value, least, slack in hypotheses
        ]

    def test_oracle_flag(self, capsys):
        code = main(["check", "7", "3", "16", "5", "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle cross-validation: agree" in out

    @pytest.mark.parametrize(
        "tup, line",
        [(("7", "3", "16", "5"), "oracle cross-validation: agree"),
         (("3", "4", "40", "9"), "oracle cross-validation: agree")],
        ids=["agree", "k9"],
    )
    def test_json_oracle_line_on_stderr(self, capsys, tup, line):
        # stdout is the same document with and without --oracle; the oracle
        # verdict goes to stderr, as verify-file --format json prints it.
        assert main(["check", *tup, "--format", "json"]) == 0
        plain = capsys.readouterr()
        assert main(["check", *tup, "--oracle", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain.out and plain.err == ""
        assert captured.err == line + "\n"

    def test_oracle_disagreement_fails_below_verify(self, capsys, monkeypatch):
        disagree = CrossValidation(checks=(CrossCheck(kind="node", index=1, greedy=True, oracle=False),))
        monkeypatch.setattr(cli, "cross_validate", lambda skeleton: disagree)
        assert main(["check", "7", "3", "16", "5", "--oracle"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "oracle cross-validation: DISAGREE" in out and out[-1] == "overall: oracle_disagree"
        assert main(["check", "7", "3", "16", "5", "--oracle", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["status"], doc["detail"]) == ("oracle_disagree", "greedy/oracle disagreement")
        # A verify failure outranks the disagreement.
        s = construct(Params(7, 3, 16, 5))
        assert analyze_skeleton(dataclasses.replace(s, b=s.b + 1), oracle=True).status == "verify_fail"

    @pytest.mark.parametrize(
        "tup, note",
        [(("6", "2", "9", "3"), "note: node 2 links the line block into the glued section space of dimension "
                                "d2-k2 on component 2"),
         (("7", "3", "30", "5"), "note: boundary table reading: the last vanishing at the final point carries "
                                 "the section-count remainder k2=2; the degree remainder d2=0 would break "
                                 "boundary minimality")],
        ids=["small_b", "large_sections"],
    )
    def test_notes_follow_the_verdict(self, capsys, tup, note):
        assert main(["check", *tup]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["overall: pass", note]
        assert "node pairing exact: True" in out


class TestDumpAndVerifyFile:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "skel.json"
        assert main(["dump", "7", "3", "16", "5", "--out", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert doc["b"] == 5
        assert doc["components"] == 7

        assert main(["verify-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out

        # report from file equals the in-memory report byte for byte
        loaded = load_skeleton_file(str(path))
        in_memory = construct(Params(7, 3, 16, 5))
        assert verify(loaded).to_canonical_json() == verify(in_memory).to_canonical_json()

    def test_dump_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["dump", "7", "3", "14", "4", "--out", str(a)])
        main(["dump", "7", "3", "14", "4", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_dump_timestamps_outside_canonical_body(self, tmp_path, capsys):
        plain, stamped = tmp_path / "p.json", tmp_path / "s.json"
        main(["dump", "4", "2", "8", "4", "--out", str(plain)])
        main(["dump", "4", "2", "8", "4", "--out", str(stamped), "--timestamps"])
        capsys.readouterr()
        doc = json.loads(stamped.read_text(encoding="utf-8"))
        assert "generated_at" in doc
        assert doc["canonical"] == json.loads(plain.read_text(encoding="utf-8"))
        assert main(["verify-file", str(stamped)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("generated_at", 5, "generated_at: expected an ISO 8601 time, got 5"),
            ("generated_at", "not a time", "generated_at: expected an ISO 8601 time, got 'not a time'"),
            ("extra", {"x": 1}, "extra: unexpected key in a timestamped dump"),
            ("generated_at", DELETE, "generated_at: missing key in a timestamped dump"),
        ],
        ids=["int_time", "unparsable_time", "extra_key", "missing_time"],
    )
    def test_dump_timestamps_wrapper_checked(self, tmp_path, capsys, key, value, message):
        path = tmp_path / "s.json"
        main(["dump", "7", "3", "16", "5", "--out", str(path), "--timestamps"])
        capsys.readouterr()
        doc = json.loads(path.read_text(encoding="utf-8"))
        if value is DELETE:
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        assert capsys.readouterr().out == f"cannot load {path}: {message}\n"

    def test_dump_rejected_tuple_exit_two(self, tmp_path, capsys):
        code = main(["dump", "8", "3", "16", "5", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "rejected" in capsys.readouterr().out

    def test_dump_unwritable_path_exit_one(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "x.json"
        code = main(["dump", "7", "3", "16", "5", "--out", str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "cannot write" in out and "no-such-dir" in out

    def test_verify_file_missing(self, capsys):
        assert main(["verify-file", "/nonexistent/skel.json"]) == 1
        assert "cannot load" in capsys.readouterr().out
        # In JSON mode stdout carries the report alone, so the line moves to stderr.
        assert main(["verify-file", "/nonexistent/skel.json", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot load" in captured.err

    def test_verify_file_json_format(self, tmp_path, capsys):
        path = tmp_path / "skel.json"
        main(["dump", "4", "2", "8", "4", "--out", str(path)])
        capsys.readouterr()
        assert main(["verify-file", str(path), "--format", "json", "--oracle"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] == "pass"
        assert doc["checks"]["node_pairing"]["status"] == "pass"



def _dumped(tmp_path, capsys, tup=("7", "3", "16", "5")):
    """Path and parsed document of a fresh `dump G R D K`, 7 3 16 5 by default."""
    path = tmp_path / "skel.json"
    assert main(["dump", *tup, "--out", str(path)]) == 0
    capsys.readouterr()
    return path, json.loads(path.read_text(encoding="utf-8"))


class TestVerifyFileAuditAndLoad:
    def test_fresh_dump_audits_ok(self, tmp_path, capsys):
        path, _ = _dumped(tmp_path, capsys)
        assert main(["verify-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "audit: total 20 == rho 20: ok" in out
        assert "overall: pass" in out

    def test_bogus_gluing_dimension_fails_audit(self, tmp_path, capsys):
        # A gluing dimension is derived from the bundles its node joins, so
        # a stale one fails to load before any check or audit runs.
        path, doc = _dumped(tmp_path, capsys)
        doc["gluings"][0]["parameter_dim"] = 999
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        out = capsys.readouterr().out
        assert out == (
            f"cannot load {path}: stale gluings[0].parameter_dim: the document has 999, the skeleton gives 8"
            " (derived from bundles[0], bundles[1] and tables[0].at_q)\n"
        )
        assert main(["verify-file", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "stale gluings[0].parameter_dim" in captured.err

    def test_bogus_large_sections_gluing_dimension_fails_audit(self, tmp_path, capsys):
        path, doc = _dumped(tmp_path, capsys, ("7", "3", "30", "5"))
        assert doc["case"] == "large_sections"
        doc["gluings"][2]["parameter_dim"] = 999
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"cannot load {path}: stale gluings[2].parameter_dim: the document has 999, the skeleton")
        assert out.endswith("gives 9 (derived from bundles[3])\n")

    def test_table_edit_names_the_fields_a_gluing_dimension_reads(self, tmp_path, capsys):
        # Order b = 5 leaves Q1, so node 1's derived dimension moves from 8
        # to 9; the first stale field is the gluing's, and the message names
        # the fields that dimension is read from, the edited table included.
        path, doc = _dumped(tmp_path, capsys)
        doc["tables"][0]["at_q"] = [[3, 4], [4, 5]]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        assert capsys.readouterr().out == (
            f"cannot load {path}: stale gluings[0].parameter_dim: the document has 8, the skeleton gives 9"
            " (derived from bundles[0], bundles[1] and tables[0].at_q)\n"
        )

    def test_moved_gluing_dimension_unit_cannot_load(self, tmp_path, capsys):
        # One unit moved between two nodes keeps the ledger total, so only
        # the per-node derivation catches it.
        path, doc = _dumped(tmp_path, capsys)
        doc["gluings"][0]["parameter_dim"] += 1
        doc["gluings"][1]["parameter_dim"] -= 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        for extra in ([], ["--oracle"]):
            assert main(["verify-file", str(path), *extra]) == 1
            assert capsys.readouterr().out.startswith(f"cannot load {path}: stale gluings[0].parameter_dim:")

    @pytest.mark.parametrize(
        "tup,field,value",
        [
            (("7", "3", "16", "5"), ("bundles", 0, "blocks"), 3),
            (("7", "3", "16", "5"), ("bundles", 1, "summands", 1, "mult"), 5),
            (("7", "3", "30", "5"), ("bundles", 3, "summands", 0, "mult"), 4),
        ],
        ids=["first_special_blocks", "twisted_mult", "generic_line_mult"],
    )
    def test_wrong_bundle_rank_fails_component_feasibility(self, tmp_path, capsys, tup, field, value):
        path, doc = _dumped(tmp_path, capsys, tup)
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        out = capsys.readouterr().out
        assert "verify component_feasibility: fail" in out and "overall: fail" in out
        # The oracle takes the rank as a precondition, so it agrees.
        assert main(["verify-file", str(path), "--oracle"]) == 1
        assert "oracle cross-validation: agree\n" in capsys.readouterr().out

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_block_degree_fails_bundle_shape(self, tmp_path, capsys, delta):
        path, doc = _dumped(tmp_path, capsys)
        assert doc["bundles"][0]["block_degree"] == 16
        doc["bundles"][0]["block_degree"] += delta
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        out = capsys.readouterr().out
        assert "verify component_feasibility: fail" in out and "overall: fail" in out
        assert main(["verify-file", str(path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        violations = report["checks"]["component_feasibility"]["witness"]["components"][0]["violations"]
        assert {"rule": "bundle_shape", "field": "block_degree", "degree": 16 + delta, "expected": 16} in violations
        # The oracle takes the bundle's shape as a precondition, so it agrees.
        assert main(["verify-file", str(path), "--oracle"]) == 1
        assert "oracle cross-validation: agree\n" in capsys.readouterr().out

    def test_wrong_case_tag_fails_audit(self, tmp_path, capsys):
        # The loader takes the case from classifying the params, so a wrong
        # tag is a stale field: the document cannot load.
        path, doc = _dumped(tmp_path, capsys)
        doc["case"] = "small_c"
        path.write_text(json.dumps(doc), encoding="utf-8")
        line = f"cannot load {path}: stale case: the document has 'small_c', the skeleton gives 'small_a'"
        assert main(["verify-file", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [line]
        # JSON mode: stdout is empty and the load failure goes to stderr.
        assert main(["verify-file", str(path), "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [line]
        # An audit mismatch a canonical document can still reach: component 4
        # as O(2P+3Q)^3, with the gluing dimensions the writer derives for it.
        # Every check passes, but the ledger totals 17 against rho 20.
        s = construct(Params(7, 3, 16, 5))
        bundles = list(s.bundles)
        bundles[3] = ComponentBundle("mixed", 15, summands=((3, 2),))
        doc = skeleton_to_json_dict(dataclasses.replace(s, bundles=tuple(bundles)))
        path.write_text(json.dumps(doc), encoding="utf-8")
        line = "audit: total 17 != rho 20: MISMATCH"
        assert main(["verify-file", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert line in out and "overall: fail" in out
        # JSON mode: stdout is the report alone, which passes; the audit line goes to stderr.
        assert main(["verify-file", str(path), "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["overall"] == "pass"
        assert err.splitlines() == [line]
        # verify_fail outranks audit_fail, and the audit line is still printed.
        doc["tables"][1]["at_p"] = [[0, 4]]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "verify node_pairing: fail" in out
        assert line in out

    def test_float_order_rejected(self, tmp_path, capsys):
        path, doc = _dumped(tmp_path, capsys)
        assert doc["tables"][1]["at_p"][2] == [2, 1]
        doc["tables"][1]["at_p"][2][0] = 2.7
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        assert "cannot load" in capsys.readouterr().out

    def test_string_multiplicity_rejected(self, tmp_path, capsys):
        path, doc = _dumped(tmp_path, capsys)
        assert doc["tables"][1]["at_p"][1] == [1, 3]
        doc["tables"][1]["at_p"][1][1] = "3"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        assert "cannot load" in capsys.readouterr().out

    def test_top_level_list_rejected(self, tmp_path, capsys):
        path, doc = _dumped(tmp_path, capsys)
        path.write_text(json.dumps([doc]), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        assert "cannot load" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field,value,named",
        [
            (("tables", 0, "at_q"), [], "tables[0].at_q"),
            (("tables", 1, "at_p"), [[0, 2], [0, 3]], "tables[1].at_p"),
            (("tables", 1, "at_p"), [[3, 2], [1, 3]], "tables[1].at_p"),
            (("tables", 1, "at_p"), [[0, 2], [1, 0], [2, 3]], "tables[1].at_p"),
            (("decomposition", "d1"), 99, "decomposition.d1"),
            (("nodes",), [], "nodes"),
            (("tables", 1, "component"), 5, "tables[1].component"),
            (("bundles", 1, "component"), 9, "bundles[1].component"),
            (("gluings", 0, "node"), 4, "gluings[0].node"),
            (("bundles", 1, "kind"), "bogus", "bundles[1].kind"),
            (("bundles", 1, "summands", 0, "kind"), "generic_line", "bundles[1].summands[0].kind"),
            (("extra",), 1, "extra"),
            (("bundles", 1, "blocks"), 2,
             "bundles[1].blocks: a mixed bundle has no blocks, block_rank or block_degree\n"),
            (("notes",), DELETE, "notes"),
            (("schema",), True, "schema"),
            (("components",), 7.0, "components"),
            (("bundles", 0, "component"), True, "bundles[0].component"),
            (("gluings", 1, "description"), 5, "gluings[1].description"),
            (("notes",), [1, {"x": 2}], "stale notes:"),
            (("bundles", 1, "summands"),
             [{"a": 1, "kind": "twisted", "mult": 1}, {"kind": "generic_line", "mult": 2},
              {"kind": "generic_line", "mult": 0}], "bundles[1].summands"),
            (("bundles", 1, "summands"),
             [{"a": 1, "kind": "twisted", "mult": 1}, {"kind": "generic_line", "mult": 2},
              {"kind": "generic_line", "mult": 1}, {"kind": "generic_line", "mult": -1}], "bundles[1].summands"),
            (("bundles", 0), {"block_degree": -16, "block_rank": -3, "blocks": -1, "component": 1, "degree": 16,
                              "kind": "first_special"}, "bundles[0].blocks"),
            (("bundles", 0, "block_degree"), None,
             "bundles[0].block_degree: a first_special bundle needs a block_degree"),
            (("gluings", 1, "tag"), "generic", "gluings[1].tag"),
            (("gluings", 1, "description"), None, "stale gluings[1].description:"),
            (("gluings", 0, "parameter_dim"), 8.0, "gluings[0].parameter_dim"),
            (("gluings", 1, "description"), "twisted_block->section_chain", "stale gluings[1].description:"),
            (("notes",), ["node 2 links the line block into the glued section space of dimension d2-k2 on component 2"],
             "stale notes:"),
            (("params", "g"), 8, "params: (***) fails: g - (k1+1)*(g-d1+k1) = 8 - 2*4 = 0 < 1"),
            (("params", "k"), 3, "params: k <= r regime not covered (k=3, r=3)"),
            (("params", "g"), 1, "params: genus must be >= 2, got g=1"),
            (("params", "g"), 7.0, "params: g must be an integer, got 7.0"),
            (("bundles", 0, "summands"), [{"kind": "generic_line", "mult": 1}],
             "bundles[0].summands: a first_special bundle has no summands, got 1\n"),
        ],
        ids=["empty_side", "duplicate_order", "unsorted_side", "zero_multiplicity",
             "stale_decomposition", "emptied_nodes", "table_component", "bundle_component",
             "gluing_node", "bogus_bundle_kind", "stale_summand_kind", "extra_top_level_key",
             "blocks_on_mixed_bundle", "deleted_notes", "bool_schema", "float_components",
             "bool_component", "numeric_description", "non_string_notes", "zero_summand", "cancelling_summand",
             "negated_blocks", "null_block_degree", "stale_tag", "description_to_null", "float_parameter_dim", "moved_description",
             "edited_note", "params_failing_hypothesis", "params_k_le_r", "params_genus_below_two",
             "params_float_genus", "summands_on_first_special_bundle"],
    )
    def test_inconsistent_document_rejected(self, tmp_path, capsys, field, value, named):
        path, doc = _dumped(tmp_path, capsys)
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[field[-1]]
        else:
            parent[field[-1]] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"cannot load {path}:")
        assert named in out
        assert "overall" not in out

    @pytest.mark.parametrize("content", [b'{"schema": "\xd0\x00\xff"}', b"[" * 100_000 + b"]" * 100_000],
                             ids=["not_utf8", "nested_too_deep"])
    def test_unreadable_file_cannot_load(self, tmp_path, capsys, content):
        path = tmp_path / "skel.json"
        path.write_bytes(content)
        assert main(["verify-file", str(path)]) == 1
        assert capsys.readouterr().out.startswith(f"cannot load {path}:")
        assert main(["verify-file", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"cannot load {path}:")

    def test_unequal_node_totals_fail_without_traceback(self, tmp_path, capsys):
        # Each component-2 P side totals 4 against node 1's 5 Q-orders; in
        # the second the pairing truncated at the shorter side still clears
        # b. No bijection exists, so the node fails, and --oracle skips it.
        for at_p in ([[0, 4]], [[0, 1], [1, 3]]):
            path, doc = _dumped(tmp_path, capsys)
            doc["tables"][1]["at_p"] = at_p
            path.write_text(json.dumps(doc), encoding="utf-8")
            for extra in ([], ["--oracle"]):
                assert main(["verify-file", str(path), *extra]) == 1
                out = capsys.readouterr().out
                assert "verify node_pairing: fail" in out and "overall: fail" in out
                assert "verify component_feasibility: fail" in out

    def test_oracle_line_on_fresh_dump(self, tmp_path, capsys):
        path, _ = _dumped(tmp_path, capsys)
        assert main(["verify-file", str(path), "--oracle"]) == 0
        assert "oracle cross-validation: agree\n" in capsys.readouterr().out

    def test_oracle_reads_verify_capacity_below_order_zero(self, tmp_path, capsys):
        # verify grants the special first bundle d2 exceptional pairs at any
        # P-order, -1 included; the oracle reads the same capacity, so it
        # agrees, while boundary_minimality and multiplicity_bounds fail.
        path, doc = _dumped(tmp_path, capsys)
        doc["tables"][0]["at_p"] = [[-1, 1], [0, 2], [1, 2]]
        doc["tables"][0]["at_q"] = [[3, 1], [4, 2], [5, 1], [6, 1]]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path), "--oracle"]) == 1
        out = capsys.readouterr().out
        assert "oracle cross-validation: agree\n" in out
        assert "verify component_feasibility: pass" in out
        assert "verify boundary_minimality: fail" in out and "verify multiplicity_bounds: fail" in out

    def test_oracle_checks_a_node_of_size_9(self, tmp_path, capsys):
        # Node 1 pairs 9 Q-orders with 9 P-orders although k = 5; the oracle
        # checks it like any other node. Components 1 and 2 now have sides
        # that total differently, so only they are skipped.
        path, doc = _dumped(tmp_path, capsys)
        doc["tables"][0]["at_q"] = [[3, 4], [4, 5]]
        doc["tables"][1]["at_p"] = [[0, 5], [1, 4]]
        # Order b = 5 leaves Q1, so node 1's derived dimension is r^2 = 9.
        doc["gluings"][0]["parameter_dim"] = 9
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path), "--oracle"]) == 1
        out = capsys.readouterr().out
        assert ("oracle cross-validation: agree, skipped (component 1: sides total 5 and 9; "
                "component 2: sides total 9 and 5)\n") in out
        assert "verify multiplicity_bounds: fail" in out and "overall: fail" in out


class TestSweep:
    def test_lattice_order_and_defaults(self):
        cfg = SweepConfig(g=(2, 2), r=(2, 2))
        tuples = list(iter_tuples(cfg))
        assert tuples[0] == (2, 2, 0, 3)
        assert tuples[-1] == (2, 2, 20, 6)
        # k defaults to (r, 3r], d to [0, 5rg]
        assert all(r < k <= 3 * r and 0 <= d <= 5 * r * g for g, r, d, k in tuples)
        assert tuples == sorted(tuples)

    @pytest.mark.parametrize("name, bounds", [("g", "3:2"), ("r", "2:1"), ("k", "5:3"), ("d", "9:1")])
    def test_empty_range_rejected(self, capsys, name, bounds):
        code = main(["sweep", f"--{name}", bounds])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lo, hi = bounds.split(":")
        assert captured.err == f"error: empty {name} range ({lo}, {hi})\n"

    def test_invalid_jobs_and_format_rejected(self, capsys):
        assert main(["sweep", "--jobs", "0"]) == 1
        assert capsys.readouterr() == ("", "error: jobs must be >= 1\n")
        with pytest.raises(ParameterError, match="format must be text or json, got 'xml'"):
            SweepConfig(g=(2, 2), r=(1, 1), fmt="xml")

    @pytest.mark.parametrize("bounds", ["x:2", "5:", ":5", "1:2:3", "2.5"])
    def test_malformed_range_rejected(self, capsys, bounds):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--g", bounds])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f"ellchain sweep: error: argument --g: expected N or LO:HI, got {bounds!r}\n")

    @pytest.mark.parametrize(
        "name, message",
        [("g", "genus must be >= 2, got g=-2"), ("r", "rank must be >= 1, got r=-2"),
         ("k", "section count must be >= 1, got k=-2"), ("d", "degree must be >= 0, got d=-2")],
    )
    def test_negative_range_reaches_the_range_check(self, capsys, name, message):
        # argparse would read `-2:-1` as an option and exit 2 with "expected
        # one argument"; both spellings must reach the same check.
        for argv in (["sweep", f"--{name}", "-2:-1"], ["sweep", f"--{name}=-2:-1"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n"), argv

    @pytest.mark.parametrize(
        "g, r, message",
        [((2, 2), (0, 0), "rank must be >= 1, got r=0"),
         ((2, 2), (0, 1), "rank must be >= 1, got r=0"),
         ((1, 2), (1, 5), "genus must be >= 2, got g=1"),
         ((1, 2), (0, 1), "genus must be >= 2, got g=1")],
    )
    def test_range_below_the_lowest_tuple_rejected(self, capsys, g, r, message):
        # r = 0 has an empty default k range (0, 0], so no tuple of it would
        # ever reach Params: the range itself is rejected, in Params' words.
        with pytest.raises(ParameterError, match=f"^{message}$"):
            SweepConfig(g=g, r=r)
        code = main(["sweep", "--g", f"{g[0]}:{g[1]}", "--r", f"{r[0]}:{r[1]}"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_small_sweep_passes(self, capsys):
        code = main(["sweep", "--g", "2:4", "--r", "1:2"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[-1].startswith("summary:") and "failures=0" in out[-1]
        assert any("status=pass" in line for line in out)

    def test_whole_trailer(self, capsys):
        # Both formats print the same six counters; the text form keeps their order.
        assert main(["sweep", "--g", "2:3", "--r", "1:2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "summary: tried=262 hypothesis_ok=188 constructed=188 verified=188 ledger_ok=188 failures=0")
        assert main(["sweep", "--g", "2:3", "--r", "1:2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {"summary": {
            "tried": 262, "hypothesis_ok": 188, "constructed": 188, "verified": 188, "ledger_ok": 188, "failures": 0}}

    def test_case_filter(self, capsys):
        code = main(["sweep", "--g", "2:4", "--r", "1:2", "--case", "small_c"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert all("case=small_c" in line for line in out[:-1])

    def test_case_filter_equals_filtered_full_output(self):
        def run(cfg, corrupt=None):
            lines: list[str] = []
            summary = run_sweep(cfg, emit=lines.append, corrupt=corrupt)
            return lines, summary

        full, _ = run(SweepConfig(g=(2, 6), r=(1, 2)))
        wanted = [line for line in full if "case=small_c" in line]
        assert len(wanted) >= 3 and all("status=pass" in line for line in wanted)
        lines, summary = run(SweepConfig(g=(2, 6), r=(1, 2), cases=frozenset({Case.SMALL_C})))
        assert lines == wanted
        assert (summary.tried, summary.constructed, summary.verified, summary.failures) == (
            len(wanted), len(wanted), len(wanted), [])

        # A corrupted verdict on the second selected tuple stops a fail-fast
        # sweep right after its line.
        second = tuple(int(f.split("=")[1]) for f in wanted[1].split()[:4])

        def corrupt(tup, status):
            return "verify_fail" if tup == second else status

        lines, summary = run(
            SweepConfig(g=(2, 6), r=(1, 2), cases=frozenset({Case.SMALL_C}), fail_fast=True), corrupt)
        assert lines == [wanted[0], wanted[1].replace("status=pass", "status=verify_fail")]
        assert summary.failures == [second]

    def test_json_lines(self, capsys):
        main(["sweep", "--g", "2:2", "--r", "1:1", "--format", "json"])
        lines = capsys.readouterr().out.strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert docs[-1].keys() == {"summary"}
        assert all("status" in doc for doc in docs[:-1])

    def test_parallel_matches_serial(self):
        cfg = SweepConfig(g=(2, 4), r=(1, 2))
        serial: list[str] = []
        run_sweep(cfg, emit=serial.append)
        parallel: list[str] = []
        run_sweep(SweepConfig(g=(2, 4), r=(1, 2), jobs=2), emit=parallel.append)
        assert serial == parallel

    def test_fail_fast_with_injected_corruption(self):
        lines: list[str] = []
        seen: list[tuple[int, int, int, int]] = []

        def corrupt(tup, status):
            if status == "pass":
                seen.append(tup)
                return "verify_fail" if len(seen) == 3 else status
            return status

        cfg = SweepConfig(g=(2, 5), r=(1, 2), fail_fast=True)
        summary = run_sweep(cfg, emit=lines.append, corrupt=corrupt)
        assert summary.failures == [seen[2]]
        assert len(seen) == 3  # stopped at the first failure
        assert not summary.ok

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # The pool forks all its workers at once; a fake records the size
        # asked for and maps serially, so no process is started.
        sizes: list[int] = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        serial: list[str] = []
        run_sweep(SweepConfig(g=(2, 3), r=(1, 1)), emit=serial.append)
        # run_sweep imports the pool class when it needs one, so the fake
        # replaces it in concurrent.futures.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pooled: list[str] = []
        run_sweep(SweepConfig(g=(2, 3), r=(1, 1), jobs=5000), emit=pooled.append)
        assert sizes == [2]
        assert pooled == serial

    def test_corrupt_hook_requires_serial(self):
        with pytest.raises(ParameterError):
            run_sweep(SweepConfig(g=(2, 2), r=(1, 1), jobs=2), corrupt=lambda t, s: s)

    def test_cli_import_loads_no_pool(self):
        # Only `sweep --jobs N` with N > 1 needs a process pool, so no other
        # command pays for loading multiprocessing at start-up.
        src = str(Path(ellchain.__file__).resolve().parents[1])
        code = ("import ellchain.cli, sys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "[]\n"

    def test_closed_pipe_exits_quietly(self):
        # `ellchain sweep | head -1`: the default lattice overflows the pipe
        # buffer, so the sweep writes into a pipe its reader has closed.
        src = str(Path(ellchain.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "ellchain.cli", "sweep"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"g=2 r=1 ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (1, b"")


def test_analyze_statuses():
    assert analyze(7, 3, 16, 5).status == "pass"
    assert analyze(8, 3, 16, 5).status == "hypothesis_failed"
    assert analyze(2, 2, 6, 2).status == "k_le_r"
    assert analyze(2, 2, 6, 2).exit_code == 2


def test_built_and_reloaded_skeletons_share_one_verdict():
    # check and sweep analyse a built skeleton, verify-file a reloaded one.
    for p in constructible_tuples(SweepConfig(g=(2, 8), r=(1, 3))):
        built = analyze(p.g, p.r, p.d, p.k)
        reloaded = analyze_skeleton(skeleton_from_json_dict(json.loads(skeleton_to_canonical_json(built.skeleton))))
        assert (reloaded.status, reloaded.rho) == (built.status, built.rho), p
        assert reloaded.report.to_canonical_json() == built.report.to_canonical_json(), p
        assert reloaded.audit.to_json_dict() == built.audit.to_json_dict(), p


def test_boundary_check_is_bounded_by_the_document_not_its_k(tmp_path, capsys):
    # The (2,1,3,2) skeleton with params (2, 1, K + 1, K) loads: its
    # minimal boundary table would have K runs, but its sides have 2, so
    # text-mode verify-file decides every status without building it.
    k = 10**6
    s = construct(Params(2, 1, 3, 2))
    path = tmp_path / "gap_b.json"
    doc = skeleton_to_json_dict(LimitSeriesSkeleton(Params(2, 1, k + 1, k), s.b, s.bundles, s.tables))
    path.write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        assert main(["verify-file", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("verify ")] == [
        "verify degree_balance: fail", "verify node_pairing: pass", "verify component_feasibility: fail",
        "verify boundary_minimality: fail", "verify multiplicity_bounds: fail", "verify genericity: assumed",
    ]
    assert lines[-1] == "overall: fail"
    assert peak < 8 * 2**20
