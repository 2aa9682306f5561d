from __future__ import annotations

import json

import pytest

from ellchain import Case, Params, construct, verify
from ellchain.cli import (
    SweepConfig,
    analyze,
    iter_tuples,
    load_skeleton_file,
    main,
    run_sweep,
)
from ellchain.errors import ParameterError


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

    def test_oracle_flag(self, capsys):
        code = main(["check", "7", "3", "16", "5", "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle cross-validation: agree" in out


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

    def test_verify_file_json_format(self, tmp_path, capsys):
        path = tmp_path / "skel.json"
        main(["dump", "4", "2", "8", "4", "--out", str(path)])
        capsys.readouterr()
        assert main(["verify-file", str(path), "--format", "json", "--oracle"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] == "pass"
        assert doc["checks"]["node_pairing"]["status"] == "pass"



def _dumped(tmp_path, capsys):
    """Path and parsed document of a fresh `dump 7 3 16 5`."""
    path = tmp_path / "skel.json"
    assert main(["dump", "7", "3", "16", "5", "--out", str(path)]) == 0
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
        path, doc = _dumped(tmp_path, capsys)
        doc["gluings"][0]["parameter_dim"] = 999
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        out = capsys.readouterr().out
        assert "audit: total 1011 == rho 20: MISMATCH" in out
        assert "overall: fail" in out
        assert main(["verify-file", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["overall"] == "pass"
        assert "MISMATCH" in captured.err

    def test_wrong_case_tag_fails_audit(self, tmp_path, capsys):
        path, doc = _dumped(tmp_path, capsys)
        doc["case"] = "small_c"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        out = capsys.readouterr().out
        assert "audit: cannot audit: skeleton is tagged small_c but the tuple classifies as small_a" in out

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
        "field,value",
        [
            (("tables", 0, "at_q"), []),
            (("tables", 1, "at_p"), [[0, 2], [0, 3]]),
            (("tables", 1, "at_p"), [[3, 2], [1, 3]]),
            (("tables", 1, "at_p"), [[0, 2], [1, 0], [2, 3]]),
            (("decomposition", "d1"), 99),
            (("nodes",), []),
        ],
        ids=["empty_side", "duplicate_order", "unsorted_side", "zero_multiplicity",
             "stale_decomposition", "emptied_nodes"],
    )
    def test_inconsistent_document_rejected(self, tmp_path, capsys, field, value):
        path, doc = _dumped(tmp_path, capsys)
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-file", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"cannot load {path}:")
        assert "overall" not in out

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


class TestSweep:
    def test_lattice_order_and_defaults(self):
        cfg = SweepConfig(g=(2, 2), r=(2, 2))
        tuples = list(iter_tuples(cfg))
        assert tuples[0] == (2, 2, 0, 3)
        assert tuples[-1] == (2, 2, 20, 6)
        # k defaults to (r, 3r], d to [0, 5rg]
        assert all(r < k <= 3 * r and 0 <= d <= 5 * r * g for g, r, d, k in tuples)
        assert tuples == sorted(tuples)

    def test_empty_range_empty_table(self, capsys):
        code = main(["sweep", "--g", "2:2", "--r", "2:2", "--d", "5:4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tried=0" in out

    def test_small_sweep_passes(self, capsys):
        code = main(["sweep", "--g", "2:4", "--r", "1:2"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[-1].startswith("summary:") and "failures=0" in out[-1]
        assert any("status=pass" in line for line in out)

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

    def test_corrupt_hook_requires_serial(self):
        with pytest.raises(ParameterError):
            run_sweep(SweepConfig(g=(2, 2), r=(1, 1), jobs=2), corrupt=lambda t, s: s)


def test_analyze_statuses():
    assert analyze(7, 3, 16, 5).status == "pass"
    assert analyze(8, 3, 16, 5).status == "hypothesis_failed"
    assert analyze(2, 2, 6, 2).status == "k_le_r"
    assert analyze(2, 2, 6, 2).exit_code == 2
