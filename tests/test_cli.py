import json
from pathlib import Path

import pytest

from adequate.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_null2_reports_not_abundant(self, capsys):
        code, out, _ = run(capsys, "analyze", str(DATA / "null2.json"))
        assert code == 0
        assert "not abundant" in out

    def test_rect22_profile(self, capsys):
        code, out, _ = run(capsys, "analyze", str(DATA / "rect22.json"))
        assert code == 0
        assert "quasi_adequate" in out
        assert "delta" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "--json", "analyze", str(DATA / "rect22.json"))
        assert code == 0
        report = json.loads(out)
        assert report["profile"]["quasi_adequate"] is True
        assert report["delta"]["is_congruence"] is True
        assert report["gamma_classes"] == [[0, 1, 2, 3]]

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-file.json")
        assert code == 2
        assert "error" in err


class TestTransversals:
    def test_rect22_finds_four(self, capsys):
        code, out, _ = run(capsys, "transversals", str(DATA / "rect22.json"))
        assert code == 0
        assert "4 adequate transversal(s)" in out
        assert "admissible" in out

    def test_seed_only_skips_audit(self, capsys):
        code, out, _ = run(capsys, "--json", "transversals", str(DATA / "rect22.json"),
                           "--seed-only")
        assert code == 0
        report = json.loads(out)
        assert all("audit_failures" not in t for t in report["transversals"])

    def test_null2_has_none(self, capsys):
        code, out, _ = run(capsys, "transversals", str(DATA / "null2.json"))
        assert code == 0
        assert "0 adequate transversal(s)" in out


class TestDecompose:
    def test_rect22_roundtrip_passes(self, capsys):
        code, out, _ = run(capsys, "decompose", str(DATA / "rect22.json"),
                           "--transversal", "t0")
        assert code == 0
        assert "roundtrip: pass" in out

    def test_unknown_subset_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decompose", str(DATA / "rect22.json"),
                           "--transversal", "nope")
        assert code == 2

    def test_brandt_whole(self, capsys):
        code, out, _ = run(capsys, "--json", "decompose", str(DATA / "brandt2.json"),
                           "--transversal", "whole")
        assert code == 0
        report = json.loads(out)
        assert report["roundtrip"]["passed"] is True
        names = {c["name"] for c in report["roundtrip"]["checks"] if c["passed"]}
        assert {"w_isomorphism", "semidirect_roundtrip", "spined_roundtrip"} <= names

    def test_open_subset_is_not_verified(self, capsys, tmp_path):
        obj = json.loads((DATA / "brandt2.json").read_text())
        obj["subsets"] = {"t": [1, 2]}
        path = tmp_path / "b12.json"
        path.write_text(json.dumps(obj))
        reason = "NotAdequateSub: not closed: 1*1 = 0 escapes"
        code, out, err = run(capsys, "decompose", str(path), "--transversal", "t")
        assert code == 1 and err == ""
        assert out.splitlines() == ["brandt2: transversal [1, 2]", "verified: False",
                                    f"reason: {reason}"]
        code, out, err = run(capsys, "--json", "decompose", str(path), "--transversal", "t")
        assert code == 1 and err == ""
        assert json.loads(out) == {"command": "decompose", "name": "brandt2",
                                   "transversal": [1, 2], "verified": False,
                                   "reason": reason}


class TestConstruct:
    def test_general_from_file(self, capsys):
        code, out, _ = run(capsys, "construct", "general", str(DATA / "lz2_structure.json"))
        assert code == 0
        assert "built order 2 semigroup (general)" in out

    def test_quasi_ideal_from_file(self, capsys):
        code, out, _ = run(capsys, "--json", "construct", "quasi-ideal",
                           str(DATA / "lz2_structure.json"))
        assert code == 0
        report = json.loads(out)
        assert report["order"] == 2
        assert report["semigroup"]["subsets"]["transversal"] == [0]

    def test_semidirect_from_file(self, capsys):
        code, out, _ = run(capsys, "construct", "semidirect", str(DATA / "lz2_action.json"))
        assert code == 0
        assert "built order 2 semigroup (semidirect)" in out

    def test_spined_from_file(self, capsys):
        code, out, _ = run(capsys, "--json", "construct", "spined",
                           str(DATA / "spined_rb22.json"))
        assert code == 0
        report = json.loads(out)
        assert report["order"] == 4

    def test_spined_matches_the_copies_without_identify(self, capsys, tmp_path):
        obj = json.loads((DATA / "spined_rb22.json").read_text())
        del obj["identify"]
        path = tmp_path / "noid.json"
        path.write_text(json.dumps(obj))
        code, matched, _ = run(capsys, "--json", "construct", "spined", str(path))
        assert code == 0
        code, given, _ = run(capsys, "--json", "construct", "spined",
                             str(DATA / "spined_rb22.json"))
        assert code == 0 and matched == given

    def test_spined_copies_that_do_not_match_need_identify(self, capsys, tmp_path):
        path = tmp_path / "unmatched.json"
        path.write_text(json.dumps({
            "left": {"table": [[0, 0], [1, 1]]}, "left_transversal": [0],
            "right": {"table": [[0, 0], [0, 1]]}, "right_transversal": [0, 1],
        }))
        code, out, err = run(capsys, "construct", "spined", str(path))
        assert code == 1 and err == ""
        assert out.splitlines() == ["construction rejected: SemigroupError: transversal "
                                    "copies are not isomorphic; supply 'identify'"]

    def test_spined_copies_are_matched_in_sorted_order_only(self, capsys, tmp_path):
        # isomorphic copies, but only under the swap 0 <-> 1: no search is made
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps({
            "left": {"table": [[0, 0], [0, 1]]}, "left_transversal": [0, 1],
            "right": {"table": [[0, 1], [1, 1]]}, "right_transversal": [0, 1],
        }))
        code, out, err = run(capsys, "construct", "spined", str(path))
        assert code == 1 and err == ""
        assert out.splitlines() == ["construction rejected: SemigroupError: transversal "
                                    "copies are not isomorphic; supply 'identify'"]

    def test_corrupted_structure_is_math_failure(self, capsys, tmp_path):
        obj = json.loads((DATA / "lz2_structure.json").read_text())
        obj["alpha"]["0,0"]["0,0"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "construct", "general", str(path))
        assert code == 1
        assert "rejected" in out

    def test_schema_error_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code, _, err = run(capsys, "construct", "general", str(path))
        assert code == 2


class TestCaps:
    def test_gamma_skipped_above_cap(self, capsys, tmp_path):
        from adequate.catalog import catalog
        from adequate.fileio import serialize

        path = tmp_path / "rb24.json"
        serialize(catalog("rect_band(2,4)"), path, name="rb24")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "gamma skipped" in out

    def test_transversal_search_respects_cap(self, capsys, tmp_path):
        from adequate.catalog import catalog
        from adequate.fileio import serialize

        path = tmp_path / "chain9.json"
        serialize(catalog("chain(9)"), path, name="chain9")
        code, _, err = run(capsys, "transversals", str(path))
        assert code == 2
        code, out, _ = run(capsys, "--max-order", "9", "transversals", str(path))
        assert code == 0
        assert "1 adequate transversal(s)" in out

    def test_transversal_search_stops_at_hard_cap(self, capsys, tmp_path):
        from adequate.core import validate_table
        from adequate.fileio import serialize

        path = tmp_path / "chain13.json"
        serialize(validate_table([[min(a, b) for b in range(13)] for a in range(13)]),
                  path, name="chain13")
        code, _, err = run(capsys, "--max-order", "40", "transversals", str(path))
        assert code == 2
        assert "cap 12" in err

    def test_gamma_skipped_above_hard_cap(self, capsys, tmp_path):
        from adequate.catalog import catalog
        from adequate.fileio import serialize

        path = tmp_path / "chain11.json"
        serialize(catalog("chain(11)"), path, name="chain11")
        code, out, _ = run(capsys, "--max-order", "40", "analyze", str(path))
        assert code == 0
        assert "gamma skipped: order 11 above cap 10" in out

    def test_boolean_subset_is_a_schema_error(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"table": [[0, 0], [0, 1]], "subsets": {"t": [True]}}))
        code, out, err = run(capsys, "decompose", str(path), "--transversal", "t")
        assert code == 2 and out == ""
        assert "must list element indices" in err

    def test_boolean_order_is_a_schema_error(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"order": True, "table": [[0]]}))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert "order must be an integer" in err

    @pytest.mark.parametrize("cap", ["0", "1"])
    def test_max_order_zero_is_a_cap_for_transversals(self, capsys, cap):
        code, out, err = run(capsys, "--max-order", cap, "transversals", str(DATA / "rect22.json"))
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: order 4 exceeds the subsemigroup cap {cap}"]

    def test_max_order_zero_is_a_cap_for_gamma(self, capsys):
        code, out, _ = run(capsys, "--max-order", "0", "analyze", str(DATA / "rect22.json"))
        assert code == 0
        assert "gamma skipped: order 4 above cap 0" in out


class TestCensus:
    def test_order_two(self, capsys):
        code, out, _ = run(capsys, "--json", "census", "2")
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["total"] == 5
        assert report["counts"]["with_adequate_transversal"] == 4

    def test_order_above_cap(self, capsys):
        code, _, err = run(capsys, "census", "6")
        assert code == 2


class TestDeterminism:
    def test_reports_are_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "--json", "transversals", str(DATA / "rect22.json"))
        _, out2, _ = run(capsys, "--json", "transversals", str(DATA / "rect22.json"))
        assert out1 == out2

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
