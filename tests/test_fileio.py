import json
from pathlib import Path

import pytest

from adequate.catalog import catalog
from adequate.core import validate_table
from adequate.construct import build_w, build_semidirect
from adequate.decompose import extract_action, extract_structure
from adequate.errors import SchemaError
from adequate.fileio import (
    action_table_to_obj,
    parse_action_table,
    parse_semigroup,
    parse_spined_input,
    parse_structure_input,
    semigroup_to_obj,
    serialize,
    serialize_action_table,
    serialize_structure_input,
)
from adequate.transversal import verify_adequate_transversal

DATA = Path(__file__).parent / "data"


class TestSemigroupFiles:
    def test_roundtrip(self, tmp_path):
        S = catalog("chain(2)")
        path = tmp_path / "chain2.json"
        serialize(S, path, name="chain2", subsets={"all": (0, 1)})
        sf = parse_semigroup(path)
        assert sf.semigroup == S
        assert sf.name == "chain2"
        assert sf.subsets == {"all": (0, 1)}

    def test_roundtrip_is_lossless_on_reserialize(self, tmp_path):
        S = catalog("brandt2")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        serialize(S, p1, name="x")
        serialize(parse_semigroup(p1).semigroup, p2, name="x")
        assert p1.read_text() == p2.read_text()

    def test_brandt_golden_file(self):
        sf = parse_semigroup(DATA / "brandt2.json")
        assert sf.semigroup.order == 5
        assert sf.semigroup == catalog("brandt2")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"order": 2, "table": [[0, 0, 0], [0, 1]]}))
        with pytest.raises(SchemaError):
            parse_semigroup(path)

    def test_non_associative_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"table": [[1, 0], [0, 0]]}))
        with pytest.raises(SchemaError):
            parse_semigroup(path)

    def test_subset_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"table": [[0, 0], [0, 1]], "subsets": {"t": [0, 5]}}))
        with pytest.raises(SchemaError):
            parse_semigroup(path)

    @pytest.mark.parametrize("order", [True, 1.0])
    def test_order_must_be_an_integer(self, tmp_path, order):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"order": order, "table": [[0]]}))
        with pytest.raises(SchemaError, match="order must be an integer"):
            parse_semigroup(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(SchemaError):
            parse_semigroup(path)


class TestStructureFiles:
    def test_golden_structure_file_builds_left_zero(self):
        si = parse_structure_input(DATA / "lz2_structure.json")
        b = build_w(si)
        assert b.w.order == 2

    def test_extracted_structure_roundtrips(self, tmp_path):
        rb = catalog("rect_band(2,2)")
        D = verify_adequate_transversal(rb, (0,))
        si = extract_structure(rb, D)
        path = tmp_path / "si.json"
        serialize_structure_input(si, path)
        si2 = parse_structure_input(path)
        assert si2.s0 == si.s0
        assert si2.alpha == si.alpha and si2.beta == si.beta
        assert si2.e0_in_i == si.e0_in_i

    def test_missing_field(self, tmp_path):
        path = tmp_path / "si.json"
        path.write_text(json.dumps({"s0": {"table": [[0]]}}))
        with pytest.raises(SchemaError):
            parse_structure_input(path)

    def test_bad_family_key(self, tmp_path):
        path = tmp_path / "si.json"
        obj = json.loads((DATA / "lz2_structure.json").read_text())
        obj["alpha"] = {"0": {"0,0": 0}}
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError):
            parse_structure_input(path)


class TestActionFiles:
    def test_golden_action_file_builds_left_zero(self):
        at = parse_action_table(DATA / "lz2_action.json")
        b = build_semidirect(at)
        assert b.w.order == 2

    def test_extracted_action_roundtrips(self, tmp_path):
        lrb = catalog("lrb3")
        D = verify_adequate_transversal(lrb, (0, 2))
        at = extract_action(lrb, D)
        path = tmp_path / "at.json"
        serialize_action_table(at, path)
        at2 = parse_action_table(path)
        assert at2.act == at.act
        assert at2.s0 == at.s0 and at2.i_band == at.i_band

    def test_action_values_must_be_integers(self, tmp_path):
        path = tmp_path / "at.json"
        obj = json.loads((DATA / "lz2_action.json").read_text())
        obj["action"]["0,0"] = "zero"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError):
            parse_action_table(path)


class TestSpinedFiles:
    def test_golden_spined_file(self):
        sp = parse_spined_input(DATA / "spined_rb22.json")
        assert sp.left.order == 2 and sp.right.order == 2
        assert sp.identify == {0: 0}

    def test_identify_optional(self, tmp_path):
        obj = json.loads((DATA / "spined_rb22.json").read_text())
        del obj["identify"]
        path = tmp_path / "sp.json"
        path.write_text(json.dumps(obj))
        sp = parse_spined_input(path)
        assert sp.identify is None

    def test_transversal_indices_checked(self, tmp_path):
        obj = json.loads((DATA / "spined_rb22.json").read_text())
        obj["left_transversal"] = [9]
        path = tmp_path / "sp.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError):
            parse_spined_input(path)


class TestBooleansAreNotIndices:
    """JSON true and false are Python ints; no index field accepts them."""

    @staticmethod
    def write(tmp_path, obj):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(obj))
        return path

    def test_subset_member(self, tmp_path):
        path = self.write(tmp_path, {"table": [[0, 0], [0, 1]], "subsets": {"t": [True]}})
        with pytest.raises(SchemaError, match="subset 't' must list element indices"):
            parse_semigroup(path)

    @pytest.mark.parametrize("field", ["left_transversal", "right_transversal"])
    def test_spined_transversal_member(self, tmp_path, field):
        obj = json.loads((DATA / "spined_rb22.json").read_text())
        obj[field] = [False]
        with pytest.raises(SchemaError, match=f"{field} must list element indices"):
            parse_spined_input(self.write(tmp_path, obj))

    def test_identify_value(self, tmp_path):
        obj = json.loads((DATA / "spined_rb22.json").read_text())
        obj["identify"] = {"0": False}
        with pytest.raises(SchemaError, match="identify"):
            parse_spined_input(self.write(tmp_path, obj))

    @pytest.mark.parametrize("field", ["e0_in_i", "e0_in_lambda"])
    def test_embedding_value(self, tmp_path, field):
        obj = json.loads((DATA / "lz2_structure.json").read_text())
        obj[field] = {"0": False}
        with pytest.raises(SchemaError, match=field):
            parse_structure_input(self.write(tmp_path, obj))

    @pytest.mark.parametrize("family", ["alpha", "beta"])
    def test_family_value(self, tmp_path, family):
        obj = json.loads((DATA / "lz2_structure.json").read_text())
        obj[family]["0,0"]["0,1"] = False
        with pytest.raises(SchemaError, match=family):
            parse_structure_input(self.write(tmp_path, obj))

    def test_action_value(self, tmp_path):
        obj = json.loads((DATA / "lz2_action.json").read_text())
        obj["action"]["0,1"] = False
        with pytest.raises(SchemaError, match="action"):
            parse_action_table(self.write(tmp_path, obj))
