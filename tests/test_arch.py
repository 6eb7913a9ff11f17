"""Design-point model: validation, adjacency, parsing, serialization."""

import json
import random

import pytest

from cgraforge.arch import (
    ArchError,
    DesignPoint,
    FabricSpec,
    FuKind,
    ParseError,
    Provenance,
    SwParams,
    Topology,
    design_dict,
    design_fingerprint,
    design_from_dict,
    design_key,
    neighbors,
    parse_design,
    serialize_design,
    validate_design,
)
from helpers import KIND_SUBSETS, make_design, random_design_payload
from oracles import kind_names_by_sorting


def codes(violations):
    return [v.code for v in violations]


class TestValidateDesign:
    def test_clean_design_has_no_violations(self):
        assert validate_design(make_design()) == []

    @pytest.mark.parametrize(
        "kwargs, code",
        [
            ({"rows": 0}, "ROWS_RANGE"),
            ({"rows": 17}, "ROWS_RANGE"),
            ({"cols": 0}, "COLS_RANGE"),
            ({"cols": 25}, "COLS_RANGE"),
            ({"fu_kinds": frozenset(), "data_mem_kb": 0}, "FU_KINDS_EMPTY"),
            ({"config_mem_depth": 0}, "CONFIG_MEM_RANGE"),
            ({"data_mem_kb": -1}, "DATA_MEM_RANGE"),
            ({"unroll_factor": 0}, "UNROLL_RANGE"),
            ({"unroll_factor": 9}, "UNROLL_RANGE"),
            ({"vectorize_factor": 0}, "VECTORIZE_RANGE"),
            ({"vectorize_factor": 5}, "VECTORIZE_RANGE"),
        ],
    )
    def test_each_range_violation(self, kwargs, code):
        assert codes(validate_design(make_design(**kwargs))) == [code]

    def test_data_mem_requires_load_and_store(self):
        kinds = frozenset({FuKind.ADD, FuKind.MUL})
        d = make_design(fu_kinds=kinds, data_mem_kb=8)
        assert codes(validate_design(d)) == ["MISSING_LOADSTORE"]
        assert validate_design(make_design(fu_kinds=kinds, data_mem_kb=0)) == []

    def test_violations_sorted_by_field_then_code(self):
        d = make_design(rows=0, cols=0, config_mem_depth=0, unroll_factor=99)
        got = validate_design(d)
        keys = [(v.field, v.code) for v in got]
        assert keys == sorted(keys)
        assert set(codes(got)) == {"ROWS_RANGE", "COLS_RANGE", "CONFIG_MEM_RANGE", "UNROLL_RANGE"}

    def test_violation_message_names_the_value(self):
        (v,) = validate_design(make_design(rows=0))
        assert "rows" in v.message and "0" in v.message


class TestNeighbors:
    def test_mesh_interior_has_four(self):
        f = make_design(rows=3, cols=3).fabric
        got = neighbors(f, (1, 1))
        assert sorted(got) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_mesh_corner_has_two(self):
        f = make_design(rows=3, cols=3).fabric
        assert sorted(neighbors(f, (0, 0))) == [(0, 1), (1, 0)]

    def test_kingmesh_interior_has_eight(self):
        f = make_design(rows=3, cols=3, topology=Topology.KINGMESH).fabric
        got = neighbors(f, (1, 1))
        assert len(got) == 8
        assert (0, 0) in got and (2, 2) in got

    def test_crossbar_connects_everything(self):
        f = make_design(rows=2, cols=3, topology=Topology.CROSSBAR).fabric
        got = neighbors(f, (0, 0))
        assert sorted(got) == [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_out_of_grid_raises(self):
        f = make_design(rows=2, cols=2).fabric
        with pytest.raises(ArchError) as ei:
            neighbors(f, (2, 0))
        assert ei.value.code == "OUT_OF_GRID"

    def test_no_self_loops_anywhere(self):
        for topo in Topology:
            f = make_design(rows=2, cols=2, topology=topo).fabric
            for r in range(2):
                for c in range(2):
                    assert (r, c) not in neighbors(f, (r, c))


class TestParseDesign:
    def payload(self):
        return {
            "rows": 2,
            "cols": 3,
            "topology": "MESH",
            "fu_kinds": ["ADD", "LOAD", "STORE"],
            "config_mem_depth": 8,
            "data_mem_kb": 4,
            "unroll_factor": 2,
            "vectorize_factor": 1,
        }

    def test_parses_all_fields(self):
        d = parse_design(json.dumps(self.payload()))
        assert d.fabric.rows == 2 and d.fabric.cols == 3
        assert d.fabric.topology is Topology.MESH
        assert d.fabric.fu_kinds == frozenset({FuKind.ADD, FuKind.LOAD, FuKind.STORE})
        assert d.fabric.config_mem_depth == 8 and d.fabric.data_mem_kb == 4
        assert d.sw == SwParams(unroll_factor=2, vectorize_factor=1)
        assert d.provenance is Provenance.PROPOSED
        assert d.note == "parsed"

    def test_id_is_content_hash(self):
        a = parse_design(json.dumps(self.payload()))
        b = parse_design(json.dumps(self.payload(), indent=4))
        assert a.id == b.id
        assert a.id.startswith("d") and len(a.id) == 13

    def test_data_mem_kb_defaults_to_zero(self):
        p = self.payload()
        del p["data_mem_kb"]
        p["fu_kinds"] = ["ADD"]
        assert parse_design(json.dumps(p)).fabric.data_mem_kb == 0

    def test_syntax_error(self):
        with pytest.raises(ParseError) as ei:
            parse_design("{nope")
        assert ei.value.code == "SYNTAX"

    def test_unknown_field(self):
        p = self.payload()
        p["frequency_mhz"] = 200
        with pytest.raises(ParseError) as ei:
            parse_design(json.dumps(p))
        assert ei.value.code == "UNKNOWN_FIELD"

    def test_missing_field(self):
        p = self.payload()
        del p["rows"]
        with pytest.raises(ParseError) as ei:
            parse_design(json.dumps(p))
        assert ei.value.code == "MISSING_FIELD"

    @pytest.mark.parametrize("field, value", [("rows", "2"), ("rows", 2.0), ("rows", True), ("fu_kinds", "ADD")])
    def test_bad_type(self, field, value):
        p = self.payload()
        p[field] = value
        with pytest.raises(ParseError) as ei:
            parse_design(json.dumps(p))
        assert ei.value.code == "BAD_TYPE"

    @pytest.mark.parametrize("field, value", [("topology", "TORUS"), ("fu_kinds", ["ADD", "FMA"])])
    def test_unknown_enum(self, field, value):
        p = self.payload()
        p[field] = value
        with pytest.raises(ParseError) as ei:
            parse_design(json.dumps(p))
        assert ei.value.code == "UNKNOWN_ENUM"

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError):
            parse_design("[1, 2]")


class TestSerializeDesign:
    def test_round_trip_preserves_content(self):
        rng = random.Random(11)
        for _ in range(200):
            payload = random_design_payload(rng)
            d = parse_design(json.dumps(payload))
            d2 = parse_design(serialize_design(d))
            assert d2.fabric == d.fabric
            assert d2.sw == d.sw
            assert d2.id == d.id

    def test_serialization_is_canonical(self):
        rng = random.Random(12)
        for _ in range(50):
            d = parse_design(json.dumps(random_design_payload(rng)))
            text = serialize_design(d)
            assert text == serialize_design(parse_design(text))
            assert text.endswith("\n")
            doc = json.loads(text)
            assert doc["fu_kinds"] == sorted(doc["fu_kinds"])

    def test_fingerprint_ignores_id_and_note(self):
        d = make_design(design_id="a")
        e = DesignPoint(fabric=d.fabric, sw=d.sw, id="b", note="other")
        assert design_fingerprint(d) == design_fingerprint(e)

    def test_fingerprint_tracks_content(self):
        d = make_design(rows=2)
        e = make_design(rows=3)
        assert design_fingerprint(d) != design_fingerprint(e)

    def test_key_separates_exactly_what_serialization_separates(self):
        """Over a pool of designs that often agree on all but one field, or
        on every field but id, note and provenance, two designs share a
        design_key exactly when they serialize to the same text."""
        rng = random.Random(13)
        kind_sets = [frozenset({FuKind.ADD}), frozenset({FuKind.ADD, FuKind.MUL}), frozenset({FuKind.MUL, FuKind.ADD, FuKind.LOAD})]
        pool = []
        for i in range(80):
            pool.append(
                DesignPoint(
                    fabric=FabricSpec(
                        rows=rng.randint(1, 2),
                        cols=rng.randint(1, 2),
                        fu_kinds=frozenset(rng.choice(kind_sets)),
                        config_mem_depth=rng.choice([4, 8]),
                        data_mem_kb=rng.choice([0, 16]),
                        topology=rng.choice([Topology.MESH, Topology.CROSSBAR]),
                    ),
                    sw=SwParams(unroll_factor=rng.randint(1, 2), vectorize_factor=rng.randint(1, 2)),
                    id=f"d{i}",
                    provenance=rng.choice(list(Provenance)),
                    note=rng.choice(["", "x"]),
                )
            )
        same = 0
        for a in pool:
            for b in pool:
                assert (design_key(a) == design_key(b)) == (serialize_design(a) == serialize_design(b)), (a, b)
                same += a is not b and design_key(a) == design_key(b)
        assert same > 0


class TestEnumIdentity:
    """FuKind, Topology and Provenance are str enums whose values are their
    names. Declared API: a member hashes as its name, equals it and
    JSON-encodes as it; str, repr and format are those of a plain Enum."""

    @pytest.mark.parametrize("member", [*FuKind, *Topology, *Provenance], ids=str)
    def test_member_hashes_compares_and_encodes_as_its_name(self, member):
        assert hash(member) == hash(member.name)
        assert member == member.name
        assert json.dumps(member) == json.dumps(member.name)
        cls = type(member).__name__
        assert (str(member), format(member), repr(member)) == (
            f"{cls}.{member.name}",
            f"{cls}.{member.name}",
            f"<{cls}.{member.name}: '{member.name}'>",
        )


class TestKindSetMemos:
    def test_design_dict_names_equal_a_fresh_sort(self):
        """For every kind set, design_dict's fu_kinds equals the sort it
        used to do on each call, on a memo miss and on a hit, and each call
        returns a list of its own."""
        assert len(KIND_SUBSETS) == 4096
        for kinds in KIND_SUBSETS:
            d = make_design(fu_kinds=kinds)
            want = kind_names_by_sorting(kinds)
            first, second = design_dict(d)["fu_kinds"], design_dict(d)["fu_kinds"]
            assert first == second == want
            assert type(first) is list and first is not second
            first.append("SPILL")
            assert design_dict(d)["fu_kinds"] == want

    def test_designs_read_back_share_fabric_and_sw(self):
        """design_from_dict builds the parts of equal field values once;
        the kinds and topology it keeps are members, not names."""
        d = make_design(rows=3, cols=5, topology=Topology.KINGMESH, fu_kinds=frozenset({FuKind.ADD, FuKind.PHI}))
        a = design_from_dict(design_dict(d), "a")
        b = design_from_dict(json.loads(json.dumps(design_dict(d))), "b", Provenance.REPAIRED, "n")
        assert a.fabric is b.fabric and a.sw is b.sw
        assert (a.fabric, a.sw) == (d.fabric, d.sw)
        assert all(type(k) is FuKind for k in a.fabric.fu_kinds) and type(a.fabric.topology) is Topology
