"""Cost surrogate, objectives, and the authoritative evaluator."""

import json
import random

import pytest

from cgraforge.costs import (
    BIG,
    CostConfigError,
    EvalError,
    EvalReport,
    Objective,
    ObjectiveMode,
    estimate_ppa,
    load_cost_coeffs,
    score_point,
    tool_evaluate,
    tool_select,
)
from cgraforge.arch import FuKind, Topology
from cgraforge.mapper import MappedDesign, MappingResult, speedup
from helpers import FULL_FABRIC, KIND_SUBSETS, chain_kernel, make_design, map_checked, random_design
from oracles import estimate_ppa_by_sorting

COEFFS = load_cost_coeffs()
MIN_POWER = Objective(mode=ObjectiveMode.MIN_POWER, min_speedup=1.5)
MAX_EFF = Objective(mode=ObjectiveMode.MAX_POWER_EFFICIENCY, min_speedup=1.5)


def coeff_payload():
    doc = {
        "fu_power_mw": {k.name: 0.01 * (i + 1) for i, k in enumerate(FuKind)},
        "fu_area_kum2": {k.name: 0.5 * (i + 1) for i, k in enumerate(FuKind)},
        "tile_base_power_mw": 0.05,
        "tile_base_area_kum2": 2.0,
        "ctx_power_mw": 0.002,
        "ctx_area_kum2": 0.1,
        "data_mem_area_kum2_per_kb": 1.5,
        "wiring_mult": {"MESH": 1.0, "KINGMESH": 1.25, "CROSSBAR": 1.8},
        "lane_power_slope": 0.6,
        "lane_area_slope": 0.7,
        "activity_power_mw_per_op": 0.004,
    }
    return doc


def mapped(design, kernel=None):
    k = kernel or chain_kernel()
    m = map_checked(k, design.fabric)
    return MappedDesign(design=design, mapping=m, trip_after=k.trip_count, speedup=1.0), k


class TestLoadCostCoeffs:
    def test_packaged_defaults_load(self):
        c = load_cost_coeffs()
        assert set(c.fu_power_mw) == set(FuKind)
        assert set(c.wiring_mult) == set(Topology)

    def test_custom_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(coeff_payload()))
        c = load_cost_coeffs(p)
        assert c.tile_base_power_mw == 0.05

    @pytest.mark.parametrize(
        "mutate, code",
        [
            (lambda d: d.pop("ctx_power_mw"), "MISSING_FIELD"),
            (lambda d: d.update(leakage=1.0), "UNKNOWN_FIELD"),
            (lambda d: d["fu_power_mw"].pop("MAC"), "MISSING_FIELD"),
            (lambda d: d["fu_power_mw"].update(FMA=0.1), "UNKNOWN_FIELD"),
            (lambda d: d["fu_area_kum2"].update(ADD=0.0), "BAD_VALUE"),
            (lambda d: d.update(lane_power_slope=-1.0), "BAD_VALUE"),
            (lambda d: d["wiring_mult"].update(CROSSBAR=0.9), "BAD_VALUE"),
            (lambda d: d["wiring_mult"].update(KINGMESH=1.0), "BAD_VALUE"),  # MESH == KINGMESH
            (lambda d: d["wiring_mult"].update(KINGMESH=1.8), "BAD_VALUE"),  # KINGMESH == CROSSBAR
            (lambda d: d["wiring_mult"].update(MESH=0.0), "BAD_VALUE"),
            (lambda d: d["wiring_mult"].pop("KINGMESH"), "MISSING_FIELD"),
            (lambda d: d.update(ctx_power_mw=float("nan")), "BAD_VALUE"),
            (lambda d: d.update(ctx_power_mw=float("inf")), "BAD_VALUE"),
            (lambda d: d["fu_power_mw"].update(ADD=float("-inf")), "BAD_VALUE"),
            (lambda d: d["wiring_mult"].update(MESH=float("nan")), "BAD_VALUE"),
            (lambda d: d.update(ctx_power_mw=True), "BAD_TYPE"),
            (lambda d: d.update(ctx_power_mw="abc"), "BAD_TYPE"),
            (lambda d: d["fu_area_kum2"].update(ADD="0.1"), "BAD_TYPE"),
            (lambda d: d.update(wiring_mult=[1.0, 1.2, 1.5]), "BAD_TYPE"),
            (lambda d: d["wiring_mult"].update(TORUS=2.0), "UNKNOWN_FIELD"),
        ],
    )
    def test_rejects_bad_files(self, tmp_path, mutate, code):
        doc = coeff_payload()
        mutate(doc)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(EvalError) as ei:
            load_cost_coeffs(p)
        assert ei.value.code == code

    @pytest.mark.parametrize("text, code", [("[1]", "BAD_TYPE"), ('"abc"', "BAD_TYPE"), ("{nope", "SYNTAX")])
    def test_rejects_a_file_that_is_not_an_object(self, tmp_path, text, code):
        p = tmp_path / "c.json"
        p.write_text(text)
        with pytest.raises(CostConfigError) as ei:
            load_cost_coeffs(p)
        assert ei.value.code == code

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(CostConfigError) as ei:
            load_cost_coeffs(tmp_path / "missing.json")
        assert ei.value.code == "UNREADABLE" and "cannot read" in str(ei.value)

    def test_a_loaded_table_cannot_be_changed(self):
        """Equal texts load as one shared object, so its tables are read-only."""
        c = load_cost_coeffs()
        assert load_cost_coeffs() is c
        for table, key in ((c.fu_power_mw, FuKind.ADD), (c.fu_area_kum2, FuKind.ADD), (c.wiring_mult, Topology.MESH)):
            with pytest.raises(TypeError):
                table[key] = 9.0
        assert load_cost_coeffs().fu_power_mw == c.fu_power_mw

    def test_wiring_order_is_strict_in_defaults(self):
        c = load_cost_coeffs()
        assert 0 < c.wiring_mult[Topology.MESH] < c.wiring_mult[Topology.KINGMESH] < c.wiring_mult[Topology.CROSSBAR]


class TestEstimatePpa:
    def test_matches_documented_formula(self):
        d = make_design(rows=2, cols=3, topology=Topology.KINGMESH, config_mem_depth=8, data_mem_kb=4, vectorize_factor=2)
        md, _ = mapped(d)
        power, area = estimate_ppa(d, md.mapping, COEFFS)
        c = COEFFS
        tiles = 6
        lane_p = 1.0 + c.lane_power_slope * 1
        lane_a = 1.0 + c.lane_area_slope * 1
        w = c.wiring_mult[Topology.KINGMESH]
        tile_power = c.tile_base_power_mw + sum(c.fu_power_mw[k] for k in d.fabric.fu_kinds) * lane_p
        tile_area = c.tile_base_area_kum2 + sum(c.fu_area_kum2[k] for k in d.fabric.fu_kinds) * lane_a
        want_area = w * (tiles * tile_area + 8 * c.ctx_area_kum2 * tiles + 4 * c.data_mem_area_kum2_per_kb)
        want_power = w * (tiles * tile_power + 8 * c.ctx_power_mw * tiles)
        want_power += c.activity_power_mw_per_op * (len(md.mapping.schedule) / md.mapping.ii) * lane_p
        assert power == pytest.approx(want_power, rel=1e-12)
        assert area == pytest.approx(want_area, rel=1e-12)

    def test_monotone_in_tiles_kinds_depth(self):
        base = make_design(rows=2, cols=2, config_mem_depth=4)
        md, _ = mapped(base)
        p0, a0 = estimate_ppa(base, md.mapping, COEFFS)
        for kwargs in ({"rows": 2, "cols": 2, "config_mem_depth": 8}, {"rows": 3, "cols": 2, "config_mem_depth": 4}):
            d = make_design(**kwargs)
            p1, a1 = estimate_ppa(d, md.mapping, COEFFS)
            assert p1 > p0 and a1 > a0
        small_kinds = make_design(rows=2, cols=2, config_mem_depth=4, fu_kinds=frozenset({FuKind.ADD}), data_mem_kb=0)
        p2, a2 = estimate_ppa(small_kinds, md.mapping, COEFFS)
        assert p2 < p0 and a2 < a0

    def test_data_mem_is_area_only(self):
        d0 = make_design(data_mem_kb=0, fu_kinds=frozenset({FuKind.ADD}))
        d1 = make_design(data_mem_kb=32)
        md, _ = mapped(make_design())
        kinds = frozenset({FuKind.ADD, FuKind.LOAD, FuKind.STORE})
        lo = make_design(data_mem_kb=0, fu_kinds=kinds)
        hi = make_design(data_mem_kb=32, fu_kinds=kinds)
        p_lo, a_lo = estimate_ppa(lo, md.mapping, COEFFS)
        p_hi, a_hi = estimate_ppa(hi, md.mapping, COEFFS)
        assert p_lo == p_hi
        assert a_hi > a_lo

    def test_wiring_order_visible_in_power(self):
        md, _ = mapped(make_design())
        powers = []
        for topo in (Topology.MESH, Topology.KINGMESH, Topology.CROSSBAR):
            d = make_design(topology=topo)
            powers.append(estimate_ppa(d, md.mapping, COEFFS)[0])
        assert powers[0] < powers[1] < powers[2]

    def test_equals_a_fresh_sum_to_the_bit_for_every_kind_set(self, tmp_path):
        """With the per-kind-set sums kept on the coefficients, every kind
        set still gets the bits that sorting and summing on each call gave,
        on a miss and on a hit, under the packaged coefficients and under a
        file whose random coefficients make the summing order show."""
        rng = random.Random(5)
        doc = coeff_payload()
        for table in ("fu_power_mw", "fu_area_kum2"):
            doc[table] = {k.name: rng.uniform(0.001, 3.0) for k in FuKind}
        path = tmp_path / "random.json"
        path.write_text(json.dumps(doc))
        custom = load_cost_coeffs(path)
        m = MappingResult(ii=3, schedule={0: ((0, 0), 0), 1: ((0, 1), 2)}, schedule_len=4)
        assert len(KIND_SUBSETS) == 4096
        for c in (COEFFS, custom):
            for i, kinds in enumerate(KIND_SUBSETS):
                d = make_design(
                    rows=1 + i % 4, topology=tuple(Topology)[i % 3], fu_kinds=kinds, vectorize_factor=1 + i % 4
                )
                want = tuple(map(float.hex, estimate_ppa_by_sorting(d, m, c)))
                for _ in range(2):
                    assert tuple(map(float.hex, estimate_ppa(d, m, c))) == want, sorted(kinds)
        assert len(custom.kind_sums) == 4096


class TestScorePoint:
    def test_min_power_feasible_is_power(self):
        assert score_point(MIN_POWER, 2.0, 3.25) == 3.25

    def test_min_power_infeasible_penalty(self):
        assert score_point(MIN_POWER, 1.0, 3.25) == BIG + 0.5

    def test_max_efficiency_feasible(self):
        assert score_point(MAX_EFF, 3.0, 2.0) == -1.5

    def test_max_efficiency_infeasible_penalty(self):
        assert score_point(MAX_EFF, 0.25, 2.0) == BIG + 1.25

    def test_any_feasible_beats_any_infeasible(self):
        assert score_point(MIN_POWER, 1.5, 999_999.0) < score_point(MIN_POWER, 1.499999, 0.001)

    @pytest.mark.parametrize("obj, score", [(MIN_POWER, 2.0), (MAX_EFF, -0.75)], ids=["min_power", "max_eff"])
    def test_a_speedup_at_min_speedup_is_feasible(self, obj, score):
        assert score_point(obj, obj.min_speedup, 2.0) == score


class TestToolEvaluate:
    def test_report_fields_are_consistent(self):
        k = chain_kernel(length=3, latency=4, trip_count=64)
        d = make_design(design_id="r1")
        m = map_checked(k, d.fabric)
        cand = MappedDesign(design=d, mapping=m, trip_after=64, speedup=speedup(k, m, 64))
        (rep,) = tool_evaluate([cand], MIN_POWER, COEFFS)
        assert rep.design_id == "r1"
        assert rep.speedup == cand.speedup > 0
        assert rep.power_efficiency == rep.speedup / rep.power_mw
        assert rep.feasible == (rep.speedup >= MIN_POWER.min_speedup)
        assert rep.score == score_point(MIN_POWER, rep.speedup, rep.power_mw)

    def test_preserves_input_order(self):
        k = chain_kernel()
        cands = []
        for name in ("z", "a", "m"):
            d = make_design(design_id=name)
            m = map_checked(k, d.fabric)
            sp = speedup(k, m, k.trip_count)
            cands.append(MappedDesign(design=d, mapping=m, trip_after=k.trip_count, speedup=sp))
        reports = tool_evaluate(cands, MIN_POWER, COEFFS)
        assert [r.design_id for r in reports] == ["z", "a", "m"]

    @pytest.mark.parametrize("obj", [MIN_POWER, MAX_EFF], ids=["min_power", "max_eff"])
    def test_a_speedup_at_min_speedup_is_feasible(self, obj):
        cand, _ = mapped(make_design())
        (rep,) = tool_evaluate([MappedDesign(cand.design, cand.mapping, cand.trip_after, obj.min_speedup)], obj, COEFFS)
        assert rep.feasible is True
        assert rep.score == score_point(obj, obj.min_speedup, rep.power_mw) < BIG

    def test_unmapped_candidate_raises(self):
        k = chain_kernel()
        cand = MappedDesign(design=make_design(), mapping=None, trip_after=k.trip_count, speedup=0.0)
        with pytest.raises(EvalError) as ei:
            tool_evaluate([cand], MIN_POWER, COEFFS)
        assert ei.value.code == "EVAL_ON_UNMAPPED"


class TestToolSelect:
    def report(self, design_id, score):
        return EvalReport(
            design_id=design_id, speedup=2.0, power_mw=1.0, area_kum2=1.0,
            power_efficiency=2.0, score=score, feasible=True,
        )

    def test_picks_lowest_score(self):
        got = tool_select([self.report("a", 2.0), self.report("b", 1.0)])
        assert got == ("b", 1.0)

    def test_breaks_ties_on_id(self):
        got = tool_select([self.report("b", 1.0), self.report("a", 1.0)])
        assert got == ("a", 1.0)

    def test_empty_set_raises(self):
        with pytest.raises(EvalError) as ei:
            tool_select([])
        assert ei.value.code == "EMPTY_CANDIDATE_SET"


class TestRandomDesignSweep:
    def test_ppa_positive_and_efficiency_exact(self):
        k = chain_kernel()
        md = map_checked(k, FULL_FABRIC)
        rng = random.Random(31)
        for _ in range(300):
            d = random_design(rng)
            power, area = estimate_ppa(d, md, COEFFS)
            assert power > 0 and area > 0
            sp = 2.0
            assert abs((sp / power) - sp / power) == 0.0
