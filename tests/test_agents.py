"""Agent layer: proposal, repair, coarse ranking, and the fine judges."""

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgraforge.agents import (
    LESSON_CAP,
    PROXY_WIRING,
    AgentBackend,
    BackendKind,
    DesignOutcome,
    DesignSpaceBounds,
    FixFailure,
    ProposalRequest,
    coarse_judge,
    error_payload,
    fix_design,
    make_fine_judge,
    propose,
    proxy_score,
)
from cgraforge.agents import heuristic, llm
from cgraforge.arch import (
    DesignPoint,
    FabricSpec,
    FuKind,
    Provenance,
    StructuralViolation,
    SwParams,
    Topology,
    design_dict,
    design_from_dict,
    design_key,
    serialize_design,
    validate_design,
)
from cgraforge.costs import BIG, EvalReport, Objective, ObjectiveMode
from cgraforge.kernel import TransformError, load_kernel, summarize
from cgraforge.mapper import MapError, MappedDesign

from helpers import ALL_KINDS, chain_kernel, make_design, map_checked
from oracles import clamp_by_min_max

OBJ = Objective(mode=ObjectiveMode.MIN_POWER, min_speedup=1.5)
HEUR = heuristic.HeuristicAgent(OBJ, seed=11)


def request(count=6, window=(), bounds=None, kernel=None):
    k = kernel if kernel is not None else chain_kernel(length=3, trip_count=64)
    return ProposalRequest(
        kernel=summarize(k),
        objective=OBJ,
        history_window=tuple(window),
        count=count,
        bounds=bounds or DesignSpaceBounds(),
    )


def mapped(design, speedup):
    k = chain_kernel(length=3, trip_count=64)
    out = map_checked(k, design.fabric)
    return MappedDesign(design=design, mapping=out, trip_after=k.trip_count, speedup=speedup)


def candidate(design_id, speedup, **design_kwargs):
    d = make_design(design_id=design_id, **design_kwargs)
    return mapped(d, speedup)


class TestClampDesign:
    def test_out_of_bounds_fields_are_clamped(self):
        d = DesignPoint(
            fabric=FabricSpec(
                rows=40,
                cols=0,
                fu_kinds=frozenset({FuKind.ADD}),
                config_mem_depth=99,
                data_mem_kb=-3,
                topology=Topology.MESH,
            ),
            sw=SwParams(unroll_factor=64, vectorize_factor=0),
            id="raw",
            provenance=Provenance.PROPOSED,
            note="",
        )
        c = heuristic.clamp_design(d, DesignSpaceBounds())
        assert (c.fabric.rows, c.fabric.cols) == (16, 1)
        assert c.fabric.config_mem_depth == 32
        assert c.fabric.data_mem_kb == 0
        assert (c.sw.unroll_factor, c.sw.vectorize_factor) == (8, 1)

    def test_in_bounds_design_is_returned_unchanged(self):
        d = make_design()
        assert heuristic.clamp_design(d, DesignSpaceBounds()) is d

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(
        rows=st.integers(-4, 40),
        cols=st.integers(-4, 40),
        depth=st.integers(-8, 80),
        mem=st.integers(-16, 64),
        unroll=st.integers(-2, 20),
        vect=st.integers(-2, 10),
        kinds=st.frozensets(st.sampled_from(tuple(FuKind))),
        topology=st.sampled_from(tuple(Topology)),
        bounds=st.sampled_from(
            (
                DesignSpaceBounds(),
                DesignSpaceBounds(rows=(2, 3), cols=(2, 5), config_mem_depth=(4, 8), unroll_factor=(1, 2)),
            )
        ),
    )
    def test_draft_is_built_clamped_by_the_clamp_rule(
        self, rows, cols, depth, mem, unroll, vect, kinds, topology, bounds
    ):
        """_mk_draft clamps before it builds; the draft equals clamp_design
        of the same draft built unclamped."""
        fields = dict(
            rows=rows, cols=cols, topology=topology, depth=depth, mem=mem, kinds=kinds, unroll=unroll, vect=vect
        )
        raw = DesignPoint(
            fabric=FabricSpec(rows, cols, kinds, depth, mem, topology),
            sw=SwParams(unroll_factor=unroll, vectorize_factor=vect),
            id="draft",
            provenance=Provenance.PROPOSED,
            note="n",
        )
        assert heuristic._mk_draft(bounds, "n", **fields) == heuristic.clamp_design(raw, bounds)

    #: The ranged fields, in _clamp_fields' argument order; data_mem_kb,
    #: the fourth argument, is only kept >= 0.
    RANGED = ("rows", "cols", "config_mem_depth", "unroll_factor", "vectorize_factor")

    @pytest.mark.parametrize(
        "bounds",
        [
            DesignSpaceBounds(),
            DesignSpaceBounds(
                rows=(5, 2), cols=(9, 1), config_mem_depth=(8, 4), unroll_factor=(3, 1), vectorize_factor=(4, 2)
            ),
        ],
        ids=["default", "lo_above_hi"],
    )
    def test_clamp_fields_equal_max_of_min(self, bounds):
        """Each field clamps as max(lo, min(hi, v)) for every v from lo - 3
        to hi + 3, the others held outside their ranges, including where
        lo > hi (lo wins)."""
        ranges = [getattr(bounds, name) for name in self.RANGED]
        outside = [hi + 1 for _, hi in ranges]
        for pos, (lo, hi) in enumerate(ranges):
            for v in range(min(lo, hi) - 3, max(lo, hi) + 4):
                vals = outside[:pos] + [v] + outside[pos + 1:]
                args = vals[:3] + [-1] + vals[3:]
                want = [clamp_by_min_max(x, *r) for x, r in zip(vals, ranges)]
                assert heuristic._clamp_fields(bounds, *args) == (*want[:3], 0, *want[3:]), (pos, v)
        for mem in range(-3, 40):
            assert heuristic._clamp_fields(bounds, *outside[:3], mem, *outside[3:])[3] == max(0, mem)

    def test_equal_drafts_share_fabric_and_sw(self):
        """Drafts with equal fields after clamping share one FabricSpec and
        one SwParams, and so does the design read back from their logged
        fields: one memo serves both."""
        b = DesignSpaceBounds()
        fields = dict(rows=3, cols=4, topology=Topology.CROSSBAR, depth=12, mem=8, unroll=2, vect=1)
        kinds = [FuKind.STORE, FuKind.ADD, FuKind.LOAD, FuKind.MUL]
        a = heuristic._mk_draft(b, "a", kinds=frozenset(kinds), **fields)
        same = heuristic._mk_draft(b, "s", kinds=frozenset(reversed(kinds)), **fields)
        assert same.fabric is a.fabric and same.sw is a.sw and (a.note, same.note) == ("a", "s")
        deep = heuristic._mk_draft(b, "d", kinds=frozenset(kinds), **{**fields, "depth": 99})
        deeper = heuristic._mk_draft(b, "d", kinds=frozenset(kinds), **{**fields, "depth": 40})
        assert deep.fabric is deeper.fabric and deep.fabric.config_mem_depth == 32
        back = design_from_dict(design_dict(a), "i001c00")
        assert back.fabric is a.fabric and back.sw is a.sw


class TestPropose:
    def test_first_iteration_is_stratified(self):
        drafts = heuristic.propose(request(count=8), seed=3)
        assert len(drafts) == 8
        assert all(d.note == "proposal:stratified" for d in drafts)
        assert len({serialize_design(d) for d in drafts}) == 8

    def test_deterministic_for_seed_and_request(self):
        a = heuristic.propose(request(count=6), seed=5)
        b = heuristic.propose(request(count=6), seed=5)
        assert [serialize_design(d) for d in a] == [serialize_design(d) for d in b]
        c = heuristic.propose(request(count=6), seed=6)
        assert [serialize_design(d) for d in a] != [serialize_design(d) for d in c]

    def test_dispatcher_routes_heuristic(self):
        req = request(count=4)
        assert [serialize_design(d) for d in propose(req, HEUR)] == [
            serialize_design(d) for d in heuristic.propose(req, HEUR.seed)
        ]

    def test_mutation_batch_orbits_scored_anchor(self):
        anchor = make_design(rows=3, cols=3, design_id="anchor")
        window = [DesignOutcome(iteration=1, design=anchor, score=4.0, feasible=True)]
        drafts = heuristic.propose(request(count=5, window=window), seed=9)
        assert len(drafts) == 5
        notes = [d.note for d in drafts]
        assert sum(n.startswith("proposal:mutate:") for n in notes) == 4
        assert notes.count("proposal:random") == 1

    def test_unscored_history_falls_back_to_random_drafts(self):
        dead = make_design(design_id="dead")
        window = [DesignOutcome(iteration=1, design=dead, feasible=False, error_code="II_BOUND_EXCEEDED")]
        drafts = heuristic.propose(request(count=4, window=window), seed=2)
        assert all(d.note == "proposal:random" for d in drafts)

    def test_drafts_respect_bounds(self):
        bounds = DesignSpaceBounds(rows=(2, 3), cols=(2, 3), config_mem_depth=(4, 8), unroll_factor=(1, 2))
        rng = random.Random(13)
        for _ in range(30):
            window = []
            if rng.random() < 0.5:
                window.append(
                    DesignOutcome(iteration=1, design=make_design(design_id="w"), score=rng.uniform(0, 9), feasible=True)
                )
            for d in heuristic.propose(request(count=5, window=window, bounds=bounds), seed=rng.randrange(999)):
                assert 2 <= d.fabric.rows <= 3 and 2 <= d.fabric.cols <= 3
                assert 4 <= d.fabric.config_mem_depth <= 8
                assert 1 <= d.sw.unroll_factor <= 2
                assert heuristic.clamp_design(d, bounds) == d

    def test_dedup_by_key_equals_dedup_by_serialization(self, monkeypatch):
        """design_key drops the same drafts as deduplicating on the
        serialized text did, so the batch is the same, in the same order."""
        rng = random.Random(17)
        cases = []
        for _ in range(60):
            window = []
            if rng.random() < 0.7:
                anchor = make_design(rows=rng.randint(1, 3), cols=rng.randint(1, 3), design_id="w")
                window.append(DesignOutcome(iteration=rng.randint(1, 5), design=anchor, score=1.0, feasible=True))
            bounds = DesignSpaceBounds(rows=(1, rng.randint(1, 3)), cols=(1, 2), config_mem_depth=(4, 6))
            cases.append((request(count=rng.randint(1, 8), window=window, bounds=bounds), rng.randrange(999)))
        keyed = []
        monkeypatch.setattr(heuristic, "design_key", lambda d: keyed.append(d) or design_key(d))
        got = [heuristic.propose(req, seed) for req, seed in cases]
        monkeypatch.setattr(heuristic, "design_key", serialize_design)
        want = [heuristic.propose(req, seed) for req, seed in cases]
        assert got == want
        assert len(keyed) > sum(map(len, got))  # some drafts were dropped as duplicates

    def test_drafts_for_memory_kernel_include_loadstore(self):
        req = request(count=6, kernel=load_kernel("fir"))
        for d in heuristic.propose(req, seed=1):
            assert d.fabric.data_mem_kb > 0
            assert {FuKind.LOAD, FuKind.STORE} <= d.fabric.fu_kinds


class TestBestAnchor:
    def test_lowest_score_wins(self):
        a = make_design(design_id="a")
        b = make_design(rows=3, design_id="b")
        window = [
            DesignOutcome(iteration=1, design=a, score=5.0, feasible=True),
            DesignOutcome(iteration=2, design=b, score=2.0, feasible=True),
        ]
        assert heuristic._best_anchor(window) is b

    def test_penalty_scores_do_not_anchor(self):
        bad = DesignOutcome(iteration=1, design=make_design(design_id="p"), score=BIG + 1, feasible=True)
        ok = DesignOutcome(iteration=2, design=make_design(rows=3, design_id="m"), feasible=True)
        assert heuristic._best_anchor([bad, ok]) is ok.design

    def test_no_usable_history(self):
        assert heuristic._best_anchor([]) is None
        failed = DesignOutcome(iteration=1, design=make_design(design_id="f"), feasible=False)
        assert heuristic._best_anchor([failed]) is None


class TestRepairOnce:
    def test_structural_rules_fix_every_code(self):
        d = DesignPoint(
            fabric=FabricSpec(
                rows=0,
                cols=99,
                fu_kinds=frozenset(),
                config_mem_depth=0,
                data_mem_kb=-1,
                topology=Topology.MESH,
            ),
            sw=SwParams(unroll_factor=0, vectorize_factor=9),
            id="broken",
            provenance=Provenance.PROPOSED,
            note="",
        )
        violations = validate_design(d)
        fixed = heuristic.repair_once(d, violations)
        assert fixed.id == "broken"
        assert fixed.provenance is Provenance.REPAIRED
        assert fixed.note == "repair:" + "+".join(v.code for v in violations)
        assert validate_design(fixed) == []

    def test_missing_loadstore(self):
        d = make_design(fu_kinds=frozenset({FuKind.ADD}), data_mem_kb=8, design_id="m")
        violations = validate_design(d)
        assert [v.code for v in violations] == ["MISSING_LOADSTORE"]
        fixed = heuristic.repair_once(d, violations)
        assert {FuKind.LOAD, FuKind.STORE} <= fixed.fabric.fu_kinds

    def test_non_divisible_factor_snaps_to_largest_divisor(self):
        d = make_design(unroll_factor=5, design_id="u")
        err = TransformError(
            "NON_DIVISIBLE_FACTOR", "5 does not divide 24", factor_field="unroll_factor", factor=5, trip_count=24
        )
        fixed = heuristic.repair_once(d, err)
        assert fixed.sw.unroll_factor == 4
        assert fixed.note == "repair:NON_DIVISIBLE_FACTOR"

    def test_carried_dep_blocks_vectorization(self):
        d = make_design(vectorize_factor=4, design_id="v")
        err = TransformError("CARRIED_DEP_BLOCKS_VECTORIZATION", "carried dep", factor_field="vectorize_factor")
        assert heuristic.repair_once(d, err).sw.vectorize_factor == 1

    def test_missing_fu_kind_adds_hinted_kinds(self):
        d = make_design(fu_kinds=frozenset({FuKind.ADD}), data_mem_kb=0, design_id="k")
        err = MapError("MISSING_FU_KIND", "no PHI", hint={"missing_kinds": ["PHI", "MUL"]})
        fixed = heuristic.repair_once(d, err)
        assert {FuKind.PHI, FuKind.MUL, FuKind.ADD} <= fixed.fabric.fu_kinds

    def test_insufficient_tiles_grows_to_target(self):
        d = make_design(rows=2, cols=2, design_id="t")
        err = MapError("INSUFFICIENT_TILES", "need 9", hint={"required_tiles": 9})
        fixed = heuristic.repair_once(d, err)
        assert fixed.fabric.tiles >= 9

    def test_config_mem_overflow_raises_depth(self):
        d = make_design(config_mem_depth=2, design_id="c")
        err = MapError("CONFIG_MEM_OVERFLOW", "need 6", hint={"required_depth": 6})
        assert heuristic.repair_once(d, err).fabric.config_mem_depth == 6

    def test_config_mem_overflow_with_enough_depth_halves_unroll(self):
        d = make_design(config_mem_depth=16, unroll_factor=4, design_id="c2")
        err = MapError("CONFIG_MEM_OVERFLOW", "odd", hint={"required_depth": 8})
        fixed = heuristic.repair_once(d, err)
        assert fixed.fabric.config_mem_depth == 16
        assert fixed.sw.unroll_factor == 2

    def test_routing_failure_upgrades_topology_then_grows(self):
        d = make_design(topology=Topology.MESH, design_id="r")
        err = MapError("ROUTING_FAILURE", "stuck", hint={"topology": "MESH"})
        assert heuristic.repair_once(d, err).fabric.topology is Topology.KINGMESH
        d2 = make_design(rows=2, cols=2, topology=Topology.CROSSBAR, design_id="r2")
        fixed = heuristic.repair_once(d2, err)
        assert fixed.fabric.topology is Topology.CROSSBAR
        assert fixed.fabric.tiles > 4

    def test_ii_bound_halves_unroll_first(self):
        d = make_design(unroll_factor=8, design_id="i")
        err = MapError("II_BOUND_EXCEEDED", "ii too high", hint={"min_ii": 40, "max_ii": 32})
        assert heuristic.repair_once(d, err).sw.unroll_factor == 4
        d2 = make_design(rows=2, cols=2, unroll_factor=1, design_id="i2")
        assert heuristic.repair_once(d2, err).fabric.tiles > 4

    def test_note_chain_accumulates(self):
        d = dataclasses.replace(make_design(design_id="n"), note="proposal:random")
        err = MapError("MISSING_FU_KIND", "x", hint={"missing_kinds": ["DIV"]})
        fixed = heuristic.repair_once(d, err)
        assert fixed.note == "proposal:random;repair:MISSING_FU_KIND"

    def test_unknown_error_type_rejected(self):
        with pytest.raises(TypeError):
            heuristic.repair_once(make_design(design_id="x"), ValueError("nope"))


class TestFixDesign:
    def test_converges_after_one_round(self):
        d = make_design(fu_kinds=frozenset({FuKind.ADD}), data_mem_kb=0, design_id="one")
        err = MapError("MISSING_FU_KIND", "no PHI", hint={"missing_kinds": ["PHI"]})
        out = fix_design(d, err, HEUR, check=lambda nd: None, max_rounds=4)
        assert isinstance(out, DesignPoint)
        assert out.provenance is Provenance.REPAIRED
        assert FuKind.PHI in out.fabric.fu_kinds

    def test_multi_round_error_sequence(self):
        errors = iter(
            [
                MapError("INSUFFICIENT_TILES", "need 6", hint={"required_tiles": 6}),
                None,
            ]
        )
        d = make_design(rows=2, cols=2, fu_kinds=frozenset({FuKind.ADD}), data_mem_kb=0, design_id="two")
        first = MapError("MISSING_FU_KIND", "no PHI", hint={"missing_kinds": ["PHI"]})
        out = fix_design(d, first, HEUR, check=lambda nd: next(errors), max_rounds=4)
        assert isinstance(out, DesignPoint)
        assert out.fabric.tiles >= 6
        assert out.note == "repair:MISSING_FU_KIND;repair:INSUFFICIENT_TILES"

    def test_gives_up_after_max_rounds(self):
        d = make_design(design_id="stuck")
        err = MapError("ROUTING_FAILURE", "stuck", hint={"topology": "MESH"})
        out = fix_design(d, err, HEUR, check=lambda nd: err, max_rounds=3)
        assert isinstance(out, FixFailure)
        assert out.rounds == 3
        assert out.error is err
        assert out.design.provenance is Provenance.REPAIRED


class TestBackendImports:
    def test_heuristic_run_never_imports_the_llm_module(self, tmp_path):
        """Every dispatch imports the LLM module only on the LLM backend, so
        a fresh process running the heuristic loop never loads it."""
        script = (
            "import sys\n"
            "from cgraforge import RunConfig, run\n"
            "run(RunConfig(kernel='spmv', iterations=1), sys.argv[1])\n"
            "print(sorted(m for m in sys.modules if m.startswith('cgraforge.agents.')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out")], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['cgraforge.agents.heuristic']"


class TestCoarseRank:
    def test_proxy_formula(self):
        c = candidate("p", speedup=3.0, rows=2, cols=2, topology=Topology.KINGMESH)
        assert proxy_score(c) == 3.0 / (4 * len(ALL_KINDS) * 1.2)

    def test_orders_by_proxy_then_id(self):
        small = candidate("zz", speedup=2.0, rows=2, cols=2)
        big = candidate("aa", speedup=2.0, rows=4, cols=4)
        twin = candidate("ab", speedup=2.0, rows=4, cols=4)
        ranked = heuristic.coarse_rank([big, small, twin])
        assert [c.design.id for c in ranked] == ["zz", "aa", "ab"]

    def test_dispatcher_truncates_to_k(self):
        cands = [candidate(f"c{i}", speedup=float(i + 1), rows=2, cols=2) for i in range(5)]
        top = coarse_judge(cands, k=2, agent=HEUR)
        assert [c.design.id for c in top] == ["c4", "c3"]


class TestErrorPayload:
    def test_structural(self):
        payload = error_payload([StructuralViolation(code="ROWS_RANGE", field="rows", message="bad rows")])
        assert payload == {
            "type": "structural",
            "violations": [{"code": "ROWS_RANGE", "field": "rows", "message": "bad rows"}],
        }

    def test_transform(self):
        err = TransformError("NON_DIVISIBLE_FACTOR", "nope", factor_field="unroll_factor", factor=3, trip_count=8)
        payload = error_payload(err)
        assert payload["type"] == "transform"
        assert payload["factor_field"] == "unroll_factor"
        assert (payload["factor"], payload["trip_count"]) == (3, 8)

    def test_mapping(self):
        payload = error_payload(MapError("ROUTING_FAILURE", "stuck", hint={"topology": "MESH"}))
        assert payload == {"type": "mapping", "code": "ROUTING_FAILURE", "detail": "stuck", "hint": {"topology": "MESH"}}

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            error_payload(KeyError("x"))


class TestHeuristicFineJudge:
    def test_zero_lesson_base_min_power(self):
        judge = heuristic.HeuristicAgent(OBJ)
        c = candidate("b1", speedup=2.0, rows=2, cols=2, topology=Topology.MESH)
        choice, score = judge.select([c])
        assert choice == "b1"
        assert score == pytest.approx(heuristic.JUDGE_POWER_SCALE * 4 * len(ALL_KINDS) * 1.0)

    def test_zero_lesson_base_max_efficiency(self):
        judge = heuristic.HeuristicAgent(Objective(mode=ObjectiveMode.MAX_POWER_EFFICIENCY, min_speedup=1.5))
        c = candidate("b2", speedup=3.0, rows=2, cols=2, topology=Topology.MESH)
        _, score = judge.select([c])
        proxy_power = heuristic.JUDGE_POWER_SCALE * 4 * len(ALL_KINDS)
        assert score == pytest.approx(-3.0 / proxy_power)

    def test_infeasible_penalty_matches_tool_formula(self):
        judge = heuristic.HeuristicAgent(OBJ)
        c = candidate("slow", speedup=1.2, rows=2, cols=2)
        _, score = judge.select([c])
        assert score == pytest.approx(BIG + (1.5 - 1.2))

    def test_select_breaks_ties_on_id(self):
        judge = heuristic.HeuristicAgent(OBJ)
        a = candidate("mm", speedup=2.0, rows=2, cols=2)
        b = candidate("ma", speedup=2.0, rows=2, cols=2)
        assert judge.select([a, b])[0] == "ma"

    def test_select_rejects_empty(self):
        with pytest.raises(ValueError):
            heuristic.HeuristicAgent(OBJ).select([])

    def test_update_builds_lesson_and_moves_theta(self):
        judge = heuristic.HeuristicAgent(OBJ)
        c = candidate("l1", speedup=2.0, rows=2, cols=2)
        base = judge._base(c)
        report = EvalReport(
            design_id="l1", speedup=2.0, power_mw=9.0, area_kum2=1.0, power_efficiency=0.2, score=9.0, feasible=True
        )
        lesson = judge.lesson([c], [report], tool_choice="l1", judge_choice="l1")
        assert lesson.agreed is True
        assert lesson.candidates[0].design_id == "l1"
        assert lesson.candidates[0].base_score == base
        assert lesson.candidates[0].tool_score == 9.0
        # building the lesson has no side effect; replay absorbs it
        assert judge.theta == [0.0] * 12 and not judge.lessons
        judge.replay(lesson)
        assert list(judge.lessons) == [lesson]
        assert judge.theta != [0.0] * 12
        assert judge.theta[0] == pytest.approx(-heuristic._SGD_ETA * (base - 9.0))

    def test_penalized_tool_scores_do_not_fit(self):
        judge = heuristic.HeuristicAgent(OBJ)
        c = candidate("pen", speedup=1.0, rows=2, cols=2)
        report = EvalReport(
            design_id="pen",
            speedup=1.0,
            power_mw=9.0,
            area_kum2=1.0,
            power_efficiency=0.1,
            score=BIG + 0.5,
            feasible=False,
        )
        lesson = judge.lesson([c], [report], tool_choice="pen", judge_choice="pen")
        judge.replay(lesson)
        assert judge.theta == [0.0] * 12
        assert len(judge.lessons) == 1
        assert lesson.candidates[0].tool_score == BIG + 0.5

    def test_replay_reproduces_theta(self):
        live = heuristic.HeuristicAgent(OBJ)
        rng = random.Random(4)
        lessons = []
        for i in range(6):
            c = candidate(f"r{i}", speedup=rng.uniform(1.6, 4.0), rows=rng.randint(2, 4), cols=2)
            report = EvalReport(
                design_id=f"r{i}",
                speedup=c.speedup,
                power_mw=rng.uniform(2, 20),
                area_kum2=1.0,
                power_efficiency=0.1,
                score=rng.uniform(2, 20),
                feasible=True,
            )
            lessons.append(live.lesson([c], [report], tool_choice=f"r{i}", judge_choice=f"r{i}"))
            live.replay(lessons[-1])
        fresh = heuristic.HeuristicAgent(OBJ)
        for lesson in lessons:
            fresh.replay(lesson)
        assert fresh.theta == live.theta

    def test_learning_pulls_scores_toward_tool(self):
        judge = heuristic.HeuristicAgent(OBJ)
        c = candidate("fit", speedup=2.0, rows=2, cols=2)
        tool_score = 9.0
        report = EvalReport(
            design_id="fit", speedup=2.0, power_mw=9.0, area_kum2=1.0, power_efficiency=0.2, score=tool_score, feasible=True
        )
        err0 = abs(judge.select([c])[1] - tool_score)
        for _ in range(40):
            judge.replay(judge.lesson([c], [report], tool_choice="fit", judge_choice="fit"))
        assert abs(judge.select([c])[1] - tool_score) < err0 / 4

    def test_lesson_store_capacity(self):
        judge = heuristic.HeuristicAgent(OBJ)
        assert judge.lessons.maxlen == LESSON_CAP

    def test_factory_returns_heuristic_judge(self):
        judge = make_fine_judge(AgentBackend(), OBJ, 11)
        assert type(judge) is heuristic.HeuristicAgent
        assert (judge.objective, judge.seed) == (OBJ, 11)


def chat_body(content):
    return {"choices": [{"message": {"content": content}}]}


class _FakePost:
    """Scripted endpoint: returns canned content strings in order."""

    def __init__(self, *contents, fail_first=0):
        self.contents = list(contents)
        self.fail_first = fail_first
        self.calls = []

    def __call__(self, url, payload, headers, timeout_s):
        self.calls.append({"url": url, "payload": payload, "headers": headers, "timeout_s": timeout_s})
        if self.fail_first > 0:
            self.fail_first -= 1
            raise ConnectionError("flaky")
        content = self.contents.pop(0) if self.contents else "{}"
        return chat_body(content)


LLM_BACKEND = AgentBackend(kind=BackendKind.LLM, base_url="http://llm.test/v1", model="m0")


def llm_agent():
    return llm.LlmAgent(LLM_BACKEND, OBJ, seed=11)


@pytest.fixture(autouse=True)
def clean_llm_env(monkeypatch):
    for name in (llm.ENV_TOKEN, llm.ENV_URL, llm.ENV_MODEL):
        monkeypatch.delenv(name, raising=False)


class TestExtractJson:
    def test_fenced_block(self):
        assert llm.extract_json('text\n```json\n{"a": 1}\n```\ntrailer') == {"a": 1}

    def test_last_fence_wins(self):
        text = '```json\n{"a": 1}\n```\nmore\n```\n{"b": 2}\n```'
        assert llm.extract_json(text) == {"b": 2}

    def test_bare_json(self):
        assert llm.extract_json('[1, 2]') == [1, 2]

    def test_invalid_raises(self):
        with pytest.raises(llm.LlmError):
            llm.extract_json("not json at all")


class TestLlmClient:
    def test_env_var_names_are_stable(self):
        assert llm.ENV_TOKEN == "MALTA_LLM_TOKEN"
        assert llm.ENV_URL == "MALTA_LLM_URL"
        assert llm.ENV_MODEL == "MALTA_LLM_MODEL"

    def test_unconfigured_endpoint_raises(self):
        client = llm.LlmClient(AgentBackend(kind=BackendKind.LLM))
        with pytest.raises(llm.LlmError, match="MALTA_LLM_URL"):
            client.chat("hi")

    def test_request_shape(self):
        fake = _FakePost("pong")
        llm.LlmClient(LLM_BACKEND, post=fake).chat("ping")
        call = fake.calls[0]
        assert call["url"] == "http://llm.test/v1/chat/completions"
        assert call["payload"]["model"] == "m0"
        assert call["payload"]["messages"] == [{"role": "user", "content": "ping"}]
        assert call["payload"]["temperature"] == LLM_BACKEND.temperature
        assert "Authorization" not in call["headers"]

    def test_env_fallback_and_bearer_token(self, monkeypatch):
        monkeypatch.setenv(llm.ENV_URL, "http://env.test/api/")
        monkeypatch.setenv(llm.ENV_MODEL, "env-model")
        monkeypatch.setenv(llm.ENV_TOKEN, "sekrit")
        fake = _FakePost("ok")
        out = llm.LlmClient(AgentBackend(kind=BackendKind.LLM), post=fake).chat("q")
        assert out == "ok"
        call = fake.calls[0]
        assert call["url"] == "http://env.test/api/chat/completions"
        assert call["payload"]["model"] == "env-model"
        assert call["headers"]["Authorization"] == "Bearer sekrit"

    def test_retries_then_succeeds(self):
        fake = _FakePost("late", fail_first=2)
        out = llm.LlmClient(LLM_BACKEND, post=fake).chat("q")
        assert out == "late"
        assert len(fake.calls) == 3

    def test_retries_exhausted(self):
        fake = _FakePost(fail_first=99)
        with pytest.raises(llm.LlmError, match="after retries"):
            llm.LlmClient(LLM_BACKEND, post=fake).chat("q")
        assert len(fake.calls) == LLM_BACKEND.max_retries + 1


def patch_post(monkeypatch, fake):
    monkeypatch.setattr(llm, "_requests_post", fake)


class TestLlmPropose:
    def test_good_drafts_then_heuristic_topup(self, monkeypatch):
        import json as _json

        entry = {
            "rows": 3,
            "cols": 3,
            "fu_kinds": ["ADD", "PHI"],
            "config_mem_depth": 8,
            "topology": "MESH",
        }
        junk = [17, {"rows": 1}, {"rows": 2, "cols": 2, "fu_kinds": ["NOPE"], "config_mem_depth": 4, "topology": "MESH"}]
        patch_post(monkeypatch, _FakePost(_json.dumps({"designs": [entry, *junk]})))
        req = request(count=4)
        out = llm_agent().propose(req)
        assert len(out) == 4
        assert out[0].note == "proposal:llm"
        assert (out[0].fabric.rows, out[0].fabric.cols) == (3, 3)
        assert all(d.note == "proposal:stratified" for d in out[1:])

    @pytest.mark.parametrize("field, value", [("fu_kinds", ["ADD", "FOO"]), ("topology", "FOO"), ("rows", float("inf"))])
    def test_a_junk_draft_before_a_good_one_drops_only_itself(self, monkeypatch, field, value):
        import json as _json

        good = {"rows": 3, "cols": 3, "fu_kinds": ["ADD", "PHI"], "config_mem_depth": 8, "topology": "MESH"}
        junk = {**good, "rows": 2, field: value}
        patch_post(monkeypatch, _FakePost(_json.dumps({"designs": [junk, good]})))
        out = llm_agent().propose(request(count=4))
        assert [d.note for d in out] == ["proposal:llm"] + ["proposal:stratified"] * 3
        assert (out[0].fabric.rows, out[0].fabric.cols) == (3, 3)

    def test_transport_failure_degrades_to_heuristic(self, monkeypatch):
        patch_post(monkeypatch, _FakePost(fail_first=99))
        req = request(count=5)
        out = llm_agent().propose(req)
        want = heuristic.propose(req, 11)
        assert [serialize_design(d) for d in out] == [serialize_design(d) for d in want]

    def test_dedup_by_key_equals_dedup_by_serialization(self, monkeypatch):
        import json as _json

        entry = {"rows": 3, "cols": 3, "fu_kinds": ["ADD", "PHI"], "config_mem_depth": 8, "topology": "MESH"}
        reordered = {**entry, "fu_kinds": ["PHI", "ADD"], "unroll_factor": 1}
        other = {**entry, "config_mem_depth": 9}
        content = _json.dumps({"designs": [entry, reordered, other, entry]})
        req = request(count=5)
        patch_post(monkeypatch, _FakePost(content))
        got = llm_agent().propose(req)
        monkeypatch.setattr(llm, "design_key", serialize_design)
        patch_post(monkeypatch, _FakePost(content))
        assert llm_agent().propose(req) == got
        assert [d.fabric.config_mem_depth for d in got[:2]] == [8, 9]

    def test_draft_fields_are_clamped(self, monkeypatch):
        import json as _json

        entry = {
            "rows": 99,
            "cols": 1,
            "fu_kinds": ["ADD"],
            "config_mem_depth": 500,
            "topology": "CROSSBAR",
            "unroll_factor": 64,
        }
        patch_post(monkeypatch, _FakePost(_json.dumps({"designs": [entry]})))
        out = llm_agent().propose(request(count=1))
        assert out[0].fabric.rows == 16
        assert out[0].fabric.config_mem_depth == 32
        assert out[0].sw.unroll_factor == 8


class TestLlmRepair:
    def test_model_fix_keeps_identity(self, monkeypatch):
        import json as _json

        fixed_entry = {
            "rows": 2,
            "cols": 2,
            "fu_kinds": ["ADD", "PHI"],
            "config_mem_depth": 8,
            "topology": "MESH",
        }
        patch_post(monkeypatch, _FakePost(_json.dumps({"design": fixed_entry})))
        d = dataclasses.replace(make_design(fu_kinds=frozenset({FuKind.ADD}), data_mem_kb=0, design_id="keep"), note="proposal:llm")
        err = MapError("MISSING_FU_KIND", "no PHI", hint={"missing_kinds": ["PHI"]})
        out = llm_agent().repair_once(d, err)
        assert out.id == "keep"
        assert out.provenance is Provenance.REPAIRED
        assert out.note == "proposal:llm;repair:MISSING_FU_KIND"
        assert FuKind.PHI in out.fabric.fu_kinds

    def test_unusable_response_falls_back_to_rules(self, monkeypatch):
        import json as _json

        patch_post(monkeypatch, _FakePost(_json.dumps({"design": "garbage"})))
        d = make_design(fu_kinds=frozenset({FuKind.ADD}), data_mem_kb=0, design_id="fb")
        err = MapError("MISSING_FU_KIND", "no PHI", hint={"missing_kinds": ["PHI"]})
        out = llm_agent().repair_once(d, err)
        assert out == heuristic.repair_once(d, err)

    def test_structural_error_tag(self, monkeypatch):
        import json as _json

        fixed_entry = {"rows": 2, "cols": 2, "fu_kinds": ["ADD"], "config_mem_depth": 8, "topology": "MESH"}
        patch_post(monkeypatch, _FakePost(_json.dumps({"design": fixed_entry})))
        d = make_design(design_id="s")
        out = llm_agent().repair_once(d, [StructuralViolation(code="ROWS_RANGE", field="rows", message="x")])
        assert out.note == "repair:structural"


class TestLlmCoarseRank:
    def cands(self):
        return [
            candidate("a", speedup=1.0, rows=2, cols=2),
            candidate("b", speedup=2.0, rows=2, cols=2),
            candidate("c", speedup=3.0, rows=2, cols=2),
        ]

    def test_ranking_is_sanitized(self, monkeypatch):
        import json as _json

        patch_post(monkeypatch, _FakePost(_json.dumps({"ranking": ["b", "ghost", "a", 7]})))
        out = llm_agent().coarse_rank(self.cands())
        assert [c.design.id for c in out] == ["b", "a", "c"]

    def test_malformed_ranking_falls_back_to_proxy(self, monkeypatch):
        import json as _json

        patch_post(monkeypatch, _FakePost(_json.dumps({"ranking": "c,b,a"})))
        out = llm_agent().coarse_rank(self.cands())
        assert [c.design.id for c in out] == ["c", "b", "a"]


class TestLlmFineJudge:
    def test_valid_choice_is_used(self, monkeypatch):
        import json as _json

        patch_post(monkeypatch, _FakePost(_json.dumps({"choice": "jx", "score": 2.5})))
        judge = llm_agent()
        assert judge.select([candidate("jx", speedup=2.0, rows=2, cols=2)]) == ("jx", 2.5)

    @pytest.mark.parametrize(
        "resp",
        [
            {"choice": "ghost", "score": 1.0},
            {"choice": "jy", "score": "high"},
            {"choice": "jy", "score": True},
            ["jy", 1.0],
        ],
    )
    def test_malformed_selection_uses_shadow(self, monkeypatch, resp):
        """The heuristic judge the LLM agent extends answers instead."""
        import json as _json

        patch_post(monkeypatch, _FakePost(_json.dumps(resp)))
        judge = llm_agent()
        c = candidate("jy", speedup=2.0, rows=2, cols=2)
        assert judge.select([c]) == heuristic.HeuristicAgent.select(judge, [c])

    def test_update_feeds_shadow(self, monkeypatch):
        """Lessons feed the inherited heuristic judge, as a heuristic run's
        would."""
        patch_post(monkeypatch, _FakePost())
        judge = llm_agent()
        c = candidate("ju", speedup=2.0, rows=2, cols=2)
        report = EvalReport(
            design_id="ju", speedup=2.0, power_mw=9.0, area_kum2=1.0, power_efficiency=0.2, score=9.0, feasible=True
        )
        lesson = judge.lesson([c], [report], tool_choice="ju", judge_choice="ju")
        assert len(judge.lessons) == 0
        judge.replay(lesson)
        assert len(judge.lessons) == 1
        assert judge.theta != [0.0] * 12
        fresh = heuristic.HeuristicAgent(OBJ)
        fresh.replay(lesson)
        assert fresh.theta == judge.theta

    def test_prompt_lists_the_last_six_lessons(self, monkeypatch):
        import json as _json

        fake = _FakePost(_json.dumps({"choice": "p9", "score": 1.0}))
        patch_post(monkeypatch, fake)
        judge = llm_agent()
        cands = []
        for i in range(10):
            c = candidate(f"p{i}", speedup=2.0 + i / 10, rows=2, cols=2)
            report = EvalReport(
                design_id=f"p{i}",
                speedup=c.speedup,
                power_mw=9.0 + i,
                area_kum2=1.0,
                power_efficiency=0.2,
                score=9.0 + i,
                feasible=True,
            )
            judge.replay(judge.lesson([c], [report], tool_choice=f"p{i}", judge_choice="p0"))
            cands.append(c)
        assert judge.select(cands) == ("p9", 1.0)
        prompt = fake.calls[0]["payload"]["messages"][0]["content"]
        block = prompt.split("learn from disagreements):\n", 1)[1].split("\n\nReply with", 1)[0]
        assert _json.loads(block) == [
            {"tool_choice": f"p{i}", "judge_choice": "p0", "agreed": i == 0, "tool_scores": {f"p{i}": 9.0 + i}}
            for i in range(4, 10)
        ]

    def test_factory_returns_llm_judge(self):
        judge = make_fine_judge(LLM_BACKEND, OBJ, 11)
        assert isinstance(judge, llm.LlmAgent)
        assert (judge.objective, judge.seed, judge.client.backend) == (OBJ, 11, LLM_BACKEND)

    def test_without_an_endpoint_the_factory_builds_the_heuristic_agent(self, monkeypatch, caplog):
        """The endpoint is checked once, when the run's agent is built:
        without one, the agent is the heuristic one, no prompt is rendered,
        and one warning is logged."""
        monkeypatch.setattr(llm, "_render", lambda *a, **k: pytest.fail("a prompt was rendered"))
        with caplog.at_level("WARNING", logger=llm.__name__):
            agent = make_fine_judge(AgentBackend(kind=BackendKind.LLM), OBJ, 11)
        assert type(agent) is heuristic.HeuristicAgent
        assert (agent.objective, agent.seed) == (OBJ, 11)
        assert [r.getMessage() for r in caplog.records] == [f"{llm.NOT_CONFIGURED}; the heuristic agent answers every role"]
        monkeypatch.setenv(llm.ENV_URL, "http://env.test/api/")
        monkeypatch.setenv(llm.ENV_MODEL, "env-model")
        assert isinstance(make_fine_judge(AgentBackend(kind=BackendKind.LLM), OBJ, 11), llm.LlmAgent)

    def test_one_client_serves_every_role(self, monkeypatch):
        """The agent builds its client once, and every role's call goes
        through that client."""
        stray = _FakePost()
        patch_post(monkeypatch, stray)  # what a client built per call would post through
        agent = llm_agent()
        own = agent.client.post = _FakePost()
        c = candidate("jc", speedup=2.0, rows=2, cols=2)
        agent.propose(request(count=2))
        agent.repair_once(c.design, MapError("MISSING_FU_KIND", "no PHI", hint={"missing_kinds": ["PHI"]}))
        agent.coarse_rank([c])
        agent.select([c])
        assert (len(own.calls), len(stray.calls)) == (4, 0)
