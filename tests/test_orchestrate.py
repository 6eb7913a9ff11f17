"""Closed-loop runner: config loading, event log, resume, metrics."""

import dataclasses
import json
import os
import random

import pytest

from cgraforge.agents import BackendKind, error_payload
from cgraforge.arch import FuKind, Topology, parse_design, validate_design
from cgraforge.costs import ObjectiveMode
from cgraforge.kernel import BUILTIN_KERNELS, TransformError, apply_sw_params, load_kernel
from cgraforge.mapper import MapBudget, MappingResult, check_mapping, map_kernel
from cgraforge.orchestrate import (
    BEST_DESIGN_FILE,
    HISTORY_FILE,
    METRICS_FILE,
    RUN_PLACEMENT_ATTEMPTS,
    SCHEMA_VERSION,
    History,
    RunConfig,
    RunConfigError,
    _Runner,
    read_history,
    run,
)
from cgraforge.selection import SelectionConfig

from helpers import make_design, map_checked

ITER_ENTRY_KEYS = {
    "best_so_far",
    "final_choice",
    "final_score",
    "iteration",
    "mapped_post",
    "mapped_pre",
    "mode",
    "proposals",
}


def quick_cfg(**overrides):
    base = dict(kernel="spmv", iterations=3, proposals_per_iteration=4, top_k=2, seed=1)
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_from_json_defaults(self):
        cfg = RunConfig.from_json({"kernel": "fir"})
        assert cfg.kernel == "fir"
        assert cfg.iterations == 10
        assert cfg.proposals_per_iteration == 8
        assert cfg.top_k == 3
        assert cfg.backend.kind is BackendKind.HEURISTIC
        assert cfg.budget == MapBudget(max_ii=32, placement_attempts=RUN_PLACEMENT_ATTEMPTS)
        assert cfg.objective.mode is ObjectiveMode.MIN_POWER
        assert cfg.selection == SelectionConfig()
        assert cfg.cost_coeffs is None

    def test_seed_reaches_backend(self):
        cfg = RunConfig.from_json({"kernel": "fir", "seed": 7})
        assert cfg.seed == 7
        assert cfg.backend.seed == 7

    def test_nested_sections_parse(self):
        cfg = RunConfig.from_json(
            {
                "kernel": "gemm",
                "objective": {"mode": "max_power_efficiency", "min_speedup": 2.0},
                "backend": {"kind": "llm", "base_url": "http://x", "model": "m", "max_retries": 0},
                "selection": {"conf_threshold": 0.5, "validation_interval": 2},
                "budget": {"max_ii": 8, "placement_attempts": 100},
            }
        )
        assert cfg.objective.mode is ObjectiveMode.MAX_POWER_EFFICIENCY
        assert cfg.objective.min_speedup == 2.0
        assert cfg.backend.kind is BackendKind.LLM
        assert cfg.backend.base_url == "http://x"
        assert cfg.selection.validation_interval == 2
        assert cfg.budget.max_ii == 8

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"kernel": "fir", "mystery": 1},
            {"kernel": "fir", "objective": {"mode": "MIN_POWER", "x": 1}},
            {"kernel": "fir", "backend": {"kind": "PSYCHIC"}},
            {"kernel": "fir", "backend": {"seed": 3}},
            {"kernel": "fir", "budget": {"max_ii": "8"}},
            {"kernel": "fir", "iterations": True},
            {"kernel": "fir", "iterations": "10"},
            {"kernel": 7},
            {"kernel": "fir", "selection": {"alpha": 2.0}},
            {"kernel": "fir", "selection": {"beta": 0.5}},
            {"kernel": "spmv", "selection": {"alpha": "0.3"}},
            {"kernel": "spmv", "selection": {"validation_interval": 5.0}},
            {"kernel": "spmv", "selection": {"conf_threshold": True}},
            {"kernel": "spmv", "selection": {"initial_confidence": None}},
            {"kernel": "spmv", "selection": {"sigma": [1.0]}},
            {"kernel": "spmv", "objective": {"min_speedup": float("nan")}},
            {"kernel": "spmv", "objective": {"min_speedup": float("inf")}},
            {"kernel": "spmv", "backend": {"timeout_s": float("inf")}},
            {"kernel": "spmv", "selection": {"sigma": float("nan")}},
            {"kernel": "spmv", "selection": {"sigma": float("inf")}},
            {"kernel": "spmv", "selection": {"alpha": float("nan")}},
        ],
    )
    def test_from_json_rejects_malformed(self, data):
        with pytest.raises(RunConfigError):
            RunConfig.from_json(data)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"proposals_per_iteration": 0},
            {"top_k": 0},
            {"max_fix_rounds": -1},
            {"history_window": 0},
            {"budget": MapBudget(max_ii=0)},
        ],
    )
    def test_field_bounds(self, kwargs):
        with pytest.raises(RunConfigError):
            quick_cfg(**kwargs)

    def test_header_excludes_iteration_target(self):
        header = quick_cfg().to_header_dict()
        assert "iterations" not in header
        assert header["kernel"] == "spmv"
        assert header["seed"] == 1
        assert header["budget"]["placement_attempts"] == RUN_PLACEMENT_ATTEMPTS


class TestReadHistory:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "h.jsonl"
        lines = [
            {"schema_version": 1, "seq": 1, "type": "run_header"},
            {"schema_version": 1, "seq": 2, "type": "proposal"},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        assert read_history(path) == lines

    def test_broken_sequence(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"seq": 1}\n{"seq": 3}\n')
        with pytest.raises(RunConfigError, match="sequence"):
            read_history(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"seq": 1}\nnot json\n')
        with pytest.raises(RunConfigError, match="invalid history line"):
            read_history(path)

    def test_torn_last_line_is_left_out(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"seq": 1}\n{"seq": 2, "ty')
        assert read_history(path) == [{"seq": 1}]


class TestHistory:
    def test_each_record_is_on_disk_when_append_returns(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with History(path) as h:
            for i in range(3):
                h.append({"type": "proposal", "i": i})
                assert [r["i"] for r in read_history(path)] == list(range(i + 1))
        assert path.read_text().count("\n") == 3

    def test_handle_is_closed_when_a_run_fails(self, tmp_path, monkeypatch):
        handles = []

        class Recording(History):
            def __enter__(self):
                handles.append(super().__enter__()._fh)
                return self

        def fail(self, it):
            raise RuntimeError("killed mid-run")

        monkeypatch.setattr("cgraforge.orchestrate.History", Recording)
        monkeypatch.setattr(_Runner, "run_iteration", fail)
        with pytest.raises(RuntimeError, match="killed mid-run"):
            run(quick_cfg(), tmp_path / "out")
        assert len(handles) == 1 and handles[0].closed
        assert [e["type"] for e in read_history(tmp_path / "out" / HISTORY_FILE)] == ["run_header"]


class TestRun:
    def test_produces_complete_artifacts(self, tmp_path):
        cfg = quick_cfg()
        result = run(cfg, tmp_path / "out")
        assert result.history_path.name == HISTORY_FILE
        assert result.metrics_path.name == METRICS_FILE
        assert result.history_path.exists() and result.metrics_path.exists()

        events = read_history(result.history_path)
        assert events[0]["type"] == "run_header"
        assert events[0]["config"] == cfg.to_header_dict()
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        assert all(e["schema_version"] == SCHEMA_VERSION for e in events)

        m = result.metrics
        assert m == json.loads(result.metrics_path.read_text())
        assert m["schema_version"] == SCHEMA_VERSION
        assert m["kernel"] == "spmv"
        assert m["iterations_run"] == 3
        assert 0.0 <= m["sr1"] <= m["sr2"] <= 1.0
        assert m["tool_rounds"] + m["llm_rounds"] == 3
        assert len(m["iterations"]) == 3
        for entry in m["iterations"]:
            assert set(entry) == ITER_ENTRY_KEYS
        assert m["feasible"] is True
        assert m["best"]["score"] == result.best.report["score"]

    def test_proposal_ids_are_run_unique(self, tmp_path):
        result = run(quick_cfg(), tmp_path / "out")
        proposals = [e for e in read_history(result.history_path) if e["type"] == "proposal"]
        ids = [e["design_id"] for e in proposals]
        assert len(ids) == len(set(ids)) == 12
        assert ids[0] == "i001c00"

    def test_best_design_file_validates_and_maps(self, tmp_path):
        cfg = quick_cfg()
        result = run(cfg, tmp_path / "out")
        assert result.best_design_path is not None and result.best_design_path.name == BEST_DESIGN_FILE
        d = parse_design(result.best_design_path.read_text())
        assert validate_design(d) == []
        tk = apply_sw_params(load_kernel(cfg.kernel), d.sw.unroll_factor, d.sw.vectorize_factor)
        map_checked(tk, d.fabric, cfg.budget)

    def test_best_score_is_min_over_eval_events(self, tmp_path):
        result = run(quick_cfg(), tmp_path / "out")
        evals = [e for e in read_history(result.history_path) if e["type"] == "eval"]
        feasible_scores = [e["report"]["score"] for e in evals if e["report"]["feasible"]]
        assert result.best.report["score"] == min(feasible_scores)

    def test_deterministic_history(self, tmp_path):
        a = run(quick_cfg(), tmp_path / "a")
        b = run(quick_cfg(), tmp_path / "b")
        assert a.history_path.read_bytes() == b.history_path.read_bytes()
        ma, mb = dict(a.metrics), dict(b.metrics)
        ma.pop("meta"), mb.pop("meta")
        assert ma == mb

    def test_existing_history_requires_resume(self, tmp_path):
        out = tmp_path / "out"
        run(quick_cfg(), out)
        with pytest.raises(RunConfigError, match="resume"):
            run(quick_cfg(), out)

    def test_resume_requires_history(self, tmp_path):
        with pytest.raises(RunConfigError, match="cannot resume"):
            run(quick_cfg(), tmp_path / "missing", resume=True)


class TestResume:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        full = run(quick_cfg(iterations=4), tmp_path / "full")
        part_dir = tmp_path / "part"
        run(quick_cfg(iterations=2), part_dir)
        resumed = run(quick_cfg(iterations=4), part_dir, resume=True)
        assert full.history_path.read_bytes() == resumed.history_path.read_bytes()
        ma, mb = dict(full.metrics), dict(resumed.metrics)
        ma.pop("meta"), mb.pop("meta")
        assert ma == mb

    def test_resume_at_target_adds_nothing(self, tmp_path):
        out = tmp_path / "out"
        first = run(quick_cfg(), out)
        before = first.history_path.read_bytes()
        again = run(quick_cfg(), out, resume=True)
        assert again.history_path.read_bytes() == before
        assert again.metrics["iterations_run"] == 3

    def test_resume_rejects_config_change(self, tmp_path):
        out = tmp_path / "out"
        run(quick_cfg(), out)
        changed = quick_cfg(seed=99)
        with pytest.raises(RunConfigError, match="config does not match"):
            run(changed, out, resume=True)

    def test_resume_after_kill_at_any_point(self, tmp_path):
        """A kill at any line boundary after the header, or inside the last
        line, resumes to the bytes and metrics of the uninterrupted run."""
        full = run(quick_cfg(), tmp_path / "full")
        data = full.history_path.read_bytes()
        expected = dict(full.metrics)
        expected.pop("meta")
        ends = [i + 1 for i, b in enumerate(data) if b == ord("\n")]
        cuts = ends + [ends[-1] - 10]
        for n, cut in enumerate(cuts):
            out = tmp_path / f"cut{n}"
            out.mkdir()
            (out / HISTORY_FILE).write_bytes(data[:cut])
            resumed = run(quick_cfg(), out, resume=True)
            assert resumed.history_path.read_bytes() == data, f"cut at byte {cut}"
            got = dict(resumed.metrics)
            got.pop("meta")
            assert got == expected, f"cut at byte {cut}"

    def test_resume_rejects_incomplete_inner_iteration(self, tmp_path):
        out = tmp_path / "out"
        result = run(quick_cfg(), out)
        events = read_history(result.history_path)
        first_eval = next(i for i, e in enumerate(events) if e["type"] == "eval" and e["iteration"] == 1)
        del events[first_eval]
        with result.history_path.open("w") as fh:
            for seq, e in enumerate(events, start=1):
                fh.write(json.dumps({**e, "seq": seq}, sort_keys=True) + "\n")
        with pytest.raises(RunConfigError, match="iteration 1 is incomplete"):
            run(quick_cfg(iterations=4), out, resume=True)

    def test_failed_write_keeps_previous_metrics(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run(quick_cfg(iterations=2), out)
        before = (out / METRICS_FILE).read_text()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            run(quick_cfg(), out, resume=True)
        after = (out / METRICS_FILE).read_text()
        assert after == before
        assert json.loads(after)["iterations_run"] == 2


class TestSelectionModesInHistory:
    def test_eval_counts_follow_mode(self, tmp_path):
        cfg = quick_cfg(
            iterations=4,
            selection=SelectionConfig(conf_threshold=0.0, validation_interval=3, initial_confidence=1.0),
        )
        result = run(cfg, tmp_path / "out")
        events = read_history(result.history_path)
        by_iter = {}
        for e in events:
            if e["type"] in ("selection_step", "eval"):
                by_iter.setdefault(e["iteration"], []).append(e)
        for it, evts in by_iter.items():
            sel = [e for e in evts if e["type"] == "selection_step"]
            evals = [e for e in evts if e["type"] == "eval"]
            assert len(sel) == 1
            mode = sel[0]["trace"]["mode"]
            if mode == "LLM":
                assert len(evals) == 1
                assert evals[0]["design_id"] == sel[0]["trace"]["final_choice"]
            else:
                assert len(evals) == len(sel[0]["candidates"])
        modes = [by_iter[i][0]["trace"]["mode"] for i in sorted(by_iter)]
        assert modes == ["LLM", "LLM", "TOOL", "LLM"]
        assert result.metrics["tool_rounds"] == 1
        assert result.metrics["llm_rounds"] == 3


class TestEmptyIterations:
    def test_unmappable_budget_yields_empty_run(self, tmp_path):
        cfg = quick_cfg(
            kernel="fir",
            iterations=2,
            proposals_per_iteration=3,
            max_fix_rounds=2,
            budget=MapBudget(max_ii=1, placement_attempts=RUN_PLACEMENT_ATTEMPTS),
        )
        result = run(cfg, tmp_path / "out")
        events = read_history(result.history_path)
        assert sum(e["type"] == "iteration_empty" for e in events) == 2
        assert not any(e["type"] == "eval" for e in events)
        m = result.metrics
        assert m["feasible"] is False
        assert m["best"] is None
        assert result.best_design_path is None
        assert m["sr2"] == 0.0
        for entry in m["iterations"]:
            assert entry["mode"] is None
            assert entry["mapped_post"] == 0

    def test_empty_iterations_resume(self, tmp_path):
        cfg = quick_cfg(
            kernel="fir",
            iterations=2,
            proposals_per_iteration=3,
            max_fix_rounds=2,
            budget=MapBudget(max_ii=1, placement_attempts=RUN_PLACEMENT_ATTEMPTS),
        )
        full = run(dataclasses.replace(cfg, iterations=3), tmp_path / "full")
        part_dir = tmp_path / "part"
        run(cfg, part_dir)
        resumed = run(dataclasses.replace(cfg, iterations=3), part_dir, resume=True)
        assert full.history_path.read_bytes() == resumed.history_path.read_bytes()


class TestMapCache:
    """The runner searches each (unroll, vectorize, rows, cols, topology)
    shape once; every verdict must still be what an uncached map_kernel on
    the design itself gives."""

    BUDGET = MapBudget(max_ii=12, placement_attempts=200)

    @staticmethod
    def designs(rng: random.Random, kernel_kinds: set[FuKind]) -> list:
        """Designs over a few shapes, several per shape, differing in FU
        kinds (some lack a kind the kernel needs), config memory depth and
        data memory."""
        out = []
        for s in range(4):
            shape = dict(
                rows=rng.randint(1, 4),
                cols=rng.randint(1, 4),
                topology=rng.choice(list(Topology)),
                unroll_factor=rng.choice([1, 2, 4, 8]),
                vectorize_factor=rng.choice([1, 1, 2]),
            )
            for j in range(3):
                kinds = set(kernel_kinds)
                if rng.random() < 0.25:
                    kinds.discard(rng.choice(sorted(kinds, key=lambda x: x.name)))
                kinds |= set(rng.sample(list(FuKind), 2))
                mem = rng.choice([0, 16])
                if mem:
                    kinds |= {FuKind.LOAD, FuKind.STORE}
                out.append(
                    make_design(
                        **shape,
                        fu_kinds=frozenset(kinds),
                        config_mem_depth=rng.randint(1, 12),
                        data_mem_kb=mem,
                        design_id=f"s{s}d{j}",
                    )
                )
        return out

    @staticmethod
    def uncached(kernel, d, budget):
        violations = validate_design(d)
        if violations:
            return violations
        try:
            tk = apply_sw_params(kernel, d.sw.unroll_factor, d.sw.vectorize_factor)
        except TransformError as e:
            return e
        return map_kernel(tk, d.fabric, budget)

    def test_verdicts_equal_uncached_mapping(self, tmp_path):
        rng = random.Random(5)
        codes = set()
        for name in BUILTIN_KERNELS:
            runner = _Runner(RunConfig(kernel=name, budget=self.BUDGET), tmp_path)
            designs = self.designs(rng, {n.kind for n in runner.kernel.nodes})
            rng.shuffle(designs)
            for d in designs:
                got = runner._check(d)
                want = self.uncached(runner.kernel, d, self.BUDGET)
                if isinstance(want, MappingResult):
                    assert got is None, (name, d)
                    assert runner._mapped(d).mapping == want, (name, d)
                    codes.add("OK")
                elif isinstance(want, list):
                    assert got == want, (name, d)
                    codes.add("STRUCTURAL")
                else:
                    assert error_payload(got) == error_payload(want), (name, d)
                    codes.add(error_payload(want)["code"])
            assert len(runner._map_cache) <= 4
        # the sample reaches every stage of the check
        assert {"OK", "MISSING_FU_KIND", "CONFIG_MEM_OVERFLOW", "INSUFFICIENT_TILES"} <= codes

    def test_cached_mappings_check_against_the_design_fabric(self, tmp_path):
        rng = random.Random(6)
        checked = 0
        for name in BUILTIN_KERNELS:
            runner = _Runner(RunConfig(kernel=name, budget=self.BUDGET), tmp_path)
            for d in self.designs(rng, {n.kind for n in runner.kernel.nodes}):
                if runner._check(d) is None:
                    m = runner._mapped(d)
                    tk = apply_sw_params(runner.kernel, d.sw.unroll_factor, d.sw.vectorize_factor)
                    assert check_mapping(tk, d.fabric, m.mapping) == [], (name, d)
                    checked += 1
        assert checked >= 10
