"""Closed-loop runner: config loading, event log, resume, metrics."""

import copy
import dataclasses
import enum
import gc
import hashlib
import json
import logging
import os
import random
import sys
import weakref
from collections import OrderedDict
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgraforge import mapper, orchestrate
from cgraforge.agents import AgentBackend, BackendKind, error_payload, llm
from cgraforge.arch import (
    FuKind,
    Provenance,
    Topology,
    design_dict,
    design_from_dict,
    parse_design,
    serialize_design,
    validate_design,
)
from cgraforge.costs import Objective, ObjectiveMode, load_cost_coeffs
from cgraforge.decode import InputError, json_form, package_text, read_text
from cgraforge.kernel import BUILTIN_KERNELS, TransformError, apply_sw_params, load_kernel, parse_kernel
from cgraforge.mapper import MapBudget, MappedDesign, MappingResult, check_mapping, map_kernel
from cgraforge.orchestrate import (
    BEST_DESIGN_FILE,
    HISTORY_FILE,
    METRICS_FILE,
    RUN_PLACEMENT_ATTEMPTS,
    SCHEMA_VERSION,
    STATE_FILE,
    History,
    RunConfig,
    RunConfigError,
    _COUNTERS,
    _event_design,
    _Runner,
    check_design,
    read_history,
    run,
)
from cgraforge.selection import SelectionConfig, SelectionState, SimStep

from helpers import fresh_memos, make_design, map_checked

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


def run_bytes(result) -> tuple[bytes, str, bytes]:
    """A run's history, metrics without their meta block, and best design."""
    metrics = json.loads(result.metrics_path.read_text())
    metrics.pop("meta")
    best = result.best_design_path.read_bytes() if result.best_design_path else b""
    return result.history_path.read_bytes(), json.dumps(metrics, sort_keys=True), best


_run_configs = st.builds(
    RunConfig,
    kernel=st.text(min_size=1),
    objective=st.builds(Objective, st.sampled_from(ObjectiveMode), st.floats(1e-6, 1e6) | st.integers(1, 10)),
    iterations=st.integers(1, 10**6),
    proposals_per_iteration=st.integers(1, 64),
    top_k=st.integers(1, 64),
    seed=st.integers(-(2**63), 2**63),
    backend=st.builds(
        AgentBackend,
        kind=st.sampled_from(BackendKind),
        base_url=st.none() | st.text(),
        model=st.none() | st.text(),
        temperature=st.floats(0.0, 2.0) | st.integers(0, 2),
        timeout_s=st.floats(1e-3, 1e3),
        max_retries=st.integers(0, 10),
    ),
    selection=st.builds(
        SelectionConfig,
        conf_threshold=st.floats(0.0, 1.0) | st.integers(0, 1),
        validation_interval=st.integers(1, 100),
        alpha=st.floats(0.0, 1.0, exclude_min=True) | st.just(1),
        sigma=st.none() | st.floats(1e-6, 1e6) | st.integers(1, 100),
        initial_confidence=st.floats(0.0, 1.0) | st.integers(0, 1),
    ),
    budget=st.builds(MapBudget, max_ii=st.integers(1, 64), placement_attempts=st.integers(1, 10**6)),
    max_fix_rounds=st.integers(0, 10),
    history_window=st.integers(1, 100),
    cost_coeffs=st.none() | st.text(),
)


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

    def test_seed_reaches_the_agent(self, tmp_path):
        """The run's seed is the agent's, on either backend and however the
        config is built: the backend has no seed of its own."""
        for kind in BackendKind:
            loaded = RunConfig.from_json({"kernel": "fir", "seed": 7, "backend": {"kind": kind.name}})
            built = RunConfig(kernel="fir", seed=7, backend=AgentBackend(kind=kind))
            assert loaded == built
            assert _Runner(built, tmp_path).agent.seed == 7

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
            {"kernel": "spmv", "objective": {"min_speedup": 10**400}},
            {"kernel": "spmv", "backend": {"timeout_s": True}},
            {"kernel": "spmv", "cost_coeffs": 3},
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
            {"budget": {"max_ii": 0}},
            {"backend": {"timeout_s": -1}},
            {"backend": {"timeout_s": 0}},
            {"backend": {"max_retries": -3}},
            {"backend": {"temperature": -2.0}},
        ],
    )
    def test_field_bounds(self, kwargs):
        """A config read from JSON is held to every bound; the budget's are
        MapBudget's own, so a config file and map's flags share them, and
        the backend's are AgentBackend's."""
        with pytest.raises(InputError) as raised:
            RunConfig.from_json({"kernel": "spmv", **kwargs})
        assert raised.value.code == ("BAD_VALUE" if "budget" in kwargs or "backend" in kwargs else "BAD_CONFIG")

    def test_readme_example_is_the_defaults(self):
        """README's run-config example spells out every default but the
        iteration count."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### Run config"):]
        start = section.index("```json") + len("```json")
        example = section[start:section.index("```", start)]
        assert RunConfig.from_json(json.loads(example)) == RunConfig(kernel="spmv", iterations=20)

    @settings(max_examples=200, deadline=None)
    @given(cfg=_run_configs)
    def test_header_reads_back_as_the_config(self, cfg):
        """The run header, with the iteration target put back, reads back
        through JSON text as the config it was written from."""
        header = json.loads(json.dumps(cfg.to_header_dict()))
        assert RunConfig.from_json({**header, "iterations": cfg.iterations}) == cfg

    @settings(max_examples=200, deadline=None)
    @given(
        record=_run_configs
        | st.builds(SelectionState, st.integers(), st.floats(allow_nan=False))
        | st.builds(SimStep, st.floats(allow_nan=False), st.floats(allow_nan=False))
    )
    def test_json_form_is_asdict_with_member_names(self, record):
        """json_form, which copies each field by its record's plan, writes
        what dataclasses.asdict writes with each enum member as its name:
        the same keys in the same order, nested records included, and the
        same values of the same types."""

        def named(items):
            return {k: v.name if isinstance(v, enum.Enum) else v for k, v in items}

        assert json.dumps(json_form(record)) == json.dumps(dataclasses.asdict(record, dict_factory=named))

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


def _iteration_ends(path) -> list[int]:
    """The byte offset just past the run header and past each iteration
    of a history file."""
    ends: list[int] = []
    events = read_history(path, ends=ends)
    return [end for ev, nxt, end in zip(events, events[1:] + [None], ends)
            if nxt is None or nxt["iteration"] != ev.get("iteration")]


class TestHistory:
    def test_complete_iterations_are_on_disk_when_run_iteration_returns(self, tmp_path, monkeypatch):
        """When each run_iteration returns, the file holds the header and
        every iteration so far, complete, and nothing more: the bytes of the
        uninterrupted run up to that iteration's end. Each iteration is one
        write on the log's handle, and so is the header."""
        path = run(quick_cfg(), tmp_path / "full").history_path
        data, ends = path.read_bytes(), _iteration_ends(path)
        writes = []

        class Counting:
            def __init__(self, fh):
                self.fh = fh

            def write(self, block):
                writes.append(bytes(block))
                return self.fh.write(block)

            def __getattr__(self, name):
                return getattr(self.fh, name)

        class Recording(History):
            def __enter__(self):
                super().__enter__()
                self._fh = Counting(self._fh)
                return self

        checked = []
        run_iteration = _Runner.run_iteration

        def check(self, it):
            run_iteration(self, it)
            on_disk = self.history.path.read_bytes()
            assert on_disk == data[: ends[it]], f"iteration {it}"
            assert writes == [data[a:b] for a, b in zip([0] + ends, ends[: it + 1])], f"iteration {it}"
            checked.append(it)

        monkeypatch.setattr("cgraforge.orchestrate.History", Recording)
        monkeypatch.setattr(_Runner, "run_iteration", check)
        result = run(quick_cfg(), tmp_path / "out")
        assert checked == [1, 2, 3] and len(ends) == 4
        assert result.history_path.read_bytes() == data

    def test_an_iteration_that_raises_leaves_its_predecessors_and_resumes(self, tmp_path, monkeypatch):
        """An exception after iteration 3 has mapped its drafts, before its
        selection: the file holds iterations 1-2 only, byte for byte, and a
        resume reaches the uninterrupted run's bytes and metrics."""
        full = run(quick_cfg(), tmp_path / "full")
        two = run(quick_cfg(iterations=2), tmp_path / "two")
        select = _Runner._select

        def fail_third(self, it, mapped):
            if it == 3:
                raise RuntimeError("failed mid-iteration")
            return select(self, it, mapped)

        monkeypatch.setattr(_Runner, "_select", fail_third)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="mid-iteration"):
            run(quick_cfg(), out)
        assert (out / HISTORY_FILE).read_bytes() == two.history_path.read_bytes()
        monkeypatch.undo()
        resumed = run(quick_cfg(), out, resume=True)
        assert resumed.history_path.read_bytes() == full.history_path.read_bytes()
        got, want = dict(resumed.metrics), dict(full.metrics)
        got.pop("meta"), want.pop("meta")
        assert got == want

    def test_each_line_is_its_record_as_sorted_key_json(self, tmp_path):
        data = run(quick_cfg(), tmp_path / "out").history_path.read_bytes()
        lines = data.decode().split("\n")
        assert lines.pop() == "" and len(lines) > 3
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_non_ascii_config_is_written_as_json_dumps_writes_it(self, tmp_path):
        """The line encoder has json.dumps's settings: a kernel path with
        non-ASCII characters is escaped in the run header exactly as
        json.dumps(record, sort_keys=True) escapes it."""
        from importlib import resources

        path = tmp_path / "größe-µ 核.json"
        path.write_text(resources.files("cgraforge.data.kernels").joinpath("spmv.json").read_text("utf-8"), "utf-8")
        data = run(quick_cfg(kernel=str(path)), tmp_path / "out").history_path.read_bytes()
        lines = data.decode("ascii").split("\n")
        assert lines.pop() == "" and len(lines) > 3
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)
        assert json.loads(lines[0])["config"]["kernel"] == str(path)
        assert "gr\\u00f6\\u00dfe-\\u00b5 \\u6838.json" in lines[0]

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "python"])
    def test_crafted_records_are_encoded_as_json_dumps_encodes_them(self, tmp_path, monkeypatch, c_encoder):
        """The prebuilt line encoder, and the pure-Python one it falls back
        to without json's C accelerator, write each record exactly as
        json.dumps(record, sort_keys=True) does."""
        import json.encoder

        if c_encoder:
            assert json.encoder.c_make_encoder is not None
        else:
            monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        records = [
            {"type": "note", "note": "größe µ 核   \U0001f600 \"quoted\" back\\slash", "z": 1, "a": 2},
            {"type": "note", "note": "".join(map(chr, range(32))) + "\x7f"},
            {"type": "floats", "values": [0.1 + 0.2, 1e-300, -0.0, 1e308, 0.0, -1.5, 2**70]},
            {"type": "nested", "b": {"y": [1, [2, [3, {}]], []], "x": {"d": None, "c": True}}, "a": [False, None, {"k": "v"}]},
        ]
        history = History(tmp_path / HISTORY_FILE, seq=7)
        with history:
            history.append(records)
        want = "".join(
            json.dumps({"schema_version": SCHEMA_VERSION, "seq": seq, **r}, sort_keys=True) + "\n"
            for seq, r in enumerate(records, start=8)
        )
        assert (tmp_path / HISTORY_FILE).read_text("ascii") == want
        assert history.size == len(want) and history.sha.hexdigest() == hashlib.sha256(want.encode()).hexdigest()

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

    def test_folded_events_equal_the_logged_lines(self, tmp_path, monkeypatch):
        """append sets schema_version and seq on the records themselves, so
        the events each live iteration folds equal read_history's parse of
        that iteration's lines, key for key."""
        folded = []
        real_fold = _Runner._fold

        def fold(self, it, events, logged):
            folded.append((it, copy.deepcopy(events)))
            return real_fold(self, it, events, logged)

        monkeypatch.setattr(_Runner, "_fold", fold)
        result = run(RunConfig(kernel="fft", iterations=6, seed=2), tmp_path / "out")
        logged = read_history(result.history_path)[1:]
        assert [it for it, _ in folded] == list(range(1, 7))
        assert [ev for _, events in folded for ev in events] == logged
        assert all(ev["iteration"] == it for it, events in folded for ev in events)
        assert [ev["seq"] for _, events in folded for ev in events] == list(range(2, len(logged) + 2))


class TestEnumHashing:
    def test_the_loop_makes_no_python_level_enum_hash(self, tmp_path, monkeypatch):
        """FuKind, Topology and Provenance hash through str's C slot: short
        runs of spmv and hpc_mix, in a fresh process's memos, never call
        enum.Enum.__hash__."""
        fresh_memos(monkeypatch)
        calls = []
        real_hash = enum.Enum.__hash__

        def counting_hash(self):
            calls.append(type(self).__name__)
            return real_hash(self)

        monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)
        for kernel in ("spmv", "hpc_mix"):
            run(RunConfig(kernel=kernel, iterations=10, seed=1), tmp_path / kernel)
        assert calls == []

    def test_design_events_read_member_names_from_tables(self, tmp_path):
        """design_dict and _design_event call nothing in enum.py, such as
        the descriptor behind a member's .name, in a short run."""
        callers = ("design_dict", "_design_event")
        seen, calls = [], []

        def profile(frame, event, arg):
            if event != "call":
                return
            if frame.f_code.co_name in callers:
                seen.append(frame.f_code.co_name)
            elif frame.f_code.co_filename == enum.__file__ and frame.f_back.f_code.co_name in callers:
                calls.append((frame.f_back.f_code.co_name, frame.f_code.co_name))

        sys.setprofile(profile)
        try:
            run(RunConfig(kernel="spmv", iterations=3, seed=1), tmp_path / "out")
        finally:
            sys.setprofile(None)
        assert set(seen) == set(callers)
        assert calls == []


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

    def test_progress_log_has_one_line_per_iteration(self, tmp_path, caplog):
        quiet = run(quick_cfg(), tmp_path / "quiet")
        assert not [r for r in caplog.records if r.name == "cgraforge.orchestrate"]
        caplog.set_level(logging.INFO, logger="cgraforge.orchestrate")
        loud = run(quick_cfg(iterations=2), tmp_path / "loud")
        run(quick_cfg(), tmp_path / "loud", resume=True)
        lines = [r.getMessage() for r in caplog.records if r.name == "cgraforge.orchestrate"]
        assert [line[:7] for line in lines] == ["it   1:", "it   2:", "it   3:"]
        # drafts, mapped before and by repair, mode and best so far
        e = quiet.metrics["iterations"][-1]
        best = f"{e['best_so_far']:.6g}"
        repaired = e["mapped_post"] - e["mapped_pre"]
        assert lines[-1] == f"it   3: mapped {e['mapped_pre']}/4 (+repair {repaired}) mode={e['mode']} best={best}"
        assert loud.history_path.read_bytes() == quiet.history_path.read_bytes()

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
        """A kill at any line boundary after the header, inside the last
        line, or inside the header line itself, resumes to the bytes and
        metrics of the uninterrupted run."""
        self._resume_every_cut(tmp_path, checkpoint=None)

    @pytest.mark.parametrize("checkpoint", ["full", "two_iterations"])
    def test_resume_after_kill_at_any_point_beside_a_checkpoint(self, tmp_path, monkeypatch, checkpoint):
        """The same cuts with a state.json, and the metrics.json written with
        it, beside each: the full run's, stale for every shorter cut, or a
        2-iteration run's, which every longer cut restores, folding only the
        events after it."""
        restored = []
        restore = _Runner.restore

        def counting_restore(self, state):
            done = restore(self, state)
            restored.append(state)
            return done

        monkeypatch.setattr(_Runner, "restore", counting_restore)
        self._resume_every_cut(tmp_path, checkpoint, restored)

    @staticmethod
    def _resume_every_cut(tmp_path, checkpoint, restored=None):
        full = run(quick_cfg(), tmp_path / "full")
        data = full.history_path.read_bytes()
        expected = dict(full.metrics)
        expected.pop("meta")
        state = None
        if checkpoint is not None:
            src = full if checkpoint == "full" else run(quick_cfg(iterations=2), tmp_path / "two")
            state = (src.out_dir / STATE_FILE).read_bytes()
            metrics = (src.out_dir / METRICS_FILE).read_bytes()
            covered = json.loads(state)["bytes"]
            assert data[:covered] == src.history_path.read_bytes()
        ends = [i + 1 for i, b in enumerate(data) if b == ord("\n")]
        assert ends[0] > 40
        cuts = ends + [ends[-1] - 10, 40]
        for n, cut in enumerate(cuts):
            out = tmp_path / f"cut{n}"
            out.mkdir()
            (out / HISTORY_FILE).write_bytes(data[:cut])
            if state is not None:
                (out / STATE_FILE).write_bytes(state)
                (out / METRICS_FILE).write_bytes(metrics)
                restored.clear()
            resumed = run(quick_cfg(), out, resume=True)
            assert resumed.history_path.read_bytes() == data, f"cut at byte {cut}"
            got = dict(resumed.metrics)
            got.pop("meta")
            assert got == expected, f"cut at byte {cut}"
            if state is not None:
                assert len(restored) == (cut >= covered), f"cut at byte {cut}"
            assert (out / STATE_FILE).read_bytes() == (full.out_dir / STATE_FILE).read_bytes()

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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (kernel, iterations, seed, objective mode, built one iteration per
# resume) -> sha256 of history.jsonl, of metrics.json without its meta
# block (written as run writes it: indent 2, sorted keys, a final newline)
# and of best_design.json, for the default config otherwise. The rows
# cover the proposer's paths that loop_bound takes: the stratified batch,
# mutations of every field, random redraws, and both objectives. Any
# change to a byte of a run's output fails here; a change that means to
# move one says so and re-pins.
MPE = "MAX_POWER_EFFICIENCY"
GOLDEN_RUNS = [
    ("spmv", 20, 0, "MIN_POWER", False, "0fd6dfe68a80a987fd36104eb6dbdb68c6f25f9034f60c5fd98cb1aafb3c42f2",
     "6c338a67e388180ed2f95a7aa4587ab1958ed2b5062363bf95d34a0900f5851b",
     "ed34824eee70a7184feaaf6e68bf8c09c5cb1835e718c76d38dff727cc8aa684"),
    ("fft", 20, 0, "MIN_POWER", False, "8046562ba146aa741d9949fd46a916a15c116a38cc807970ad4a9188c3278b44",
     "b75bd7612a3a1661ce7add41a5437b0d84d49d9b876919225b875dd79d7a65ef",
     "0ac8b6e76b53991cf5c6f4716c6d9fe95c70586942b26b6c93defbd47617c267"),
    ("hpc_mix", 20, 0, "MIN_POWER", False, "a2e4a25ecc39bfb915fb58d963e18b8e09b26d00de29e5be8ac0728fd4bd2514",
     "e2ea215110c44a4573e5dbf38ec1579e08435ede1d08e4be9fd419002432cfc7",
     "7687e05c93667b77720b43ffebc79a687ffab6ae319f884e011985e02ecb9bdc"),
    ("fir", 3, 0, "MIN_POWER", False, "c476c0c3fb093c6ad20dd9a13e7b8c90753bf99e7a7485ad52e8760dc4e8e26b",
     "ab956bf7fd8662ac3c74560099d4706b9d94ae5533007913670a20aa836b7be5",
     "0b2ce84254dc9b9edbe1c323c7f3022bb5df7e2e1477be9fa81f865b5cdf8856"),
    ("spmv", 8, 0, "MIN_POWER", True, "89ba31850117b98ad63ad12a3c0ae8fbe11c02e2b125f8f05f8909810dfd7b66",
     "60447cf8288e724403a31dda3e1f03bb8a3131d045d798237c3d52a03999f14f",
     "e010a8b9eac0a04fa32a0ff676ff0d699955ce52af8d08a3017b34eedf28e3b7"),
    ("relu", 20, 1, "MIN_POWER", False, "9041792d3bfea85a39f2292b6d26a4c2aaa8a787f99bd9ef8779fed4dde04b1a",
     "b4b500f30d293a1829c3e37e2709b753abb37483a0d68af6b7173115ae756d9b",
     "f94b799e8eb72cae63619cdaed4caa6b657731268d71c5afecc3b1247a8b794a"),
    ("fft", 20, 2, "MIN_POWER", False, "04c0bf89d8c4575ab6e698a6975fca40eb6a465ff340cfd02ffaa33a206fde37",
     "e9fca8358dcd2446d5b384d5388724ed5a4da43d08a1a8d9554f49dedc37bd40",
     "0ac8b6e76b53991cf5c6f4716c6d9fe95c70586942b26b6c93defbd47617c267"),
    ("hpc_mix", 20, 0, MPE, False, "1561aab851aa6260fbbfe571680ca4513c661286ed9e0f8e635d803eb26df9ec",
     "74697776d5671d07ca96cf9f42e1864d24ade52f7d7301205b991c60659da020",
     "8341a55bd9e08e37f9bbeb20de9c7ddab381d1aba2773195f667827f6a73e162"),
    ("spmv", 20, 1, MPE, False, "8ac65b37196bd08d98d71ad9b923502a50610c914b9218b0a3269624c548bbc9",
     "1e72c72d5df2c619a8ae04c028adccf941126e2ca8707f34591b16f32571c1b5",
     "83db580e15df43f3290f7b74fc1853fcfb6da23eb97d4f6644f75a02e11ede8a"),
]


def _golden_id(case) -> str:
    kernel, iterations, seed, mode, chained = case[:5]
    return f"{kernel}-{iterations}" + (f"-seed{seed}" if seed else "") + (f"-{mode}" if mode != "MIN_POWER" else "") + (
        "-chained" if chained else ""
    )


class TestGoldenRuns:
    @pytest.mark.parametrize("case", GOLDEN_RUNS, ids=_golden_id)
    def test_run_outputs_are_pinned(self, tmp_path, case):
        kernel, iterations, seed, mode, chained, history_sha, metrics_sha, best_sha = case
        cfg = RunConfig(kernel=kernel, iterations=iterations, seed=seed, objective=Objective(ObjectiveMode[mode], 1.5))
        for it in range(1, iterations + 1) if chained else [iterations]:
            result = run(dataclasses.replace(cfg, iterations=it), tmp_path / "out", resume=chained and it > 1)
        text = result.metrics_path.read_text()
        metrics = json.loads(text)
        assert text == json.dumps(metrics, indent=2, sort_keys=True) + "\n"
        metrics.pop("meta")
        got = (
            _sha(result.history_path.read_bytes()),
            _sha((json.dumps(metrics, indent=2, sort_keys=True) + "\n").encode()),
            _sha(result.best_design_path.read_bytes()),
        )
        assert got == (history_sha, metrics_sha, best_sha)


class TestWholeRuns:
    """Two ways to one run that must write the same history."""

    def test_api_and_json_configs_write_the_same_history(self, tmp_path):
        fields = dict(kernel="relu", iterations=6, seed=1)
        api = run(RunConfig(**fields), tmp_path / "api")
        loaded = run(RunConfig.from_json(fields), tmp_path / "json")
        assert api.history_path.read_bytes() == loaded.history_path.read_bytes()

    def test_llm_backend_without_an_endpoint_runs_as_the_heuristic_one(self, tmp_path, monkeypatch, caplog):
        """With no endpoint, every role is the heuristic agent's: the
        history differs only in its header's backend kind, and the run
        logs one warning, when its agent is built."""
        monkeypatch.delenv(llm.ENV_URL, raising=False)
        monkeypatch.delenv(llm.ENV_MODEL, raising=False)
        cfg = RunConfig(
            kernel="fir",
            iterations=8,
            seed=3,
            selection=SelectionConfig(conf_threshold=0.0, validation_interval=2, initial_confidence=1.0),
        )
        heur = run(cfg, tmp_path / "heuristic")
        with caplog.at_level(logging.WARNING, logger=llm.__name__):
            model = run(dataclasses.replace(cfg, backend=AgentBackend(kind=BackendKind.LLM)), tmp_path / "llm")
        assert model.metrics["llm_rounds"] == 4
        header, *lines = model.history_path.read_bytes().splitlines()
        want_header, *want = heur.history_path.read_bytes().splitlines()
        assert lines == want
        assert json.loads(header)["config"]["backend"]["kind"] == "LLM"
        assert json.loads(want_header)["config"]["backend"]["kind"] == "HEURISTIC"
        assert [r.getMessage() for r in caplog.records] == [
            f"{llm.NOT_CONFIGURED}; the heuristic agent answers every role"
        ]


class TestBestDesignFile:
    def test_a_resume_that_keeps_the_best_leaves_the_file_alone(self, tmp_path):
        out = tmp_path / "out"
        first = run(quick_cfg(iterations=6), out)
        before = os.stat(first.best_design_path)
        again = run(quick_cfg(iterations=8), out, resume=True)
        assert again.best.design_id == first.best.design_id  # iterations 7-8 find nothing better
        after = os.stat(again.best_design_path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert again.best_design_path.read_text() == serialize_design(again.best.design)

    @pytest.mark.parametrize("spoil", ["delete", "edit"])
    def test_a_deleted_or_edited_file_is_rewritten(self, tmp_path, spoil):
        out = tmp_path / "out"
        path = run(quick_cfg(), out).best_design_path
        want = path.read_bytes()
        if spoil == "delete":
            path.unlink()
        else:
            path.write_bytes(want.replace(b'"rows"', b'"ROWS"'))
        result = run(quick_cfg(), out, resume=True)
        assert path.read_bytes() == want
        assert path.read_text() == serialize_design(result.best.design)

    def test_a_new_best_is_written(self, tmp_path):
        out = tmp_path / "out"
        first = run(quick_cfg(iterations=4), out)
        again = run(quick_cfg(iterations=6), out, resume=True)
        assert again.best.design_id != first.best.design_id
        assert again.best_design_path.read_text() == serialize_design(again.best.design)


def _fold_state(runner: _Runner) -> tuple:
    """Everything a resumed run carries on from."""
    agent = runner.agent
    return (
        runner.sel_state,
        agent.theta,
        list(agent.lessons),
        runner.outcomes,
        runner.best,
        runner.iter_entries,
        [getattr(runner, name) for name in _COUNTERS],
        (runner.history.seq, runner.history.size, runner.history.sha.hexdigest()),
    )


def count_applies(monkeypatch) -> list[int]:
    """The iterations _Runner._apply folds from the log, in call order."""
    applied = []
    apply = _Runner._apply
    monkeypatch.setattr(_Runner, "_apply", lambda self, it, evts: applied.append(it) or apply(self, it, evts))
    return applied


def _edited(state: bytes, **fields) -> bytes:
    return json.dumps({**json.loads(state), **fields}).encode()


CHAIN_CONFIGS = {
    "heuristic_spmv": dict(history_window=6),
    "llm_fallback": dict(backend=AgentBackend(kind=BackendKind.LLM), history_window=6),
    "empty_fir": dict(
        kernel="fir",
        proposals_per_iteration=3,
        max_fix_rounds=2,
        budget=MapBudget(max_ii=1, placement_attempts=RUN_PLACEMENT_ATTEMPTS),
        history_window=4,
    ),
    "tool_llm_alternating": dict(
        selection=SelectionConfig(conf_threshold=0.0, validation_interval=2, initial_confidence=1.0),
        history_window=6,
    ),
}


class TestCheckpoint:
    @pytest.mark.parametrize("name", sorted(CHAIN_CONFIGS))
    def test_chain_restores_the_state_of_a_full_fold(self, tmp_path, monkeypatch, name):
        """A run built one iteration per resume. After each step, the state
        restored from the checkpoint, with no tail or with the last
        iteration as its tail, equals a full fold of the same file. Each
        state.json is restored beside the metrics.json it was written with."""
        monkeypatch.delenv(llm.ENV_URL, raising=False)
        monkeypatch.delenv(llm.ENV_MODEL, raising=False)
        applied = count_applies(monkeypatch)
        iterations = 6
        cfg = quick_cfg(iterations=iterations, **CHAIN_CONFIGS[name])
        chain = tmp_path / "chain"
        previous = None
        for it in range(1, iterations + 1):
            step = dataclasses.replace(cfg, iterations=it)
            run(step, chain, resume=it > 1)
            history = (chain / HISTORY_FILE).read_bytes()
            state = ((chain / STATE_FILE).read_bytes(), (chain / METRICS_FILE).read_bytes())
            saved = json.loads(state[0])
            assert len(saved["outcomes"]) == min(cfg.history_window, saved["drafts_total"])
            folds = {}
            for way, ckpt in (("full", None), ("checkpoint", state), ("tail", previous)):
                if it == 1 and way == "tail":
                    continue
                out = tmp_path / f"{way}{it}"
                out.mkdir()
                (out / HISTORY_FILE).write_bytes(history)
                if ckpt is not None:
                    (out / STATE_FILE).write_bytes(ckpt[0])
                    (out / METRICS_FILE).write_bytes(ckpt[1])
                runner = _Runner(step, out)
                applied.clear()
                assert runner.resume() == it
                assert applied == {"full": list(range(1, it + 1)), "checkpoint": [], "tail": [it]}[way]
                folds[way] = _fold_state(runner)
            assert all(f == folds["full"] for f in folds.values()), f"iteration {it}"
            previous = state
        assert saved["drafts_total"] > 2 * cfg.history_window  # the window was cut
        uninterrupted = run(cfg, tmp_path / "uninterrupted")
        assert uninterrupted.history_path.read_bytes() == (chain / HISTORY_FILE).read_bytes()
        assert (uninterrupted.out_dir / STATE_FILE).read_bytes() == (chain / STATE_FILE).read_bytes()

    @pytest.mark.parametrize("kernel", ["spmv", "relu", "fft", "hpc_mix"])
    def test_the_checkpoint_does_not_grow_with_the_iterations(self, tmp_path, kernel):
        """state.json holds no per-iteration list: after 60 iterations it is
        within 5% of its size after 20."""
        out = tmp_path / "out"
        run(RunConfig(kernel=kernel, iterations=20), out)
        at_20 = (out / STATE_FILE).stat().st_size
        run(RunConfig(kernel=kernel, iterations=60), out, resume=True)
        assert (out / STATE_FILE).stat().st_size <= 1.05 * at_20

    @pytest.mark.parametrize(
        "old, new, error",
        [
            (b'"seq": 5,', b'"seq": 6,', "history sequence broken"),
            (b'"seed": 1,', b'"seed": 2,', "config does not match"),
            (b'"seq": 7,', b'"seq"! 7,', "invalid history line"),
        ],
    )
    def test_a_changed_byte_under_the_checkpoint_still_refuses(self, tmp_path, old, new, error):
        out = tmp_path / "out"
        run(quick_cfg(), out)
        data = (out / HISTORY_FILE).read_bytes()
        assert data.count(old) == 1 and json.loads((out / STATE_FILE).read_bytes())["bytes"] == len(data)
        (out / HISTORY_FILE).write_bytes(data.replace(old, new))
        with pytest.raises(RunConfigError, match=error):
            run(quick_cfg(iterations=4), out, resume=True)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda state: b"garbage",
            lambda state: state[: len(state) // 2],
            lambda state: b"[1, 2]\n",
            lambda state: _edited(state, schema_version=99),
            lambda state: _edited(state, sha256="0" * 64),
            lambda state: _edited(state, seq=str(json.loads(state)["seq"])),
        ],
        ids=["garbage", "torn", "not_an_object", "other_schema", "other_digest", "non_integer_seq"],
    )
    def test_a_spoiled_checkpoint_is_ignored(self, tmp_path, monkeypatch, spoil):
        restored = []
        restore = _Runner.restore
        monkeypatch.setattr(_Runner, "restore", lambda self, state: restored.append(state) or restore(self, state))
        full = run(quick_cfg(iterations=4), tmp_path / "full")
        out = tmp_path / "out"
        run(quick_cfg(iterations=2), out)
        state = (out / STATE_FILE).read_bytes()
        assert spoil(state) != state
        (out / STATE_FILE).write_bytes(spoil(state))
        resumed = run(quick_cfg(iterations=4), out, resume=True)
        assert restored == []
        assert resumed.history_path.read_bytes() == full.history_path.read_bytes()
        assert (out / STATE_FILE).read_bytes() == (full.out_dir / STATE_FILE).read_bytes()


def dir_files(out: Path) -> tuple[bytes, dict, bytes, bytes]:
    """A run directory's history, metrics without their meta block, best
    design and checkpoint. The metrics file must be the text json.dumps
    writes for it (indent 2, sorted keys, a final newline)."""
    text = (out / METRICS_FILE).read_text()
    metrics = json.loads(text)
    assert text == json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    metrics.pop("meta")
    best = (out / BEST_DESIGN_FILE).read_bytes() if (out / BEST_DESIGN_FILE).exists() else b""
    return (out / HISTORY_FILE).read_bytes(), metrics, best, (out / STATE_FILE).read_bytes()


class TestCheckpointFallback:
    """state.json names metrics.json's iteration entries by the sha256 of
    their text. A metrics.json that no longer holds them, or a state.json
    without that name, makes the resume fold the whole log, and it writes
    what a run that was never stopped writes; the resume after it restores."""

    @staticmethod
    def _parent_layout(out: Path) -> None:
        """state.json as it was before it named the entries: with all of
        them inline."""
        state = json.loads((out / STATE_FILE).read_bytes())
        del state["iterations_sha256"]
        state["iter_entries"] = json.loads((out / METRICS_FILE).read_bytes())["iterations"]
        (out / STATE_FILE).write_text(json.dumps(state, sort_keys=True) + "\n")

    @staticmethod
    def _edit_entries(out: Path) -> None:
        """One digit of an iteration entry changed, the length kept."""
        text = (out / METRICS_FILE).read_text()
        at = text.index('"mapped_pre": ', text.index('"iterations": [')) + len('"mapped_pre": ')
        edited = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
        assert len(edited) == len(text) and edited != text
        (out / METRICS_FILE).write_text(edited)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda out, earlier: (out / METRICS_FILE).unlink(),
            lambda out, earlier: TestCheckpointFallback._edit_entries(out),
            lambda out, earlier: (out / METRICS_FILE).write_bytes(earlier),
            lambda out, earlier: TestCheckpointFallback._parent_layout(out),
        ],
        ids=["metrics_deleted", "entries_edited", "metrics_of_an_earlier_step", "parent_layout"],
    )
    def test_a_resume_beside_other_metrics_folds_the_whole_log(self, tmp_path, monkeypatch, spoil):
        full = run(quick_cfg(iterations=4), tmp_path / "full")
        out = tmp_path / "out"
        run(quick_cfg(iterations=1), out)
        earlier = (out / METRICS_FILE).read_bytes()
        run(quick_cfg(iterations=2), out, resume=True)
        spoil(out, earlier)
        applied = count_applies(monkeypatch)
        run(quick_cfg(iterations=4), out, resume=True)
        assert applied == [1, 2]
        assert dir_files(out) == dir_files(full.out_dir)
        applied.clear()
        run(quick_cfg(iterations=4), out, resume=True)
        assert applied == []
        assert dir_files(out) == dir_files(full.out_dir)


class _Kill(BaseException):
    """A process kill: no handler in the run catches it."""


class _FileSystem:
    """Counts the file-system calls a run makes while armed, as (kind, file
    name), and kills the run at call number `kill_at[0]` of its count: a
    write is cut after the share `kill_at[1]` of its bytes, any other call
    is not made. The history's block writes go through a handle that
    History opens; the rest are Path.write_text, os.replace, os.unlink,
    os.rename, os.truncate and Path.mkdir."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[str, str]] = []
        self.kill_at: tuple[int, float] | None = None
        self.armed = False
        write_text, replace, unlink, rename = Path.write_text, os.replace, os.unlink, os.rename
        truncate, mkdir = os.truncate, Path.mkdir
        enter = History.__enter__
        fs = self

        class Handle:
            def __init__(self, fh):
                self.fh = fh

            def write(self, block):
                return fs.call("write", HISTORY_FILE, lambda part: self.fh.write(part), block)

            def flush(self):
                self.fh.flush()

            def close(self):
                self.fh.close()

        def entered(history):
            enter(history)
            history._fh = Handle(history._fh)
            return history

        monkeypatch.setattr(History, "__enter__", entered)
        monkeypatch.setattr(Path, "write_text", lambda p, text, **kw: fs.call(
            "write_text", p.name, lambda part: write_text(p, part, **kw), text))
        monkeypatch.setattr(os, "replace", lambda a, b: fs.call("replace", Path(b).name, lambda: replace(a, b)))
        monkeypatch.setattr(os, "unlink", lambda p: fs.call("unlink", Path(p).name, lambda: unlink(p)))
        monkeypatch.setattr(os, "rename", lambda a, b: fs.call("rename", Path(b).name, lambda: rename(a, b)))
        monkeypatch.setattr(os, "truncate", lambda p, n: fs.call("truncate", Path(p).name, lambda: truncate(p, n)))
        monkeypatch.setattr(Path, "mkdir", lambda p, **kw: fs.call("mkdir", p.name, lambda: mkdir(p, **kw)))

    def call(self, kind: str, name: str, do, data=None):
        """do(), or do(data) for a write; unless this call is the kill."""
        if not self.armed:
            return do() if data is None else do(data)
        n = len(self.calls)
        self.calls.append((kind, name))
        if self.kill_at is not None and self.kill_at[0] == n:
            if data is not None and self.kill_at[1]:
                do(data[: int(len(data) * self.kill_at[1])])
            raise _Kill
        return do() if data is None else do(data)


CRASH_CONFIGS = {
    "spmv": dict(),
    "empty_fir": CHAIN_CONFIGS["empty_fir"],
    "tool_llm_alternating": CHAIN_CONFIGS["tool_llm_alternating"],
}


class TestCrashPoints:
    """A short resume chain killed at each of its file-system calls in
    turn, writes cut part-way or not begun, and then resumed as a user
    would, with --resume whenever the history exists: it ends with the
    files of the chain that was never killed, and so of the uninterrupted
    run. The method is ALICE's (Pillai et al., "All File Systems Are Not
    Created Equal", OSDI 2014), for process kills only: no call is fsynced,
    so a power loss is out of its reach."""

    @pytest.mark.parametrize("name", sorted(CRASH_CONFIGS))
    def test_a_chain_killed_at_any_call_resumes_to_the_same_files(self, tmp_path, monkeypatch, name):
        iterations = 3
        cfg = quick_cfg(iterations=iterations, **CRASH_CONFIGS[name])
        steps = [dataclasses.replace(cfg, iterations=it) for it in range(1, iterations + 1)]
        fs = _FileSystem(monkeypatch)

        def chain(out: Path, steps: list[RunConfig], first: int = 0) -> None:
            for step in steps[first:]:
                run(step, out, resume=(out / HISTORY_FILE).exists())

        step_of = []  # the chain step of each call, from 0
        fs.armed = True
        for n, step in enumerate(steps):
            chain(tmp_path / "straight", [step])
            step_of += [n] * (len(fs.calls) - len(step_of))
        fs.armed = False
        straight = dir_files(tmp_path / "straight")
        assert straight == dir_files(run(cfg, tmp_path / "uninterrupted").out_dir)
        assert not list((tmp_path / "straight").glob("*.tmp"))
        calls = list(fs.calls)
        kinds = {kind for kind, _ in calls}
        assert kinds == {"write", "write_text", "replace", "unlink", "rename", "truncate", "mkdir"}
        assert ("replace", STATE_FILE) not in calls

        applied = count_applies(monkeypatch)
        fell_back = set()
        for n, (kind, file) in enumerate(calls):
            for share in (0.0, 0.5) if kind.startswith("write") else (0.0,):
                out = tmp_path / f"kill{n}-{share}"
                fs.calls.clear()
                fs.kill_at, fs.armed = (n, share), True
                with pytest.raises(_Kill):
                    chain(out, steps)
                fs.kill_at, fs.armed = None, False
                if n == calls.index(("write", HISTORY_FILE)):  # the header's write
                    assert (out / HISTORY_FILE).read_bytes()[:1] == (b"{" if share else b"")
                applied.clear()
                chain(out, steps, step_of[n])
                if applied[:1] == [1] and step_of[n]:  # a resume folded the whole log
                    fell_back.add((step_of[n], kind, file))
                assert dir_files(out) == straight, f"killed at call {n} ({kind} {file}), {share} written"
        # A kill between metrics.json's replace and state.json's unlink
        # leaves a checkpoint that covers a prefix of the history but names
        # the entries of an older metrics.json, and a kill at the rename
        # leaves no checkpoint: either way the resume folds the whole log.
        # A kill before the history block, or before metrics.json's
        # replace, leaves a checkpoint that the resume restores.
        for step in range(1, iterations):
            state_calls = {("write_text", STATE_FILE + ".tmp"), ("unlink", STATE_FILE), ("rename", STATE_FILE)}
            assert {(step, *call) for call in state_calls} <= fell_back
            assert {(step, "write", HISTORY_FILE), (step, "replace", METRICS_FILE)} & fell_back == set()


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


class TestStructuralViolations:
    """A draft that fails structural validation is logged as a violation
    event of stage validate, then repaired. _mk_draft clamps every field,
    so no proposal of the agents' own fails here; the first draft of each
    iteration is made invalid on its way out of propose."""

    def test_an_invalid_draft_logs_a_validate_violation_and_resumes(self, tmp_path, monkeypatch):
        propose = orchestrate.propose

        def rows_zero_first(req, agent):
            drafts = list(propose(req, agent))
            drafts[0] = dataclasses.replace(drafts[0], fabric=dataclasses.replace(drafts[0].fabric, rows=0))
            return drafts

        monkeypatch.setattr(orchestrate, "propose", rows_zero_first)
        cfg = quick_cfg()
        full = run(cfg, tmp_path / "full")
        violations = [e for e in read_history(full.history_path) if e["type"] == "violation"]
        assert [e["iteration"] for e in violations] == [1, 2, 3]
        for e in violations:
            assert e["stage"] == "validate"
            assert e["error"]["type"] == "structural"
            assert [v["code"] for v in e["error"]["violations"]] == ["ROWS_RANGE"]
        for it in range(1, cfg.iterations + 1):
            run(dataclasses.replace(cfg, iterations=it), tmp_path / "chain", resume=it > 1)
        assert dir_files(tmp_path / "chain") == dir_files(full.out_dir)


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
        # a copy, whose tables and searches are its own: map_kernel keeps
        # each search per kernel object
        return map_kernel(dataclasses.replace(tk), d.fabric, budget)

    def test_verdicts_equal_uncached_mapping(self, tmp_path, monkeypatch):
        fresh_memos(monkeypatch)
        searches = []
        real_search = mapper._search
        monkeypatch.setattr(mapper, "_search", lambda *a: searches.append(a) or real_search(*a))
        rng = random.Random(5)
        codes = set()
        for name in BUILTIN_KERNELS:
            runner = _Runner(RunConfig(kernel=name, budget=self.BUDGET), tmp_path)
            designs = self.designs(rng, {n.kind for n in runner.kernel.nodes})
            rng.shuffle(designs)
            searched = 0  # by the runner's checks
            for d in designs:
                before = len(searches)
                got = runner._check(d)
                searched += len(searches) - before
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
            assert searched <= 4  # once per shape, for all of its designs
        # the sample reaches every stage of the check
        assert {"OK", "MISSING_FU_KIND", "CONFIG_MEM_OVERFLOW", "INSUFFICIENT_TILES"} <= codes

    def test_a_design_key_is_checked_once_and_mapped_as_its_own_design(self, tmp_path, monkeypatch):
        """_check keeps one verdict per design_key for the run: designs that
        differ only in id, note and provenance get equal verdicts from one
        validation, and _mapped gives each caller its own design."""
        from cgraforge import orchestrate

        validated = []
        real_validate = orchestrate.validate_design
        monkeypatch.setattr(orchestrate, "validate_design", lambda d: validated.append(d.id) or real_validate(d))
        runner = _Runner(RunConfig(kernel="spmv", budget=self.BUDGET), tmp_path)
        cases = {
            "OK": make_design(),
            "STRUCTURAL": make_design(rows=0),
            "NON_DIVISIBLE_FACTOR": make_design(unroll_factor=5),
            "MISSING_FU_KIND": make_design(fu_kinds=frozenset({FuKind.ADD}), data_mem_kb=0),
            "CONFIG_MEM_OVERFLOW": make_design(config_mem_depth=1),
        }
        for want, base in cases.items():
            first = dataclasses.replace(base, id=f"{want}-1", note="proposal:random")
            again = dataclasses.replace(
                base, id=f"{want}-2", note="proposal:mutate:rows;repair:ROWS_RANGE", provenance=Provenance.REPAIRED
            )
            verdicts = [runner._check(first), runner._check(again)]
            assert validated == [first.id], want  # the repeat is a lookup
            validated.clear()
            if want == "OK":
                assert verdicts == [None, None]
                for d in (first, again):
                    m = runner._mapped(d)
                    assert m.design is d
                    assert check_mapping(apply_sw_params(runner.kernel, 1, 1), d.fabric, m.mapping) == []
            else:
                payloads = [error_payload(v) for v in verdicts]
                assert payloads[0] == payloads[1]
                assert payloads[0].get("code", "STRUCTURAL") == want

    def test_designs_read_back_from_their_fields(self):
        """The fold rebuilds each design from its history fields; the
        seeded designs come back equal, and equal fields share one fabric."""
        rng = random.Random(5)
        for name in BUILTIN_KERNELS:
            for d in self.designs(rng, {n.kind for n in load_kernel(name).nodes}):
                back = design_from_dict(design_dict(d), d.id, d.provenance, d.note)
                assert back == d, (name, d)
                again = design_from_dict(json.loads(json.dumps(design_dict(d))), "other")
                assert again.fabric is back.fabric and again.sw is back.sw

    def test_each_software_setting_is_prepared_once(self, tmp_path, monkeypatch):
        """In a process, the transforms and the mapper's kernel tables run
        once per distinct (unroll, vectorize) the runs of a kernel
        validate, however many fabric shapes they map that setting on and
        however many runs there are: a second run transforms nothing and
        builds no tables, and a failed transform is kept for it too."""
        fresh_memos(monkeypatch)
        validated, transforms, kernels_ok, built = [], [], [], []
        real_validate, real_transform = orchestrate.validate_design, orchestrate.apply_sw_params

        def validate(d):
            out = real_validate(d)
            if not out:
                validated.append((d.sw.unroll_factor, d.sw.vectorize_factor, d.fabric.rows, d.fabric.cols, d.fabric.topology))
            return out

        def transform(k, u, v):
            transforms.append((u, v))
            out = real_transform(k, u, v)
            kernels_ok.append(id(out))
            return out

        class Counted(mapper._KernelTables):
            def __init__(self, k):
                built.append(id(k))
                super().__init__(k)

        monkeypatch.setattr(orchestrate, "validate_design", validate)
        monkeypatch.setattr(orchestrate, "apply_sw_params", transform)
        monkeypatch.setattr(mapper, "_KernelTables", Counted)
        cfg = RunConfig(kernel="fft", iterations=12, proposals_per_iteration=6, seed=3)
        first = run(cfg, tmp_path / "out")
        settings = {shape[:2] for shape in validated}
        assert len({shape for shape in validated}) > len(settings)  # settings met several shapes
        assert sorted(transforms) == sorted(settings)
        assert sorted(built) == sorted(kernels_ok)
        # A second run of the kernel in the process: the same work, none of it redone.
        transforms.clear()
        built.clear()
        again = run(cfg, tmp_path / "again")
        assert (transforms, built) == ([], [])
        assert again.history_path.read_bytes() == first.history_path.read_bytes()
        # A failed transform is kept too: unroll 5 does not divide fft's 192
        # trips. Another run gets the same error object without transforming.
        runner = _Runner(RunConfig(kernel="fft"), tmp_path / "direct")
        for rows in (1, 2, 3):
            assert isinstance(runner._check(make_design(rows=rows, unroll_factor=5)), TransformError)
        assert transforms == [(5, 1)]
        other = _Runner(RunConfig(kernel="fft", seed=9), tmp_path / "other")
        assert other._check(make_design(unroll_factor=5)) is runner._check(make_design(unroll_factor=5))
        assert transforms == [(5, 1)]

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


class TestProcessMemo:
    """The transforms and searches of a kernel are kept for every run and
    resume of the process that loads the same kernel content; what a run
    writes must not depend on what the process ran before it."""

    CFG = RunConfig(kernel="fft", iterations=8, seed=2)

    @pytest.mark.parametrize("chained", [False, True], ids=["whole", "chained"])
    def test_a_warm_process_writes_what_a_cold_one_writes(self, tmp_path, monkeypatch, chained):
        fresh_memos(monkeypatch)
        cold = run_bytes(run(self.CFG, tmp_path / "cold"))
        # Fill the memo: the same kernel under another seed and under
        # another budget (whose searches differ), and another kernel.
        warmups = (
            dataclasses.replace(self.CFG, seed=5),
            dataclasses.replace(self.CFG, budget=MapBudget(max_ii=4, placement_attempts=30)),
            dataclasses.replace(self.CFG, kernel="relu"),
        )
        for i, cfg in enumerate(warmups):
            other = run(cfg, tmp_path / f"warmup{i}").history_path.read_bytes()
            assert other.split(b"\n", 1)[1] != cold[0].split(b"\n", 1)[1]  # past the header
        # what the warm-ups derived is kept on fft's and relu's loaded kernels
        for name in ("fft", "relu"):
            assert any(isinstance(key, tuple) for key in load_kernel(name).derived), name
        out = tmp_path / "warm"
        for it in range(1, self.CFG.iterations + 1) if chained else [self.CFG.iterations]:
            warm = run(dataclasses.replace(self.CFG, iterations=it), out, resume=chained and it > 1)
        assert run_bytes(warm) == cold

    @staticmethod
    def counted(monkeypatch) -> tuple[list, list]:
        """Wrap orchestrate's map_kernel and the mapper's search: the first
        list gets each lookup's search key, (kernel tables, rows, cols,
        topology, budget), for every call the FU kinds pass, the second
        each key actually searched."""
        used, searched = [], []
        real_map, real_search = orchestrate.map_kernel, mapper._search

        def lookup(k, f, budget):
            kt = mapper._kernel_tables(k)
            if kt.kinds <= f.fu_kinds:
                used.append((kt, f.rows, f.cols, f.topology, budget))
            return real_map(k, f, budget)

        def search(kt, f, budget):
            searched.append((kt, f.rows, f.cols, f.topology, budget))
            return real_search(kt, f, budget)

        monkeypatch.setattr(orchestrate, "map_kernel", lookup)
        monkeypatch.setattr(mapper, "_search", search)
        return used, searched

    def test_a_run_calls_the_mapper_it_finds_bound(self, tmp_path, monkeypatch):
        """A run maps through the map_kernel bound in this module, so a
        stub or a tracer's wrapper installed after a run sees every shape
        the next run maps, and the mapper answers that run from the
        searches it kept."""
        fresh_memos(monkeypatch)
        first = []
        real_search = mapper._search
        monkeypatch.setattr(
            mapper, "_search", lambda kt, f, b: first.append((kt, f.rows, f.cols, f.topology, b)) or real_search(kt, f, b)
        )
        plain = run_bytes(run(self.CFG, tmp_path / "plain"))
        assert len(first) == len(set(first)) <= mapper.SEARCHES_KEPT  # each shape searched once
        used, searched = self.counted(monkeypatch)
        assert run_bytes(run(self.CFG, tmp_path / "wrapped")) == plain
        assert set(used) == set(first)
        assert searched == []

    def test_the_searches_kept_never_pass_their_cap(self, tmp_path, monkeypatch):
        """The mapper keeps the SEARCHES_KEPT searches used last, so a run
        makes exactly the searches a least-recently-used memo of that size
        misses, and the next run finds the ones the first used last."""
        fresh_memos(monkeypatch)
        cap = 5
        monkeypatch.setattr(mapper, "SEARCHES_KEPT", cap)
        used, searched = self.counted(monkeypatch)

        def lru_misses(keys, kept):
            misses = []
            for key in keys:
                if key in kept:
                    kept.move_to_end(key)
                    continue
                misses.append(key)
                kept[key] = None
                if len(kept) > cap:
                    kept.popitem(last=False)
            return misses

        cfg = RunConfig(kernel="fft", iterations=12, proposals_per_iteration=6, seed=3)
        first = run(cfg, tmp_path / "first")
        kept = OrderedDict()
        assert searched == lru_misses(used, kept)
        assert len(set(used)) > 3 * cap
        assert list(mapper._SEARCHES) == list(kept)  # the cap's worth, used last
        # The next run, with room for all it searches, finds the kept ones.
        monkeypatch.setattr(mapper, "SEARCHES_KEPT", 1000)
        used.clear()
        searched.clear()
        again = run(cfg, tmp_path / "again")
        assert len(searched) == len(set(used)) - cap
        assert run_bytes(again) == run_bytes(first)

    def test_a_freed_kernel_frees_its_transforms_and_tables(self, monkeypatch):
        """What check_design derives from a kernel is kept on the kernel
        object and refers nothing back to it: a freed kernel frees its
        transforms, failed ones included, and their mapper tables, once
        the kept searches that hold the tables leave."""
        fresh_memos(monkeypatch)
        k = parse_kernel(read_text(resources.files("cgraforge.data.kernels").joinpath("fft.json")))
        budget = MapBudget(max_ii=12, placement_attempts=300)
        for design in (make_design(), make_design(rows=3, cols=3, unroll_factor=2)):
            assert isinstance(check_design(k, design, budget), MappedDesign)
        assert isinstance(check_design(k, make_design(unroll_factor=5), budget), TransformError)
        assert k.derived[1, 1] is None  # the identity, kept without a reference to k
        kept = [k, k.derived[2, 1], k.derived[5, 1], k.derived["tables"], k.derived[2, 1].derived["tables"]]
        refs = [weakref.ref(x) for x in kept]
        del k, kept
        mapper._SEARCHES.clear()
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)

    def test_a_built_in_text_is_read_once_per_process(self, monkeypatch):
        """A built-in kernel and the packaged cost coefficients are looked
        up through importlib.resources on their first load only."""
        files, looked_up = resources.files, []
        monkeypatch.setattr(resources, "files", lambda package: looked_up.append(package) or files(package))
        package_text.cache_clear()  # as in a new process; a later read gives the same text
        for _ in range(2):
            load_kernel("spmv")
            load_cost_coeffs()
        assert looked_up == ["cgraforge.data.kernels", "cgraforge.data"]


class TestSharedVerdict:
    """check_design is the one verdict on a design: the runs' repair loop
    and cli's map and evaluate all call it."""

    @pytest.mark.parametrize("kernel", ["spmv", "fft", "fir"])
    def test_check_design_agrees_with_every_logged_verdict(self, tmp_path, kernel):
        """For each proposal a run logs, check_design at the run's budget
        gives the event logged after it: a map_result's ok, ii and speedup,
        or a violation's or failed map's error. Each fix gives its own
        event: its ii and speedup if it mapped, else its error. (A run's
        drafts are built clamped, so its failures are mapping failures.)"""
        cfg = RunConfig(kernel=kernel, iterations=8, seed=1)
        events = read_history(run(cfg, tmp_path / "out").history_path)
        k = load_kernel(kernel)
        checked = set()
        for ev, after in zip(events, events[1:]):
            if ev["type"] == "fix":
                after = ev
            elif ev["type"] != "proposal":
                continue
            verdict = check_design(k, _event_design(ev), cfg.budget)
            assert after["design_id"] == ev["design_id"]
            if isinstance(verdict, MappedDesign):
                assert (after["ok"], after["ii"], after["speedup"]) == (True, verdict.mapping.ii, verdict.speedup)
                checked.add("OK")
            else:
                assert after.get("ok") is not True
                assert after["error"] == error_payload(verdict)
                checked.add(after["error"].get("code", "STRUCTURAL"))
        assert "OK" in checked and len(checked) > 1, checked
