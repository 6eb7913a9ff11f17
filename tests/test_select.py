"""Adaptive-confidence controller: mode decisions, confidence updates."""

import json
import math
import random

import pytest

from cgraforge.selection import (
    RELATIVE_SIGMA_FRACTION,
    SIGMA_FLOOR,
    SelectionConfig,
    SelectionConfigError,
    SelectionState,
    SimStep,
    ToolRound,
    TraceRecord,
    effective_sigma,
    load_sim_script,
    run_selection,
    select_step,
    trace_to_jsonl,
)


def step(state, cfg, judge=("j", 1.0), tool=("t", 1.0)):
    return select_step(
        state,
        cfg,
        judge_select=lambda: judge,
        tool_round=lambda: ToolRound(reports=(), choice=tool[0], score=tool[1]),
    )


class TestSelectionConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"conf_threshold": -0.1},
            {"conf_threshold": 1.1},
            {"validation_interval": 0},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"sigma": 0.0},
            {"sigma": -2.0},
            {"sigma": float("nan")},
            {"sigma": float("inf")},
            {"initial_confidence": 2.0},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(SelectionConfigError):
            SelectionConfig(**kwargs)

    def test_defaults(self):
        cfg = SelectionConfig()
        assert cfg.conf_threshold == 0.7
        assert cfg.validation_interval == 5
        assert cfg.alpha == 0.3
        assert cfg.sigma is None
        assert cfg.initial_confidence == 0.0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SelectionConfigError):
            SelectionConfig.from_dict({"alpha": 0.5, "beta": 0.5})

    def test_from_dict_keeps_ints_and_null_sigma(self):
        cfg = SelectionConfig.from_dict({"alpha": 1, "sigma": None, "validation_interval": 2})
        assert type(cfg.alpha) is int and cfg.sigma is None


class TestEffectiveSigma:
    def test_pinned_sigma_wins(self):
        assert effective_sigma(SelectionConfig(sigma=2.5), 100.0) == 2.5

    def test_relative_sigma(self):
        assert effective_sigma(SelectionConfig(), 10.0) == RELATIVE_SIGMA_FRACTION * 10.0
        assert effective_sigma(SelectionConfig(), -10.0) == RELATIVE_SIGMA_FRACTION * 10.0

    def test_floor_at_zero_score(self):
        assert effective_sigma(SelectionConfig(), 0.0) == SIGMA_FLOOR


class TestSelectStep:
    def test_low_confidence_uses_tool(self):
        cfg = SelectionConfig(conf_threshold=0.7)
        state, rec, _ = step(SelectionState(confidence=0.0), cfg)
        assert rec.mode == "TOOL"
        assert rec.final_choice == "t"

    def test_high_confidence_uses_judge(self):
        cfg = SelectionConfig(conf_threshold=0.7, validation_interval=5)
        state, rec, lesson = step(SelectionState(iteration=1, confidence=0.9), cfg)
        assert rec.mode == "LLM"
        assert rec.final_choice == "j"
        assert rec.tool_choice is None and rec.tool_score is None and rec.similarity is None
        assert state.confidence == 0.9
        assert lesson is None

    def test_interval_forces_tool_despite_confidence(self):
        cfg = SelectionConfig(conf_threshold=0.1, validation_interval=5)
        state, rec, _ = step(SelectionState(iteration=4, confidence=0.99), cfg)
        assert rec.iteration == 5
        assert rec.mode == "TOOL"

    def test_documented_confidence_update(self):
        # judge 4.0 vs tool 2.0 with alpha 0.3, sigma 1, starting at 0.65
        cfg = SelectionConfig(conf_threshold=0.7, alpha=0.3, sigma=1.0)
        state, rec, _ = step(SelectionState(confidence=0.65), cfg, judge=("j", 4.0), tool=("t", 2.0))
        want = 0.3 * math.exp(-2.0) + 0.7 * 0.65
        assert rec.mode == "TOOL"
        assert state.confidence == pytest.approx(want, abs=1e-12)
        assert state.confidence == pytest.approx(0.49560, abs=1e-5)

    def test_the_round_is_returned_only_in_tool_mode(self):
        """A TOOL step returns the round tool_round built, the very object;
        an LLM step never calls tool_round and returns None."""
        rounds = []

        def tool_round():
            rounds.append(ToolRound(reports=(), choice="t", score=1.0))
            return rounds[-1]

        cfg = SelectionConfig(conf_threshold=0.7)
        _, rec, round_ = select_step(SelectionState(confidence=0.0), cfg, lambda: ("j", 1.0), tool_round)
        assert rec.mode == "TOOL"
        assert len(rounds) == 1 and round_ is rounds[0]

        _, rec2, round2 = select_step(SelectionState(iteration=1, confidence=0.95), cfg, lambda: ("j", 1.0), tool_round)
        assert rec2.mode == "LLM"
        assert round2 is None
        assert len(rounds) == 1  # unchanged

    def test_state_iteration_advances(self):
        cfg = SelectionConfig()
        state = SelectionState()
        for want in (1, 2, 3):
            state, rec, _ = step(state, cfg)
            assert state.iteration == rec.iteration == want

    def test_mode_rule_and_confidence_invariants(self):
        rng = random.Random(77)
        for _ in range(200):
            cfg = SelectionConfig(
                conf_threshold=rng.random(),
                validation_interval=rng.randint(1, 7),
                alpha=rng.uniform(0.05, 1.0),
                sigma=rng.choice([None, rng.uniform(0.1, 3.0)]),
            )
            state = SelectionState(confidence=rng.random())
            for _ in range(rng.randint(1, 12)):
                before = state
                t = rng.uniform(-5, 5)
                l = rng.uniform(-5, 5)
                state, rec, _ = step(before, cfg, judge=("j", l), tool=("t", t))
                it = before.iteration + 1
                want_tool = before.confidence < cfg.conf_threshold or it % cfg.validation_interval == 0
                assert (rec.mode == "TOOL") == want_tool
                assert 0.0 <= state.confidence <= 1.0
                if rec.mode == "LLM":
                    assert state.confidence == before.confidence
                else:
                    sim = math.exp(-abs(l - t) / effective_sigma(cfg, t))
                    assert state.confidence == pytest.approx(
                        cfg.alpha * sim + (1 - cfg.alpha) * before.confidence, abs=1e-12
                    )


class TestRunSelection:
    def test_labels_and_final_choices(self):
        cfg = SelectionConfig(conf_threshold=0.0, validation_interval=3, initial_confidence=1.0)
        trace = run_selection(cfg, [SimStep(t_score=1.0, l_score=1.0)] * 6)
        assert [r.mode for r in trace] == ["LLM", "LLM", "TOOL", "LLM", "LLM", "TOOL"]
        assert trace[2].final_choice == "s003-tool"
        assert trace[0].final_choice == "s001-judge"

    def test_trace_round_trips_through_jsonl(self):
        cfg = SelectionConfig(sigma=1.0)
        trace = run_selection(cfg, [SimStep(t_score=2.0, l_score=3.0)] * 4)
        lines = trace_to_jsonl(trace).splitlines()
        assert len(lines) == 4
        back = [TraceRecord(**json.loads(line)) for line in lines]
        assert back == trace


class TestLoadSimScript:
    def good(self):
        return {"selection": {"alpha": 0.5, "sigma": 1.0}, "steps": [{"t_score": 2.0, "l_score": 2.0}]}

    def test_round_trip(self):
        cfg, steps = load_sim_script(self.good())
        assert cfg.alpha == 0.5
        assert steps == [SimStep(t_score=2.0, l_score=2.0)]

    def test_selection_block_is_optional(self):
        cfg, _ = load_sim_script({"steps": [{"t_score": 1, "l_score": 1}]})
        assert cfg == SelectionConfig()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(extra=1),
            lambda d: d.update(steps=[]),
            lambda d: d.update(steps=[{"t_score": 1.0}]),
            lambda d: d.update(steps=[{"t_score": 1.0, "l_score": 1.0, "x": 2}]),
            lambda d: d.update(steps=[{"t_score": True, "l_score": 1.0}]),
            lambda d: d.update(steps="nope"),
            lambda d: d["selection"].update(beta=1),
            lambda d: d["selection"].update(alpha="0.3"),
            lambda d: d["selection"].update(validation_interval=2.5),
            lambda d: d["selection"].update(sigma=float("nan")),
            lambda d: d["selection"].update(sigma=float("inf")),
            lambda d: d["selection"].update(initial_confidence=float("nan")),
            lambda d: d.update(steps=[{"t_score": float("nan"), "l_score": 1.0}]),
        ],
    )
    def test_rejects_malformed_scripts(self, mutate):
        doc = self.good()
        mutate(doc)
        with pytest.raises(SelectionConfigError):
            load_sim_script(doc)
