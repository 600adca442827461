"""Prompt construction, proposal parsing, acceptance rule, and loop contracts."""

import json
import math
import random

import pytest

from defrefine import classifier
from defrefine.corpus import Document
from defrefine.errors import DataError, DefinitionParseError
from defrefine.evaluation import confusion_matrix, macro_f1
from defrefine.llm import ScriptedLlm
from defrefine.refinement import (
    AnnealingSchedule,
    FeedbackBundle,
    HistoryEntry,
    StrategyConfig,
    accept,
    build_prompt,
    energy_drop,
    initial_definitions,
    parse_definitions,
    refine,
    temperature,
)

from conftest import (
    TOY_CATEGORIES,
    ideal_definitions,
    junk_definitions,
    mock_gateway,
    separable_dataset,
)


class RecordingLlm:
    """Wraps a scripted mock and keeps every prompt it was sent."""

    def __init__(self, responses):
        self.inner = ScriptedLlm(responses)
        self.prompts = []
        self.last_latency_ms = 0.0

    @property
    def calls(self):
        return self.inner.calls

    def complete(self, prompt):
        self.prompts.append(prompt)
        out = self.inner.complete(prompt)
        self.last_latency_ms = self.inner.last_latency_ms
        return out


def _feedback_m1():
    return FeedbackBundle(example=Document("d0", "sample body", "alpha", "train"))


def _feedback_m2():
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 0, 1], TOY_CATEGORIES)
    from defrefine.evaluation import top_k_confused_pairs

    pairs = top_k_confused_pairs(cm, 2)
    samples = [
        Document("d1", "alpha-ish body", "alpha", "train"),
        Document("d2", "beta-ish body", "beta", "train"),
    ]
    return FeedbackBundle(confused_pairs=pairs, confused_samples=samples)


class TestInitialDefinitions:
    def test_minimal_template(self):
        defs = initial_definitions(["Food"], "minimal")
        assert defs == {"Food": "A webpage about Food."}

    def test_minimal_distinct_per_category(self):
        cats = [f"c{i}" for i in range(10)]
        defs = initial_definitions(cats, "minimal")
        assert len(defs) == 10
        assert len(set(defs.values())) == 10

    def test_llm_generated_roundtrip(self):
        scripted = {"Food": "meals", "Health": "care"}
        llm = ScriptedLlm([json.dumps(scripted)])
        defs = initial_definitions(["Food", "Health"], "llm_generated", llm)
        assert defs == scripted

    def test_llm_generated_requires_llm(self):
        with pytest.raises(ValueError):
            initial_definitions(["Food"], "llm_generated")

    def test_llm_generated_retries_then_fails(self):
        llm = RecordingLlm(["bad", "still bad", "nope"])
        with pytest.raises(DefinitionParseError):
            initial_definitions(["Food"], "llm_generated", llm, parse_retries=2)
        assert llm.calls == 3
        assert "not valid JSON" in llm.prompts[1]
        assert "not valid JSON" not in llm.prompts[0]


class TestBuildPrompt:
    def test_m1_has_exactly_one_example_block(self):
        prompt = build_prompt(
            StrategyConfig("m1"), TOY_CATEGORIES, ideal_definitions(), 0.5, _feedback_m1()
        )
        assert prompt.count("EXAMPLE (gold=") == 1
        assert "CONFUSED" not in prompt
        assert "PREVIOUS DEFINITIONS" not in prompt

    def test_section_order(self):
        prompt = build_prompt(
            StrategyConfig("m1"), TOY_CATEGORIES, ideal_definitions(), 0.5, _feedback_m1()
        )
        i_defs = prompt.index("CURRENT DEFINITIONS:")
        i_phi = prompt.index("CURRENT TRAIN MACRO-F1: 0.5000")
        i_ex = prompt.index("EXAMPLE (gold=alpha):")
        i_out = prompt.index("Respond with a single JSON object")
        assert i_defs < i_phi < i_ex < i_out

    def test_m2_blocks(self):
        prompt = build_prompt(
            StrategyConfig("m2", k_confused=2), TOY_CATEGORIES, ideal_definitions(), 0.5, _feedback_m2()
        )
        assert "CONFUSED PAIRS (most confused first):" in prompt
        assert prompt.count("CONFUSED SAMPLE (gold=") == 2
        assert "PREVIOUS DEFINITIONS" not in prompt
        assert "EXAMPLE (gold=" not in prompt

    def test_m3_history_blocks_chronological(self):
        feedback = _feedback_m2()
        feedback.history = [
            HistoryEntry(junk_definitions(1), 0.41),
            HistoryEntry(junk_definitions(2), 0.43),
        ]
        prompt = build_prompt(
            StrategyConfig("m3", k_confused=2, m_history=2),
            TOY_CATEGORIES,
            ideal_definitions(),
            0.5,
            feedback,
        )
        assert prompt.count("PREVIOUS DEFINITIONS (score=") == 2
        assert prompt.index("score=0.4100") < prompt.index("score=0.4300")

    def test_deterministic(self):
        args = (StrategyConfig("m1"), TOY_CATEGORIES, ideal_definitions(), 0.5, _feedback_m1())
        assert build_prompt(*args) == build_prompt(*args)

    def test_sample_truncation(self):
        feedback = FeedbackBundle(example=Document("d0", "x" * 5000, "alpha", "train"))
        prompt = build_prompt(
            StrategyConfig("m1"), TOY_CATEGORIES, ideal_definitions(), 0.5, feedback,
            sample_char_cap=100,
        )
        assert "x" * 100 in prompt
        assert "x" * 101 not in prompt

    def test_empty_confusion_renders_none(self):
        feedback = FeedbackBundle()
        prompt = build_prompt(
            StrategyConfig("m2"), TOY_CATEGORIES, ideal_definitions(), 1.0, feedback
        )
        assert "- none" in prompt

    def test_feedback_strategy_mismatch(self):
        with pytest.raises(ValueError):
            build_prompt(
                StrategyConfig("m1"), TOY_CATEGORIES, ideal_definitions(), 0.5, FeedbackBundle()
            )
        with pytest.raises(ValueError):
            build_prompt(
                StrategyConfig("m2"), TOY_CATEGORIES, ideal_definitions(), 0.5, _feedback_m1()
            )
        bad = _feedback_m2()
        bad.history = [HistoryEntry(junk_definitions(1), 0.4)]
        with pytest.raises(ValueError):
            build_prompt(StrategyConfig("m2"), TOY_CATEGORIES, ideal_definitions(), 0.5, bad)


class TestParseDefinitions:
    def test_plain_object(self):
        out = parse_definitions('{"Food": "x", "Health": "y"}', ["Food", "Health"])
        assert out == {"Food": "x", "Health": "y"}

    def test_fenced_output(self):
        fenced = '```json\n{"Food": "x", "Health": "y"}\n```'
        assert parse_definitions(fenced, ["Food", "Health"]) == parse_definitions(
            '{"Food": "x", "Health": "y"}', ["Food", "Health"]
        )

    def test_surrounding_prose(self):
        text = 'Sure! Here you go:\n{"Food": "x"}\nHope that helps.'
        assert parse_definitions(text, ["Food"]) == {"Food": "x"}

    def test_missing_category(self):
        with pytest.raises(DefinitionParseError, match="missing category: Health"):
            parse_definitions('{"Food": "x"}', ["Food", "Health"])

    def test_empty_definition(self):
        with pytest.raises(DefinitionParseError, match="empty definition"):
            parse_definitions('{"Food": "  "}', ["Food"])

    def test_no_object(self):
        with pytest.raises(DefinitionParseError, match="no JSON object"):
            parse_definitions("[1, 2, 3] and some prose", ["Food"])

    def test_extra_keys_ignored_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            out = parse_definitions('{"Food": "x", "Bonus": "y"}', ["Food"])
        assert out == {"Food": "x"}
        assert any("Bonus" in r.message for r in caplog.records)

    def test_output_keys_follow_category_order(self):
        out = parse_definitions('{"b": "2", "a": "1"}', ["a", "b"])
        assert list(out) == ["a", "b"]


class TestEnergyAndSchedule:
    def test_energy_drop_values(self):
        assert energy_drop(0.70, 0.65) == pytest.approx(0.05)
        assert energy_drop(0.70, 0.70) == 0.0
        assert energy_drop(0.60, 0.75) == pytest.approx(-0.15)

    def test_temperature_endpoints_and_midpoint(self):
        sched = AnnealingSchedule(t0=0.1, t_min=0.01, t_max_iterations=100)
        assert temperature(0, sched) == 0.1
        assert temperature(100, sched) == 0.01
        assert temperature(50, sched) == 0.05

    def test_temperature_clamps_at_floor(self):
        sched = AnnealingSchedule(t0=0.1, t_min=0.01, t_max_iterations=10)
        assert temperature(10, sched) == 0.01
        assert temperature(9, sched) == pytest.approx(0.01, abs=1e-12)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(t0=0.01, t_min=0.1)
        with pytest.raises(ValueError):
            AnnealingSchedule(t_max_iterations=0)

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            StrategyConfig("m9")
        with pytest.raises(ValueError):
            StrategyConfig("m2", k_confused=6)
        with pytest.raises(ValueError):
            StrategyConfig("m3", m_history=0)
        assert StrategyConfig("M3").strategy == "m3"

    def test_default_acceptance_modes(self):
        assert StrategyConfig("m1").resolved_acceptance == "always_accept"
        assert StrategyConfig("m2").resolved_acceptance == "always_accept"
        assert StrategyConfig("m3").resolved_acceptance == "metropolis"
        assert StrategyConfig("m1", acceptance="metropolis").resolved_acceptance == "metropolis"


class TestAccept:
    def test_improvement_accepts_without_draw(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert accept(-0.01, 0.1, rng) is True
        assert accept(0.0, 0.1, rng) is True
        assert rng.getstate() == before

    def test_downhill_probability(self):
        rng = random.Random(123)
        n = 20_000
        hits = sum(accept(0.05, 0.1, rng) for _ in range(n)) / n
        assert hits == pytest.approx(math.exp(-0.5), abs=0.01)

    def test_near_greedy_late(self):
        rng = random.Random(9)
        hits = sum(accept(0.05, 0.01, rng) for _ in range(5000)) / 5000
        assert hits == pytest.approx(math.exp(-5.0), abs=0.01)

    def test_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            accept(0.1, 0.0, random.Random(0))


def _run(script, strategy=None, t_max=None, seed=7, parse_retries=0, dataset=None, llm=None):
    dataset = dataset or separable_dataset()
    strategy = strategy or StrategyConfig("m3", k_confused=2, m_history=2)
    t_max = t_max if t_max is not None else len(script)
    llm = llm or ScriptedLlm(script)
    result = refine(
        dataset,
        strategy,
        AnnealingSchedule(t_max_iterations=max(1, t_max)),
        mock_gateway(),
        llm,
        seed=seed,
        t_max=t_max,
        parse_retries=parse_retries,
    )
    return result, llm


def _running_best(result):
    best = result.initial["phi_train"]
    out = []
    for record in result.trace:
        best = max(best, record["phi_train_current"])
        out.append(best)
    return out


class TestRefineLoop:
    def test_trace_length_matches_budget(self):
        script = [json.dumps(junk_definitions(i)) for i in range(5)]
        result, _ = _run(script)
        assert len(result.trace) == 5
        assert [r["iteration"] for r in result.trace] == [1, 2, 3, 4, 5]

    def test_best_updated_at_improving_iteration(self):
        script = [
            json.dumps(junk_definitions(1)),
            json.dumps(junk_definitions(2)),
            json.dumps(ideal_definitions()),
            json.dumps(junk_definitions(3)),
        ]
        result, _ = _run(script)
        assert result.trace[2]["accepted"] is True
        assert result.trace[2]["phi_train_proposed"] == 1.0
        assert result.phi_best_train == 1.0
        assert result.best_definitions == ideal_definitions()

    def test_phi_best_is_max_over_trace(self):
        script = [json.dumps(junk_definitions(i)) for i in range(8)]
        result, _ = _run(script)
        running = _running_best(result)
        assert result.phi_best_train == running[-1]
        assert all(a <= b for a, b in zip(running, running[1:]))

    def test_parse_failure_is_rejection_without_state_change(self):
        script = [
            json.dumps(junk_definitions(1)),
            "this is not json at all",
            json.dumps(junk_definitions(2)),
        ]
        result, _ = _run(script, parse_retries=0)
        bad = result.trace[1]
        assert bad["accepted"] is False
        assert bad["phi_train_proposed"] is None
        assert bad["delta_e"] is None
        assert bad["definitions_hash"] == result.trace[0]["definitions_hash"]
        assert bad["phi_train_current"] == result.trace[0]["phi_train_current"]

    def test_each_definition_set_is_scored_once_on_train(self, monkeypatch):
        # The initial set and each parsed proposal are classified against the
        # train split once; an unchanged current set is not scored again.
        dataset = separable_dataset(n_train=3, n_dev=2, n_test=2)
        n_train = 3 * len(TOY_CATEGORIES)
        rows = []
        classify = classifier.classify

        def counting_classify(docs, defs):
            rows.append(len(docs))
            return classify(docs, defs)

        monkeypatch.setattr(classifier, "classify", counting_classify)
        script = [
            json.dumps(junk_definitions(1)),
            "not json",
            json.dumps(junk_definitions(2)),
            json.dumps(ideal_definitions()),
            "still not json",
            json.dumps(junk_definitions(3)),
        ]
        result, _ = _run(script, parse_retries=0, dataset=dataset)
        parsed = sum(r["phi_train_proposed"] is not None for r in result.trace)
        assert parsed == 4
        assert rows.count(n_train) == 1 + parsed

    def test_parse_retry_reprompts_with_notice(self):
        llm = RecordingLlm(["garbage", json.dumps(junk_definitions(1))])
        result, _ = _run([], t_max=1, parse_retries=1, llm=llm)
        assert llm.calls == 2
        assert llm.prompts[1].endswith("Respond with only the JSON object.")
        assert result.trace[0]["accepted"] is True

    def test_rejected_proposals_never_reach_history(self):
        # Iterations propose uniquely tagged junk; whatever gets rejected must
        # never surface in a later prompt (not as current, not as history).
        script = [json.dumps(junk_definitions(i)) for i in range(1, 11)]
        llm = RecordingLlm(script)
        result, _ = _run([], t_max=10, llm=llm)
        rejected = [r["iteration"] for r in result.trace if not r["accepted"]]
        assert rejected, "expected at least one rejected downhill proposal"
        for it in rejected:
            marker = f"cand-{it} "
            for later_prompt in llm.prompts[it:]:
                assert marker not in later_prompt

    def test_history_window_is_bounded(self):
        script = [json.dumps(junk_definitions(i)) for i in range(1, 13)]
        llm = RecordingLlm(script)
        _run([], t_max=12, strategy=StrategyConfig("m3", k_confused=2, m_history=3), llm=llm)
        for prompt in llm.prompts:
            assert prompt.count("PREVIOUS DEFINITIONS (score=") <= 3

    def test_m1_prompts_have_no_confusion_or_history(self):
        script = [json.dumps(junk_definitions(i)) for i in range(1, 5)]
        llm = RecordingLlm(script)
        _run([], t_max=4, strategy=StrategyConfig("m1"), llm=llm)
        for prompt in llm.prompts:
            assert prompt.count("EXAMPLE (gold=") == 1
            assert "CONFUSED" not in prompt
            assert "PREVIOUS DEFINITIONS" not in prompt

    def test_m2_prompts_have_no_history(self):
        script = [json.dumps(junk_definitions(i)) for i in range(1, 5)]
        llm = RecordingLlm(script)
        _run([], t_max=4, strategy=StrategyConfig("m2", k_confused=2), llm=llm)
        for prompt in llm.prompts:
            assert "PREVIOUS DEFINITIONS" not in prompt

    def test_always_accept_mode_accepts_downhill(self):
        script = [json.dumps(ideal_definitions()), json.dumps(junk_definitions(1))]
        result, _ = _run(script, strategy=StrategyConfig("m2", k_confused=2))
        assert result.trace[1]["accepted"] is True
        assert result.trace[1]["phi_train_current"] < 1.0
        # Best still retains the ideal set.
        assert result.phi_best_train == 1.0

    def test_fixed_point_script_constant_trace(self):
        dataset = separable_dataset()
        fixed = initial_definitions(dataset.categories, "minimal")
        script = [json.dumps(fixed)] * 6
        result, _ = _run(script, dataset=dataset)
        hashes = {r["definitions_hash"] for r in result.trace}
        assert len(hashes) == 1
        assert all(r["accepted"] for r in result.trace)
        assert all(r["delta_e"] == 0.0 for r in result.trace)
        assert {r["phi_train_current"] for r in result.trace} == {result.initial["phi_train"]}

    def test_byte_identical_traces_for_equal_seeds(self):
        script = [json.dumps(junk_definitions(i)) for i in range(1, 9)]
        r1, _ = _run(script, seed=21)
        r2, _ = _run(script, seed=21)
        assert json.dumps(r1.trace) == json.dumps(r2.trace)

    def test_different_seeds_change_sampling(self):
        script = [json.dumps(junk_definitions(i)) for i in range(1, 5)]
        llm_a = RecordingLlm(script)
        llm_b = RecordingLlm(script)
        _run([], t_max=4, seed=1, strategy=StrategyConfig("m1"), llm=llm_a)
        _run([], t_max=4, seed=2, strategy=StrategyConfig("m1"), llm=llm_b)
        # Same dataset and script, different sampling stream.
        assert llm_a.prompts != llm_b.prompts

    def test_dev_and_test_metrics_under_best(self):
        script = [json.dumps(ideal_definitions())]
        result, _ = _run(script)
        assert result.dev_metrics.macro_f1 == 1.0
        assert result.test_metrics.macro_f1 == 1.0
        assert result.test_confusion is not None
        assert int(result.test_confusion.counts.sum()) == 6

    def test_requires_train_and_dev(self):
        dataset = separable_dataset(n_dev=0)
        with pytest.raises(DataError):
            refine(
                dataset,
                StrategyConfig("m1"),
                AnnealingSchedule(),
                mock_gateway(),
                ScriptedLlm([]),
                seed=0,
                t_max=1,
            )

    def test_zero_iterations_returns_initial_best(self):
        result, _ = _run([], t_max=0)
        assert result.trace == []
        assert result.phi_best_train == result.initial["phi_train"]
