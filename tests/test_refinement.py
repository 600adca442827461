"""Prompt construction, proposal parsing, acceptance rule, and loop contracts."""

import hashlib
import json
import math
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from defrefine import classifier
from defrefine.corpus import Document
from defrefine.embeddings import EmbeddingGateway
from defrefine.errors import DataError, DefinitionParseError
from defrefine.evaluation import confusion_matrix, macro_f1
from defrefine.llm import HttpLlm, LlmConfig, ScriptedLlm
from defrefine.records import from_json, to_json
from defrefine.refinement import (
    AnnealingSchedule,
    FeedbackBundle,
    HistoryEntry,
    LoopState,
    Splits,
    StrategyConfig,
    accept,
    build_prompt,
    energy_drop,
    initial_definitions,
    parse_definitions,
    refine,
    temperature,
    validate_definitions,
)

from conftest import (
    TOY_CATEGORIES,
    ideal_definitions,
    junk_definitions,
    last_category_only_in_test,
    mock_gateway,
    separable_dataset,
)


class RecordingLlm:
    """Wraps a scripted mock and keeps every prompt it was sent."""

    def __init__(self, responses):
        self.inner = ScriptedLlm(responses)
        self.prompts = []

    def complete(self, prompt, call):
        self.prompts.append(prompt)
        return self.inner.complete(prompt, call)


class CallOnlyLlm:
    """The bare client contract: `complete` and nothing else. It keeps each
    call number it is asked for in `calls`."""

    def __init__(self, responses, calls):
        self._responses = responses
        self._calls = calls

    def complete(self, prompt, call):
        self._calls.append(call)
        return self._responses[call]


class _PromptHashChat(BaseHTTPRequestHandler):
    """A chat endpoint whose reply is picked from `replies` by the sha256 of
    the prompt alone, so equal prompts get equal replies in any run."""

    replies: list = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        digest = hashlib.sha256(body["messages"][1]["content"].encode("utf-8")).digest()
        text = self.replies[int.from_bytes(digest[:8], "big") % len(self.replies)]
        payload = json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def prompt_hash_chat():
    """The URL of a loopback `_PromptHashChat` endpoint."""
    _PromptHashChat.replies = [json.dumps(junk_definitions(i)) for i in range(1, 7)]
    _PromptHashChat.replies += [json.dumps(ideal_definitions()), "not json"]
    server = HTTPServer(("127.0.0.1", 0), _PromptHashChat)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


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
        defs, calls = initial_definitions(["Food"], "minimal")
        assert defs == {"Food": "A webpage about Food."}
        assert calls == 0

    def test_minimal_distinct_per_category(self):
        cats = [f"c{i}" for i in range(10)]
        defs, _ = initial_definitions(cats, "minimal")
        assert len(defs) == 10
        assert len(set(defs.values())) == 10

    def test_llm_generated_roundtrip(self):
        scripted = {"Food": "meals", "Health": "care"}
        llm = ScriptedLlm([json.dumps(scripted)])
        defs, calls = initial_definitions(["Food", "Health"], "llm_generated", llm)
        assert defs == scripted
        assert calls == 1

    def test_llm_generated_requires_llm(self):
        with pytest.raises(ValueError):
            initial_definitions(["Food"], "llm_generated")

    def test_llm_generated_retries_then_fails(self):
        llm = RecordingLlm(["bad", "still bad", "nope"])
        with pytest.raises(DefinitionParseError):
            initial_definitions(["Food"], "llm_generated", llm, parse_retries=2)
        assert len(llm.prompts) == 3
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
        with pytest.raises(DefinitionParseError, match="missing or empty definition for category 'Health'"):
            parse_definitions('{"Food": "x"}', ["Food", "Health"])

    def test_empty_definition(self):
        with pytest.raises(DefinitionParseError, match="empty definition"):
            parse_definitions('{"Food": "  "}', ["Food"])

    def test_no_object(self):
        with pytest.raises(DefinitionParseError, match="no JSON object"):
            parse_definitions("[1, 2, 3] and some prose", ["Food"])

    def test_lone_surrogate_is_unparseable(self):
        with pytest.raises(DefinitionParseError, match="category 'Health' that is not valid Unicode"):
            parse_definitions('{"Food": "x", "Health": "caf\\u00e9 \\udc80"}', ["Food", "Health"])

    def test_extra_keys_ignored_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            out = parse_definitions('{"Food": "x", "Bonus": "y"}', ["Food"])
        assert out == {"Food": "x"}
        assert any("Bonus" in r.message for r in caplog.records)

    def test_output_keys_follow_category_order(self):
        out = parse_definitions('{"b": "2", "a": "1"}', ["a", "b"])
        assert list(out) == ["a", "b"]


class TestValidateDefinitions:
    def test_returns_a_new_set_in_category_order_without_other_keys(self):
        raw = {"b": "2", "extra": "x", "a": "caf\u00e9 \U0001f600"}
        out = validate_definitions(raw, ["a", "b"])
        assert list(out.items()) == [("a", "caf\u00e9 \U0001f600"), ("b", "2")]
        assert raw == {"b": "2", "extra": "x", "a": "caf\u00e9 \U0001f600"}

    @pytest.mark.parametrize(
        "raw, match",
        [
            (["a", "b"], "where is not a JSON object"),
            ({"a": "x"}, "where has a missing or empty definition for category 'b'"),
            ({"a": "x", "b": 2}, "where has a missing or empty definition for category 'b'"),
            ({"a": "x", "b": " \n"}, "where has a missing or empty definition for category 'b'"),
            ({"a": "x", "b": "\ud800"}, "where has a definition for category 'b' that is not valid Unicode"),
        ],
        ids=["not-a-mapping", "missing", "not-a-string", "blank", "lone-surrogate"],
    )
    def test_raises_the_callers_error_naming_where_and_the_category(self, raw, match):
        with pytest.raises(DataError, match=match):
            validate_definitions(raw, ["a", "b"], DataError, "where")

    def test_refine_takes_its_initial_set_through_the_rule(self, toy_dataset):
        splits = Splits(toy_dataset, mock_gateway())
        initial = {**ideal_definitions(), TOY_CATEGORIES[0]: "\ud800"}
        with pytest.raises(ValueError, match="initial definitions has a definition"):
            refine(splits, StrategyConfig("m2"), AnnealingSchedule(), ScriptedLlm([]), seed=0, t_max=0, initial=initial)


class TestEnergyAndSchedule:
    def test_energy_drop_values(self):
        assert energy_drop(0.70, 0.65) == pytest.approx(0.05)
        assert energy_drop(0.70, 0.70) == 0.0
        assert energy_drop(0.60, 0.75) == pytest.approx(-0.15)

    def test_temperature_endpoints_and_midpoint(self):
        sched = AnnealingSchedule(t0=0.1, t_min=0.01)
        assert temperature(0, sched, 100) == 0.1
        assert temperature(100, sched, 100) == 0.01
        assert temperature(50, sched, 100) == 0.05

    def test_temperature_clamps_at_floor(self):
        sched = AnnealingSchedule(t0=0.1, t_min=0.01)
        assert temperature(10, sched, 10) == 0.01
        assert temperature(9, sched, 10) == pytest.approx(0.01, abs=1e-12)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(t0=0.01, t_min=0.1)

    @pytest.mark.parametrize(
        "t0, t_min",
        [
            pytest.param(math.inf, math.inf, id="both-infinite"),
            pytest.param(math.inf, 0.01, id="t0-infinite"),
            pytest.param(math.nan, 0.01, id="t0-nan"),
            pytest.param(0.1, math.nan, id="t_min-nan"),
            pytest.param(0.1, 0.0, id="t_min-zero"),
        ],
    )
    def test_schedule_out_of_bounds_is_refused(self, t0, t_min):
        with pytest.raises(ValueError, match="require 0 < t_min <= t0 < inf"):
            AnnealingSchedule(t0=t0, t_min=t_min)

    def test_schedule_bounds_are_inclusive_where_temperature_allows(self):
        assert temperature(5, AnnealingSchedule(t0=0.1, t_min=0.1), 10) == 0.1

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
        Splits(dataset, mock_gateway()),
        strategy,
        AnnealingSchedule(),
        llm,
        seed=seed,
        t_max=t_max,
        parse_retries=parse_retries,
    )
    return result, llm


def _running_best(result):
    best = result.initial.phi_train
    out = []
    for record in result.trace:
        best = max(best, record.phi_train_current)
        out.append(best)
    return out


class TestRefineLoop:
    def test_trace_length_matches_budget(self):
        script = [json.dumps(junk_definitions(i)) for i in range(5)]
        result, _ = _run(script)
        assert len(result.trace) == 5
        assert [r.iteration for r in result.trace] == [1, 2, 3, 4, 5]

    def test_best_updated_at_improving_iteration(self):
        script = [
            json.dumps(junk_definitions(1)),
            json.dumps(junk_definitions(2)),
            json.dumps(ideal_definitions()),
            json.dumps(junk_definitions(3)),
        ]
        result, _ = _run(script)
        assert result.trace[2].accepted is True
        assert result.trace[2].phi_train_proposed == 1.0
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
        assert bad.accepted is False
        assert bad.phi_train_proposed is None
        assert bad.delta_e is None
        assert bad.definitions_hash == result.trace[0].definitions_hash
        assert bad.phi_train_current == result.trace[0].phi_train_current

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
        parsed = sum(r.phi_train_proposed is not None for r in result.trace)
        assert parsed == 4
        assert rows.count(n_train) == 1 + parsed

    @pytest.mark.parametrize("resume_after", [None, 2, 4])
    def test_each_definition_set_is_embedded_once(self, monkeypatch, resume_after):
        # m2 accepts every parsed proposal, so each is scored on train and on
        # dev, from one embedding, and the best set is kept with its scores:
        # dev is scored for the start set and each accepted proposal. Only a
        # resumed run whose best set predates the resume, and is no longer
        # current, embeds and scores that set once more for dev and test.
        n_dev = 2 * len(TOY_CATEGORIES)  # apart from train's 9 rows and test's 3
        embedded, rows = [], []
        embed_definitions, classify = EmbeddingGateway.embed_definitions, classifier.classify

        def counting_embed(gateway, definitions, categories):
            embedded.append(dict(definitions))
            return embed_definitions(gateway, definitions, categories)

        def counting_classify(docs, defs):
            rows.append(len(docs))
            return classify(docs, defs)

        monkeypatch.setattr(EmbeddingGateway, "embed_definitions", counting_embed)
        monkeypatch.setattr(classifier, "classify", counting_classify)
        script = [
            json.dumps(junk_definitions(1)),
            "not json",
            json.dumps(ideal_definitions()),
            json.dumps(junk_definitions(2)),
        ]
        strategy = StrategyConfig("m2", k_confused=2, m_history=2)
        checkpoints = {}

        def keep(record, state):
            # The state is live: keep a copy of it.
            checkpoints.setdefault(record.iteration, from_json(LoopState, to_json(state), "state", ValueError))

        def run(resume=None):
            return refine(
                Splits(separable_dataset(n_train=3, n_dev=2, n_test=1), mock_gateway()),
                strategy,
                AnnealingSchedule(),
                ScriptedLlm(script),
                seed=7,
                t_max=len(script),
                parse_retries=0,
                on_iteration=keep,
                resume=resume,
            )

        result = run()
        assert result.trace[-1].accepted and result.best_definitions != json.loads(script[-1])
        start = checkpoints[resume_after or 0].current  # a resume replaces it in the live state
        if resume_after is not None:
            embedded.clear()
            rows.clear()
            result = run(checkpoints[resume_after])
        proposals = [json.loads(reply) for reply in script[resume_after or 0 :] if reply != "not json"]
        best_again = [result.best_definitions] if resume_after == len(script) else []
        assert embedded[0] == start
        assert embedded[1:] == proposals + best_again
        assert rows.count(n_dev) == len(embedded)

    @pytest.mark.parametrize("name", ["m1", "m2", "m3"])
    def test_resume_from_every_iteration_matches_uninterrupted(self, name):
        # Each state handed to on_iteration goes through its JSON form and
        # resumes the run in-process, as `refine --resume` does from state.json.
        script = [json.dumps(junk_definitions(1)), "not json", json.dumps(ideal_definitions())]
        script += [json.dumps(junk_definitions(i)) for i in (4, 5, 6)]
        t_max = len(script)
        saved = {}

        def save(record, state):
            saved.setdefault(record.iteration, json.dumps(to_json(state)))

        def run(resume=None):
            return refine(
                Splits(separable_dataset(), mock_gateway()),
                StrategyConfig(name, k_confused=2, m_history=2),
                AnnealingSchedule(),
                ScriptedLlm(script),
                seed=7,
                t_max=t_max,
                parse_retries=0,
                on_iteration=save,
                resume=resume,
            )

        full = run()
        assert sorted(saved) == list(range(t_max + 1))
        assert [r.accepted for r in full.trace].count(False) == (1 if name != "m3" else 4)
        for abort in range(t_max + 1):
            state = from_json(LoopState, json.loads(saved[abort]), "state", ValueError)
            resumed = run(state)
            assert resumed.trace == full.trace[abort:]
            assert resumed.best_definitions == full.best_definitions
            assert resumed.phi_best_train == full.phi_best_train
            assert json.dumps(to_json(state)) == saved[t_max]

    @pytest.mark.parametrize("name", ["m1", "m3"])
    def test_llm_generated_start_resumes_from_every_iteration(self, name):
        # A client with nothing but `complete` drafts the start, with a parse
        # retry, and is resumed in-process from every checkpoint: the state
        # counts the draft's calls, and a resumed run asks for the calls after.
        drafted = {c: f"drafted definition of {c}" for c in TOY_CATEGORIES}
        script = ["not json", json.dumps(drafted), json.dumps(junk_definitions(1))]
        script += ["not json", json.dumps(ideal_definitions()), json.dumps(junk_definitions(4))]
        t_max = 3
        saved = {}

        def save(record, state):
            saved.setdefault(record.iteration, json.dumps(to_json(state)))

        def run(calls, resume=None):
            return refine(
                Splits(separable_dataset(), mock_gateway()),
                StrategyConfig(name, k_confused=2, m_history=2),
                AnnealingSchedule(),
                CallOnlyLlm(script, calls),
                seed=7,
                t_max=t_max,
                init_mode="llm_generated",
                parse_retries=1,
                on_iteration=save,
                resume=resume,
            )

        calls = []
        full = run(calls)
        assert calls == list(range(len(script)))
        assert full.initial.definitions == drafted
        assert [json.loads(saved[t])["llm_calls"] for t in range(t_max + 1)] == [2, 3, 5, 6]
        for abort in range(t_max + 1):
            state = from_json(LoopState, json.loads(saved[abort]), "state", ValueError)
            calls = []
            resumed = run(calls, state)
            assert calls == list(range(json.loads(saved[abort])["llm_calls"], len(script)))
            assert resumed.trace == full.trace[abort:]
            assert resumed.best_definitions == full.best_definitions
            assert resumed.phi_best_train == full.phi_best_train
            assert json.dumps(to_json(state)) == saved[t_max]

    def test_http_runs_write_equal_traces_and_resume_to_them(self, prompt_hash_chat):
        # Every reply depends on its prompt alone, so two runs through the HTTP
        # client, and a resume from each of their checkpoints, agree on every
        # trace line's bytes: no wall-clock value enters a record.
        t_max = 6
        saved = {}

        def save(record, state):
            saved.setdefault(record.iteration, json.dumps(to_json(state)))

        def run(resume=None):
            llm = HttpLlm(LlmConfig(prompt_hash_chat, "stub", retries=0, backoff_base=0), api_key="")
            result = refine(
                Splits(separable_dataset(), mock_gateway()),
                StrategyConfig("m3", k_confused=2, m_history=2),
                AnnealingSchedule(),
                llm,
                seed=7,
                t_max=t_max,
                parse_retries=1,
                on_iteration=save,
                resume=resume,
            )
            return [json.dumps(to_json(record)) for record in result.trace]

        full = run()
        # Accepted proposals, then Metropolis rejections.
        assert [json.loads(line)["accepted"] for line in full] == [True] * 3 + [False] * 3
        assert run() == full
        for abort in range(t_max + 1):
            assert run(from_json(LoopState, json.loads(saved[abort]), "state", ValueError)) == full[abort:]

    @pytest.mark.parametrize("t_max", [1, 5])
    def test_each_document_split_is_normalised_once(self, monkeypatch, t_max):
        # train, dev and test are each embedded as unit rows once, however
        # many iterations run, and every classify call gets one of those
        # arrays; each definition set is embedded as unit rows too, and
        # classify gets the gateway's array as it is. Train and dev come
        # before the first definition set, which keeps the peak RSS lower.
        units = []
        docs_seen = []
        defs_seen = []
        embed_texts = EmbeddingGateway.embed_texts
        classify = classifier.classify

        def counting_embed_texts(self, texts, role, *, unit=False):
            out = embed_texts(self, texts, role, unit=unit)
            units.append((role, unit, out))
            return out

        def recording_classify(docs, defs):
            docs_seen.append(docs)
            defs_seen.append(defs)
            return classify(docs, defs)

        monkeypatch.setattr(EmbeddingGateway, "embed_texts", counting_embed_texts)
        monkeypatch.setattr(classifier, "classify", recording_classify)
        script = [json.dumps(junk_definitions(i)) for i in range(1, t_max)]
        script.append(json.dumps(ideal_definitions()))
        _run(script, t_max=t_max)
        documents = [(unit, arr) for role, unit, arr in units if role == "document"]
        assert [unit for unit, _ in documents] == [True] * 3
        assert [role for role, _, _ in units[:3]] == ["document", "document", "definition"]
        definitions = [arr for role, unit, arr in units if role == "definition" and unit]
        assert len(definitions) == len(units) - 3
        assert all(any(defs is arr for arr in definitions) for defs in defs_seen)
        train, dev, test = (arr for _, arr in documents)
        assert all(np.allclose(np.linalg.norm(arr, axis=1), 1.0) for arr in (train, dev, test))
        assert all(any(docs is arr for arr in (train, dev, test)) for docs in docs_seen)
        assert sum(docs is train for docs in docs_seen) == 1 + t_max
        assert sum(docs is test for docs in docs_seen) == 1

    def test_train_split_is_column_major(self):
        # The classifier's (k, n) product `defs @ docs.T` is a plain gemm only
        # when `docs.T` is C-contiguous; row-major rows would score the same,
        # only slower.
        units, gold = Splits(separable_dataset(), mock_gateway()).embedded("train")
        assert units.T.flags.c_contiguous and not units.flags.c_contiguous
        assert len(gold) == len(units)

    def test_parse_retry_reprompts_with_notice(self):
        llm = RecordingLlm(["garbage", json.dumps(junk_definitions(1))])
        result, _ = _run([], t_max=1, parse_retries=1, llm=llm)
        assert len(llm.prompts) == 2
        assert llm.prompts[1].endswith("Respond with only the JSON object.")
        assert result.trace[0].accepted is True

    def test_rejected_proposals_never_reach_history(self):
        # Iterations propose uniquely tagged junk; whatever gets rejected must
        # never surface in a later prompt (not as current, not as history).
        script = [json.dumps(junk_definitions(i)) for i in range(1, 11)]
        llm = RecordingLlm(script)
        result, _ = _run([], t_max=10, llm=llm)
        rejected = [r.iteration for r in result.trace if not r.accepted]
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
        assert result.trace[1].accepted is True
        assert result.trace[1].phi_train_current < 1.0
        # Best still retains the ideal set.
        assert result.phi_best_train == 1.0

    def test_fixed_point_script_constant_trace(self):
        dataset = separable_dataset()
        fixed, _ = initial_definitions(dataset.categories, "minimal")
        script = [json.dumps(fixed)] * 6
        result, _ = _run(script, dataset=dataset)
        hashes = {r.definitions_hash for r in result.trace}
        assert len(hashes) == 1
        assert all(r.accepted for r in result.trace)
        assert all(r.delta_e == 0.0 for r in result.trace)
        assert {r.phi_train_current for r in result.trace} == {result.initial.phi_train}

    def test_byte_identical_traces_for_equal_seeds(self):
        script = [json.dumps(junk_definitions(i)) for i in range(1, 9)]
        r1, _ = _run(script, seed=21)
        r2, _ = _run(script, seed=21)
        assert json.dumps(to_json(r1.trace)) == json.dumps(to_json(r2.trace))

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
                Splits(dataset, mock_gateway()),
                StrategyConfig("m1"),
                AnnealingSchedule(),
                ScriptedLlm([]),
                seed=0,
                t_max=1,
            )

    @pytest.mark.parametrize("strategy", ["m2", "m3"])
    def test_confusion_strategies_require_a_train_document_per_category(self, strategy):
        # A class with no train document can enter a confused pair as a
        # predicted class, and its sample would be drawn from nothing; the
        # run stops before the LLM is asked anything.
        dataset = last_category_only_in_test()
        llm = RecordingLlm([json.dumps(junk_definitions(1))])
        with pytest.raises(DataError, match=f"strategy {strategy} needs a train document in every category; none in: gamma"):
            refine(Splits(dataset, mock_gateway()), StrategyConfig(strategy), AnnealingSchedule(), llm, seed=0, t_max=1)
        assert llm.prompts == []

    def test_refines_on_one_splits_score_each_start_set_once(self, monkeypatch):
        # A start set equal to the last one scored is not embedded or scored
        # again; a different one is scored as it is, and every run's
        # iteration 0 and trace equal those of a run on its own splits.
        dataset = separable_dataset()
        script = [json.dumps(junk_definitions(i)) for i in range(1, 4)]
        starts = [ideal_definitions(), dict(ideal_definitions()), junk_definitions(9), ideal_definitions()]

        def run(splits, initial):
            schedule, llm = AnnealingSchedule(), ScriptedLlm(script)
            return refine(splits, StrategyConfig("m3", 2, 2), schedule, llm, seed=3, t_max=3, initial=initial)

        alone = [run(Splits(dataset, mock_gateway()), initial) for initial in starts]
        embedded = []
        embed_definitions = EmbeddingGateway.embed_definitions

        def recording_embed(gateway, definitions, categories):
            embedded.append(dict(definitions))
            return embed_definitions(gateway, definitions, categories)

        monkeypatch.setattr(EmbeddingGateway, "embed_definitions", recording_embed)
        shared = Splits(dataset, mock_gateway())
        scored = []
        for initial, expected in zip(starts, alone):
            embedded.clear()
            result = run(shared, initial)
            scored.append(embedded[0] == initial)  # else the first is a proposal
            assert result.initial == expected.initial
            assert result.trace == expected.trace
            assert result.dev_metrics == expected.dev_metrics
        assert scored == [True, False, True, True]
        assert alone[0].initial.phi_train == 1.0 > alone[2].initial.phi_train

    def test_zero_iterations_returns_initial_best(self):
        result, _ = _run([], t_max=0)
        assert result.trace == []
        assert result.phi_best_train == result.initial.phi_train
