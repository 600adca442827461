"""The run-file reader and writer: round trips, key order and the type rules."""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import pytest

from defrefine import records
from defrefine.embeddings import EmbedderConfig
from defrefine.errors import ConfigError, DataError
from defrefine.llm import LlmConfig, ScriptedLlm
from defrefine.records import from_json, to_json
from defrefine.refinement import AnnealingSchedule, HistoryEntry, InitialRecord, LoopState, StrategyConfig, TraceRecord
from defrefine.runner import DatasetConfig, InitConfig, LogEntry, ResultRecord, RunConfig
from defrefine.seeding import make_rng

DEFS = {"alpha": "About alpha.", "beta": "About beta."}

RECORDS = [
    pytest.param(InitialRecord(0, 0.5, 0.25, DEFS, "ab12"), id="initial"),
    pytest.param(TraceRecord(3, "m3", 2, 2, 0.07, 0.5, None, None, False, 0.25, "ab12", 0.0), id="trace-unparsed"),
    pytest.param(TraceRecord(4, "m2", 1, 5, 0.05, 1.0, 1.0, -0.5, True, 1.0, "cd34", 12.5), id="trace-accepted"),
    pytest.param(LogEntry(2, 0.75, DEFS), id="log-entry"),
    pytest.param(ResultRecord(1.0, DEFS, {"macro_f1": 1.0, "per_class": {}}, None), id="result"),
    pytest.param(ScriptedLlm(["{}", "not json"], delay_s=0.5), id="llm-script"),
    pytest.param(
        RunConfig(
            dataset=DatasetConfig(Path("/data/corpus.csv"), "csv", Path("/data/categories.txt"), "dmoz"),
            embedder=EmbedderConfig("mock:dim=8,seed=0", "mock-embed", definition_prefix="query: "),
            llm=LlmConfig("script:/data/script.json", "scripted", timeout=90),
            strategy=StrategyConfig("m2", k_confused=4, m_history=1),
            schedule=AnnealingSchedule(0.5, 0.05),
            init=InitConfig("llm_generated", Path("/data/defs.json")),
            seed=7,
            out_dir=Path("/runs"),
        ),
        id="config",
    ),
]


@pytest.mark.parametrize("record", RECORDS)
def test_round_trip_in_key_order(record):
    payload = json.loads(json.dumps(to_json(record)))
    assert list(payload) == [records.key(f) for f in dataclasses.fields(record)]
    assert from_json(type(record), payload, "record", DataError) == record


def test_loop_state_round_trip():
    history = [HistoryEntry(DEFS, 0.5), HistoryEntry({**DEFS, "beta": "Beta."}, 0.75)]
    state = LoopState(3, DEFS, 0.75, DEFS, 0.75, history, make_rng(1, "a"), make_rng(1, "b"), 5)
    state.sample_rng.random()
    payload = json.loads(json.dumps(to_json(state)))
    assert list(payload) == [
        "iteration",
        "current",
        "phi_cur",
        "best",
        "phi_best",
        "history",
        "sample_rng_state",
        "accept_rng_state",
        "llm_calls",
    ]
    back = from_json(LoopState, payload, "state", DataError)
    assert to_json(back) == to_json(state)
    assert back.history == history
    assert [back.sample_rng.random(), back.accept_rng.random()] == [state.sample_rng.random(), state.accept_rng.random()]


@dataclass
class Sample:
    count: int
    ratio: float
    flag: bool
    label: str | None = None
    mode: Literal["a", "b"] = "a"
    names: list[str] = field(default_factory=list)
    table: dict[str, int] = field(default_factory=dict)
    anything: dict = field(default_factory=dict)
    where: Path | None = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")


BASE = {"count": 1, "ratio": 0.5, "flag": False}


@pytest.mark.parametrize(
    "changes, expected",
    [
        pytest.param({"count": 2}, {"count": 2}, id="int"),
        pytest.param({"ratio": 2}, {"ratio": 2}, id="int-for-float"),
        pytest.param({"flag": True}, {"flag": True}, id="bool"),
        pytest.param({"label": None}, {"label": None}, id="none-where-optional"),
        pytest.param({"label": "x"}, {"label": "x"}, id="optional-set"),
        pytest.param({"label": "caf\u00e9 \U0001f600"}, {"label": "caf\u00e9 \U0001f600"}, id="non-ascii"),
        pytest.param({"mode": "b"}, {"mode": "b"}, id="literal-member"),
        pytest.param({"names": ["x", "y"]}, {"names": ["x", "y"]}, id="list"),
        pytest.param({"table": {"x": 1}}, {"table": {"x": 1}}, id="dict"),
        pytest.param({"anything": {"x": [None, 1.5]}}, {"anything": {"x": [None, 1.5]}}, id="bare-dict"),
        pytest.param({}, {"label": None, "mode": "a", "names": [], "table": {}}, id="defaults"),
    ],
)
def test_values_that_fit(changes, expected):
    sample = from_json(Sample, {**BASE, **changes}, "sample", DataError)
    for name, value in expected.items():
        assert getattr(sample, name) == value
        assert type(getattr(sample, name)) is type(value)


@pytest.mark.parametrize(
    "raw, message",
    [
        pytest.param({**BASE, "count": True}, "sample key count must be an integer", id="bool-for-int"),
        pytest.param({**BASE, "count": 1.0}, "sample key count must be an integer", id="float-for-int"),
        pytest.param({**BASE, "count": "1"}, "sample key count must be an integer", id="str-for-int"),
        pytest.param({**BASE, "ratio": False}, "sample key ratio must be a number", id="bool-for-float"),
        pytest.param({**BASE, "flag": 0}, "sample key flag must be true or false", id="int-for-bool"),
        pytest.param({**BASE, "count": None}, "sample key count must be an integer", id="none-for-int"),
        pytest.param({**BASE, "ratio": None}, "sample key ratio must be a number", id="none-for-float"),
        pytest.param({**BASE, "mode": "c"}, "sample key mode must be one of ['a', 'b']", id="literal-non-member"),
        pytest.param({**BASE, "names": "ab"}, "sample key names must be a list", id="str-for-list"),
        pytest.param({**BASE, "names": ["x", 1]}, "sample key names[1] must be a string", id="list-item"),
        pytest.param({**BASE, "table": {"x": "1"}}, "sample key table.x must be an integer", id="dict-value"),
        pytest.param({**BASE, "anything": []}, "sample key anything must be a JSON object", id="list-for-dict"),
        pytest.param({**BASE, "where": 3}, "sample key where must be a string", id="int-for-path"),
        # A "\ud800" escape decodes to a lone surrogate, which UTF-8 cannot encode.
        pytest.param({**BASE, "label": "a\ud800"}, "sample key label must be valid Unicode", id="lone-surrogate"),
        pytest.param({**BASE, "where": "\udfff"}, "sample key where must be valid Unicode", id="lone-surrogate-path"),
        pytest.param(
            {**BASE, "names": ["x", "caf\u00e9 \udc80"]},
            "sample key names[1] must be valid Unicode",
            id="lone-surrogate-in-list",
        ),
        pytest.param({**BASE, "extra": 1}, "sample has unknown key extra", id="unknown-key"),
        pytest.param({"ratio": 0.5, "flag": False}, "sample is missing key count", id="missing-key"),
        pytest.param([1], "sample must be a JSON object", id="not-an-object"),
        pytest.param({**BASE, "count": -1}, "invalid sample: count must be >= 0", id="post-init"),
    ],
)
@pytest.mark.parametrize("error", [ConfigError, DataError])
def test_values_that_do_not_fit(raw, message, error):
    with pytest.raises(error, match="^" + message.replace("[", r"\[")):
        from_json(Sample, raw, "sample", error)


def test_nested_keys_are_named():
    with pytest.raises(ConfigError, match=r"^llm script file s\.json key responses\[0\] must be a string, got 1"):
        from_json(ScriptedLlm, {"responses": [1, 2]}, "llm script file s.json", ConfigError)
    raw = {"dataset": {"path": "d.jsonl"}, "embedder": {"endpoint": "e", "model_id": "m"}, "seed": 1}
    with pytest.raises(ConfigError, match="^config key strategy.name must be a string, got 3"):
        from_json(RunConfig, {**raw, "strategy": {"name": 3}}, "config", ConfigError)
    with pytest.raises(ConfigError, match="^invalid config key schedule: require 0 < t_min <= t0"):
        from_json(RunConfig, {**raw, "schedule": {"t0": 0.01, "t_min": 0.1}}, "config", ConfigError)
    with pytest.raises(ConfigError, match="^config has unknown key strategy.strategy"):
        from_json(RunConfig, {**raw, "strategy": {"strategy": "m1"}}, "config", ConfigError)


def test_paths_resolve_against_the_base_directory(tmp_path):
    raw = {**BASE, "where": "sub/file.txt"}
    assert from_json(Sample, raw, "sample", DataError, tmp_path).where == tmp_path / "sub" / "file.txt"
    assert from_json(Sample, raw, "sample", DataError).where == Path("sub/file.txt")
    absolute = {**BASE, "where": "/abs/file.txt"}
    assert from_json(Sample, absolute, "sample", DataError, tmp_path).where == Path("/abs/file.txt")


def test_rng_state_that_is_not_one_is_named():
    state = LoopState(0, DEFS, 0.5, DEFS, 0.5, [], random.Random(1), random.Random(2), 0)
    for damaged in ([3, [1], None], [3, [-1] * 625, None], "abc", None):
        payload = {**to_json(state), "accept_rng_state": damaged}
        with pytest.raises(DataError, match="^state key accept_rng_state "):
            from_json(LoopState, payload, "state", DataError)
