"""CLI behavior: configs, run directories, resume, sweeps, and reports."""

import csv
import dataclasses
import errno
import fcntl
import hashlib
import json
import math
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from defrefine import classifier, records, runner
from defrefine.corpus import Dataset, Document
from defrefine.embeddings import STORE_MAGIC, EmbeddingCache, EmbeddingGateway, MockEmbeddingProvider
from defrefine.errors import ProviderError
from defrefine.llm import ScriptedLlm
from defrefine.refinement import TraceRecord
from defrefine.runner import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_PROVIDER,
    EXIT_USAGE,
    RunConfig,
    main,
    run_dir_for,
)
from defrefine.seeding import derive_seed

from conftest import (
    TOY_CATEGORIES,
    ideal_definitions,
    junk_definitions,
    last_category_only_in_test,
    separable_dataset,
    write_jsonl_dataset,
)


def minimal_text_dataset() -> Dataset:
    """Documents whose text equals the minimal definition template."""
    docs = []
    i = 0
    for c in TOY_CATEGORIES:
        for split, n in (("train", 2), ("dev", 2), ("test", 2)):
            for _ in range(n):
                docs.append(Document(f"d{i}", f"A webpage about {c}.", c, split))
                i += 1
    return Dataset("minimal", tuple(TOY_CATEGORIES), tuple(docs))


def write_config(tmp_path: Path, dataset: Dataset, script, t_max=6, seed=11, extra=None) -> Path:
    write_jsonl_dataset(tmp_path / "data.jsonl", dataset)
    (tmp_path / "script.json").write_text(json.dumps(script))
    raw = {
        "dataset": {"path": "data.jsonl", "format": "jsonl"},
        "embedder": {"endpoint": "mock:dim=32,seed=0", "model_id": "mock-embed"},
        "llm": {"endpoint": "script:script.json", "model_id": "scripted"},
        "strategy": {"name": "m3", "k": 2, "m": 2},
        "seed": seed,
        "t_max": t_max,
        "out_dir": "runs",
    }
    if extra:
        raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw, indent=2))
    return path


def toy_script(t_max, ideal_at=None):
    script = []
    for i in range(1, t_max + 1):
        if ideal_at is not None and i == ideal_at:
            script.append(json.dumps(ideal_definitions()))
        else:
            script.append(json.dumps(junk_definitions(i)))
    return script


# config.json as written at the time old run directories were made; {base} is
# the config file's directory.
GOLDEN_FIXTURE = """\
{
  "dataset": {
    "path": "{base}/data.jsonl",
    "format": "jsonl",
    "categories_file": null,
    "name": null
  },
  "embedder": {
    "endpoint": "mock:dim=32,seed=0",
    "model_id": "mock-embed",
    "document_prefix": "",
    "definition_prefix": "",
    "max_batch": 100,
    "max_input_chars": 8192,
    "timeout": 30.0,
    "retries": 3,
    "concurrency": 4,
    "backoff_base": 0.5
  },
  "llm": {
    "endpoint": "script:{base}/script.json",
    "model_id": "scripted",
    "sampling_temperature": 1.0,
    "max_output_tokens": 1024,
    "timeout": 60.0,
    "retries": 3,
    "system_message": "You revise category definitions for an embedding-based classifier; respond only with the requested JSON.",
    "backoff_base": 0.5
  },
  "strategy": {
    "name": "m3",
    "k": 2,
    "m": 2,
    "acceptance": null
  },
  "schedule": {
    "t0": 0.1,
    "t_min": 0.01
  },
  "init": {
    "mode": "minimal",
    "definitions_file": null
  },
  "seed": 11,
  "t_max": 6,
  "out_dir": "{base}/runs",
  "sample_char_cap": 2000,
  "parse_retries": 3,
  "cache_file": null
}
"""


GOLDEN_BENCH = """\
{
  "dataset": {
    "path": "{base}/corpus.jsonl",
    "format": "jsonl",
    "categories_file": null,
    "name": null
  },
  "embedder": {
    "endpoint": "mock:dim=256,seed=0",
    "model_id": "mock-embed",
    "document_prefix": "",
    "definition_prefix": "",
    "max_batch": 100,
    "max_input_chars": 8192,
    "timeout": 30.0,
    "retries": 3,
    "concurrency": 1,
    "backoff_base": 0.5
  },
  "llm": {
    "endpoint": "script:{base}/script.json",
    "model_id": "scripted",
    "sampling_temperature": 1.0,
    "max_output_tokens": 1024,
    "timeout": 60.0,
    "retries": 3,
    "system_message": "You revise category definitions for an embedding-based classifier; respond only with the requested JSON.",
    "backoff_base": 0.5
  },
  "strategy": {
    "name": "m3",
    "k": 3,
    "m": 3,
    "acceptance": null
  },
  "schedule": {
    "t0": 0.1,
    "t_min": 0.01
  },
  "init": {
    "mode": "minimal",
    "definitions_file": null
  },
  "seed": 0,
  "t_max": 20,
  "out_dir": "{base}/out",
  "sample_char_cap": 2000,
  "parse_retries": 3,
  "cache_file": "{base}/cache/embedding_cache.jsonl"
}
"""


GOLDEN_EVERY_FIELD = """\
{
  "dataset": {
    "path": "{base}/data/corpus.csv",
    "format": "csv",
    "categories_file": "{base}/data/categories.txt",
    "name": "dmoz"
  },
  "embedder": {
    "endpoint": "http://127.0.0.1:8080/v1/embeddings",
    "model_id": "e5-large",
    "document_prefix": "passage: ",
    "definition_prefix": "query: ",
    "max_batch": 32,
    "max_input_chars": 4096,
    "timeout": 12.5,
    "retries": 5,
    "concurrency": 2,
    "backoff_base": 1
  },
  "llm": {
    "endpoint": "http://127.0.0.1:8081/v1/chat/completions",
    "model_id": "gpt-x",
    "sampling_temperature": 0.7,
    "max_output_tokens": 2048,
    "timeout": 90,
    "retries": 1,
    "system_message": "Answer in JSON.",
    "backoff_base": 0.25
  },
  "strategy": {
    "name": "m1",
    "k": 4,
    "m": 5,
    "acceptance": "metropolis"
  },
  "schedule": {
    "t0": 0.5,
    "t_min": 0.05
  },
  "init": {
    "mode": "llm_generated",
    "definitions_file": "/abs/defs.json"
  },
  "seed": 123,
  "t_max": 0,
  "out_dir": "/abs/runs",
  "sample_char_cap": 500,
  "parse_retries": 0,
  "cache_file": "{base}/cache.bin"
}
"""


class TestConfig:
    def test_validate_config_ok(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3), t_max=3)
        assert main(["validate-config", "--config", str(cfg_path)]) == EXIT_OK
        assert "config OK" in capsys.readouterr().out

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["validate-config", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(b"\xff\xfe{}")
        assert main(["validate-config", "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error:") and "config.json" in line for line in err)

    def test_seed_must_be_explicit(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3))
        raw = json.loads(cfg_path.read_text())
        del raw["seed"]
        cfg_path.write_text(json.dumps(raw))
        assert main(["validate-config", "--config", str(cfg_path)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "extra, key",
        [
            pytest.param({"schedule": 5}, "schedule", id="section-not-an-object"),
            pytest.param({"strategy": "m3"}, "strategy", id="strategy-not-an-object"),
            pytest.param({"embedder": "x"}, "embedder", id="embedder-not-an-object"),
            pytest.param({"llm": ["a"]}, "llm", id="llm-not-an-object"),
            pytest.param({"parse_retries": "x"}, "parse_retries", id="string-for-int"),
            pytest.param({"t_max": True}, "t_max", id="bool-for-int"),
            pytest.param({"parse_retries": -1}, "parse_retries", id="negative-retries"),
            pytest.param(
                {"dataset": {"path": "data.jsonl", "format": "xml"}},
                "dataset.format",
                id="unknown-format",
            ),
            pytest.param({"schedule": {"t0": 0.01, "t_min": 0.1}}, "schedule", id="t0-below-t_min"),
            pytest.param({"t_maxx": 5}, "t_maxx", id="unknown-key"),
            pytest.param({"strategy": {"strategy": "m1"}}, "strategy.strategy", id="unknown-nested-key"),
            # Retry-policy bounds and mock parameters that only a first request
            # or the provider's constructor used to reject.
            pytest.param(
                {"embedder": {"endpoint": "mock:dim=32,seed=0", "model_id": "mock-embed", "timeout": 0}},
                "timeout",
                id="embedder-timeout-zero",
            ),
            pytest.param(
                {"llm": {"endpoint": "script:script.json", "model_id": "scripted", "backoff_base": -1}},
                "backoff_base",
                id="llm-backoff-negative",
            ),
            pytest.param(
                {"embedder": {"endpoint": "mock:dim=0,seed=0", "model_id": "mock-embed"}},
                "dim",
                id="mock-dim-zero",
            ),
            # Once sent one request at a time with no error.
            pytest.param(
                {"embedder": {"endpoint": "mock:dim=32,seed=0", "model_id": "mock-embed", "concurrency": 0}},
                "concurrency",
                id="embedder-concurrency-zero",
            ),
            pytest.param(
                {"embedder": {"endpoint": "mock:dim=32,seed=0", "model_id": "mock-embed", "concurrency": -3}},
                "concurrency",
                id="embedder-concurrency-negative",
            ),
        ],
    )
    def test_malformed_config_stops_before_the_run(self, tmp_path, capsys, extra, key):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3), t_max=3, extra=extra)
        assert main(["validate-config", "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and key in errors[0], err
        assert "Traceback" not in err
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_USAGE
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "content, refused",
        [(b"hello", True), (b"[1]\n" * 4, True), (None, True), (b"", False), (STORE_MAGIC, False)],
        ids=["short-text", "text", "directory", "empty", "empty-store"],
    )
    def test_validate_config_checks_the_store(self, tmp_path, capsys, content, refused):
        # validate-config opens the store with refine's own set-up, so it refuses
        # what refine refuses: a file that does not begin as a store, or a directory.
        store = tmp_path / "store.bin"
        if content is None:
            store.mkdir()
        else:
            store.write_bytes(content)
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2, extra={"cache_file": "store.bin"})
        rc = main(["validate-config", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert rc == (EXIT_USAGE if refused else EXIT_OK)
        assert ("store.bin is not an embedding store" in err) == refused
        assert (main(["refine", "--config", str(cfg_path)]) == EXIT_USAGE) == refused
        if refused and content is not None:
            assert store.read_bytes() == content

    def test_missing_categories_file(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            separable_dataset(),
            toy_script(2),
            t_max=2,
            extra={"dataset": {"path": "data.jsonl", "categories_file": "categories.txt"}},
        )
        assert main(["validate-config", "--config", str(cfg_path)]) == EXIT_USAGE
        assert "categories.txt" in capsys.readouterr().err
        # Like a missing dataset file, it is a data error once a run starts.
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_DATA
        assert "categories.txt" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_dataset_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        data = tmp_path / "data.jsonl"
        lines = data.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b"ideal", b"ide\xffal", 1)
        data.write_bytes(b"".join(lines))
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{data}: line 2: not valid UTF-8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_readme_configuration_block_matches_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Configuration", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
        # `//` comments run to the end of the line; the block has no URLs.
        documented = json.loads(re.sub(r"//.*", "", block))

        def fill(node, where=""):
            """The documented config with a stand-in for each REQUIRED value."""
            out = {}
            for key, value in node.items():
                if isinstance(value, dict):
                    out[key] = fill(value, f"{where}{key}.")
                elif value == "REQUIRED":
                    out[key] = 7 if key == "seed" else f"<{where}{key}>"
                else:
                    out[key] = value
            return out

        full = fill(documented)
        # Only the required values: the schema's defaults must supply the rest.
        required = {
            key: {k: v for k, v in value.items() if documented[key][k] == "REQUIRED"}
            if isinstance(value, dict)
            else value
            for key, value in full.items()
            if isinstance(value, dict) or documented[key] == "REQUIRED"
        }
        assert RunConfig.from_dict(required, Path("")).to_snapshot() == full

    def test_readme_trace_fields_match_the_record(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = readme.split("- `trace.jsonl`:", 1)[1].split("Fields:", 1)[1].split(".", 1)[0]
        assert re.findall(r"`(\w+)`", listed) == [records.key(f) for f in dataclasses.fields(TraceRecord)]

    def test_relative_paths_resolve_against_config_dir(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3), t_max=3)
        monkeypatch.chdir(tmp_path.parent)
        cfg = RunConfig.from_file(cfg_path)
        assert cfg.dataset.path.exists()
        assert cfg.llm.endpoint == f"script:{tmp_path / 'script.json'}"

    def test_definition_prefix_defaults_to_document_prefix(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            separable_dataset(),
            toy_script(2),
            t_max=2,
            extra={
                "embedder": {
                    "endpoint": "mock:",
                    "model_id": "m",
                    "document_prefix": "query: ",
                }
            },
        )
        cfg = RunConfig.from_file(cfg_path)
        assert cfg.embedder.definition_prefix == "query: "
        # An explicit empty definition prefix is preserved.
        raw = json.loads(cfg_path.read_text())
        raw["embedder"]["definition_prefix"] = ""
        cfg_path.write_text(json.dumps(raw))
        assert RunConfig.from_file(cfg_path).embedder.definition_prefix == ""

    def test_endpoint_and_dataset_flags_override(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        other_data = tmp_path / "other.jsonl"
        write_jsonl_dataset(other_data, separable_dataset(name="other"))
        other_script = tmp_path / "other_script.json"
        other_script.write_text(json.dumps(toy_script(2)))
        rc = main(
            [
                "refine",
                "--config",
                str(cfg_path),
                "--dataset",
                str(other_data),
                "--embedder-endpoint",
                "mock:dim=16,seed=3",
                "--llm-endpoint",
                f"script:{other_script}",
            ]
        )
        assert rc == EXIT_OK
        run_dir = next((tmp_path / "runs").glob("other-m3-*"))
        snapshot = json.loads((run_dir / "config.json").read_text())
        assert snapshot["dataset"]["path"] == str(other_data)
        assert snapshot["embedder"]["endpoint"] == "mock:dim=16,seed=3"
        assert snapshot["llm"]["endpoint"] == f"script:{other_script}"

    def test_cli_flags_override_config(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3), t_max=3)
        out_dir = tmp_path / "elsewhere"
        rc = main(
            [
                "refine",
                "--config",
                str(cfg_path),
                "--strategy",
                "m1",
                "--t-max",
                "2",
                "--seed",
                "99",
                "--out",
                str(out_dir),
            ]
        )
        assert rc == EXIT_OK
        runs = list(out_dir.glob("*-m1-*-s99"))
        assert len(runs) == 1
        assert len((runs[0] / "trace.jsonl").read_text().splitlines()) == 2


class TestConfigSnapshot:
    """config.json bytes are pinned: old run directories must still resume."""

    def _snapshot_bytes(self, cfg: RunConfig, path: Path) -> bytes:
        runner._write_json(path, cfg.to_snapshot())
        return path.read_bytes()

    def _check(self, tmp_path, raw: dict, golden: str) -> None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw, indent=2))
        cfg = RunConfig.from_file(cfg_path)
        expected = golden.replace("{base}", str(tmp_path.resolve())).encode()
        assert self._snapshot_bytes(cfg, tmp_path / "snapshot.json") == expected
        # The snapshot holds only absolute paths, so reading it back from
        # anywhere gives the same bytes.
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        again = RunConfig.from_dict(cfg.to_snapshot(), elsewhere)
        assert self._snapshot_bytes(again, elsewhere / "snapshot.json") == expected

    def test_fixture_config(self, tmp_path):
        raw = json.loads(write_config(tmp_path, separable_dataset(), [], t_max=6).read_text())
        self._check(tmp_path, raw, GOLDEN_FIXTURE)

    def test_bench_shaped_config(self, tmp_path):
        raw = {
            "dataset": {"path": "corpus.jsonl", "format": "jsonl"},
            "embedder": {"endpoint": "mock:dim=256,seed=0", "model_id": "mock-embed", "concurrency": 1},
            "llm": {"endpoint": "script:script.json", "model_id": "scripted"},
            "strategy": {"name": "m3", "k": 3, "m": 3},
            "seed": 0,
            "t_max": 20,
            "parse_retries": 3,
            "out_dir": "out",
            "cache_file": "cache/embedding_cache.jsonl",
        }
        self._check(tmp_path, raw, GOLDEN_BENCH)

    def test_config_with_every_field_set(self, tmp_path):
        raw = {
            "dataset": {
                "path": "data/corpus.csv",
                "format": "csv",
                "categories_file": "data/categories.txt",
                "name": "dmoz",
            },
            "embedder": {
                "endpoint": "http://127.0.0.1:8080/v1/embeddings",
                "model_id": "e5-large",
                "document_prefix": "passage: ",
                "definition_prefix": "query: ",
                "max_batch": 32,
                "max_input_chars": 4096,
                "timeout": 12.5,
                "retries": 5,
                "concurrency": 2,
                "backoff_base": 1,
            },
            "llm": {
                "endpoint": "http://127.0.0.1:8081/v1/chat/completions",
                "model_id": "gpt-x",
                "sampling_temperature": 0.7,
                "max_output_tokens": 2048,
                "timeout": 90,
                "retries": 1,
                "system_message": "Answer in JSON.",
                "backoff_base": 0.25,
            },
            "strategy": {"name": "M1", "k": 4, "m": 5, "acceptance": "metropolis"},
            "schedule": {"t0": 0.5, "t_min": 0.05},
            "init": {"mode": "llm_generated", "definitions_file": "/abs/defs.json"},
            "seed": 123,
            "t_max": 0,
            "out_dir": "/abs/runs",
            "sample_char_cap": 500,
            "parse_retries": 0,
            "cache_file": "cache.bin",
        }
        self._check(tmp_path, raw, GOLDEN_EVERY_FIELD)


class TestStateSnapshot:
    """state.json bytes are pinned: old run directories must still resume.
    So are the bytes of the run's trace, definitions log and result."""

    GOLDEN_SHA256 = {
        0: "73fa012709467dd9788d02a920fc69357b0834f7852919dd40caf473f44c9f80",
        6: "9163aa7e07b94a259a8df427573ea646dbdea6b16033816940eaa847d0add8d1",
    }
    GOLDEN_FILES_SHA256 = {
        "trace.jsonl": "d002b086042a7406c97b325dbbf37ae1430ca1415ff106b2aba612938e7480a7",
        "definitions_log.jsonl": "aefbc28d997d5d16f179316021d80bfec97f547e6d123211dc89c842756c88ed",
        "result.json": "fc090ed01cd38f6670cf3cfa5c1ae0771b277d49724c2afaf89a4e47a37becc2",
    }

    def test_scripted_m3_run(self, tmp_path, monkeypatch):
        script = [json.dumps(junk_definitions(1)), "not json", json.dumps(ideal_definitions())]
        script += [json.dumps(junk_definitions(i)) for i in (4, 5, 6)]
        cfg_path = write_config(tmp_path, separable_dataset(), script, t_max=6, extra={"parse_retries": 0})
        written = []
        atomic_write_json = runner._atomic_write_json

        def recording(path, payload):
            atomic_write_json(path, payload)
            if path.name == "state.json":
                written.append(path.read_bytes())

        monkeypatch.setattr(runner, "_atomic_write_json", recording)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        trace = [json.loads(line) for line in (run_dir / "trace.jsonl").read_text().splitlines()]
        # The run covers a parse failure and a Metropolis rejection.
        assert any(r["phi_train_proposed"] is None for r in trace)
        assert any(r["phi_train_proposed"] is not None and not r["accepted"] for r in trace)
        assert len(written) == 7
        digests = {i: hashlib.sha256(written[i]).hexdigest() for i in self.GOLDEN_SHA256}
        assert digests == self.GOLDEN_SHA256
        files = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in self.GOLDEN_FILES_SHA256}
        assert files == self.GOLDEN_FILES_SHA256


def _fsync_failing_on_call(n):
    """os.fsync raising EIO on its n-th call, which syncs the trace record of iteration n."""
    fsync, calls = os.fsync, []

    def failing(fd):
        calls.append(fd)
        if len(calls) == n:
            raise OSError(errno.EIO, "disk went away")
        fsync(fd)

    return failing


def _uncut_run(tmp_path: Path, script, t_max) -> Path:
    """The run directory of an uninterrupted run in tmp_path / "uncut"."""
    base = tmp_path / "uncut"
    base.mkdir()
    cfg_path = write_config(base, separable_dataset(), script, t_max=t_max)
    assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
    return run_dir_for(RunConfig.from_file(cfg_path), "refine")


class TestWriter:
    """Each iteration's records are written behind the loop, in order."""

    def test_state_is_never_ahead_of_the_fsynced_trace(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(6, ideal_at=4), t_max=6)
        trace_path = run_dir_for(RunConfig.from_file(cfg_path), "refine") / "trace.jsonl"
        fsync, atomic_write_json = os.fsync, runner._atomic_write_json
        synced = [0]  # trace lines covered by the last fsync
        checks = []

        def slow_fsync(fd):
            time.sleep(0.02)
            fsync(fd)
            synced.append(len(trace_path.read_text().splitlines()))

        def recording(path, payload):
            if path.name == "state.json":
                checks.append((payload["iteration"], synced[-1]))
            atomic_write_json(path, payload)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        monkeypatch.setattr(runner, "_atomic_write_json", recording)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        assert [iteration for iteration, _ in checks] == list(range(7))
        assert all(iteration <= lines for iteration, lines in checks), checks

    def test_writes_overlap_the_next_llm_call(self, tmp_path, monkeypatch):
        t_max = 4
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(t_max), t_max=t_max)
        trace_path = run_dir_for(RunConfig.from_file(cfg_path), "refine") / "trace.jsonl"
        fsync, complete = os.fsync, ScriptedLlm.complete
        called = threading.Condition()
        calls = [0]
        overlapped = []

        def counting_complete(self, prompt, call):
            with called:
                calls[0] += 1
                called.notify_all()
            return complete(self, prompt, call)

        def waiting_fsync(fd):
            # The record of iteration t is synced while the loop asks for t + 1.
            t = len(trace_path.read_text().splitlines())
            if t < t_max:
                with called:
                    overlapped.append(called.wait_for(lambda: calls[0] > t, timeout=2.0))
            fsync(fd)

        monkeypatch.setattr(ScriptedLlm, "complete", counting_complete)
        monkeypatch.setattr(os, "fsync", waiting_fsync)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        assert overlapped == [True] * (t_max - 1)

    def test_write_error_stops_the_run_and_resume_repairs_it(self, tmp_path, monkeypatch):
        script = toy_script(6, ideal_at=4)
        uncut = _uncut_run(tmp_path, script, t_max=6)
        cfg_path = write_config(tmp_path, separable_dataset(), script, t_max=6)
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        complete, calls = ScriptedLlm.complete, []

        def counting_complete(self, prompt, call):
            calls.append(prompt)
            return complete(self, prompt, call)

        with monkeypatch.context() as patched:
            patched.setattr(os, "fsync", _fsync_failing_on_call(3))
            patched.setattr(ScriptedLlm, "complete", counting_complete)
            with pytest.raises(OSError, match="disk went away"):
                main(["refine", "--config", str(cfg_path)])
        # Raised at most one iteration later, with the checkpoint behind the failed record.
        assert len(calls) <= 4
        assert json.loads((run_dir / "state.json").read_text())["iteration"] <= 2
        assert not (run_dir / "result.json").exists()

        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_OK
        for name in ("trace.jsonl", "definitions_log.jsonl", "result.json"):
            assert (uncut / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_write_error_outranks_a_later_loop_error(self, tmp_path, monkeypatch):
        # The record of iteration 3 fails to sync; the script then runs out.
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(6)[:3], t_max=6)
        monkeypatch.setattr(os, "fsync", _fsync_failing_on_call(3))
        with pytest.raises(OSError, match="disk went away"):
            main(["refine", "--config", str(cfg_path)])


class TestRunLock:
    """One process at a time in a run directory: `refine` holds `run.lock`
    from before its first write until `result.json` is written."""

    @staticmethod
    def _hold(run_dir: Path) -> int:
        """Lock run.lock as a live refine would; close the fd to let go."""
        fd = os.open(run_dir / "run.lock", os.O_RDWR | os.O_CREAT)
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return fd

    def test_second_process_on_a_live_run_exits_1(self, tmp_path, capsys):
        script = toy_script(6, ideal_at=4)
        uncut = _uncut_run(tmp_path, script, t_max=6)
        cfg_path = write_config(tmp_path, separable_dataset(), script[:3], t_max=6)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_PROVIDER
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        (tmp_path / "script.json").write_text(json.dumps({"responses": script, "delay_s": 1.0}))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(runner.__file__).parents[1]), *sys.path])}
        first = subprocess.Popen(
            [sys.executable, "-m", "defrefine", "refine", "--config", str(cfg_path), "--resume"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            # The first process holds the lock once it has checkpointed iteration 4.
            deadline = time.monotonic() + 30
            while json.loads((run_dir / "state.json").read_text())["iteration"] < 4:
                assert first.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            capsys.readouterr()
            assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_USAGE
            assert "run directory in use" in capsys.readouterr().err
            # A fresh run stops before it sets up: the run has checkpointed.
            assert main(["refine", "--config", str(cfg_path)]) == EXIT_USAGE
            assert "run directory already exists" in capsys.readouterr().err
            assert first.poll() is None, "the first process ended before the second started; raise delay_s"
        finally:
            _, first_err = first.communicate(timeout=60)
        assert first.returncode == EXIT_OK, first_err
        for name in ("trace.jsonl", "definitions_log.jsonl", "result.json"):
            assert (uncut / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_locked_directory_gets_no_config_snapshot(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        run_dir.mkdir(parents=True)
        fd = self._hold(run_dir)
        try:
            assert main(["refine", "--config", str(cfg_path)]) == EXIT_USAGE
            assert f"run directory in use by another process: {run_dir}" in capsys.readouterr().err
            assert sorted(p.name for p in run_dir.iterdir()) == ["run.lock"]
        finally:
            os.close(fd)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK

    def test_fresh_run_over_a_finished_one_exits_1_before_setting_up(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        # A dataset that no longer loads: the refusal comes before the load.
        (tmp_path / "data.jsonl").write_text("not json\n")
        capsys.readouterr()
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_USAGE
        assert f"run directory already exists: {run_dir}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_run_that_checkpointed_during_set_up_is_kept(self, tmp_path, capsys, monkeypatch):
        other = _uncut_run(tmp_path, toy_script(2), t_max=2)
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        build_llm = runner.build_llm

        def finish_other_run(cfg):
            # Another process checkpoints here after this one's first check.
            shutil.copytree(other, run_dir)
            return build_llm(cfg)

        monkeypatch.setattr(runner, "build_llm", finish_other_run)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_USAGE
        assert f"run directory already exists: {run_dir}" in capsys.readouterr().err
        for path in other.iterdir():
            assert (run_dir / path.name).read_bytes() == path.read_bytes(), path.name

    def test_lock_is_released_when_the_run_ends(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2)[:1], t_max=2)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_PROVIDER
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        os.close(self._hold(run_dir))
        (tmp_path / "script.json").write_text(json.dumps(toy_script(2)))
        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_OK
        os.close(self._hold(run_dir))
        assert (run_dir / "run.lock").read_bytes() == b""


class TestBaseline:
    def test_separable_fixture_scores_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, minimal_text_dataset(), [], t_max=0)
        assert main(["baseline", "--config", str(cfg_path)]) == EXIT_OK
        assert "macro-F1: 1.0000" in capsys.readouterr().out
        run_dir = next((tmp_path / "runs").glob("*-baseline-*"))
        metrics = json.loads((run_dir / "metrics_test.json").read_text())
        assert metrics["macro_f1"] == 1.0
        with open(run_dir / "confusion_test.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][1:] == list(TOY_CATEGORIES)

    def test_deterministic_report_files(self, tmp_path):
        cfg_path = write_config(tmp_path, minimal_text_dataset(), [], t_max=0)
        main(["baseline", "--config", str(cfg_path)])
        run_dir = next((tmp_path / "runs").glob("*-baseline-*"))
        first = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}
        main(["baseline", "--config", str(cfg_path)])
        second = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}
        assert first == second


def _state_with(**changes):
    """A damage to state.json: the saved state with `changes` applied."""
    return lambda state: json.dumps({**state, **changes})


def _history_scores(score):
    """A damage to state.json: every history entry's score set to `score`."""
    return lambda state: json.dumps({**state, "history": [{**h, "score": score} for h in state["history"]]})


def _state_without(key):
    return lambda state: json.dumps({k: v for k, v in state.items() if k != key})


def _definitions_damaged(key, category, value=None):
    """A damage to state.json: in its definition set under `key` (each one, for
    history), `category` set to `value`, or dropped for None."""

    def damaged(defs: dict) -> dict:
        return {c: d for c, d in defs.items() if c != category} if value is None else {**defs, category: value}

    def damage(state):
        if key == "history":
            return json.dumps({**state, key: [{**h, "definitions": damaged(h["definitions"])} for h in state[key]]})
        return json.dumps({**state, key: damaged(state[key])})

    return damage


class TestRefineRuns:
    def test_trace_has_t_max_records(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(5), t_max=5)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        cfg = RunConfig.from_file(cfg_path)
        run_dir = run_dir_for(cfg, "refine")
        lines = (run_dir / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 5
        record = json.loads(lines[0])
        assert list(record) == [records.key(f) for f in dataclasses.fields(TraceRecord)]
        assert (run_dir / "result.json").exists()
        assert (run_dir / "best_definitions.json").exists()
        assert (run_dir / "initial.json").exists()

    def test_existing_run_dir_requires_resume(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_USAGE

    def test_abort_then_resume_matches_uninterrupted(self, tmp_path):
        # Run A: full script, uninterrupted.
        dir_a = tmp_path / "a"
        dir_a.mkdir()
        cfg_a = write_config(dir_a, separable_dataset(), toy_script(6, ideal_at=4), t_max=6)
        assert main(["refine", "--config", str(cfg_a)]) == EXIT_OK
        run_a = run_dir_for(RunConfig.from_file(cfg_a), "refine")

        # Run B: the script is cut short, so the run aborts mid-loop with a
        # resumable checkpoint; the script is then restored and resumed.
        dir_b = tmp_path / "b"
        dir_b.mkdir()
        cfg_b = write_config(dir_b, separable_dataset(), toy_script(6, ideal_at=4)[:3], t_max=6)
        assert main(["refine", "--config", str(cfg_b)]) == EXIT_PROVIDER
        run_b = run_dir_for(RunConfig.from_file(cfg_b), "refine")
        assert len((run_b / "trace.jsonl").read_text().splitlines()) == 3
        (dir_b / "script.json").write_text(json.dumps(toy_script(6, ideal_at=4)))
        assert main(["refine", "--config", str(cfg_b), "--resume"]) == EXIT_OK

        assert (run_a / "trace.jsonl").read_bytes() == (run_b / "trace.jsonl").read_bytes()
        assert (run_a / "result.json").read_bytes() == (run_b / "result.json").read_bytes()
        assert (run_a / "definitions_log.jsonl").read_bytes() == (
            run_b / "definitions_log.jsonl"
        ).read_bytes()

    def test_reply_that_is_not_valid_unicode_is_asked_again(self, tmp_path):
        # The reply's "\ud800" escape decodes to a lone surrogate, which no
        # embedder can be sent: the reply is unparseable, as one that is not
        # JSON, and its call counts.
        script = toy_script(3, ideal_at=2)
        bad = json.dumps({**ideal_definitions(), TOY_CATEGORIES[1]: "\ud800"})
        runs = {}
        for name, reply in (("surrogate", bad), ("not-json", "{not json")):
            (tmp_path / name).mkdir()
            cfg_path = write_config(tmp_path / name, separable_dataset(), script[:1] + [reply] + script[1:], t_max=3)
            assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
            runs[name] = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        assert json.loads((runs["surrogate"] / "state.json").read_text())["llm_calls"] == 4
        for name in ("trace.jsonl", "definitions_log.jsonl", "result.json"):
            assert (runs["surrogate"] / name).read_bytes() == (runs["not-json"] / name).read_bytes(), name

    def test_resume_with_a_short_trace_is_data_error(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(6)[:3], t_max=6)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_PROVIDER
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        trace = run_dir / "trace.jsonl"
        lines = trace.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        # state.json says iteration 3, but only two records survive.
        trace.write_text("".join(lines[:2]))
        (tmp_path / "script.json").write_text(json.dumps(toy_script(6)))
        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_DATA

    @pytest.mark.parametrize("resume", [False, True])
    def test_restart_before_first_checkpoint_starts_over(self, tmp_path, monkeypatch, resume):
        # The run dies after writing the iteration-0 record but before its
        # first state.json; a restart must not write iteration 0 twice.
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3), t_max=3)
        write_checkpoint = runner._atomic_write_json
        calls = []

        def die_on_first_checkpoint(path, payload):
            calls.append(path)
            if len(calls) == 1:
                raise RuntimeError("killed before the first checkpoint")
            write_checkpoint(path, payload)

        monkeypatch.setattr(runner, "_atomic_write_json", die_on_first_checkpoint)
        with pytest.raises(RuntimeError):
            main(["refine", "--config", str(cfg_path)])
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        assert not (run_dir / "state.json").exists()

        restart = ["refine", "--config", str(cfg_path)] + (["--resume"] if resume else [])
        assert main(restart) == EXIT_OK
        log = (run_dir / "definitions_log.jsonl").read_text().splitlines()
        assert [json.loads(line)["iteration"] for line in log].count(0) == 1
        assert len((run_dir / "trace.jsonl").read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda state: "", id="empty"),
            pytest.param(lambda state: json.dumps(state)[:100], id="truncated"),
            pytest.param(lambda state: "[]", id="not-an-object"),
            pytest.param(_state_with(extra=1), id="unknown-key"),
            pytest.param(_state_without("llm_calls"), id="missing-key"),
            pytest.param(_state_with(history=[1]), id="history-entry"),
            pytest.param(_state_with(sample_rng_state=[3, [1], None]), id="rng-size"),
            pytest.param(_state_with(accept_rng_state=[3, [-1] * 625, None]), id="rng-value"),
            pytest.param(_state_with(iteration="3"), id="iteration-str"),
            pytest.param(_state_with(iteration=True), id="iteration-bool"),
            pytest.param(_state_with(iteration=-1), id="iteration-negative"),
            pytest.param(_state_with(llm_calls=-1), id="llm-calls-negative"),
            pytest.param(_state_with(llm_calls=2.0), id="llm-calls-float"),
            pytest.param(_state_with(phi_cur="0.5"), id="phi-str"),
            pytest.param(_state_with(current=[]), id="definitions-not-object"),
            pytest.param(_state_with(best={c: 1 for c in TOY_CATEGORIES}), id="definition-not-str"),
            pytest.param(_state_with(history=[{"definitions": {}, "score": None}]), id="history-score"),
            # A macro-F1 lies in [0, 1], and the loop keeps phi_cur <= phi_best.
            pytest.param(_state_with(phi_best=2.0), id="phi-best-above-one"),
            pytest.param(_state_with(phi_best=math.inf), id="phi-best-infinite"),
            pytest.param(_state_with(phi_best=math.nan), id="phi-best-nan"),
            pytest.param(_state_with(phi_cur=-0.25), id="phi-cur-negative"),
            pytest.param(_state_with(phi_cur=1.0, phi_best=0.5), id="phi-cur-above-best"),
            pytest.param(_history_scores(1.5), id="history-score-above-one"),
            pytest.param(_history_scores(math.nan), id="history-score-nan"),
            pytest.param(_definitions_damaged("current", "beta"), id="current-missing-category"),
            pytest.param(_definitions_damaged("best", "alpha", "caf\u00e9 \ud800"), id="best-not-unicode"),
            pytest.param(_definitions_damaged("history", "gamma", " "), id="history-empty-definition"),
        ],
    )
    def test_damaged_state_is_data_error(self, tmp_path, capsys, damage):
        # The run directory is left as it was, so it can be repaired and resumed.
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(6)[:3], t_max=6)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_PROVIDER
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        state_path = run_dir / "state.json"
        state_path.write_text(damage(json.loads(state_path.read_text())))
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        (tmp_path / "script.json").write_text(json.dumps(toy_script(6)))
        capsys.readouterr()
        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_DATA
        assert str(state_path) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    @pytest.mark.parametrize(
        "junk", ["[1]", "{}", '{"iteration": "2"}', '{"iteration": true}', "[" * 100000], ids=lambda junk: junk[:20]
    )
    def test_trace_line_that_is_not_a_record_is_skipped(self, tmp_path, capsys, junk):
        script = toy_script(6, ideal_at=4)
        uncut = _uncut_run(tmp_path, script, t_max=6)
        cfg_path = write_config(tmp_path, separable_dataset(), script[:3], t_max=6)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_PROVIDER
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        trace = run_dir / "trace.jsonl"
        lines = trace.read_text().splitlines(keepends=True)
        (tmp_path / "script.json").write_text(json.dumps(script))

        # In place of a record, the line leaves fewer records than state.json
        # covers: exit 3, nothing changed.
        trace.write_text("".join(lines[:1] + [junk + "\n"] + lines[2:]))
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_DATA
        assert str(trace) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

        # Beside every record, it is dropped and the run resumes as if uncut.
        trace.write_text("".join(lines + [junk + "\n"]))
        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_OK
        for name in ("trace.jsonl", "definitions_log.jsonl", "result.json"):
            assert (uncut / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_trace_line_that_is_not_utf8_is_skipped(self, tmp_path, capsys):
        script = toy_script(6, ideal_at=4)
        uncut = _uncut_run(tmp_path, script, t_max=6)
        cfg_path = write_config(tmp_path, separable_dataset(), script[:3], t_max=6)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_PROVIDER
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        trace = run_dir / "trace.jsonl"
        lines = trace.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3
        (tmp_path / "script.json").write_text(json.dumps(script))

        trace.write_bytes(b"".join(lines[:1] + [b"\xff\xfe\n"] + lines[2:]))
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_DATA
        assert str(trace) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

        trace.write_bytes(b"".join(lines + [b"\xff\xfe\n"]))
        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_OK
        for name in ("trace.jsonl", "definitions_log.jsonl", "result.json"):
            assert (uncut / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_llm_generated_init_resumes_across_script_position(self, tmp_path):
        # The drafting call is the run's call 0, before iteration 1, so a
        # resume continues the script after the draft and the completed steps.
        drafted = {c: f"drafted definition of {c}" for c in TOY_CATEGORIES}
        full_script = [json.dumps(drafted)] + toy_script(5, ideal_at=3)
        extra = {"init": {"mode": "llm_generated"}}

        dir_a = tmp_path / "a"
        dir_a.mkdir()
        cfg_a = write_config(dir_a, separable_dataset(), full_script, t_max=5, extra=extra)
        assert main(["refine", "--config", str(cfg_a)]) == EXIT_OK
        run_a = run_dir_for(RunConfig.from_file(cfg_a), "refine")
        initial_a = json.loads((run_a / "initial.json").read_text())
        assert initial_a["definitions"] == drafted

        dir_b = tmp_path / "b"
        dir_b.mkdir()
        cfg_b = write_config(dir_b, separable_dataset(), full_script[:3], t_max=5, extra=extra)
        assert main(["refine", "--config", str(cfg_b)]) == EXIT_PROVIDER
        (dir_b / "script.json").write_text(json.dumps(full_script))
        assert main(["refine", "--config", str(cfg_b), "--resume"]) == EXIT_OK
        run_b = run_dir_for(RunConfig.from_file(cfg_b), "refine")
        assert (run_a / "trace.jsonl").read_bytes() == (run_b / "trace.jsonl").read_bytes()
        assert (run_a / "result.json").read_bytes() == (run_b / "result.json").read_bytes()

    def test_resume_over_a_retry_policy_out_of_bounds_stops_with_one_error(self, tmp_path, capsys):
        # A snapshot written before the bounds were checked at load may hold one.
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(6)[:2], t_max=6)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_PROVIDER
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        snapshot = json.loads((run_dir / "config.json").read_text())
        snapshot["llm"]["backoff_base"] = -1
        (run_dir / "config.json").write_text(json.dumps(snapshot, indent=2) + "\n")
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_USAGE
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "backoff_base" in errors[0], err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_foreign_cache_file_stops_the_run(self, tmp_path, capsys):
        legacy = tmp_path / "embedding_cache.jsonl"
        legacy.write_text('{"key": "k", "vector": [0.5, 0.25]}\n', encoding="utf-8")
        before = legacy.read_bytes()
        cfg_path = write_config(
            tmp_path, separable_dataset(), toy_script(2), t_max=2, extra={"cache_file": legacy.name}
        )
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_USAGE
        assert str(legacy) in capsys.readouterr().err
        assert legacy.read_bytes() == before

    def test_no_secret_in_persisted_files(self, tmp_path, monkeypatch):
        secret = "super-secret-key-123456"
        monkeypatch.setenv("EMBED_API_KEY", secret)
        monkeypatch.setenv("LLM_API_KEY", secret)
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3), t_max=3)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        for path in (tmp_path / "runs").rglob("*"):
            if path.is_file():
                assert secret.encode() not in path.read_bytes(), path


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cut_run(tmp_path: Path, script, t_max, extra=None) -> tuple[Path, Path]:
    """A run whose script ends after its first 3 replies, so it stops with a
    checkpoint at iteration 3; the full script is then back in place. Its
    config and run directory."""
    cfg_path = write_config(tmp_path, separable_dataset(), script[:3], t_max=t_max, extra=extra)
    assert main(["refine", "--config", str(cfg_path)]) == EXIT_PROVIDER
    (tmp_path / "script.json").write_text(json.dumps(script))
    return cfg_path, run_dir_for(RunConfig.from_file(cfg_path), "refine")


class TestInputsRecord:
    """`inputs.json` pins the input files' bytes: a resume or a report over
    changed inputs stops and changes nothing."""

    def test_resume_over_relabelled_train_documents_stops(self, tmp_path, capsys):
        # Before inputs.json, this resume exited 0: iterations 1-3 were scored
        # on the old labels and 4-6 on the new ones.
        script = toy_script(6, ideal_at=4)
        uncut = _uncut_run(tmp_path, script, t_max=6)
        cfg_path, run_dir = _cut_run(tmp_path, script, t_max=6)
        data = tmp_path / "data.jsonl"
        original = data.read_bytes()
        dataset = separable_dataset()
        train = [i for i, d in enumerate(dataset.documents) if d.split == "train"]
        docs = list(dataset.documents)
        for i, label in zip(train[:2], (docs[train[-1]].label, docs[train[0]].label)):
            docs[i] = docs[i]._replace(label=label)
        write_jsonl_dataset(data, dataclasses.replace(dataset, documents=tuple(docs)))
        assert data.read_bytes() != original
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "dataset file" in err and str(data.name) in err and "has changed" in err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

        # With the dataset restored, the run resumes as if uncut.
        data.write_bytes(original)
        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_OK
        for name in ("trace.jsonl", "definitions_log.jsonl", "result.json"):
            assert (uncut / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_record_holds_the_sha256_of_each_input(self, tmp_path):
        script = toy_script(3)
        extra = {"init": {"definitions_file": "defs.json"}}
        (tmp_path / "defs.json").write_text(json.dumps(junk_definitions(0)))
        cfg_path = write_config(tmp_path, separable_dataset(), script, t_max=3, extra=extra)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        assert json.loads((run_dir / "inputs.json").read_text()) == {
            "dataset": _sha256((tmp_path / "data.jsonl").read_bytes()),
            "categories_file": None,
            "definitions_file": _sha256((tmp_path / "defs.json").read_bytes()),
            "llm_replies": [_sha256(reply.encode()) for reply in script],
        }

    @pytest.mark.parametrize(
        "change, stops",
        [
            ("categories", True),
            ("definitions", True),
            ("used-reply", True),
            ("unused-reply", False),
        ],
    )
    def test_resume_checks_each_input_the_run_has_used(self, tmp_path, capsys, change, stops):
        # The script's replies from the run's llm_calls on are not yet used,
        # so a script may be changed there, as `_cut_run` extends it.
        script = toy_script(8, ideal_at=4)
        (tmp_path / "categories.txt").write_text("\n".join(TOY_CATEGORIES) + "\n")
        (tmp_path / "defs.json").write_text(json.dumps(junk_definitions(0)))
        extra = {
            "dataset": {"path": "data.jsonl", "format": "jsonl", "categories_file": "categories.txt"},
            "init": {"definitions_file": "defs.json"},
        }
        cfg_path, run_dir = _cut_run(tmp_path, script, t_max=8, extra=extra)
        changed = {
            "categories": ("categories.txt", "\n".join(TOY_CATEGORIES) + "\n\n"),
            "definitions": ("defs.json", json.dumps(junk_definitions(99))),
            "used-reply": ("script.json", json.dumps([json.dumps(junk_definitions(99))] + script[1:])),
            "unused-reply": ("script.json", json.dumps(script[:3] + [json.dumps(junk_definitions(99))] + script[4:])),
        }
        name, text = changed[change]
        (tmp_path / name).write_text(text)
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        code = main(["refine", "--config", str(cfg_path), "--resume"])
        if stops:
            assert code == EXIT_USAGE
            assert name in capsys.readouterr().err
            assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        else:
            assert code == EXIT_OK
            assert len((run_dir / "trace.jsonl").read_text().splitlines()) == 8

    def test_script_extended_twice_resumes_as_if_uncut(self, tmp_path):
        # A resume pins the replies it goes on with, so a script that is
        # extended, used up and extended again still resumes.
        script = toy_script(6, ideal_at=4)
        uncut = _uncut_run(tmp_path, script, t_max=6)
        cfg_path, run_dir = _cut_run(tmp_path, script, t_max=6)
        for end, code in ((5, EXIT_PROVIDER), (6, EXIT_OK)):
            (tmp_path / "script.json").write_text(json.dumps(script[:end]))
            assert main(["refine", "--config", str(cfg_path), "--resume"]) == code
        assert json.loads((run_dir / "inputs.json").read_text())["llm_replies"] == [
            _sha256(reply.encode()) for reply in script
        ]
        for name in ("trace.jsonl", "definitions_log.jsonl", "result.json"):
            assert (uncut / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_directory_without_the_record_resumes_with_a_warning(self, tmp_path, caplog):
        script = toy_script(6, ideal_at=4)
        uncut = _uncut_run(tmp_path, script, t_max=6)
        cfg_path, run_dir = _cut_run(tmp_path, script, t_max=6)
        (run_dir / "inputs.json").unlink()
        assert main(["refine", "--config", str(cfg_path), "--resume"]) == EXIT_OK
        assert "no inputs.json" in caplog.text
        for name in ("trace.jsonl", "definitions_log.jsonl", "result.json"):
            assert (uncut / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_report_over_a_changed_dataset_stops(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3), t_max=3)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        # report reads the dataset, not the script: a changed script passes.
        (tmp_path / "script.json").write_text(json.dumps(toy_script(3)[::-1]))
        assert main(["report", str(run_dir)]) == EXIT_OK
        shutil.rmtree(run_dir / "reports")
        data = tmp_path / "data.jsonl"
        data.write_text(data.read_text() + "\n")
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_USAGE
        assert "data.jsonl" in capsys.readouterr().err
        assert not (run_dir / "reports").exists()

    def test_sweep_cells_share_one_record(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        runner.cmd_sweep(RunConfig.from_file(cfg_path), [1, 2], [1, 2])
        records = {p.read_bytes() for p in (tmp_path / "runs").glob("*/inputs.json")}
        assert len(list((tmp_path / "runs").glob("*/inputs.json"))) == 4
        assert len(records) == 1


class TestSweep:
    def test_grid_runs_every_cell(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        rc = main(
            ["sweep", "--config", str(cfg_path), "--k-values", "1,2", "--m-values", "1,2"]
        )
        assert rc == EXIT_OK
        runs = list((tmp_path / "runs").glob("*-m3-*"))
        assert len(runs) == 4
        summary = json.loads((tmp_path / "runs" / "sweep_summary.json").read_text())
        assert len(summary["cells"]) == 4
        phis = [c["phi_best_train"] for c in summary["cells"]]
        assert summary["best"]["phi_best_train"] == max(phis)

    def test_best_cell_matches_trace_maxima(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3, ideal_at=2), t_max=3)
        main(["sweep", "--config", str(cfg_path), "--k-values", "1,2", "--m-values", "1"])
        summary = json.loads((tmp_path / "runs" / "sweep_summary.json").read_text())
        for cell in summary["cells"]:
            run_dir = tmp_path / "runs" / cell["run_dir"]
            initial = json.loads((run_dir / "initial.json").read_text())
            records = [
                json.loads(line) for line in (run_dir / "trace.jsonl").read_text().splitlines()
            ]
            best = max([initial["phi_train"]] + [r["phi_train_current"] for r in records])
            assert cell["phi_best_train"] == best

    @staticmethod
    def _direct_run(root: Path, k: int, m: int, script, t_max: int) -> Path:
        """A `refine` of the sweep config's cell (k, m) at the cell's derived seed."""
        root.mkdir(exist_ok=True)
        cfg_path = write_config(
            root,
            separable_dataset(),
            script,
            t_max=t_max,
            seed=derive_seed(11, f"cell-k{k}-m{m}"),
            extra={"strategy": {"name": "m3", "k": k, "m": m}},
        )
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        return run_dir_for(RunConfig.from_file(cfg_path), "refine")

    def test_single_cell_equals_direct_run_with_derived_seed(self, tmp_path):
        # Every cell of a 2x2 grid, sharing one set-up, writes the bytes of a
        # direct run at its derived seed.
        dir_sweep = tmp_path / "sweep"
        dir_sweep.mkdir()
        cfg_sweep = write_config(dir_sweep, separable_dataset(), toy_script(3, ideal_at=2), t_max=3)
        assert main(["sweep", "--config", str(cfg_sweep), "--k-values", "1,2", "--m-values", "1,2"]) == EXIT_OK
        summary = json.loads((dir_sweep / "runs" / "sweep_summary.json").read_text())
        assert len(summary["cells"]) == 4
        for cell in summary["cells"]:
            direct = self._direct_run(tmp_path / "single", cell["k"], cell["m"], toy_script(3, ideal_at=2), 3)
            assert direct.name == cell["run_dir"]
            for name in ("initial.json", "trace.jsonl", "definitions_log.jsonl", "result.json"):
                swept = (dir_sweep / "runs" / cell["run_dir"] / name).read_bytes()
                assert swept == (direct / name).read_bytes(), (cell["run_dir"], name)

    def test_set_up_runs_once_per_sweep(self, tmp_path, monkeypatch):
        # A cold store: the dataset loads once, the store opens once, each
        # split is embedded once, and the provider gets each document text
        # once. The cells' one start set is embedded once and scored on the
        # train split once.
        dataset = separable_dataset()
        docs = tuple(d._replace(text=f"{d.text} #{i}") for i, d in enumerate(dataset.documents))
        cfg_path = write_config(tmp_path, dataclasses.replace(dataset, documents=docs), toy_script(2), t_max=2)
        loads, opens, sent, embedded, starts, start_train_scores = [], [], [], [], [], []
        load_dataset, cache_init = runner.load_dataset, EmbeddingCache.__init__
        embed_batch, embed_texts = MockEmbeddingProvider.embed_batch, EmbeddingGateway.embed_texts
        classify = classifier.classify
        start_texts = [f"A webpage about {c}." for c in TOY_CATEGORIES]

        def counting_load(*args, **kwargs):
            loads.append(args)
            return load_dataset(*args, **kwargs)

        def counting_open(cache, *args, **kwargs):
            opens.append(args)
            cache_init(cache, *args, **kwargs)

        def recording_batch(provider, texts):
            sent.extend(texts)
            return embed_batch(provider, texts)

        def recording_embed(gateway, texts, role, **kwargs):
            out = embed_texts(gateway, texts, role, **kwargs)
            if role == "document":
                embedded.append(len(texts))
            elif list(texts) == start_texts:
                starts.append(out)
            return out

        def recording_classify(doc_units, def_units):
            if len(doc_units) == 9 and any(def_units is start for start in starts):
                start_train_scores.append(def_units)
            return classify(doc_units, def_units)

        monkeypatch.setattr(runner, "load_dataset", counting_load)
        monkeypatch.setattr(EmbeddingCache, "__init__", counting_open)
        monkeypatch.setattr(MockEmbeddingProvider, "embed_batch", recording_batch)
        monkeypatch.setattr(EmbeddingGateway, "embed_texts", recording_embed)
        monkeypatch.setattr(classifier, "classify", recording_classify)
        assert main(["sweep", "--config", str(cfg_path), "--k-values", "1,2", "--m-values", "1,2"]) == EXIT_OK
        assert len(list((tmp_path / "runs").glob("*-m3-*"))) == 4
        assert len(loads) == 1 and len(opens) == 1
        assert embedded == [9, 6, 6]  # train, dev, test
        assert len(starts) == 1 and len(start_train_scores) == 1
        texts = [d.text for d in docs]
        assert sorted(text for text in sent if text in texts) == sorted(texts)

    def _first_cell_fails_on(self, tmp_path, monkeypatch, fails):
        """A 2x1 sweep whose provider fails once, on the first batch that
        `fails(texts)` picks: cell 1 fails, and cell 2 writes the bytes of a
        direct run."""
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2, ideal_at=1), t_max=2)
        embed_batch = MockEmbeddingProvider.embed_batch
        failed = []

        def fails_once(provider, texts):
            if not failed and fails(texts):
                failed.append(texts)
                raise ProviderError("provider down")
            return embed_batch(provider, texts)

        monkeypatch.setattr(MockEmbeddingProvider, "embed_batch", fails_once)
        assert main(["sweep", "--config", str(cfg_path), "--k-values", "1,2", "--m-values", "1"]) == EXIT_OK
        summary = json.loads((tmp_path / "runs" / "sweep_summary.json").read_text())
        first, second = summary["cells"]
        assert failed and first["error"] == "provider down" and "phi_best_train" not in first
        assert summary["best"] == second
        monkeypatch.setattr(MockEmbeddingProvider, "embed_batch", embed_batch)
        direct = self._direct_run(tmp_path / "single", 2, 1, toy_script(2, ideal_at=1), 2)
        for name in ("initial.json", "trace.jsonl", "definitions_log.jsonl", "result.json"):
            swept = (tmp_path / "runs" / second["run_dir"] / name).read_bytes()
            assert swept == (direct / name).read_bytes(), name

    def test_provider_error_while_embedding_fails_only_that_cell(self, tmp_path, monkeypatch):
        # Cell 1's train split, from a cold store.
        self._first_cell_fails_on(tmp_path, monkeypatch, lambda texts: True)

    def test_provider_error_while_scoring_the_start_keeps_nothing(self, tmp_path, monkeypatch):
        # Cell 1's start set: cell 2 embeds and scores the start itself.
        self._first_cell_fails_on(tmp_path, monkeypatch, lambda texts: "A webpage about alpha." in texts)

    def test_rerun_into_the_same_out_dir_stops_before_any_cell(self, tmp_path, capsys):
        # A later cell's checkpoint refuses the sweep before an earlier,
        # new cell runs, and the first sweep's summary stays.
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        assert main(["sweep", "--config", str(cfg_path), "--k-values", "1", "--m-values", "1"]) == EXIT_OK
        summary = (tmp_path / "runs" / "sweep_summary.json").read_bytes()
        capsys.readouterr()
        rc = main(["sweep", "--config", str(cfg_path), "--k-values", "2,1", "--m-values", "1"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "run directory already exists" in err and "-k1-m1-" in err
        assert not list((tmp_path / "runs").glob("*-k2-m1-*"))
        assert (tmp_path / "runs" / "sweep_summary.json").read_bytes() == summary

    def test_malformed_dataset_stops_the_sweep_before_any_cell(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        with open(tmp_path / "data.jsonl", "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        rc = main(["sweep", "--config", str(cfg_path), "--k-values", "1,2", "--m-values", "1"])
        assert rc == EXIT_DATA
        assert "data.jsonl" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_out_of_range_grid_is_usage_error(self, tmp_path, capsys):
        # Every cell is checked before the first runs: the good cell k=1 is not run.
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        rc = main(["sweep", "--config", str(cfg_path), "--k-values", "1,6", "--m-values", "1"])
        assert rc == EXIT_USAGE
        assert "sweep cell k=6 m=1: k_confused must be in 1..5" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("k_values, m_values, what", [("1,1", "1", "k"), ("1", "2,1,2", "m")], ids=["k", "m"])
    def test_repeated_grid_value_is_usage_error(self, tmp_path, capsys, k_values, m_values, what):
        # Two cells of one (k, m) would share a run directory: the second
        # would fail after the first had run, and no summary be written.
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        rc = main(["sweep", "--config", str(cfg_path), "--k-values", k_values, "--m-values", m_values])
        assert rc == EXIT_USAGE
        assert f"sweep {what} grid repeats a value" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_failed_cells_do_not_abort(self, tmp_path):
        # Script far too short for the budget: every cell fails, sweep still finishes.
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(1), t_max=9)
        rc = main(["sweep", "--config", str(cfg_path), "--k-values", "1,2", "--m-values", "1"])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "runs" / "sweep_summary.json").read_text())
        assert all("error" in c for c in summary["cells"])
        assert summary["best"] is None

    def test_config_error_in_a_cell_stops_the_sweep(self, tmp_path):
        legacy = tmp_path / "embedding_cache.jsonl"
        legacy.write_text('{"key": "k", "vector": [0.5, 0.25]}\n', encoding="utf-8")
        before = legacy.read_bytes()
        cfg_path = write_config(
            tmp_path, separable_dataset(), toy_script(2), t_max=2, extra={"cache_file": legacy.name}
        )
        rc = main(["sweep", "--config", str(cfg_path), "--k-values", "1,2", "--m-values", "1"])
        assert rc == EXIT_USAGE
        assert legacy.read_bytes() == before


class TestReport:
    def _finished_run(self, tmp_path, t_max=4, ideal_at=2):
        cfg_path = write_config(
            tmp_path, separable_dataset(), toy_script(t_max, ideal_at=ideal_at), t_max=t_max
        )
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        return run_dir_for(RunConfig.from_file(cfg_path), "refine")

    def test_report_files(self, tmp_path):
        run_dir = self._finished_run(tmp_path)
        assert main(["report", str(run_dir)]) == EXIT_OK
        reports = run_dir / "reports"
        curve = json.loads((reports / "f1_curve.json").read_text())
        assert len(curve["points"]) == 5
        assert curve["points"][0]["iteration"] == 0
        evolution = json.loads((reports / "definitions_evolution.json").read_text())
        assert evolution[0]["iteration"] == 0
        iters = [e["iteration"] for e in evolution]
        assert iters == sorted(iters)
        with open(reports / "confusion_test.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        # Row sums equal the per-class test counts (2 per class in the fixture).
        for row in rows[1:]:
            assert sum(int(x) for x in row[1:]) == 2
        snapshot = (reports / "embeddings_snapshot.jsonl").read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in snapshot]
        assert kinds.count("definition") == 3
        assert kinds.count("document") == 6

    def test_train_series_non_decreasing_at_best_updates(self, tmp_path):
        run_dir = self._finished_run(tmp_path, t_max=5, ideal_at=3)
        main(["report", str(run_dir)])
        curve = json.loads((run_dir / "reports" / "f1_curve.json").read_text())
        series = [p["phi_train"] for p in curve["points"]]
        running = [series[0]]
        for value in series[1:]:
            running.append(max(running[-1], value))
        assert all(a <= b for a, b in zip(running, running[1:]))
        assert running[-1] == 1.0

    def test_empty_run_has_baseline_point_only(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), [], t_max=0)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        main(["report", str(run_dir)])
        curve = json.loads((run_dir / "reports" / "f1_curve.json").read_text())
        assert len(curve["points"]) == 1
        assert curve["points"][0]["iteration"] == 0

    def test_report_on_aborted_run_reconstructs_best(self, tmp_path):
        # No result.json yet: the best definitions come from the accepted log.
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3, ideal_at=2), t_max=9)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_PROVIDER
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        assert not (run_dir / "result.json").exists()
        assert main(["report", str(run_dir)]) == EXIT_OK
        snapshot = (run_dir / "reports" / "embeddings_snapshot.jsonl").read_text().splitlines()
        defs = {
            json.loads(line)["category"]: True
            for line in snapshot
            if json.loads(line)["kind"] == "definition"
        }
        assert set(defs) == set(TOY_CATEGORIES)
        with open(run_dir / "reports" / "confusion_test.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        # The ideal set accepted at iteration 2 is the best so far: diagonal.
        for i, row in enumerate(rows[1:]):
            counts = [int(x) for x in row[1:]]
            assert counts[i] == 2 and sum(counts) == 2

    def test_run_killed_before_iteration_0_is_data_error(self, tmp_path, monkeypatch, capsys):
        # A kill while the splits are embedded leaves the config snapshot and
        # two empty JSONL files, but no initial.json.
        def killed(*args, **kwargs):
            raise KeyboardInterrupt

        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        monkeypatch.setattr(runner, "refine", killed)
        with pytest.raises(KeyboardInterrupt):
            main(["refine", "--config", str(cfg_path)])
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        left = sorted(p.name for p in run_dir.iterdir())
        assert left == ["config.json", "definitions_log.jsonl", "run.lock", "trace.jsonl"]
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_DATA
        assert str(run_dir / "initial.json") in capsys.readouterr().err

    def test_snapshot_holds_the_unit_rows_classify_compares(self, tmp_path, monkeypatch):
        embed_batch = MockEmbeddingProvider.embed_batch

        def longer(provider, texts):
            return 3 * embed_batch(provider, texts)

        monkeypatch.setattr(MockEmbeddingProvider, "embed_batch", longer)
        run_dir = self._finished_run(tmp_path)
        assert main(["report", str(run_dir)]) == EXIT_OK
        snapshot = (run_dir / "reports" / "embeddings_snapshot.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in snapshot]
        assert [row["kind"] for row in rows] == ["definition"] * 3 + ["document"] * 6
        norms = [sum(x * x for x in row["vector"]) ** 0.5 for row in rows]
        assert all(abs(norm - 1.0) < 1e-12 for norm in norms), norms

    def test_provider_error_leaves_earlier_report_files_alone(self, tmp_path, monkeypatch, capsys):
        run_dir = self._finished_run(tmp_path)
        assert main(["report", str(run_dir)]) == EXIT_OK
        reports = run_dir / "reports"
        before = {p.name: p.read_bytes() for p in reports.iterdir()}
        # A report now would write a shorter curve, had it anything to write.
        trace = run_dir / "trace.jsonl"
        trace.write_text("".join(trace.read_text().splitlines(keepends=True)[:-1]))

        def provider_down(gateway, texts, role, *, unit=False):
            raise ProviderError("provider down")

        monkeypatch.setattr(EmbeddingGateway, "embed_texts", provider_down)
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_PROVIDER
        assert "provider down" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == before

    def test_missing_trace_is_data_error(self, tmp_path):
        assert main(["report", str(tmp_path / "not-a-run")]) == EXIT_DATA

    @pytest.mark.parametrize("name", ["definitions_log.jsonl", "trace.jsonl", "initial.json", "result.json"])
    def test_damaged_file_is_data_error(self, tmp_path, capsys, name):
        run_dir = self._finished_run(tmp_path)
        path = run_dir / name
        lines = len(path.read_text().splitlines())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_DATA
        where = f" line {lines + 1} " if path.suffix == ".jsonl" else " "
        assert f"{path}{where}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["trace.jsonl", "result.json"])
    def test_value_nested_too_deep_to_parse_is_data_error(self, tmp_path, capsys, name):
        run_dir = self._finished_run(tmp_path)
        path = run_dir / name
        lines = path.read_text().splitlines()
        nested = "[" * 100000
        path.write_text("".join(line + "\n" for line in lines + [nested]) if path.suffix == ".jsonl" else nested)
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_DATA
        where = f" line {len(lines) + 1} " if path.suffix == ".jsonl" else " "
        assert f"{path}{where}" in capsys.readouterr().err


    @pytest.mark.parametrize("name", ["definitions_log.jsonl", "trace.jsonl"])
    def test_line_that_is_not_utf8_is_data_error(self, tmp_path, capsys, name):
        run_dir = self._finished_run(tmp_path)
        path = run_dir / name
        lines = len(path.read_bytes().splitlines())
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_DATA
        assert f"{path} line {lines + 1} " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, field",
        [
            ("trace.jsonl", None),
            ("trace.jsonl", "phi_dev"),
            ("definitions_log.jsonl", "score"),
            ("definitions_log.jsonl", "definitions"),
            ("initial.json", "phi_train"),
            ("initial.json", "phi_dev"),
            ("result.json", "best_definitions"),
        ],
    )
    def test_file_without_a_field_it_needs_is_data_error(self, tmp_path, capsys, name, field):
        # A JSON line (or file) that is not the record report reads: the last
        # record without `field`, or `{}` for None.
        run_dir = self._finished_run(tmp_path)
        path = run_dir / name
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1] if path.suffix == ".jsonl" else path.read_text())
        damaged = json.dumps({key: value for key, value in record.items() if field is not None and key != field})
        if path.suffix == ".jsonl":
            path.write_text("".join(line + "\n" for line in lines[:-1] + [damaged]))
        else:
            path.write_text(damaged)
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_DATA
        where = f" line {len(lines)} " if path.suffix == ".jsonl" else " "
        assert f"{path}{where}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("trace.jsonl", "iteration", "one"),
            ("trace.jsonl", "iteration", True),
            ("trace.jsonl", "iteration", 4.0),
            ("trace.jsonl", "phi_dev", "x"),
            ("trace.jsonl", "phi_train_current", False),
            ("definitions_log.jsonl", "score", "high"),
            ("definitions_log.jsonl", "score", True),
            ("definitions_log.jsonl", "definitions", ["a"]),
            ("initial.json", "phi_train", "0.5"),
            ("initial.json", "phi_dev", None),
            ("result.json", "best_definitions", "all"),
        ],
    )
    def test_field_of_the_wrong_type_is_data_error(self, tmp_path, capsys, name, field, value):
        # The last record (or the file's one record) with `field` set to a
        # value report cannot use. Without result.json, report takes the
        # best set from the definitions log.
        run_dir = self._finished_run(tmp_path)
        if name == "definitions_log.jsonl":
            (run_dir / "result.json").unlink()
        path = run_dir / name
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1] if path.suffix == ".jsonl" else path.read_text())
        damaged = json.dumps({**record, field: value})
        if path.suffix == ".jsonl":
            path.write_text("".join(line + "\n" for line in lines[:-1] + [damaged]))
        else:
            path.write_text(damaged)
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_DATA
        where = f" line {len(lines)} " if path.suffix == ".jsonl" else " "
        assert f"{path}{where}" in capsys.readouterr().err
        assert not (run_dir / "reports").exists()

    def test_data_error_leaves_earlier_report_files_alone(self, tmp_path):
        run_dir = self._finished_run(tmp_path)
        reports = run_dir / "reports"
        reports.mkdir()
        for name in ("f1_curve.json", "definitions_evolution.json", "notes.txt"):
            (reports / name).write_text(f"earlier {name}\n")
        before = {p.name: p.read_bytes() for p in reports.iterdir()}
        (run_dir / "result.json").unlink()
        path = run_dir / "definitions_log.jsonl"
        lines = path.read_text().splitlines()
        damaged = json.dumps({**json.loads(lines[-1]), "score": "high"})
        path.write_text("".join(line + "\n" for line in lines[:-1] + [damaged]))
        assert main(["report", str(run_dir)]) == EXIT_DATA
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == before

    @pytest.mark.parametrize("source", ["result.json", "definitions_log.jsonl"])
    @pytest.mark.parametrize("damage", ["missing-category", "integer", "empty"])
    def test_best_set_without_a_definition_for_every_category_is_data_error(self, tmp_path, capsys, source, damage):
        run_dir = self._finished_run(tmp_path)
        first = TOY_CATEGORIES[0]

        def damaged(defs: dict) -> dict:
            if damage == "missing-category":
                return {c: d for c, d in defs.items() if c != first}
            return {**defs, first: 3 if damage == "integer" else " "}

        if source == "result.json":
            path = run_dir / "result.json"
            result = json.loads(path.read_text())
            path.write_text(json.dumps({**result, "best_definitions": damaged(result["best_definitions"])}))
            where = f"{path} "
        else:
            (run_dir / "result.json").unlink()
            path = run_dir / "definitions_log.jsonl"
            entries = [json.loads(line) for line in path.read_text().splitlines()]
            best = max(range(len(entries)), key=lambda i: entries[i]["score"])
            entries[best]["definitions"] = damaged(entries[best]["definitions"])
            path.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
            where = f"{path} line {best + 1} "
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_DATA
        assert where in capsys.readouterr().err


class TestNumpyFloor:
    def test_refine_and_report_use_only_numpy_1_copy_modes(self, tmp_path, monkeypatch):
        # pyproject allows numpy>=1.24: there np.array rejects copy=None and
        # np.asarray takes no copy argument at all.
        calls = {"array": 0, "asarray": 0}

        def numpy_1(name, real, copy_allowed):
            def call(*args, **kwargs):
                calls[name] += 1
                if "copy" in kwargs and (not copy_allowed or kwargs["copy"] is None):
                    raise ValueError("NoneType copy mode not allowed.")
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(np, "array", numpy_1("array", np.array, True))
        monkeypatch.setattr(np, "asarray", numpy_1("asarray", np.asarray, False))
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3, ideal_at=2), t_max=3)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        assert main(["report", str(run_dir_for(RunConfig.from_file(cfg_path), "refine"))]) == EXIT_OK
        assert min(calls.values()) > 0, calls


class TestCacheIsClosed:
    """Every command closes the embedding cache it opened, on error paths too."""

    @pytest.fixture
    def caches(self, monkeypatch):
        opened, closed = [], []
        build, close = runner.build_gateway, EmbeddingCache.close

        def recording_build(cfg):
            gateway = build(cfg)
            opened.append(gateway.cache)
            return gateway

        def recording_close(cache):
            closed.append(cache)
            close(cache)

        monkeypatch.setattr(runner, "build_gateway", recording_build)
        monkeypatch.setattr(EmbeddingCache, "close", recording_close)
        return opened, closed

    @staticmethod
    def _all_closed(opened, closed) -> bool:
        return bool(opened) and all(any(c is cache for c in closed) for cache in opened)

    def test_refine_with_a_malformed_script(self, tmp_path, caches):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        (tmp_path / "script.json").write_text("[not json")
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_USAGE
        assert self._all_closed(*caches)

    def test_sweep_whose_cells_all_fail(self, tmp_path, caches):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(1), t_max=9)
        assert main(["sweep", "--config", str(cfg_path), "--k-values", "1,2", "--m-values", "1"]) == EXIT_OK
        assert len(caches[0]) == 1 and self._all_closed(*caches)

    @pytest.mark.parametrize("mode", ["minimal", "llm_generated"])
    def test_baseline_without_a_test_split(self, tmp_path, caches, monkeypatch, mode):
        # The missing split is refused before the LLM drafts a start set.
        complete, calls = ScriptedLlm.complete, []

        def counting_complete(self, prompt, call):
            calls.append(call)
            return complete(self, prompt, call)

        monkeypatch.setattr(ScriptedLlm, "complete", counting_complete)
        script = [json.dumps(ideal_definitions())]
        cfg_path = write_config(tmp_path, separable_dataset(n_test=0), script, t_max=0, extra={"init": {"mode": mode}})
        assert main(["baseline", "--config", str(cfg_path)]) == EXIT_DATA
        assert calls == []
        assert self._all_closed(*caches)

    def test_report_without_recorded_definitions(self, tmp_path, caches):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        (run_dir / "result.json").unlink()
        (run_dir / "definitions_log.jsonl").write_text("")
        assert main(["report", str(run_dir)]) == EXIT_DATA
        # It fails before it builds a gateway: only refine opened a cache.
        assert len(caches[0]) == 1
        assert self._all_closed(*caches)


# main(argv) in a new interpreter; its last stdout line is the exit code and
# whether `requests` was imported (this test process imports it itself).
_FRESH_MAIN = """
import json, sys
from defrefine.runner import main
code = main(sys.argv[1:])
print(json.dumps({"exit": code, "requests": "requests" in sys.modules}))
"""


class TestImportBudget:
    """A command that sends no request never imports `requests` and the
    HTTP stack it brings (~255 modules, ~10 MB of peak RSS)."""

    SENT_NONE = {"exit": EXIT_OK, "requests": False}

    @staticmethod
    def _fresh(*argv: str) -> dict:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(runner.__file__).parents[1]), *sys.path])}
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_MAIN, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_mock_and_script_refine_then_report(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3), t_max=3)
        assert self._fresh("refine", "--config", str(cfg_path)) == self.SENT_NONE
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        assert self._fresh("report", str(run_dir)) == self.SENT_NONE

    def test_validate_config(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3), t_max=3)
        assert self._fresh("validate-config", "--config", str(cfg_path)) == self.SENT_NONE

    def test_report_and_baseline_of_an_http_embedder_over_a_warm_store(self, tmp_path, monkeypatch):
        """Nothing listens at the embedder's address, so any request would
        fail the command: both read every vector from the store."""
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            endpoint = f"http://127.0.0.1:{sock.getsockname()[1]}/v1/embeddings"
        embedder = {"endpoint": endpoint, "model_id": "remote-embed", "retries": 0, "timeout": 1}
        cfg_path = write_config(
            tmp_path, separable_dataset(), toy_script(3), t_max=3, extra={"embedder": embedder, "cache_file": "store.bin"}
        )
        # The run warms the store under the HTTP endpoint's keys, with mock vectors.
        monkeypatch.setattr(
            runner,
            "build_gateway",
            lambda cfg: EmbeddingGateway(cfg.embedder, EmbeddingCache(cfg.cache_file), MockEmbeddingProvider(32)),
        )
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        assert self._fresh("report", str(run_dir)) == self.SENT_NONE
        assert self._fresh("baseline", "--config", str(cfg_path)) == self.SENT_NONE


class TestExitCodes:
    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        (tmp_path / "data.jsonl").unlink()
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_DATA

    def test_corpus_line_that_is_not_an_object_is_data_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        with open(tmp_path / "data.jsonl", "a", encoding="utf-8") as fh:
            fh.write("[1, 2]\n")
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_DATA
        assert "data.jsonl: line 22: record is not a JSON object" in capsys.readouterr().err

    def test_unreachable_provider_is_provider_error(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            separable_dataset(),
            toy_script(2),
            t_max=2,
            extra={
                "embedder": {
                    "endpoint": "http://127.0.0.1:9/v1/embeddings",
                    "model_id": "nope",
                    "retries": 0,
                    "timeout": 0.2,
                }
            },
        )
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_PROVIDER

    def test_malformed_script_file_is_usage_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        (tmp_path / "script.json").write_text("[not json")
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error:") and "script.json" in line for line in err)

    # json writes and reads Infinity and NaN.
    NOT_A_SCRIPT = [
        pytest.param({"responses": ["{}"], "delay_s": "x"}, "delay_s", id="delay-not-a-number"),
        pytest.param([1, 2], "responses[0]", id="response-not-a-string"),
        pytest.param({"responses": "abc"}, "responses", id="responses-not-a-list"),
        pytest.param({"responses": ["{}"], "delay_s": -1}, "delay_s", id="negative-delay"),
        pytest.param({"responses": ["{}"], "delay_s": float("inf")}, "delay_s", id="infinite-delay"),
        pytest.param({"responses": ["{}"], "delay_s": float("nan")}, "delay_s", id="nan-delay"),
    ]

    @staticmethod
    def _refused_script(tmp_path, capsys, command, script, key) -> None:
        cfg_path = write_config(tmp_path, separable_dataset(), script, t_max=2)
        assert main([command, "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "script.json" in errors[0] and key in errors[0], err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("script, key", NOT_A_SCRIPT)
    def test_script_file_that_is_not_a_script_is_usage_error(self, tmp_path, capsys, script, key):
        self._refused_script(tmp_path, capsys, "refine", script, key)

    @pytest.mark.parametrize("script, key", NOT_A_SCRIPT)
    def test_validate_config_refuses_what_refine_refuses(self, tmp_path, capsys, script, key):
        # "config OK" means that refine accepts the script file.
        self._refused_script(tmp_path, capsys, "validate-config", script, key)

    def test_malformed_definitions_file_is_usage_error(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            separable_dataset(),
            toy_script(2),
            t_max=2,
            extra={"init": {"definitions_file": "definitions.json"}},
        )
        (tmp_path / "definitions.json").write_text("{not json")
        assert main(["baseline", "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error:") and "definitions.json" in line for line in err)

    @pytest.mark.parametrize("command", ["refine", "baseline"])
    @pytest.mark.parametrize(
        "definitions, match",
        [
            ({**ideal_definitions(), "alpha": "caf\u00e9 \ud800"}, "category 'alpha' that is not valid Unicode"),
            ({c: d for c, d in ideal_definitions().items() if c != "beta"}, "empty definition for category 'beta'"),
            (list(ideal_definitions().values()), "is not a JSON object"),
        ],
        ids=["lone-surrogate", "missing-category", "not-an-object"],
    )
    def test_definitions_file_without_a_valid_set_is_usage_error(self, tmp_path, capsys, command, definitions, match):
        cfg_path = write_config(
            tmp_path,
            separable_dataset(),
            toy_script(2),
            t_max=2,
            extra={"init": {"definitions_file": "definitions.json"}},
        )
        (tmp_path / "definitions.json").write_text(json.dumps(definitions))
        assert main([command, "--config", str(cfg_path)]) == EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "definitions.json" in errors[0] and match in errors[0], errors
        assert not (tmp_path / "runs").exists()

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE


def _a_directory(name: str):
    """Make a directory stand where the file `name` should be."""

    def make(tmp_path: Path) -> None:
        (tmp_path / name).unlink(missing_ok=True)
        (tmp_path / name).mkdir()

    return make


def _a_file(name: str):
    """Make a regular file stand where the directory `name` should be."""
    return lambda tmp_path: (tmp_path / name).write_bytes(b"")


def _nothing(tmp_path: Path) -> None:
    pass


def _tree(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def _one_error_line(err: str, code: int) -> str:
    """The one error line a failed command prints, checked against its exit code."""
    lines = [line for line in err.splitlines() if re.match(r"(error|data error|provider error): ", line)]
    assert len(lines) == 1, err
    assert lines[0].startswith({EXIT_USAGE: "error: ", EXIT_DATA: "data error: "}[code]), err
    assert "Traceback" not in err
    return lines[0]


MOCK_EMBEDDER = {"endpoint": "mock:dim=32,seed=0", "model_id": "mock-embed"}


class TestUnreadableInputs:
    """An input path that is a directory or lies under a regular file, a
    config string that is not valid Unicode, or a config number that is not
    finite, ends in its documented exit code and one error line naming it,
    before anything is written; so does an output path that a regular file
    blocks."""

    # (config keys, how the path goes bad, what the error names, the exit code
    # of refine, baseline and sweep); validate-config exits 1 on each.
    CASES = [
        pytest.param({}, _a_directory("config.json"), "config.json", EXIT_USAGE, id="config-directory"),
        pytest.param({}, _a_directory("data.jsonl"), "data.jsonl", EXIT_DATA, id="jsonl-dataset-directory"),
        pytest.param(
            {"dataset": {"path": "data.csv", "format": "csv"}},
            _a_directory("data.csv"),
            "data.csv",
            EXIT_DATA,
            id="csv-dataset-directory",
        ),
        pytest.param(
            {"dataset": {"path": "data.jsonl", "categories_file": "categories.txt"}},
            _a_directory("categories.txt"),
            "categories.txt",
            EXIT_DATA,
            id="categories-directory",
        ),
        pytest.param({}, _a_directory("script.json"), "script.json", EXIT_USAGE, id="script-directory"),
        pytest.param(
            {"init": {"definitions_file": "definitions.json"}},
            _a_directory("definitions.json"),
            "definitions.json",
            EXIT_USAGE,
            id="definitions-directory",
        ),
        pytest.param(
            {"cache_file": "data.jsonl/cache.bin"}, _nothing, "data.jsonl/cache.bin", EXIT_USAGE, id="store-under-a-file"
        ),
        # The store's default path is under out_dir, so the set-up finds it blocked.
        pytest.param({}, _a_file("runs"), "runs", EXIT_USAGE, id="out-dir-a-file"),
        pytest.param({"out_dir": "data.jsonl/runs"}, _nothing, "data.jsonl/runs", EXIT_USAGE, id="out-dir-under-a-file"),
        pytest.param(
            {"embedder": {**MOCK_EMBEDDER, "document_prefix": "\ud800"}},
            _nothing,
            "config key embedder.document_prefix must be valid Unicode",
            EXIT_USAGE,
            id="lone-surrogate-prefix",
        ),
        pytest.param(
            {"embedder": {**MOCK_EMBEDDER, "model_id": "mock-\udfff"}},
            _nothing,
            "config key embedder.model_id must be valid Unicode",
            EXIT_USAGE,
            id="lone-surrogate-model-id",
        ),
        # JSON's NaN and Infinity read as floats, which `< 0` checks let pass.
        pytest.param(
            {"llm": {"endpoint": "script:script.json", "model_id": "scripted", "sampling_temperature": math.nan}},
            _nothing,
            "config key llm: sampling_temperature must be a finite number >= 0",
            EXIT_USAGE,
            id="nan-sampling-temperature",
        ),
        pytest.param(
            {"schedule": {"t0": math.inf, "t_min": math.inf}},
            _nothing,
            "config key schedule: require 0 < t_min <= t0 < inf",
            EXIT_USAGE,
            id="infinite-schedule",
        ),
    ]

    @pytest.mark.parametrize("command", ["refine", "baseline", "sweep", "validate-config"])
    @pytest.mark.parametrize("extra, make, named, code", CASES)
    def test_bad_input_stops_before_anything_is_written(self, tmp_path, capsys, command, extra, make, named, code):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2, extra=extra)
        make(tmp_path)
        before = _tree(tmp_path)
        argv = [command, "--config", str(cfg_path)]
        if command == "sweep":
            argv += ["--k-values", "1,2", "--m-values", "1"]
        elif command == "validate-config":
            code = EXIT_USAGE
        assert main(argv) == code
        assert named in _one_error_line(capsys.readouterr().err, code)
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize(
        "out_dir, make", [("runs", _a_file("runs")), ("data.jsonl/runs", _nothing)], ids=["a-file", "under-a-file"]
    )
    @pytest.mark.parametrize("command", ["refine", "baseline", "sweep", "validate-config"])
    def test_blocked_output_directory_stops_before_anything_is_written(self, tmp_path, capsys, command, out_dir, make):
        # With the store elsewhere, the set-up refuses out_dir itself, before
        # it reads an input: nothing is embedded, stored or made.
        extra = {"cache_file": "cache.bin", "out_dir": out_dir}
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2, extra=extra)
        make(tmp_path)
        before = _tree(tmp_path)
        argv = [command, "--config", str(cfg_path)]
        if command == "sweep":
            argv += ["--k-values", "1,2", "--m-values", "1"]
        assert main(argv) == EXIT_USAGE
        line = _one_error_line(capsys.readouterr().err, EXIT_USAGE)
        blocker = tmp_path / Path(out_dir).parts[0]
        assert f"output directory {tmp_path / out_dir} cannot be made: {blocker} is not a directory" in line
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize(
        "argv, name",
        [(["report", "{run}"], "trace.jsonl"), (["refine", "--config", "{config}", "--resume"], "state.json")],
        ids=["report-trace", "resume-state"],
    )
    def test_run_file_that_is_a_directory_is_a_data_error(self, tmp_path, capsys, argv, name):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        run_dir = run_dir_for(RunConfig.from_file(cfg_path), "refine")
        _a_directory(name)(run_dir)
        capsys.readouterr()
        before = _tree(run_dir)
        assert main([arg.format(run=run_dir, config=cfg_path) for arg in argv]) == EXIT_DATA
        line = _one_error_line(capsys.readouterr().err, EXIT_DATA)
        assert f"{run_dir / name} cannot be read: Is a directory" in line
        assert _tree(run_dir) == before


class TestDatasetRules:
    """A dataset that refine's rules refuse stops refine, sweep and
    validate-config right after the set-up: before a run directory is made
    or the LLM is asked."""

    # (dataset, strategy, what the error says)
    DATASETS = [
        pytest.param(
            separable_dataset(n_dev=0), "m3", "refinement requires nonempty train and dev splits", id="no-dev-document"
        ),
        # m2 samples a train document of each class in the confused pairs,
        # and gamma can enter one as a predicted class.
        pytest.param(
            last_category_only_in_test(),
            "m2",
            "strategy m2 needs a train document in every category; none in: gamma",
            id="category-without-a-train-document",
        ),
    ]

    @pytest.mark.parametrize("command, code", [("refine", EXIT_DATA), ("sweep", EXIT_DATA), ("validate-config", EXIT_USAGE)])
    @pytest.mark.parametrize("dataset, strategy, message", DATASETS)
    def test_refused_before_anything_is_written(self, tmp_path, capsys, command, code, dataset, strategy, message):
        extra = {"strategy": {"name": strategy, "k": 2, "m": 2}}
        cfg_path = write_config(tmp_path, dataset, toy_script(2), t_max=2, extra=extra)
        before = _tree(tmp_path)
        argv = [command, "--config", str(cfg_path)]
        if command == "sweep":
            argv += ["--k-values", "1,2", "--m-values", "1"]
        assert main(argv) == code
        assert message in _one_error_line(capsys.readouterr().err, code)
        assert not (tmp_path / "runs").exists()
        assert _tree(tmp_path) == before

    def test_m1_needs_no_train_document_per_category(self, tmp_path, capsys):
        # m1 samples its example from the whole train split.
        extra = {"strategy": {"name": "m1", "k": 2, "m": 2}}
        cfg_path = write_config(tmp_path, last_category_only_in_test(), toy_script(2), t_max=2, extra=extra)
        assert main(["validate-config", "--config", str(cfg_path)]) == EXIT_OK
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK

    def test_baseline_needs_only_a_test_split(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, separable_dataset(n_dev=0), toy_script(2), t_max=2)
        assert main(["baseline", "--config", str(cfg_path)]) == EXIT_OK
        assert "baseline test macro-F1: " in capsys.readouterr().out
