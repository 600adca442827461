"""CLI behavior: configs, run directories, resume, sweeps, and reports."""

import csv
import dataclasses
import errno
import fcntl
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from defrefine import records, runner
from defrefine.corpus import Dataset, Document
from defrefine.embeddings import EmbeddingCache
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
    """state.json bytes are pinned: old run directories must still resume."""

    GOLDEN_SHA256 = {
        0: "73fa012709467dd9788d02a920fc69357b0834f7852919dd40caf473f44c9f80",
        6: "9163aa7e07b94a259a8df427573ea646dbdea6b16033816940eaa847d0add8d1",
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

        def counting_complete(self, prompt):
            with called:
                calls[0] += 1
                called.notify_all()
            return complete(self, prompt)

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

        def counting_complete(self, prompt):
            calls.append(prompt)
            return complete(self, prompt)

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


def _state_without(key):
    return lambda state: json.dumps({k: v for k, v in state.items() if k != key})


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
        # The drafting call consumes one script entry before iteration 1, so a
        # resume must fast-forward the script past init plus completed steps.
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

    def test_single_cell_equals_direct_run_with_derived_seed(self, tmp_path):
        dir_sweep = tmp_path / "sweep"
        dir_sweep.mkdir()
        cfg_sweep = write_config(dir_sweep, separable_dataset(), toy_script(3), t_max=3)
        main(["sweep", "--config", str(cfg_sweep), "--k-values", "2", "--m-values", "2"])

        dir_single = tmp_path / "single"
        dir_single.mkdir()
        derived = derive_seed(11, "cell-k2-m2")
        cfg_single = write_config(
            dir_single, separable_dataset(), toy_script(3), t_max=3, seed=derived
        )
        main(["refine", "--config", str(cfg_single)])

        trace_sweep = next((dir_sweep / "runs").glob("*-m3-*/trace.jsonl")).read_bytes()
        trace_single = next((dir_single / "runs").glob("*-m3-*/trace.jsonl")).read_bytes()
        assert trace_sweep == trace_single

    def test_out_of_range_grid_is_usage_error(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        rc = main(["sweep", "--config", str(cfg_path), "--k-values", "6", "--m-values", "1"])
        assert rc == EXIT_USAGE

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

    def test_baseline_without_a_test_split(self, tmp_path, caches):
        cfg_path = write_config(tmp_path, separable_dataset(n_test=0), [], t_max=0)
        assert main(["baseline", "--config", str(cfg_path)]) == EXIT_DATA
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

    @pytest.mark.parametrize(
        "script, key",
        [
            pytest.param({"responses": ["{}"], "delay_s": "x"}, "delay_s", id="delay-not-a-number"),
            pytest.param([1, 2], "responses[0]", id="response-not-a-string"),
            pytest.param({"responses": "abc"}, "responses", id="responses-not-a-list"),
            pytest.param({"responses": ["{}"], "delay_s": -1}, "delay_s", id="negative-delay"),
        ],
    )
    def test_script_file_that_is_not_a_script_is_usage_error(self, tmp_path, capsys, script, key):
        cfg_path = write_config(tmp_path, separable_dataset(), script, t_max=2)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "script.json" in errors[0] and key in errors[0], err
        assert not (tmp_path / "runs").exists()

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

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE
