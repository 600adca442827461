"""CLI behavior: configs, run directories, resume, sweeps, and reports."""

import csv
import json
from pathlib import Path

import pytest

from defrefine import runner
from defrefine.corpus import Dataset, Document
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


class TestConfig:
    def test_validate_config_ok(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3), t_max=3)
        assert main(["validate-config", "--config", str(cfg_path)]) == EXIT_OK
        assert "config OK" in capsys.readouterr().out

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["validate-config", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE

    def test_seed_must_be_explicit(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3))
        raw = json.loads(cfg_path.read_text())
        del raw["seed"]
        cfg_path.write_text(json.dumps(raw))
        assert main(["validate-config", "--config", str(cfg_path)]) == EXIT_USAGE

    def test_relative_paths_resolve_against_config_dir(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(3), t_max=3)
        monkeypatch.chdir(tmp_path.parent)
        cfg = RunConfig.from_file(cfg_path)
        assert cfg.dataset_path.exists()
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


class TestRefineRuns:
    def test_trace_has_t_max_records(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(5), t_max=5)
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_OK
        cfg = RunConfig.from_file(cfg_path)
        run_dir = run_dir_for(cfg, "refine")
        lines = (run_dir / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 5
        record = json.loads(lines[0])
        assert set(record) == {
            "iteration",
            "strategy",
            "k",
            "m",
            "temperature",
            "phi_train_current",
            "phi_train_proposed",
            "delta_e",
            "accepted",
            "phi_dev",
            "definitions_hash",
            "llm_latency_ms",
        }
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

    def test_missing_trace_is_data_error(self, tmp_path):
        assert main(["report", str(tmp_path / "not-a-run")]) == EXIT_DATA


class TestExitCodes:
    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg_path = write_config(tmp_path, separable_dataset(), toy_script(2), t_max=2)
        (tmp_path / "data.jsonl").unlink()
        assert main(["refine", "--config", str(cfg_path)]) == EXIT_DATA

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
