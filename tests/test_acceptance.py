"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with `pytest -s` or in the
captured output of a failing run) and enforces the criterion's stated
tolerance. All checks run against deterministic mock providers; nothing here
touches the network.
"""

import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from defrefine.classifier import classify
from defrefine.evaluation import ConfusionMatrix, macro_f1
from defrefine.llm import ScriptedLlm
from defrefine.records import to_json
from defrefine.refinement import (
    AnnealingSchedule,
    Splits,
    StrategyConfig,
    accept,
    initial_definitions,
    refine,
    temperature,
)

from conftest import ideal_definitions, junk_definitions, mock_gateway, separable_dataset, unit
from test_classifier import oracle_predict
from test_evaluation import oracle_per_class_f1
from test_refinement import RecordingLlm

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_classifier_oracle_equivalence():
    with criterion(1, "classifier oracle equivalence"):
        rng = np.random.default_rng(2026)
        started = time.monotonic()
        for _ in range(200):
            n = int(rng.integers(1, 51))
            k = int(rng.integers(2, 9))
            d = int(rng.integers(2, 33))
            docs = rng.standard_normal((n, d))
            defs = rng.standard_normal((k, d))
            preds = classify(unit(docs), unit(defs))
            assert preds.tolist() == oracle_predict(docs.tolist(), defs.tolist())
        assert time.monotonic() - started < 1.0


def test_criterion_2_metric_oracle_equivalence():
    with criterion(2, "metric oracle equivalence"):
        rng = np.random.default_rng(411)
        for _ in range(100):
            k = int(rng.integers(1, 11))
            counts = rng.integers(0, 60, size=(k, k))
            report = macro_f1(ConfusionMatrix(counts, tuple(f"c{i}" for i in range(k))))
            expected = oracle_per_class_f1(counts.tolist())
            assert report.per_class_f1 == pytest.approx(expected, abs=1e-9)
            assert report.macro_f1 == pytest.approx(sum(expected) / k, abs=1e-9)
        worked = macro_f1(ConfusionMatrix(np.array([[1, 1], [0, 2]]), ("a", "b")))
        assert worked.macro_f1 == pytest.approx(11 / 15, abs=1e-12)


def test_criterion_3_boltzmann_statistics():
    with criterion(3, "boltzmann acceptance statistics"):
        started = time.monotonic()
        trials = 100_000
        for delta_e, temp in [(0.05, 0.1), (0.02, 0.05), (0.1, 0.01)]:
            rng = random.Random(12345)
            hits = sum(accept(delta_e, temp, rng) for _ in range(trials)) / trials
            assert abs(hits - math.exp(-delta_e / temp)) <= 0.005, (delta_e, temp, hits)
        rng = random.Random(777)
        before = rng.getstate()
        for delta_e in (0.0, -0.2, -1.0):
            assert accept(delta_e, 0.05, rng) is True
        assert rng.getstate() == before, "improvement must not consume an rng draw"
        assert time.monotonic() - started < 5.0


def test_criterion_4_temperature_schedule():
    with criterion(4, "temperature schedule"):
        sched = AnnealingSchedule(t0=0.1, t_min=0.01)
        assert temperature(0, sched, 100) == 0.1
        assert temperature(100, sched, 100) == 0.01
        assert temperature(50, sched, 100) == 0.05


def _running_best(initial_phi, trace):
    best = initial_phi
    out = []
    for record in trace:
        best = max(best, record.phi_train_current)
        out.append(best)
    return out


def test_criterion_5_loop_contract_under_scripted_mocks():
    with criterion(5, "loop contract under scripted mocks"):
        started = time.monotonic()
        t_max = 50
        dataset = separable_dataset()
        strategy = StrategyConfig("m3", k_confused=2, m_history=3)
        sched = AnnealingSchedule()
        script = [json.dumps(junk_definitions(i)) for i in range(1, t_max + 1)]

        def run(llm):
            return refine(
                Splits(dataset, mock_gateway()), strategy, sched, llm,
                seed=33, t_max=t_max, parse_retries=0,
            )

        probe = RecordingLlm(script)
        result = run(probe)

        # Best score is monotone non-decreasing and equals the trace maximum.
        running = _running_best(result.initial.phi_train, result.trace)
        assert all(a <= b for a, b in zip(running, running[1:]))
        assert result.best.phi_train == running[-1]

        # History stays bounded by m in every prompt the LLM saw.
        assert all(p.count("PREVIOUS DEFINITIONS (score=") <= 3 for p in probe.prompts)

        # Rejected proposals never appear in any later prompt (current or history).
        rejected = [r.iteration for r in result.trace if not r.accepted]
        assert rejected, "expected some rejected proposals under metropolis"
        for it in rejected:
            assert all(f"cand-{it} " not in p for p in probe.prompts[it:])
        for r in result.trace:
            if not r.accepted:
                prev = result.trace[r.iteration - 2] if r.iteration > 1 else None
                prev_hash = prev.definitions_hash if prev else result.initial.definitions_hash
                assert r.definitions_hash == prev_hash

        # A fixed-point script (proposals equal to current) yields a constant trace.
        fixed, _ = initial_definitions(dataset.categories, "minimal")
        fixed_result = run(ScriptedLlm([json.dumps(fixed)] * t_max))
        assert all(r.accepted for r in fixed_result.trace)
        assert all(r.delta_e == 0.0 for r in fixed_result.trace)
        assert len({r.definitions_hash for r in fixed_result.trace}) == 1
        assert len({r.phi_train_current for r in fixed_result.trace}) == 1

        # Byte-identical traces across two runs with equal seeds.
        again = run(ScriptedLlm(script))
        assert json.dumps(to_json(result.trace)) == json.dumps(to_json(again.trace))
        assert time.monotonic() - started < 10.0


def test_criterion_6_synthetic_end_to_end():
    with criterion(6, "synthetic end-to-end refinement"):
        dataset = separable_dataset()
        ideal = ideal_definitions()

        # Independent separability check: the ideal definitions classify every
        # document perfectly under the mock embedder, per double-loop oracle.
        gw = mock_gateway()
        doc_vecs = gw.embed_texts([d.text for d in dataset.documents], "document")
        def_vecs = gw.embed_definitions(ideal, dataset.categories)
        index = dataset.category_index
        preds = oracle_predict(
            [v.tolist() for v in doc_vecs], [v.tolist() for v in def_vecs]
        )
        assert preds == [index[d.label] for d in dataset.documents]

        # Deliberately confusable start: each class gets its neighbor's ideal
        # text, so every document lands on the wrong prototype.
        cats = list(dataset.categories)
        swapped = {c: ideal[cats[(i + 1) % len(cats)]] for i, c in enumerate(cats)}

        t_max = 12
        script = [json.dumps(junk_definitions(i)) for i in range(1, 5)]
        script.append(json.dumps(ideal))
        script += [json.dumps(junk_definitions(i)) for i in range(5, t_max)]
        splits = Splits(dataset, mock_gateway())
        result = refine(
            splits,
            StrategyConfig("m3", k_confused=2, m_history=2),
            AnnealingSchedule(),
            ScriptedLlm(script),
            seed=5,
            t_max=t_max,
            initial=swapped,
            parse_retries=0,
        )
        assert result.initial.phi_train < 1.0
        running = _running_best(result.initial.phi_train, result.trace)
        assert running[4] == 1.0, "best must reach 1.0 by iteration 5"
        assert all(v == 1.0 for v in running[4:]), "best must be retained through t_max"
        assert result.best.phi_train == 1.0
        # The test split is scored after the loop, as `runner.cmd_refine` does.
        test_metrics, _ = splits.score(result.best.units, "test")
        assert test_metrics.macro_f1 == 1.0


def _write_cli_fixture(root: Path, t_max: int, delay_s: float) -> Path:
    dataset = separable_dataset()
    rows = [
        {"id": d.id, "text": d.text, "label": d.label, "split": d.split}
        for d in dataset.documents
    ]
    with open(root / "data.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    script = [json.dumps(junk_definitions(i)) for i in range(1, t_max)]
    script.insert(4, json.dumps(ideal_definitions()))
    (root / "script.json").write_text(
        json.dumps({"responses": script, "delay_s": delay_s})
    )
    config = {
        "dataset": {"path": "data.jsonl", "format": "jsonl"},
        "embedder": {"endpoint": "mock:dim=32,seed=0", "model_id": "mock-embed"},
        "llm": {"endpoint": "script:script.json", "model_id": "scripted"},
        "strategy": {"name": "m3", "k": 2, "m": 2},
        "seed": 17,
        "t_max": t_max,
        "out_dir": "runs",
    }
    path = root / "config.json"
    path.write_text(json.dumps(config))
    return path


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_criterion_7_crash_resume_equivalence(tmp_path):
    with criterion(7, "crash/resume equivalence"):
        t_max = 12

        # Reference: uninterrupted run, no artificial delay.
        ref_root = tmp_path / "ref"
        ref_root.mkdir()
        ref_cfg = _write_cli_fixture(ref_root, t_max, delay_s=0.0)
        subprocess.run(
            [sys.executable, "-m", "defrefine", "refine", "--config", str(ref_cfg)],
            check=True, env=_cli_env(), capture_output=True,
        )
        ref_run = next((ref_root / "runs").glob("*-m3-*"))

        # Victim: slowed iterations, killed once the trace shows progress.
        victim_root = tmp_path / "victim"
        victim_root.mkdir()
        victim_cfg = _write_cli_fixture(victim_root, t_max, delay_s=0.1)
        proc = subprocess.Popen(
            [sys.executable, "-m", "defrefine", "refine", "--config", str(victim_cfg)],
            env=_cli_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        victim_trace = None
        deadline = time.monotonic() + 30
        killed = False
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            candidates = list((victim_root / "runs").glob("*-m3-*/trace.jsonl"))
            if candidates:
                victim_trace = candidates[0]
                if victim_trace.read_text().count("\n") >= 3:
                    proc.send_signal(signal.SIGKILL)
                    killed = True
                    break
            time.sleep(0.01)
        proc.wait(timeout=30)
        assert killed, "run finished before it could be killed; raise t_max or delay"
        victim_run = victim_trace.parent
        assert len(victim_run.joinpath("trace.jsonl").read_text().splitlines()) < t_max

        # Resume and compare byte for byte.
        subprocess.run(
            [sys.executable, "-m", "defrefine", "refine", "--config", str(victim_cfg), "--resume"],
            check=True, env=_cli_env(), capture_output=True,
        )
        assert (victim_run / "trace.jsonl").read_bytes() == (ref_run / "trace.jsonl").read_bytes()
        assert (victim_run / "result.json").read_bytes() == (ref_run / "result.json").read_bytes()
        assert (victim_run / "definitions_log.jsonl").read_bytes() == (
            ref_run / "definitions_log.jsonl"
        ).read_bytes()
