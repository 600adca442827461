"""Command-line entry point: baseline evaluation, refinement runs, grid sweeps, reports.

A run directory holds a config snapshot, an append-only iteration trace
(one JSON record per line, flushed and fsynced per record), a checkpoint
that is rewritten atomically after every iteration, and a log of accepted
definition sets. Any interrupted run can be continued with --resume and
reproduces the uninterrupted trace byte for byte when the providers are
deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .corpus import Dataset, load_dataset, split_view
from .embeddings import (
    EmbedderConfig,
    EmbeddingCache,
    EmbeddingGateway,
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
)
from .errors import ConfigError, DataError, DefinitionParseError, ProviderError
from .evaluation import confusion_to_csv, metrics_to_dict, score
from .llm import HttpLlm, LlmConfig, ScriptedLlm
from .refinement import (
    AnnealingSchedule,
    LoopCheckpoint,
    RefinementResult,
    StrategyConfig,
    initial_definitions,
    refine,
    validate_definitions,
)
from .seeding import derive_seed

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROVIDER = 2
EXIT_DATA = 3


@dataclass
class RunConfig:
    dataset_path: Path
    embedder: EmbedderConfig
    seed: int
    dataset_format: str = "jsonl"
    categories_path: Path | None = None
    dataset_name: str | None = None
    llm: LlmConfig | None = None
    strategy: StrategyConfig | None = None
    t0: float = 0.1
    t_min: float = 0.01
    init_mode: str = "minimal"
    init_definitions_path: Path | None = None
    t_max: int = 100
    out_dir: Path = Path("runs")
    sample_char_cap: int = 2000
    parse_retries: int = 3
    cache_path: Path | None = None

    def schedule(self) -> AnnealingSchedule:
        return AnnealingSchedule(self.t0, self.t_min, max(1, self.t_max))

    def resolved_cache_path(self) -> Path:
        return self.cache_path or self.out_dir / "embedding_cache.bin"

    def to_snapshot(self) -> dict:
        snap = {
            "dataset": {
                "path": str(self.dataset_path),
                "format": self.dataset_format,
                "categories_file": str(self.categories_path) if self.categories_path else None,
                "name": self.dataset_name,
            },
            "embedder": dataclasses.asdict(self.embedder),
            "llm": dataclasses.asdict(self.llm) if self.llm else None,
            "strategy": None,
            "schedule": {"t0": self.t0, "t_min": self.t_min},
            "init": {
                "mode": self.init_mode,
                "definitions_file": str(self.init_definitions_path)
                if self.init_definitions_path
                else None,
            },
            "seed": self.seed,
            "t_max": self.t_max,
            "out_dir": str(self.out_dir),
            "sample_char_cap": self.sample_char_cap,
            "parse_retries": self.parse_retries,
            "cache_file": str(self.cache_path) if self.cache_path else None,
        }
        if self.strategy:
            snap["strategy"] = {
                "name": self.strategy.strategy,
                "k": self.strategy.k_confused,
                "m": self.strategy.m_history,
                "acceptance": self.strategy.acceptance,
            }
        return snap

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path) -> "RunConfig":
        def resolve(value: str | None) -> Path | None:
            if value is None:
                return None
            p = Path(value)
            return p if p.is_absolute() else (base_dir / p)

        try:
            ds = raw["dataset"]
            emb = dict(raw["embedder"])
            seed = raw["seed"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"config missing required section/field: {exc}") from exc
        if not isinstance(seed, int):
            raise ConfigError("seed must be an explicit integer")
        dataset_path = resolve(ds.get("path"))
        if dataset_path is None:
            raise ConfigError("config missing dataset.path")
        # Definitions default to the document prefix unless set independently.
        emb.setdefault("definition_prefix", emb.get("document_prefix", ""))
        try:
            embedder = EmbedderConfig(**emb)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid embedder config: {exc}") from exc
        llm_cfg = None
        if raw.get("llm"):
            llm_raw = dict(raw["llm"])
            endpoint = llm_raw.get("endpoint", "")
            if endpoint.startswith("script:"):
                script = resolve(endpoint[len("script:") :])
                llm_raw["endpoint"] = f"script:{script}"
            try:
                llm_cfg = LlmConfig(**llm_raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid llm config: {exc}") from exc
        strategy = None
        if raw.get("strategy"):
            s = raw["strategy"]
            try:
                strategy = StrategyConfig(
                    strategy=s.get("name", s.get("strategy", "m3")),
                    k_confused=s.get("k", 3),
                    m_history=s.get("m", 3),
                    acceptance=s.get("acceptance"),
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid strategy config: {exc}") from exc
        sched = raw.get("schedule", {})
        init = raw.get("init", {})
        t_max = raw.get("t_max", 100)
        if not isinstance(t_max, int) or t_max < 0:
            raise ConfigError("t_max must be a non-negative integer")
        init_mode = init.get("mode", "minimal")
        if init_mode not in ("minimal", "llm_generated"):
            raise ConfigError(f"unknown init mode {init_mode!r}")
        try:
            return cls(
                dataset_path=dataset_path,
                dataset_format=ds.get("format", "jsonl"),
                categories_path=resolve(ds.get("categories_file")),
                dataset_name=ds.get("name"),
                embedder=embedder,
                llm=llm_cfg,
                strategy=strategy,
                t0=sched.get("t0", 0.1),
                t_min=sched.get("t_min", 0.01),
                init_mode=init_mode,
                init_definitions_path=resolve(init.get("definitions_file")),
                seed=seed,
                t_max=t_max,
                out_dir=resolve(raw.get("out_dir", "runs")),
                sample_char_cap=raw.get("sample_char_cap", 2000),
                parse_retries=raw.get("parse_retries", 3),
                cache_path=resolve(raw.get("cache_file")),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        return cls.from_dict(_read_config_json(path), path.parent.resolve())


def _read_json(path: Path, what: str):
    """The JSON value in a file; ConfigError naming the file if it is missing or not JSON."""
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _read_config_json(path: Path) -> dict:
    """The JSON object in a config file."""
    raw = _read_json(path, "config file")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "._" else "-" for ch in text)


def run_dir_for(cfg: RunConfig, kind: str) -> Path:
    ds = _slug(cfg.dataset_name or cfg.dataset_path.stem)
    emb = _slug(cfg.embedder.model_id)
    llm_id = _slug(cfg.llm.model_id) if cfg.llm else "none"
    if kind == "baseline":
        name = f"{ds}-baseline-{emb}-{llm_id}-s{cfg.seed}"
    else:
        st = cfg.strategy
        name = f"{ds}-{st.strategy}-{emb}-{llm_id}-k{st.k_confused}-m{st.m_history}-s{cfg.seed}"
    return cfg.out_dir / name


def _parse_mock_endpoint(endpoint: str) -> dict:
    params = {"dim": 64, "seed": 0}
    rest = endpoint[len("mock:") :].strip()
    if rest:
        for part in rest.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in params:
                raise ConfigError(f"unknown mock embedder parameter {key!r}")
            try:
                params[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"mock embedder parameter {key!r} must be an int") from exc
    return params


def build_gateway(cfg: RunConfig) -> EmbeddingGateway:
    cache = EmbeddingCache(cfg.resolved_cache_path())
    endpoint = cfg.embedder.endpoint
    if endpoint.startswith("mock:"):
        provider = MockEmbeddingProvider(**_parse_mock_endpoint(endpoint))
    else:
        provider = HttpEmbeddingProvider(cfg.embedder)
    return EmbeddingGateway(cfg.embedder, cache, provider)


def build_llm(cfg: RunConfig):
    if cfg.llm is None:
        return None
    endpoint = cfg.llm.endpoint
    if endpoint.startswith("script:"):
        script_path = Path(endpoint[len("script:") :])
        payload = _read_json(script_path, "llm script file")
        if isinstance(payload, list):
            return ScriptedLlm(payload)
        if isinstance(payload, dict) and "responses" in payload:
            return ScriptedLlm(payload["responses"], delay_s=payload.get("delay_s", 0.0))
        raise ConfigError(f"llm script file {script_path} must hold a list or responses object")
    return HttpLlm(cfg.llm)


def _initial_defs(cfg: RunConfig, dataset: Dataset) -> dict[str, str] | None:
    """Explicit definitions file, if configured; otherwise None (engine default)."""
    if cfg.init_definitions_path is None:
        return None
    payload = _read_json(cfg.init_definitions_path, "initial definitions file")
    if not isinstance(payload, dict):
        raise ConfigError("initial definitions file must hold a JSON object")
    try:
        validate_definitions(payload, dataset.categories)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return {c: payload[c] for c in dataset.categories}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _atomic_write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _complete_lines(path: Path) -> list[str]:
    """Lines terminated by a newline; a trailing partial write is dropped."""
    if not path.exists():
        return []
    data = path.read_text(encoding="utf-8")
    lines = data.split("\n")
    return lines[:-1]


def _truncate_lines(path: Path, keep: int, what: str) -> None:
    lines = _complete_lines(path)
    if len(lines) < keep:
        raise DataError(f"unresumable corruption in {what}: {len(lines)} lines < checkpoint {keep}")
    path.write_text("".join(line + "\n" for line in lines[:keep]), encoding="utf-8")


def _truncate_defs_log(path: Path, max_iteration: int) -> None:
    kept = []
    for line in _complete_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("iteration", 0) <= max_iteration:
            kept.append(line)
    path.write_text("".join(line + "\n" for line in kept), encoding="utf-8")


def cmd_baseline(cfg: RunConfig):
    """Evaluate the initial definitions on the test split."""
    dataset = load_dataset(
        cfg.dataset_path, cfg.dataset_format, categories_path=cfg.categories_path, name=cfg.dataset_name
    )
    gateway = build_gateway(cfg)
    llm = build_llm(cfg) if cfg.init_mode == "llm_generated" else None
    if cfg.init_mode == "llm_generated" and llm is None:
        raise ConfigError("llm_generated initialization requires an llm config")
    definitions = _initial_defs(cfg, dataset)
    if definitions is None:
        definitions = initial_definitions(dataset.categories, cfg.init_mode, llm, cfg.parse_retries)

    test_docs = split_view(dataset, "test")
    if not test_docs:
        raise DataError("baseline evaluation requires a nonempty test split")
    doc_vecs = gateway.embed_texts([d.text for d in test_docs], "document")
    gold = [dataset.category_index[d.label] for d in test_docs]
    report, cm = score(gateway, definitions, dataset.categories, doc_vecs, gold)

    run_dir = run_dir_for(cfg, "baseline")
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_json(run_dir / "config.json", cfg.to_snapshot())
    _write_json(run_dir / "definitions.json", definitions)
    _write_json(run_dir / "metrics_test.json", metrics_to_dict(report, dataset.categories))
    confusion_to_csv(cm, run_dir / "confusion_test.csv")
    gateway.cache.close()
    print(f"baseline test macro-F1: {report.macro_f1:.4f} ({run_dir})")
    return report


def cmd_refine(cfg: RunConfig, resume: bool = False) -> RefinementResult:
    """Run (or continue) one refinement loop with crash-safe persistence."""
    if cfg.strategy is None:
        raise ConfigError("refine requires a strategy config")
    if cfg.llm is None:
        raise ConfigError("refine requires an llm config")
    run_dir = run_dir_for(cfg, "refine")
    snapshot_path = run_dir / "config.json"
    state_path = run_dir / "state.json"
    trace_path = run_dir / "trace.jsonl"
    defs_log_path = run_dir / "definitions_log.jsonl"

    if resume:
        if not snapshot_path.exists():
            raise ConfigError(f"cannot resume: missing config snapshot in {run_dir}")
        cfg = RunConfig.from_file(snapshot_path)
    else:
        if state_path.exists():
            raise ConfigError(
                f"run directory already exists: {run_dir} (pass --resume or change --out)"
            )
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_json(snapshot_path, cfg.to_snapshot())

    dataset = load_dataset(
        cfg.dataset_path, cfg.dataset_format, categories_path=cfg.categories_path, name=cfg.dataset_name
    )
    gateway = build_gateway(cfg)
    llm = build_llm(cfg)
    initial = _initial_defs(cfg, dataset)

    checkpoint = None
    if resume and state_path.exists():
        checkpoint = LoopCheckpoint.from_dict(json.loads(state_path.read_text(encoding="utf-8")))
        _truncate_lines(trace_path, checkpoint.iteration, "trace file")
        _truncate_defs_log(defs_log_path, checkpoint.iteration)
        if hasattr(llm, "advance"):
            llm.advance(checkpoint.llm_calls)

    # Without a checkpoint the run starts over, replacing what a run killed
    # before its first checkpoint left behind.
    mode = "a" if checkpoint is not None else "w"
    trace_handle = open(trace_path, mode, encoding="utf-8")
    defs_handle = open(defs_log_path, mode, encoding="utf-8")

    def save_state(ck: LoopCheckpoint) -> None:
        _atomic_write_json(state_path, ck.to_dict())

    def on_initial(info: dict, ck: LoopCheckpoint) -> None:
        _write_json(run_dir / "initial.json", info)
        defs_handle.write(
            json.dumps(
                {"iteration": 0, "score": info["phi_train"], "definitions": info["definitions"]}
            )
            + "\n"
        )
        defs_handle.flush()
        save_state(ck)

    def on_iteration(record: dict, ck: LoopCheckpoint) -> None:
        trace_handle.write(json.dumps(record) + "\n")
        trace_handle.flush()
        os.fsync(trace_handle.fileno())
        if record["accepted"]:
            defs_handle.write(
                json.dumps(
                    {
                        "iteration": record["iteration"],
                        "score": ck.phi_cur,
                        "definitions": ck.current,
                    }
                )
                + "\n"
            )
            defs_handle.flush()
        save_state(ck)

    try:
        result = refine(
            dataset,
            cfg.strategy,
            cfg.schedule(),
            gateway,
            llm,
            seed=cfg.seed,
            t_max=cfg.t_max,
            init_mode=cfg.init_mode,
            initial=initial,
            parse_retries=cfg.parse_retries,
            sample_char_cap=cfg.sample_char_cap,
            on_initial=on_initial,
            on_iteration=on_iteration,
            resume=checkpoint,
        )
    finally:
        trace_handle.close()
        defs_handle.close()
        gateway.cache.close()

    _write_json(run_dir / "best_definitions.json", result.best_definitions)
    summary = {
        "phi_best_train": result.phi_best_train,
        "best_definitions": result.best_definitions,
        "dev": metrics_to_dict(result.dev_metrics, dataset.categories),
        "test": metrics_to_dict(result.test_metrics, dataset.categories)
        if result.test_metrics
        else None,
    }
    _write_json(run_dir / "result.json", summary)
    if result.test_confusion is not None:
        confusion_to_csv(result.test_confusion, run_dir / "confusion_test.csv")
    test_phi = result.test_metrics.macro_f1 if result.test_metrics else float("nan")
    print(
        f"refine done: best train macro-F1 {result.phi_best_train:.4f}, "
        f"test macro-F1 {test_phi:.4f} ({run_dir})"
    )
    return result


def cmd_sweep(cfg: RunConfig, k_values, m_values) -> dict:
    """Run one refinement per (k, m) cell with a derived sub-seed per cell."""
    if cfg.strategy is None:
        raise ConfigError("sweep requires a strategy config")
    if not k_values or not m_values:
        raise ConfigError("sweep requires nonempty k and m grids")
    bad = [v for v in list(k_values) + list(m_values) if not 1 <= v <= 5]
    if bad:
        raise ConfigError(f"grid values must be in 1..5, got {bad}")
    cells = []
    for k in k_values:
        for m in m_values:
            cell_seed = derive_seed(cfg.seed, f"cell-k{k}-m{m}")
            cell_cfg = dataclasses.replace(
                cfg,
                strategy=dataclasses.replace(cfg.strategy, k_confused=k, m_history=m),
                seed=cell_seed,
            )
            cell = {"k": k, "m": m, "seed": cell_seed}
            try:
                result = cmd_refine(cell_cfg)
                cell["phi_best_train"] = result.phi_best_train
                cell["run_dir"] = run_dir_for(cell_cfg, "refine").name
            except (ProviderError, DefinitionParseError, DataError) as exc:
                log.error("sweep cell k=%d m=%d failed: %s", k, m, exc)
                cell["error"] = str(exc)
            cells.append(cell)
    scored = [c for c in cells if "phi_best_train" in c]
    best = max(scored, key=lambda c: c["phi_best_train"]) if scored else None
    summary = {"k_values": list(k_values), "m_values": list(m_values), "cells": cells, "best": best}
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out_dir / "sweep_summary.json", summary)
    for cell in cells:
        phi = cell.get("phi_best_train")
        status = f"{phi:.4f}" if phi is not None else f"FAILED ({cell['error']})"
        print(f"k={cell['k']} m={cell['m']}: {status}")
    return summary


def _best_definitions_for_report(run_dir: Path) -> dict[str, str]:
    result_path = run_dir / "result.json"
    if result_path.exists():
        return json.loads(result_path.read_text(encoding="utf-8"))["best_definitions"]
    # Incomplete run: reconstruct from the accepted-definitions log.
    entries = [json.loads(line) for line in _complete_lines(run_dir / "definitions_log.jsonl")]
    if not entries:
        raise DataError(f"no definitions recorded in {run_dir}")
    best = entries[0]
    for entry in entries[1:]:
        if entry["score"] > best["score"]:
            best = entry
    return best["definitions"]


def cmd_report(run_dir: str | Path) -> list[Path]:
    """Emit plot-ready report files for a finished (or interrupted) run."""
    run_dir = Path(run_dir)
    trace_path = run_dir / "trace.jsonl"
    if not trace_path.exists():
        raise DataError(f"missing trace: {trace_path}")
    cfg = RunConfig.from_file(run_dir / "config.json")
    initial = json.loads((run_dir / "initial.json").read_text(encoding="utf-8"))
    records = [json.loads(line) for line in _complete_lines(trace_path)]

    reports = run_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    written = []

    points = [{"iteration": 0, "phi_train": initial["phi_train"], "phi_dev": initial["phi_dev"]}]
    points += [
        {"iteration": r["iteration"], "phi_train": r["phi_train_current"], "phi_dev": r["phi_dev"]}
        for r in records
    ]
    curve_path = reports / "f1_curve.json"
    _write_json(curve_path, {"points": points})
    written.append(curve_path)

    evolution = [json.loads(line) for line in _complete_lines(run_dir / "definitions_log.jsonl")]
    evo_path = reports / "definitions_evolution.json"
    _write_json(evo_path, evolution)
    written.append(evo_path)

    dataset = load_dataset(
        cfg.dataset_path, cfg.dataset_format, categories_path=cfg.categories_path, name=cfg.dataset_name
    )
    gateway = build_gateway(cfg)
    best = _best_definitions_for_report(run_dir)
    def_vecs = gateway.embed_definitions(best, dataset.categories)
    test_docs = split_view(dataset, "test")
    if test_docs:
        doc_vecs = gateway.embed_texts([d.text for d in test_docs], "document")
        gold = [dataset.category_index[d.label] for d in test_docs]
        _, cm = score(gateway, best, dataset.categories, doc_vecs, gold)
        cm_path = reports / "confusion_test.csv"
        confusion_to_csv(cm, cm_path)
        written.append(cm_path)
    else:
        doc_vecs = []
        log.warning("no test split: skipping test confusion matrix")

    snapshot_path = reports / "embeddings_snapshot.jsonl"
    with open(snapshot_path, "w", encoding="utf-8") as fh:
        for category, vec in zip(dataset.categories, def_vecs):
            fh.write(
                json.dumps(
                    {"kind": "definition", "category": category, "vector": vec.tolist()}
                )
                + "\n"
            )
        for doc, vec in zip(test_docs, doc_vecs):
            fh.write(
                json.dumps(
                    {
                        "kind": "document",
                        "id": doc.id,
                        "label": doc.label,
                        "vector": vec.tolist(),
                    }
                )
                + "\n"
            )
    written.append(snapshot_path)
    gateway.cache.close()
    print(f"report written: {', '.join(p.name for p in written)} in {reports}")
    return written


def cmd_validate_config(path: str | Path) -> RunConfig:
    cfg = RunConfig.from_file(path)
    if not cfg.dataset_path.exists():
        raise ConfigError(f"dataset file not found: {cfg.dataset_path}")
    if cfg.init_definitions_path is not None and not cfg.init_definitions_path.exists():
        raise ConfigError(f"initial definitions file not found: {cfg.init_definitions_path}")
    cfg.schedule()
    print("config OK")
    return cfg


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError so main() can map them to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _add_override_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--dataset", help="override dataset path")
    parser.add_argument("--strategy", choices=["m1", "m2", "m3"], help="override strategy")
    parser.add_argument("--k", type=int, help="override top confused pair count")
    parser.add_argument("--m", type=int, help="override history window size")
    parser.add_argument("--seed", type=int, help="override master seed")
    parser.add_argument("--t-max", type=int, dest="t_max", help="override iteration budget")
    parser.add_argument("--embedder-endpoint", help="override embedding endpoint")
    parser.add_argument("--llm-endpoint", help="override llm endpoint")
    parser.add_argument("--out", help="override output directory")


def _config_from_args(args) -> RunConfig:
    path = Path(args.config)
    raw = _read_config_json(path)

    def absolute(value: str) -> str:
        return str(Path(value).absolute())

    if args.dataset:
        raw.setdefault("dataset", {})["path"] = absolute(args.dataset)
    if args.strategy:
        raw.setdefault("strategy", {})["name"] = args.strategy
    if args.k is not None:
        raw.setdefault("strategy", {})["k"] = args.k
    if args.m is not None:
        raw.setdefault("strategy", {})["m"] = args.m
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.t_max is not None:
        raw["t_max"] = args.t_max
    if args.embedder_endpoint:
        raw.setdefault("embedder", {})["endpoint"] = args.embedder_endpoint
    if args.llm_endpoint:
        endpoint = args.llm_endpoint
        if endpoint.startswith("script:"):
            endpoint = "script:" + absolute(endpoint[len("script:") :])
        raw.setdefault("llm", {})["endpoint"] = endpoint
    if args.out:
        raw["out_dir"] = absolute(args.out)
    return RunConfig.from_dict(raw, path.parent.resolve())


def _parse_grid(raw: str, what: str) -> list[int]:
    try:
        values = [int(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid {what} grid {raw!r}") from exc
    if not values:
        raise ConfigError(f"empty {what} grid")
    return values


def main(argv=None) -> int:
    parser = _Parser(prog="defrefine", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_baseline = sub.add_parser("baseline", help="evaluate initial definitions on the test split")
    _add_override_args(p_baseline)
    p_refine = sub.add_parser("refine", help="run the refinement loop")
    _add_override_args(p_refine)
    p_refine.add_argument("--resume", action="store_true", help="continue an interrupted run")
    p_sweep = sub.add_parser("sweep", help="run refinement over a k/m grid")
    _add_override_args(p_sweep)
    p_sweep.add_argument("--k-values", default="1,2,3,4,5", help="comma-separated k grid")
    p_sweep.add_argument("--m-values", default="1,2,3,4,5", help="comma-separated m grid")
    p_report = sub.add_parser("report", help="emit report files for a run directory")
    p_report.add_argument("run_dir", help="run directory to report on")
    p_validate = sub.add_parser("validate-config", help="check a config file")
    p_validate.add_argument("--config", required=True, help="JSON run configuration")

    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    try:
        args = parser.parse_args(argv)
        if args.command == "baseline":
            cmd_baseline(_config_from_args(args))
        elif args.command == "refine":
            cmd_refine(_config_from_args(args), resume=args.resume)
        elif args.command == "sweep":
            cmd_sweep(
                _config_from_args(args),
                _parse_grid(args.k_values, "k"),
                _parse_grid(args.m_values, "m"),
            )
        elif args.command == "report":
            cmd_report(args.run_dir)
        elif args.command == "validate-config":
            cmd_validate_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ProviderError, DefinitionParseError) as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
