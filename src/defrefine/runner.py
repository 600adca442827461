"""Command-line entry point: baseline evaluation, refinement runs, grid sweeps, reports.

A run directory holds a config snapshot, an append-only iteration trace
(one JSON record per line, flushed and fsynced per record), a checkpoint
that is rewritten atomically after every iteration, and a log of accepted
definition sets. One writer thread writes each iteration's records in
iteration order, at most one iteration behind the loop, so the disk work
overlaps the next LLM call; the checkpoint is written after the trace record
it covers is fsynced. A kill can lose the last completed iteration's
records, which --resume redoes; a write error still stops the run. Any
interrupted run can be continued with --resume and reproduces the
uninterrupted trace byte for byte when the providers are deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import MISSING, dataclass, field
from itertools import chain
from pathlib import Path
from typing import Literal

from .classifier import unit_rows
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
    LoopState,
    RefinementResult,
    StrategyConfig,
    embed_split,
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

SCRIPT_PREFIX = "script:"


# The run-config schema. Each dataclass is one JSON object of a config file,
# its fields in config.json's key order; a field's `key` metadata, if any, is
# its JSON key. Types come from the annotations, defaults from the fields.


@dataclass
class DatasetConfig:
    path: Path
    format: Literal["jsonl", "csv"] = "jsonl"
    categories_file: Path | None = None
    name: str | None = None


@dataclass
class ScheduleConfig:
    """Annealing temperatures; the iteration budget is the run's t_max."""

    t0: float = 0.1
    t_min: float = 0.01

    def __post_init__(self) -> None:
        AnnealingSchedule(self.t0, self.t_min)  # ValueError unless 0 < t_min <= t0


@dataclass
class InitConfig:
    mode: Literal["minimal", "llm_generated"] = "minimal"
    definitions_file: Path | None = None


@dataclass(kw_only=True)
class RunConfig:
    dataset: DatasetConfig
    embedder: EmbedderConfig
    llm: LlmConfig | None = None
    strategy: StrategyConfig | None = None
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    init: InitConfig = field(default_factory=InitConfig)
    seed: int
    t_max: int = 100
    out_dir: Path = Path("runs")
    sample_char_cap: int = 2000
    parse_retries: int = 3
    cache_file: Path | None = None

    def __post_init__(self) -> None:
        for key, low in (("t_max", 0), ("sample_char_cap", 1), ("parse_retries", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}")
        if self.init.mode == "llm_generated" and self.llm is None:
            raise ValueError("init.mode llm_generated requires an llm section")

    def to_snapshot(self) -> dict:
        return _to_json(self)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path) -> "RunConfig":
        """Check a config object against the schema; relative paths resolve
        against base_dir."""
        embedder = raw.get("embedder")
        # Definitions take the document prefix unless they set their own.
        if isinstance(embedder, dict) and "definition_prefix" not in embedder:
            prefix = embedder.get("document_prefix", "")
            raw = {**raw, "embedder": {**embedder, "definition_prefix": prefix}}
        cfg = _read_section(cls, raw, "", base_dir)
        if cfg.llm is not None:
            cfg.llm.endpoint = _script_endpoint(cfg.llm.endpoint, base_dir)
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        return cls.from_dict(_read_config_json(path), path.parent.resolve())


def _json_key(f: dataclasses.Field) -> str:
    return f.metadata.get("key", f.name)


def _to_json(value):
    """The JSON form of a config value; _read_value is its inverse."""
    if dataclasses.is_dataclass(value):
        return {_json_key(f): _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return str(value) if isinstance(value, Path) else value


def _read_section(cls, raw, where: str, base_dir: Path):
    """An instance of the dataclass `cls` from its JSON object `raw`. A missing
    key reads as the JSON form of its field's default."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    prefix = f"{where}." if where else ""
    fields = {_json_key(f): f for f in dataclasses.fields(cls)}
    unknown = [key for key in raw if key not in fields]
    if unknown:
        raise ConfigError(f"unknown config key {prefix}{unknown[0]}")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, f in fields.items():
        if key in raw:
            value = raw[key]
        elif f.default is not MISSING:
            value = _to_json(f.default)
        elif f.default_factory is not MISSING:
            value = _to_json(f.default_factory())
        else:
            raise ConfigError(f"config is missing {prefix}{key}")
        values[f.name] = _read_value(hints[f.name], value, prefix + key, base_dir)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {where or 'config'}: {exc}") from exc


# Schema type -> (the JSON values it takes, its name in errors). A float key
# keeps an integer as written, so the snapshot writes it back unchanged.
_JSON_TYPES = {int: (int, "an integer"), float: (int | float, "a number"), str: (str, "a string")}


def _read_value(hint, value, key: str, base_dir: Path):
    """`value` as the schema type `hint`; ConfigError naming `key` if it is not one."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    if dataclasses.is_dataclass(hint):
        return _read_section(hint, value, key, base_dir)
    if typing.get_origin(hint) is Literal:
        if value not in typing.get_args(hint):
            raise ConfigError(f"{key} must be one of {list(typing.get_args(hint))}, got {value!r}")
        return value
    accepted, what = _JSON_TYPES[str if hint is Path else hint]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return _resolve(value, base_dir) if hint is Path else value


def _resolve(path: str, base_dir: Path) -> Path:
    p = Path(path)
    return p if p.is_absolute() else base_dir / p


def _script_endpoint(endpoint: str, base_dir: Path) -> str:
    """A `script:` endpoint with its path resolved against base_dir; any other
    endpoint as it is."""
    if not endpoint.startswith(SCRIPT_PREFIX):
        return endpoint
    return SCRIPT_PREFIX + str(_resolve(endpoint[len(SCRIPT_PREFIX) :], base_dir))


def _read_json(path: Path, what: str, error: type[Exception] = ConfigError):
    """The JSON value in a file; `error` naming the file if it is missing,
    not UTF-8 or not JSON."""
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def _read_config_json(path: Path) -> dict:
    """The JSON object in a config file."""
    raw = _read_json(path, "config file")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "._" else "-" for ch in text)


def run_dir_for(cfg: RunConfig, kind: str) -> Path:
    ds = _slug(cfg.dataset.name or cfg.dataset.path.stem)
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
    cache = EmbeddingCache(cfg.cache_file or cfg.out_dir / "embedding_cache.bin")
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
    if endpoint.startswith(SCRIPT_PREFIX):
        script_path = Path(endpoint[len(SCRIPT_PREFIX) :])
        payload = _read_json(script_path, "llm script file")
        if isinstance(payload, list):
            return ScriptedLlm(payload)
        if isinstance(payload, dict) and "responses" in payload:
            return ScriptedLlm(payload["responses"], delay_s=payload.get("delay_s", 0.0))
        raise ConfigError(f"llm script file {script_path} must hold a list or responses object")
    return HttpLlm(cfg.llm)


def _initial_defs(cfg: RunConfig, dataset: Dataset) -> dict[str, str] | None:
    """Explicit definitions file, if configured; otherwise None (engine default)."""
    if cfg.init.definitions_file is None:
        return None
    payload = _read_json(cfg.init.definitions_file, "initial definitions file")
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
    return path.read_text(encoding="utf-8").split("\n")[:-1] if path.exists() else []


def _read_records(path: Path) -> list:
    """The JSON values of a JSONL file's complete lines; DataError naming the
    file and line if one is not JSON."""
    records = []
    for number, line in enumerate(_complete_lines(path), 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} line {number} is not valid JSON: {exc}") from exc
    return records


def _truncate_jsonl(path: Path, iteration: int, at_least: int = 0) -> None:
    """Keep the complete records of a JSONL file up to `iteration`; DataError,
    with the file untouched, if fewer than `at_least` of them are left. A line
    that is not an object with an integer iteration is no record."""
    kept = []
    for line in _complete_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        at = record.get("iteration") if isinstance(record, dict) else None
        if type(at) is int and at <= iteration:
            kept.append(line)
    if len(kept) < at_least:
        raise DataError(f"unresumable corruption in {path}: {len(kept)} records < checkpoint {at_least}")
    path.write_text("".join(line + "\n" for line in kept), encoding="utf-8")


def _load_dataset(cfg: RunConfig) -> Dataset:
    d = cfg.dataset
    return load_dataset(d.path, d.format, categories_path=d.categories_file, name=d.name)


def cmd_baseline(cfg: RunConfig):
    """Evaluate the initial definitions on the test split."""
    dataset = _load_dataset(cfg)
    gateway = build_gateway(cfg)
    with closing(gateway.cache):
        llm = build_llm(cfg) if cfg.init.mode == "llm_generated" else None
        definitions = _initial_defs(cfg, dataset)
        if definitions is None:
            definitions = initial_definitions(dataset.categories, cfg.init.mode, llm, cfg.parse_retries)
        test_docs = split_view(dataset, "test")
        if not test_docs:
            raise DataError("baseline evaluation requires a nonempty test split")
        test_units, gold = embed_split(gateway, dataset, test_docs)
        def_vecs = gateway.embed_definitions(definitions, dataset.categories)
        report, cm = score(def_vecs, dataset.categories, test_units, gold)

    run_dir = run_dir_for(cfg, "baseline")
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_json(run_dir / "config.json", cfg.to_snapshot())
    _write_json(run_dir / "definitions.json", definitions)
    _write_json(run_dir / "metrics_test.json", metrics_to_dict(report, dataset.categories))
    confusion_to_csv(cm, run_dir / "confusion_test.csv")
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
    elif state_path.exists():
        raise ConfigError(f"run directory already exists: {run_dir} (pass --resume or change --out)")

    # Everything that can reject the config runs before the run directory exists.
    dataset = _load_dataset(cfg)
    gateway = build_gateway(cfg)
    with closing(gateway.cache):
        llm = build_llm(cfg)
        initial = _initial_defs(cfg, dataset)
        if not resume:
            run_dir.mkdir(parents=True, exist_ok=True)
            _write_json(snapshot_path, cfg.to_snapshot())

        saved = None
        if resume and state_path.exists():
            try:
                saved = LoopState.from_dict(json.loads(state_path.read_text(encoding="utf-8")))
            except (ValueError, TypeError, OverflowError) as exc:
                raise DataError(f"unresumable state in {state_path}: {exc}") from exc
            _truncate_jsonl(trace_path, saved.iteration, at_least=saved.iteration)
            _truncate_jsonl(defs_log_path, saved.iteration)
            if hasattr(llm, "advance"):
                llm.advance(saved.llm_calls)

        # Without a saved state the run starts over, replacing what a run killed
        # before its first state.json left behind.
        mode = "a" if saved is not None else "w"
        with (
            open(trace_path, mode, encoding="utf-8") as trace_handle,
            open(defs_log_path, mode, encoding="utf-8") as defs_handle,
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="run-writer") as writer,
        ):
            pending: Future | None = None

            def persist(iteration: int, record: dict | str, entry: dict | None, state: dict) -> None:
                """One iteration's records, in order: initial.json (the record)
                or the fsynced trace line, the accepted set, then state.json."""
                if iteration == 0:
                    _write_json(run_dir / "initial.json", record)
                else:
                    trace_handle.write(record)
                    trace_handle.flush()
                    os.fsync(trace_handle.fileno())
                if entry is not None:
                    defs_handle.write(json.dumps(entry) + "\n")
                    defs_handle.flush()
                _atomic_write_json(state_path, state)

            def wait_for_writer() -> None:
                """Wait for the pending iteration's records; re-raise its write error."""
                nonlocal pending
                job, pending = pending, None
                if job is not None:
                    job.result()

            def on_iteration(record: dict, state: LoopState) -> None:
                # The state changes in place once this returns, so its records
                # are taken now. Definition sets are replaced, never edited,
                # so a shallow copy of the state is enough.
                nonlocal pending
                t = state.iteration
                entry = None
                if t == 0 or record["accepted"]:
                    entry = {"iteration": t, "score": state.phi_cur, "definitions": state.current}
                line = record if t == 0 else json.dumps(record) + "\n"
                snapshot = state.to_dict()
                wait_for_writer()
                pending = writer.submit(persist, t, line, entry, snapshot)

            try:
                result = refine(
                    dataset,
                    cfg.strategy,
                    AnnealingSchedule(cfg.schedule.t0, cfg.schedule.t_min, max(1, cfg.t_max)),
                    gateway,
                    llm,
                    seed=cfg.seed,
                    t_max=cfg.t_max,
                    init_mode=cfg.init.mode,
                    initial=initial,
                    parse_retries=cfg.parse_retries,
                    sample_char_cap=cfg.sample_char_cap,
                    on_iteration=on_iteration,
                    resume=saved,
                )
            finally:
                # A write error outranks a loop error: it came first.
                wait_for_writer()

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


def _best_definitions_for_report(run_dir: Path, entries: list[dict]) -> dict[str, str]:
    """The finished run's best set, or the best of the accepted sets `entries`."""
    result_path = run_dir / "result.json"
    if result_path.exists():
        return _read_json(result_path, "result file", DataError)["best_definitions"]
    # Incomplete run: reconstruct from the accepted-definitions log.
    if not entries:
        raise DataError(f"no definitions recorded in {run_dir}")
    # The first of equal scores wins.
    return max(entries, key=lambda entry: entry["score"])["definitions"]


def cmd_report(run_dir: str | Path) -> list[Path]:
    """Emit plot-ready report files for a finished (or interrupted) run."""
    run_dir = Path(run_dir)
    trace_path, initial_path = run_dir / "trace.jsonl", run_dir / "initial.json"
    for path in (trace_path, initial_path):
        if not path.exists():
            raise DataError(f"missing {path.name}: {path}")
    cfg = RunConfig.from_file(run_dir / "config.json")
    initial = _read_json(initial_path, "initial record", DataError)
    records = _read_records(trace_path)

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

    evolution = _read_records(run_dir / "definitions_log.jsonl")
    evo_path = reports / "definitions_evolution.json"
    _write_json(evo_path, evolution)
    written.append(evo_path)

    dataset = _load_dataset(cfg)
    gateway = build_gateway(cfg)
    with closing(gateway.cache):
        best = _best_definitions_for_report(run_dir, evolution)
        def_vecs = gateway.embed_definitions(best, dataset.categories)
        test_docs = split_view(dataset, "test")
        if test_docs:
            # A copy is normalised: the snapshot below needs the raw vectors.
            doc_vecs = gateway.embed_texts([d.text for d in test_docs], "document")
            gold = [dataset.category_index[d.label] for d in test_docs]
            _, cm = score(def_vecs, dataset.categories, unit_rows(doc_vecs, "document"), gold)
            cm_path = reports / "confusion_test.csv"
            confusion_to_csv(cm, cm_path)
            written.append(cm_path)
        else:
            doc_vecs = []
            log.warning("no test split: skipping test confusion matrix")

    snapshot_path = reports / "embeddings_snapshot.jsonl"
    definition_rows = (
        {"kind": "definition", "category": category, "vector": vec.tolist()}
        for category, vec in zip(dataset.categories, def_vecs)
    )
    document_rows = (
        {"kind": "document", "id": doc.id, "label": doc.label, "vector": vec.tolist()}
        for doc, vec in zip(test_docs, doc_vecs)
    )
    with open(snapshot_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in chain(definition_rows, document_rows))
    written.append(snapshot_path)
    print(f"report written: {', '.join(p.name for p in written)} in {reports}")
    return written


def cmd_validate_config(path: str | Path) -> RunConfig:
    cfg = RunConfig.from_file(path)
    for what, file in (
        ("dataset file", cfg.dataset.path),
        ("categories file", cfg.dataset.categories_file),
        ("initial definitions file", cfg.init.definitions_file),
    ):
        if file is not None and not file.exists():
            raise ConfigError(f"{what} not found: {file}")
    print("config OK")
    return cfg


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError so main() can map them to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _cwd_path(value: str) -> str:
    return str(_resolve(value, Path.cwd()))


def _cwd_endpoint(value: str) -> str:
    return _script_endpoint(value, Path.cwd())


# One row per override flag: (flag, config key it sets, argparse type). Paths
# on the command line are relative to the working directory.
_OVERRIDES = (
    ("--dataset", "dataset.path", _cwd_path),
    ("--strategy", "strategy.name", str),
    ("--k", "strategy.k", int),
    ("--m", "strategy.m", int),
    ("--seed", "seed", int),
    ("--t-max", "t_max", int),
    ("--embedder-endpoint", "embedder.endpoint", str),
    ("--llm-endpoint", "llm.endpoint", _cwd_endpoint),
    ("--out", "out_dir", _cwd_path),
)


def _add_override_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON run configuration")
    for flag, key, kind in _OVERRIDES:
        parser.add_argument(flag, dest=key, type=kind, help=f"override config key {key}")


def _config_from_args(args) -> RunConfig:
    path = Path(args.config)
    raw = _read_config_json(path)
    for _, key, _ in _OVERRIDES:
        value = getattr(args, key)
        if value is None:
            continue
        section, _, leaf = key.rpartition(".")
        node = raw
        if section:
            node = raw[section] = raw.get(section) or {}
        if isinstance(node, dict):  # from_dict reports a section that is not an object
            node[leaf] = value
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
