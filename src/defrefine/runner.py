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
One process at a time writes a run directory: `refine` holds an exclusive
flock on its `run.lock` from before the first write until `result.json`.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import json
import logging
import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, Literal, Sequence

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
from .llm import HttpLlm, LlmConfig, LlmScript, ScriptedLlm
from .records import from_json, to_json
from .refinement import (
    AnnealingSchedule,
    InitialRecord,
    LoopState,
    RefinementResult,
    StrategyConfig,
    TraceRecord,
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


# The run-config schema: one dataclass per JSON object of a config file (see records).


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
        return to_json(self)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path) -> "RunConfig":
        """Check a config object against the schema; relative paths resolve
        against base_dir."""
        embedder = raw.get("embedder")
        # Definitions take the document prefix unless they set their own.
        if isinstance(embedder, dict) and "definition_prefix" not in embedder:
            prefix = embedder.get("document_prefix", "")
            raw = {**raw, "embedder": {**embedder, "definition_prefix": prefix}}
        cfg = from_json(cls, raw, "config", ConfigError, base_dir)
        if cfg.llm is not None:
            cfg.llm.endpoint = _script_endpoint(cfg.llm.endpoint, base_dir)
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        return cls.from_dict(_read_config_json(path), path.parent.resolve())


def _script_endpoint(endpoint: str, base_dir: Path) -> str:
    """A `script:` endpoint with its path resolved against base_dir (an
    absolute path stays as it is); any other endpoint as it is."""
    if not endpoint.startswith(SCRIPT_PREFIX):
        return endpoint
    return SCRIPT_PREFIX + str(base_dir / endpoint[len(SCRIPT_PREFIX) :])


def _read_json(path: Path, what: str, error: type[Exception] = ConfigError):
    """The JSON value in a file; `error` naming the file if it is missing,
    not UTF-8 or not JSON (or nested too deep to parse)."""
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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
            payload = {"responses": payload}
        script = from_json(LlmScript, payload, f"llm script file {script_path}", ConfigError)
        return ScriptedLlm(script.responses, delay_s=script.delay_s)
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


@dataclass
class LogEntry:
    """One line of `definitions_log.jsonl`: an accepted definition set."""

    iteration: int
    score: float
    definitions: dict[str, str]


@dataclass
class ResultRecord:
    """`result.json`: the best definition set and its evaluation."""

    phi_best_train: float
    best_definitions: dict[str, str]
    dev: dict
    test: dict | None


def _read_record(cls, path: Path, what: str):
    """The `cls` record in a run file; DataError naming the file if it holds none."""
    return from_json(cls, _read_json(path, what, DataError), f"{what} {path}", DataError)


def _jsonl(path: Path, cls) -> Iterator[tuple[bytes, object]]:
    """Each newline-terminated line of a JSONL file with its `cls` record, or
    with the DataError naming the file and line if it holds none; a trailing
    partial write is dropped."""
    if not path.exists():
        return
    for number, line in enumerate(path.read_bytes().split(b"\n")[:-1], 1):
        where = f"{path} line {number}"
        try:
            record = from_json(cls, json.loads(line.decode("utf-8")), where, DataError)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            record = DataError(f"{where} is not valid UTF-8 JSON: {exc}")
        except DataError as exc:
            record = exc
        yield line, record


def _read_records(path: Path, cls) -> list:
    """The `cls` records of a JSONL file; the DataError of the first line that holds none."""
    records = []
    for _, record in _jsonl(path, cls):
        if isinstance(record, DataError):
            raise record
        records.append(record)
    return records


def _truncate_jsonl(path: Path, cls, iteration: int, at_least: int = 0) -> None:
    """Keep the `cls` records of a JSONL file up to `iteration`, dropping
    every line that holds none; DataError, with the file untouched, if fewer
    than `at_least` of them are left."""
    kept = [line for line, record in _jsonl(path, cls) if isinstance(record, cls) and record.iteration <= iteration]
    if len(kept) < at_least:
        raise DataError(f"unresumable corruption in {path}: {len(kept)} records < checkpoint {at_least}")
    path.write_bytes(b"".join(line + b"\n" for line in kept))


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


@contextmanager
def _run_lock(run_dir: Path) -> Iterator[None]:
    """Hold `run.lock` in the run directory, or raise ConfigError at once if
    another process does. The OS drops the lock when its process dies."""
    fd = os.open(run_dir / "run.lock", os.O_RDWR | os.O_CREAT, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"run directory in use by another process: {run_dir}") from None
        yield
    finally:
        os.close(fd)


def _refuse_checkpointed(run_dir: Path) -> None:
    """A fresh run may not replace one that has checkpointed."""
    if (run_dir / "state.json").exists():
        raise ConfigError(f"run directory already exists: {run_dir} (pass --resume or change --out)")


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
        _refuse_checkpointed(run_dir)

    # Everything that can reject the config runs before the run directory exists.
    dataset = _load_dataset(cfg)
    gateway = build_gateway(cfg)
    with closing(gateway.cache), ExitStack() as held:
        llm = build_llm(cfg)
        initial = _initial_defs(cfg, dataset)
        run_dir.mkdir(parents=True, exist_ok=True)
        held.enter_context(_run_lock(run_dir))
        if not resume:
            # Another run may have checkpointed here while this one set up.
            _refuse_checkpointed(run_dir)
            _write_json(snapshot_path, cfg.to_snapshot())

        saved = None
        if resume and state_path.exists():
            saved = _read_record(LoopState, state_path, "state file")
            _truncate_jsonl(trace_path, TraceRecord, saved.iteration, at_least=saved.iteration)
            _truncate_jsonl(defs_log_path, LogEntry, saved.iteration)
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

            def on_iteration(record: InitialRecord | TraceRecord, state: LoopState) -> None:
                # The state changes in place once this returns: take its records now.
                nonlocal pending
                t = state.iteration
                entry = None
                if t == 0 or record.accepted:
                    entry = to_json(LogEntry(t, state.phi_cur, state.current))
                line = to_json(record) if t == 0 else json.dumps(to_json(record)) + "\n"
                snapshot = to_json(state)
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
        summary = ResultRecord(
            result.phi_best_train,
            result.best_definitions,
            metrics_to_dict(result.dev_metrics, dataset.categories),
            metrics_to_dict(result.test_metrics, dataset.categories) if result.test_metrics else None,
        )
        _write_json(run_dir / "result.json", to_json(summary))
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


def _best_definitions_for_report(
    run_dir: Path, result: ResultRecord | None, entries: list[LogEntry], categories: Sequence[str]
) -> dict[str, str]:
    """The finished run's best set, or the best of the accepted sets `entries`
    (the records of definitions_log.jsonl, one per line); DataError naming
    the file, and the line, if it does not define every category."""
    if result is not None:
        where, best = f"result file {run_dir / 'result.json'}", result.best_definitions
    elif entries:
        # Incomplete run: reconstruct from the accepted-definitions log. The
        # first of equal scores wins.
        number, entry = max(enumerate(entries, 1), key=lambda numbered: numbered[1].score)
        where, best = f"{run_dir / 'definitions_log.jsonl'} line {number}", entry.definitions
    else:
        raise DataError(f"no definitions recorded in {run_dir}")
    try:
        validate_definitions(best, categories)
    except ValueError as exc:
        raise DataError(f"{where} has no usable best definition set: {exc}") from exc
    return best


def cmd_report(run_dir: str | Path) -> list[Path]:
    """Emit plot-ready report files for a finished (or interrupted) run.
    Every input is read and checked before the first file is written."""
    run_dir = Path(run_dir)
    trace_path = run_dir / "trace.jsonl"
    initial = _read_record(InitialRecord, run_dir / "initial.json", "initial record")
    if not trace_path.exists():
        raise DataError(f"missing trace.jsonl: {trace_path}")
    cfg = RunConfig.from_file(run_dir / "config.json")
    records = _read_records(trace_path, TraceRecord)
    evolution = _read_records(run_dir / "definitions_log.jsonl", LogEntry)
    result_path = run_dir / "result.json"
    result = _read_record(ResultRecord, result_path, "result file") if result_path.exists() else None
    dataset = _load_dataset(cfg)
    best = _best_definitions_for_report(run_dir, result, evolution, dataset.categories)

    reports = run_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    written = []

    points = [{"iteration": 0, "phi_train": initial.phi_train, "phi_dev": initial.phi_dev}]
    points += [{"iteration": r.iteration, "phi_train": r.phi_train_current, "phi_dev": r.phi_dev} for r in records]
    curve_path = reports / "f1_curve.json"
    _write_json(curve_path, {"points": points})
    written.append(curve_path)

    evo_path = reports / "definitions_evolution.json"
    _write_json(evo_path, to_json(evolution))
    written.append(evo_path)

    gateway = build_gateway(cfg)
    with closing(gateway.cache):
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
    return str(Path.cwd() / value)


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
