"""Command-line entry point: baseline evaluation, refinement runs, grid sweeps, reports."""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import chain, product
from pathlib import Path
from typing import Iterator, Literal, NamedTuple, Sequence

from .corpus import Dataset, load_dataset, split_view
from .embeddings import (
    EmbedderConfig,
    EmbeddingCache,
    EmbeddingGateway,
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
)
from .errors import ConfigError, DataError, DefinitionParseError, ProviderError, open_input
from .evaluation import confusion_to_csv, metrics_to_dict
from .llm import HttpLlm, LlmConfig, ScriptedLlm
from .records import from_json, to_json
from .refinement import (
    AnnealingSchedule,
    InitialRecord,
    LoopState,
    RefinementResult,
    Splits,
    StrategyConfig,
    TraceRecord,
    check_dataset,
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
class InitConfig:
    mode: Literal["minimal", "llm_generated"] = "minimal"
    definitions_file: Path | None = None


@dataclass(kw_only=True)
class RunConfig:
    dataset: DatasetConfig
    embedder: EmbedderConfig
    llm: LlmConfig | None = None
    strategy: StrategyConfig | None = None
    schedule: AnnealingSchedule = field(default_factory=AnnealingSchedule)
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

    @property
    def store_path(self) -> Path:
        return self.cache_file or self.out_dir / "embedding_cache.bin"

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
    cannot be read, is not UTF-8 or not JSON (or nested too deep to parse)."""
    return _read_json_and_sha256(path, what, error)[0]


def _read_json_and_sha256(path: Path, what: str, error: type[Exception] = ConfigError) -> tuple[object, str]:
    """`_read_json`, and the sha256 of the bytes it read."""
    with open_input(path, what, error) as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
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
    if params["dim"] < 1:
        raise ConfigError(f"mock embedder parameter 'dim' must be >= 1, got {params['dim']}")
    return params


def build_gateway(cfg: RunConfig) -> EmbeddingGateway:
    endpoint = cfg.embedder.endpoint
    if endpoint.startswith("mock:"):
        provider = MockEmbeddingProvider(**_parse_mock_endpoint(endpoint))
    else:
        provider = HttpEmbeddingProvider(cfg.embedder)
    cache = EmbeddingCache(cfg.store_path)
    return EmbeddingGateway(cfg.embedder, cache, provider)


def _read_script(endpoint: str) -> ScriptedLlm:
    """The LLM script file a `script:` endpoint names; ConfigError naming the
    file if it holds none."""
    script_path = Path(endpoint[len(SCRIPT_PREFIX) :])
    payload = _read_json(script_path, "llm script file")
    if isinstance(payload, list):
        payload = {"responses": payload}
    return from_json(ScriptedLlm, payload, f"llm script file {script_path}", ConfigError)


def build_llm(cfg: RunConfig):
    if cfg.llm is None:
        return None
    if cfg.llm.endpoint.startswith(SCRIPT_PREFIX):
        return _read_script(cfg.llm.endpoint)
    return HttpLlm(cfg.llm)


def _initial_defs(cfg: RunConfig, dataset: Dataset) -> tuple[dict[str, str] | None, str | None]:
    """Explicit definitions file, if configured, and the sha256 of its bytes;
    otherwise None (engine default) and None."""
    if (path := cfg.init.definitions_file) is None:
        return None, None
    payload, sha256 = _read_json_and_sha256(path, "initial definitions file")
    return validate_definitions(payload, dataset.categories, ConfigError, f"initial definitions file {path}"), sha256


def _make_dir(path: Path) -> None:
    """Make an output directory and its parents; ConfigError naming it if a
    regular file stands at the path or at one of its parents."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output directory {path} cannot be made: {exc.strerror}") from None


def _check_out_dir(path: Path) -> None:
    """ConfigError naming the output directory if its nearest existing path
    is not a directory, so that no output directory under it can be made."""
    for at in (path, *path.parents):
        if at.is_dir():
            return
        if at.exists():
            raise ConfigError(f"output directory {path} cannot be made: {at} is not a directory")


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
class InputsRecord:
    """`inputs.json`: what a run's input files held when it began, as sha256
    hex digests: of the dataset file, the categories file and the initial
    definitions file (None where the config names none), and of each reply
    of a `script:` LLM file, in order (None for another LLM)."""

    dataset: str
    categories_file: str | None
    definitions_file: str | None
    llm_replies: list[str] | None


def _reply_digests(llm) -> list[str] | None:
    if not isinstance(llm, ScriptedLlm):
        return None
    return [hashlib.sha256(reply.encode("utf-8", "surrogatepass")).hexdigest() for reply in llm.responses]


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
    partial write is dropped. A missing file has no lines."""
    with open_input(path, "run file", DataError, missing_ok=True) as fh:
        lines = fh.read().split(b"\n")[:-1]
    for number, line in enumerate(lines, 1):
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


class RunRecords(NamedTuple):
    """What `report` reads from a run directory, every record checked."""

    config: RunConfig
    dataset: Dataset
    initial: InitialRecord
    trace: list[TraceRecord]
    evolution: list[LogEntry]
    best: dict[str, str]


class RunDirectory:
    """The files of one refinement run, their write order and their checks.

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
    One process at a time writes a run directory: `open` holds an exclusive
    flock on its `run.lock` from before the first write until `result.json`.
    """

    def __init__(self, path: Path):
        self.path = path
        self._config = path / "config.json"
        self._state = path / "state.json"
        self._trace = path / "trace.jsonl"
        self._defs_log = path / "definitions_log.jsonl"
        self._initial = path / "initial.json"
        self._inputs = path / "inputs.json"
        self._result = path / "result.json"
        self._pending: Future | None = None

    def config(self) -> RunConfig:
        """The run's config snapshot; ConfigError if it is missing or not a config."""
        return RunConfig.from_file(self._config)

    def refuse_checkpointed(self) -> None:
        """A fresh run may not replace one that has checkpointed."""
        if self._state.exists():
            raise ConfigError(f"run directory already exists: {self.path} (pass --resume or change --out)")

    def _began_with(self) -> InputsRecord | None:
        """The run's `inputs.json`; None, with a warning, in a directory from
        before it, whose input files cannot be checked."""
        if not self._inputs.exists():
            log.warning("%s has no inputs.json: its input files cannot be checked", self.path)
            return None
        return _read_record(InputsRecord, self._inputs, "inputs record")

    def _check_inputs(self, files: Sequence[tuple[str, object, object, object]]) -> None:
        """ConfigError naming the first of `files`, each (what, path, its
        digest in `inputs.json`, its digest now), that has changed."""
        for what, path, began, held in files:
            if began != held:
                raise ConfigError(
                    f"{what} {path} has changed since the run in {self.path} began; "
                    "restore it, or start a new run in another directory"
                )

    def _check_resumed_inputs(self, cfg: RunConfig, inputs: InputsRecord, llm_calls: int) -> None:
        """`_check_inputs` over every input a resumed run has used: the script's
        first `llm_calls` replies, not the ones a grown script adds."""
        if (then := self._began_with()) is None:
            return
        used = [None if r is None else r[:llm_calls] for r in (then.llm_replies, inputs.llm_replies)]
        self._check_inputs(
            [
                ("dataset file", cfg.dataset.path, then.dataset, inputs.dataset),
                ("categories file", cfg.dataset.categories_file, then.categories_file, inputs.categories_file),
                ("initial definitions file", cfg.init.definitions_file, then.definitions_file, inputs.definitions_file),
                ("llm script file", cfg.llm.endpoint.removeprefix(SCRIPT_PREFIX), *used),
            ]
        )

    @contextmanager
    def open(self, cfg: RunConfig, resume: bool, inputs: RunInputs) -> Iterator[LoopState | None]:
        """Make, lock and open the directory of cfg's run until the block ends;
        yield the saved loop state of a resumed run that has one, else None.
        ConfigError at once if a regular file blocks the directory's path or
        another process holds `run.lock`, and before
        a resumed run's files change if an input file it has used has: the
        dataset, its categories file, the initial definitions file, or one of
        the script replies the run has taken (a script may grow past them).
        DataError, also before they change, if a definition set of the saved
        state fails `validate_definitions`.
        The run's input files go to `inputs.json` with the iteration-0 records,
        and a resume rewrites it once the checks pass, so it pins what the
        run goes on with.
        At exit it waits for the pending records: a write error outranks the
        block's, it came first."""
        _make_dir(self.path)
        with open(self.path / "run.lock", "a") as lock:
            try:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ConfigError(f"run directory in use by another process: {self.path}") from None
            if not resume:
                # Another run may have checkpointed here while this one set up.
                self.refuse_checkpointed()
                _write_json(self._config, cfg.to_snapshot())
            saved = None
            if resume and self._state.exists():
                saved = _read_record(LoopState, self._state, "state file")
                self._check_resumed_inputs(cfg, inputs.files, saved.llm_calls)
                self._check_saved_definitions(saved, inputs.splits.dataset.categories)
                _truncate_jsonl(self._trace, TraceRecord, saved.iteration, at_least=saved.iteration)
                _truncate_jsonl(self._defs_log, LogEntry, saved.iteration)
                _atomic_write_json(self._inputs, to_json(inputs.files))
            # Without a saved state the run starts over, replacing what a run killed
            # before its first state.json left behind.
            mode = "a" if saved is not None else "w"
            self._inputs_json = to_json(inputs.files)
            with (
                open(self._trace, mode, encoding="utf-8") as self._trace_out,
                open(self._defs_log, mode, encoding="utf-8") as self._defs_out,
                ThreadPoolExecutor(max_workers=1, thread_name_prefix="run-writer") as self._writer,
            ):
                try:
                    yield saved
                finally:
                    self._wait()

    def _check_saved_definitions(self, saved: LoopState, categories: Sequence[str]) -> None:
        """Put each definition set of the saved state through `validate_definitions`."""
        where = f"state file {self._state} key"
        saved.current = validate_definitions(saved.current, categories, DataError, f"{where} current")
        saved.best = validate_definitions(saved.best, categories, DataError, f"{where} best")
        for i, entry in enumerate(saved.history):
            at = f"{where} history[{i}].definitions"
            entry.definitions = validate_definitions(entry.definitions, categories, DataError, at)

    def _persist(self, record: InitialRecord | TraceRecord, entry: LogEntry | None, state: dict) -> None:
        """One iteration's records, in order: inputs.json and initial.json
        (the record), or the fsynced trace line, the accepted set, then
        state.json."""
        if record.iteration == 0:
            _atomic_write_json(self._inputs, self._inputs_json)
            _write_json(self._initial, to_json(record))
        else:
            self._trace_out.write(json.dumps(to_json(record)) + "\n")
            self._trace_out.flush()
            os.fsync(self._trace_out.fileno())
        if entry is not None:
            self._defs_out.write(json.dumps(to_json(entry)) + "\n")
            self._defs_out.flush()
        _atomic_write_json(self._state, state)

    def _wait(self) -> None:
        """Wait for the pending iteration's records; re-raise its write error."""
        job, self._pending = self._pending, None
        if job is not None:
            job.result()

    def on_iteration(self, record: InitialRecord | TraceRecord, state: LoopState) -> None:
        """Hand one iteration's records to the writer once the previous iteration's are written."""
        # The state changes in place once this returns: take its record now.
        # The loop makes a new record, and new definition sets, each time and
        # never changes them, so the writer serialises those.
        t = state.iteration
        entry = LogEntry(t, state.phi_cur, state.current) if t == 0 or record.accepted else None
        snapshot = to_json(state)
        self._wait()
        self._pending = self._writer.submit(self._persist, record, entry, snapshot)

    def finish(self, result: RefinementResult, categories: Sequence[str]) -> None:
        """Write the evaluation of the best definitions after every iteration's records."""
        self._wait()
        _write_json(self.path / "best_definitions.json", result.best_definitions)
        summary = ResultRecord(
            result.phi_best_train,
            result.best_definitions,
            metrics_to_dict(result.dev_metrics, categories),
            metrics_to_dict(result.test_metrics, categories) if result.test_metrics else None,
        )
        _write_json(self._result, to_json(summary))
        if result.test_confusion is not None:
            confusion_to_csv(result.test_confusion, self.path / "confusion_test.csv")

    def read(self) -> RunRecords:
        """The run's records, dataset and best definition set (the result's, else
        the log's best, the first of equal scores), each checked; DataError
        naming the file, and the line, of the first that does not hold."""
        initial = _read_record(InitialRecord, self._initial, "initial record")
        if not self._trace.exists():
            raise DataError(f"missing trace.jsonl: {self._trace}")
        cfg = self.config()
        trace = _read_records(self._trace, TraceRecord)
        evolution = _read_records(self._defs_log, LogEntry)
        result = _read_record(ResultRecord, self._result, "result file") if self._result.exists() else None
        dataset = _load_dataset(cfg)
        # A report reads the dataset files again, not the loop's other inputs.
        if (then := self._began_with()) is not None:
            self._check_inputs(
                [
                    ("dataset file", cfg.dataset.path, then.dataset, dataset.sha256),
                    ("categories file", cfg.dataset.categories_file, then.categories_file, dataset.categories_sha256),
                ]
            )
        if result is not None:
            where, best = f"result file {self._result}", result.best_definitions
        elif evolution:
            number, entry = max(enumerate(evolution, 1), key=lambda numbered: numbered[1].score)
            where, best = f"{self._defs_log} line {number}", entry.definitions
        else:
            raise DataError(f"no definitions recorded in {self.path}")
        best = validate_definitions(best, dataset.categories, DataError, where)
        return RunRecords(cfg, dataset, initial, trace, evolution, best)


@contextmanager
def _open_splits(cfg: RunConfig, dataset: Dataset) -> Iterator[Splits]:
    """The dataset's splits on cfg's embedder, with its store open until the block ends."""
    gateway = build_gateway(cfg)
    with closing(gateway.cache):
        yield Splits(dataset, gateway)


@dataclass
class RunInputs:
    """What a refinement builds from its config before it makes its run
    directory. Sweep cells share one: they differ only in strategy and seed,
    which none of this reads, and neither LLM client keeps state between calls."""

    splits: Splits
    llm: ScriptedLlm | HttpLlm | None
    initial: dict[str, str] | None
    files: InputsRecord


@contextmanager
def _set_up(cfg: RunConfig) -> Iterator[RunInputs]:
    """The run inputs of cfg, with the embedding store open until the block
    ends. Each input file is hashed as it is read, for `inputs.json`, and
    an output directory that a regular file blocks is refused first."""
    _check_out_dir(cfg.out_dir)
    dataset = _load_dataset(cfg)
    with _open_splits(cfg, dataset) as splits:
        llm = build_llm(cfg)
        initial, definitions_sha256 = _initial_defs(cfg, dataset)
        files = InputsRecord(dataset.sha256, dataset.categories_sha256, definitions_sha256, _reply_digests(llm))
        yield RunInputs(splits, llm, initial, files)


def cmd_baseline(cfg: RunConfig):
    """Evaluate the initial definitions on the test split."""
    with _set_up(cfg) as inputs:
        dataset, splits = inputs.splits.dataset, inputs.splits
        if not split_view(dataset, "test"):
            raise DataError("baseline evaluation requires a nonempty test split")
        definitions = inputs.initial
        if definitions is None:
            definitions, _ = initial_definitions(dataset.categories, cfg.init.mode, inputs.llm, cfg.parse_retries)
        def_units = splits.gateway.embed_definitions(definitions, dataset.categories)
        report, cm = splits.score(def_units, "test")

    run_dir = run_dir_for(cfg, "baseline")
    _make_dir(run_dir)
    _write_json(run_dir / "config.json", cfg.to_snapshot())
    _write_json(run_dir / "definitions.json", definitions)
    _write_json(run_dir / "metrics_test.json", metrics_to_dict(report, dataset.categories))
    confusion_to_csv(cm, run_dir / "confusion_test.csv")
    print(f"baseline test macro-F1: {report.macro_f1:.4f} ({run_dir})")
    return report


def cmd_refine(cfg: RunConfig, resume: bool = False, inputs: RunInputs | None = None) -> RefinementResult:
    """Run (or continue) one refinement loop with crash-safe persistence.

    A fresh run may be given `inputs` set up from cfg (a sweep's cells share
    them); otherwise it sets up its own and closes the store it opened."""
    if cfg.strategy is None:
        raise ConfigError("refine requires a strategy config")
    if cfg.llm is None:
        raise ConfigError("refine requires an llm config")
    run = RunDirectory(run_dir_for(cfg, "refine"))
    if resume:
        cfg = run.config()
    else:
        run.refuse_checkpointed()

    # Everything that can reject the config runs before the run directory exists.
    with _set_up(cfg) if inputs is None else nullcontext(inputs) as inputs:
        check_dataset(inputs.splits.dataset, cfg.strategy)
        with run.open(cfg, resume, inputs) as saved:
            result = refine(
                inputs.splits,
                cfg.strategy,
                cfg.schedule,
                inputs.llm,
                seed=cfg.seed,
                t_max=cfg.t_max,
                init_mode=cfg.init.mode,
                initial=inputs.initial,
                parse_retries=cfg.parse_retries,
                sample_char_cap=cfg.sample_char_cap,
                on_iteration=run.on_iteration,
                resume=saved,
            )
            run.finish(result, inputs.splits.dataset.categories)
    test_phi = result.test_metrics.macro_f1 if result.test_metrics else float("nan")
    print(
        f"refine done: best train macro-F1 {result.phi_best_train:.4f}, "
        f"test macro-F1 {test_phi:.4f} ({run.path})"
    )
    return result


def cmd_sweep(cfg: RunConfig, k_values, m_values) -> dict:
    """Run one refinement per (k, m) cell with a derived sub-seed per cell.

    Every cell's config and run directory are checked, and then the cells
    share one set-up, so a bad grid value, a checkpointed cell, or a bad
    dataset, store, script or definitions file, or a dataset that refine's
    rules refuse, stops the sweep before the first cell. A provider, parse or
    data error fails only its cell; a split whose embedding failed is
    embedded again by the next cell."""
    if cfg.strategy is None:
        raise ConfigError("sweep requires a strategy config")
    if not k_values or not m_values:
        raise ConfigError("sweep requires nonempty k and m grids")
    for what, values in (("k", k_values), ("m", m_values)):
        if len(set(values)) < len(values):
            # Two cells would share one run directory.
            raise ConfigError(f"sweep {what} grid repeats a value: {','.join(map(str, values))}")
    cell_cfgs = []
    for k, m in product(k_values, m_values):
        try:
            strategy = dataclasses.replace(cfg.strategy, k_confused=k, m_history=m)
        except ValueError as exc:
            raise ConfigError(f"sweep cell k={k} m={m}: {exc}") from exc
        cell_cfgs.append(dataclasses.replace(cfg, strategy=strategy, seed=derive_seed(cfg.seed, f"cell-k{k}-m{m}")))
    for cell_cfg in cell_cfgs:
        RunDirectory(run_dir_for(cell_cfg, "refine")).refuse_checkpointed()
    cells = []
    with _set_up(cfg) as inputs:
        check_dataset(inputs.splits.dataset, cfg.strategy)
        for cell_cfg in cell_cfgs:
            cell = {"k": cell_cfg.strategy.k_confused, "m": cell_cfg.strategy.m_history, "seed": cell_cfg.seed}
            try:
                result = cmd_refine(cell_cfg, inputs=inputs)
                cell["phi_best_train"] = result.phi_best_train
                cell["run_dir"] = run_dir_for(cell_cfg, "refine").name
            except (ProviderError, DefinitionParseError, DataError) as exc:
                log.error("sweep cell k=%d m=%d failed: %s", cell["k"], cell["m"], exc)
                cell["error"] = str(exc)
            cells.append(cell)
    scored = [c for c in cells if "phi_best_train" in c]
    best = max(scored, key=lambda c: c["phi_best_train"]) if scored else None
    summary = {"k_values": list(k_values), "m_values": list(m_values), "cells": cells, "best": best}
    _make_dir(cfg.out_dir)
    _write_json(cfg.out_dir / "sweep_summary.json", summary)
    for cell in cells:
        phi = cell.get("phi_best_train")
        status = f"{phi:.4f}" if phi is not None else f"FAILED ({cell['error']})"
        print(f"k={cell['k']} m={cell['m']}: {status}")
    return summary


def cmd_report(run_dir: str | Path) -> list[Path]:
    """Emit plot-ready report files for a finished (or interrupted) run.
    Every input is read and checked, and every vector embedded, before the
    first file is written."""
    run = RunDirectory(Path(run_dir))
    cfg, dataset, initial, trace, evolution, best = run.read()
    test_docs = split_view(dataset, "test")
    with _open_splits(cfg, dataset) as splits:
        def_units = splits.gateway.embed_definitions(best, dataset.categories)
        test_units = []
        if test_docs:
            _, cm = splits.score(def_units, "test")
            test_units = splits.embedded("test")[0]

    reports = run.path / "reports"
    _make_dir(reports)
    points = [{"iteration": 0, "phi_train": initial.phi_train, "phi_dev": initial.phi_dev}]
    points += [{"iteration": r.iteration, "phi_train": r.phi_train_current, "phi_dev": r.phi_dev} for r in trace]
    written = [reports / "f1_curve.json", reports / "definitions_evolution.json"]
    _write_json(written[0], {"points": points})
    _write_json(written[1], to_json(evolution))
    if test_docs:
        written.append(reports / "confusion_test.csv")
        confusion_to_csv(cm, written[-1])
    else:
        log.warning("no test split: skipping test confusion matrix")
    written.append(reports / "embeddings_snapshot.jsonl")
    definition_rows = (
        {"kind": "definition", "category": category, "vector": vec.tolist()}
        for category, vec in zip(dataset.categories, def_units)
    )
    document_rows = (
        {"kind": "document", "id": doc.id, "label": doc.label, "vector": vec.tolist()}
        for doc, vec in zip(test_docs, test_units)
    )
    with open(written[-1], "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in chain(definition_rows, document_rows))
    print(f"report written: {', '.join(p.name for p in written)} in {reports}")
    return written


def cmd_validate_config(path: str | Path) -> RunConfig:
    """Check a config and its input files with `refine`'s own set-up, which
    embeds nothing and sends no request, and, given a strategy, its dataset
    with `refine`'s rules; a data error is a config error here."""
    cfg = RunConfig.from_file(path)
    try:
        with _set_up(cfg) as inputs:
            if cfg.strategy is not None:
                check_dataset(inputs.splits.dataset, cfg.strategy)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
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
