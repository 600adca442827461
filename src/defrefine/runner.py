"""Command-line entry point: baseline evaluation, refinement runs, grid sweeps, reports, replays."""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import hashlib
import io
import json
import logging
import os
import shutil
import sys
import tempfile
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing, contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from itertools import chain, product, zip_longest
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
from .errors import ConfigError, DataError, DefinitionParseError, DefRefineError, ProviderError, read_input
from .evaluation import ConfusionMatrix, MetricsReport, confusion_to_csv, metrics_to_dict
from .llm import HttpLlm, LlmConfig, ScriptedLlm
from .records import RawText, from_json, to_json
from .refinement import (
    AnnealingSchedule,
    InitialRecord,
    RefinementResult,
    ScoredSet,
    Splits,
    StrategyConfig,
    TraceRecord,
    check_dataset,
    check_f1,
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
    raw = read_input(path, what, error)
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


@contextmanager
def _disk_errors(where: Path) -> Iterator[None]:
    """An OSError in the block (a full disk, say) is a ConfigError naming its
    file (a rename's target), else `where`."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{exc.filename2 or exc.filename or where}: {exc.strerror or exc}") from None


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

    def __post_init__(self) -> None:
        check_f1(self, "score")


@dataclass
class ReplyRecord:
    """One line of `llm_replies.jsonl`: the text that answered an LLM call,
    and the sha256 of the prompt it answered."""

    call: int
    prompt_sha256: str
    text: RawText


@dataclass
class InputsRecord:
    """`inputs.json`: what a run's input files held when it began, as sha256
    hex digests: of the dataset file, the categories file and the initial
    definitions file (None where the config names none)."""

    dataset: str
    categories_file: str | None
    definitions_file: str | None


@dataclass
class ResultRecord:
    """`result.json`: the best definition set and its evaluation."""

    phi_best_train: float
    best_definitions: dict[str, str]
    dev: dict
    test: dict | None

    def __post_init__(self) -> None:
        check_f1(self, "phi_best_train")


def _read_record(cls, path: Path, what: str):
    """The `cls` record in a run file; DataError naming the file if it holds none."""
    return from_json(cls, _read_json(path, what, DataError), f"{what} {path}", DataError)


def _jsonl(path: Path, cls) -> Iterator[tuple[bytes, object]]:
    """Each newline-terminated line of a JSONL file with its `cls` record, or
    with the DataError naming the file and line if it holds none; a trailing
    partial write is dropped. A missing file has no lines."""
    lines = read_input(path, "run file", DataError, missing_ok=True).split(b"\n")[:-1]
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


def _resumable(path: Path, cls) -> list[tuple[bytes, object]]:
    """The lines of a JSONL file that a resume keeps, with their `cls`
    records. Only the lines after the last record may hold none (a write a
    kill cut short), and they are dropped; DataError naming the file and
    line of one that a record follows."""
    lines = list(_jsonl(path, cls))
    last = max((i for i, (_, r) in enumerate(lines) if isinstance(r, cls)), default=-1)
    for _, record in lines[:last]:
        if isinstance(record, DataError):
            raise DataError(f"unresumable corruption: {record}, and a record follows it")
    return lines[: last + 1]


def _rewrite_jsonl(path: Path, kept: list[tuple[bytes, object]]) -> None:
    """Replace a JSONL file with the lines `_resumable` kept."""
    tmp = path.with_suffix(path.suffix + ".tmp")  # replaced whole, as a kill may stop the write
    tmp.write_bytes(b"".join(line + b"\n" for line, _ in kept))
    os.replace(tmp, path)


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

    A run directory holds a config snapshot, a journal of LLM replies, which
    `complete` answers from, an iteration trace (one JSON record per line,
    flushed and fsynced per record), a log of accepted definition sets, and
    a progress record (`state.json`: the iteration and the LLM call count)
    that is rewritten atomically after every iteration. One writer thread
    writes each iteration's records, from values the loop never changes, in
    iteration order, at most one iteration behind the loop, so the disk work
    overlaps the next LLM call; the progress record is written after the
    journal and the trace record it covers are fsynced; a write error still
    stops the run. --resume replays the run from iteration 0, its LLM calls
    answered from the journal, and writes every run file but the config
    snapshot and the journal again, so it reproduces the uninterrupted files
    byte for byte when the embedder is deterministic or the store holds
    every vector the run embedded.
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
        self._best = path / "best_definitions.json"
        self._confusion = path / "confusion_test.csv"
        self._journal = path / "llm_replies.jsonl"
        self._pending: Future | None = None

    def config(self) -> RunConfig:
        """The run's config snapshot; ConfigError if it is missing or not a config."""
        return RunConfig.from_file(self._config)

    def refuse_checkpointed(self) -> None:
        """A fresh run may not replace one that has checkpointed (written `state.json`)."""
        if self._state.exists():
            raise ConfigError(f"run directory already exists: {self.path} (pass --resume or change --out)")

    def _began_with(self) -> InputsRecord | None:
        """The run's `inputs.json`; None, with a warning, in a directory from
        before it, whose input files cannot be checked. The script digests of
        a record from before the reply journal are not read."""
        if not self._inputs.exists():
            log.warning("%s has no inputs.json: its input files cannot be checked", self.path)
            return None
        raw = _read_json(self._inputs, "inputs record", DataError)
        if isinstance(raw, dict):
            raw.pop("llm_replies", None)
        return from_json(InputsRecord, raw, f"inputs record {self._inputs}", DataError)

    def _check_inputs(self, cfg: RunConfig, now: dict[str, str | None]) -> None:
        """ConfigError naming the first input file whose digest in `now`, by
        its `inputs.json` key, differs from the one the run began with."""
        if (then := self._began_with()) is None:
            return
        files = {
            "dataset": ("dataset file", cfg.dataset.path),
            "categories_file": ("categories file", cfg.dataset.categories_file),
            "definitions_file": ("initial definitions file", cfg.init.definitions_file),
        }
        for key, digest in now.items():
            if getattr(then, key) != digest:
                what, path = files[key]
                raise ConfigError(
                    f"{what} {path} has changed since the run in {self.path} began; "
                    "restore it, or start a new run in another directory"
                )

    @contextmanager
    def open(self, cfg: RunConfig, resume: bool, inputs: RunInputs) -> Iterator[None]:
        """Make, lock and open the directory of cfg's run until the block ends,
        for a run from iteration 0: the trace and the definitions log start
        empty, and the files `finish` writes are removed with them, so no
        result stands beside a trace that a failed replay cut. ConfigError
        at once if a regular file blocks the directory's path or another
        process holds `run.lock`. A fresh run empties the
        journal; a resume keeps it, and its replies answer the calls they
        hold. Before a resume changes any file: ConfigError if the run has
        checkpointed and an input file it reads again has changed (the
        dataset, its categories file or the initial definitions file), and
        DataError if a journal line fails `_resumable`. The run's input files
        go to `inputs.json` with the iteration-0 records.
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
            kept = []
            if resume:
                if self._state.exists():  # else nothing was checkpointed: verify's copy, or a kill before it
                    self._check_inputs(cfg, to_json(inputs.files))
                    if not self._journal.exists():
                        log.warning("%s has no llm_replies.jsonl: its LLM calls will be asked again", self.path)
                kept = _resumable(self._journal, ReplyRecord)
                _rewrite_jsonl(self._journal, kept)  # a torn last line goes before the journal is appended to
            self._replies = {r.call: r for _, r in kept}
            self._llm = inputs.llm
            self._inputs_json = to_json(inputs.files)
            for path in (self._result, self._best, self._confusion):
                path.unlink(missing_ok=True)
            with (
                open(self._trace, "w", encoding="utf-8") as self._trace_out,
                open(self._defs_log, "w", encoding="utf-8") as self._defs_out,
                open(self._journal, "a" if resume else "w", encoding="utf-8") as self._journal_out,
                ThreadPoolExecutor(max_workers=1, thread_name_prefix="run-writer") as self._writer,
            ):
                try:
                    yield
                finally:
                    self._wait()

    def complete(self, prompt: str, call: int) -> str:
        """The text that answers the run's LLM call: the journal's, once the
        prompt's sha256 matches the one it answered, else the client's,
        journaled and flushed before it returns. DataError naming the journal
        and the call if the prompts differ."""
        digest = hashlib.sha256(prompt.encode("utf-8", "surrogatepass")).hexdigest()
        held = self._replies.get(call)
        if held is not None:
            if held.prompt_sha256 != digest:
                raise DataError(f"{self._journal} holds call {call} for another prompt; start a new run elsewhere")
            return held.text
        text = self._llm.complete(prompt, call)
        self._journal_out.write(json.dumps(to_json(ReplyRecord(call, digest, text))) + "\n")
        self._journal_out.flush()
        return text

    def _persist(self, record: InitialRecord | TraceRecord, entry: LogEntry | None, llm_calls: int) -> None:
        """One iteration's records, in order: the fsynced journal, once the
        run has taken a reply, then inputs.json and initial.json (the
        record), or the fsynced trace line, the accepted set, then
        state.json, which counts no reply the journal could lose."""
        if llm_calls:
            os.fsync(self._journal_out.fileno())
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
        _atomic_write_json(self._state, {"iteration": record.iteration, "llm_calls": llm_calls})

    def _wait(self) -> None:
        """Wait for the pending iteration's records; re-raise its write error."""
        job, self._pending = self._pending, None
        if job is not None:
            job.result()

    def on_iteration(self, record: InitialRecord | TraceRecord, current: ScoredSet, llm_calls: int) -> None:
        """Hand one iteration's records to the writer once the previous
        iteration's are written; the writer serialises them, as `refine`
        never changes a record or a scored set it has made."""
        t = record.iteration
        entry = LogEntry(t, current.phi_train, current.definitions) if t == 0 or record.accepted else None
        self._wait()
        self._pending = self._writer.submit(self._persist, record, entry, llm_calls)

    def finish(
        self, best: ScoredSet, test: tuple[MetricsReport, ConfusionMatrix] | None, categories: Sequence[str]
    ) -> None:
        """Write the evaluation of the best definitions, on dev and on test
        (`test` is None without a test split), after every iteration's records."""
        self._wait()
        _write_json(self._best, best.definitions)
        summary = ResultRecord(
            best.phi_train,
            best.definitions,
            metrics_to_dict(best.dev, categories),
            metrics_to_dict(test[0], categories) if test else None,
        )
        _write_json(self._result, to_json(summary))
        if test is not None:
            confusion_to_csv(test[1], self._confusion)

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
        self._check_inputs(cfg, {"dataset": dataset.sha256, "categories_file": dataset.categories_sha256})
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
def _open_splits(cfg: RunConfig, dataset: Dataset, offline: _Offline | None = None) -> Iterator[Splits]:
    """The dataset's splits on cfg's embedder, with its store open until the
    block ends; with `offline` as the provider, if given, so none is built."""
    if offline is None:
        gateway = build_gateway(cfg)
    else:
        gateway = EmbeddingGateway(cfg.embedder, EmbeddingCache(cfg.store_path), offline)
    with closing(gateway.cache):
        yield Splits(dataset, gateway)


@dataclass
class RunInputs:
    """What a refinement builds from its config before it makes its run
    directory. Sweep cells share one: they differ only in strategy and seed,
    which none of this reads, and neither LLM client keeps state between calls."""

    splits: Splits
    llm: ScriptedLlm | HttpLlm | _Offline | None
    initial: dict[str, str] | None
    files: InputsRecord


@contextmanager
def _set_up(cfg: RunConfig, offline: _Offline | None = None) -> Iterator[RunInputs]:
    """The run inputs of cfg, with the embedding store open until the block
    ends. Each input file is hashed as it is read, for `inputs.json`, and
    an output directory that a regular file blocks is refused first. Given
    `offline`, it is both the LLM client and the embedding provider, and
    neither is built from cfg."""
    _check_out_dir(cfg.out_dir)
    dataset = _load_dataset(cfg)
    with _open_splits(cfg, dataset, offline) as splits:
        llm = build_llm(cfg) if offline is None else offline
        initial, definitions_sha256 = _initial_defs(cfg, dataset)
        files = InputsRecord(dataset.sha256, dataset.categories_sha256, definitions_sha256)
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
    with _disk_errors(run_dir):
        _make_dir(run_dir)
        _write_json(run_dir / "config.json", cfg.to_snapshot())
        _write_json(run_dir / "definitions.json", definitions)
        _write_json(run_dir / "metrics_test.json", metrics_to_dict(report, dataset.categories))
        confusion_to_csv(cm, run_dir / "confusion_test.csv")
    print(f"baseline test macro-F1: {report.macro_f1:.4f} ({run_dir})")
    return report


def cmd_refine(cfg: RunConfig, resume: bool = False, inputs: RunInputs | None = None) -> RefinementResult:
    """Run (or continue) one refinement loop with crash-safe persistence,
    then score its best definitions on the test split.

    A run may be given `inputs` set up from cfg (a sweep's cells share them,
    and `verify` sets up offline ones); otherwise it sets up its own, frees
    its train and dev rows before it embeds the test split, and closes the
    store it opened."""
    if cfg.strategy is None:
        raise ConfigError("refine requires a strategy config")
    if cfg.llm is None:
        raise ConfigError("refine requires an llm config")
    run = RunDirectory(run_dir_for(cfg, "refine"))
    if resume:
        cfg = run.config()
    else:
        run.refuse_checkpointed()

    own = inputs is None
    # Everything that can reject the config runs before the run directory exists.
    with _set_up(cfg) if own else nullcontext(inputs) as inputs:
        splits = inputs.splits
        check_dataset(splits.dataset, cfg.strategy)
        with _disk_errors(run.path), run.open(cfg, resume, inputs):
            result = refine(
                splits,
                cfg.strategy,
                cfg.schedule,
                run,
                seed=cfg.seed,
                t_max=cfg.t_max,
                init_mode=cfg.init.mode,
                initial=inputs.initial,
                parse_retries=cfg.parse_retries,
                sample_char_cap=cfg.sample_char_cap,
                on_iteration=run.on_iteration,
            )
            if own:  # no other run reads these rows
                splits.drop("train", "dev")
            test = splits.score(result.best.units, "test") if split_view(splits.dataset, "test") else None
            run.finish(result.best, test, splits.dataset.categories)
    test_phi = test[0].macro_f1 if test else float("nan")
    print(
        f"refine done: best train macro-F1 {result.best.phi_train:.4f}, "
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
                cell["phi_best_train"] = result.best.phi_train
                cell["run_dir"] = run_dir_for(cell_cfg, "refine").name
            except (ProviderError, DefinitionParseError, DataError) as exc:
                log.error("sweep cell k=%d m=%d failed: %s", cell["k"], cell["m"], exc)
                cell["error"] = str(exc)
            cells.append(cell)
    scored = [c for c in cells if "phi_best_train" in c]
    best = max(scored, key=lambda c: c["phi_best_train"]) if scored else None
    summary = {"k_values": list(k_values), "m_values": list(m_values), "cells": cells, "best": best}
    with _disk_errors(cfg.out_dir):
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
    with _disk_errors(reports):
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


class _Offline:
    """`verify`'s LLM client and embedding provider. A replay answers every
    LLM call from the run's journal and every vector from its store, so any
    call that reaches this is a DataError naming the file that lacks it."""

    def __init__(self, journal: Path, store: Path):
        self._journal, self._store = journal, store

    def complete(self, prompt: str, call: int) -> str:
        raise DataError(f"{self._journal} lacks call {call}, which the replay asks")

    def embed_batch(self, texts: Sequence[str]):
        raise DataError(f"embedding store {self._store} lacks {len(texts)} vectors that the replay embeds")


# The run files that `verify` checks byte for byte.
VERIFIED_FILES = ("trace.jsonl", "definitions_log.jsonl", "result.json")


def cmd_verify(run_dir: str | Path) -> None:
    """Check that a finished run's VERIFIED_FILES follow, byte for byte, from
    its config, input files, reply journal and embedding store: `refine
    --resume` replays it in a temporary directory from copies of its config
    and journal, on its own store, with `_Offline` for both clients.
    DataError naming the first file and line that differ, a call the journal
    lacks or a store miss; `--resume`'s ConfigError for a changed input file.
    Nothing is written into the run directory or the store."""
    run = RunDirectory(Path(run_dir))
    cfg = run.config()
    for path in (run._result, run._journal):
        if not path.exists():
            raise DataError(f"{path} not found: verify replays a finished run from its reply journal")
    with _set_up(cfg, _Offline(run._journal, cfg.store_path)) as inputs:
        run._check_inputs(cfg, to_json(inputs.files))
        with tempfile.TemporaryDirectory(prefix="defrefine-verify-") as tmp:
            replay_cfg = dataclasses.replace(cfg, out_dir=Path(tmp))
            replay = run_dir_for(replay_cfg, "refine")
            replay.mkdir()
            for path in (run._config, run._journal):
                shutil.copyfile(path, replay / path.name)
            try:
                with redirect_stdout(io.StringIO()):  # its summary names the replay's directory
                    cmd_refine(replay_cfg, resume=True, inputs=inputs)
            except DefRefineError as exc:  # named as the run's files, not the copies
                raise type(exc)(str(exc).replace(str(replay), str(run.path))) from None
            for name in VERIFIED_FILES:
                ours = read_input(run.path / name, "run file", DataError).split(b"\n")
                replayed = (replay / name).read_bytes().split(b"\n")
                for number, (line, again) in enumerate(zip_longest(ours, replayed), 1):
                    if line != again:
                        raise DataError(
                            f"{run.path / name} line {number} differs from the replay of the run's journal and store"
                        )
    print(f"verified: {', '.join(VERIFIED_FILES)} follow from the journal and store ({run.path})")


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
            node = raw.get(section)
            if node is None:  # an absent or null section; from_dict reports any other non-object
                node = raw[section] = {}
        if isinstance(node, dict):
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
    p_verify = sub.add_parser("verify", help="replay a finished run offline and check its files")
    p_verify.add_argument("run_dir", help="run directory to verify")
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
        elif args.command == "verify":
            cmd_verify(args.run_dir)
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
