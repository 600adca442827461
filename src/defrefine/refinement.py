"""Iterative definition refinement.

The loop proposes revised category definitions through an LLM, scores each
proposal by train macro-F1 under the frozen embedding model, and either
accepts unconditionally (example-guided and confusion-aware strategies) or
applies an annealed Boltzmann acceptance rule against the best score so far
(history-aware strategy). Only accepted states enter the bounded history
window that the history-aware prompt exposes to the LLM.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import classifier
from .corpus import LONE_SURROGATE, Dataset, Document, sample_instance, split_view
from .embeddings import ROLE_DOCUMENT, EmbeddingGateway
from .errors import DataError, DefinitionParseError
from .evaluation import ConfusedPair, ConfusionMatrix, MetricsReport, confusion_matrix, macro_f1, top_k_confused_pairs
from .seeding import make_rng

log = logging.getLogger(__name__)

STRATEGIES = ("m1", "m2", "m3")
ACCEPT_ALWAYS = "always_accept"
ACCEPT_METROPOLIS = "metropolis"

MINIMAL_TEMPLATE = "A webpage about {category}."
DEFAULT_SAMPLE_CHAR_CAP = 2000
PARSE_RETRY_NOTICE = (
    "\n\nYour previous reply was not valid JSON. Respond with only the JSON object."
)

_FENCE_RE = re.compile(r"```(?:[a-zA-Z0-9_-]+)?\n(.*?)```", re.DOTALL)
_OBJECT_START_RE = re.compile(r"\{")
_DECODER = json.JSONDecoder()


@dataclass
class StrategyConfig:
    """Which refinement strategy runs, and its feedback window sizes.

    The `key` metadata names a field's key in a run config's strategy section.
    """

    strategy: str = field(default="m3", metadata={"key": "name"})
    k_confused: int = field(default=3, metadata={"key": "k"})
    m_history: int = field(default=3, metadata={"key": "m"})
    acceptance: str | None = None

    def __post_init__(self) -> None:
        self.strategy = self.strategy.lower()
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 1 <= self.k_confused <= 5:
            raise ValueError("k_confused must be in 1..5")
        if not 1 <= self.m_history <= 5:
            raise ValueError("m_history must be in 1..5")
        if self.acceptance is not None and self.acceptance not in (
            ACCEPT_ALWAYS,
            ACCEPT_METROPOLIS,
        ):
            raise ValueError(f"unknown acceptance mode {self.acceptance!r}")

    @property
    def resolved_acceptance(self) -> str:
        if self.acceptance is not None:
            return self.acceptance
        return ACCEPT_METROPOLIS if self.strategy == "m3" else ACCEPT_ALWAYS


@dataclass
class AnnealingSchedule:
    """Linear temperature decay from t0 down to t_min over the run's t_max iterations."""

    t0: float = 0.1
    t_min: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.t_min <= self.t0 < math.inf:
            raise ValueError("require 0 < t_min <= t0 < inf")


def check_f1(record, *names: str) -> None:
    """ValueError naming the first of the record's fields `names` that holds
    neither None nor a macro-F1 in [0, 1]; NaN and the infinities are none."""
    for name in names:
        value = getattr(record, name)
        if value is not None and not 0 <= value <= 1:
            raise ValueError(f"{name} must be a macro-F1 in [0, 1]")


@dataclass
class HistoryEntry:
    definitions: dict[str, str]
    score: float


@dataclass
class FeedbackBundle:
    """Strategy-specific evidence packed into the refinement prompt."""

    example: Document | None = None
    confused_pairs: list[ConfusedPair] = field(default_factory=list)
    confused_samples: list[Document] = field(default_factory=list)
    history: list[HistoryEntry] = field(default_factory=list)


@dataclass
class InitialRecord:
    """`initial.json`: the starting definitions and their scores."""

    iteration: int
    phi_train: float
    phi_dev: float
    definitions: dict[str, str]
    definitions_hash: str

    def __post_init__(self) -> None:
        check_f1(self, "phi_train", "phi_dev")


@dataclass
class TraceRecord:
    """One line of `trace.jsonl`. The `*_current` fields describe the
    definitions in effect after the acceptance step."""

    iteration: int
    strategy: str
    k: int
    m: int
    temperature: float
    phi_train_current: float
    phi_train_proposed: float | None
    delta_e: float | None
    accepted: bool
    phi_dev: float
    definitions_hash: str
    # Always 0.0: a wall-clock value would make two runs' traces differ. The
    # field stays because the benchmark's digests pin the trace's bytes; it
    # goes when they are next re-recorded (ROADMAP item 17).
    llm_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        check_f1(self, "phi_train_current", "phi_train_proposed", "phi_dev")


@dataclass
class RefinementResult:
    """What `refine` returns: the best definition set, scored on train and
    dev, the iteration-0 record and the trace. The best set is not scored on
    test here: `runner.cmd_refine` does that after the loop."""

    best: ScoredSet
    trace: list[TraceRecord]
    initial: InitialRecord


def validate_definitions(raw, categories: Sequence[str], error=ValueError, where="definitions") -> dict[str, str]:
    """The one rule for a definition set: `raw` gives each category a nonempty
    string that UTF-8 can encode (no lone surrogate). A new dict in category
    order without other keys; else `error`, naming `where` and the category."""
    if not isinstance(raw, Mapping):
        raise error(f"{where} is not a JSON object of definitions")
    definitions = {}
    for c in categories:
        value = raw.get(c)
        if not isinstance(value, str) or not value.strip():
            raise error(f"{where} has a missing or empty definition for category {c!r}")
        if not value.isascii() and LONE_SURROGATE.search(value):
            raise error(f"{where} has a definition for category {c!r} that is not valid Unicode")
        definitions[c] = value
    return definitions


def definitions_hash(definitions: Mapping[str, str]) -> str:
    canonical = json.dumps(dict(definitions), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def energy_drop(phi_best: float, phi_proposed: float) -> float:
    """How far the proposal falls short of the best score; negative on improvement."""
    return phi_best - phi_proposed


def temperature(t: int, sched: AnnealingSchedule, t_max: int) -> float:
    """Annealed temperature at iteration t of t_max >= 1, floored at t_min."""
    return max(sched.t_min, sched.t0 * (1 - t / t_max))


def accept(delta_e: float, temp: float, rng: random.Random) -> bool:
    """Boltzmann acceptance: improvements always pass without touching the rng."""
    if delta_e <= 0:
        return True
    if temp <= 0:
        raise ValueError("temperature must be positive")
    return rng.random() < math.exp(-delta_e / temp)


def _clip(text: str, cap: int) -> str:
    return text if len(text) <= cap else text[:cap]


def parse_definitions(llm_output: str, categories: Sequence[str]) -> dict[str, str]:
    """Extract a definition set from LLM output.

    The first JSON object found anywhere in the text is used; code fences and
    surrounding prose are tolerated. It must pass `validate_definitions`;
    extra keys are ignored with a warning.
    """
    sources = []
    fenced = _FENCE_RE.search(llm_output)
    if fenced:
        sources.append(fenced.group(1))
    sources.append(llm_output)
    obj = None
    for text in sources:
        for match in _OBJECT_START_RE.finditer(text):
            try:
                candidate, _ = _DECODER.raw_decode(text, match.start())
            except json.JSONDecodeError:
                continue
            if isinstance(candidate, dict):
                obj = candidate
                break
        if obj is not None:
            break
    if obj is None:
        raise DefinitionParseError("no JSON object found in LLM output")
    definitions = validate_definitions(obj, categories, DefinitionParseError, "LLM output")
    extra = [k for k in obj if k not in definitions]
    if extra:
        log.warning("ignoring unexpected keys in LLM output: %s", ", ".join(sorted(extra)))
    return definitions


_OUTPUT_INSTRUCTION = (
    "Respond with a single JSON object mapping every category name to its revised "
    "definition string. Include every category exactly once, keep every value a "
    "nonempty string, and add no other keys and no commentary."
)


def initial_definitions(
    categories: Sequence[str],
    mode: str = "minimal",
    llm=None,
    parse_retries: int = 3,
) -> tuple[dict[str, str], int]:
    """Starting definition set, a fixed template or an LLM-drafted one, and
    the LLM calls it took: the run's first calls."""
    if mode == "minimal":
        return {c: MINIMAL_TEMPLATE.format(category=c) for c in categories}, 0
    if mode != "llm_generated":
        raise ValueError(f"unknown initialization mode {mode!r}")
    if llm is None:
        raise ValueError("llm_generated initialization requires an llm gateway")
    lines = [
        "Provide a concise definition of each category below, for use in zero-shot",
        "classification of webpage text by embedding similarity.",
        "",
        "CATEGORIES:",
    ]
    lines += [f"- {c}" for c in categories]
    lines += ["", _OUTPUT_INSTRUCTION]
    prompt = "\n".join(lines)
    definitions, calls = _propose(llm, prompt, categories, parse_retries, 0)
    if definitions is None:
        raise DefinitionParseError("could not parse initial definitions after retries")
    return definitions, calls


def build_prompt(
    strategy: StrategyConfig,
    categories: Sequence[str],
    definitions: Mapping[str, str],
    phi_train: float,
    feedback: FeedbackBundle,
    sample_char_cap: int = DEFAULT_SAMPLE_CHAR_CAP,
) -> str:
    """Deterministic refinement prompt for the given strategy and evidence."""
    _check_feedback(strategy, feedback)
    lines = [
        "You maintain the category definitions of an embedding-based zero-shot text",
        "classifier. Each document is assigned the category whose definition embedding",
        "is most similar to the document embedding. Revise the definitions so that the",
        "categories separate better in embedding space.",
        "",
        "CURRENT DEFINITIONS:",
    ]
    lines += [f"- {c}: {definitions[c]}" for c in categories]
    lines += ["", f"CURRENT TRAIN MACRO-F1: {phi_train:.4f}"]

    if strategy.strategy == "m1":
        ex = feedback.example
        lines += ["", f"EXAMPLE (gold={ex.label}):", _clip(ex.text, sample_char_cap)]
    else:
        lines += ["", "CONFUSED PAIRS (most confused first):"]
        if feedback.confused_pairs:
            lines += [
                f"- {categories[p.class_a]} vs {categories[p.class_b]}: "
                f"{p.confusion_count} misclassified"
                for p in feedback.confused_pairs
            ]
        else:
            lines.append("- none")
        for doc in feedback.confused_samples:
            lines += ["", f"CONFUSED SAMPLE (gold={doc.label}):", _clip(doc.text, sample_char_cap)]
        if strategy.strategy == "m3":
            for entry in feedback.history:
                lines += ["", f"PREVIOUS DEFINITIONS (score={entry.score:.4f}):"]
                lines += [f"- {c}: {entry.definitions[c]}" for c in categories]

    lines += ["", _OUTPUT_INSTRUCTION]
    return "\n".join(lines)


def _check_feedback(strategy: StrategyConfig, feedback: FeedbackBundle) -> None:
    name = strategy.strategy
    if name == "m1":
        if feedback.example is None:
            raise ValueError("m1 feedback requires one labeled example")
        if feedback.confused_pairs or feedback.confused_samples or feedback.history:
            raise ValueError("m1 feedback must not carry confusion or history evidence")
    else:
        if feedback.example is not None:
            raise ValueError(f"{name} feedback must not carry a free example")
        if name == "m2" and feedback.history:
            raise ValueError("m2 feedback must not carry history entries")


def _assemble_feedback(
    strategy: StrategyConfig,
    dataset: Dataset,
    cm: ConfusionMatrix,
    history: Sequence[HistoryEntry],
    rng: random.Random,
) -> FeedbackBundle:
    if strategy.strategy == "m1":
        return FeedbackBundle(example=sample_instance(dataset, "train", rng=rng))
    pairs = top_k_confused_pairs(cm, strategy.k_confused)
    class_order: list[int] = []
    for pair in pairs:
        for idx in (pair.class_a, pair.class_b):
            if idx not in class_order:
                class_order.append(idx)
    samples = [
        sample_instance(dataset, "train", category=dataset.categories[i], rng=rng)
        for i in class_order
    ]
    hist = list(history) if strategy.strategy == "m3" else []
    return FeedbackBundle(confused_pairs=pairs, confused_samples=samples, history=hist)


def _propose(llm, prompt: str, categories: Sequence[str], parse_retries: int, first_call: int):
    """Call the LLM, from the run's call number first_call on, until its reply
    parses, re-prompting on bad JSON.

    Returns (definitions or None, llm calls made).
    """
    calls = 0
    current_prompt = prompt
    for _ in range(parse_retries + 1):
        reply = llm.complete(current_prompt, first_call + calls)
        calls += 1
        try:
            return parse_definitions(reply, categories), calls
        except DefinitionParseError as exc:
            log.warning("proposal rejected: %s", exc)
            current_prompt = prompt + PARSE_RETRY_NOTICE
    return None, calls


@dataclass(frozen=True)
class ScoredSet:
    """A definition set as `refine` scores it: its unit rows, its train
    macro-F1 and confusion matrix, and its dev metrics once they are
    computed (`None` until then)."""

    definitions: dict[str, str]
    units: np.ndarray
    phi_train: float
    train_confusion: ConfusionMatrix
    dev: MetricsReport | None = None


class Splits:
    """A dataset's splits as unit rows on one gateway, each embedded once,
    and the last start definition set scored on them.

    `embedded(split)` embeds a split's documents as unit rows the first time
    it is asked for them (the gateway divides each block by the norms it
    checked it with), and keeps them only if that succeeded, so a provider
    error leaves the split to be fetched again. The rows keep the gateway's
    column-major layout. `scored(definitions)` embeds a definition set and
    scores it on train. `scored_start` keeps the start set of a `refine`,
    scored on dev too, so sweep cells that start from one set score it once.
    Every caller shares the same arrays, confusion matrices and reports, and
    only reads them. Nothing here is locked: callers take turns.
    """

    def __init__(self, dataset: Dataset, gateway: EmbeddingGateway):
        self.dataset = dataset
        self.gateway = gateway
        self._embedded: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._start: ScoredSet | None = None

    def drop(self, *names: str) -> None:
        """Forget the named splits' rows, so they are freed once no caller
        holds them; `embedded` embeds a dropped split again."""
        for name in names:
            self._embedded.pop(name, None)

    def embedded(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        """The split's documents as unit rows, and their gold category indices."""
        found = self._embedded.get(split)
        if found is None:
            docs = split_view(self.dataset, split)
            units = self.gateway.embed_texts([d.text for d in docs], ROLE_DOCUMENT, unit=True)
            index = self.dataset.category_index
            found = units, np.array([index[d.label] for d in docs])
            self._embedded[split] = found
        return found

    def score(self, def_units: np.ndarray, split: str) -> tuple[MetricsReport, ConfusionMatrix]:
        """The metrics and confusion matrix of a definition set on a split.

        `def_units` is the set's (k, d) matrix of unit rows, one per category
        in dataset order, from `EmbeddingGateway.embed_definitions`.
        Predictions are the argmax of the exact float64 product of the split's
        rows as `embedded` keeps them (column-major makes it cheapest), ties
        to the lowest index: `classifier.classify` takes them from the cheaper
        (k, n) product when every document's best score leads by more than
        the rounding bound `classifier._tie_margin(d)`, (14 d + 16) 2**-53,
        and otherwise from `classifier.cosine_scores` for the whole split.
        """
        docs, gold = self.embedded(split)
        cm = confusion_matrix(gold, classifier.classify(docs, def_units), self.dataset.categories)
        return macro_f1(cm), cm

    def scored(self, definitions: Mapping[str, str]) -> ScoredSet:
        """A definition set embedded and scored on train; its dev metrics are
        left to `with_dev`."""
        units = self.gateway.embed_definitions(definitions, self.dataset.categories)
        train, cm = self.score(units, "train")
        return ScoredSet(dict(definitions), units, train.macro_f1, cm)

    def with_dev(self, scored: ScoredSet) -> ScoredSet:
        """`scored` with its dev metrics."""
        return dataclasses.replace(scored, dev=self.score(scored.units, "dev")[0])

    def scored_start(self, definitions: dict[str, str]) -> ScoredSet:
        """A start set scored on train and dev: the last start, if it held the
        same definitions, else computed and kept (only if that succeeded)."""
        start = self._start
        if start is None or start.definitions != definitions:
            start = self._start = self.with_dev(self.scored(definitions))
        return start


def check_dataset(dataset: Dataset, strategy: StrategyConfig) -> None:
    """The dataset rules of a refinement, checked before anything is written
    or asked of the LLM: at least 2 categories, nonempty train and dev
    splits, and for m2 and m3, whose feedback samples a train document of
    each category in the confused pairs, a train document in every category."""
    if len(dataset.categories) < 2:
        raise DataError("refinement requires at least 2 categories")
    if ("train", None) not in dataset.strata or ("dev", None) not in dataset.strata:
        raise DataError("refinement requires nonempty train and dev splits")
    if strategy.strategy != "m1":
        missing = [c for c in dataset.categories if ("train", c) not in dataset.strata]
        if missing:
            raise DataError(
                f"strategy {strategy.strategy} needs a train document in every category; none in: {', '.join(missing)}"
            )


def refine(
    splits: Splits,
    strategy: StrategyConfig,
    schedule: AnnealingSchedule,
    llm,
    seed: int,
    t_max: int,
    init_mode: str = "minimal",
    initial: Mapping[str, str] | None = None,
    parse_retries: int = 3,
    sample_char_cap: int = DEFAULT_SAMPLE_CHAR_CAP,
    on_iteration: Callable[[InitialRecord | TraceRecord, ScoredSet, int], None] | None = None,
) -> RefinementResult:
    """Run the refinement loop for up to t_max iterations.

    Per iteration: assemble strategy feedback from the train confusion matrix
    of the current definitions, ask the LLM for a revised definition set,
    score it, apply the acceptance rule, update the best-so-far, append
    accepted states to the bounded history, and record dev macro-F1 for
    tracking. A proposal whose replies never parse is treated as rejected
    with no state change. Each definition set is embedded once and scored
    once per split: the current and the best set are kept as `ScoredSet`s,
    and dev is scored only for accepted sets. Test is left to the caller:
    the loop never reads it. The documents, their dataset and the gateway
    come from `splits`; a split it already holds is not embedded again, and
    a start set equal to the last one it scored is not scored again.

    `on_iteration(record, current, llm_calls)` receives first the
    iteration-0 record (`RefinementResult.initial`), then each iteration's
    trace record, with the current `ScoredSet` after the acceptance step and
    the LLM calls taken so far. The loop never changes a record or a scored
    set it has made, so a caller may keep either as it is.

    `llm.complete`'s call number counts from 0 across the run, the start's
    draft first. The loop always starts at iteration 0: a run is resumed by
    replaying it with an `llm` that answers the calls it has already taken
    (`runner.RunDirectory.complete`).
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if llm is None:
        raise ValueError("refine requires an llm gateway")
    dataset = splits.dataset
    categories = list(dataset.categories)
    check_dataset(dataset, strategy)
    # The splits before the first definition set: embedding a set first
    # raised the refine-20k benchmark's peak RSS from 104.3 to 109.1 MB.
    splits.embedded("train")
    splits.embedded("dev")

    llm_calls = 0
    if initial is not None:
        start = validate_definitions(initial, categories, where="initial definitions")
    else:
        start, llm_calls = initial_definitions(categories, init_mode, llm, parse_retries)
    cur = best = splits.scored_start(start)

    history = [HistoryEntry(dict(start), cur.phi_train)]
    sample_rng, accept_rng = make_rng(seed, "sampling"), make_rng(seed, "acceptance")
    initial_info = InitialRecord(0, cur.phi_train, cur.dev.macro_f1, dict(start), definitions_hash(start))
    if on_iteration is not None:
        on_iteration(initial_info, cur, llm_calls)

    metropolis = strategy.resolved_acceptance == ACCEPT_METROPOLIS
    trace: list[TraceRecord] = []

    for t in range(1, t_max + 1):
        feedback = _assemble_feedback(strategy, dataset, cur.train_confusion, history, sample_rng)
        prompt = build_prompt(strategy, categories, cur.definitions, cur.phi_train, feedback, sample_char_cap)
        proposal, calls = _propose(llm, prompt, categories, parse_retries, llm_calls)
        llm_calls += calls
        temp = temperature(t, schedule, t_max)

        prop: ScoredSet | None = None
        delta_e: float | None = None
        accepted = False
        if proposal is not None:
            prop = splits.scored(proposal)
            delta_e = energy_drop(best.phi_train, prop.phi_train)
            accepted = accept(delta_e, temp, accept_rng) if metropolis else True
        if accepted:
            cur = splits.with_dev(prop)
            # cur's score <= best's holds between iterations, so only an
            # accepted proposal can raise the best.
            if cur.phi_train > best.phi_train:
                best = cur
            history.append(HistoryEntry(dict(cur.definitions), cur.phi_train))
            del history[: max(0, len(history) - strategy.m_history)]

        record = TraceRecord(
            iteration=t,
            strategy=strategy.strategy,
            k=strategy.k_confused,
            m=strategy.m_history,
            temperature=temp,
            phi_train_current=cur.phi_train,
            phi_train_proposed=prop.phi_train if prop is not None else None,
            delta_e=delta_e,
            accepted=accepted,
            phi_dev=cur.dev.macro_f1,
            definitions_hash=definitions_hash(cur.definitions),
        )
        trace.append(record)
        if on_iteration is not None:
            on_iteration(record, cur, llm_calls)

    return RefinementResult(best, trace, initial_info)

