"""Iterative definition refinement.

The loop proposes revised category definitions through an LLM, scores each
proposal by train macro-F1 under the frozen embedding model, and either
accepts unconditionally (example-guided and confusion-aware strategies) or
applies an annealed Boltzmann acceptance rule against the best score so far
(history-aware strategy). Only accepted states enter the bounded history
window that the history-aware prompt exposes to the LLM.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
import re
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .classifier import unit_rows
from .corpus import Dataset, Document, sample_instance, split_view
from .embeddings import ROLE_DOCUMENT, EmbeddingGateway
from .errors import DataError, DefinitionParseError
from .evaluation import ConfusedPair, ConfusionMatrix, MetricsReport, score, top_k_confused_pairs
from .seeding import make_rng, rng_state_from_json, rng_state_to_json

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
    """Linear temperature decay from t0 down to t_min over the iteration budget."""

    t0: float = 0.1
    t_min: float = 0.01
    t_max_iterations: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.t_min <= self.t0:
            raise ValueError("require 0 < t_min <= t0")
        if self.t_max_iterations < 1:
            raise ValueError("t_max_iterations must be >= 1")


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
class LoopState:
    """Everything that determines the rest of the loop after `iteration`.

    `refine` updates it in place. `to_dict` is `state.json`: the fields in
    order, each `*_rng` stream as its state under `*_rng_state`.
    """

    iteration: int
    current: dict[str, str]
    phi_cur: float
    best: dict[str, str]
    phi_best: float
    history: list[HistoryEntry]
    sample_rng: random.Random
    accept_rng: random.Random
    llm_calls: int

    def to_dict(self) -> dict:
        # Not dataclasses.asdict(self): its deep copy costs most of a
        # millisecond per checkpoint on the rng states.
        payload = dict(vars(self), history=[vars(h) for h in self.history])
        return {_json_key(k): rng_state_to_json(v) if k.endswith("_rng") else v for k, v in payload.items()}

    @classmethod
    def from_dict(cls, payload) -> "LoopState":
        """The inverse of to_dict; ValueError, TypeError or OverflowError if
        `payload` is not one."""
        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
        by_key = {_json_key(f.name): f for f in fields(cls)}
        if payload.keys() != by_key.keys():
            missing, unknown = sorted(by_key.keys() - payload), sorted(payload.keys() - by_key)
            raise ValueError(f"missing keys {missing}, unknown keys {unknown}")
        hints = get_type_hints(cls)
        values = {}
        for key, f in by_key.items():
            value = payload[key]
            if f.name.endswith("_rng"):
                value = rng_state_from_json(value)
            elif not _json_fits(value, hints[f.name]):
                raise ValueError(f"{key} is not a valid {f.type}: {value!r:.60}")
            values[f.name] = value
        values["history"] = [HistoryEntry(**h) for h in values["history"]]
        return cls(**values)


def _json_fits(value, hint) -> bool:
    """Whether a JSON value has the state field type `hint`. The state's
    integers are counts, so a negative one does not fit; neither does a bool."""
    if hint in (int, float, str):
        return type(value) is hint and (hint is not int or value >= 0)
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        return (
            isinstance(value, dict)
            and value.keys() == hints.keys()
            and all(_json_fits(value[name], h) for name, h in hints.items())
        )
    origin, args = get_origin(hint), get_args(hint)
    if origin is dict:
        return isinstance(value, dict) and all(
            _json_fits(k, args[0]) and _json_fits(v, args[1]) for k, v in value.items()
        )
    return origin is list and isinstance(value, list) and all(_json_fits(v, args[0]) for v in value)


def _json_key(name: str) -> str:
    """A state field's key in state.json: an rng stream is stored as its state."""
    return f"{name}_state" if name.endswith("_rng") else name


@dataclass
class RefinementResult:
    best_definitions: dict[str, str]
    phi_best_train: float
    trace: list[dict]
    initial: dict | None
    dev_metrics: MetricsReport
    test_metrics: MetricsReport | None
    test_confusion: ConfusionMatrix | None


def validate_definitions(definitions: Mapping[str, str], categories: Sequence[str]) -> None:
    """Require exactly one nonempty definition per category."""
    for c in categories:
        value = definitions.get(c)
        if not isinstance(value, str) or not value.strip():
            raise ValueError(f"missing or empty definition for category {c!r}")


def definitions_hash(definitions: Mapping[str, str]) -> str:
    canonical = json.dumps(dict(definitions), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def energy_drop(phi_best: float, phi_proposed: float) -> float:
    """How far the proposal falls short of the best score; negative on improvement."""
    return phi_best - phi_proposed


def temperature(t: int, sched: AnnealingSchedule) -> float:
    """Annealed temperature at iteration t, floored at t_min."""
    return max(sched.t_min, sched.t0 * (1 - t / sched.t_max_iterations))


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
    surrounding prose are tolerated. Every category must be present with a
    nonempty string; extra keys are ignored with a warning.
    """
    sources = []
    fenced = _FENCE_RE.search(llm_output)
    if fenced:
        sources.append(fenced.group(1))
    sources.append(llm_output)
    decoder = json.JSONDecoder()
    obj = None
    for text in sources:
        for match in re.finditer(r"\{", text):
            try:
                candidate, _ = decoder.raw_decode(text, match.start())
            except json.JSONDecodeError:
                continue
            if isinstance(candidate, dict):
                obj = candidate
                break
        if obj is not None:
            break
    if obj is None:
        raise DefinitionParseError("no JSON object found in LLM output")
    for c in categories:
        if c not in obj:
            raise DefinitionParseError(f"missing category: {c}")
        value = obj[c]
        if not isinstance(value, str) or not value.strip():
            raise DefinitionParseError(f"empty definition for category: {c}")
    extra = [k for k in obj if k not in set(categories)]
    if extra:
        log.warning("ignoring unexpected keys in LLM output: %s", ", ".join(sorted(extra)))
    return {c: obj[c] for c in categories}


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
) -> dict[str, str]:
    """Starting definition set: a fixed template or an LLM-drafted one."""
    if mode == "minimal":
        return {c: MINIMAL_TEMPLATE.format(category=c) for c in categories}
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
    definitions, _, _ = _propose(llm, prompt, categories, parse_retries)
    if definitions is None:
        raise DefinitionParseError("could not parse initial definitions after retries")
    return definitions


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


def _propose(llm, prompt: str, categories: Sequence[str], parse_retries: int):
    """Call the LLM until its reply parses, re-prompting on bad JSON.

    Returns (definitions or None, llm calls made, total latency ms).
    """
    calls = 0
    latency_ms = 0.0
    current_prompt = prompt
    for _ in range(parse_retries + 1):
        text = llm.complete(current_prompt)
        calls += 1
        latency_ms += getattr(llm, "last_latency_ms", 0.0)
        try:
            return parse_definitions(text, categories), calls, latency_ms
        except DefinitionParseError as exc:
            log.warning("proposal rejected: %s", exc)
            current_prompt = prompt + PARSE_RETRY_NOTICE
    return None, calls, latency_ms


def refine(
    dataset: Dataset,
    strategy: StrategyConfig,
    schedule: AnnealingSchedule,
    gateway: EmbeddingGateway,
    llm,
    seed: int,
    t_max: int,
    init_mode: str = "minimal",
    initial: Mapping[str, str] | None = None,
    parse_retries: int = 3,
    sample_char_cap: int = DEFAULT_SAMPLE_CHAR_CAP,
    on_iteration: Callable[[dict, LoopState], None] | None = None,
    resume: LoopState | None = None,
) -> RefinementResult:
    """Run the refinement loop for up to t_max iterations.

    Per iteration: assemble strategy feedback from the train confusion matrix
    of the current definitions, ask the LLM for a revised definition set,
    score it, apply the acceptance rule, update the best-so-far, append
    accepted states to the bounded history, and record dev macro-F1 for
    tracking. A proposal whose replies never parse is treated as rejected
    with no state change. Each definition set is scored once per split: the
    current set's train confusion matrix and dev metrics are kept until a
    proposal replaces it.

    The loop state is `resume`, or a new one at iteration 0. `on_iteration`
    receives a record and the state, which fully determines the rest of the
    run, so callers can persist crash-safe state: first the iteration-0
    record (`RefinementResult.initial`) of a new state, then each iteration's
    trace record. The state changes in place after each callback returns, so
    a caller that keeps it must copy it: `LoopState.from_dict(state.to_dict())`.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if llm is None:
        raise ValueError("refine requires an llm gateway")
    categories = list(dataset.categories)
    if len(categories) < 2:
        raise DataError("refinement requires at least 2 categories")
    train_docs = split_view(dataset, "train")
    dev_docs = split_view(dataset, "dev")
    if not train_docs or not dev_docs:
        raise DataError("refinement requires nonempty train and dev splits")
    train_units, gold_train = embed_split(gateway, dataset, train_docs)
    dev_units, gold_dev = embed_split(gateway, dataset, dev_docs)

    def embed(defs: Mapping[str, str]) -> np.ndarray:
        return gateway.embed_definitions(defs, categories)

    def score_train(def_vecs: np.ndarray) -> tuple[float, ConfusionMatrix]:
        report, cm = score(def_vecs, categories, train_units, gold_train)
        return report.macro_f1, cm

    def score_dev(def_vecs: np.ndarray) -> MetricsReport:
        return score(def_vecs, categories, dev_units, gold_dev)[0]

    llm_calls = 0
    if resume is not None:
        current = resume.current
    elif initial is not None:
        validate_definitions(initial, categories)
        current = {c: initial[c] for c in categories}
    elif init_mode == "llm_generated":
        before = getattr(llm, "calls", None)
        current = initial_definitions(categories, init_mode, llm, parse_retries)
        if before is not None:
            llm_calls = getattr(llm, "calls") - before
    else:
        current = initial_definitions(categories, init_mode)
    vecs_cur = embed(current)
    phi, cm_cur = score_train(vecs_cur)
    dev_cur = score_dev(vecs_cur)

    state = resume
    initial_info: dict | None = None
    if state is None:
        history = [HistoryEntry(dict(current), phi)]
        sample_rng, accept_rng = make_rng(seed, "sampling"), make_rng(seed, "acceptance")
        state = LoopState(0, current, phi, dict(current), phi, history, sample_rng, accept_rng, llm_calls)
        initial_info = {
            "iteration": 0,
            "phi_train": phi,
            "phi_dev": dev_cur.macro_f1,
            "definitions": dict(current),
            "definitions_hash": definitions_hash(current),
        }
        if on_iteration is not None:
            on_iteration(initial_info, state)
    # Dev metrics of the best set, known whenever it is the current set.
    dev_best = dev_cur if state.best == state.current else None

    metropolis = strategy.resolved_acceptance == ACCEPT_METROPOLIS
    trace: list[dict] = []

    for t in range(state.iteration + 1, t_max + 1):
        feedback = _assemble_feedback(strategy, dataset, cm_cur, state.history, state.sample_rng)
        prompt = build_prompt(strategy, categories, state.current, state.phi_cur, feedback, sample_char_cap)
        proposal, calls, latency_ms = _propose(llm, prompt, categories, parse_retries)
        state.llm_calls += calls
        temp = temperature(t, schedule)

        phi_prop: float | None = None
        delta_e: float | None = None
        accepted = False
        if proposal is not None:
            vecs_prop = embed(proposal)
            phi_prop, cm_prop = score_train(vecs_prop)
            delta_e = energy_drop(state.phi_best, phi_prop)
            accepted = accept(delta_e, temp, state.accept_rng) if metropolis else True
        if accepted:
            state.current, vecs_cur, state.phi_cur, cm_cur = proposal, vecs_prop, phi_prop, cm_prop
            dev_cur = score_dev(vecs_cur)
            # phi_cur <= phi_best holds between iterations, so only an
            # accepted proposal can raise the best.
            if state.phi_cur > state.phi_best:
                state.phi_best = state.phi_cur
                state.best = dict(state.current)
                dev_best = dev_cur
            state.history.append(HistoryEntry(dict(state.current), state.phi_cur))
            del state.history[: max(0, len(state.history) - strategy.m_history)]
        state.iteration = t

        record = {
            "iteration": t,
            "strategy": strategy.strategy,
            "k": strategy.k_confused,
            "m": strategy.m_history,
            "temperature": temp,
            "phi_train_current": state.phi_cur,
            "phi_train_proposed": phi_prop,
            "delta_e": delta_e,
            "accepted": accepted,
            "phi_dev": dev_cur.macro_f1,
            "definitions_hash": definitions_hash(state.current),
            "llm_latency_ms": latency_ms,
        }
        trace.append(record)
        if on_iteration is not None:
            on_iteration(record, state)

    vecs_best = vecs_cur if state.best == state.current else embed(state.best)
    dev_metrics = dev_best if dev_best is not None else score_dev(vecs_best)
    test_docs = split_view(dataset, "test")
    test_metrics = None
    test_cm = None
    if test_docs:
        test_metrics, test_cm = score(vecs_best, categories, *embed_split(gateway, dataset, test_docs))

    return RefinementResult(
        best_definitions=dict(state.best),
        phi_best_train=state.phi_best,
        trace=trace,
        initial=initial_info,
        dev_metrics=dev_metrics,
        test_metrics=test_metrics,
        test_confusion=test_cm,
    )


def embed_split(
    gateway: EmbeddingGateway, dataset: Dataset, docs: Sequence[Document]
) -> tuple[np.ndarray, np.ndarray]:
    """A split's documents as unit rows, normalised once and in place, and
    their gold category indices."""
    vectors = gateway.embed_texts([d.text for d in docs], ROLE_DOCUMENT)
    index = dataset.category_index
    return unit_rows(vectors, "document", in_place=True), np.array([index[d.label] for d in docs])

