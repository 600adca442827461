"""Run one benchmark command (`cmd_refine` or `cmd_sweep`) in this fresh process.

Usage: python3 bench/worker.py SPEC_JSON

The spec names the package source directory, the run config, the command,
the sweep grid, whether to trace, and where to write the result. Untraced,
the only probes are timestamps at `runner.cmd_refine` entry, at
`refinement.build_prompt` and around `refine`, which the end-to-end metrics
are defined by. Traced, every public
call listed in `TRACED` is wrapped in a span; spans stay in memory and are
written to `spans.jsonl` beside the result when the command ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path


def _len_arg(position: int):
    return lambda args: len(args[position])


# (module, attribute path, span name, item counter). Methods are patched on
# their class; functions are patched in every module that imported them. The
# cache_open counter is the cache's length once its constructor returns.
TRACED = [
    ("classifier", "classify", "classifier.classify", _len_arg(0)),
    ("evaluation", "confusion_matrix", "evaluation.confusion_matrix", None),
    ("evaluation", "macro_f1", "evaluation.macro_f1", None),
    ("evaluation", "top_k_confused_pairs", "evaluation.top_k_confused_pairs", None),
    ("corpus", "load_dataset", "corpus.load_dataset", None),
    ("corpus", "sample_instance", "corpus.sample_instance", None),
    ("embeddings", "EmbeddingCache.__init__", "embeddings.cache_open", _len_arg(0)),
    ("embeddings", "EmbeddingCache.put", "embeddings.cache_put", None),
    ("embeddings", "EmbeddingGateway.embed_texts", "embeddings.embed_texts", _len_arg(1)),
    ("embeddings", "MockEmbeddingProvider.embed_batch", "embeddings.provider", _len_arg(1)),
    ("llm", "ScriptedLlm.complete", "llm.complete", None),
    ("refinement", "refine", "refinement.refine", None),
    ("refinement", "build_prompt", "refinement.build_prompt", None),
    ("refinement", "parse_definitions", "refinement.parse_definitions", None),
    ("refinement", "accept", "refinement.accept", None),
    ("runner", "cmd_refine", "runner.cmd_refine", None),
    ("runner", "cmd_sweep", "runner.cmd_sweep", None),
    ("runner", "build_gateway", "runner.build_gateway", None),
]


class Tracer:
    """In-memory spans: [name, start, end, parent index, items, failed].

    A span opened on a helper thread with nothing open on that thread (the
    gateway's provider pool) is parented to the innermost open span of the
    main thread, which is blocked waiting for it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name, count=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = [name, 0.0, 0.0, parent, None, True]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[5] = False
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if count is not None and not span[5]:
                    span[4] = count(args)

        return traced

    def summary(self) -> dict:
        """Per span name: calls, failed, items, total seconds and self seconds."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, dict] = {}
        for index, (name, start, end, _, items, failed) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "failed": 0, "items": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["failed"] += int(failed)
            row["items"] += items or 0
            row["s"] += end - start
            row["self_s"] += (end - start) - _covered(children.get(index, []))
        return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (helper-thread children may overlap)."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _install(tracer: Tracer, modules: dict, missing: list[str]) -> None:
    for module_name, path, span, count in TRACED:
        owner = modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(span)
            continue
        wrapped = tracer.wrap(original, span, count)
        if outer:
            setattr(owner, attr, wrapped)
            continue
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    os.fsync = tracer.wrap(os.fsync, "runner.fsync")


def _peak_rss_mb() -> float:
    """Peak resident memory of this process since exec (VmHWM).

    ru_maxrss would not do: exec folds the high-water mark of the address
    space it replaces, the parent's under vfork, into it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from defrefine import classifier, corpus, embeddings, evaluation, llm, refinement, runner

    modules = {
        "classifier": classifier,
        "corpus": corpus,
        "embeddings": embeddings,
        "evaluation": evaluation,
        "llm": llm,
        "refinement": refinement,
        "runner": runner,
    }
    tracer = Tracer() if spec["trace"] else None
    missing: list[str] = []
    if tracer is not None:
        _install(tracer, modules, missing)

    # End-to-end probes: iteration boundaries are build_prompt calls, and the
    # return of refine closes the last iteration of each refine call. Set-up
    # runs from cmd_refine entry (one per sweep cell) to its first prompt.
    prompts: list[float] = []
    iterations: list[float] = []
    entered: list[float] = []
    setups: list[float] = []
    build_prompt, refine, cmd_refine = refinement.build_prompt, runner.refine, runner.cmd_refine

    def probed_cmd_refine(*args, **kwargs):
        entered.append(time.perf_counter())
        return cmd_refine(*args, **kwargs)

    def probed_build_prompt(*args, **kwargs):
        now = time.perf_counter()
        if prompts:
            iterations.append(now - prompts[-1])
        else:
            setups.append(now - entered[-1])
        prompts.append(now)
        return build_prompt(*args, **kwargs)

    def probed_refine(*args, **kwargs):
        prompts.clear()
        try:
            return refine(*args, **kwargs)
        finally:
            if prompts:
                iterations.append(time.perf_counter() - prompts[-1])
            prompts.clear()

    refinement.build_prompt = probed_build_prompt
    runner.refine = probed_refine
    runner.cmd_refine = probed_cmd_refine

    cfg = runner.RunConfig.from_file(spec["config"])
    failed_cells = 0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        started = time.perf_counter()
        if spec["command"] == "sweep":
            summary = runner.cmd_sweep(cfg, spec["k_values"], spec["m_values"])
            failed_cells = sum(1 for cell in summary["cells"] if "error" in cell)
        else:
            runner.cmd_refine(cfg)
        ended = time.perf_counter()

    result = {
        "run_s": ended - started,
        "setup_s": setups,
        "iter_s": iterations,
        "peak_rss_mb": _peak_rss_mb(),
        "failed_cells": failed_cells,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["missing_probes"] = missing
        out = Path(spec["result"]).with_name("spans.jsonl")
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in tracer.spans)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
