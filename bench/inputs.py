"""Seeded inputs for one benchmark workload: corpus, scripted LLM replies, run config.

Everything here is a pure function of (workload parameters, seed). The mock
embedder hashes each text into a random unit vector, so text content only
matters through its length and uniqueness; documents are still drawn from
per-category vocabularies so prompts look like real evidence.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SPLIT_FIELDS = ("train", "dev", "test")
# One reply in NON_JSON_EVERY is prose without a JSON object, which makes the
# loop re-prompt (parse-retry path) and varies the scores Metropolis sees.
NON_JSON_EVERY = 7
PARSE_RETRIES = 3


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    syllables = ["ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "pa", "qu", "xe", "do", "fi"]
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(syllables) for _ in range(rng.randint(2, 4))))
    return sorted(words)


def categories(k: int) -> list[str]:
    """Category names whose sorted order is their index order."""
    return [f"c{i:02d}" for i in range(k)]


def write_inputs(params: dict, seed: int, workdir: Path) -> dict:
    """Write corpus.jsonl, script.json and config.json; return what the checks need."""
    rng = random.Random(f"corpus-{seed}")
    cats = categories(params["categories"])
    vocab = _vocabulary(rng, 3000)
    topics = {c: rng.sample(vocab, 60) for c in cats}

    def text(cat: str, lo: int, hi: int) -> str:
        n = rng.randint(lo, hi)
        return " ".join(rng.choice(topics[cat]) if rng.random() < 0.6 else rng.choice(vocab) for _ in range(n))

    docs = []
    for split in SPLIT_FIELDS:
        for _ in range(params[split]):
            label = rng.choice(cats)
            docs.append({"id": f"d{len(docs)}", "text": text(label, 30, 60), "label": label, "split": split})
    with open(workdir / "corpus.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(d) + "\n" for d in docs)

    replies, non_json = [], []
    n_replies = params["t_max"] * (NON_JSON_EVERY + 1) // NON_JSON_EVERY + PARSE_RETRIES + 8
    for i in range(n_replies):
        if i % NON_JSON_EVERY == NON_JSON_EVERY - 1:
            a, b = rng.sample(cats, 2)
            replies.append(f"The definitions of {a} and {b} overlap; I would make both narrower.")
            non_json.append(True)
            continue
        body = json.dumps({c: "Pages about " + text(c, 8, 16) + "." for c in cats}, indent=1)
        replies.append(f"```json\n{body}\n```" if i % 3 == 0 else body)
        non_json.append(False)
    script = {"responses": replies, "delay_s": params["llm_delay_s"]}
    (workdir / "script.json").write_text(json.dumps(script), encoding="utf-8")

    config = {
        "dataset": {"path": "corpus.jsonl", "format": "jsonl"},
        "embedder": {
            "endpoint": f"mock:dim={params['dim']},seed={seed}",
            "model_id": "mock-embed",
            "concurrency": params["concurrency"],
        },
        "llm": {"endpoint": "script:script.json", "model_id": "scripted"},
        "strategy": {"name": params["strategy"], "k": params["k"], "m": params["m"]},
        "seed": seed,
        "t_max": params["t_max"],
        "parse_retries": PARSE_RETRIES,
        "out_dir": "out",
        "cache_file": "cache/embedding_cache.jsonl",
    }
    (workdir / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")

    train = [d for d in docs if d["split"] == "train"]
    return {
        "categories": cats,
        "docs": docs,
        "train_texts": [d["text"] for d in train],
        "train_gold": [cats.index(d["label"]) for d in train],
        "expected": expected_llm_use(non_json, params["t_max"]),
    }


def expected_llm_use(non_json: list[bool], t_max: int) -> dict:
    """Replay the script the way the loop consumes it: re-prompt after prose."""
    pos = failures = unparseable = 0
    for _ in range(t_max):
        for _attempt in range(PARSE_RETRIES + 1):
            bad = non_json[pos]
            pos += 1
            if not bad:
                break
            failures += 1
        else:
            unparseable += 1
    return {"llm_calls": pos, "parse_failures": failures, "unparseable": unparseable}
