#!/usr/bin/env python3
"""Offline benchmark of the defrefine refinement loop.

    python3 bench/run.py --workload refine-20k --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --smoke

A run builds a synthetic corpus, a scripted-LLM reply file and a run config
from the seed (bench/inputs.py), warms the embedding cache through the
package's own gateway where the workload says so, and then runs the
workload's command (`runner.cmd_refine` or `runner.cmd_sweep`) again and
again, each time in a fresh subprocess (bench/worker.py), until --seconds
have passed: a closed loop with one client. Every command's outputs are
checked: file digests for the default seed, an independent cosine-argmax-F1
oracle for the best definitions, and the parse-retry count the script
implies. With --trace 1 untraced and traced commands alternate, and the
per-layer metrics come from the traced ones.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}; the exit code is 3 when a check failed, 1 when the
package source is missing. A full record (host, parameters, every command) goes to
bench/.work/BENCH_<workload>.json. Workload parameters, the layer-to-metric
map and the recorded digests are in bench/workloads.json; metric names and
units and each workload's reason are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SPEC = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
# Metric names and units, and each workload's reason, are kept only here.
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
WHY = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
# Commands run single-threaded BLAS: steadier on a shared 2-core host.
BLAS_THREADS = 1
WORKER_ENV = {var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
WORKER_ENV["PYTHONHASHSEED"] = "0"

import numpy as np  # noqa: E402

sys.path.insert(0, str(BENCH))
from inputs import write_inputs  # noqa: E402

COMMAND_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0
# Untraced commands a run makes at least; iter_ms_p90's percentile is fixed
# from this count, so it does not shift with how many commands fit.
MIN_COMMANDS = 3
RESULT_FILES = ("trace.jsonl", "definitions_log.jsonl", "result.json")


def _import_package():
    if not (SRC / "defrefine" / "__init__.py").is_file():
        raise SystemExit(f"bench: package source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from defrefine import embeddings, runner

    return embeddings, runner


def _matrix(vectors) -> np.ndarray:
    """Gateway output (a list of vectors or an (n, d) array) as a float64 matrix."""
    return np.array([getattr(v, "values", v) for v in vectors], dtype=np.float64)


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def oracle_macro_f1(doc_unit: np.ndarray, gold: np.ndarray, def_vecs: np.ndarray) -> float:
    """Nearest-definition cosine argmax, then the unweighted mean of per-class F1."""
    pred = np.argmax(doc_unit @ _unit_rows(def_vecs).T, axis=1)
    f1 = []
    for c in range(def_vecs.shape[0]):
        tp = int(np.sum((pred == c) & (gold == c)))
        fp = int(np.sum((pred == c) & (gold != c)))
        fn = int(np.sum((pred != c) & (gold == c)))
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    return sum(f1) / len(f1)


class Workload:
    """Inputs, warm cache and oracle state of one workload at one seed."""

    def __init__(self, name: str, spec: dict, seed: int, params: dict, workdir: Path):
        self.name, self.spec, self.seed, self.params = name, spec, seed, params
        self.workdir = workdir
        self.command = spec["command"]
        self.grid = spec.get("grid", {"k": [params["k"]], "m": [params["m"]]})
        self.cells = len(self.grid["k"]) * len(self.grid["m"]) if self.command == "sweep" else 1
        # One iteration sample per refinement iteration of every cell.
        self.per_command = params["t_max"] * self.cells
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        self.inputs = write_inputs(params, seed, workdir)
        self.cache_dir = workdir / "cache"
        self.out_dir = workdir / "out"

        embeddings, runner = _import_package()
        cfg = runner.RunConfig.from_file(workdir / "config.json")
        oracle = embeddings.EmbeddingGateway(
            cfg.embedder,
            embeddings.EmbeddingCache(),
            embeddings.MockEmbeddingProvider(dim=params["dim"], seed=seed),
        )
        self._embed_definitions = lambda defs: _matrix(oracle.embed_definitions(defs, self.inputs["categories"]))
        started = time.perf_counter()
        self.warm_dir = None
        if spec["cache"] == "warm":
            # Fill the cache through the package's gateway so the fill follows
            # the cache format; every command starts from a copy of it.
            gateway = runner.build_gateway(cfg)
            vectors = gateway.embed_texts([d["text"] for d in self.inputs["docs"]], "document")
            gateway.cache.close()
            # write_inputs puts the train split first.
            train = _matrix(vectors)[: len(self.inputs["train_texts"])]
            self.warm_dir = workdir / "cache.warm"
            self.cache_dir.rename(self.warm_dir)
        else:
            train = _matrix(oracle.embed_texts(self.inputs["train_texts"], "document"))
        self.prepare_s = time.perf_counter() - started
        self.train_unit = _unit_rows(train)
        self.train_gold = np.array(self.inputs["train_gold"])

    def reset(self) -> None:
        """Put the run directory and cache back to the state before any command."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if self.warm_dir is not None:
            shutil.copytree(self.warm_dir, self.cache_dir)

    def run_command(self, traced: bool, index: int) -> dict:
        self.reset()
        spec_path = self.workdir / f"cmd{index}.json"
        result_path = self.workdir / f"cmd{index}.result.json"
        spec = {
            "src": str(SRC),
            "config": str(self.workdir / "config.json"),
            "command": self.command,
            "k_values": self.grid["k"],
            "m_values": self.grid["m"],
            "trace": traced,
            "result": str(result_path),
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        record = {"index": index, "traced": traced, "problems": []}
        with open(self.workdir / f"cmd{index}.stderr", "w", encoding="utf-8") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                    cwd=self.workdir,
                    stdout=subprocess.DEVNULL,
                    stderr=err,
                    env={**os.environ, **WORKER_ENV},
                    timeout=COMMAND_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                record["problems"].append(f"command timed out after {COMMAND_TIMEOUT_S:.0f} s")
                return record
        if proc.returncode != 0 or not result_path.exists():
            record["problems"].append(f"worker exited with code {proc.returncode}")
            return record
        record.update(json.loads(result_path.read_text(encoding="utf-8")))
        record["cache_file_bytes"] = sum(f.stat().st_size for f in self.cache_dir.rglob("*") if f.is_file())
        record["problems"] += self.check_outputs(record)
        return record

    def run_dirs(self) -> list[Path]:
        return sorted(p for p in self.out_dir.iterdir() if p.is_dir()) if self.out_dir.exists() else []

    def check_outputs(self, record: dict) -> list[str]:
        problems = []
        dirs = self.run_dirs()
        if len(dirs) != self.cells:
            problems.append(f"expected {self.cells} run directories, found {len(dirs)}")
        if record.get("failed_cells"):
            problems.append(f"{record['failed_cells']} sweep cells failed")
        digests, accepted, parsed = {}, 0, 0
        for run_dir in dirs:
            try:
                problems += self._check_run_dir(run_dir)
                for name in RESULT_FILES:
                    digests[f"{run_dir.name}/{name}"] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                for line in (run_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines():
                    row = json.loads(line)
                    accepted += bool(row["accepted"])
                    parsed += row["phi_train_proposed"] is not None
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{run_dir.name}: unreadable output: {exc}")
        record["digests"] = digests
        record["accept_ratio"] = accepted / parsed if parsed else 0.0
        recorded = SPEC["digests"].get(self.name)
        if self.seed == SPEC["default_seed"] and recorded is not None and self.params == self.spec["params"]:
            if digests != recorded:
                bad = sorted(k for k in set(digests) | set(recorded) if digests.get(k) != recorded.get(k))
                problems.append(f"digest mismatch against bench/workloads.json: {', '.join(bad)}")
        expected_failures = self.inputs["expected"]["parse_failures"] * self.cells
        layers = record.get("layers")
        if layers is not None:
            failures = layers.get("refinement.parse_definitions", {}).get("failed", 0)
            if failures != expected_failures:
                problems.append(f"parse failures {failures} != {expected_failures} implied by the script")
        return problems

    def _check_run_dir(self, run_dir: Path) -> list[str]:
        expected = self.inputs["expected"]
        read = lambda name: json.loads((run_dir / name).read_text(encoding="utf-8"))  # noqa: E731
        trace = [json.loads(line) for line in (run_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()]
        result, state, initial = read("result.json"), read("state.json"), read("initial.json")
        problems = []
        if len(trace) != self.params["t_max"]:
            problems.append(f"{len(trace)} trace records, expected {self.params['t_max']}")
        best_seen = max([initial["phi_train"]] + [r["phi_train_current"] for r in trace])
        if result["phi_best_train"] != best_seen:
            problems.append(f"phi_best_train {result['phi_best_train']} != best traced score {best_seen}")
        oracle = oracle_macro_f1(self.train_unit, self.train_gold, self._embed_definitions(result["best_definitions"]))
        if abs(oracle - result["phi_best_train"]) > 1e-9:
            problems.append(f"phi_best_train {result['phi_best_train']} != oracle {oracle}")
        unparseable = sum(r["phi_train_proposed"] is None for r in trace)
        if unparseable != expected["unparseable"]:
            problems.append(f"{unparseable} unparseable proposals, script implies {expected['unparseable']}")
        if state["llm_calls"] != expected["llm_calls"]:
            problems.append(f"{state['llm_calls']} llm calls, script implies {expected['llm_calls']}")
        return [f"{run_dir.name}: {p}" for p in problems]


def iteration_percentiles(samples_s: list[float], per_command: int) -> dict:
    """Median, and the 90th percentile or the highest one with ten samples above it.

    The percentile is fixed per workload from the samples of MIN_COMMANDS
    commands (per_command each), whatever number of commands the run fits,
    so a faster build reports the same percentile. Below 20 samples no
    percentile above the median has ten samples beyond it, and the median is
    reported in its place.
    """
    ms = np.asarray(samples_s) * 1000.0
    q = max(0.5, min(0.9, 1.0 - 10.0 / (per_command * MIN_COMMANDS)))
    return {
        "iter_ms_p50": float(np.percentile(ms, 50)),
        "iter_ms_p90": float(np.percentile(ms, 100 * q)),
        "p90_percentile": 100 * q,
        "samples": len(ms),
    }


def end_to_end_metrics(records: list[dict], per_command: int) -> dict:
    ok = [r for r in records if not r["traced"] and r.get("setup_s")]
    if not ok:
        return {}
    out = {
        "setup_s": statistics.median(s for r in ok for s in r["setup_s"]),
        "run_s": statistics.median(r["run_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    out.update(iteration_percentiles([s for r in ok for s in r["iter_s"]], per_command))
    return out


PER_LAYER = [
    # (metric, span, field)
    ("classifier.classify.calls", "classifier.classify", "calls"),
    ("classifier.classify.rows", "classifier.classify", "items"),
    ("classifier.classify.s", "classifier.classify", "s"),
    ("evaluation.confusion_matrix.s", "evaluation.confusion_matrix", "s"),
    ("evaluation.macro_f1.s", "evaluation.macro_f1", "s"),
    ("evaluation.top_k_confused_pairs.s", "evaluation.top_k_confused_pairs", "s"),
    ("corpus.load_dataset.s", "corpus.load_dataset", "s"),
    ("corpus.sample_instance.calls", "corpus.sample_instance", "calls"),
    ("corpus.sample_instance.s", "corpus.sample_instance", "s"),
    ("embeddings.cache_open.s", "embeddings.cache_open", "s"),
    ("embeddings.cache_open.vectors", "embeddings.cache_open", "items"),
    ("embeddings.embed_texts.calls", "embeddings.embed_texts", "calls"),
    ("embeddings.embed_texts.texts", "embeddings.embed_texts", "items"),
    ("embeddings.embed_texts.s", "embeddings.embed_texts", "s"),
    ("embeddings.provider.requests", "embeddings.provider", "calls"),
    ("embeddings.provider.texts", "embeddings.provider", "items"),
    ("embeddings.provider.s", "embeddings.provider", "s"),
    ("embeddings.cache_put.calls", "embeddings.cache_put", "calls"),
    ("embeddings.cache_put.s", "embeddings.cache_put", "s"),
    ("llm.complete.calls", "llm.complete", "calls"),
    ("llm.complete.s", "llm.complete", "s"),
    ("refinement.refine.self_s", "refinement.refine", "self_s"),
    ("refinement.build_prompt.s", "refinement.build_prompt", "s"),
    ("refinement.parse_definitions.calls", "refinement.parse_definitions", "calls"),
    ("refinement.parse_definitions.failed", "refinement.parse_definitions", "failed"),
    ("refinement.accept.calls", "refinement.accept", "calls"),
    ("runner.cmd_refine.calls", "runner.cmd_refine", "calls"),
    ("runner.cmd_refine.self_s", "runner.cmd_refine", "self_s"),
    ("runner.build_gateway.s", "runner.build_gateway", "s"),
    ("runner.fsync.calls", "runner.fsync", "calls"),
    ("runner.fsync.s", "runner.fsync", "s"),
]
# Per-layer metrics computed from a whole traced command, not from one span.
DERIVED = ("embeddings.cache_hit_ratio", "embeddings.cache_file_bytes", "refinement.accept_ratio", "trace.overhead_ratio")


def check_contract() -> None:
    """The metric sets of run.py, BENCHMARK.json and the layer map must agree."""
    measured = {name for name, _, _ in PER_LAYER} | set(DERIVED)
    mapped = {m for layer in SPEC["layers"].values() for m in layer["metrics"]}
    if not measured == mapped == set(PER_LAYER_UNITS):
        raise SystemExit("bench: per-layer metrics differ between run.py, BENCHMARK.json and workloads.json layers")
    if set(WHY) != set(SPEC["workloads"]):
        raise SystemExit("bench: workloads differ between BENCHMARK.json and workloads.json")


def layer_metrics(record: dict) -> dict:
    layers = record["layers"]
    out = {name: layers.get(span, {}).get(field, 0) for name, span, field in PER_LAYER}
    texts = out["embeddings.embed_texts.texts"]
    out["embeddings.cache_hit_ratio"] = 1.0 - out["embeddings.provider.texts"] / texts if texts else 0.0
    out["embeddings.cache_file_bytes"] = record["cache_file_bytes"]
    out["refinement.accept_ratio"] = record["accept_ratio"]
    return out


def per_layer(records: list[dict]) -> tuple[dict, dict]:
    traced = [r for r in records if r["traced"] and "layers" in r]
    plain = [r for r in records if not r["traced"] and "run_s" in r]
    if not traced or not plain:
        return {}, {}
    rows = [layer_metrics(r) for r in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_ratio"] = statistics.median(r["run_s"] for r in traced) / statistics.median(
        r["run_s"] for r in plain
    )
    self_s: dict[str, float] = {}
    for name, row in traced[0]["layers"].items():
        self_s[name] = row["self_s"]
    return metrics, self_s


def sizing_split(workload: str, self_s: dict) -> str | None:
    """The split the workload was sized on, as a yes/no line (not a correctness gate)."""
    if not self_s:
        return None
    top = max(self_s, key=self_s.get)
    if workload == "refine-20k":
        return f"largest self time: {top} ({'as sized' if top == 'classifier.classify' else 'differs from sizing'})"
    if workload == "embed-cold-1024":
        write = self_s.get("embeddings.cache_put", 0.0) + self_s.get("embeddings.provider", 0.0)
        rest = max((v for k, v in self_s.items() if k not in ("embeddings.cache_put", "embeddings.provider")), default=0.0)
        verdict = "as sized" if write > rest else "differs from sizing"
        return f"cache_put + provider self time {write:.3f} s vs next largest {rest:.3f} s ({verdict})"
    return f"largest self time: {top}"


def host_record(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "worker_env": WORKER_ENV,
        "git_commit": commit,
        "seed": seed,
    }


def measure(workload: Workload, seconds: float, trace: bool, started: float) -> list[dict]:
    """Closed loop, one client: the next command starts when the previous one ends."""
    records: list[dict] = []
    loop_start = time.monotonic()
    plan = (False, True) if trace else (False,)
    min_commands = MIN_COMMANDS if not trace else len(plan)
    longest = 0.0
    while True:
        for traced in plan:
            t0 = time.monotonic()
            records.append(workload.run_command(traced, len(records)))
            longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        if now - loop_start >= seconds and len(records) >= min_commands:
            break
        if now - started + len(plan) * longest > RUN_BUDGET_S:
            break
    return records


def run(args) -> int:
    started = time.monotonic()
    spec = SPEC["workloads"][args.workload]
    workload = Workload(args.workload, spec, args.seed, dict(spec["params"]), WORK / args.workload)
    records = measure(workload, args.seconds, bool(args.trace), started)

    ops_per_command = workload.cells
    attempted = ops_per_command * len(records)
    failed = 0
    for r in records:
        if "run_s" not in r:
            failed += ops_per_command
        elif r["problems"]:
            failed += max(r.get("failed_cells", 0), 1)
    correct = all(not r["problems"] for r in records)

    e2e = end_to_end_metrics(records, workload.per_command)
    layers, self_s = per_layer(records) if args.trace else ({}, {})
    host = host_record(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  commands {len(records)}  "
          f"prepare {workload.prepare_s:.2f} s")
    print("host " + json.dumps(host))
    for r in records:
        for problem in r["problems"]:
            print(f"CHECK FAILED (command {r['index']}): {problem}")
    print(f"checks: {'all passed' if correct else 'FAILED'}")
    print(f"ops_failed_ratio = {failed / attempted:.4f} ratio ({failed}/{attempted})")
    for name, unit in END_TO_END.items():
        if name in e2e:
            print(f"{name} = {e2e[name]:.6g} {unit}")
    if e2e:
        print(f"iter_ms_p90 is percentile {e2e['p90_percentile']:.1f} of {e2e['samples']} iteration samples")
    for name, value in layers.items():
        print(f"{name} = {value:.6g} {PER_LAYER_UNITS[name]}")
    missing = sorted({p for r in records for p in r.get("missing_probes", [])})
    if missing:
        print(f"not traced (reported as 0): {', '.join(missing)}")
    split = sizing_split(args.workload, self_s)
    if split:
        print(f"sizing split: {split}")

    WORK.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "params": workload.params,
        "host": host,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "prepare_s": workload.prepare_s,
        "expected_script_use": workload.inputs["expected"],
        "end_to_end": e2e,
        "per_layer": layers,
        "self_s": self_s,
        "ops_failed_ratio": failed / attempted,
        "commands": [{k: v for k, v in r.items() if k != "iter_s"} for r in records],
    }
    (WORK / f"BENCH_{args.workload}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items() if name in layers}
        complete = len(metrics) == len(PER_LAYER_UNITS)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items() if name in e2e}
        complete = len(metrics) == len(END_TO_END)
    correct = correct and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 3


def smoke() -> int:
    """Toy-size pass over every workload: one untraced and one traced command each."""
    failures = 0
    for name, spec in SPEC["workloads"].items():
        params = dict(spec["params"], **SPEC["smoke"])
        workload = Workload(name, spec, SPEC["default_seed"], params, WORK / f"smoke-{name}")
        records = [workload.run_command(False, 0), workload.run_command(True, 1)]
        layers, _ = per_layer(records)
        problems = [p for r in records for p in r["problems"]]
        problems += [f"not traced: {p}" for r in records for p in r.get("missing_probes", [])]
        if len(layers) != len(PER_LAYER_UNITS) or not end_to_end_metrics(records, workload.per_command):
            problems.append("metrics missing")
        failures += bool(problems)
        print(f"smoke {name}: {'ok' if not problems else 'FAILED: ' + '; '.join(problems)}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(SPEC["workloads"]), help="workload to run")
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"], help="workload seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--smoke", action="store_true", help="toy-size pass over all workloads")
    args = parser.parse_args(argv)
    check_contract()
    _import_package()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required (or --smoke)")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
