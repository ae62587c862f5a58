"""countquant benchmark: one workload per invocation, run the way a user runs it.

    python3 perfbench/run.py --workload extract-short --seed 1 --seconds 10 --trace 0

Each workload builds a seeded synthetic world and drives the
``build-training``, ``train``, ``extract`` and ``evaluate`` commands
in-process with ``--workers 1``: a closed loop with one caller, one document
after another. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
repeats the whole pipeline untraced and traced (spans from ``tracing.py``)
and reports the per-layer metrics and the tracing overhead. Outputs are
checked on every run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full report, with the environment, input properties and digests, is printed
before it and written to ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; why each exists is stated in BENCHMARK.json."""

    style: str          # document style of worlds.generate_world
    train_docs: int
    test_docs: int
    zero_mode: bool


WORKLOADS = {
    "extract-short": Workload(
        style="short", train_docs=500, test_docs=300, zero_mode=False,
    ),
    "extract-long": Workload(
        style="long", train_docs=150, test_docs=150, zero_mode=True,
    ),
}

# Cycles of set-up, training and extraction run, however short --seconds is.
MIN_CYCLES = 3
# Enough timed documents that at least ten lie beyond p99.
MIN_DOC_SAMPLES = 1000
RELATION = "human:child"
# Every seed does the same optimisation work: L-BFGS stops after this many
# iterations, below where any workload's training converges by itself, so
# train_s varies with the cost of an iteration and not with the seed.
TRAIN_MAX_ITER = 60
# Acceptance criterion 7 of the test suite, checked on extract-short.
QUALITY_FLOORS = {"recognition_f1": 0.90, "e2e_precision": 0.90, "e2e_coverage": 0.80}
QUALITY_MAE_CEILING = 0.3

UNITS = {
    "setup_s": "s",
    "extract_docs_per_s": "docs/s",
    "extract_doc_ms_p50": "ms",
    "extract_doc_ms_p99": "ms",
    "build_training_docs_per_s": "docs/s",
    "train_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "recognition_f1": "ratio",
    "e2e_precision": "ratio",
    "e2e_coverage": "ratio",
    "e2e_mae": "count",
}


def _import_countquant():
    """Import countquant from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "countquant" / "__init__.py").is_file():
        sys.exit(f"error: {src}/countquant not found; run from a countquant checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import countquant

    if Path(countquant.__file__).resolve().parent != (src / "countquant").resolve():
        sys.exit(f"error: countquant imported from {countquant.__file__}, not {src}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class Runner:
    """Runs the CLI stages of one workload and keeps the operation counts."""

    def __init__(self, workload: Workload, seed: int, work: Path, scale: float = 1.0) -> None:
        import worlds
        from countquant.cli import main  # imported here, so no stage pays for imports
        from countquant.numlex import load_default_lexicon

        self.workload = workload
        self.seed = seed
        self.work = work
        self.n_train = max(8, round(workload.train_docs * scale))
        self.n_test = max(4, round(workload.test_docs * scale))
        self.min_doc_samples = round(MIN_DOC_SAMPLES * scale)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.lexicon = load_default_lexicon()
        self.worlds = worlds
        self.main = main
        self.subjects = None
        self.label_stats: dict[str, int] = {}
        # Per test subject, the (surfaces, tags) of each sentence the last pass decoded.
        self.decoded: dict[str, list[tuple[tuple[str, ...], tuple[str, ...]]]] = {}

    # -- operations ----------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def cli(self, args: list[str]) -> str:
        """One in-process CLI command; returns its output, raises on failure."""
        self.attempted += 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                self.main.main(args=args, prog_name="countquant", standalone_mode=False)
        except BaseException as exc:
            self.fail(f"countquant {args[0]}: {type(exc).__name__}: {exc} {out.getvalue()}")
            raise
        return out.getvalue()

    def make_world(self, root: Path) -> dict[str, Path]:
        root.mkdir(parents=True, exist_ok=True)
        w = self.workload
        self.subjects = self.worlds.generate_world(w.style, self.n_train + self.n_test, self.seed)
        paths = self.worlds.write_world(self.subjects, root, train_split=self.n_train)
        paths.update(
            training=root / "train.conll",
            model=root / "model.json",
            predictions=root / "predictions.jsonl",
            metrics=root / "metrics.json",
        )
        return paths

    def build_training(self, p) -> float:
        start = time.perf_counter()
        out = self.cli(["build-training", "--kb", str(p["kb"]), "--corpus", str(p["train_corpus"]),
                        "--relation", RELATION, "--out", str(p["training"]), "--workers", "1"])
        elapsed = time.perf_counter() - start
        # "wrote ...: N sentences (subjects=.. positives=.. negatives=.. excluded=.. ...)"
        self.label_stats = {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", out)}
        return elapsed

    def train(self, p) -> float:
        start = time.perf_counter()
        self.cli(["train", "--training", str(p["training"]), "--model", str(p["model"]),
                  "--relation", RELATION, "--max-iter", str(TRAIN_MAX_ITER)])
        return time.perf_counter() - start

    def extract(self, p, doc_ms: list[float]) -> float:
        """One extract command; appends each document's extract_document time in ms."""
        import countquant.cli
        import countquant.pipeline

        inner = countquant.cli.extract_document
        decode_document = countquant.pipeline.decode_document
        captured: list = []

        def capture(*args, **kwargs):
            captured.append(decode_document(*args, **kwargs))
            return captured[-1]

        def timed(*args, **kwargs):
            subject = args[2]  # extract_document(model, lexicon, subject, text, ...)
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            except Exception as exc:
                self.fail(f"extract_document({subject}): {type(exc).__name__}: {exc}")
                raise
            doc_ms.append((time.perf_counter() - start) * 1e3)
            # Kept as tuples of strings, which the cyclic GC stops tracking, so
            # the benchmark's own bookkeeping does not lengthen GC pauses.
            self.decoded[subject] = [
                (tuple(d.labeled.sentence.surfaces()), d.labeled.tags) for d in captured.pop()
            ]
            return result

        self.decoded = {}
        args = ["extract", "--model", str(p["model"]), "--corpus", str(p["test_corpus"]),
                "--relation", RELATION, "--out", str(p["predictions"]), "--threshold", "0.1",
                "--workers", "1"] + (["--zero-mode"] if self.workload.zero_mode else [])
        countquant.cli.extract_document = timed
        countquant.pipeline.decode_document = capture
        try:
            start = time.perf_counter()
            self.cli(args)
            return time.perf_counter() - start
        finally:
            countquant.cli.extract_document = inner
            countquant.pipeline.decode_document = decode_document

    def evaluate(self, p) -> dict:
        self.cli(["evaluate", "--pred", str(p["predictions"]), "--gold", str(p["gold"]),
                  "--out", str(p["metrics"])])
        return json.loads(p["metrics"].read_text(encoding="utf-8"))["end_to_end"]

    # -- checks ----------------------------------------------------------------

    def check_same(self, what: str, digests: list[str]) -> None:
        self.attempted += 1
        if len(set(digests)) != 1:
            self.fail(f"{what} differs across repeats: {sorted(set(digests))}")

    def recognition(self, tracer=None) -> tuple[float, dict]:
        """Recognition F1 of the last extract pass against the template gold tags.

        Each count template, preprocessed alone, must equal one sentence the
        extractor decoded in its document; every other decoded sentence is
        gold O throughout.
        """
        from countquant.dsgen import OTHER, LabeledSentence
        from countquant.evaluate import score_recognition
        from countquant.numlex import Token, make_sentence

        self.attempted += 1
        test = self.subjects[self.n_train:]
        gold, predicted, missing = [], [], []
        for subject in test:
            tagged = {
                tuple(ls.sentence.surfaces()): ls
                for ls in self.worlds.gold_labeled_sentences(
                    subject, self.lexicon, zero_mode=self.workload.zero_mode)
            }
            for surfaces, tags in self.decoded.get(subject.subject_id, []):
                gold.append(tagged.pop(surfaces, None) or LabeledSentence(
                    sentence=make_sentence(Token(surface=w, lemma=w, index=0) for w in surfaces),
                    tags=(OTHER,) * len(surfaces), strict=False))
                predicted.append(list(tags))
            missing += [" ".join(key) for key in tagged]
        if missing:
            self.fail(f"{len(missing)} count sentences not decoded, e.g. {missing[0]!r}")
        score = tracer.span("evaluate.recognition", score_recognition) if tracer else \
            score_recognition
        props = self.worlds.corpus_properties(test)
        props["mention_bearing_share"] = len(gold) / props["sentences"]
        return score(gold, predicted).f1, props

    def check_quality(self, f1: float, scores: dict) -> dict:
        """Quality metrics of the last pass; on extract-short, held to criterion 7."""
        quality = {
            "recognition_f1": f1,
            "e2e_precision": scores["precision"],
            "e2e_coverage": scores["coverage"],
            "e2e_mae": scores["mae"],
        }
        if self.workload.style == "short":
            self.attempted += 1
            low = [k for k, floor in QUALITY_FLOORS.items() if quality[k] < floor]
            if quality["e2e_mae"] > QUALITY_MAE_CEILING:
                low.append("e2e_mae")
            if low:
                self.fail(f"quality below acceptance criterion 7: {low} in {quality}")
        return quality


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "seed": seed,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_untraced(r: Runner, seconds: float) -> dict:
    """End-to-end metrics from cycles of set-up, extract and evaluate.

    Set-up generates the world and runs build-training and train on it.

    Each cycle runs every stage once, and cycles repeat until --seconds have
    passed, so the samples of every metric are spread over the whole run rather
    than over one stretch of it. On a shared host the speed of a core changes by
    a quarter or more from one few-second stretch to the next; a median over
    samples taken across the whole run follows that far less than one over a
    single stretch does.
    """
    setup_s, build_s, train_s, docs_per_s = [], [], [], []
    doc_ms: list[float] = []
    digests: dict[str, list[str]] = {}

    def record(p, *keys):
        for key in keys:
            digests.setdefault(key, []).append(sha256(p[key]))

    cycles = 0
    window_start = time.perf_counter()
    while (cycles < MIN_CYCLES or time.perf_counter() - window_start < seconds
           or len(doc_ms) < r.min_doc_samples):
        # Garbage from the previous cycle is collected here, not inside a timed stage.
        gc.collect()
        start = time.perf_counter()
        p = r.make_world(r.work / "world")
        build_s.append(r.build_training(p))
        train_s.append(r.train(p))
        setup_s.append(time.perf_counter() - start)
        record(p, "kb", "train_corpus", "test_corpus", "gold", "training", "model")
        gc.collect()
        docs_per_s.append(r.n_test / r.extract(p, doc_ms))
        record(p, "predictions")
        scores = r.evaluate(p)
        cycles += 1

    for key, values in digests.items():
        r.check_same(key, values)
    f1, test_props = r.recognition()
    quality = r.check_quality(f1, scores)
    values = {
        "setup_s": statistics.median(setup_s),
        "extract_docs_per_s": statistics.median(docs_per_s),
        "extract_doc_ms_p50": percentile(doc_ms, 0.50),
        "extract_doc_ms_p99": percentile(doc_ms, 0.99),
        "build_training_docs_per_s": r.n_train / statistics.median(build_s),
        "train_s": statistics.median(train_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **quality,
    }
    return {
        "values": values,
        "samples": {"cycles": cycles, "setup_s": setup_s, "build_training_s": build_s,
                    "train_s": train_s, "extract_docs_per_s": docs_per_s,
                    "documents_timed": len(doc_ms)},
        "digests": {k: v[0] for k, v in sorted(digests.items())},
        "inputs": {"train": train_properties(r), "test": test_props},
    }


def train_properties(r: Runner) -> dict:
    """Training-corpus properties; the mention share is over the documents labeled."""
    train = r.subjects[:r.n_train]
    props = r.worlds.corpus_properties(train)
    labeled = r.worlds.corpus_properties([s for s in train if s.kb_count >= 1])
    mentioned = sum(r.label_stats.get(k, 0)
                    for k in ("positives", "negatives", "excluded", "entropy_dropped"))
    props["mention_bearing_share"] = mentioned / labeled["sentences"]
    return props


def run_traced(r: Runner, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics: the whole pipeline, alternately untraced and traced."""
    from tracing import Tracer

    p = r.make_world(r.work / "world")
    untraced_s, traced_s, layers = [], [], []
    digests: dict[str, list[str]] = {}
    tracer = None

    def pipeline(tracer):
        stage = tracer.stage if tracer else (lambda name: contextlib.nullcontext())
        start = time.perf_counter()
        with stage("cli.build_training"):
            r.build_training(p)
        with stage("cli.train"):
            r.train(p)
        with stage("cli.extract"):
            r.extract(p, [])
        with stage("cli.evaluate"):
            scores.update(r.evaluate(p))
        elapsed = time.perf_counter() - start
        for key in ("training", "model", "predictions", "metrics"):
            digests.setdefault(key, []).append(sha256(p[key]))
        return elapsed

    scores: dict = {}
    window_start = time.perf_counter()
    while not traced_s or time.perf_counter() - window_start < seconds:
        untraced_s.append(pipeline(None))
        tracer = Tracer()
        with tracer:
            traced_s.append(pipeline(tracer))
            f1, _ = r.recognition(tracer)
        layers.append(tracer.layer_metrics())
    r.check_quality(f1, scores)

    for key, values in digests.items():
        r.check_same(key, values)
    tracer.write(spans_path)
    values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    overhead = statistics.median(traced_s) - statistics.median(untraced_s)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_ratio"] = overhead / statistics.median(untraced_s)
    return {
        "values": values,
        "samples": {"traced_pipelines": len(traced_s), "untraced_pipelines": len(untraced_s)},
        "digests": {k: v[0] for k, v in sorted(digests.items())},
        "spans_file": str(spans_path),
    }


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_sentence")):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, scale: float = 1.0) -> dict:
    """Run one workload; returns the full report (its 'result' is the contract line)."""
    workload = WORKLOADS[name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    r = Runner(workload, seed, work, scale=scale)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        if trace:
            measured = run_traced(r, seconds, out_dir / f"spans-{tag}.jsonl")
        else:
            measured = run_untraced(r, seconds)
    except Exception as exc:  # noqa: BLE001 - a failed operation is reported, not hidden
        if not r.failures:
            r.fail(f"{type(exc).__name__}: {exc}")
        measured = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {k: layer_unit(k) for k in (measured or {}).get("values", {})} if trace else UNITS
    metrics = {}
    if measured is not None:
        values = measured["values"]
        if not trace:
            values["fail_ratio"] = r.failed / max(1, r.attempted)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in values}
    report = {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "trace": bool(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "failures": r.failures,
        **({k: v for k, v in measured.items() if k != "values"} if measured else {}),
        "metrics": metrics,
    }
    gated = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    report["result"] = {
        "correct": measured is not None and r.failed == 0,
        "attempted": max(1, r.attempted),
        "failed": r.failed,
        "metrics": {k: v for k, v in metrics.items() if k in gated},
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(report, indent=2) + "\n",
                                               encoding="utf-8")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"error: {ROOT / 'BENCHMARK.json'} not found")
    # Pinned before numpy loads: at these matrix sizes BLAS worker threads add
    # scheduling noise to every timing and no speed.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_countquant()
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          ROOT / ".bench_run")
    for key, metric in report["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(report, ensure_ascii=False))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
