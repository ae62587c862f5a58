"""Spans around countquant's layer boundaries, recorded from outside ``src/``.

:class:`Tracer` patches the public functions where their callers look them
up, records one span per call (name, start, end, parent, document id) in
memory, and restores every patched attribute on exit. The per-layer
metrics are computed from the spans afterwards; a span's self time is its
duration minus the durations of its direct children. Times are integer
nanoseconds, so self times are exact and never negative.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import countquant.cli
import countquant.crf.model
import countquant.dsgen
import countquant.pipeline
from countquant.crf import CrfModel, TrainingProblem
from countquant.dsgen import COUNT
from countquant.kbstore import KbStore

# Span names of the four CLI stages, as "cli.<command>".
STAGES = ("cli.build_training", "cli.train", "cli.extract", "cli.evaluate")


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, document id or "")
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, doc_arg=None, on_result=None):
        """Wrap *fn* so each call records a span; *on_result* sees (args, kwargs, result)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            doc = doc_arg(args, kwargs) if doc_arg else (spans[parent][4] if stack else "")
            index = len(spans)
            spans.append((name, time.perf_counter_ns(), 0, parent, doc))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = (name, spans[index][1], time.perf_counter_ns(), parent, doc)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def stage(self, name: str):
        """Record one CLI stage as a root span."""
        index = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), 0, -1, ""))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, self.spans[index][1], time.perf_counter_ns(), -1, "")

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _patch(self, owner, attr: str, name: str, **kw) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, **kw))

    def _proxy(self, owner, attr: str, wrapped: dict[str, tuple]) -> None:
        """Replace module attribute *attr* of *owner* by a namespace with some functions wrapped."""
        module = getattr(owner, attr)
        proxy = SimpleNamespace(**{
            k: getattr(module, k) for k in dir(module) if not k.startswith("__")
        })
        for fn_name, (span_name, kw) in wrapped.items():
            setattr(proxy, fn_name, self.span(span_name, getattr(module, fn_name), **kw))
        self._patched.append((owner, attr, module))
        setattr(owner, attr, proxy)

    # -- installing --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        cli, pipeline, dsgen = countquant.cli, countquant.pipeline, countquant.dsgen
        model_mod = countquant.crf.model
        count = self.count

        def on_tokenize(args, kwargs, sentences):
            count("numlex.sentences", len(sentences))
            count("numlex.tokens", sum(len(s) for s in sentences))

        def on_preprocess(args, kwargs, sentence):
            count("numlex.mentioned_sentences", bool(sentence.mentions))
            count("numlex.mentions", len(sentence.mentions))

        def on_consolidate(args, kwargs, cq):
            labeled = args[2] if len(args) > 2 else kwargs["labeled_sentences"]
            count("consolidate.documents")
            count("consolidate.predictions", cq is not None)
            count("consolidate.candidates", sum(
                tag == COUNT and tok.mention is not None
                for ls in labeled for tok, tag in zip(ls.sentence, ls.tags)
            ))

        def on_label(args, kwargs, result):
            stats = result[1]
            for key in ("positives", "negatives", "excluded", "entropy_dropped"):
                count(f"dsgen.{key}", getattr(stats, key))

        def on_problem(args, kwargs, _):
            problem = args[0]
            count("crf.length_buckets", len(problem.buckets))
            count("crf.features", problem.n_features)

        def on_train(args, kwargs, model):
            count("crf.lbfgs_iterations", model.n_iterations)

        def on_load(args, kwargs, store):
            count("kbstore.triples", len(store.triples))

        def subject_kwarg(args, kwargs):
            return kwargs.get("subject", "")

        for module in (pipeline, dsgen):
            self._patch(module, "tokenize", "numlex.tokenize", on_result=on_tokenize)
            self._patch(module, "preprocess_sentence", "numlex.preprocess",
                        on_result=on_preprocess)
        self._patch(cli, "extract_document", "pipeline.extract_document",
                    doc_arg=lambda a, k: a[2])
        self._patch(pipeline, "decode", "crf.decode")
        self._patch(pipeline, "marginals", "crf.marginals")
        self._patch(pipeline, "consolidate", "consolidate.consolidate",
                    on_result=on_consolidate)
        self._patch(model_mod, "viterbi", "crf.viterbi")
        self._patch(model_mod, "log_forward", "crf.forward_backward")
        self._patch(model_mod, "log_backward", "crf.forward_backward")
        self._patch(CrfModel, "emissions", "crf.emissions")
        self._patch(CrfModel, "feature_ids", "crf.feature_ids")
        self._patch(TrainingProblem, "__init__", "crf.problem_build", on_result=on_problem)
        self._patch(TrainingProblem, "value_and_grad", "crf.objective_eval")
        self._patch(KbStore, "relation_subjects", "kbstore.stats")
        self._proxy(cli, "dsgen", {
            "label_subject_document": ("dsgen.label", {"doc_arg": subject_kwarg,
                                                       "on_result": on_label}),
            "write_conll": ("dsgen.conll_write", {}),
        })
        self._proxy(cli, "kbstore", {
            "load_triples": ("kbstore.load", {"on_result": on_load}),
            "popularity_percentile_cutoff": ("kbstore.stats", {}),
            "count_percentile": ("kbstore.stats", {}),
        })
        self._proxy(cli, "crf", {
            "train": ("crf.train", {"on_result": on_train}),
            "save_model": ("crf.model_save", {}),
            "load_model": ("crf.model_load", {}),
        })
        self._proxy(cli, "ev", {"score_end_to_end": ("evaluate.score", {})})
        # read_conll is a generator: time its iteration, which the CLI runs at once.
        reader = self.span("dsgen.conll_read", lambda gen: list(gen))
        original_read = countquant.dsgen.read_conll
        cli.dsgen.read_conll = lambda *a, **k: iter(reader(original_read(*a, **k)))
        return self

    def __exit__(self, *exc) -> bool:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every span, in nanoseconds."""
        selves = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selves[parent] -= end - start
        return selves

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of one traced pipeline (times in ms unless named _s)."""
        selves = self.self_times()
        ms: dict[str, float] = {}
        calls: dict[str, int] = {}
        objective_ns = []
        for (name, start, end, _, _), own in zip(self.spans, selves):
            ms[name] = ms.get(name, 0.0) + own / 1e6
            calls[name] = calls.get(name, 0) + 1
            if name == "crf.objective_eval":
                objective_ns.append(end - start)
        stage_s = {
            name: sum(e - s for n, s, e, _, _ in self.spans if n == name) / 1e9
            for name in STAGES
        }
        c = self.counts.get
        sentences = c("numlex.sentences", 0)
        mentioned = c("dsgen.positives", 0) + c("dsgen.negatives", 0)
        attempted = mentioned + c("dsgen.excluded", 0) + c("dsgen.entropy_dropped", 0)
        documents = c("consolidate.documents", 0)
        return {
            "numlex.tokenize_ms": ms.get("numlex.tokenize", 0.0),
            "numlex.preprocess_ms": ms.get("numlex.preprocess", 0.0),
            "numlex.sentences": sentences,
            "numlex.tokens": c("numlex.tokens", 0),
            "numlex.mentions": c("numlex.mentions", 0),
            "numlex.crf_sentence_ratio":
                c("numlex.mentioned_sentences", 0) / sentences if sentences else 0.0,
            "pipeline.self_ms": ms.get("pipeline.extract_document", 0.0),
            "crf.feature_ids_ms": ms.get("crf.feature_ids", 0.0),
            "crf.emissions_ms": ms.get("crf.emissions", 0.0),
            "crf.emissions_calls_per_sentence":
                calls.get("crf.emissions", 0) / calls["crf.decode"]
                if calls.get("crf.decode") else 0.0,
            "crf.viterbi_ms": ms.get("crf.viterbi", 0.0),
            "crf.forward_backward_ms": ms.get("crf.forward_backward", 0.0),
            "crf.marginals_ms": ms.get("crf.marginals", 0.0),
            "crf.decode_ms": ms.get("crf.decode", 0.0),
            "crf.model_load_ms": ms.get("crf.model_load", 0.0),
            "crf.problem_build_ms": ms.get("crf.problem_build", 0.0),
            "crf.objective_evals": calls.get("crf.objective_eval", 0),
            "crf.objective_eval_ms":
                statistics.median(objective_ns) / 1e6 if objective_ns else 0.0,
            "crf.lbfgs_self_ms": ms.get("crf.train", 0.0),
            "crf.lbfgs_iterations": c("crf.lbfgs_iterations", 0),
            "crf.features": c("crf.features", 0),
            "crf.length_buckets": c("crf.length_buckets", 0),
            "crf.model_save_ms": ms.get("crf.model_save", 0.0),
            "dsgen.label_ms": ms.get("dsgen.label", 0.0),
            "dsgen.positives": c("dsgen.positives", 0),
            "dsgen.negatives": c("dsgen.negatives", 0),
            "dsgen.excluded": c("dsgen.excluded", 0),
            "dsgen.entropy_dropped": c("dsgen.entropy_dropped", 0),
            "dsgen.kept_ratio": mentioned / attempted if attempted else 0.0,
            "dsgen.conll_write_ms": ms.get("dsgen.conll_write", 0.0),
            "dsgen.conll_read_ms": ms.get("dsgen.conll_read", 0.0),
            "kbstore.load_ms": ms.get("kbstore.load", 0.0),
            "kbstore.triples": c("kbstore.triples", 0),
            "kbstore.stats_ms": ms.get("kbstore.stats", 0.0),
            "consolidate.ms": ms.get("consolidate.consolidate", 0.0),
            "consolidate.candidates": c("consolidate.candidates", 0),
            "consolidate.predictions_ratio":
                c("consolidate.predictions", 0) / documents if documents else 0.0,
            "evaluate.ms": ms.get("evaluate.score", 0.0) + ms.get("evaluate.recognition", 0.0),
            "cli.build_training_s": stage_s["cli.build_training"],
            "cli.train_s": stage_s["cli.train"],
            "cli.extract_s": stage_s["cli.extract"],
            "cli.evaluate_s": stage_s["cli.evaluate"],
            "cli.self_ms": sum(ms.get(name, 0.0) for name in STAGES),
            "trace.spans": len(self.spans),
        }

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start_ns, end_ns, parent, doc."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, ensure_ascii=False) + "\n")
