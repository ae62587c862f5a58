"""Command-line pipeline: build-training, train, extract, evaluate, enrich.

Every command is a batch step reading and writing plain files, rerunnable
and deterministic given identical inputs (worker count only affects wall
time, never output). Options can come from a ``key = value`` config file
via ``--config``, which becomes every command's Click ``default_map``: a
key is an option's parameter name, explicit flags win, and config values
pass the same type and range checks as flags. A key that no command
defines is rejected with its ``file:line``.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Optional

import click

from . import crf, dsgen, evaluate as ev, kbstore
from .dsgen import SeedPolicy, load_corpus
from .kbstore import Relation
from .numlex import load_default_lexicon, load_lexicon
from .pipeline import extract_document
from .reader import InputError, finite_number, json_fields, read_file, read_keyed, read_lines


def parse_relation(spec: str) -> Relation:
    """Parse ``subject_class:property`` or ``subject_class:property:label``."""
    parts = spec.split(":")
    if len(parts) in (2, 3):
        try:
            return Relation(*parts)
        except ValueError as exc:
            raise click.BadParameter(f"{exc}, got {spec!r}") from exc
    raise click.BadParameter(
        f"relation must be subject_class:property[:label], got {spec!r}"
    )


def load_config(path: str, known: set[str]) -> dict[str, str]:
    """``key = value`` lines; a key is the parameter name of some command's option, named once."""
    config: dict[str, str] = {}
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(path, "expected key = value", lineno)
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise InputError(path, f"unknown key '{key}'", lineno)
        if key in config:
            raise InputError(path, f"duplicate key '{key}'", lineno)
        config[key] = value.strip()
    return config


class _FiniteFloatRange(click.FloatRange):
    """A ``click.FloatRange`` that also rejects infinity and NaN (NaN passes every bound)."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return number


class _Main(click.Group):
    """The command group: a bad input file exits 1 with its ``file[:line]`` message."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except InputError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              help="key = value config file")
@click.pass_context
def main(ctx: click.Context, config: Optional[str]) -> None:
    """Counting-quantifier extraction pipeline."""
    if config:
        known = {param.name for cmd in main.commands.values() for param in cmd.params}
        values = load_config(config, known)
        ctx.default_map = {name: values for name in main.commands}


# A pool worker receives the task function once, through its initializer,
# so the lexicon and model bound into it are not pickled again per task.
# Only worker processes set it.
_worker_fn = None


def _set_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _run_worker_fn(task):
    return _worker_fn(task)


def _pool_map(fn, tasks, workers):
    """``[fn(t) for t in tasks]`` in task order, over *workers* processes when more than one."""
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_worker_fn, initargs=(fn,)
    ) as pool:
        return list(pool.map(_run_worker_fn, tasks, chunksize=8))


def _label_task(upper_bound, lexicon, policy, relation, task):
    subject, text, kb_count = task
    return dsgen.label_subject_document(
        text, kb_count, upper_bound, lexicon, policy, subject=subject, relation=relation
    )


def _extract_task(model, lexicon, threshold, zero_mode, relation, task):
    """The subject's prediction as one JSON line, or None."""
    subject, text = task
    cq = extract_document(
        model, lexicon, subject, text,
        relation=relation, threshold=threshold, zero_mode=zero_mode,
    )
    return json.dumps(cq.to_json_dict(), sort_keys=True, ensure_ascii=False) if cq else None


@main.command("build-training")
@click.option("--kb", required=True)
@click.option("--corpus", required=True)
@click.option("--relation", required=True)
@click.option("--out", "training", default="training.conll")
@click.option("--lexicon-dir")
@click.option("--popularity-top", type=_FiniteFloatRange(0, 1, min_open=True), default=1.0)
@click.option("--upper-bound-q", type=_FiniteFloatRange(0, 1), default=0.99)
@click.option("--entropy-min", type=_FiniteFloatRange(min=0), default=0.5)
@click.option("--workers", type=click.IntRange(min=1), default=1)
def cmd_build_training(kb, corpus, relation, training, lexicon_dir,
                       popularity_top, upper_bound_q, entropy_min, workers):
    """Generate a CoNLL-style training file from KB counts and a corpus."""
    rel = parse_relation(relation)
    lexicon = load_lexicon(lexicon_dir) if lexicon_dir else load_default_lexicon()
    policy = SeedPolicy(
        popularity_top_fraction=popularity_top,
        upper_bound_q=upper_bound_q,
        entropy_threshold=entropy_min,
    )
    store = kbstore.load_triples(kb)
    documents = load_corpus(corpus)

    upper_bound, selection = dsgen.select_subjects(store, documents, rel, policy)
    if not selection:
        raise click.ClickException(
            f"no subjects of relation {rel.label} found in both KB and corpus"
        )
    labeled, stats = dsgen.join_documents(
        _pool_map(partial(_label_task, upper_bound, lexicon, policy, rel), selection, workers)
    )
    dsgen.write_conll(labeled, training)
    click.echo(f"wrote {training}: {len(labeled)} sentences ({stats.summary()})")
    if not labeled:
        click.echo(f"warning: relation {rel.label}: empty training set", err=True)


@main.command("train")
@click.option("--training", default="training.conll")
@click.option("--model", default="model.json")
@click.option("--relation")
@click.option("--l2-sigma", type=_FiniteFloatRange(0, min_open=True), default=1.0)
@click.option("--max-iter", type=click.IntRange(min=1), default=300)
@click.option("--feature-cutoff", type=click.IntRange(min=1), default=2)
def cmd_train(training, model, relation, l2_sigma, max_iter, feature_cutoff):
    """Train a CRF on a CoNLL training file."""
    rel = parse_relation(relation) if relation else None
    examples = list(dsgen.read_conll(training))
    if not examples:
        raise InputError(training, "no sentences")
    try:
        fitted = crf.train(
            examples,
            l2_sigma=l2_sigma,
            max_iter=max_iter,
            feature_cutoff=feature_cutoff,
            relation=rel.__dict__ if rel else None,
        )
    except crf.DegenerateTrainingError as exc:
        raise click.ClickException(str(exc)) from exc
    crf.save_model(fitted, model)
    click.echo(
        f"wrote {model}: {len(fitted.weights)} features, "
        f"objective {fitted.final_objective:.4f} after {fitted.n_iterations} iterations"
    )


@main.command("extract")
@click.option("--model", default="model.json")
@click.option("--corpus", required=True)
@click.option("--relation")
@click.option("--out", "predictions", default="predictions.jsonl")
@click.option("--lexicon-dir")
@click.option("--threshold", type=_FiniteFloatRange(0, 1), default=0.1)
@click.option("--zero-mode", is_flag=True)
@click.option("--workers", type=click.IntRange(min=1), default=1)
def cmd_extract(model, corpus, relation, predictions, lexicon_dir, threshold, zero_mode, workers):
    """Extract counting quantifiers from documents; JSON-lines output."""
    rel = parse_relation(relation) if relation else None
    lexicon = load_lexicon(lexicon_dir) if lexicon_dir else load_default_lexicon()
    fitted = crf.load_model(model)
    documents = load_corpus(corpus)

    tasks = sorted(documents.items())
    extract = partial(_extract_task, fitted, lexicon, threshold, zero_mode, rel)
    lines = [line for line in _pool_map(extract, tasks, workers) if line is not None]
    Path(predictions).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    click.echo(f"wrote {predictions}: {len(lines)} predictions for {len(tasks)} subjects")


def _count(field) -> int:
    """A count field as an int; a count below zero is malformed."""
    count = int(field)
    if count < 0:
        raise ValueError(f"negative count {count}")
    return count


def _load_predictions(path: str) -> dict[str, int]:
    """``{subject: count}`` of a predictions file written by ``extract``."""
    def record(line: str) -> tuple[str, int]:
        subject, count, confidence = json_fields(line, "subject", "count", "confidence")
        if not isinstance(subject, str):
            raise ValueError(f"subject must be a string, got {subject!r}")
        if not subject.strip():
            raise ValueError("empty subject")
        if not isinstance(count, int) or isinstance(count, bool):
            raise ValueError(f"count must be an integer, got {count!r}")
        finite_number(confidence, "confidence")
        return subject.strip(), _count(count)

    return read_keyed(path, record, "bad prediction record")


def _load_gold_counts(path: str) -> dict[str, int]:
    def record(line: str) -> Optional[tuple[str, int]]:
        if line.startswith("#"):
            return None
        subject, count = line.split("\t")
        if not subject.strip():
            raise ValueError("empty subject")
        return subject.strip(), _count(count)

    return read_keyed(path, record, "expected subject<TAB>count")


@main.command("evaluate")
@click.option("--pred", "predictions", help="predictions JSON-lines")
@click.option("--gold", help="gold counts TSV")
@click.option("--gold-conll", help="gold tags (recognition)")
@click.option("--pred-conll", help="predicted tags (recognition)")
@click.option("--out", "metrics", default="metrics.json")
@click.option("--table", is_flag=True)
def cmd_evaluate(predictions, gold, gold_conll, pred_conll, metrics, table):
    """Score predictions: end-to-end against gold counts, or tag-level."""
    for names, values in (
        (("--pred", "--gold"), (predictions, gold)),
        (("--gold-conll", "--pred-conll"), (gold_conll, pred_conll)),
    ):
        if any(values) and not all(values):
            given, missing = names if values[0] else names[::-1]
            raise click.UsageError(f"{given} needs {missing}")
    scores: dict = {}
    if predictions and gold:
        predicted = _load_predictions(predictions)
        gold_counts = _load_gold_counts(gold)
        if not gold_counts:
            raise InputError(gold, "no gold counts")
        score = ev.score_end_to_end(gold_counts, predicted)
        scores["end_to_end"] = score.to_json_dict()
        if table:
            click.echo(ev.render_table(
                ["precision", "coverage", "mae"],
                [[f"{score.precision:.3f}", f"{score.coverage:.3f}",
                  "n/a" if score.mae is None else f"{score.mae:.3f}"]],
            ))
    if gold_conll and pred_conll:
        gold_seqs = list(dsgen.read_conll(gold_conll))
        if not gold_seqs:
            raise InputError(gold_conll, "no sentences")
        pred_seqs = list(dsgen.read_conll(pred_conll))
        try:
            recognition = ev.score_tags(
                [s for s, _ in gold_seqs], [t for _, t in gold_seqs], [t for _, t in pred_seqs]
            )
            for i, ((g_syms, _), (p_syms, _)) in enumerate(zip(gold_seqs, pred_seqs), 1):
                for j, (g, p) in enumerate(zip(g_syms, p_syms), 1):
                    if g != p:
                        raise ValueError(f"sentence {i}, token {j}: gold placeholder {g!r} "
                                         f"but predicted {p!r}")
        except ValueError as exc:
            raise click.ClickException(
                f"{pred_conll} does not match {gold_conll}: {exc}"
            ) from exc
        scores["recognition"] = recognition.to_json_dict()
    if not scores:
        raise click.ClickException(
            "nothing to evaluate: pass --pred/--gold and/or --gold-conll/--pred-conll"
        )
    Path(metrics).write_text(
        json.dumps(scores, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    click.echo(f"wrote {metrics}")


@main.command("analyze-popularity")
@click.option("--kb", required=True)
@click.option("--relation", required=True)
@click.option("--gold", required=True, help="manual gold counts TSV")
@click.option("--out", "popularity_report", default="popularity.json")
def cmd_analyze_popularity(kb, relation, gold, popularity_report):
    """Report the KB-vs-truth count gap per popularity band.

    Shows how much the stored counts undershoot a manual ground truth for
    the most popular 1%/10%/20% of subjects, which is the evidence for (or
    against) restricting training to popular subjects.
    """
    rel = parse_relation(relation)
    store = kbstore.load_triples(kb)
    gold_counts = _load_gold_counts(gold)
    rows = kbstore.popularity_completeness_report(store, rel, gold_counts)
    click.echo(ev.render_table(
        ["top fraction", "subjects", "mean gap (truth - KB)"],
        [[f"{r['top_fraction']:.2f}", r["subjects"], f"{r['mean_gap']:.2f}"] for r in rows],
    ))
    Path(popularity_report).write_text(
        json.dumps({"relation": rel.label, "bands": rows}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _load_end_to_end_score(path: str) -> ev.EndToEndScore:
    """The ``end_to_end`` scores of a metrics file written by ``evaluate``."""
    text = read_file(path)
    try:
        metrics = json.loads(text)
        e2e = metrics.get("end_to_end") if isinstance(metrics, dict) else None
        if not isinstance(e2e, dict):
            raise ValueError("no end_to_end object")
        return ev.EndToEndScore(
            precision=finite_number(e2e["precision"], "precision"),
            coverage=finite_number(e2e["coverage"], "coverage"),
            mae=None if e2e["mae"] is None else finite_number(e2e["mae"], "mae"),
        )
    except KeyError as exc:
        raise InputError(path, f"bad metrics file: end_to_end lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(path, f"bad metrics file: {exc}") from exc


@main.command("enrich")
@click.option("--kb", required=True)
@click.option("--relation", required=True)
@click.option("--pred", "predictions", required=True)
@click.option("--metrics", default="metrics.json")
@click.option("--out", "enrichment", default="enrichment.json")
@click.option("--min-precision", type=_FiniteFloatRange(0, 1), default=0.5)
@click.option("--min-coverage", type=_FiniteFloatRange(0, 1), default=0.05)
def cmd_enrich(kb, relation, predictions, metrics, enrichment, min_precision, min_coverage):
    """KB-enrichment accounting, gated on held-out evaluation quality."""
    rel = parse_relation(relation)
    store = kbstore.load_triples(kb)
    predicted = _load_predictions(predictions)
    score = _load_end_to_end_score(metrics)
    report = ev.enrichment_report(
        store, rel, predicted, score,
        min_precision=min_precision, min_coverage=min_coverage,
    )
    if report is None:
        payload = {
            "emitted": False,
            "relation": rel.label,
            "reason": (
                f"needs precision > {min_precision} and coverage > {min_coverage}; "
                f"got {score.precision:.3f} / {score.coverage:.3f}"
            ),
        }
        click.echo(f"suppressed: {payload['reason']}")
    else:
        payload = {"emitted": True, "report": report.to_json_dict()}
        increase = report.kb_increase
        growth = "no existing facts" if increase is None else f"{100 * increase:.1f}% increase"
        click.echo(
            f"relation {rel.label}: {report.missing_facts} missing vs "
            f"{report.existing_facts} existing facts ({growth})"
        )
    Path(enrichment).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
