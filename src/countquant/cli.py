"""Command-line pipeline: build-training, train, extract, evaluate, enrich.

Every command is a batch step reading and writing plain files, rerunnable
and deterministic given identical inputs (worker count only affects wall
time, never output). Options can come from a ``key = value`` config file
via ``--config``; explicit flags win over config values.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

import click

from . import crf, dsgen, evaluate as ev, kbstore
from .consolidate import CountingQuantifier
from .dsgen import Corpus, GenerationStats, SeedPolicy
from .kbstore import Relation
from .numlex import load_default_lexicon, load_lexicon
from .pipeline import extract_document


def parse_relation(spec: str) -> Relation:
    """Parse ``subject_class:property`` or ``subject_class:property:label``."""
    parts = spec.split(":")
    if len(parts) == 2:
        return Relation(subject_class=parts[0], property=parts[1])
    if len(parts) == 3:
        return Relation(subject_class=parts[0], property=parts[1], label=parts[2])
    raise click.BadParameter(
        f"relation must be subject_class:property[:label], got {spec!r}"
    )


def load_config(path: Optional[str]) -> dict[str, str]:
    if not path:
        return {}
    config: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.ClickException(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def resolve(cli_value, config: dict, key: str, default, cast):
    """Flag > config file > default."""
    if cli_value is not None:
        return cli_value
    if key in config:
        raw = config[key]
        if cast is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        return cast(raw)
    return default


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise click.ClickException(f"{what} file not found: {path}")
    return p


def _read_input(loader, path: str, what: str):
    """``loader(path)`` on an existing file; a malformed line exits without a traceback."""
    try:
        return loader(_require_file(path, what))
    except ValueError as exc:  # loaders report the bad line as "file:line: ..."
        raise click.ClickException(str(exc)) from exc


def _read_conll(path: str, what: str) -> list[tuple[list[str], list[str]]]:
    return _read_input(lambda p: list(dsgen.read_conll(p)), path, what)


def _load_lexicon(lexicon_dir: Optional[str]):
    return load_lexicon(lexicon_dir) if lexicon_dir else load_default_lexicon()


@click.group()
@click.option("--config", "config_path", type=str, default=None, help="key = value config file")
@click.pass_context
def main(ctx: click.Context, config_path: Optional[str]) -> None:
    """Counting-quantifier extraction pipeline."""
    ctx.obj = load_config(config_path)


# Per-process state for worker pools; initialized once per worker so large
# objects are not re-pickled for every task.
_STATE: dict = {}


def _init_label_worker(lexicon_dir, upper_bound, policy, relation):
    _STATE["lexicon"] = _load_lexicon(lexicon_dir)
    _STATE["upper_bound"] = upper_bound
    _STATE["policy"] = policy
    _STATE["relation"] = relation


def _label_one(task):
    subject, text, kb_count = task
    return dsgen.label_subject_document(
        text,
        kb_count,
        _STATE["upper_bound"],
        _STATE["lexicon"],
        _STATE["policy"],
        subject=subject,
        relation=_STATE["relation"],
    )


def _init_extract_worker(model_path, lexicon_dir, threshold, zero_mode, relation):
    _STATE["model"] = crf.load_model(model_path)
    _STATE["lexicon"] = _load_lexicon(lexicon_dir)
    _STATE["threshold"] = threshold
    _STATE["zero_mode"] = zero_mode
    _STATE["relation"] = relation


def _extract_one(task):
    subject, text = task
    cq = extract_document(
        _STATE["model"],
        _STATE["lexicon"],
        subject,
        text,
        relation=_STATE["relation"],
        threshold=_STATE["threshold"],
        zero_mode=_STATE["zero_mode"],
    )
    return subject, (cq.to_json_dict() if cq else None)


def _pool_map(fn, tasks, workers, initializer, initargs):
    """Map preserving task order; inline when workers == 1."""
    if workers <= 1:
        initializer(*initargs)
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    ) as pool:
        return list(pool.map(fn, tasks, chunksize=8))


@main.command("build-training")
@click.option("--kb", "kb_path", type=str, default=None)
@click.option("--corpus", "corpus_path", type=str, default=None)
@click.option("--relation", "relation_spec", type=str, default=None)
@click.option("--out", "out_path", type=str, default=None)
@click.option("--lexicon-dir", type=str, default=None)
@click.option("--popularity-top", type=float, default=None)
@click.option("--upper-bound-q", type=float, default=None)
@click.option("--entropy-min", type=float, default=None)
@click.option("--workers", type=int, default=None)
@click.pass_context
def cmd_build_training(ctx, kb_path, corpus_path, relation_spec, out_path,
                       lexicon_dir, popularity_top, upper_bound_q, entropy_min, workers):
    """Generate a CoNLL-style training file from KB counts and a corpus."""
    cfg = ctx.obj or {}
    kb_path = resolve(kb_path, cfg, "kb", None, str)
    corpus_path = resolve(corpus_path, cfg, "corpus", None, str)
    relation_spec = resolve(relation_spec, cfg, "relation", None, str)
    out_path = resolve(out_path, cfg, "training", "training.conll", str)
    lexicon_dir = resolve(lexicon_dir, cfg, "lexicon_dir", None, str)
    policy = SeedPolicy(
        popularity_top_fraction=resolve(popularity_top, cfg, "popularity_top", 1.0, float),
        upper_bound_q=resolve(upper_bound_q, cfg, "upper_bound_q", 0.99, float),
        entropy_threshold=resolve(entropy_min, cfg, "entropy_min", 0.5, float),
    )
    workers = resolve(workers, cfg, "workers", 1, int)
    if not kb_path or not corpus_path or not relation_spec:
        raise click.ClickException("--kb, --corpus and --relation are required")

    store = kbstore.load_triples(_require_file(kb_path, "KB"))
    corpus = _read_input(Corpus.load, corpus_path, "corpus")
    rel = parse_relation(relation_spec)

    upper_bound, selection = dsgen.select_subjects(store, corpus, rel, policy)
    if not selection:
        raise click.ClickException(
            f"no subjects of relation {rel.label} found in both KB and corpus"
        )
    results = _pool_map(
        _label_one, selection, workers, _init_label_worker,
        (lexicon_dir, upper_bound, policy, rel),
    )
    labeled = [ls for sentences, _ in results for ls in sentences]
    stats = sum((s for _, s in results), GenerationStats())
    dsgen.write_conll(labeled, out_path)
    click.echo(f"wrote {out_path}: {len(labeled)} sentences ({stats.summary()})")
    for warning in stats.warnings:
        click.echo(f"warning: {warning}", err=True)


@main.command("train")
@click.option("--training", "training_path", type=str, default=None)
@click.option("--model", "model_path", type=str, default=None)
@click.option("--relation", "relation_spec", type=str, default=None)
@click.option("--l2-sigma", type=float, default=None)
@click.option("--max-iter", type=int, default=None)
@click.option("--feature-cutoff", type=int, default=None)
@click.pass_context
def cmd_train(ctx, training_path, model_path, relation_spec, l2_sigma, max_iter, feature_cutoff):
    """Train a CRF on a CoNLL training file."""
    cfg = ctx.obj or {}
    training_path = resolve(training_path, cfg, "training", "training.conll", str)
    model_path = resolve(model_path, cfg, "model", "model.json", str)
    relation_spec = resolve(relation_spec, cfg, "relation", None, str)
    l2_sigma = resolve(l2_sigma, cfg, "l2_sigma", 1.0, float)
    max_iter = resolve(max_iter, cfg, "max_iter", 300, int)
    feature_cutoff = resolve(feature_cutoff, cfg, "feature_cutoff", 2, int)

    examples = _read_conll(training_path, "training")
    if not examples:
        raise click.ClickException(f"no sentences in {training_path}")
    relation = parse_relation(relation_spec).__dict__ if relation_spec else None
    try:
        model = crf.train(
            examples,
            l2_sigma=l2_sigma,
            max_iter=max_iter,
            feature_cutoff=feature_cutoff,
            relation=relation,
        )
    except crf.DegenerateTrainingError as exc:
        raise click.ClickException(str(exc)) from exc
    crf.save_model(model, model_path)
    click.echo(
        f"wrote {model_path}: {len(model.feature_index)} features, "
        f"objective {model.final_objective:.4f} after {model.n_iterations} iterations"
    )


@main.command("extract")
@click.option("--model", "model_path", type=str, default=None)
@click.option("--corpus", "corpus_path", type=str, default=None)
@click.option("--relation", "relation_spec", type=str, default=None)
@click.option("--out", "out_path", type=str, default=None)
@click.option("--lexicon-dir", type=str, default=None)
@click.option("--threshold", type=float, default=None)
@click.option("--zero-mode", is_flag=True, default=None)
@click.option("--workers", type=int, default=None)
@click.pass_context
def cmd_extract(ctx, model_path, corpus_path, relation_spec, out_path,
                lexicon_dir, threshold, zero_mode, workers):
    """Extract counting quantifiers from documents; JSON-lines output."""
    cfg = ctx.obj or {}
    model_path = resolve(model_path, cfg, "model", "model.json", str)
    corpus_path = resolve(corpus_path, cfg, "corpus", None, str)
    relation_spec = resolve(relation_spec, cfg, "relation", None, str)
    out_path = resolve(out_path, cfg, "predictions", "predictions.jsonl", str)
    lexicon_dir = resolve(lexicon_dir, cfg, "lexicon_dir", None, str)
    threshold = resolve(threshold, cfg, "threshold", 0.1, float)
    zero_mode = resolve(zero_mode, cfg, "zero_mode", False, bool)
    workers = resolve(workers, cfg, "workers", 1, int)
    if not corpus_path:
        raise click.ClickException("--corpus is required")

    _require_file(model_path, "model")
    corpus = _read_input(Corpus.load, corpus_path, "corpus")
    relation = parse_relation(relation_spec) if relation_spec else None

    tasks = [(s, corpus[s]) for s in corpus.subjects()]
    results = _pool_map(
        _extract_one,
        tasks,
        workers,
        _init_extract_worker,
        (model_path, lexicon_dir, threshold, zero_mode, relation),
    )
    lines = [
        json.dumps(cq_dict, sort_keys=True, ensure_ascii=False)
        for _, cq_dict in results
        if cq_dict is not None
    ]
    Path(out_path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    click.echo(f"wrote {out_path}: {len(lines)} predictions for {len(tasks)} subjects")


def _load_predictions(path: Path) -> dict[str, CountingQuantifier]:
    predictions: dict[str, CountingQuantifier] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            subject = str(record["subject"])
            predictions[subject] = CountingQuantifier(
                subject=subject,
                relation=None,
                count=int(record["count"]),
                confidence=float(record["confidence"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise click.ClickException(f"{path}:{lineno}: bad prediction record: {exc}") from exc
    return predictions


def _load_gold_counts(path: Path) -> dict[str, int]:
    gold: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            subject, count = line.split("\t")
            gold[subject] = int(count)
        except ValueError as exc:
            raise click.ClickException(f"{path}:{lineno}: expected subject<TAB>count") from exc
    return gold


@main.command("evaluate")
@click.option("--pred", "pred_path", type=str, default=None, help="predictions JSON-lines")
@click.option("--gold", "gold_path", type=str, default=None, help="gold counts TSV")
@click.option("--gold-conll", type=str, default=None, help="gold tags (recognition)")
@click.option("--pred-conll", type=str, default=None, help="predicted tags (recognition)")
@click.option("--out", "out_path", type=str, default=None)
@click.option("--table", "show_table", is_flag=True, default=False)
@click.pass_context
def cmd_evaluate(ctx, pred_path, gold_path, gold_conll, pred_conll, out_path, show_table):
    """Score predictions: end-to-end against gold counts, or tag-level."""
    cfg = ctx.obj or {}
    pred_path = resolve(pred_path, cfg, "predictions", None, str)
    gold_path = resolve(gold_path, cfg, "gold", None, str)
    out_path = resolve(out_path, cfg, "metrics", "metrics.json", str)

    metrics: dict = {}
    if pred_path and gold_path:
        predictions = _load_predictions(_require_file(pred_path, "predictions"))
        gold = _load_gold_counts(_require_file(gold_path, "gold counts"))
        if not gold:
            raise click.ClickException(f"no gold counts in {gold_path}")
        score = ev.score_end_to_end(gold, predictions)
        metrics["end_to_end"] = score.to_json_dict()
        if show_table:
            click.echo(ev.render_table(
                ["precision", "coverage", "mae"],
                [[f"{score.precision:.3f}", f"{score.coverage:.3f}", f"{score.mae:.3f}"]],
            ))
    if gold_conll and pred_conll:
        gold_seqs = _read_conll(gold_conll, "gold tags")
        pred_seqs = _read_conll(pred_conll, "predicted tags")
        if len(gold_seqs) != len(pred_seqs):
            raise click.ClickException("gold and predicted tag files differ in sentence count")
        tp = n_pred = n_gold = 0
        for (_, g_tags), (_, p_tags) in zip(gold_seqs, pred_seqs):
            if len(g_tags) != len(p_tags):
                raise click.ClickException("sentence length mismatch between tag files")
            n_gold += sum(t == dsgen.COUNT for t in g_tags)
            n_pred += sum(t == dsgen.COUNT for t in p_tags)
            tp += sum(g == p == dsgen.COUNT for g, p in zip(g_tags, p_tags))
        precision, recall, f1 = ev.prf(tp, n_pred, n_gold)
        metrics["recognition"] = {
            "precision": round(precision, 4),
            "recall": round(recall, 4),
            "f1": round(f1, 4),
        }
    if not metrics:
        raise click.ClickException(
            "nothing to evaluate: pass --pred/--gold and/or --gold-conll/--pred-conll"
        )
    Path(out_path).write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    click.echo(f"wrote {out_path}")


@main.command("analyze-popularity")
@click.option("--kb", "kb_path", type=str, default=None)
@click.option("--relation", "relation_spec", type=str, default=None)
@click.option("--gold", "gold_path", type=str, default=None, help="manual gold counts TSV")
@click.option("--out", "out_path", type=str, default=None)
@click.pass_context
def cmd_analyze_popularity(ctx, kb_path, relation_spec, gold_path, out_path):
    """Report the KB-vs-truth count gap per popularity band.

    Shows how much the stored counts undershoot a manual ground truth for
    the most popular 1%/10%/20% of subjects, which is the evidence for (or
    against) restricting training to popular subjects.
    """
    cfg = ctx.obj or {}
    kb_path = resolve(kb_path, cfg, "kb", None, str)
    relation_spec = resolve(relation_spec, cfg, "relation", None, str)
    gold_path = resolve(gold_path, cfg, "gold", None, str)
    out_path = resolve(out_path, cfg, "popularity_report", "popularity.json", str)
    if not kb_path or not relation_spec or not gold_path:
        raise click.ClickException("--kb, --relation and --gold are required")
    store = kbstore.load_triples(_require_file(kb_path, "KB"))
    rel = parse_relation(relation_spec)
    gold = _load_gold_counts(_require_file(gold_path, "gold counts"))
    rows = kbstore.popularity_completeness_report(store, rel, gold)
    click.echo(ev.render_table(
        ["top fraction", "subjects", "mean gap (truth - KB)"],
        [[f"{r['top_fraction']:.2f}", r["subjects"], f"{r['mean_gap']:.2f}"] for r in rows],
    ))
    Path(out_path).write_text(
        json.dumps({"relation": rel.label, "bands": rows}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@main.command("enrich")
@click.option("--kb", "kb_path", type=str, default=None)
@click.option("--relation", "relation_spec", type=str, default=None)
@click.option("--pred", "pred_path", type=str, default=None)
@click.option("--metrics", "metrics_path", type=str, default=None)
@click.option("--out", "out_path", type=str, default=None)
@click.option("--min-precision", type=float, default=None)
@click.option("--min-coverage", type=float, default=None)
@click.pass_context
def cmd_enrich(ctx, kb_path, relation_spec, pred_path, metrics_path, out_path,
               min_precision, min_coverage):
    """KB-enrichment accounting, gated on held-out evaluation quality."""
    cfg = ctx.obj or {}
    kb_path = resolve(kb_path, cfg, "kb", None, str)
    relation_spec = resolve(relation_spec, cfg, "relation", None, str)
    pred_path = resolve(pred_path, cfg, "predictions", None, str)
    metrics_path = resolve(metrics_path, cfg, "metrics", "metrics.json", str)
    out_path = resolve(out_path, cfg, "enrichment", "enrichment.json", str)
    min_precision = resolve(min_precision, cfg, "min_precision", 0.5, float)
    min_coverage = resolve(min_coverage, cfg, "min_coverage", 0.05, float)
    if not kb_path or not relation_spec or not pred_path:
        raise click.ClickException("--kb, --relation and --pred are required")

    store = kbstore.load_triples(_require_file(kb_path, "KB"))
    rel = parse_relation(relation_spec)
    predictions = _load_predictions(_require_file(pred_path, "predictions"))
    metrics = json.loads(_require_file(metrics_path, "metrics").read_text(encoding="utf-8"))
    e2e = metrics.get("end_to_end")
    if not e2e:
        raise click.ClickException(f"{metrics_path} lacks an end_to_end section")
    score = ev.EndToEndScore(
        precision=float(e2e["precision"]),
        coverage=float(e2e["coverage"]),
        mae=float(e2e["mae"]),
    )
    report = ev.enrichment_report(
        store, rel, predictions, score,
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
        click.echo(
            f"relation {rel.label}: {report.missing_facts} missing vs "
            f"{report.existing_facts} existing facts "
            f"({100 * report.kb_increase:.1f}% increase)"
        )
    Path(out_path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
