"""Fast checks of the benchmark itself: tiny worlds, every workload, both modes."""

from __future__ import annotations

import json

import pytest

import run
import tracing
import worlds

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.05


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return {
        (name, trace): run.run_workload(name, seed=3, seconds=0, trace=trace,
                                        out_dir=out, scale=TINY)
        for name in run.WORKLOADS
        for trace in (False, True)
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_tiny_and_reports_every_metric(reports, name, trace):
    report = reports[(name, trace)]
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert set(report["metrics"]) == set(run.UNITS)
        assert report["metrics"]["fail_ratio"]["value"] == 0
        assert report["metrics"]["setup_s"]["value"] > 0
        assert set(report["digests"]) >= {"model", "training", "predictions"}


def test_traced_self_times_are_non_negative_and_within_stage_time(reports):
    report = reports[("extract-short", True)]
    with open(report["spans_file"], encoding="utf-8") as spans:
        lines = spans.read().splitlines()
    tracer = tracing.Tracer()
    tracer.spans = [tuple(json.loads(line)) for line in lines]
    selves = tracer.self_times()
    assert min(selves) >= 0

    def stage_of(i):
        while tracer.spans[i][3] >= 0:
            i = tracer.spans[i][3]
        return i

    within: dict[int, int] = {}
    for i, own in enumerate(selves):
        root = stage_of(i)
        within[root] = within.get(root, 0) + own
    stages = [i for i, span in enumerate(tracer.spans) if span[0] in tracing.STAGES]
    assert {tracer.spans[i][0] for i in stages} == set(tracing.STAGES)
    for i in stages:
        name, start, end, _, _ = tracer.spans[i]
        assert within[i] <= end - start, name
    layers = report["metrics"]
    assert layers["cli.self_ms"]["value"] >= 0
    assert layers["crf.emissions_calls_per_sentence"]["value"] == 2.0


@pytest.mark.parametrize("style", ["short", "long"])
def test_generator_is_byte_deterministic(style, tmp_path):
    def files(seed, name):
        root = tmp_path / name
        root.mkdir()
        paths = worlds.write_world(worlds.generate_world(style, 30, seed), root, 20)
        return {k: p.read_bytes() for k, p in paths.items()}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a2") != files(6, "c")


def test_long_world_has_varied_lengths_and_gold_tags():
    from countquant.numlex import load_default_lexicon

    subjects = worlds.generate_world("long", 40, 1)
    props = worlds.corpus_properties(subjects)
    assert props["min_sentence_length"] <= 4 and props["max_sentence_length"] >= 40
    assert props["distinct_sentence_lengths"] >= 30
    lex = load_default_lexicon()
    tagged = [ls for s in subjects for ls in worlds.gold_labeled_sentences(s, lex, True)]
    assert len(tagged) >= len(subjects)
