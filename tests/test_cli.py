import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from rankexplain import cli
from rankexplain import (
    BM25Ranker,
    ListwiseParams,
    PointwiseParams,
    Query,
    RankerParams,
    SamplerConfig,
    build_index,
    explain_listwise,
    lirme_explain,
    load_from_res,
    rank,
    read_corpus_jsonl,
)
from rankexplain.datasets import demo_corpus_path

from conftest import index_file_bytes, read_index_file


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    index_path = root / "demo.idx"
    run_path = root / "demo.trec"
    assert cli.run(["index", "--corpus", "demo", "--out", str(index_path)]) == 0
    assert cli.run(["rank", "--index", str(index_path), "--topics", "demo",
                    "--model", "bm25", "--depth", "10", "--out", str(run_path)]) == 0
    return root, index_path, run_path


def test_index_summary_line(tmp_path, capsys):
    out = tmp_path / "x.idx"
    assert cli.run(["index", "--corpus", "demo", "--out", str(out)]) == 0
    assert "20 docs" in capsys.readouterr().out


def test_index_reproducible(tmp_path):
    a = tmp_path / "a.idx"
    b = tmp_path / "b.idx"
    cli.run(["index", "--corpus", "demo", "--out", str(a)])
    cli.run(["index", "--corpus", "demo", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_index_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{}\n")
    assert cli.run(["index", "--corpus", str(bad), "--out", str(tmp_path / "x.idx")]) == 1
    assert ":1" in capsys.readouterr().err


# Each case maps a valid index file's header to a malformed one; the body stays.
_MALFORMED_INDEX = {
    "top-level-list": lambda data: [data],
    "no-docids": lambda data: {key: value for key, value in data.items() if key != "docids"},
    "no-lengths": lambda data: {key: value for key, value in data.items() if key != "lengths"},
    "vocabulary-descending": lambda data: {**data, "vocabulary": data["vocabulary"][::-1]},
    "lengths-not-list": lambda data: {**data, "lengths": "3 1"},
    "lengths-bool": lambda data: {**data, "lengths": [True, *data["lengths"][1:]]},
    "lengths-float": lambda data: {**data, "lengths": [float(data["lengths"][0]), *data["lengths"][1:]]},
    "lengths-negative": lambda data: {**data, "lengths": [-1, sum(data["lengths"][:2]) + 1, *data["lengths"][2:]]},
    "lengths-one-short": lambda data: {**data, "lengths": data["lengths"][:-1]},
    "docids-unsorted": lambda data: {**data, "docids": data["docids"][::-1]},
    "docids-repeated": lambda data: {**data, "docids": data["docids"][:1] + data["docids"][:-1]},
    "config-not-object": lambda data: {**data, "config": 5},
    "pattern-does-not-compile": lambda data: {**data, "config": {**data["config"], "token_pattern": "("}},
    "lowercase-string": lambda data: {**data, "config": {**data["config"], "lowercase": "no"}},
    "stopwords-string": lambda data: {**data, "config": {**data["config"], "stopwords": "the"}},
    "pattern-capture-groups": lambda data: {**data, "config": {**data["config"], "token_pattern": "(a)(b)"}},
}

# Each case maps a valid index file's header line and body to the bytes of a malformed file.
_MALFORMED_INDEX_BYTES = {
    "body-truncated": lambda line, body: line + body[:-1],
    "body-trailing-bytes": lambda line, body: line + body + b"\0\0\0\0",
    "header-without-newline": lambda line, body: line[:-1],
    "header-not-utf-8": lambda line, body: b"\xff" + line + body,
    "header-not-json": lambda line, body: b"not json\n" + body,
}


def _assert_the_index_file_exits_1(bad: Path, capsys):
    assert cli.run(["explain", "pointwise", "--index", str(bad), "--topics", "demo",
                    "--qid", "1", "--docid", "T1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("case", sorted(_MALFORMED_INDEX))
def test_malformed_index_file_exits_1(workspace, tmp_path, capsys, case):
    _, index_path, _ = workspace
    header, body = read_index_file(index_path)
    bad = tmp_path / "bad.idx"
    bad.write_bytes(index_file_bytes(_MALFORMED_INDEX[case](header), body))
    _assert_the_index_file_exits_1(bad, capsys)


@pytest.mark.parametrize("case", sorted(_MALFORMED_INDEX_BYTES))
def test_malformed_index_file_bytes_exit_1(workspace, tmp_path, capsys, case):
    _, index_path, _ = workspace
    line, _, body = index_path.read_bytes().partition(b"\n")
    bad = tmp_path / "bad.idx"
    bad.write_bytes(_MALFORMED_INDEX_BYTES[case](line + b"\n", body))
    _assert_the_index_file_exits_1(bad, capsys)


@pytest.mark.parametrize("line,field", [
    pytest.param('{"docid": null, "text": "apple pear"}', "docid", id="docid-null"),
    pytest.param('{"docid": "a", "text": ["apple", "pear"]}', "text", id="text-list"),
])
def test_malformed_corpus_line_exits_1(tmp_path, capsys, line, field):
    corpus, out = tmp_path / "bad.jsonl", tmp_path / "x.idx"
    corpus.write_text(line + "\n")
    assert cli.run(["index", "--corpus", str(corpus), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f'error: {corpus}:1: "{field}" must be')
    assert captured.out == "" and not out.exists()


def test_whitespace_ids_exit_1_before_a_run_file_is_written(workspace, tmp_path, capsys):
    # A docid or qid with whitespace would write run lines that load_from_res cannot split.
    _, index_path, _ = workspace
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"docid": "a b", "text": "cat dog"}\n')
    assert cli.run(["index", "--corpus", str(corpus), "--out", str(tmp_path / "x.idx")]) == 1
    assert "docid 'a b' is empty or contains whitespace" in capsys.readouterr().err
    topics = tmp_path / "topics.tsv"
    topics.write_text("q 1\tcat\n")
    run_path = tmp_path / "x.trec"
    assert cli.run(["rank", "--index", str(index_path), "--topics", str(topics),
                    "--out", str(run_path)]) == 1
    assert "topics.tsv:1: qid 'q 1' is empty or contains whitespace" in capsys.readouterr().err
    assert not run_path.exists()


def test_a_score_that_overflows_exits_1_before_a_run_file_is_written(workspace, tmp_path, capsys):
    # A huge k1 overflows BM25's tf saturation to inf, which load_from_res would reject.
    _, index_path, _ = workspace
    run_path = tmp_path / "x.trec"
    assert cli.run(["rank", "--index", str(index_path), "--topics", "demo", "--k1", "1e308",
                    "--out", str(run_path)]) == 1
    assert re.search(r"^error: qid '\S+' docid '\S+': score must be finite, got inf$", capsys.readouterr().err, re.M)
    assert not run_path.exists()


def test_index_empty_corpus_error(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert cli.run(["index", "--corpus", str(empty), "--out", str(tmp_path / "x.idx")]) == 1


def test_index_file_with_an_ordinal_past_the_vocabulary_exits_1(workspace, tmp_path, capsys):
    _, index_path, _ = workspace
    header, body = read_index_file(index_path)
    docid = header["docids"][1]
    ordinals = np.frombuffer(body, dtype="<i4").copy()
    ordinals[sum(header["lengths"][:2]) - 1] = len(header["vocabulary"])      # the last token of docid
    bad = tmp_path / "bad.idx"
    bad.write_bytes(index_file_bytes(header, ordinals.tolist()))
    assert cli.run(["rank", "--index", str(bad), "--topics", "demo",
                    "--out", str(tmp_path / "x.trec")]) == 1
    assert capsys.readouterr().err.startswith(f"error: docid {docid!r}: the stream must be a list of term ordinals")


def test_version_2_index_file_exits_1_asking_for_a_rebuild(tmp_path, capsys):
    old = tmp_path / "old.idx"
    old.write_text('{"config":{"lowercase":true,"stem":true,"stopwords":[],"token_pattern":"[a-z]+"},'
                   '"docs":{"a":[0]},"version":2,"vocabulary":["appl"]}\n')
    assert cli.run(["rank", "--index", str(old), "--topics", "demo", "--out", str(tmp_path / "x.trec")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unsupported index format version: 2; rebuild the index with `rankexplain index`\n"


def test_version_1_index_file_exits_1_asking_for_a_rebuild(tmp_path, capsys):
    old = tmp_path / "old.idx"
    old.write_text('{"config":{"lowercase":true,"stem":true,"stopwords":[],"token_pattern":"[a-z]+"},'
                   '"doc_length":{"a":1},"postings":{"appl":{"a":[0]}},"version":1}\n')
    assert cli.run(["rank", "--index", str(old), "--topics", "demo", "--out", str(tmp_path / "x.trec")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unsupported index format version: 1; rebuild the index with `rankexplain index`\n"
    assert captured.out == "" and not (tmp_path / "x.trec").exists()


def test_rank_output_parses(workspace):
    _, _, run_path = workspace
    runs = load_from_res(str(run_path))
    assert set(runs) == {"1", "2", "3", "4", "5"}
    assert runs["1"].docids[0].startswith("T")


def test_explain_pointwise_deterministic(workspace, capsys):
    _, index_path, _ = workspace
    argv = ["explain", "pointwise", "--index", str(index_path), "--method", "lirme",
            "--topics", "demo", "--qid", "1", "--docid", "T1", "--seed", "7"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["qid"] == "1" and payload["docid"] == "T1"
    assert payload["method"] == "lirme"
    assert payload["terms"]


def test_explain_pointwise_matches_library(workspace, capsys):
    _, index_path, _ = workspace
    assert cli.run(["explain", "pointwise", "--index", str(index_path),
                    "--method", "lirme", "--topics", "demo", "--qid", "1",
                    "--docid", "T1", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    index = build_index(read_corpus_jsonl(demo_corpus_path()))
    query = Query.from_text(index, "1", "what is the daily life of thai people")
    params = PointwiseParams(sampler=SamplerConfig(seed=3))
    expl = lirme_explain(index, BM25Ranker(index), query, "T1", params)
    assert payload["terms"] == [{"term": t, "weight": w} for t, w in expl.entries]


def test_explain_pointwise_exs(workspace, capsys):
    _, index_path, _ = workspace
    assert cli.run(["explain", "pointwise", "--index", str(index_path),
                    "--method", "exs", "--topics", "demo", "--qid", "1",
                    "--docid", "T1", "--seed", "1", "--exs_k", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "exs:topk_binary"


def test_explain_missing_doc_exit_3(workspace):
    _, index_path, _ = workspace
    assert cli.run(["explain", "pointwise", "--index", str(index_path),
                    "--method", "lirme", "--query", "thai", "--docid", "NOPE"]) == 3


def test_explain_missing_qid_exit_3(workspace):
    _, index_path, run_path = workspace
    assert cli.run(["explain", "listwise", "--index", str(index_path),
                    "--method", "greedy", "--run", str(run_path),
                    "--topics", "demo", "--qid", "99"]) == 3


def _run_without(run_path: Path, qids: set, tmp_path: Path, extra: str = "") -> Path:
    """A copy of the run file at ``run_path`` without the lines of ``qids``, plus ``extra``."""
    part = tmp_path / "part.trec"
    part.write_text("".join(line for line in run_path.read_text().splitlines(keepends=True)
                            if line.split()[0] not in qids) + extra)
    return part


@pytest.mark.parametrize("mode,missing", [
    pytest.param(["--all"], "qids '3', '5'", id="all"),
    pytest.param(["--qid", "3"], "qid '3'", id="qid"),
])
def test_listwise_topics_missing_from_the_run_exit_3_before_any_explanation(
        workspace, tmp_path, capsys, monkeypatch, mode, missing):
    # Exit 3 is "requested data not found", with --all as with --qid.
    _, index_path, run_path = workspace
    part = _run_without(run_path, {"3", "5"}, tmp_path)

    def unreachable(*args, **kwargs):
        raise AssertionError("an explanation ran")
    monkeypatch.setattr(cli, "explain_all", unreachable)
    monkeypatch.setattr(cli, "explain_listwise", unreachable)
    assert cli.run(["explain", "listwise", "--index", str(index_path), "--run", str(part),
                    "--topics", "demo", *mode]) == 3
    assert capsys.readouterr() == ("", f"not found: {missing} not in run {part}\n")


def test_an_unknown_docid_in_a_run_is_reported_without_quotes(workspace, tmp_path, capsys):
    # KeyError's str would quote the message: not found: "unknown docid: 'ZZ9'".
    _, index_path, run_path = workspace
    part = _run_without(run_path, {"1"}, tmp_path, "1 Q0 ZZ9 1 2.0 t\n1 Q0 A1 2 1.0 t\n")
    argv = ["explain", "listwise", "--index", str(index_path), "--run", str(part), "--topics", "demo",
            "--n_candidates", "15", "--m_min", "1", "--m_max", "2"]
    assert cli.run(argv + ["--qid", "1"]) == 3
    assert capsys.readouterr() == ("", "not found: unknown docid: 'ZZ9'\n")
    assert cli.run(argv + ["--all"]) == 0
    first = json.loads(capsys.readouterr().out.splitlines()[0])
    assert first == {"qid": "1", "error": "UnknownDocumentError: unknown docid: 'ZZ9'"}


@pytest.mark.parametrize("text,message", [
    pytest.param("1\tcat\n2 dog\n", ":2: expected qid<TAB>query text", id="no-tab"),
    pytest.param("1\tcat\n2\tdog\n1\tmouse\n", ":3: duplicate qid '1'", id="repeated-qid"),
])
def test_a_malformed_topics_file_exits_1_naming_the_line(workspace, tmp_path, capsys, text, message):
    _, index_path, _ = workspace
    topics, run_path = tmp_path / "topics.tsv", tmp_path / "x.trec"
    topics.write_text(text)
    assert cli.run(["rank", "--index", str(index_path), "--topics", str(topics), "--out", str(run_path)]) == 1
    assert capsys.readouterr().err == f"error: {topics}{message}\n"
    assert not run_path.exists()


@pytest.mark.parametrize("line", ["1 Q0 b two 1.0 t", "1 Q0 b 2 high t"], ids=["rank", "score"])
def test_a_non_numeric_rank_or_score_exits_1_naming_the_line(workspace, tmp_path, capsys, line):
    _, _, run_path = workspace
    bad = tmp_path / "bad.trec"
    bad.write_text(f"1 Q0 a 1 2.0 t\n{line}\n")
    assert cli.run(["eval", "rbo", str(bad), str(run_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}:2: bad rank or score field\n")


def test_explain_pairwise_details_text(workspace, capsys):
    _, index_path, _ = workspace
    assert cli.run(["explain", "pairwise", "--index", str(index_path),
                    "--topics", "demo", "--qid", "2", "--docs", "B1,B2",
                    "--axioms", "TFC1,PROX1", "--details", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "tf(exon)" in out
    assert "total_avg_dist" in out
    assert "preference" in out


def test_explain_pairwise_details_match_bruteforce_on_demo(workspace, capsys):
    _, index_path, _ = workspace
    assert cli.run(["explain", "pairwise", "--index", str(index_path),
                    "--topics", "demo", "--qid", "2", "--docs", "B1,B2",
                    "--axioms", "PROX1", "--details", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    index = build_index(read_corpus_jsonl(demo_corpus_path()))

    def avg_dist(term_a, term_b, docid):
        pos_a = index.positions(term_a, docid)
        pos_b = index.positions(term_b, docid)
        pairs = [abs(a - b) for a in pos_a for b in pos_b]
        return sum(pairs) / len(pairs)

    rows = {row["label"]: row for row in payload["rows"]}
    for ta, tb in (("exon", "definit"), ("exon", "biolog"), ("definit", "biolog")):
        row = rows[f"avg_dist({ta}, {tb})"]
        assert float(row["d1"]) == pytest.approx(avg_dist(ta, tb, "B1"), abs=0.005)
        assert float(row["d2"]) == pytest.approx(avg_dist(ta, tb, "B2"), abs=0.005)
    pair_means_1 = [avg_dist(a, b, "B1") for a, b in
                    (("exon", "definit"), ("exon", "biolog"), ("definit", "biolog"))]
    assert float(rows["total_avg_dist"]["d1"]) == pytest.approx(
        sum(pair_means_1) / 3, abs=0.005)


def test_explain_pairwise_json_preferences(workspace, capsys):
    _, index_path, _ = workspace
    assert cli.run(["explain", "pairwise", "--index", str(index_path),
                    "--query", "exons definition biology", "--docs", "B1,B2",
                    "--axioms", "TFC1,AND,PROX1", "--aggregate", "majority"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["preferences"]) == {"TFC1", "AND", "PROX1"}
    assert payload["aggregate"] in (-1, 0, 1)
    for v in payload["preferences"].values():
        assert v in (-1, 0, 1)


def test_explain_listwise_matches_library(workspace, capsys):
    _, index_path, run_path = workspace
    assert cli.run(["explain", "listwise", "--index", str(index_path),
                    "--method", "bfs", "--run", str(run_path), "--topics", "demo",
                    "--qid", "1", "--seed", "0",
                    "--n_candidates", "15", "--m_max", "3", "--eval_budget", "120"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "rbo@0.9" in payload["fidelity"]
    index = build_index(read_corpus_jsonl(demo_corpus_path()))
    runs = load_from_res(str(run_path))
    query = Query.from_text(index, "1", "what is the daily life of thai people")
    params = ListwiseParams(method="bfs", n_candidates=15, m_max=3, eval_budget=120)
    expl = explain_listwise(index, query, runs["1"], params)
    assert payload == expl.as_dict()


def test_explain_listwise_all(workspace, capsys):
    _, index_path, run_path = workspace
    assert cli.run(["explain", "listwise", "--index", str(index_path),
                    "--method", "multiplex", "--run", str(run_path),
                    "--topics", "demo", "--all", "--n_pairs", "10",
                    "--n_candidates", "20", "--m_min", "1", "--m_max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    payloads = [json.loads(line) for line in lines]
    assert [p["qid"] for p in payloads] == ["1", "2", "3", "4", "5"]


def test_eval_run_against_itself(workspace, capsys):
    _, _, run_path = workspace
    assert cli.run(["eval", "rbo", str(run_path), str(run_path), "--p", "0.9"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert all(row["value"] == 1.0 for row in lines)
    assert lines[-1]["qid"] == "mean"


def test_eval_disjoint_zero(tmp_path, capsys):
    a = tmp_path / "a.trec"
    b = tmp_path / "b.trec"
    a.write_text("1 Q0 x1 1 2.0 t\n1 Q0 x2 2 1.0 t\n")
    b.write_text("1 Q0 y1 1 2.0 t\n1 Q0 y2 2 1.0 t\n")
    assert cli.run(["eval", "rbo", str(a), str(b)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines[0]["value"] == 0.0


def test_eval_no_shared_qids_exit_3(tmp_path):
    a = tmp_path / "a.trec"
    b = tmp_path / "b.trec"
    a.write_text("1 Q0 x1 1 2.0 t\n")
    b.write_text("2 Q0 x1 1 2.0 t\n")
    assert cli.run(["eval", "rbo", str(a), str(b)]) == 3


def test_eval_matches_library(workspace, capsys, tmp_path):
    _, index_path, run_path = workspace
    other = tmp_path / "other.trec"
    assert cli.run(["rank", "--index", str(index_path), "--topics", "demo",
                    "--model", "lmdir", "--depth", "10", "--out", str(other)]) == 0
    capsys.readouterr()
    assert cli.run(["eval", "tau", str(run_path), str(other)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    from rankexplain import kendall_tau

    runs_a = load_from_res(str(run_path))
    runs_b = load_from_res(str(other))
    for row in lines[:-1]:
        expected = kendall_tau(runs_a[row["qid"]].docids, runs_b[row["qid"]].docids)
        assert row["value"] == pytest.approx(expected)


def test_console_entry_point():
    import subprocess
    import sys

    result = subprocess.run([sys.executable, "-m", "rankexplain.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "explain" in result.stdout


# -- parameters ----------------------------------------------------------------


def _base_argv(command, workspace, tmp_path):
    _, index_path, run_path = workspace
    explain = ["explain", command, "--index", str(index_path), "--topics", "demo"]
    return {
        "index": ["index", "--corpus", "demo", "--out", str(tmp_path / "x.idx")],
        "rank": ["rank", "--index", str(index_path), "--topics", "demo",
                 "--out", str(tmp_path / "x.trec")],
        "pointwise": [*explain, "--qid", "1", "--docid", "T1"],
        "pairwise": [*explain, "--qid", "2", "--docs", "B1,B2"],
        "listwise": [*explain, "--run", str(run_path), "--qid", "1"],
        "ranked-listwise": ["explain", "listwise", "--index", str(index_path), "--topics", "demo",
                            "--qid", "1"],
        "rbo": ["eval", "rbo", str(run_path), str(run_path)],
        "jaccard": ["eval", "jaccard", str(run_path), str(run_path)],
    }[command]


def _with_params(argv, params, source, tmp_path):
    """argv plus ``params`` as --key value overrides or as a --params file."""
    if source == "file":
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        return [*argv, "--params", str(path)]
    return [*argv, *(a for key, value in params.items() for a in (f"--{key}", json.dumps(value)))]


def _leaves(cls, skip=()):
    """(name, default) of each leaf field, recursing into dataclass-valued fields."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default):
            yield from _leaves(type(f.default), skip)
        elif f.name not in skip:
            yield f.name, f.default


# Leaf fields each command accepts as keys; seed and method come from flags.
_COMMAND_FIELDS = (
    [("rank", *leaf) for leaf in _leaves(RankerParams)]
    + [("pointwise", *leaf) for cls in (PointwiseParams, RankerParams)
       for leaf in _leaves(cls, skip={"seed"})]
    + [("listwise", *leaf) for leaf in _leaves(ListwiseParams, skip={"seed", "method"})]
)
_OTHER_CHOICE = {"kind": "masking", "exs_variant": "rank_based",
                 "pair_strategy": "top_vs_rest", "simple_rankers": ["lmdir"]}


def _other_value(key, default):
    """A valid value that differs from the default; halving keeps rates and
    probabilities in range."""
    if type(default) is int:
        return default + 1
    if type(default) is float:
        return default / 2
    return _OTHER_CHOICE[key]


def _flatten(params: dict) -> dict:
    flat = {}
    for key, value in params.items():
        flat.update(_flatten(value) if isinstance(value, dict) else {key: value})
    return flat


@pytest.mark.parametrize("source", ["override", "file"])
@pytest.mark.parametrize("command,key,default", _COMMAND_FIELDS,
                         ids=[f"{command}-{key}" for command, key, _ in _COMMAND_FIELDS])
def test_every_field_is_a_key(workspace, tmp_path, monkeypatch, capsys,
                              command, key, default, source):
    built = []

    def recording(fn):
        def wrapper(*args):
            built.extend(a for a in args
                         if isinstance(a, (RankerParams, PointwiseParams, ListwiseParams)))
            return fn(*args)
        return wrapper

    for name in ("make_ranker", "lirme_explain", "explain_listwise"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    value = _other_value(key, default)
    argv = _with_params(_base_argv(command, workspace, tmp_path), {key: value}, source, tmp_path)
    assert cli.run(argv) == 0, capsys.readouterr().err
    seen = {}
    for params in built:
        seen.update(_flatten(dataclasses.asdict(params)))
    assert seen[key] == (tuple(value) if isinstance(value, list) else value)
    if command == "pointwise":  # the JSON echo shows every non-ranker key
        echo = _flatten(json.loads(capsys.readouterr().out)["params"])
        if key not in RankerParams.__dataclass_fields__:
            assert echo[key] == value


@pytest.mark.parametrize("command,source,key", [
    ("index", "override", "bogus"),
    ("rank", "override", "dirichlet_m"),
    ("rank", "file", "dirichlet_m"),
    ("pointwise", "override", "kernel_widht"),
    ("pointwise", "file", "kernel_widht"),
    ("pointwise", "file", "sampler"),
    ("pairwise", "override", "k1"),
    ("pairwise", "file", "k1"),
    ("listwise", "override", "n_candiates"),
    ("listwise", "file", "n_candiates"),
    ("listwise", "override", "depth"),  # only a key when ranking without --run
])
def test_unknown_keys_exit_2(workspace, tmp_path, capsys, command, source, key):
    argv = _with_params(_base_argv(command, workspace, tmp_path), {key: 1}, source, tmp_path)
    assert cli.run(argv) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command,extra,params_file,message", [
    pytest.param("pointwise", ["--method", "bogus"], None, "lirme", id="unknown-method"),
    pytest.param("pointwise", ["--n_terms", "2.9"], None, "'n_terms' expects int",
                 id="float-for-int"),
    pytest.param("pointwise", ["--rate", "NaN"], None, "rate must be in [0, 1], got nan",
                 id="nan-for-float"),
    pytest.param("pointwise", ["--kind", "bogus"], None, "unknown kind 'bogus'", id="unknown-kind"),
    pytest.param("listwise", ["--simple_rankers", "bm25"], None,
                 "'simple_rankers' expects a JSON list", id="string-for-list"),
    pytest.param("listwise", ["--simple_rankers", "[]"], None, "at least one ranker",
                 id="no-simple-rankers"),
    pytest.param("listwise", ["--all", "--pair_strategy", "bogus"], None, "pair_strategy",
                 id="unknown-pair-strategy"),
    pytest.param("listwise", ["--all", "--n_pairs", "0"], None, "n_pairs", id="zero-pairs"),
    pytest.param("listwise", ["--m_min", "4", "--m_max", "3"], None, "m_min <= m_max",
                 id="m-min-above-m-max"),
    pytest.param("rank", ["--jm_lambda", "5"], None, "jm_lambda must be in [1e-280, 1)",
                 id="jm-lambda-out-of-range"),
    pytest.param("rank", ["--dirichlet_mu", "0"], None, "dirichlet_mu must be in [1e-280, inf), got 0.0",
                 id="dirichlet-mu-not-positive"),
    pytest.param("rank", ["--jm_lambda", "5e-324"], None, "jm_lambda must be in [1e-280, 1), got 5e-324",
                 id="jm-lambda-underflows"),
    pytest.param("rank", ["--dirichlet_mu", "5e-324"], None,
                 "dirichlet_mu must be in [1e-280, inf), got 5e-324", id="dirichlet-mu-underflows"),
    pytest.param("rank", ["--k1", "-1", "--b", "0"], None, "k1 must be in [0, inf), got -1.0",
                 id="k1-minus-1-b-0"),
    pytest.param("rank", ["--k1", "-0.5"], None, "k1 must be in [0, inf), got -0.5",
                 id="k1-negative"),
    pytest.param("rank", ["--b", "7"], None, "b must be in [0, 1], got 7.0", id="b-above-1"),
    pytest.param("pointwise", ["--kernel_width", "1e200"], None,
                 "kernel_width must be in [1e-150, 1e150], got 1e+200", id="kernel-width-1e200"),
    pytest.param("pointwise", ["--kernel_width", "1e-160"], None,
                 "kernel_width must be in [1e-150, 1e150], got 1e-160", id="kernel-width-1e-160"),
    pytest.param("pointwise", ["--kernel_width", "1e-300"], None,
                 "kernel_width must be in [1e-150, 1e150], got 1e-300", id="kernel-width-1e-300"),
    pytest.param("rank", [], {"b": -0.25}, "b must be in [0, 1], got -0.25", id="b-negative"),
    pytest.param("pointwise", [], {"seed": 5}, "--seed flag", id="pointwise-seed-key"),
    pytest.param("listwise", [], {"seed": 5}, "--seed flag", id="listwise-seed-key"),
    pytest.param("listwise", [], {"method": "bfs"}, "--method flag", id="listwise-method-key"),
    # pairwise has no --method flag, so method is an unknown key there
    pytest.param("pairwise", [], {"method": "x"}, "unknown parameter 'method' for explain pairwise",
                 id="pairwise-method-key"),
    pytest.param("pairwise", ["--docs", "B1"], None, "two comma-separated docids", id="one-doc"),
    pytest.param("pairwise", ["--axioms", "TFC1,BOGUS"], None, "unknown axiom 'BOGUS'",
                 id="unknown-axiom"),
    pytest.param("pairwise", ["--aggregate", "bogus"], None, "unknown mode 'bogus'",
                 id="unknown-aggregate"),
    pytest.param("pairwise", ["--aggregate", "weighted_sum_sign", "--weights", "a,b"], None,
                 "could not convert string to float: 'a'", id="weights-not-numbers"),
    pytest.param("pairwise", ["--aggregate", "weighted_sum_sign", "--weights", "nan,1"], None,
                 "must be finite", id="weights-nan"),
    pytest.param("pairwise", ["--aggregate", "weighted_sum_sign", "--weights", "1,inf"], None,
                 "must be finite", id="weights-inf"),
    pytest.param("pairwise", ["--aggregate", "weighted_sum_sign", "--weights", "1,2,3"], None,
                 "must match --axioms in length", id="weights-length"),
    # majority reads no weight, so weights with it would change nothing
    pytest.param("pairwise", ["--aggregate", "majority", "--weights", "5,-9"], None,
                 "--weights needs --aggregate weighted_sum_sign", id="weights-with-majority"),
    pytest.param("pairwise", ["--axioms", ","], None, "--axioms takes one or more distinct axiom names",
                 id="axioms-naming-none"),
    pytest.param("pairwise", ["--axioms", "TFC1, TFC1"], None, "--axioms takes one or more distinct axiom names",
                 id="axioms-repeated"),
    pytest.param("pairwise", ["--weights", "1,2"], None, "--weights needs --aggregate",
                 id="weights-without-aggregate"),
    pytest.param("pairwise", ["--format", "text"], None, "--format text needs --details",
                 id="text-without-details"),
    pytest.param("listwise", ["--all"], None, "--all explains every topic", id="all-with-qid"),
    pytest.param("rank", ["--depth", "0"], None, "depth must be in [1, inf), got 0", id="rank-depth-0"),
    pytest.param("ranked-listwise", ["--depth", "0"], None, "depth must be in [1, inf), got 0",
                 id="listwise-depth-0"),
    pytest.param("rbo", ["--p", "1.5"], None, "p must be in (0, 1), got 1.5", id="rbo-p-above-1"),
    pytest.param("rbo", ["--p", "nan"], None, "p must be in (0, 1), got nan", id="rbo-p-nan"),
    pytest.param("jaccard", ["--k", "0"], None, "k must be in [1, inf), got 0", id="jaccard-k-0"),
])
def test_usage_errors_exit_2(workspace, tmp_path, capsys, command, extra, params_file, message):
    # Every usage error is found before a file is read: the index and run files are missing.
    _, index_path, run_path = workspace
    missing = {str(index_path): str(tmp_path / "missing.idx"), str(run_path): str(tmp_path / "missing.trec")}
    argv = [missing.get(arg, arg) for arg in [*_base_argv(command, workspace, tmp_path), *extra]]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    if params_file is not None:
        argv = _with_params(argv, params_file, "file", tmp_path)
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not Path(argv[argv.index("--out") + 1]).exists()


@pytest.mark.parametrize("text,message", [('{"k1": 5, "k1": 1.2}', "repeated key 'k1'"),
                                          ("{", "Expecting property name")])
def test_a_params_file_with_a_repeated_key_exits_1_as_malformed_json_does(workspace, tmp_path, capsys, text, message):
    # Plain json would keep the last k1 and rank with 1.2.
    _, index_path, _ = workspace
    params, out = tmp_path / "params.json", tmp_path / "x.trec"
    params.write_text(text)
    assert cli.run(["rank", "--index", str(index_path), "--topics", "demo", "--model", "bm25",
                    "--params", str(params), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == "" and not out.exists()
    assert message in captured.err


# -- each command parses only the flags it reads -------------------------------


def _exit_code(argv) -> int:
    """cli.run's exit code, including argparse's SystemExit for parser errors."""
    try:
        return cli.run(argv)
    except SystemExit as exc:
        return exc.code


# The flags each explain kind reads: exactly what its --help lists.
_SHARED = {"index", "query", "topics", "qid", "params", "out"}
_READS = {
    "pointwise": _SHARED | {"docid", "method", "model", "format", "seed"},
    "pairwise": _SHARED | {"docs", "axioms", "details", "aggregate", "weights", "format"},
    "listwise": _SHARED | {"run", "method", "model", "all", "seed"},
}
_FLAG_VALUES = {"docid": "T1", "docs": "B1,B2", "axioms": "TFC1", "aggregate": "majority",
                "weights": "1", "run": "x.trec", "method": "lirme", "model": "bm25",
                "format": "text", "seed": "1"}
_UNREAD = [(kind, flag) for kind in _READS
           for flag in sorted(set().union(*_READS.values()) - _READS[kind])]


@pytest.mark.parametrize("kind", sorted(_READS))
def test_explain_help_lists_only_the_flags_the_kind_reads(capsys, kind):
    assert _exit_code(["explain", kind, "--help"]) == 0
    listed = set(re.findall(r"--([a-z_]+)", capsys.readouterr().out)) - {"help"}
    assert listed == _READS[kind]


@pytest.mark.parametrize("kind,flag", _UNREAD, ids=[f"{k}-{f}" for k, f in _UNREAD])
def test_unread_flag_exits_2_before_the_index_is_loaded(workspace, tmp_path, capsys, kind, flag):
    # The index path does not exist, so reaching the load would exit 1.
    argv = _base_argv(kind, workspace, tmp_path)
    argv[argv.index("--index") + 1] = str(tmp_path / "missing.idx")
    out = tmp_path / "out.json"
    argv += ["--out", str(out), f"--{flag}", *([_FLAG_VALUES[flag]] if flag in _FLAG_VALUES else [])]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    assert not out.exists()


_EVAL_UNREAD = ([(measure, "--p", "0.5") for measure in ("tau", "rho", "jaccard")]
                + [(measure, "--k", "5") for measure in ("rbo", "tau", "rho")])


@pytest.mark.parametrize("measure,flag,value", _EVAL_UNREAD,
                         ids=[f"{m}{f}" for m, f, _ in _EVAL_UNREAD])
def test_eval_flag_of_another_measure_exits_2(workspace, tmp_path, capsys, measure, flag, value):
    _, _, run_path = workspace
    out = tmp_path / "out.jsonl"
    assert _exit_code(["eval", measure, str(run_path), str(run_path),
                       "--out", str(out), flag, value]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("kind,extra,message", [
    ("pointwise", ["--query", "thai"], "--query"),
    ("pairwise", ["--query", "exons"], "--query"),
    ("listwise", ["--query", "thai"], "--query"),
    ("listwise", ["--model", "lmjm"], "--model"),
])
def test_exclusive_flags_exit_2(workspace, tmp_path, capsys, kind, extra, message):
    # The base argv has --topics and, for listwise, --run.
    out = tmp_path / "out.json"
    argv = [*_base_argv(kind, workspace, tmp_path), "--out", str(out), *extra]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "not allowed with argument" in captured.err and message in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("kind,flag", [("pointwise", "--docid"), ("pairwise", "--docs")])
def test_missing_required_document_flag_exits_2(workspace, tmp_path, capsys, kind, flag):
    argv = _base_argv(kind, workspace, tmp_path)
    i = argv.index(flag)
    del argv[i:i + 2]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "required" in err and flag in err and "Traceback" not in err


@pytest.mark.parametrize("extra", [
    ["--aggregate", "bogus"],
    ["--aggregate", "weighted_sum_sign", "--weights", "a,b"],
    ["--docs", "B1"],
    ["--axioms", "BOGUS"],
])
def test_pairwise_flags_are_checked_before_the_index_is_loaded(workspace, tmp_path, extra):
    argv = [*_base_argv("pairwise", workspace, tmp_path), *extra]
    argv[argv.index("--index") + 1] = str(tmp_path / "missing.idx")
    assert cli.run(argv) == 2


def test_listwise_ranks_a_query_text_on_the_fly(workspace, capsys):
    # Without --run the list is ranked here, for --query as for --qid in --topics.
    _, index_path, _ = workspace
    base = ["explain", "listwise", "--index", str(index_path), "--qid", "1", "--method", "greedy"]
    assert cli.run([*base, "--topics", "demo"]) == 0
    from_topics = capsys.readouterr().out
    assert cli.run([*base, "--query", "what is the daily life of thai people"]) == 0
    assert capsys.readouterr().out == from_topics


def _readme_commands() -> list[list[str]]:
    """The rankexplain lines of README's "Command line" block, as argv lists."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rankexplain ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == ["index", "rank", "rank", "explain", "explain",
                                              "explain", "eval"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.run(argv) == 0, (argv, capsys.readouterr().err)
