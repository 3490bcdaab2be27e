"""Each numeric parameter declares its domain once, and that declaration is what is checked.

The params dataclasses are the package's exported ``*Params`` and
``*Config`` classes, plus every dataclass nested in one, found through
``dataclasses.fields``. For each int or float field the tests try values
just outside its declared interval in the Python API and on the command
line, and try the interval's finite ends in the Python API. A syntax-tree
walk makes sure no int or float field of such a class goes undeclared,
and README must list every declared domain the command line reads.
"""

import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

import rankexplain as rx
from rankexplain import cli
from rankexplain.index import _interval

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rankexplain"


def params_classes() -> list:
    found, todo = [], [obj for name, obj in sorted(vars(rx).items())
                       if name.endswith(("Params", "Config")) and dataclasses.is_dataclass(obj)]
    while todo:
        cls = todo.pop(0)
        if cls not in found:
            found.append(cls)
            todo += [type(f.default) for f in dataclasses.fields(cls) if dataclasses.is_dataclass(f.default)]
    return found


NUMERIC = [(cls, f) for cls in params_classes() for f in dataclasses.fields(cls)
           if type(f.default) in (int, float)]

# Another field's value that a cross-field rule needs for this one's end to be accepted.
ALONG = {"m_max": {"m_min": 0}}


def ends(f):
    """(value, closed, outward direction) of each finite end of the field's interval."""
    interval = f.metadata["in"]
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return [(end, closed, out) for end, closed, out in
            ((lo, interval[0] == "[", -math.inf), (hi, interval[-1] == "]", math.inf))
            if math.isfinite(end)]


def outside(f) -> list:
    """NaN, ±inf, a bool, and each finite end moved one ulp outward (one unit for an int field)."""
    values = [math.nan, math.inf, -math.inf, True]
    for end, closed, out in ends(f):
        values.append(math.nextafter(end, out))
        if type(f.default) is int:
            values.append(int(end) + (int(math.copysign(1, out)) if closed else 0))
        elif not closed:
            values.append(end)
    return values


def inside(f) -> list:
    """Each finite end, or for an open end the nearest value inside."""
    values = []
    for end, closed, out in ends(f):
        if type(f.default) is int:
            values.append(int(end) - (0 if closed else int(math.copysign(1, out))))
        else:
            values.append(end if closed else math.nextafter(end, -out))
    return values


def _cases(values_of):
    return [pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
            for cls, f in NUMERIC for value in values_of(f)]


def test_the_walk_finds_every_params_class():
    assert {cls.__name__ for cls in params_classes()} >= {
        "RankerParams", "SamplerConfig", "PointwiseParams", "ListwiseParams"}


@pytest.mark.parametrize("cls,field", [pytest.param(cls, f, id=f"{cls.__name__}.{f.name}") for cls, f in NUMERIC])
def test_every_declared_interval_is_well_formed(cls, field):
    interval = field.metadata["in"]
    end = r"-?(?:inf|\d+(?:\.\d+)?(?:e-?\d+)?)"
    assert re.fullmatch(rf"[\[(]{end}, {end}[\])]", interval), interval
    lo, hi = (float(e) for e in interval[1:-1].split(","))
    assert lo < hi
    assert (math.isfinite(lo) or interval[0] == "(") and (math.isfinite(hi) or interval[-1] == ")")


@pytest.mark.parametrize("cls,name,value", _cases(outside))
def test_a_value_outside_the_declared_domain_is_rejected(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        cls(**{name: value})


@pytest.mark.parametrize("cls,name,value", _cases(inside))
def test_the_finite_ends_of_the_declared_domain_are_accepted(cls, name, value):
    assert getattr(cls(**ALONG.get(name, {}), **{name: value}), name) == value


def test_each_declared_interval_is_parsed_once():
    rx.RankerParams()
    before = _interval.cache_info()
    rx.RankerParams(k1=2.0)
    after = _interval.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + len(dataclasses.fields(rx.RankerParams)))


def test_a_check_against_a_list_length_parses_no_interval_per_length():
    index, ranker, query, ranked = _api_fixture()
    rx.lmjm_ground_truth(index, query, ranked, top_n=1)
    rx.generate_candidates(index, ranked, top_k=1)
    before = _interval.cache_info().currsize
    entries = [rx.RunEntry(f"d{i}", i + 1, 1.0) for i in range(2000)]
    for n in range(1, 2001):
        ranked_n = rx.RankedList("q", entries[:n])
        assert ranked_n.score_at(n) == 1.0
        with pytest.raises(ValueError, match=re.escape(f"rank must be in [1, {n}], got {n + 1}")):
            ranked_n.score_at(n + 1)
    for n in range(1, len(ranked) + 1):
        rx.lmjm_ground_truth(index, query, rx.RankedList("q", ranked.entries[:n]), top_n=n)
        rx.generate_candidates(index, rx.RankedList("q", ranked.entries[:n]), top_k=n)
    assert _interval.cache_info().currsize == before


NESTED = [(cls, f) for cls in params_classes() for f in dataclasses.fields(cls) if dataclasses.is_dataclass(f.default)]


def test_the_walk_finds_every_nested_params_field():
    assert {f"{cls.__name__}.{f.name}" for cls, f in NESTED} >= {"PointwiseParams.sampler",
                                                                 "ListwiseParams.ranker_params"}


@pytest.mark.parametrize("cls,field", [pytest.param(cls, f, id=f"{cls.__name__}.{f.name}") for cls, f in NESTED])
def test_a_nested_params_field_takes_only_an_instance_of_its_class(cls, field):
    # The default's fields as a dict, a choice of one of its str fields, None,
    # and an instance of another params class.
    other = next(c for c in params_classes() if c is not type(field.default) and c is not cls)
    for value in (dataclasses.asdict(field.default), "random", None, other()):
        with pytest.raises(ValueError, match=f"^{field.name} must be a {type(field.default).__name__}, got "):
            cls(**{field.name: value})
    instance = type(field.default)()
    assert getattr(cls(**{field.name: instance}), field.name) is instance


def _argv(cls, tmp_path) -> list:
    """A command that reads ``cls``'s keys, with an index file that does not exist."""
    index = str(tmp_path / "missing.idx")
    shared = ["--index", index, "--topics", "demo", "--qid", "1"]
    pointwise = ["explain", "pointwise", *shared, "--docid", "T1"]
    return {
        "RankerParams": ["rank", "--index", index, "--topics", "demo", "--out", str(tmp_path / "x.trec")],
        "SamplerConfig": pointwise,
        "PointwiseParams": pointwise,
        "ListwiseParams": ["explain", "listwise", *shared],
    }[cls.__name__]


@pytest.mark.parametrize("cls,name,value", _cases(outside))
def test_the_cli_exits_2_on_a_value_outside_the_declared_domain(tmp_path, capsys, cls, name, value):
    # seed is the --seed flag, an argparse int; every other field is a --key value override.
    argv = [*_argv(cls, tmp_path), f"--{name}", json.dumps(value)]
    try:
        code = cli.run(argv)
    except SystemExit as exc:       # argparse rejects a --seed that is not an int
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert name in captured.err
    assert captured.out == ""


def undeclared_numeric_fields(source: str) -> list:
    """(class, field) of each int or float field of a *Params or *Config dataclass with no "in" metadata."""
    def declares_interval(value) -> bool:
        return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                and any(k.arg == "metadata" and isinstance(k.value, ast.Dict)
                        and any(isinstance(key, ast.Constant) and key.value == "in" for key in k.value.keys)
                        for k in value.keywords))

    return [(node.name, stmt.target.id)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name.endswith(("Params", "Config"))
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and ast.unparse(stmt.annotation) in ("int", "float")
            and not declares_interval(stmt.value)]


def test_every_numeric_params_field_declares_its_interval():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    undeclared = {path.name: found for path in modules
                  if (found := undeclared_numeric_fields(path.read_text(encoding="utf-8")))}
    assert undeclared == {}


def test_the_walk_finds_an_undeclared_field():
    source = ("@dataclass(frozen=True)\n"
              "class NewParams:\n"
              "    a: int = 3\n"
              "    b: float = field(default=1.0)\n"
              "    c: int = field(default=1, metadata={'in': '[0, 1]'})\n"
              "    d: str = 'x'\n"
              "class Helper:\n"
              "    e: int = 3\n")
    assert undeclared_numeric_fields(source) == [("NewParams", "a"), ("NewParams", "b")]


def test_readme_lists_every_declared_domain_the_cli_reads():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    keys = {key for cls in params_classes() for key in cli.param_keys(cls, {"seed": 0, "method": ""})}
    rows = [f"| `{f.name}` | `{cls.__name__}` | `{f.metadata['in']}` |" for cls, f in NUMERIC if f.name in keys]
    assert len(rows) >= 15
    assert [row for row in rows if row not in readme] == []


# -- Python-API arguments outside the params dataclasses ---------------------------


def _api_fixture():
    index = rx.build_index([rx.Document("d1", "cat dog cat"), rx.Document("d2", "dog bird")])
    ranker = rx.BM25Ranker(index)
    query = rx.Query.from_terms("q", ["cat", "dog"])
    return index, ranker, query, rx.rank(index, ranker, query)


# (argument name, a call that passes ``v`` as that argument, values of the wrong type or out of range)
API_ARGUMENTS = [
    ("weight of hidden term 'cat'", lambda i, r, q, l, v: rx.HiddenIntentRanker(r, [("cat", v)]),
     ["x", None, True]),
    ("coefficient of 'cat'", lambda i, r, q, l, v: rx.LinearScorer(i, {"cat": v}), ["x", None, True]),
    ("depth", lambda i, r, q, l, v: rx.rank(i, r, q, depth=v), [2.5, True, "3", 0, -1]),
    ("k", lambda i, r, q, l, v: rx.jaccard_at_k(["a"], ["b"], k=v), [1.5, True, "2"]),
    ("p", lambda i, r, q, l, v: rx.rbo(["a"], ["a"], p=v), ["x", None, True]),
    ("ground-truth weight of 'cat'", lambda i, r, q, l, v: rx.GroundTruthTerms({"cat": v}), ["x", True]),
    ("top_n", lambda i, r, q, l, v: rx.lmjm_ground_truth(i, q, l, top_n=v), [1.0, True]),
    ("n_terms", lambda i, r, q, l, v: rx.lmjm_ground_truth(i, q, l, top_n=1, n_terms=v), [2.0, True]),
    ("top_k", lambda i, r, q, l, v: rx.generate_candidates(i, l, top_k=v), [1.0, True]),
    ("n_candidates", lambda i, r, q, l, v: rx.generate_candidates(i, l, top_k=1, n_candidates=v), [1.0, True]),
    ("count", lambda i, r, q, l, v: rx.sample_pairs(l, "uniform", v, rx.XorShift64Star(0)), [1.5, True]),
    ("weight for 'TFC1'", lambda i, r, q, l, v: rx.AggregatedAxiom((("TFC1", v),)), ["x", None, True]),
    ("m", lambda i, r, q, l, v: rx.pointwise_consistency([rx.ExplanationVector([("cat", 1.0)])] * 2, m=v),
     [2.5, True, "3"]),
    ("m_max", lambda i, r, q, l, v: rx.greedy_explain(i, r, q, l, [rx.CandidateTerm("bird", 1.0)], m_max=v),
     [-1, True, 2.5]),
    ("m_max", lambda i, r, q, l, v: rx.bfs_explain(i, r, q, l, [rx.CandidateTerm("bird", 1.0)], m_max=v),
     [-2, 1.5, "1"]),
    ("rank", lambda i, r, q, l, v: l.score_at(v), [True, 1.0, "1", 0, 3]),
    ("exs_k", lambda i, r, q, l, v: rx.pointwise.exs_targets([0.0], l, "rank_based", v), [0, -2, 1.5, True]),
    ("jm_lambda", lambda i, r, q, l, v: rx.lmjm_ground_truth(i, q, l, top_n=1, jm_lambda=v), [0.0, 1.0, True, "x"]),
    ("params", lambda i, r, q, l, v: rx.BM25Ranker(i, v), [{"k1": 1.2}, None, 1.2, rx.SamplerConfig()]),
    ("params", lambda i, r, q, l, v: rx.LMJMRanker(i, v), [{"jm_lambda": 0.5}, 0.5]),
    ("params", lambda i, r, q, l, v: rx.LMDirRanker(i, v), [{"dirichlet_mu": 10.0}, 10.0]),
    ("params", lambda i, r, q, l, v: rx.make_ranker(i, "lmdir", v), [{"dirichlet_mu": 1.0}, "lmdir"]),
    ("seed", lambda i, r, q, l, v: rx.XorShift64Star(v), [1.5, "3", True, None, 2.0 ** 70]),
    ("n", lambda i, r, q, l, v: rx.XorShift64Star(0).randbelow(v), [2.5, 2.0, True, "3", None, 0, -1]),
]


@pytest.mark.parametrize("name,call,value", [
    pytest.param(name, call, value, id=f"{name}={value!r}")
    for name, call, values in API_ARGUMENTS for value in values])
def test_an_api_argument_of_the_wrong_type_is_rejected_by_name(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(*_api_fixture(), value)


# README's "Removed, each with its replacement" list names each of these. A
# removed name is either gone or, as ``__eq__`` is, the one ``object`` gives.
@pytest.mark.parametrize("owner,name", [
    (rx.analysis, "analyze"), (rx.RankedList, "from_scores"), (rx.ExplanationVector, "weight"),
    (rx.PreferenceMatrix, "entry"), (rx.listwise.BatchResult, "__len__"), (rx.TokenizedDocument, "__len__"),
    (rx.Ranker, "term_scores"), (rx.LMJMRanker, "term_probability"), (rx.PositionalIndex, "doc_term_counts"),
    (rx.PositionalIndex, "to_dict"), (rx.PositionalIndex, "from_dict"), (rx.axioms, "all_preferences"),
    (rx.Query.from_terms("q", ["a"]), "text"), (rx.PerturbationBatch, "__eq__"),
], ids=lambda x: x if isinstance(x, str) else getattr(x, "__name__", type(x).__name__))
def test_a_removed_name_stays_removed(owner, name):
    assert getattr(owner, name, None) is getattr(object, name, None)


@pytest.mark.parametrize("seed,first_draws", [
    (0, [8916199331640804048, 16032783972208265725]),
    (1, [5424204624148110235, 15555979849632202484]),
    (-5, [17836676427511113734, 14250789138592850559]),
    (2 ** 64 + 1, [5424204624148110235, 15555979849632202484]),     # seeds are taken mod 2**64
    (2 ** 70, [8916199331640804048, 16032783972208265725]),
])
def test_an_int_seed_keeps_its_stream(seed, first_draws):
    rng = rx.XorShift64Star(seed)
    assert [rng.next_u64(), rng.next_u64()] == first_draws
    assert rx.XorShift64Star(seed).randbelow(10 ** 6) == first_draws[0] % 10 ** 6
