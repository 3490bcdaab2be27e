"""Byte-exact golden outputs of the command line on the demo corpus.

Every case runs one command, or several, through ``cli.run`` and compares
its output with ``tests/golden/<name>``: the file the command writes for
``index`` and ``rank``, stdout for everything else. The files pin the
reproducibility contract across versions (same inputs and seed, same
bytes), so a refactor that changes any byte fails here.

Regenerate the files only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from rankexplain import cli
from rankexplain.axioms import AXIOM_NAMES

from conftest import json_lines

GOLDEN_DIR = Path(__file__).parent / "golden"

SAMPLER_KINDS = ("random", "masking", "tfidf")
POINTWISE_METHODS = (
    ("lirme", []),
    ("exs-topk_binary", ["--method", "exs", "--exs_variant", "topk_binary"]),
    ("exs-score_ratio", ["--method", "exs", "--exs_variant", "score_ratio"]),
    ("exs-rank_based", ["--method", "exs", "--exs_variant", "rank_based"]),
)


def _cases() -> list[tuple[str, list[str]]]:
    """(golden name, argv) pairs, in run order; ``{d}`` is the work directory.

    The argv of a case may be a list of argvs: their stdout is concatenated.
    """
    cases = [
        ("index.idx", ["index", "--corpus", "demo", "--out", "{d}/index.idx"]),
    ]
    for model in ("bm25", "lmjm", "lmdir"):
        cases.append((f"rank-{model}.trec", [
            "rank", "--index", "{d}/index.idx", "--topics", "demo", "--model", model,
            "--depth", "10", "--out", f"{{d}}/rank-{model}.trec"]))
    cases.append(("rank-bm25-k1-b.trec", [
        "rank", "--index", "{d}/index.idx", "--topics", "demo", "--model", "bm25",
        "--depth", "10", "--k1", "1.2", "--b", "0.75", "--out", "{d}/rank-bm25-k1-b.trec"]))

    for name, method_args in POINTWISE_METHODS:
        for kind in SAMPLER_KINDS:
            for seed in ("0", "7"):
                cases.append((f"pointwise-{name}-{kind}-seed{seed}.json", [
                    "explain", "pointwise", "--index", "{d}/index.idx", "--topics", "demo",
                    "--qid", "1", "--docid", "T1", "--exs_k", "5", "--seed", seed,
                    "--kind", kind, *method_args]))

    pair = ["explain", "pairwise", "--index", "{d}/index.idx", "--topics", "demo",
            "--qid", "2", "--docs", "B1,B2"]
    for fmt in ("text", "json"):
        cases.append((f"pairwise-details.{fmt}", [
            *pair, "--axioms", "TFC1,PROX1", "--details", "--format", fmt]))
    cases.append(("pairwise-aggregate-majority.json", [
        *pair, "--axioms", "TFC1,AND,PROX1", "--aggregate", "majority"]))
    cases.append(("pairwise-aggregate-weighted_sum_sign.json", [
        *pair, "--axioms", "TFC1,AND,PROX1", "--aggregate", "weighted_sum_sign",
        "--weights", "2,1,1"]))
    cases.append(("pairwise-all-axioms.jsonl", _all_axiom_commands()))

    listwise = ["explain", "listwise", "--index", "{d}/index.idx", "--topics", "demo"]
    for method in ("multiplex", "intent_exs", "greedy", "bfs"):
        cases.append((f"listwise-{method}.json", [
            *listwise, "--method", method, "--run", "{d}/rank-lmdir.trec", "--qid", "2"]))
    cases.append(("listwise-multiplex-all.jsonl", [
        *listwise, "--method", "multiplex", "--run", "{d}/rank-bm25.trec", "--all",
        "--seed", "3"]))
    for method in ("multiplex", "intent_exs"):
        for strategy in ("rank_gap_weighted", "top_vs_rest"):
            cases.append((f"listwise-{method}-{strategy}.json", [
                *listwise, "--method", method, "--pair_strategy", strategy,
                "--run", "{d}/rank-bm25.trec", "--qid", "2", "--n_pairs", "7", "--seed", "5"]))
    cases.append(("listwise-greedy-on-the-fly.json", [
        *listwise, "--method", "greedy", "--qid", "2", "--model", "lmjm",
        "--depth", "15", "--jm_lambda", "0.3"]))

    for measure in ("rbo", "tau", "rho", "jaccard"):
        cases.append((f"eval-{measure}.jsonl", [
            "eval", measure, "{d}/rank-bm25.trec", "{d}/rank-lmdir.trec"]))
    return cases


# (qid, docs) pairs of the demo corpus on which PROX1 to PROX5 each fire in
# some pair, with and against each other, and every other axiom in at least one.
AXIOM_PAIRS = (("5", "H1,H4"), ("3", "S1,S2"), ("4", "C2,C3"), ("1", "H4,T2"), ("1", "T1,T2"))
AXIOM_WEIGHTS = "1,0.5,2,1,1,0.25,3,1,1,1.5,6,0.75"


def _all_axiom_commands() -> list[list[str]]:
    """All twelve axioms under both aggregate modes, then the PROX4 and PROX5
    details tables, for each of ``AXIOM_PAIRS``."""
    axioms = ",".join(AXIOM_NAMES)
    commands = []
    for qid, docs in AXIOM_PAIRS:
        pair = ["explain", "pairwise", "--index", "{d}/index.idx", "--topics", "demo",
                "--qid", qid, "--docs", docs]
        commands.append([*pair, "--axioms", axioms, "--aggregate", "majority"])
        commands.append([*pair, "--axioms", axioms, "--aggregate", "weighted_sum_sign",
                         "--weights", AXIOM_WEIGHTS])
        commands.append([*pair, "--axioms", "PROX4,PROX5", "--details", "--format", "json"])
    return commands


CASES = _cases()


def run_cases(workdir: Path) -> dict[str, bytes]:
    """Run every case in order under ``workdir``; map golden name -> output bytes."""
    outputs = {}
    for name, argv in CASES:
        stdout = io.StringIO()
        for command in argv if isinstance(argv[0], list) else [argv]:
            command = [a.replace("{d}", str(workdir)) for a in command]
            with contextlib.redirect_stdout(stdout):
                code = cli.run(command)
            if code != 0:
                raise AssertionError(f"{name}: exit {code} for {' '.join(command)}")
        written = workdir / name
        outputs[name] = written.read_bytes() if written.exists() else stdout.getvalue().encode()
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_cli_output_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN_DIR / name).read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name", [name for name, _ in CASES if name.endswith(".jsonl")])
def test_json_lines_golden_files_hold_one_record_per_line(name):
    assert json_lines((GOLDEN_DIR / name).read_text(encoding="utf-8"))


# An OpenBLAS core type and numpy loops other than the ones picked by default.
OTHER_KERNELS = {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


other_kernels_only = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the OpenBLAS core type and numpy CPU features named are x86-64 ones")


def rerun_under_other_kernels(test_file: str, selection: str) -> str:
    """Run the tests of test_file that selection picks under OTHER_KERNELS; their stdout."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, **OTHER_KERNELS, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test_file, "-k", selection],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
    return result.stdout


@other_kernels_only
def test_outputs_other_than_pointwise_do_not_depend_on_the_blas_kernel():
    # The pointwise surrogate weights still do, so their cases are left out.
    names = [name for name, _ in CASES if not name.startswith("pointwise-")]
    stdout = rerun_under_other_kernels("tests/test_golden.py",
                                       "test_cli_output_matches_golden and not pointwise-")
    assert f"{len(names)} passed" in stdout


@other_kernels_only
def test_block_draws_do_not_depend_on_the_numpy_loops():
    # The non-pointwise golden cases draw no block, so the draws, the threshold
    # compare and the packed presence design are checked here.
    stdout = rerun_under_other_kernels(
        "tests/test_properties.py",
        "test_block_draws_equal_the_scalar_stream or test_op_sized_blocks_equal_the_scalar_stream"
        " or test_sampler_batches_equal_the_per_token_reference or test_bernoulli_samples_at_exact_thresholds"
        " or test_perturbation_design_equals_per_sample_derivation")
    assert "7 passed" in stdout


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in run_cases(Path(tmp)).items():
            (GOLDEN_DIR / name).write_bytes(data)
    print(f"wrote {len(CASES)} golden files to {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    main()
