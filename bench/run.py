"""rankexplain benchmark: three seeded, single-process, closed-loop workloads.

    python3 bench/run.py --workload ingest-rank --seed 1 --seconds 6 --trace 0
    python3 bench/run.py --workload all --seed 1

One client in one process sends the next op only when the previous one
has returned. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from wrappers around the library's public
functions. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. ``--workload all`` runs each
workload in a fresh process. See bench/README.md for the metric table.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import signal
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("ingest-rank", "listwise-hidden", "doc-explain")
SETUP_REPEATS = 3
MIN_TIMED_OPS = 100      # p90 needs at least ten samples above it
ROUNDS = 3
MAX_REPORTED_FAILURES = 5
SETUP_PROBE_INTERVAL_S = 0.25
PROBE_LOOPS = 2_000
REFERENCE_PROBE_S = 1e-3


def import_library():
    """Import rankexplain from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import rankexplain
    except ImportError as exc:
        sys.exit(f"error: cannot import rankexplain from {SRC}: {exc}")
    if Path(rankexplain.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: imported rankexplain from {rankexplain.__file__}, not from {SRC}")
    return rankexplain


def commit_id() -> str:
    """HEAD of the checkout's git metadata, when it has any."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next(line.split()[0] for line in packed if line.endswith(" " + ref[5:]))
        return ref
    except (OSError, StopIteration):
        return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rankexplain").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit_id(), "src_sha256": source_digest()[:16],
            "seed": seed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_PROBE_KEYS = tuple(f"k{i}" for i in range(256))


def probe() -> float:
    """Seconds for a fixed pure-Python loop, the fastest of three runs.

    On a shared host the speed at which interpreted code runs drifts by up
    to half, in spells of seconds to minutes. Timing this loop next to the
    work tells how fast the host was at that moment. It mixes the dict,
    list, float and sort work the library does, because a tight integer
    loop slows down less than such code does in a slow spell.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        counts: dict = {}
        pairs = []
        acc = 0.0
        for i in range(PROBE_LOOPS):
            key = _PROBE_KEYS[i & 255]
            counts[key] = counts.get(key, 0) + 1
            acc += math.log(1.0 + i)
            pairs.append((key, i))
        pairs.sort()
        best = min(best, time.perf_counter() - start)
    return best


def host_scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """seconds as they would read on a host that runs the probe in REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)


class Runner:
    """Runs ops one after another, timing each and applying its check.

    An op's time is scaled by the probe run before and after it (see
    ``host_scaled``); the unscaled sum is kept in ``raw_busy``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.next_id = 0
        self.raw_busy = 0.0
        self.last_probe = probe()

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            print(f"FAILED {what}: {detail}", file=sys.stderr)

    def run(self, op, record: bool, traced: bool = False) -> float:
        """Host-scaled seconds the op took. Raising or failing its check counts as failed."""
        self.attempted += 1
        op_id = self.next_id
        self.next_id += 1
        if traced:
            self.tracer.begin(op_id, op.kind)
        start = time.perf_counter()
        raised = False
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 - every op failure is counted, not fatal
            self.fail(f"op {op_id} ({op.kind})", exc)
            raised = True
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.end()
        before, self.last_probe = self.last_probe, probe()
        self.raw_busy += elapsed
        if not raised:
            try:
                op.check(out, record)
            except Exception as exc:  # noqa: BLE001 - a check failure counts like an op failure
                self.fail(f"op {op_id} ({op.kind}) check", exc)
        return host_scaled(elapsed, before, self.last_probe)


def probed_call(fn) -> tuple:
    """Raw and host-scaled seconds of fn(), probing the host every
    SETUP_PROBE_INTERVAL_S from a timer signal.

    A set-up runs for seconds, long enough for the host's speed to change
    inside it, so each slice between two probes is scaled by the probes
    at its ends. The probes' own time is left out of both figures.
    """
    marks = []      # (probe start, probe end, probe seconds)

    def sample(*_):
        start = time.perf_counter()
        seconds = probe()
        marks.append((start, time.perf_counter(), seconds))

    sample()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SETUP_PROBE_INTERVAL_S, SETUP_PROBE_INTERVAL_S)
    try:
        fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    sample()
    raw = scaled = 0.0
    for (_, left_end, left), (right_start, _, right) in zip(marks, marks[1:]):
        raw += right_start - left_end
        scaled += host_scaled(right_start - left_end, left, right)
    return raw, scaled


def timed_setups(wl, repeats: int) -> tuple:
    """Host-scaled and raw seconds of each set-up."""
    scaled, raw = [], []
    for _ in range(repeats):
        wl.index = None
        gc.collect()
        seconds, scaled_seconds = probed_call(wl.setup)
        raw.append(seconds)
        scaled.append(scaled_seconds)
    return scaled, raw


def finish_setup(wl, runner: Runner) -> None:
    runner.attempted += 1
    try:
        wl.check_setup()
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        runner.fail("set-up check", exc)
    wl.prepare()


def warm_up(wl, runner: Runner) -> None:
    for op in wl.group(0):
        runner.run(op, record=False)


def measure(wl, seconds: float) -> dict:
    """End-to-end metrics: set-up repeats, then ROUNDS passes of the closed loop.

    The first round serves groups until it has run a ROUNDS-th of the
    run's seconds, at least MIN_TIMED_OPS ops and every quality group;
    later rounds serve the same groups again. An op's latency is the
    median of its ROUNDS host-scaled runs.
    """
    from stats import median, percentile

    runner = Runner()
    setups, raw_setups = timed_setups(wl, SETUP_REPEATS)
    finish_setup(wl, runner)
    warm_up(wl, runner)
    raw_start = runner.raw_busy
    runs: list = []      # per op: its latency in each round
    kinds: list = []
    busy = 0.0
    groups = 0
    while busy < seconds / ROUNDS or len(runs) < MIN_TIMED_OPS or groups < wl.quality_groups:
        for op in wl.group(groups):
            elapsed = runner.run(op, record=groups < wl.quality_groups)
            runs.append([elapsed])
            kinds.append(op.kind)
            busy += elapsed
        groups += 1
    for _ in range(ROUNDS - 1):
        ops = (op for g in range(groups) for op in wl.group(g))
        for op, op_runs in zip(ops, runs):
            op_runs.append(runner.run(op, record=False))
    per_op = [median(r) for r in runs]
    by_kind: dict = {}
    for kind, latency in zip(kinds, per_op):
        by_kind.setdefault(kind, []).append(latency)
    metrics = {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "ops/s"),
        "op_ms_p50": (percentile(per_op, 50) * 1e3, "ms"),
        "op_ms_p90": (percentile(per_op, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    shown = dict(metrics)
    shown["error_rate"] = (runner.failed / runner.attempted, "fraction")
    units = {"fidelity_rbo": "rbo", "hidden_recall": "fraction",
             "pointwise_correctness": "pearson", "pointwise_correctness_left_out": "count",
             "pointwise_consistency": "jaccard"}
    for name, value in wl.quality().items():
        shown[name] = (value, units[name])
    detail = {"setup_runs_s": setups, "raw_setup_runs_s": raw_setups, "timed_ops": len(per_op),
              "rounds": ROUNDS, "timed_busy_s": sum(sum(r) for r in runs),
              "raw_busy_s": runner.raw_busy - raw_start, "groups": groups,
              "digest": wl.digest.hexdigest(),
              "ms_p50_by_kind": {k: (len(v), median(v) * 1e3) for k, v in sorted(by_kind.items())}}
    return {"runner": runner, "metrics": metrics, "shown": shown, "detail": detail}


def trace(wl, seconds: float) -> dict:
    """Per-layer metrics: one traced set-up, then untraced and traced passes."""
    import tracing

    tracer = tracing.instrument()
    runner = Runner(tracer)
    tracer.install()
    tracer.begin("setup", "setup")
    start = time.perf_counter()
    try:
        wl.setup()
    finally:
        setup_wall = time.perf_counter() - start
        tracer.end()
        tracer.uninstall()
    setup = tracer.take()
    finish_setup(wl, runner)
    warm_up(wl, runner)
    busy = {False: 0.0, True: 0.0}
    raw_traced_busy = 0.0
    done = {False: 0, True: 0}
    kind_ops: Counter = Counter()

    def one_pass(patches, tally: bool = True) -> int:
        """Run the fixed op list once, traced when patches are given."""
        nonlocal raw_traced_busy
        traced = bool(patches)
        raw_before = runner.raw_busy
        if traced:
            tracer.install(patches)
        try:
            n = 0
            for g in range(wl.trace_groups):
                for op in wl.group(g):
                    seconds_taken = runner.run(op, record=False, traced=traced)
                    n += 1
                    if tally:
                        busy[traced] += seconds_taken
                        if traced:
                            kind_ops[op.kind] += 1
            return n
        finally:
            if traced:
                tracer.uninstall(patches)
            if traced and tally:
                raw_traced_busy += runner.raw_busy - raw_before

    start = time.perf_counter()
    while not done[True] or time.perf_counter() - start < seconds:
        done[False] += one_pass(None)
        done[True] += one_pass(tracer.patches)
    ops = tracer.take()
    draw_pass_ops = one_pass(tracer.draw_patches, tally=False)
    traced_passes = done[True] // draw_pass_ops
    ops["calls"]["rng.draws"] = tracer.take()["calls"]["rng.draws"] * traced_passes
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{wl.name}-seed{wl.seed}-spans.jsonl"
    tracer.write_spans(str(spans_path))
    overhead = (done[True] / busy[True]) / (done[False] / busy[False])
    metrics = layer_metrics(setup, setup_wall, ops, done[True], kind_ops, overhead,
                            getattr(wl, "index_file_mb", 0.0))
    detail = {"traced_ops": done[True], "untraced_ops": done[False],
              "traced_busy_s": busy[True], "untraced_busy_s": busy[False],
              "raw_traced_busy_s": raw_traced_busy,
              "setup_wall_s": setup_wall, "ops_by_kind": dict(kind_ops),
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return {"runner": runner, "metrics": metrics, "shown": metrics, "detail": detail,
            "setup": setup, "ops": ops}


def layer_metrics(setup: dict, setup_wall: float, ops: dict, n_ops: int,
                  kind_ops: Counter, overhead: float, file_mb: float) -> dict:
    """Set-up figures per traced set-up; op figures per traced op."""
    def calls(name):
        return ops["calls"][name] / n_ops, "count/op"

    def self_s(*names):
        return sum(ops["self_s"][n] for n in names) / n_ops, "s/op"

    def counted(name):
        return ops["counts"][name] / n_ops, "count/op"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    stem_calls = setup["calls"]["stem.porter_stem"]
    bfs_ops = kind_ops.get("bfs", 0)
    return {
        "analysis.tokenize_calls": (setup["calls"]["analysis.tokenize"], "count"),
        "analysis.tokenize_s": (setup["self_s"]["analysis.tokenize"], "s"),
        "stem.calls": (stem_calls, "count"),
        "stem.distinct_ratio": ratio(len(setup["stem_words"]), stem_calls),
        "stem.s": (setup["self_s"]["stem.porter_stem"], "s"),
        "stem.setup_share": ratio(setup["self_s"]["stem.porter_stem"], setup_wall),
        "index.build_s": (setup["self_s"]["index.build_index"], "s"),
        "index.save_s": (setup["self_s"]["index.save"], "s"),
        "index.load_s": (setup["self_s"]["index.load"], "s"),
        "index.file_mb": (file_mb, "MB"),
        "index.avgdl_calls": calls("index.avgdl"),
        "index.idf_calls": calls("index.idf"),
        "index.avgdl_calls_per_bfs_op": ratio(ops["kind_calls"][("bfs", "index.avgdl")], bfs_ops),
        "rankers.rank_calls": calls("rankers.rank"),
        "rankers.rank_s": self_s("rankers.rank"),
        "rankers.docs_scored": counted("rankers.docs_scored"),
        "rankers.score_calls": calls("rankers.score"),
        "rankers.score_tokens_calls": calls("rankers.score_tokens"),
        "rankers.score_s": self_s("rankers.score", "rankers.score_tokens"),
        "perturb.samples": counted("perturb.samples"),
        "perturb.draw_s": self_s("perturb.draw_samples"),
        "rng.draws": calls("rng.draws"),
        "pointwise.fit_calls": calls("pointwise.fit"),
        "pointwise.fit_s": self_s("pointwise.fit"),
        "pointwise.fallbacks": counted("pointwise.fallbacks"),
        "pointwise.explain_s": self_s("pointwise.lirme", "pointwise.exs"),
        "axioms.preference_calls": calls("axioms.preference"),
        "axioms.preference_s": self_s("axioms.preference", "axioms.aggregate"),
        "axioms.details_s": self_s("axioms.details", "axioms.render"),
        "listwise.candidates_s": self_s("listwise.candidates"),
        "listwise.pairs_s": self_s("listwise.pairs"),
        "listwise.pairs_s_per_call": ratio(ops["self_s"]["listwise.pairs"], ops["calls"]["listwise.pairs"]),
        "listwise.pairs_drawn": counted("listwise.pairs_drawn"),
        "listwise.matrix_s": self_s("listwise.matrix"),
        "listwise.matrix_cells": counted("listwise.matrix_cells"),
        "listwise.cover_s": self_s("listwise.cover"),
        "listwise.fidelity_evals": calls("listwise.fidelity"),
        "listwise.fidelity_s": self_s("listwise.fidelity"),
        "listwise.search_s": self_s("listwise.greedy", "listwise.bfs", "listwise.explain"),
        "listwise.improving_eval_ratio": ratio(ops["counts"]["listwise.improving_evals"],
                                               ops["counts"]["listwise.evals_after_first"]),
        "listwise.budget_exhausted_ratio": ratio(ops["counts"]["listwise.budget_exhausted"],
                                                 ops["calls"]["listwise.bfs"]),
        "evaluation.rbo_calls": calls("evaluation.rbo"),
        "evaluation.rbo_s": self_s("evaluation.rbo"),
        "evaluation.rank_corr_s": self_s("evaluation.rank_corr"),
        "trace.ops_per_s_ratio": (overhead, "ratio"),
    }


def print_trace_report(result: dict) -> None:
    """Self time and calls per layer, with the bases of every ratio."""
    d = result["detail"]
    ops, setup = result["ops"], result["setup"]
    n = d["traced_ops"]
    print(f"traced set-up: {d['setup_wall_s']:.4f} s wall")
    for name in sorted(setup["calls"]):
        print(f"  setup {name:28s} calls={setup['calls'][name]:>9d}  self={setup['self_s'].get(name, 0.0):.4f} s")
    print(f"traced ops: {n} (ops by kind: {d['ops_by_kind']}), busy {d['raw_traced_busy_s']:.4f} s"
          f" ({d['traced_busy_s']:.4f} s host-scaled); untraced: {d['untraced_ops']} ops,"
          f" busy {d['untraced_busy_s']:.4f} s host-scaled")
    for name in sorted(ops["calls"]):
        self_time = ops["self_s"].get(name, 0.0)
        print(f"  op    {name:28s} calls={ops['calls'][name]:>9d}  self={self_time:.4f} s"
              f"  share={self_time / d['raw_traced_busy_s']:.3f} of traced busy time")
    m = result["metrics"]
    print(f"fact: stemming is {m['stem.setup_share'][0]:.3f} of traced set-up wall time"
          f" (base: {d['setup_wall_s']:.4f} s); distinct ratio {m['stem.distinct_ratio'][0]:.4f}"
          f" (base: {setup['calls']['stem.porter_stem']} stem calls)")
    print(f"fact: {m['index.avgdl_calls_per_bfs_op'][0]:.1f} avgdl calls per bfs op"
          f" (base: {d['ops_by_kind'].get('bfs', 0)} bfs ops)")
    print(f"fact: sample_pairs self time {m['listwise.pairs_s_per_call'][0]:.4f} s per call"
          f" (base: {ops['calls']['listwise.pairs']} calls)")
    print(f"tracing overhead: traced ops_per_s / untraced ops_per_s = {m['trace.ops_per_s_ratio'][0]:.4f}"
          f" (base: {n} traced and {d['untraced_ops']} untraced ops)")


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import_library()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[name](seed, str(OUT_DIR))
    env = environment(seed)
    print(f"workload {name}: {wl.why}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    result = trace(wl, seconds) if traced else measure(wl, seconds)
    corpus = wl.corpus_stats()
    print("corpus " + " ".join(f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}"
                               for k, v in corpus.items()))
    runner = result["runner"]
    if traced:
        print_trace_report(result)
    else:
        d = result["detail"]
        print(f"timed ops: {d['timed_ops']} in {d['groups']} groups, each run {d['rounds']} times,"
              f" busy {d['raw_busy_s']:.3f} s ({d['timed_busy_s']:.3f} s host-scaled);"
              f" set-up runs: {', '.join(f'{s:.3f}' for s in d['raw_setup_runs_s'])} s"
              f" ({', '.join(f'{s:.3f}' for s in d['setup_runs_s'])} s host-scaled)")
        print(f"latency percentiles over {d['timed_ops']} ops (median of {d['rounds']} runs each);"
              f" sha256 of outputs {d['digest']}")
        print("ops by kind (count, median ms): " + ", ".join(
            f"{k} ({n}, {ms:.2f})" for k, (n, ms) in d["ms_p50_by_kind"].items()))
    for metric, (value, unit) in result["shown"].items():
        print(f"  {metric:34s} {value:.6g} {unit}")
    summary = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    record = {"workload": name, "trace": int(traced), "env": env, "corpus": corpus,
              "shown": {k: {"value": v, "unit": u} for k, (v, u) in result["shown"].items()},
              "detail": result["detail"], **summary}
    (OUT_DIR / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    return summary


def run_all(args) -> dict:
    """Each workload in a fresh process, so memory and lazy caches do not leak."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        child = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        summary = run_all(args)
    else:
        summary = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
