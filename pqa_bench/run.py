"""PQA: one benchmark for peer consistent answers.

Usage (from the repository root)::

    python3 pqa_bench/run.py --workload cold-asp --seed 1 --seconds 25 --trace 0
    python3 pqa_bench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds
(whole rounds, and at least MIN_QUERIES queries so the 90th percentile
has ten samples beyond it), with SETUPS timed set-ups spread over the
run.  ``--trace 1`` runs a fixed number of rounds twice, tracing every
other round — the even ones in the first pass, the odd ones in the
second — with spans and counts at every layer boundary, and reports the
per-layer metrics and the tracing overhead; its spans are written to
``pqa_bench/out/``.  ``--workload all`` runs every
workload, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the raw (unscaled) figures and the reference loop's median.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: timed set-ups per run, each on a fresh instance of the workload
SETUPS = 15
MIN_QUERIES = 100
#: a run stops measuring by then even short of MIN_QUERIES, so the
#: process always ends well within three minutes
HARD_CAP_S = 120.0
#: problems echoed to standard error per run
SHOWN_PROBLEMS = 5


def _pin_to_one_core() -> None:
    """Run the workload process on one core.

    With the interpreter lock, the fan-out threads of the in-process
    network never run bytecode in parallel; left free to move between
    cores, they paid cross-core hand-offs whose cost depended on whether
    a neighbour kept the other core busy (a busy neighbour made
    ``net-gather`` 15% faster), which the reference loop cannot see.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program():
    """Put the repository's ``src/`` on the path and import the
    workloads; exit non-zero when the program is not there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


class Run:
    """Operations, samples and traffic of one measured pass."""

    def __init__(self, scaler) -> None:
        self.scaler = scaler
        #: set by :func:`trace` for the rounds it traces
        self.tracer = None
        self.samples: dict[str, list[tuple[float, int]]] = {
            "query": [], "update": [], "setup": []}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.traffic = dict.fromkeys(
            ("answers", "messages", "bytes", "max_hops",
             "neighbours_contacted", "neighbours_pruned",
             "subtrees_pruned"), 0)

    def op(self, kind: str, action, check):
        """Time ``action``, check its result, and keep the sample only
        when every check passes.  Returns the result (None on error)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(self.attempted)
        start = time.perf_counter()
        try:
            result = action()
        except Exception as exc:  # the benchmark keeps running; it counts
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        else:
            problems = None
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if self.tracer is not None:
            self.tracer.end_op()
        ref_index = self.scaler.mark()
        if problems is None:
            try:
                problems = check(result)
            except Exception as exc:  # a check that raises fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return result
        self.samples[kind].append((elapsed_ms, ref_index))
        exchange = result.exchange
        traffic = self.traffic
        traffic["answers"] += 1
        traffic["messages"] += exchange.requests
        traffic["bytes"] += exchange.bytes_estimate
        traffic["max_hops"] = max(traffic["max_hops"], exchange.max_hops)
        traffic["neighbours_contacted"] += exchange.neighbours_contacted
        traffic["neighbours_pruned"] += exchange.neighbours_pruned
        traffic["subtrees_pruned"] += exchange.subtrees_pruned
        return result

    def scaled(self, kind: str) -> list[float]:
        return [ms * self.scaler.factor(index)
                for ms, index in self.samples[kind]]

    def raw(self, kind: str) -> list[float]:
        return [ms for ms, _index in self.samples[kind]]

    def mark(self) -> tuple[int, int]:
        """Where the samples end now; see :meth:`busy_ms_between`."""
        return len(self.samples["query"]), len(self.samples["update"])

    def busy_ms_between(self, start: tuple[int, int],
                        end: tuple[int, int]) -> float:
        """Scaled time of the operations sampled between two marks."""
        return sum(sum(self.scaled(kind)[lo:hi])
                   for kind, lo, hi in zip(("query", "update"), start, end))

    def time_setup(self, cls, seed: int, index: int) -> None:
        """Time one set-up on a fresh instance of the workload.

        Set-ups are spread over the run and scaled when it ends, by the
        reference measurements on both sides of each, like the
        operations; a set-up that runs in a slow moment is corrected by
        the loop times around it.
        """
        start = time.perf_counter()
        workload = cls(seed)
        workload.setup(index)
        elapsed_s = time.perf_counter() - start
        workload.close()
        self.samples["setup"].append((elapsed_s, self.scaler.mark()))


def _figures(run: Run, samples) -> dict:
    queries, updates = samples("query"), samples("update")
    busy_s = (sum(queries) + sum(updates)) / 1000.0
    p90 = statistics.quantiles(queries, n=10)[8] if len(queries) > 1 \
        else queries[0]
    answers = max(1, run.traffic["answers"])
    return {
        "setup_s": (statistics.median(samples("setup")), "s"),
        "query_p50_ms": (statistics.median(queries), "ms"),
        "query_p90_ms": (p90, "ms"),
        "qps": ((len(queries) + len(updates)) / busy_s, "1/s"),
        "update_p50_ms": (statistics.median(updates), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "messages_per_query": (run.traffic["messages"] / answers, "count"),
        "bytes_per_query": (run.traffic["bytes"] / answers, "bytes"),
    }


def _as_metrics(figures: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in figures.items()}


def measure(workloads, name: str, seed: int, seconds: float) -> dict:
    from refloop import Scaler
    cls = workloads.WORKLOADS[name]
    scaler = Scaler()
    workload = cls(seed)
    workload.setup(0)
    run = Run(scaler)
    setups = run.samples["setup"]
    start = time.perf_counter()
    rounds = 0
    while True:
        # set-up k is due at k / SETUPS of the run, the rest at its end
        elapsed = time.perf_counter() - start
        done = elapsed >= HARD_CAP_S or (
            elapsed >= seconds and len(run.samples["query"]) >= MIN_QUERIES)
        while len(setups) < SETUPS and (
                done or elapsed >= len(setups) * seconds / SETUPS):
            run.time_setup(cls, seed, len(setups))
        if done:
            break
        workload.round(run)
        rounds += 1
    if elapsed >= HARD_CAP_S:
        print(f"warning: stopped at {HARD_CAP_S:.0f}s with "
              f"{len(run.samples['query'])} queries", file=sys.stderr)
    workload.close()
    raw = _figures(run, run.raw)
    print(json.dumps({
        "workload": name, "rounds": rounds,
        "queries": len(run.samples["query"]),
        "updates": len(run.samples["update"]),
        "ref_ms": scaler.median(), "ref_samples": len(scaler.refs),
        "raw": {key: value for key, (value, _unit) in raw.items()}}))
    return _result(run, _figures(run, run.scaled))


def _result(run: Run, figures: dict) -> dict:
    for problem in run.problems[:SHOWN_PROBLEMS]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": _as_metrics(figures)}


def trace(workloads, name: str, seed: int) -> dict:
    """The same fixed rounds twice over, each round traced in one pass.

    The first pass traces the even rounds, the second the odd ones, so
    the traced rounds add up to one whole pass — the per-layer metrics
    and counts — and every round also runs plain.  Each round is timed
    traced against itself plain, a few seconds apart at most, and
    ``trace.overhead_pct`` is the median of those per-round differences:
    a machine that speeds up or slows down during the run biases
    neither side.
    """
    from refloop import Scaler
    from tracing import COUNT_METRICS, Tracer
    cls = workloads.WORKLOADS[name]
    tracer = Tracer()

    def one_pass(traced_parity: int) -> tuple[Run, list[float]]:
        workload = cls(seed)
        workload.setup(0)  # never traced: spans are taken in operations
        run = Run(Scaler())
        marks = [run.mark()]
        for index in range(cls.trace_rounds):
            traced = index % 2 == traced_parity
            if traced:
                run.tracer = tracer
                tracer.install()
            try:
                workload.round(run)
            finally:
                if traced:
                    tracer.uninstall()
                    run.tracer = None
            marks.append(run.mark())
        workload.close()
        return run, [run.busy_ms_between(a, b)
                     for a, b in zip(marks, marks[1:])]

    first, first_ms = one_pass(0)
    second, second_ms = one_pass(1)
    overheads = [
        (traced / plain - 1.0) * 100.0
        for index, (a, b) in enumerate(zip(first_ms, second_ms))
        for traced, plain in [(a, b) if index % 2 == 0 else (b, a)]]

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{name}-seed{seed}.jsonl")
    ops = max(1, first.attempted)
    figures = {metric: (total / ops, "ms/op")
               for metric, total in tracer.layer_ms().items()}
    for metric in COUNT_METRICS:
        figures[metric] = (tracer.counts.get(metric, 0), "count")
    traffic = first.traffic  # the same in both passes
    figures["net.messages"] = (traffic["messages"], "count")
    figures["net.bytes"] = (traffic["bytes"], "bytes")
    figures["net.max_hops"] = (traffic["max_hops"], "count")
    for key in ("neighbours_contacted", "neighbours_pruned",
                "subtrees_pruned"):
        figures[f"routing.{key}"] = (traffic[key], "count")
    figures["trace.overhead_pct"] = (statistics.median(overheads), "%")
    print(json.dumps({"workload": name, "rounds": cls.trace_rounds,
                      "ops": ops, "round_overheads_pct": overheads,
                      "spans": len(tracer.spans)}))
    first.attempted += second.attempted
    first.failed += second.failed
    first.problems += second.problems
    return _result(first, figures)


def run_all(args, names) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in names:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False, timeout=300)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{name}: exited {completed.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            status = 1
        if len(lines) > 1:
            print(lines[-2])  # the raw figures
        print(json.dumps({"workload": name, **result}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = _import_program()
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)} or 'all'")
    _pin_to_one_core()
    if args.trace:
        result = trace(workloads, args.workload, args.seed)
    else:
        result = measure(workloads, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
