"""Benchmark of the rblie command line, run in-process.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up imports `rblie` from `src/` and
builds the workload's inputs (several times; the median is `setup_s`).
Then passes over the workload's operations repeat, each operation a
`rblie.cli.main` call with stdout and stderr captured, until `--seconds`
have been measured and at least MIN_PASSES passes are complete.  Every
operation's output is checked against the pinned oracle.  Times are
reported in reference seconds (see `calibration.py`): each is scaled by
how fast a fixed reference kernel ran around it, so that the machine's
own changes of speed cancel out.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` the
run makes one untraced and one traced pass and prints the per-layer
metrics, with times as measured (no reference kernel runs then).  The
last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibration import REFERENCE_S, Clock  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import (BUILDERS, BenchError, candidate_count,  # noqa: E402
                       check_dense, checked_count, dense_structures, load_oracle)

ROOT = Path(__file__).resolve().parent.parent
ORACLE = Path(__file__).resolve().parent / "oracle.json"
# Set-up repeats until SETUP_SECONDS have passed and at least SETUP_REPEATS
# set-ups are done; setup_s is their median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
# Every operation runs at least once.
MIN_PASSES = 1
# Within a pass, an operation that took less than SHORT_OP_S runs again, up
# to SHORT_OP_RUNS times in all, so that the median of a short operation,
# whose single runs vary most, rests on several runs.
SHORT_OP_S = 0.02
SHORT_OP_RUNS = 5

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class Package:
    """The rblie modules of one fresh import; submodules load on first use."""

    def __getattr__(self, name: str):
        module = importlib.import_module(f"rblie.{name}")
        setattr(self, name, module)
        return module

    @staticmethod
    def modules():
        return [m for n, m in list(sys.modules.items())
                if n == "rblie" or n.startswith("rblie.")]


def fresh_import(root: Path) -> Package:
    """Drop every loaded rblie module and import the package again from
    `root/src`, so each set-up repetition pays the import."""
    for name in [n for n in sys.modules if n == "rblie" or n.startswith("rblie.")]:
        del sys.modules[name]
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    rb = Package()
    importlib.import_module("rblie")
    rb.cli  # noqa: B018  (the CLI is what every operation calls)
    return rb


def check_checkout(root: Path) -> None:
    if not (root / "src" / "rblie" / "cli.py").is_file():
        raise BenchError(f"no rblie sources under {root / 'src'}")
    if not (root / "catalog").is_dir():
        raise BenchError(f"no catalog directory under {root}")


def call(main, argv) -> tuple[object, str, str]:
    """One CLI invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception as e:  # counts as a failed operation, never aborts the run
            code = f"uncaught {type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


def setup(workload: str, root: Path, seed: int, work: Path, oracle: dict,
          clock: Clock | None):
    """Import and build inputs repeatedly; return the last package,
    its operations and the median set-up time (in reference seconds when
    timed by a running `clock`)."""
    spans = []
    deadline = perf_counter() + SETUP_SECONDS
    while len(spans) < SETUP_REPEATS or perf_counter() < deadline:
        gc.collect()
        start = perf_counter()
        rb = fresh_import(root)
        ops = BUILDERS[workload](rb, root, seed, work, oracle)
        spans.append((start, perf_counter()))
    if workload == "dense":
        check_dense(rb, dense_structures(rb, seed))
    times = [clock.reference(*span) if clock else span[1] - span[0] for span in spans]
    return rb, ops, statistics.median(times), len(times)


class Runs:
    """Runs of one pass's operations: when each ran, failures, counts."""

    def __init__(self, n_ops: int, clock: Clock | None):
        self.clock = clock
        self.spans: list[tuple[int, float, float]] = []   # (op, start, end)
        self.attempted = 0
        self.failures: list[str] = []
        self.checked: list[int] = [0] * n_ops
        self.candidates: list[int] = [0] * n_ops
        self.complete = 0

    def run_op(self, k: int, op, main, tracer=None) -> float:
        gc.collect()
        if tracer is not None:
            span = tracer.open("cli.main", "cli.main")
        start = perf_counter()
        code, out, err = call(main, op.argv)
        end = perf_counter()
        if tracer is not None:
            tracer.close(span)
            tracer.end_op()
        self.spans.append((k, start, end))
        self.attempted += 1
        self.checked[k] = checked_count(err)
        self.candidates[k] = candidate_count(err)
        if not op.expect(code, out, err):
            self.failures.append(f"{' '.join(op.argv)}: exit {code}, "
                                 f"{len(out)} bytes of stdout, stderr {err.strip()[:200]!r}")
        return end - start

    def run(self, ops, main, passes: int = 1, deadline: float | None = None,
            tracer=None, repeat_short: bool = False) -> None:
        """`passes` complete passes, then further operations until
        `deadline`; with `repeat_short`, short operations run several times
        in a pass.  A traced pass runs each operation once, so that its
        counts do not depend on how long an operation took."""
        while True:
            for k, op in enumerate(ops):
                runs = 1
                while (self.run_op(k, op, main, tracer) < SHORT_OP_S and repeat_short
                       and runs < SHORT_OP_RUNS):
                    runs += 1
                if k == len(ops) - 1:
                    self.complete += 1
                if self.complete >= passes and (deadline is None
                                                or perf_counter() >= deadline):
                    return

    def latencies(self, raw: bool = False) -> list[list[float]]:
        """Each operation's latencies: in reference seconds, or (`raw`, or
        without a clock) in seconds as measured, less the clock's kernel
        runs."""
        out: list[list[float]] = [[] for _ in self.checked]
        for k, start, end in self.spans:
            if self.clock is None:
                out[k].append(end - start)
            elif raw:
                out[k].append(self.clock.elapsed(start, end))
            else:
                out[k].append(self.clock.reference(start, end))
        return out

    def medians(self, raw: bool = False) -> list[float]:
        """Each operation's median latency."""
        return [statistics.median(xs) for xs in self.latencies(raw)]

    def wall(self, raw: bool = False) -> float:
        """Time of one pass: the sum of each operation's median latency."""
        return sum(self.medians(raw))


def percentile_ms(samples: list[float], q: float) -> tuple[float, int]:
    """The Harrell-Davis estimate of the q-quantile of the samples, in ms,
    and how many samples lie above it.

    The estimate weighs the i-th smallest of n samples by the mass that a
    Beta((n+1)q, (n+1)(1-q)) distribution puts on [(i-1)/n, i/n].  Unlike
    a single order statistic it does not jump from one sample to the next
    when the samples near the quantile are far apart.
    """
    xs = sorted(samples)
    n, grid = len(xs), 20000   # grid: points at which the Beta density is summed
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((j + 0.5) / grid for j in range(grid))]
    top = max(logs)
    cdf = [0.0]
    for v in logs:
        cdf.append(cdf[-1] + math.exp(v - top))
    value = sum((cdf[(i + 1) * grid // n] - cdf[i * grid // n]) * x
                for i, x in enumerate(xs)) / cdf[-1]
    return value * 1000, sum(1 for x in xs if x > value)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; return the result dict, the report lines and the
    passes made."""
    check_checkout(ROOT)
    oracle = load_oracle(ORACLE)
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # The reference kernel runs during untraced runs only, so that no
        # kernel time lands in the traced per-layer times; a traced run
        # reports times as measured.
        clock = None if trace else Clock()
        with clock or nullcontext():
            rb, ops, setup_s, setups = setup(workload, ROOT, seed, work, oracle, clock)
            main = rb.cli.main
            lines = [f"workload {workload}: seed {seed}, {len(ops)} operations per pass, "
                     f"set-up median of {setups}"]
            if trace:
                plain = Runs(len(ops), clock)
                plain.run(ops, main)
                tracer = Tracer(rb)
                traced = Runs(len(ops), clock)
                tracer.install()
                try:
                    traced.run(ops, main, tracer=tracer)
                finally:
                    tracer.uninstall()
                metrics = tracer.metrics()
                metrics["trace.overhead_ratio"] = traced.wall() / plain.wall()
                for name, calls, total, own in tracer.span_summary():
                    lines.append(f"span {name}: {calls} calls, {total:.4f} s total, "
                                 f"{own:.4f} s self")
                lines.append(f"checked_sum {sum(traced.checked)} (CLI 'checked N' lines, "
                             f"traced pass)")
                runs = (plain, traced)
                result_metrics = {name: {"value": metrics[name], "unit": _unit(name)}
                                  for name in PER_LAYER}
            else:
                stats = Runs(len(ops), clock)
                stats.run(ops, main, MIN_PASSES, deadline=perf_counter() + seconds,
                          repeat_short=True)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                runs = (stats,)
                wall = stats.wall()
                # The percentiles are over each op's median, so that every op
                # weighs the same however many runs it made.
                medians = stats.medians()
                p50, _ = percentile_ms(medians, 0.5)
                p90, beyond = percentile_ms(medians, 0.9)
                values = {
                    "setup_s": setup_s,
                    "wall_s": wall,
                    "ops_per_s": len(ops) / wall,
                    "op_p50_ms": p50,
                    "peak_rss_mb": peak_rss_mb,
                }
                result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                  for k, v in values.items()}
                lines.append(f"samples {len(medians)} operations, each the median of its "
                             f"runs: {stats.attempted} runs over {stats.complete} complete "
                             f"passes")
                kernel_s = clock.kernel_s()
                lines.append(f"raw wall_s {stats.wall(raw=True)} s (as measured); reference "
                             f"kernel median {statistics.median(kernel_s) * 1000:.3f} ms "
                             f"over {len(kernel_s)} runs, REFERENCE_S "
                             f"{REFERENCE_S * 1000:.3f} ms")
                if workload == "search":
                    lines.append(f"candidates_per_s {sum(stats.candidates) / wall} 1/s")
                else:
                    lines.append(f"checks_per_s {sum(stats.checked) / wall} 1/s")
                if beyond >= 10:
                    lines.append(f"op_p90_ms {p90} ms ({beyond} operations above it)")
                else:
                    lines.append(f"op_p90_ms not reported: only {beyond} operations above "
                                 f"the 90th percentile")
            attempted = sum(r.attempted for r in runs)
            failures = [f for r in runs for f in r.failures]
            lines.append(f"failed_ratio {len(failures) / attempted} "
                         f"({len(failures)} of {attempted} operations)")
            lines += [f"FAILED {f}" for f in failures[:20]]
            result = {"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}
            return result, lines, runs
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, lines, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
