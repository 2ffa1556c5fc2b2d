"""Benchmark of the collatz-strings verifier CLI.

    python3 bench/run.py --workload passage-sweep --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout of the repository; the package is
loaded from its `src/` directory, so nothing needs installing.  The
workload's op list is generated from the seed (see workloads.py) and every
op is one `python -m collatz_strings ...` child process, run in a closed
loop with one client: the next op starts when the previous one exits.
Before any timing, each op's expected exit code and report digest are
computed by the independent references in oracle.py; every run of an op
is checked against them.

--trace 0 measures end to end: whole passes over the op list, with a few
runs of a no-work invocation (the set-up cost) before each, until the
passes' op time reaches --seconds.  Times leave out the time an op was
runnable while its CPU was held by another process or taken by the host,
and are calibrated for the speed of the CPU at the time (see launcher.py
and calibrate below).
--trace 1 alternates untraced and traced in-process passes (see spans.py)
for --seconds, then runs one kernel-counting pass, one tracemalloc pass
and the kernel microbenchmarks, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Metric names
and units are those listed in BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_WARMUPS = 2
SETUP_PER_PASS = 4
TAIL_BEYOND = 10  # the tail latency is the highest percentile with this many ops beyond it

# Counts that must repeat exactly in every traced pass of the same op list.
EXACT_COUNTS = (
    "cli.main.calls",
    "strings.passage_sweep.steps",
    "strings.passage_sweep.positions",
    "strings.partition_audit.positions",
    "reporting.render.calls",
    "reporting.render.records",
    "reporting.render.bytes",
    "checkpoint.save.calls",
    "checkpoint.save.bytes",
    "progressions.first_recurrence.candidates",
)


# Time of launcher.calibrate() on an idle CPU of the 2-CPU machine this
# benchmark was defined on: op times are reported at that CPU speed.
CAL_REFERENCE_S = 0.0012
# The CPU speed for an op is the median calibration of the ops started this
# many places before and after it: speed episodes last seconds, while a
# single calibration also catches sub-second jitter.
CAL_NEIGHBOURS = 4


@dataclass
class Sample:
    """One execution of an op and its verdict against the reference.

    wall and cpu are seconds, calibrated by calibrate() for subprocess runs;
    raw_wall and raw_cpu are as measured, waited is the part of raw_wall the
    run spent runnable while its CPU was held by another process or taken by
    the host, and calibration is the launcher's loop time around the run.
    """

    op: object
    wall: float
    code: int | None
    data: bytes
    cpu: float = 0.0
    rss_mib: float = 0.0
    raw_wall: float = 0.0
    raw_cpu: float = 0.0
    waited: float = 0.0
    calibration: float = 0.0
    ok: bool = False
    body: str = ""


def calibrate(timeline: list[Sample]) -> None:
    """Drop CPU waits and scale each run's times to the reference CPU speed."""
    cal = [s.calibration for s in timeline]
    for i, s in enumerate(timeline):
        speed = CAL_REFERENCE_S / statistics.median(
            cal[max(0, i - CAL_NEIGHBOURS):i + CAL_NEIGHBOURS + 1])
        s.wall, s.cpu = (s.raw_wall - s.waited) * speed, s.raw_cpu * speed


class Runner:
    """Starts ops, caches their references and checks every execution."""

    def __init__(self, corrupt_reference=None) -> None:
        import oracle

        self.oracle = oracle
        self.refs: dict = {}
        self.corrupt = corrupt_reference
        self.timeline: list[Sample] = []  # subprocess runs in start order
        self.attempted = 0
        self.failed = 0

    def ref(self, op):
        if op not in self.refs:
            ref = self.oracle.reference(op)
            if op == self.corrupt:
                ref = replace(ref, digest="0" * 64)
            self.refs[op] = ref
        return self.refs[op]

    @contextlib.contextmanager
    def launcher(self):
        """The op launcher process (see launcher.py), stopped on exit."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "COLLATZ_STRINGS_CHECKPOINT_DIR")}
        env["PYTHONPATH"] = SRC
        err = os.path.join(workloads.WORK_DIR, "stderr.txt")
        # Leaving the with block closes the pipes, which ends the launcher, and waits for it.
        with subprocess.Popen([sys.executable, os.path.join(ROOT, "bench", "launcher.py"), err],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                              text=True) as self.proc:
            yield

    def spawn(self, op) -> Sample:
        out = os.path.join(workloads.WORK_DIR, "report.out")
        argv = [sys.executable, "-m", "collatz_strings", *op.argv]
        self.proc.stdin.write(json.dumps({"argv": argv, "out": out}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(out, "rb") as fh:
            data = fh.read()
        sample = Sample(op, reply["wall"], reply["code"], data, cpu=reply["cpu"],
                        rss_mib=reply["rss_mib"], raw_wall=reply["wall"], raw_cpu=reply["cpu"],
                        waited=reply["waited"], calibration=statistics.mean(reply["calibration"]))
        self.timeline.append(sample)
        return sample

    def check(self, samples: list[Sample]) -> list[Sample]:
        """Set each sample's verdict; a split passage run must match its one-go run."""
        for s in samples:
            ref = self.ref(s.op)
            digest, s.body = self.oracle.digests(s.data)
            s.ok = s.code == ref.exit_code and digest == ref.digest
        one_go = {(s.op.args["lo"], s.op.args["hi"]): s.body for s in samples
                  if s.op.command == "passage" and len(s.op.params) == 2}
        for s in samples:
            if s.op.args.get("resume"):
                window = (s.op.args["lo"], s.op.args["hi"])
                expected = one_go.get(window) or self.ref(
                    type(s.op)("passage", (("lo", window[0]), ("hi", window[1])))).body_digest
                s.ok = s.ok and s.body == expected
        for s in samples:
            self.attempted += 1
            if not s.ok:
                self.failed += 1
                print(f"FAILED: {' '.join(s.op.argv)} exited {s.code}, expected "
                      f"{self.ref(s.op).exit_code}; report digest or resume check differs",
                      file=sys.stderr)
        return samples

    def subprocess_pass(self, ops) -> list[Sample]:
        return self.check([self.spawn(op) for op in ops])


def end_to_end(runner: Runner, ops, seconds: float, lines: list[str]) -> dict[str, float]:
    """Whole passes over the list until their calibrated op time reaches `seconds`.

    Counting calibrated time keeps the number of passes, and with it the
    percentile that the latency tail falls on, the same on a slowed CPU.
    The set-up runs are spread over the run, a few before each pass.
    """
    runner.subprocess_pass([workloads.SETUP_OP] * SETUP_WARMUPS)
    setup, passes = [], []
    while not passes or sum(s.wall for p in passes for s in p) < seconds:
        setup += runner.subprocess_pass([workloads.SETUP_OP] * SETUP_PER_PASS)
        passes.append(runner.subprocess_pass(ops))
        calibrate(runner.timeline)
    # Each op counts with the median of its runs, and a pass with those.
    wall = [statistics.median(p[i].wall for p in passes) for i in range(len(ops))]
    cpu = [statistics.median(p[i].cpu for p in passes) for i in range(len(ops))]
    latencies = sorted(wall * len(passes))
    tail_at = max(0, len(latencies) - TAIL_BEYOND - 1)
    lines.append(f"passes {len(passes)} of {len(ops)} ops; latency tail is the "
                 f"p{100 * (tail_at + 1) / len(latencies):.1f} of {len(latencies)} op runs")
    runs = [s for p in passes for s in p]
    lines.append(f"as measured: setup median {statistics.median(s.raw_wall for s in setup):.4f} s,"
                 f" pass wall median {statistics.median(sum(s.raw_wall for s in p) for p in passes):.4f}"
                 f" s, of which {sum(s.waited for s in runs) / sum(s.raw_wall for s in runs):.1%}"
                 " waiting for the CPU")
    return {
        "setup_s": statistics.median(s.wall for s in setup),
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": latencies[tail_at],
        "positions_per_s": sum(runner.ref(op).positions for op in ops) / sum(wall),
        "records_per_s": sum(runner.ref(op).records for op in ops) / sum(wall),
        "peak_rss_mib": max(s.rss_mib for s in runs),
    }


def per_layer(runner: Runner, ops, trace_ops, seed: int, seconds: float,
              spans_path: str, lines: list[str]) -> tuple[dict, bool]:
    import spans
    from collatz_strings import cli

    def checked(results):
        runner.check([Sample(op, wall, code, data)
                       for op, (code, data, wall) in zip(trace_ops, results)])

    def untraced() -> float:
        results = []
        for op in trace_ops:
            start = time.perf_counter()
            code, data = spans.run_inprocess(op, cli.main)
            results.append((code, data, time.perf_counter() - start))
        checked(results)
        return sum(wall for _, _, wall in results)

    def traced(count_kernels=False):
        tracer = spans.Tracer()
        checked(spans.traced_pass(trace_ops, tracer, count_kernels))
        return tracer

    # After one warm-up pass, untraced and traced passes alternate so drift hits both alike.
    untraced()
    untraced_walls, tracers = [], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        untraced_walls.append(untraced())
        tracers.append(traced())
    tracers[0].write(spans_path)
    counting = traced(count_kernels=True)
    peaks, mem_results = spans.memory_pass(trace_ops)
    runner.check([Sample(op, 0.0, code, data) for op, code, data in mem_results])

    exact = True
    for key in EXACT_COUNTS:
        seen = {t.counts[key] for t in tracers + [counting]}
        if len(seen) != 1:
            exact = False
            print(f"FAILED: count {key} differs between traced passes: {sorted(seen)}",
                  file=sys.stderr)

    selfs = [t.self_times() for t in tracers]

    def self_s(name):
        return statistics.median(s.get(name, 0.0) for s in selfs)

    counts = counting.counts
    kernel: Counter = Counter()
    for (_, name), n in counting.kernel_calls.items():
        kernel[name] += n
    in_partition = sum(n for (where, _), n in counting.kernel_calls.items()
                       if where == "strings.partition_audit")
    traced_wall = statistics.median(t.root_wall() for t in tracers)
    untraced_wall = statistics.median(untraced_walls)
    m = {
        "strings.passage_sweep.steps": counts["strings.passage_sweep.steps"],
        "strings.passage_sweep.positions_per_s":
            counts["strings.passage_sweep.positions"] / self_s("strings.passage_sweep"),
        "strings.partition_audit.positions_per_s":
            counts["strings.partition_audit.positions"] / self_s("strings.partition_audit"),
        "strings.partition_audit.walk_ratio":
            in_partition / counts["strings.partition_audit.positions"],
        "strings.partition_audit.peak_mib": peaks["strings.partition_audit"],
        "family.two_to_one_audit.peak_mib": peaks["family.two_to_one_audit"],
        "core.lower_step.calls": kernel["core.lower_step"],
        "core.inverse_lower_step.calls": kernel["core.inverse_lower_step"],
        "family.family_step.calls": kernel["family.family_step"],
        "progressions.first_recurrence.candidates":
            counts["progressions.first_recurrence.candidates"],
        "reporting.render.records": counts["reporting.render.records"],
        "reporting.render.bytes": counts["reporting.render.bytes"],
        "reporting.render.us_per_record":
            self_s("reporting.render") / counts["reporting.render.records"] * 1e6,
        "checkpoint.save.calls": counts["checkpoint.save.calls"],
        "checkpoint.save.bytes": counts["checkpoint.save.bytes"],
        "trace.spans": len(tracers[0].spans),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for name in ("strings.passage_sweep", "strings.partition_audit", "strings.evolve",
                 "strings.intercept_audit", "strings.coverage_count", "family.string_scan",
                 "family.find_cycles", "family.two_to_one_audit", "family.audit_case_system",
                 "progressions.first_recurrence", "progressions.signature",
                 "reporting.render", "cli.main", "checkpoint.save", "checkpoint.load"):
        m[f"{name}.self_s"] = self_s(name)
    m.update(spans.kernel_costs(ops, seed))
    lines.append(f"{len(tracers)} traced and untraced in-process passes of {len(trace_ops)} ops "
                 f"({len(trace_ops) - len(ops)} probe ops for layers the workload skips): "
                 f"traced {traced_wall:.4f} s, untraced {untraced_wall:.4f} s")
    return m, exact


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, out=sys.stdout,
                  scale: float = 1.0, corrupt_reference: bool = False) -> dict:
    """Run one measurement and print its report; returns the result object.

    scale shrinks every op (the self-test uses it); corrupt_reference
    replaces the first op's reference digest, so that op must fail.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.chdir(ROOT)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    ops = workloads.generate(workload, seed, scale)
    trace_ops = ops + workloads.probes(workload, seed) if trace else ops
    runner = Runner(corrupt_reference=ops[0] if corrupt_reference else None)
    for op in trace_ops + [workloads.SETUP_OP]:
        runner.ref(op)  # references are computed before anything is timed

    lines: list[str] = []
    if trace:
        spans_path = os.path.join(workloads.WORK_DIR, f"spans-{workload}-{seed}.jsonl")
        measured, exact = per_layer(runner, ops, trace_ops, seed, seconds, spans_path, lines)
        lines.append(f"spans written to {spans_path}")
        wanted = spec["per_layer"]
    else:
        with runner.launcher():
            measured = end_to_end(runner, ops, seconds, lines)
        exact = True
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": runner.failed == 0 and exact, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}

    print(f"workload {workload}, seed {seed}, trace {int(trace)}", file=out)
    for line in lines:
        print(line, file=out)
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}", file=out)
    print(f"  {'failed_ratio':42s} {runner.failed / runner.attempted:>16.6g} ratio "
          f"({runner.failed} of {runner.attempted} ops)", file=out)
    print(json.dumps(result), file=out)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "collatz_strings", "__init__.py")):
        print(f"error: no collatz_strings package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
