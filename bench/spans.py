"""In-process traced runs: spans around the calls `cli` makes into each layer.

The traced run calls `cli.main(argv)` for every op with the layer
callables that `cli` holds as module attributes (and the checkpoint calls
that `strings` holds) replaced by wrappers.  Each wrapper records a span
(name, start, end, parent, op id) in memory and, where the layer's output
shows it, an exact count.  A layer's self time is its spans' duration
minus the time their child spans cover; `cli.main`'s self time is
argument parsing, building findings and records, and the write.

Kernel call counts come from a separate pass with counting wrappers on
the kernels in the `strings`, `progressions` and `family` namespaces, and
peak memory from a third pass under tracemalloc, so neither disturbs the
timing spans.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import random
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import Counter, defaultdict

from collatz_strings import cli, core, family, progressions, strings


class Tracer:
    """Spans as [name, start, end, parent index, op id], plus exact counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.counts: Counter = Counter()
        self.kernel_calls: Counter = Counter()  # (enclosing span, kernel) -> calls
        self.resumed = (0, 0)  # (positions, steps) restored by the last checkpoint load

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op_id]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self.counts[f"{name}.calls"] += 1
            if measure is not None:
                measure(self, args, kwargs, result)
            return result
        return traced

    def count(self, kernel: str, fn):
        @functools.wraps(fn)
        def counted(*args):
            where = self.spans[self.stack[-1]][0] if self.stack else None
            self.kernel_calls[(where, kernel)] += 1
            return fn(*args)
        return counted

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            out[name] += end - start - inner
        return out

    def root_wall(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(f'{{"id":{i},"name":"{name}","start":{start!r},"end":{end!r},'
                         f'"parent":{"null" if parent is None else parent},"op":{op_id}}}\n')


def _render(t: Tracer, args, kwargs, result) -> None:
    t.counts["reporting.render.records"] += len(args[0])
    t.counts["reporting.render.bytes"] += len(result.encode("utf-8"))


def _save(t: Tracer, args, kwargs, result) -> None:
    t.counts["checkpoint.save.bytes"] += os.path.getsize(args[0])


def _load(t: Tracer, args, kwargs, result) -> None:
    t.resumed = (result["next_position"] - result["lo"], result["aggregates"]["total_steps"])


def _sweep(t: Tracer, args, kwargs, result) -> None:
    # A resumed sweep reports totals that include the checkpointed part.
    done, steps = t.resumed if kwargs.get("resume") else (0, 0)
    t.resumed = (0, 0)
    t.counts["strings.passage_sweep.positions"] += result.processed - done
    t.counts["strings.passage_sweep.steps"] += result.total_steps - steps


def _partition(t: Tracer, args, kwargs, result) -> None:
    t.counts["strings.partition_audit.positions"] += result.positions_checked


def _recurrence(t: Tracer, args, kwargs, result) -> None:
    if result is not None:  # the scan tests every candidate from x+1 to the recurrence
        t.counts["progressions.first_recurrence.candidates"] += result - args[0]


# (module, attribute, span name, exact-count hook)
LAYER_CALLS = (
    (cli, "passage_sweep", "strings.passage_sweep", _sweep),
    (cli, "partition_audit", "strings.partition_audit", _partition),
    (cli, "evolve_forward", "strings.evolve", None),
    (cli, "evolve_backward", "strings.evolve", None),
    (cli, "intercept_audit", "strings.intercept_audit", None),
    (cli, "coverage_count", "strings.coverage_count", None),
    (cli, "string_scan", "family.string_scan", None),
    (cli, "find_cycles", "family.find_cycles", None),
    (cli, "two_to_one_audit", "family.two_to_one_audit", None),
    (cli, "audit_case_system", "family.audit_case_system", None),
    (cli, "first_recurrence_forward", "progressions.first_recurrence", _recurrence),
    (cli, "first_recurrence_backward", "progressions.first_recurrence", _recurrence),
    (cli, "forward_signature", "progressions.signature", None),
    (cli, "backward_signature", "progressions.signature", None),
    (cli, "render_jsonl", "reporting.render", _render),
    (cli, "render_csv", "reporting.render", _render),
    (strings, "save_checkpoint", "checkpoint.save", _save),
    (strings, "load_checkpoint", "checkpoint.load", _load),
)

# (module, attribute, kernel) for the counting pass
KERNELS = (
    (strings, "lower_step", "core.lower_step"),
    (strings, "inverse_lower_step", "core.inverse_lower_step"),
    (progressions, "lower_step", "core.lower_step"),
    (progressions, "inverse_lower_step", "core.inverse_lower_step"),
    (family, "family_step", "family.family_step"),
)


@contextlib.contextmanager
def patched(targets):
    """Replace module attributes with make(original); missing attributes are skipped."""
    saved = []
    try:
        for module, attr, make in targets:
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def run_inprocess(op, main) -> tuple[int | None, bytes]:
    """Exit code (None if main raised) and report bytes of one in-process op."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the op fails; the run goes on and reports it
            code, error = None, traceback.format_exc()
    if error:
        print(f"{' '.join(op.argv)} raised:\n{error}", file=sys.stderr)
    out.flush()
    return code, out.buffer.getvalue()


def traced_pass(ops, tracer: Tracer, count_kernels: bool = False):
    """Run every op through cli.main with layer spans; returns [(code, report, wall)]."""
    targets = [(module, attr, functools.partial(tracer.wrap, name, measure=measure))
               for module, attr, name, measure in LAYER_CALLS]
    if count_kernels:
        targets += [(module, attr, functools.partial(tracer.count, kernel))
                    for module, attr, kernel in KERNELS]
    main = tracer.wrap("cli.main", cli.main)
    results = []
    with patched(targets):
        for i, op in enumerate(ops):
            tracer.op_id = i
            before = len(tracer.spans)
            code, data = run_inprocess(op, main)
            _, start, end, _, _ = tracer.spans[before]
            results.append((code, data, end - start))
    return results


def memory_pass(ops):
    """Peak traced MiB inside each audit that keeps per-position state.

    Only ops that reach partition_audit or two_to_one_audit are run.
    Returns ({span name: peak MiB}, [(op, code, report)]).
    """
    watched = {"strings": ("partition_audit", "strings.partition_audit"),
               "audit-3n3": ("two_to_one_audit", "family.two_to_one_audit")}
    peaks: dict[str, float] = defaultdict(float)

    def watch(name):
        def make(fn):
            @functools.wraps(fn)
            def measured(*args, **kwargs):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
                    peaks[name] = max(peaks[name], peak)
            return measured
        return make

    results = []
    tracemalloc.start()
    try:
        with patched([(cli, attr, watch(name)) for attr, name in watched.values()]):
            for op in ops:
                if op.command in watched:
                    results.append((op, *run_inprocess(op, cli.main)))
    finally:
        tracemalloc.stop()
    return peaks, results


def kernel_costs(ops, seed: int, n: int = 20_000, repeats: int = 5) -> dict[str, float]:
    """Per-call cost of the public kernels over positions drawn from the ops' ranges.

    Each figure is the median of `repeats` timed loops and includes the
    loop and call overhead of one Python call.
    """
    rng = random.Random(seed)
    ranges = [op.span for op in ops]
    xs = [rng.randint(*rng.choice(ranges)) for _ in range(n)]
    params = sorted({op.args["p"] for op in ops if "p" in op.args}) or [1]
    families = [family.Family(p) for p in params]
    pairs = [(x, rng.choice(families)) for x in xs]

    def per_call(fn, with_family=False, count=n) -> float:
        times = []
        for _ in range(repeats):
            if with_family:
                start = time.perf_counter()
                for x, fam in pairs[:count]:
                    fn(x, fam)
            else:
                start = time.perf_counter()
                for x in xs[:count]:
                    fn(x)
            times.append((time.perf_counter() - start) / count)
        return statistics.median(times)

    return {
        "core.conjugate_step.ns_per_call": per_call(core.conjugate_step) * 1e9,
        "core.lower_step.ns_per_call": per_call(core.lower_step) * 1e9,
        "core.inverse_lower_step.ns_per_call": per_call(core.inverse_lower_step) * 1e9,
        "family.family_step.ns_per_call": per_call(family.family_step, True) * 1e9,
        "family.lower_preimages.us_per_call":
            per_call(family.lower_preimages, True, n // 10) * 1e6,
    }
