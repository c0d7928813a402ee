"""One benchmark run of one workload: set-up, timed passes, tracing, metrics.

Imported by ``run.py`` once ``src/`` is on the path.

The host this benchmark was tuned on switches between a fast and a slow state
(about 1.6 to 1.9 times slower, CPU time equal to wall time) in spells from a
second to longer than a run, so no raw time of a run is steady: a whole run
may fall in either state.  The timing metrics are therefore paced by
``reference.py``: a time is reported as milliseconds at the pace of a fixed
stdlib-only reference job timed under the same conditions.

* In process, a piece of the reference job runs after every
  ``REFERENCE_EVERY_NS`` of op time.  Each op time is divided by the
  reference job's time around it (``Pacer.reference_ns``); ``pass_ms`` sums
  each op's median paced time over the run.
* A cold ``cli`` child is followed by a *reference child*, a fresh
  interpreter running the reference job; ``pass_ms`` is the median ratio of
  the two wall times, scaled by ``reference.REFERENCE_CHILD_MS``.
* ``setup_s`` is the median of set-ups sampled every ``SETUP_EVERY_S``
  seconds, each paced by the in-process reference job around it.

Passes, and the children started between them, run on the process's CPUs in
turn, so that one slow CPU does not set the run.  Unpaced times are printed as
diagnostics.
"""
from __future__ import annotations

import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import reference
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

# Time between two set-ups sampled in a timed run.
SETUP_EVERY_S = 2.0
# Op time between two pieces of the reference job.
REFERENCE_EVERY_NS = 2_000_000
SETUP_CODE = ("import time; start = time.perf_counter(); import fanocert, fanocert.cli; "
              "fanocert.load_cases(); print(time.perf_counter() - start)")
WARMUP_PASSES = 2
MIN_PASSES = 3
CLI_ARGS = ("verify", "--all", "--strict", "--json")
# Part of a traced run spent on untraced passes, the overhead baseline.
UNTRACED_SHARE = 1 / 3

CPUS = sorted(os.sched_getaffinity(0))

E2E_UNITS = {"setup_s": "s", "pass_ms": "ms", "peak_rss_kib": "KiB", "ok_share": "ratio"}
RATIOS = ("lattice.builds_per_case", "diophantine.solve_hits",
          "diophantine.decomp_found", "trace.overhead")


def child_env() -> dict:
    """Environment of the children: fanocert from ``src/``, bytecode cached.

    Children may write ``__pycache__`` like an installed package has, so
    set-up and cold CLI times leave out compiling the sources.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def environment_record() -> dict:
    """Diagnostics that let a run taken in a slow host state be spotted."""
    laps = []
    for _ in range(7):
        start = perf_counter()
        sum(i * i for i in range(100_000))
        laps.append((perf_counter() - start) * 1e3)
    return {"python": platform.python_version(),
            "nproc": len(CPUS),
            "calibration_ms": round(statistics.median(laps), 4)}


def pin_cpu(turn: int):
    """Run on the next of the process's CPUs, in turn."""
    try:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})
    except OSError:
        pass  # Unpinned runs are still correct, only less steady.


def setup_seconds() -> float:
    """Seconds a fresh interpreter takes to import fanocert and load the table.

    Timed inside the child, so interpreter start-up and site hooks are left out.
    """
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                         check=True, stdout=subprocess.PIPE)
    return float(out.stdout)


class Pacer:
    """Pieces of the reference job run between ops, and the pace they give.

    A piece runs after every ``REFERENCE_EVERY_NS`` of op time, the pieces in
    turn, so that they run under the conditions the ops run under.  The ops
    run between two pieces share a *slot*, numbered by the piece that ends it.
    """

    def __init__(self):
        self.turn = 0
        self.since_ns = 0
        self.pieces: list[int] = []
        self.times: list[int] = []

    def run_piece(self):
        start = perf_counter_ns()
        result = reference.PIECES[self.turn]()
        self.times.append(perf_counter_ns() - start)
        self.pieces.append(self.turn)
        if result != reference.RESULTS[self.turn]:
            raise RuntimeError(f"reference piece {self.turn} returned {result}")
        self.turn = (self.turn + 1) % len(reference.PIECES)

    def after_op(self, op_ns: int):
        self.since_ns += op_ns
        if self.since_ns >= REFERENCE_EVERY_NS:
            self.since_ns = 0
            self.run_piece()

    def slot(self) -> int:
        return len(self.times)

    def reference_ns(self) -> list[float]:
        """The reference job's time around each slot, ns; one more at the end.

        Each piece time is divided by that piece's median over the run; the
        median of these ratios over one turn of the job centred on a slot,
        times the sum of the pieces' medians, is the job's time there.
        """
        while len(self.times) < len(reference.PIECES):
            self.run_piece()
        by_piece: list[list[int]] = [[] for _ in reference.PIECES]
        for piece, ns in zip(self.pieces, self.times):
            by_piece[piece].append(ns)
        medians = [statistics.median(times) for times in by_piece]
        whole = sum(medians)
        ratios = [ns / medians[piece] for piece, ns in zip(self.pieces, self.times)]
        half = len(reference.PIECES) // 2
        count = len(ratios)
        local = []
        for slot in range(count + 1):
            low = min(max(slot - half, 0), count - 2 * half - 1)
            local.append(statistics.median(ratios[low:low + 2 * half + 1]) * whole)
        return local


def paced(ns: float, reference_ns: float, reference_ms: float) -> float:
    """A time in ns as milliseconds at the pace of a reference taking ``reference_ms``."""
    return ns / reference_ns * reference_ms


def reference_child_ns(env: dict) -> int:
    """Wall time of a fresh interpreter running the reference job."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, str(BENCH_DIR / "reference.py")], cwd=ROOT, env=env,
                   check=True)
    return perf_counter_ns() - start


def warm_up(workload, items):
    """Untimed, unchecked passes so that lazy set-up is done before timing."""
    for _ in range(WARMUP_PASSES):
        for item in items:
            try:
                workload.op(item)
            except Exception:
                pass


class SetupSampler:
    """Set-ups, one every ``SETUP_EVERY_S`` seconds of a run, each with its slot."""

    def __init__(self, pacer: Pacer):
        setup_seconds()  # fills the bytecode cache
        self.pacer = pacer
        self.samples: list[tuple[float, int]] = []
        self.due = perf_counter()

    def poll(self):
        if perf_counter() >= self.due:
            self.samples.append((setup_seconds(), self.pacer.slot()))
            self.due = perf_counter() + SETUP_EVERY_S

    def paced_s(self, reference_ns: list[float]) -> list[float]:
        return [paced(s * 1e9, reference_ns[slot], reference.REFERENCE_MS) / 1e3
                for s, slot in self.samples]


def run_passes(workload, items, rng, tally, seconds, tracer=None, pacer=None, setups=None):
    """Closed loop of whole passes in seeded order; ops are judged after each pass.

    With ``pacer``, pieces of the reference job run between the ops and every
    op time is kept with its slot; ``setups`` is polled after every pass.
    Returns every pass's op time, each item's fastest time and, with
    ``pacer``, each item's (ns, slot) samples.
    """
    order = list(range(len(items)))
    best_ns = [float("inf")] * len(items)
    samples: list[list[tuple[int, int]]] = [[] for _ in items]
    pass_ns = []
    if hasattr(workload, "whole_report"):
        tally.add(workload.WHOLE, workloads.outcome_of(workload, workload.whole_report(), None))
    deadline = perf_counter() + seconds
    while len(pass_ns) < MIN_PASSES or perf_counter() < deadline:
        pin_cpu(len(pass_ns))
        rng.shuffle(order)
        outputs = []
        if tracer:
            tracer.begin_pass()
        total = 0
        for index in order:
            start = perf_counter_ns()
            try:
                output, exc = workload.op(items[index]), None
            except Exception as caught:
                output, exc = None, caught
            elapsed = perf_counter_ns() - start
            best_ns[index] = min(best_ns[index], elapsed)
            total += elapsed
            outputs.append((index, output, exc))
            if pacer:
                samples[index].append((elapsed, pacer.slot()))
                pacer.after_op(elapsed)
        pass_ns.append(total)
        if tracer:
            tracer.end_pass()
        for index, output, exc in outputs:
            tally.add_call(items[index], output, exc)
        if setups:
            setups.poll()
    return pass_ns, best_ns, samples


def run_cli_children(tally, seconds, stats_path: Path | None = None, pacer=None, setups=None):
    """Cold CLI processes one after another; with ``stats_path``, traced.

    With ``pacer``, each child is followed by a reference child (see
    ``reference_child_ns``) and by the whole reference job in process, and
    ``setups`` is polled.  Returns each child's wall time, the largest
    child's peak RSS in KiB, the traced children's statistics and, with
    ``pacer``, each child's wall time over its reference child's.
    """
    report_path = RUN_DIR / "cli-report.json"
    entry = ([str(BENCH_DIR / "tracing.py"), str(stats_path)] if stats_path
             else ["-m", "fanocert.cli"])
    cmd = [sys.executable, *entry, *CLI_ARGS, str(report_path)]
    env = child_env()
    pass_ns, peak_kib, stats, ratios = [], 0, [], []
    deadline = perf_counter() + seconds
    while len(pass_ns) < MIN_PASSES or perf_counter() < deadline:
        pin_cpu(len(pass_ns))
        report_path.unlink(missing_ok=True)
        start = perf_counter_ns()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        pass_ns.append(perf_counter_ns() - start)
        if pacer:
            ratios.append(pass_ns[-1] / reference_child_ns(env))
            for _ in reference.PIECES:
                pacer.run_piece()
        peak_kib = max(peak_kib, usage.ru_maxrss)
        if proc.returncode != 0:
            observed = f"{workloads.ERROR}:exit-{proc.returncode}"
        elif b"mismatch=0" not in out:
            observed = f"{workloads.ERROR}:summary-mismatch"
        else:
            observed = workloads.outcome_of(tally.workload, report_path.read_text(), None)
        tally.add(workloads.Table.WHOLE, observed)
        if stats_path:
            stats.append(json.loads(stats_path.read_text()))
        if setups:
            setups.poll()
    return pass_ns, peak_kib, stats, ratios


def pass_summary(pass_ns: list[int]) -> str:
    ms = sorted(ns / 1e6 for ns in pass_ns)
    return (f"{len(ms)} passes: fastest {ms[0]:.3f} ms, p10 "
            f"{statistics.quantiles(ms, n=10)[0]:.3f} ms, p50 {statistics.median(ms):.3f} ms")


def layer_metrics(passes: list[dict], cases: int) -> tuple[dict, bool, list[str]]:
    """Per-pass layer metrics, whether the counts repeat, printable lines.

    Counts come from the first traced pass and must equal those of every
    other; ``self_ms`` is a layer's fastest self time over the passes.
    """
    first = passes[0]
    repeat = all(p["func_calls"] == first["func_calls"] and p["errors"] == first["errors"]
                 and p["counters"] == first["counters"] for p in passes)
    metrics, lines = {}, [f"{'layer':<12} {'self_ms':>10} {'calls':>8} {'errors':>7}"]
    funcs, counters = first["func_calls"], first["counters"]
    for layer in tracing.LAYERS:
        self_ms = min(p["self_ns"][layer] for p in passes) / 1e6
        calls = sum(n for func, n in funcs.items() if func.startswith(f"{layer}."))
        errors = first["errors"][layer]
        metrics[f"{layer}.self_ms"] = self_ms
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.errors"] = errors
        lines.append(f"{layer:<12} {self_ms:>10.3f} {calls:>8} {errors:>7}")

    def ratio(name, num, den, base):
        metrics[name] = num / den if den else 0.0
        lines.append(f"{name} = {num}/{den} ({base})")

    ratio("lattice.builds_per_case", funcs.get("lattice.make_family_lattice", 0), cases,
          "make_family_lattice calls over cases")
    ratio("diophantine.solve_hits", counters["solve_hits"],
          funcs.get("diophantine.solve_degree_square", 0),
          "solve_degree_square calls returning a class over all such calls")
    ratio("diophantine.decomp_found", counters["decomp_found"],
          funcs.get("diophantine.effective_decompositions", 0),
          "effective_decompositions calls finding one over all such calls")
    metrics["diophantine.decomp_truncated"] = counters["decomp_truncated"]
    lines.append(f"diophantine.decomp_truncated = {counters['decomp_truncated']} "
                 f"(results at the limit of {tracing.DECOMPOSITION_LIMIT}, per pass)")
    metrics["secant.candidates"] = counters["secant_candidates"]
    lines.append(f"secant.candidates = {counters['secant_candidates']} "
                 "(secant table entries per pass)")
    if not repeat:
        lines.append("COUNTS DIFFER BETWEEN TRACED PASSES")
    return metrics, repeat, lines


def timed_run(workload, tally, rng, seconds) -> tuple[dict, list[str]]:
    """End-to-end metrics, measured with tracing off."""
    pacer = Pacer()
    if workload.name == "cli":
        setups = SetupSampler(pacer)
        pass_ns, peak_kib, _, ratios = run_cli_children(tally, seconds, pacer=pacer,
                                                         setups=setups)
        reference_ns = pacer.reference_ns()
        pass_ms = statistics.median(ratios) * reference.REFERENCE_CHILD_MS
        raw_ms = statistics.median(pass_ns) / 1e6
        how = f"median of {len(ratios)} children's wall times paced by a reference child"
    else:
        items = workload.items()
        warm_up(workload, items)
        # Taken before the timed passes, whose kept samples would count too.
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = SetupSampler(pacer)
        pass_ns, _, samples = run_passes(workload, items, rng, tally, seconds,
                                         pacer=pacer, setups=setups)
        reference_ns = pacer.reference_ns()
        pass_ms = sum(statistics.median(paced(ns, reference_ns[slot], reference.REFERENCE_MS)
                                        for ns, slot in op_samples)
                      for op_samples in samples)
        raw_ms = sum(statistics.median(ns for ns, _ in op_samples) for op_samples in samples) / 1e6
        how = f"sum of each op's median paced time over {len(pass_ns)} passes"
    setup_s = setups.paced_s(reference_ns)
    metrics = {"setup_s": statistics.median(setup_s), "pass_ms": pass_ms,
               "peak_rss_kib": peak_kib, "ok_share": tally.results / tally.attempted}
    lines = [pass_summary(pass_ns),
             f"pass_ms is the {how}; unpaced {raw_ms:.3f} ms",
             f"setup_s is the median of {len(setup_s)} paced set-ups (unpaced median "
             f"{statistics.median(s for s, _ in setups.samples):.4f} s)"]
    return metrics, lines


def traced_run(workload, tally, rng, seconds) -> tuple[dict, bool, list[str]]:
    """Per-layer metrics: untraced passes first, then the same under the tracer."""
    untraced_s = seconds * UNTRACED_SHARE
    lines = []
    if workload.name == "cli":
        untraced, _, _, _ = run_cli_children(tally, untraced_s)
        traced, _, passes, _ = run_cli_children(tally, seconds - untraced_s,
                                                RUN_DIR / "cli-stats.json")
        untraced_ms, traced_ms = min(untraced) / 1e6, min(traced) / 1e6
    else:
        items = workload.items()
        warm_up(workload, items)
        untraced, best_ns, _ = run_passes(workload, items, rng, tally, untraced_s)
        untraced_ms = sum(best_ns) / 1e6
        tracer = tracing.Tracer()
        tracer.install()
        traced, best_ns, _ = run_passes(workload, items, rng, tally, seconds - untraced_s, tracer)
        traced_ms = sum(best_ns) / 1e6
        passes = tracer.passes
        spans_path = RUN_DIR / f"spans-{workload.name}.jsonl"
        tracer.write_spans(spans_path)
        lines.append(f"spans written to {spans_path.relative_to(ROOT)} "
                     f"({len(tracer.spans)} kept, {tracer.dropped} dropped)")
    metrics, repeat, layer_lines = layer_metrics(passes, workload.cases())
    metrics["trace.overhead"] = traced_ms / untraced_ms
    lines += layer_lines
    lines.append(f"trace.overhead = {traced_ms:.3f} / {untraced_ms:.3f} ms (traced over "
                 "untraced fastest pass)")
    lines.append(f"untraced {pass_summary(untraced)}")
    lines.append(f"traced {pass_summary(traced)}")
    return metrics, repeat, lines


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name in RATIOS else "count"


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its metrics table and return the result object."""
    workload = workloads.WORKLOADS[name]
    tally = workloads.Tally(workload, workloads.load_golden()[name])
    rng = random.Random(seed)
    RUN_DIR.mkdir(exist_ok=True)
    env = environment_record()
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    repeat = True
    if trace:
        metrics, repeat, lines = traced_run(workload, tally, rng, seconds)
    else:
        metrics, lines = timed_run(workload, tally, rng, seconds)
    correct = repeat and tally.failed == 0
    for line in tally.lines() + lines:
        print(line)
    for metric, value in metrics.items():
        print(f"{metric:<32} {value:>14.6g} {unit_of(metric)}")
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {metric: {"value": value, "unit": unit_of(metric)}
                        for metric, value in metrics.items()}}
