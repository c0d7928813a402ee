"""Per-layer tracing of ``fanocert`` from outside the package.

``Tracer.install()`` wraps every public module-level function of each layer
module and rebinds every module attribute that holds one (including the
re-exports in ``fanocert/__init__.py`` and the names other modules imported),
and replaces the entries of the shared ``pipelines.PIPELINES`` dict.  Nothing
under ``src/`` is edited.  Methods, classes and private helpers are not
wrapped; their time counts as self time of the wrapped function that called
them.

Each wrapped call is a span: name, start, end, parent span and pass id.  A
layer's self time is the summed duration of its spans minus the time their
child spans cover.  An exception is counted once, as an error of the layer
whose span it first left.  Spans are kept in memory (up to ``SPAN_CAP``) and
written when the run ends.

Run as a script, it traces one ``fanocert.cli`` invocation in a child
process and writes the pass statistics as JSON to STATS_PATH and the spans
next to it:

    python3 bench/tracing.py STATS_PATH verify --all --strict --json OUT
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("cli", "catalog", "pipelines", "nefness", "secant", "diophantine",
          "gonality", "lattice", "riemannroch", "schubert", "ruled", "report")

SPAN_CAP = 100_000
# The limit effective_decompositions applies when callers pass none.
DECOMPOSITION_LIMIT = 32


def _solve_hits(counters, result):
    counters["solve_hits"] += bool(result)


def _decompositions(counters, result):
    counters["decomp_found"] += bool(result)
    counters["decomp_truncated"] += len(result) >= DECOMPOSITION_LIMIT


def _secant_candidates(counters, result):
    counters["secant_candidates"] += len(result)


# Counters taken from the results of single functions, where the work happens.
RESULT_HOOKS = {
    "diophantine.solve_degree_square": _solve_hits,
    "diophantine.effective_decompositions": _decompositions,
    "secant.admissible_table": _secant_candidates,
}
COUNTERS = ("solve_hits", "decomp_found", "decomp_truncated", "secant_candidates")


class Tracer:
    """Span recorder with per-pass layer statistics."""

    def __init__(self):
        self.spans: list[list] = []
        self.dropped = 0
        self.passes: list[dict] = []
        self._stack: list[list[int]] = []
        self._raising = None
        self._pass_id = -1
        self._reset()

    def _reset(self):
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.func_calls: dict[str, int] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)

    def begin_pass(self):
        self._pass_id += 1
        self._reset()

    def end_pass(self) -> dict:
        stats = {"self_ns": self.self_ns, "errors": self.errors,
                 "func_calls": dict(sorted(self.func_calls.items())),
                 "counters": self.counters}
        self.passes.append(stats)
        self._reset()
        return stats

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        hook = RESULT_HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = len(self.spans)
            keep = index < SPAN_CAP
            if keep:
                self.spans.append([name, 0, 0, parent, self._pass_id])
            else:
                self.dropped += 1
                index = -1
            stack.append([0, index])
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._raising:
                    self.errors[layer] += 1
                    self._raising = exc
                raise
            finally:
                end = perf_counter_ns()
                child_ns = stack.pop()[0]
                duration = end - start
                self.self_ns[layer] += duration - child_ns
                if stack:
                    stack[-1][0] += duration
                self.func_calls[name] = self.func_calls.get(name, 0) + 1
                if keep:
                    span = self.spans[index]
                    span[1], span[2] = start, end
            self._raising = None
            if hook is not None:
                hook(self.counters, result)
            return result

        return traced

    def install(self):
        """Wrap every layer's public functions and rebind all references."""
        modules = {layer: importlib.import_module(f"fanocert.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrapped[value] = self.wrap(layer, value)
        holders = [m for n, m in sys.modules.items()
                   if n == "fanocert" or n.startswith("fanocert.")]
        for module in holders:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        pipelines = modules["pipelines"].PIPELINES
        for family, fn in pipelines.items():
            pipelines[family] = wrapped.get(fn, fn)

    def write_spans(self, path):
        """One JSON line per kept span: name, start_ns, end_ns, parent, pass."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def main(argv: list[str]) -> int:
    """Trace one ``fanocert.cli`` run; write its pass statistics to argv[0]."""
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from fanocert import cli

    tracer.begin_pass()
    code = cli.main(cli_args)
    stats = tracer.end_pass()
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    tracer.write_spans(f"{stats_path}.spans.jsonl")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
