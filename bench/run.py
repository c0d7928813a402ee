"""fanocert benchmark: times the public entry points from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # all workloads

Workloads (BENCHMARK.json says why each one is here):

* ``table``     -- ``run_all()`` + ``report_to_json()`` over the 42 rows, by
                   row (``load_cases()``, then per row ``verify_case`` and
                   ``report_to_json``); the whole report is checked too;
* ``census``    -- nef and free certificates of the 721 census pairs,
                   tetragonality of the 290 x14 pairs;
* ``decompose`` -- hyperplane-splitting band and effective decompositions of
                   the 721 census lattices;
* ``cli``       -- cold ``python -m fanocert.cli verify --all --strict --json``
                   processes, one after another.

Each run is one single-threaded process (``cli`` runs one child at a time);
the in-process workloads are a warm closed loop of passes, a pass being the
whole input set.  The seed only permutes the visit order.  Every op is
checked against ``golden.json`` (see ``workloads.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``setup_s``      -- median time of fresh interpreters importing
                      ``fanocert`` and ``fanocert.cli`` and running
                      ``load_cases()``, one every two seconds, paced;
* ``pass_ms``      -- time of a pass: the sum of each op's median paced time
                      (``cli``: the median paced child);
* ``peak_rss_kib`` -- peak RSS of the workload process after its warm-up
                      passes (``cli``: largest child);
* ``ok_share``     -- ops that returned a result over ops attempted; the rest
                      raised a refusal or an error.  A mismatch against
                      golden (see ``workloads.py``) marks the run incorrect.

Paced times are in milliseconds (seconds) at the pace of a fixed reference
job timed next to the program: the raw time over the reference job's time
around it, times the reference job's own time on the tuning host.  The host
the benchmark was tuned on runs whole runs fast or slow; paced times stay
put.  See ``measure.py`` and ``reference.py``.

With ``--trace 1`` the run times untraced passes for a third of the time,
then wraps every layer (``tracing.py``) and reports per-layer self time,
calls and errors per pass, the layer ratios and the tracing overhead.  Counts
that differ between traced passes mark the run incorrect.

Without ``--workload`` every workload runs in its own fresh process and the
results are collected into ``.bench_run/BENCH_<utc time>.json``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"


def run_every_workload(args, names: list[str]) -> int:
    """Each workload in its own fresh process; results collected into one file."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / time.strftime("BENCH_%Y%m%dT%H%M%SZ.json", time.gmtime())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "workloads": results}, handle, indent=2)
    print(f"results written to {path}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fanocert" / "__init__.py").is_file():
        print(f"bench: no fanocert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fanocert

    if Path(fanocert.__file__).resolve().parent != SRC / "fanocert":
        print(f"bench: fanocert imported from {fanocert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # Imported only now: they import fanocert from the sources checked above.
    import measure
    import workloads

    if args.workload is None:
        return run_every_workload(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
