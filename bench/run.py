"""groundedl benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload sweep|search|documents --seed N \
        --seconds S --trace 0|1

The library is imported from the src/ directory beside bench/.
Ops run closed-loop in this one thread until S seconds of op time have
been measured; every op's output is checked outside its timed span.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are per-layer self times, calls, shares and counts from
spans around groundedl's public functions, written to
.bench_out/spans-<workload>.tsv.  Lines before it restate each metric
with its unit, plus run diagnostics (error rate, machine-speed probe).
`python3 bench/smoke.py` runs every workload briefly and checks all this.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import OP_SPAN, Tracer, install, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run, each with a fresh import of groundedl; setup_s is
#: their median.
SETUP_REPEATS = 5
TAIL_LADDER = (90.0, 99.0, 99.9)
#: Share of a traced run spent on op pairs that price the tracing.
OVERHEAD_SHARE = 0.25


def probe() -> float:
    """Seconds for a fixed pure-Python Fraction loop: machine speed."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 20000):
        acc += Fraction(i, i + 1)
        acc -= Fraction(i, i + 1)
    return time.perf_counter() - t0


def import_groundedl():
    src = ROOT / "src"
    if not (src / "groundedl" / "__init__.py").is_file():
        raise SystemExit(f"error: no groundedl package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "groundedl" or m.startswith("groundedl.")]:
        del sys.modules[name]
    gl = importlib.import_module("groundedl")
    importlib.import_module("groundedl.cli")
    if Path(gl.__file__).resolve().parent != (src / "groundedl").resolve():
        raise SystemExit(f"error: imported groundedl from {gl.__file__}, not {src}")
    return gl


def tail(latencies: list, pct: float) -> tuple:
    """(percentile, value) by nearest rank at pct, or at the highest
    lower ladder step that leaves at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for step in sorted({pct, *TAIL_LADDER}, reverse=True):
        rank = -(-n * step // 100)  # ceil
        if step <= pct and n - rank >= 10:
            return step, ordered[int(rank) - 1]
    return 50.0, statistics.median(ordered)


def measure(workload, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run ops k = 0, 1, ... until `seconds` of op time; check each."""
    latencies = []
    failed = 0
    busy = 0.0
    k = 0
    op_sid = tracer.intern(OP_SPAN) if tracer else -1
    while busy < seconds:
        call, check = workload.op(k)
        if tracer:
            tracer.op = k
            tracer.active = True
            idx = tracer.open(op_sid)
        t0 = time.perf_counter()
        try:
            result = call()
            error = None
        except Exception:  # counted in error_rate, never raised
            error = traceback.format_exc()
        t1 = time.perf_counter()
        if tracer:
            tracer.close(idx)
            tracer.active = False
        latencies.append(t1 - t0)
        busy += t1 - t0
        if error is None:
            try:
                if not check(result):
                    error = "check failed"
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failed += 1
            if failed == 1:
                print(f"first failed op {k}:\n{error}", file=sys.stderr)
        k += 1
    return {"latencies": latencies, "failed": failed, "busy": busy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    probe_before = probe()
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            gl = import_groundedl()
            workload = WORKLOADS[args.workload](gl, args.seed, workdir)
            workload.warm_up()
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(setups)
        if args.trace:
            lines, metrics, run = traced(workload, args)
        else:
            run = measure(workload, args.seconds)
            lines, metrics = end_to_end(run, setup_s, workload.TAIL_PCT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    probe_after = probe()

    attempted = len(run["latencies"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}")
    for line in lines:
        print(line)
    print(f"error_rate {run['failed'] / attempted:.6g} ratio "
          f"({run['failed']} of {attempted} ops failed their check)")
    print(f"diagnostic probe_before_s {probe_before:.4f} probe_after_s "
          f"{probe_after:.4f} (fixed Fraction loop; machine speed, not a metric)")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": attempted,
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def end_to_end(run: dict, setup_s: float, tail_pct: float):
    lat = run["latencies"]
    pct, tail_s = tail(lat, tail_pct)
    values = {
        "ops_per_s": ((len(lat) - run["failed"]) / run["busy"], "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"op_tail_ms": f" (p{pct:g} of {len(lat)} ops)",
             "setup_s": f" (median of {SETUP_REPEATS} imports, input generations"
                        " and warm-ups)"}
    lines = [f"{name} {value:.6g} {unit}{notes.get(name, '')}"
             for name, (value, unit) in values.items()]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return lines, metrics


def traced(workload, args):
    """Traced ops for most of the run; then tracing_overhead."""
    tracer = Tracer()
    absent, switch = install(tracer)
    run = measure(workload, args.seconds * (1 - OVERHEAD_SHARE), tracer)
    metrics = layer_metrics(tracer, run["busy"], absent)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{args.workload}.tsv"
    tracer.write(spans_path)
    overhead, pairs = tracing_overhead(workload, tracer, switch,
                                       args.seconds * OVERHEAD_SHARE)
    metrics["bench.trace_overhead"] = {"value": overhead, "unit": "ratio"}
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines[-1] += f" (traced / untraced op time - 1, over {pairs} op pairs)"
    lines.append(f"{len(tracer.start)} spans written to {spans_path}")
    if absent:
        lines.append("absent (no longer in groundedl): " + ", ".join(absent))
    return lines, metrics, run


def tracing_overhead(workload, tracer: Tracer, switch, seconds: float):
    """Ops 0, 1, ... each run once without and once with the wrappers,
    back to back so that machine-speed drift cancels, until `seconds`
    of op time.  Returns (traced / untraced op time - 1, pairs run)."""
    times = {False: 0.0, True: 0.0}
    k = 0
    while times[False] + times[True] < seconds:
        call, check = workload.op(k)
        for on in ((False, True) if k % 2 else (True, False)):
            switch(on)
            tracer.active = on
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception:  # already counted by the traced run
                continue
            finally:
                times[on] += time.perf_counter() - t0
                tracer.active = False
            try:
                check(result)  # some workloads' checks save inputs of later ops
            except Exception:
                pass
        k += 1
    switch(False)
    return times[True] / times[False] - 1, k


if __name__ == "__main__":
    sys.exit(main())
