"""amschan benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload claims --seed 1 --seconds 20 --trace 0

Each run is a fresh interpreter, as every `amschan` invocation is: the
`cesaro_limit` cache and `FsmSource._cache` are process-global, so a second
pass in one process would overstate throughput.

--trace 0 measures the end-to-end metrics.  Whole rounds (one op per
stratum, see workloads.py) run until --seconds of wall time have passed or
the workload's plan is used up.  Each op's output is hashed and compared
with the committed digest in reference.json; an op fails if it raised or its
digest differs.  Set-up time is the median wall time of fresh interpreters
that import amschan and build the traced rounds' models.

Times are scaled to a reference machine speed.  On a shared host the same
pure-Python work runs up to 1.6 times slower for spells of seconds to
minutes, which moved the raw figures of whole runs by up to 0.5.  So a fixed
Fraction kernel that does not touch amschan, `calibrate()`, is timed before
and after every round and every set-up probe, and every time the run reports
is multiplied by CALIBRATION_S over the median of those kernel times.  The
report lines also print the raw figures.

--trace 1 runs the workload's fixed traced rounds with spans around
amschan's public functions (tracer.py) and reports the per-layer metrics.
The same rounds also run untraced in a fresh interpreter; the difference of
the two wall times is the tracing overhead.  Spans are written to
.perfbench-out/ at the end.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (name -> value, unit).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
#: seconds calibrate() takes on the reference machine
CALIBRATION_S = 0.02


def calibrate() -> float:
    """Seconds a fixed Fraction kernel takes now; it measures machine speed.

    The collector is off while it runs: a collection would traverse the
    program's live objects and tie the kernel's time to the heap's size."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = Fraction(1, 3)
        for i in range(2500):
            x = (x * Fraction(i + 1, i + 2) + Fraction(1, 7)) % 5
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _import_program() -> None:
    """Import amschan from this checkout's source tree, or exit non-zero."""
    package = SRC / "amschan"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no amschan source tree at {package}")
    sys.path.insert(0, str(SRC))
    import amschan

    if Path(amschan.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported amschan from {amschan.__file__}, not {package}")


def _load_reference(w) -> dict[str, list[str]]:
    data = json.loads((HERE / "reference.json").read_text())
    table = data["digests"].get(w.name)
    if table is None or any(len(table.get(s, ())) != w.pool for s in w.strata):
        sys.exit(f"error: reference.json has no full digest pool for {w.name}")
    return table


class Tally:
    """Outcome of the ops run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        #: kernel times taken around the rounds, when calibrated
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.outputs: Counter = Counter()


def run_rounds(w, rows, reference, tally: Tally, call=None, deadline=None,
               calibrated: bool = False) -> None:
    """Build and run whole rounds; `call(name, fn)` runs fn (default: plainly).

    A round starts only while time.perf_counter() < deadline.  With
    `calibrated`, the kernel is also timed before and after each round."""
    from workloads import digest

    perf = time.perf_counter
    call = call or (lambda name, fn: fn())
    for row in rows:
        if deadline is not None and tally.rounds and perf() >= deadline:
            break
        ops = call("setup", lambda: w.round_ops(row))
        if calibrated:
            tally.calibrations.append(calibrate())
        for k, j, op in ops:
            tally.attempted += 1
            t0 = perf()
            try:
                result = call("op", op)
            except Exception:  # an op that raises is counted, and the run goes on
                tally.latencies.append(perf() - t0)
                tally.failed += 1
                print(f"op {w.strata[k]}[{j}] raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            tally.latencies.append(perf() - t0)
            if digest(w.canon(result)) != reference[w.strata[k]][j]:
                tally.failed += 1
                print(f"op {w.strata[k]}[{j}]: output digest mismatch", file=sys.stderr)
            if w.describe is not None:
                tally.outputs[w.describe(result)] += 1
        if calibrated:
            tally.calibrations.append(calibrate())
        tally.rounds += 1


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond
    it: the 11th largest sample.  With fewer samples, the largest."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _child(args, probe: str) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--probe", probe,
    ]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=170)


def measure_setup(args, count: int, calibrations: list[float]) -> list[float]:
    """Wall times of `count` set-up probes; kernel times go to `calibrations`."""
    walls = []
    for _ in range(count):
        calibrations.append(calibrate())
        t0 = time.perf_counter()
        _child(args, "setup")
        walls.append(time.perf_counter() - t0)
        calibrations.append(calibrate())
    return walls


def end_to_end(w, args, reference) -> dict:
    tally = Tally()
    # probes on both sides of the measured loop, so that a slow spell of a
    # shared machine does not decide the median alone
    setups = measure_setup(args, SETUP_PROBES // 2 + 1, tally.calibrations)
    start = time.perf_counter()
    run_rounds(w, w.plan_indices(args.seed), reference, tally,
               deadline=start + args.seconds, calibrated=True)
    wall = time.perf_counter() - start
    setups += measure_setup(args, SETUP_PROBES // 2, tally.calibrations)

    def figures(scale):
        latencies = [t * scale for t in tally.latencies]
        tail, pct = tail_latency(latencies)
        return {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1000 * tail, "ms"),
            "setup_s": (scale * statistics.median(setups), "s"),
        }, pct

    scale = CALIBRATION_S / statistics.median(tally.calibrations)
    metrics, pct = figures(scale)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw, _ = figures(1.0)
    n = len(tally.latencies)
    print(f"workload {w.name} seed {args.seed}: {tally.rounds} rounds, {n} ops, "
          f"{sum(tally.latencies):.2f} s in ops, {wall:.2f} s wall; times scaled by "
          f"{scale:.4f} (median kernel time {1000 * CALIBRATION_S / scale:.2f} ms)")
    for name, (value, unit) in metrics.items():
        extra = f"  (raw {raw[name][0]:.4f})" if name in raw else ""
        print(f"  {name:12s} {value:12.4f} {unit}{extra}")
    print(f"  {'error_rate':12s} {tally.failed / tally.attempted:12.4f} ratio "
          f"({tally.failed} of {tally.attempted} ops failed)")
    print(f"  op_tail_ms is p{pct:.2f} of {n} ops; setup_s is the median of "
          f"{SETUP_PROBES} fresh interpreters")
    if tally.outputs:
        print(f"  outputs: {dict(sorted(tally.outputs.items(), key=str))}")
    return _result(tally, metrics)


def traced(w, args, reference) -> dict:
    from tracer import Tracer, metric_specs

    untraced_wall = json.loads(_child(args, "pass").stdout)["wall_s"]
    tracer = Tracer()
    tracer.install()

    tally = Tally()

    def call(name, fn):
        # op ids number the ops; set-up spans carry -1
        tracer.op_id = tally.attempted - 1 if name == "op" else -1
        return tracer.span(name, fn)

    rows = w.plan_indices(args.seed)[: w.trace_rounds]
    start = time.perf_counter()
    run_rounds(w, rows, reference, tally, call=call)
    wall = time.perf_counter() - start
    tracer.uninstall()

    values = tracer.metrics(wall)
    values["trace.overhead_s"] = wall - untraced_wall
    values["trace.overhead_ratio"] = (wall - untraced_wall) / untraced_wall
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{w.name}-seed{args.seed}.bin"
    tracer.write(spans_path)
    print(f"workload {w.name} seed {args.seed}: traced {tally.rounds} rounds, "
          f"{tally.attempted} ops, {len(tracer.name)} spans in {wall:.2f} s "
          f"(untraced {untraced_wall:.2f} s); spans written to {spans_path.relative_to(ROOT)}")
    metrics = {name: (values[name], unit) for name, unit, _ in metric_specs()}
    return _result(tally, metrics)


def _result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe", choices=("setup", "pass"),
        help="internal: build the traced rounds' models (setup), or run those "
        "rounds untraced and print their wall time (pass)",
    )
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    rows = w.plan_indices(args.seed)[: w.trace_rounds]
    if args.probe == "setup":
        for row in rows:
            w.round_ops(row)
        return 0
    reference = _load_reference(w)
    if args.probe == "pass":
        start = time.perf_counter()
        run_rounds(w, rows, reference, Tally())
        print(json.dumps({"wall_s": time.perf_counter() - start}))
        return 0
    result = traced(w, args, reference) if args.trace else end_to_end(w, args, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
