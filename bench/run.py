"""romstab benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload fom-session --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports romstab from its
``src/`` directory (it exits with code 2 when that is missing).  The
process pins BLAS to one thread before numpy loads, imports romstab, sets
the workload up (inputs plus one untimed warm-up op, three times, keeping
the median), computes the reference values, then runs ops back to back
until ``--seconds`` of op time have passed and at least ``MIN_OPS`` ops
have run (but for no longer than three times ``--seconds``), checking
every op's output.  An op that raises or fails its
check counts in ``failed``; a failed check also makes ``correct`` false.
A run whose set-up raises reports one failed op and no metrics; a run
with no completed op reports no latencies.

Times are normalised to the machine's speed at that moment: right before
each op (and each set-up) a fixed reference kernel runs, and the op's
time is scaled by ``REFERENCE_S`` over the kernel's time.  The shared
machines this runs on switch between speeds up to 1.9x apart for tens of
seconds at a time; the ratio moves a few percent where raw seconds move
tens (bench/README.md).  Raw seconds go to the results file.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics from tracer spans with ``--trace 1``).  The same
object, with latency detail, goes to ``bench/results/``; a traced run
also writes its spans there as JSON lines.  ``--quick`` shrinks every
size so that a run takes seconds; the benchmark's own test uses it.
"""

import os
import sys

# One BLAS thread, set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 3
# Time of reference_kernel() on the nominal machine all times are scaled to.
REFERENCE_S = 0.005

# Per-layer metrics are read from BENCHMARK.json.  Each one is summarised
# by its unit suffix:
#   "_s":  median span duration over every call in the run, setup included;
#          the span is named after the metric without the suffix
#   "_us": median span duration per unit of work (integrator steps), in
#          microseconds; the span is named likewise
# and the metrics below, which read the count recorded under their own name:
#   "op":    median over timed ops of the per-op sum of the count
#   "value": median of the recorded values
# A name the workload never reaches reads 0.
COUNTED = {
    "integrator.steps": "op",
    "integrator.trajectory_csv_mib": "value",
    "hyper.ecsw_support": "value",
}
MIN_OPS = 100  # timed ops per run at least, so that op_p90_s has ten beyond it


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summary(metric):
    """(span or count name, how it is summarised) of a per-layer metric."""
    if metric in COUNTED:
        return metric, COUNTED[metric]
    name, suffix = metric.rsplit("_", 1)
    return name, {"s": "call", "us": "step"}[suffix]


def reference_kernel(eigvals, matrix):
    """Fixed LAPACK and interpreter work, the yardstick for machine speed."""
    for _ in range(3):
        eigvals(matrix)
    total = 0
    for i in range(20000):
        total += i * i
    return total


class NullTracer:
    """Tracing off: spans and counts cost one method call."""

    _null = contextlib.nullcontext()

    def begin(self, op):
        pass

    def span(self, name, units=1):
        return self._null

    def count(self, name, value):
        pass

    def record(self, name, seconds):
        pass


class Tracer:
    """Spans kept in memory: name, op id, start, end, units of work.

    Every span of one op shares the op id (``setup-<i>`` for the set-ups
    and their warm-up ops, ``0, 1, ...`` for timed ops); the op itself is
    a span named ``op`` that the others nest in.  Durations are scaled by
    the machine-speed factor of their op.
    """

    def __init__(self):
        self.op = None
        self.spans = []
        self.counts = []

    def begin(self, op):
        self.op = op

    @contextlib.contextmanager
    def span(self, name, units=1):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, self.op, start, time.perf_counter(), units))

    def count(self, name, value):
        self.counts.append((name, self.op, value))

    def record(self, name, seconds):
        self.spans.append((name, self.op, 0.0, seconds, 1))

    def metrics(self, spec, scales):
        """Per-layer metrics of ``spec`` (BENCHMARK.json's ``per_layer``);
        ``scales`` maps each op id to its speed factor."""
        out = {}
        for entry in spec:
            metric = entry["name"]
            name, how = summary(metric)
            if how in ("call", "step"):
                unit = 1e6 if how == "step" else 1.0
                values = [unit * scales[op] * (end - start) / units
                          for n, op, start, end, units in self.spans if n == name]
            elif how == "value":
                values = [v for n, _, v in self.counts if n == name]
            else:
                per_op = {}
                for n, op, v in self.counts:
                    if n == name and isinstance(op, int):
                        per_op[op] = per_op.get(op, 0) + v
                values = list(per_op.values())
            value = statistics.median(values) if values else 0
            out[metric] = {"value": value, "unit": entry["unit"]}
        return out

    def write(self, path, scales):
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, start, end, units in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "start": start, "end": end,
                                     "units": units, "scale": scales[op]}) + "\n")
            for name, op, value in self.counts:
                fh.write(json.dumps({"count": name, "op": op, "value": value}) + "\n")


def import_romstab():
    """Import romstab from this checkout's ``src/``; returns (module, seconds)."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import romstab
    seconds = time.perf_counter() - start
    if not os.path.abspath(romstab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"romstab came from {romstab.__file__}, not from {SRC}")
    return romstab, seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    return parser.parse_args(argv)


def run(args, workdir):
    try:
        rs, import_s = import_romstab()
    except ImportError as exc:
        print(f"run.py: cannot import romstab from {SRC}: {exc}", file=sys.stderr)
        return 2, None
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2, None
    yardstick = np.random.default_rng(0).standard_normal((60, 60))

    def reference_time():
        start = time.perf_counter()
        reference_kernel(np.linalg.eigvals, yardstick)
        return time.perf_counter() - start

    def scales(refs):
        """Speed factor of the interval between consecutive kernel runs."""
        return [2.0 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]

    tracer = Tracer() if args.trace else NullTracer()
    tracer.begin("import")
    tracer.record("romstab.import", import_s)
    wl = workloads.WORKLOADS[args.workload](rs, tracer, workdir, args.seed, args.quick)
    about = dict(workload=args.workload, seed=args.seed, trace=args.trace, quick=args.quick)
    reported = False  # only the first fault of a run is written to stderr
    correct = True

    def report(message):
        nonlocal reported
        if not reported:
            print(message, file=sys.stderr)
            reported = True

    def attempt(fn, *fn_args):
        """``fn(*fn_args)``, or None if it raises."""
        try:
            return fn(*fn_args)
        except Exception:
            report(traceback.format_exc())
            return None

    def passes(label, out):
        """Whether ``out`` (None: its op raised) passes its check.  A failed
        check, or one that cannot be made, makes the run incorrect."""
        nonlocal correct
        if out is None:
            return False
        try:
            if reference is None:
                raise workloads.CheckFailed("the reference values could not be computed")
            wl.check(inputs, reference, out)
        except Exception as exc:
            correct = False
            report(f"run.py: {label} failed its check: {exc!r}")
            return False
        return True

    reference_time()  # untimed: the process's first eigvals call runs cold
    setup_refs, setup_raw = [reference_time()], []
    for rep in range(SETUP_REPEATS):
        tracer.begin(f"setup-{rep}")
        inputs = warm = None  # one set of inputs alive at a time
        start = time.perf_counter()
        inputs = attempt(wl.setup)
        if inputs is None:
            # No inputs, so no op can run: one attempted op, failed, unchecked.
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            return 0, (result, dict(result, **about), None, None)
        with tracer.span("op"):
            warm = attempt(wl.op, inputs)
        setup_raw.append(time.perf_counter() - start)
        setup_refs.append(reference_time())
    reference = attempt(wl.reference, inputs)
    passes("warm-up op", warm)
    del warm

    refs, raw, ok = [reference_time()], [], []
    stop = time.perf_counter() + 3 * args.seconds  # even if ops fail fast
    while (sum(raw) < args.seconds or len(raw) < MIN_OPS) and time.perf_counter() < stop:
        tracer.begin(len(raw))
        start = time.perf_counter()
        with tracer.span("op"):
            out = attempt(wl.op, inputs)
        raw.append(time.perf_counter() - start)
        ok.append(passes(f"op {len(raw) - 1}", out))
        refs.append(reference_time())
        del out

    op_scales = scales(refs)
    scaled = [t * f for t, f in zip(raw, op_scales)]
    completed = [t for t, good in zip(scaled, ok) if good]
    setup_scaled = [t * f for t, f in zip(setup_raw, scales(setup_refs))]
    import_scale = REFERENCE_S / setup_refs[0]

    def p50_p90(values):
        deciles = statistics.quantiles(values, n=10) if len(values) > 1 else values * 9
        return statistics.median(values), deciles[-1]

    span_scales = dict(enumerate(op_scales))
    span_scales["import"] = import_scale
    span_scales.update((f"setup-{i}", f) for i, f in enumerate(scales(setup_refs)))
    detail = dict(
        about, raw_op_time_s=sum(raw), raw_import_s=import_s, raw_setup_s=setup_raw,
        scaled_setup_s=setup_scaled, reference_kernel_s=statistics.median(refs),
    )
    if completed:  # no latency without a completed op
        p50, p90 = p50_p90(completed)
        raw_p50, raw_p90 = p50_p90([t for t, good in zip(raw, ok) if good])
        detail.update(scaled_op_p50_s=p50, scaled_op_p90_s=p90,
                      raw_op_p50_s=raw_p50, raw_op_p90_s=raw_p90)
    if args.trace:
        metrics = tracer.metrics(load_spec()["per_layer"], span_scales)
    else:
        metrics = {"ops_per_s": {"value": len(completed) / sum(scaled), "unit": "1/s"}}
        if completed:
            metrics["op_p50_s"] = {"value": p50, "unit": "s"}
            metrics["op_p90_s"] = {"value": p90, "unit": "s"}
        metrics["setup_s"] = {
            "value": import_s * import_scale + statistics.median(setup_scaled), "unit": "s",
        }
        metrics["peak_rss_mib"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        }
    result = {"correct": correct, "attempted": len(raw), "failed": ok.count(False),
              "metrics": metrics}
    detail = dict(result, **detail)
    return 0, (result, detail, tracer, span_scales)


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        code, payload = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code:
        return code
    result, detail, tracer, span_scales = payload
    stem = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    )
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace and tracer is not None:
        tracer.write(stem + ".spans.jsonl", span_scales)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
