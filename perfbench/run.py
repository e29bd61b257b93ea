"""Benchmark of the fsub kernel.

    python3 perfbench/run.py --workload {check,oracle,metatheory,deep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; fsub is imported from its `src/`.  The seed
only shapes the generated inputs.  Operations run in whole passes over the
inputs until `--seconds` have gone by (at least one pass).  With `--trace 0`
the run reports the end-to-end metrics.  With `--trace 1` untraced and traced
passes alternate, and the run reports the per-layer metrics from the traced
passes and the tracing overhead from the difference.  Every output is checked
after the timed section.  The last line of standard output is one JSON
object; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

from calibration import Calibration
from tracing import LAYERS, Tracer, direct, layer_stats, loglog_slope, op_self_seconds, per_op_layer_medians
from workloads import CRASH, DEEP_SIZES, OK, WORKLOADS, WRONG, crash, import_fsub, is_crash

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MASK = (1 << 64) - 1  # seeds are 64-bit, as in fsub.gen
# Set-up is repeated at least this many times, and until this much time has
# gone by or the cap is reached, so that a short set-up gets more samples.
SETUP_MIN_REPETITIONS, SETUP_MIN_SECONDS, SETUP_MAX_REPETITIONS = 3, 2.0, 25

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
LAYER_UNITS = {"calls": "count", "busy_s": "s", "p50_us": "us"}
COUNTS = {
    "subtyper.decide.nodes": "count",
    "subtyper.to_json.bytes": "bytes",
    "subtyper.declarative.positives": "count",
    "metatheory.nodes_out": "count",
    "parser.chars": "count",
}
RATIOS = {"metatheory.validation_share": "ratio", "subtyper.check_per_decide": "ratio", "trace.overhead_share": "ratio"}
EXPONENTS = [f"{layer}.{series}.exp"
             for layer in ("parser.parse", "subtyper.decide", "subtyper.check", "subtyper.to_json", "subtyper.from_json")
             for series in ("arrow", "forall", "chain")] + ["metatheory.weaken.forall.exp"]


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in LAYER_UNITS.items()}
    units.update(COUNTS)
    units.update(RATIOS)
    units.update({name: "slope" for name in EXPONENTS})
    return units


class Pass:
    """Timings and outputs of one pass over a workload's inputs."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.ran = 0  # items run, probes included
        self.latencies: list[float] = []  # every operation except the probes
        self.scaled: list[float] = []  # the same at the reference speed
        self.probe_seconds = 0.0
        self.wall = 0.0
        # Until a pass has run every item, each pass keeps its outputs, one
        # (key, detail) per item; later passes keep only the keys that differ
        # from that first complete pass, so memory does not grow with passes.
        self.outputs: list = []
        self.differing: dict[int, object] = {}


def time_passes(wl, seconds: float, tracer: Tracer | None) -> tuple[list[Pass], Pass]:
    """Run passes until `seconds` have elapsed; return them and the first
    complete one.  Without a tracer every pass is untraced.  With one, the
    passes alternate untraced and traced, starting untraced and ending traced;
    an untraced pass stops early, before the probes, once it has run for half
    of `seconds`."""
    passes: list[Pass] = []
    ref = None
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        call = tracer.call if traced else direct
        run = Pass(traced)
        pass_start = perf_counter()
        calibration = Calibration()
        marks = []
        state = wl.new_pass()
        cut = pass_start + seconds / 2 if tracer is not None and not traced else None
        for i, item in enumerate(wl.items):
            if cut is not None and perf_counter() >= cut:
                break
            mark = calibration.mark()
            span = tracer.begin() if traced else -1
            t0 = perf_counter()
            try:
                out = wl.run(item, state, call)
            except Exception as err:  # a crash is a failed operation, not the end of the run
                out = (crash(err), None)
            t1 = perf_counter()
            if traced:
                tracer.end(span, ("probe:" if item.probe else "op:") + item.label, t0, t1)
            if item.probe:
                run.probe_seconds += t1 - t0
            else:
                run.latencies.append(t1 - t0)
                marks.append(mark)
            if ref is None:
                run.outputs.append(out)
            elif out[0] != ref.outputs[i][0]:
                run.differing[i] = out[0]
            run.ran += 1
        calibration.close()
        run.wall = perf_counter() - pass_start
        run.scaled = [calibration.scale(t, m) for t, m in zip(run.latencies, marks)]
        passes.append(run)
        if ref is None and run.ran == len(wl.items):
            ref = run
        if perf_counter() - start >= seconds and (tracer is None or traced):
            return passes, ref


def statuses(passes: list[Pass], ref: Pass, checked: list[str], run_problems: list[str]) -> list[str]:
    """Status of every operation run, given the checked statuses of the first
    complete pass: every other pass must repeat that pass's keys, and a
    problem with the run as a whole fails them all."""
    out = []
    for run in passes:
        for i in range(run.ran):
            if run is ref:
                out.append(checked[i])
                continue
            key = run.outputs[i][0] if run.outputs else run.differing.get(i, ref.outputs[i][0])
            out.append(checked[i] if key == ref.outputs[i][0] else CRASH if is_crash(key) else WRONG)
    if run_problems:
        return [WRONG] * len(out)
    return out


def tracing_overhead(passes: list[Pass]) -> float:
    """Mean traced over mean untraced time of the operations every pass ran,
    leaving out the first, cold pass when another untraced pass exists."""
    untraced = [p for p in passes if not p.traced]
    if len(untraced) > 1:
        untraced = untraced[1:]
    traced = [p for p in passes if p.traced]
    n = min(len(p.latencies) for p in untraced)

    def mean(group: list[Pass]) -> float:
        return sum(sum(p.latencies[:n]) for p in group) / len(group)

    return mean(traced) / mean(untraced) - 1


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(passes: list[Pass], setup: list[float], scaled: bool) -> dict[str, float]:
    """Operations per second (median over the passes), latency percentiles
    (each input counts once, with its median over the passes) and the median
    set-up, from the scaled or from the raw times."""
    times = [p.scaled if scaled else p.latencies for p in passes]
    per_input = [statistics.median(t) for t in zip(*times)]
    return {
        "ops_per_s": statistics.median(len(t) / sum(t) for t in times),
        "latency_p50_ms": statistics.median(per_input) * 1e3,
        "latency_p99_ms": percentile(per_input, 99) * 1e3,
        "setup_s": statistics.median(setup),
    }


def per_layer_metrics(wl, tracer: Tracer, passes: list[Pass], ref: Pass) -> tuple[dict, dict]:
    """The per-layer metrics, and a fuller summary of each layer's time."""
    spans = tracer.spans
    traced = sum(1 for p in passes if p.traced)
    stats = layer_stats(spans, "op", traced)
    stats.update({k: v for k, v in layer_stats(spans, "setup", 1).items() if k.startswith("gen.")})
    metrics = {f"{layer}.{stat}": values[stat] for layer, values in stats.items() for stat in LAYER_UNITS}
    metrics.update(wl.counts(ref.outputs))
    metrics.update(wl.traced_metrics(tracer, stats))
    medians = per_op_layer_medians(spans, "op")
    for name in EXPONENTS:
        layer, series, _ = name.rsplit(".", 2)
        points = [(n, medians[(f"{series}/{n}", layer)]) for n in DEEP_SIZES if (f"{series}/{n}", layer) in medians]
        if len(points) == len(DEEP_SIZES):
            metrics[name] = loglog_slope(points)
    metrics["trace.overhead_share"] = tracing_overhead(passes)
    summary = {"traced_passes": traced, "layers": stats, "op_self_s": op_self_seconds(spans, "op", traced),
               "metrics": metrics}
    return metrics, summary


def failure_summary(wl, first: Pass, status: list[str]) -> list[str]:
    """One line per item whose first-pass operation failed."""
    return [f"{item.label}: {s} {key if is_crash(key) else ''}".rstrip()
            for item, s, (key, _) in zip(wl.items, status, first.outputs) if s != OK]


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": model,
        "system": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "fsub", "__init__.py")):
        print(f"error: no fsub sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    seed = args.seed & MASK
    traced = args.trace == 1

    # Set-up: import fsub and build the inputs, several times; keep the last.
    setup_times: list[float] = []
    setup_scaled: list[float] = []
    while len(setup_times) < SETUP_MIN_REPETITIONS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPETITIONS
    ):
        tracer = Tracer() if traced else None
        inner = tracer.call if traced else direct
        calibration = Calibration()

        def call(layer, fn, *args, **kwargs):
            calibration.mark()
            return inner(layer, fn, *args, **kwargs)

        t0 = perf_counter()
        span = tracer.begin() if traced else -1
        api = import_fsub(SRC)
        wl = WORKLOADS[args.workload](api, seed)
        wl.build(call)
        if traced:
            tracer.end(span, "setup:" + args.workload, t0, perf_counter())
        calibration.close()
        setup_times.append(sum(calibration.segments))
        setup_scaled.append(calibration.scaled_total())

    passes, ref = time_passes(wl, args.seconds, tracer if traced else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    os.makedirs(OUT, exist_ok=True)
    checked = wl.check(ref.outputs)
    try:
        run_problems = wl.check_run(ref.outputs, OUT)
    except Exception as err:  # the checks themselves crashed: nothing is trusted
        run_problems = [f"run check raised {type(err).__name__}: {err}"]
    status = statuses(passes, ref, checked, run_problems)
    failures = failure_summary(wl, ref, checked)
    attempted = len(status)
    failed = sum(1 for s in status if s != OK)
    correct = not run_problems and WRONG not in status

    if traced:
        metrics, summary = per_layer_metrics(wl, tracer, passes, ref)
        units = per_layer_units()
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.tsv"))
        with open(os.path.join(OUT, f"layers-{args.workload}.json"), "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
    else:
        metrics = timing_metrics(passes, setup_scaled, scaled=True)
        metrics.update(peak_rss_mb=peak_rss_mb, ok_share=1 - failed / attempted)
        units = END_TO_END

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "problems": run_problems, "failures": failures,
        "unscaled": timing_metrics(passes, setup_times, scaled=False), "setup_s": setup_times,
        "passes": [{"traced": p.traced, "ran": p.ran, "wall_s": p.wall, "probe_s": p.probe_seconds,
                    "op_s": sum(p.latencies), "scaled_op_s": sum(p.scaled)} for p in passes],
        **result,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for problem in run_problems:
        print(f"problem: {problem}")
    for line in failures:
        print(f"failed: {line}")
    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} python={m['python']} nproc={m['nproc']} cpu={m['cpu']}")
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    if not traced:
        for name, value in record["unscaled"].items():
            print(f"# unscaled {name:31s} {value:>16.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
