"""wellmon benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the workload's inputs from the seed
(set-up, repeated before every repeat), then repeats the timed region
until --seconds is spent (every dataset at least once, the first one
twice, and 1000 streamed windows), checks every
repeat's outputs and prints each metric with its unit. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
ones; with --trace 1 each dataset runs twice in a row, once traced, and
the metrics are the per_layer ones, derived from spans recorded around the
calls into each wellmon module, plus the measured tracing overhead. The
spans are written to perfbench/.work/ when the run ends.

Exits non-zero when a check fails or an operation raises.
"""

import os

# One BLAS thread, fixed before numpy loads: at two threads the CNN's
# filter-gradient reduction changes bits and its fit time spreads several
# times wider between identical runs. Compare results only at equal counts.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import opcount  # noqa: E402
import stats  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
MIN_LATENCY_SAMPLES = 1000  # p99 with ten samples beyond it
# stop starting repeats after this long, whatever else is still missing
HARD_STOP_S = 120.0


def import_wellmon():
    """wellmon from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import wellmon
    except ImportError as exc:
        sys.exit(f"cannot import wellmon from {ROOT / 'src'}: {exc}")
    if Path(wellmon.__file__).resolve().parent != ROOT / "src" / "wellmon":
        sys.exit(f"wellmon imported from {wellmon.__file__}, not this checkout")
    return wellmon


def blas_runtime():
    """(OpenBLAS version string, threads in use) from numpy's bundled
    OpenBLAS, or None where the library does not say."""
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            suffix = "64_" if prefix == "scipy_openblas" else ""
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return config().decode(), threads()
    return None, None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def fingerprint(wellmon):
    import numpy as np
    import scipy

    blas_config, blas_threads = blas_runtime()
    source = hashlib.sha256()
    for path in sorted(Path(wellmon.__file__).parent.glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still removes its temporary files (finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    wellmon = import_wellmon()
    from workloads import WORKLOADS, Ops

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    fp = fingerprint(wellmon)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if fp["blas_threads"] not in (None, BLAS_THREADS):
        sys.exit(f"BLAS runs {fp['blas_threads']} threads, expected {BLAS_THREADS}")

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    ops = Ops()
    failures = []
    try:
        measured = measure(workload, args, ops, work)
        failures.extend(measured.failures)
    except Exception:
        traceback.print_exc()
        failures.append("an operation raised")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if ops.failed:
        failures.append(f"{ops.failed} operation(s) raised")

    metrics = {}
    if not failures:
        from workloads import accuracies

        accuracy = accuracies(measured.verdicts)
        for method, floor in workload.ACCURACY_FLOORS.items():
            if accuracy[method] < floor:
                failures.append(f"{method} accuracy {accuracy[method]:.4f} below {floor}")
        if args.trace:
            values = per_layer_values(measured)
            write_spans(args, fp, measured.traced)
        else:
            values = end_to_end_values(measured, accuracy, failures)
        missing = sorted(set(units) - set(values))
        if missing:
            failures.append(f"metrics not measured: {missing}")
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items() if name in values
        }
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"failed_ops_ratio {ops.failed}/{ops.attempted}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 1


@dataclass
class Measured:
    setup_s: list = field(default_factory=list)
    setup_spans: list = field(default_factory=list)
    walls: list = field(default_factory=list)  # (dataset, wall) of untraced repeats
    latencies: list = field(default_factory=list)
    predicts: list = field(default_factory=list)  # (windows, seconds) of batch predicts
    verdicts: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # (dataset, wall, spans) of traced repeats
    failures: list = field(default_factory=list)


@contextmanager
def traced_if(enabled, ops, spans=()):
    """Yield a Tracer with wellmon instrumented (or None when disabled)."""
    if not enabled:
        yield None
        return
    tracer = Tracer()
    tracer.spans = list(spans)
    layers.instrument(tracer)
    ops.tracer = tracer
    try:
        yield tracer
    finally:
        tracer.restore()
        ops.tracer = None


def measure(workload, args, ops, work):
    """Set up, then repeat the timed region and its checks.

    Before every repeat but the first, set up once more and discard the
    result, so that the set-up times sample the whole run: the host's speed
    can change for seconds at a time, and set-ups made back to back at the
    start would all fall in one stretch."""
    m = Measured()
    state = None
    try:
        start = time.perf_counter()
        state = workload.setup(args.seed, ops, work)
        m.setup_s.append(time.perf_counter() - start)
        begin = time.perf_counter()
        while True:
            if m.verdicts:
                # the second set-up comes before the first traced repeat
                with traced_if(args.trace and len(m.setup_s) == 1, ops) as tracer:
                    start = time.perf_counter()
                    spare = workload.setup(args.seed, ops, work)
                    m.setup_s.append(time.perf_counter() - start)
                workload.dispose(spare)
                if tracer is not None:
                    m.setup_spans = tracer.spans
            # cycle through the datasets; when tracing, run each one twice in
            # a row, once traced, untraced first on every other pair, so that
            # neither the host's drift nor the order biases the overhead
            pair, second = divmod(len(m.verdicts), 2)
            traced = bool(args.trace) and second != pair % 2
            dataset = (pair if args.trace else len(m.verdicts)) % workload.datasets
            with traced_if(traced, ops, m.setup_spans) as tracer:
                start = time.perf_counter()
                out = workload.run(state, ops, dataset)
                wall = time.perf_counter() - start
            workload.latency_probe(state, out, ops)
            verdict = workload.check(state, out)
            m.verdicts.append(verdict)
            m.failures.extend(verdict.failures)
            if tracer is None:
                m.walls.append((verdict.dataset, wall))
                m.latencies.extend(out.latencies_ms)
                m.predicts.append((out.predict_windows, out.predict_s))
            else:
                m.traced.append((verdict.dataset, wall, tracer.spans))
            elapsed = time.perf_counter() - begin
            done = len(m.verdicts)
            seen = Counter(v.dataset for v in m.verdicts)
            enough = covered(seen, workload.datasets) and (
                len(paired_datasets(m)) == workload.datasets if args.trace
                else len(m.latencies) >= MIN_LATENCY_SAMPLES
            )
            if (enough and elapsed * (done + 1) / done > args.seconds) or elapsed > HARD_STOP_S:
                break
    finally:
        if state is not None:
            workload.dispose(state)
    seen = Counter(v.dataset for v in m.verdicts)
    if not covered(seen, workload.datasets):
        m.failures.append(
            f"stopped after {HARD_STOP_S:.0f} s with repeats per dataset {dict(seen)}: "
            f"each of the {workload.datasets} needs one and one of them two"
        )
    digests = {}
    for v in m.verdicts:
        digests.setdefault(v.dataset, set()).add(v.digest)
    if any(len(d) != 1 for d in digests.values()):
        m.failures.append("outputs differ between repeats on the same inputs")
    return m


def covered(seen, datasets):
    """Every dataset ran, and one ran twice so that the outputs of repeats
    on the same inputs can be compared."""
    return len(seen) == datasets and max(seen.values()) >= 2


def paired_datasets(m):
    """Datasets with both an untraced and a traced repeat."""
    return {d for d, _ in m.walls} & {d for d, _, _ in m.traced}


def end_to_end_values(m, accuracy, failures):
    # The timed region's figures are means and p90, not medians of its
    # samples. Host speed on a shared 2-vCPU VM toggled between two levels
    # about 1.5x apart, for 0.25-10 s at a time and about half the time
    # slow; a median of samples shorter than that flips between the levels
    # from run to run, while a mean follows the share of the run spent slow
    # and p90 stays in the slow level. p99 is printed, not gated: rarer,
    # slower stretches decide it.
    windows, predict_s = map(sum, zip(*m.predicts))
    values = {
        "setup_s": statistics.median(m.setup_s),
        "run_s": stats.balanced_mean(m.walls),
        "predict_windows_per_s": windows / predict_s,
        "window_latency_p90_ms": stats.percentile(m.latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for method, acc in accuracy.items():
        values[f"accuracy.{method}"] = acc
    tail = stats.tail_percentile(len(m.latencies))
    print("repeat walls (s): " + " ".join(f"{w:.3f}" for _, w in m.walls))
    print(f"window latency, not gated: median {stats.percentile(m.latencies, 50):.4f} ms, "
          f"mean {statistics.fmean(m.latencies):.4f} ms, "
          f"p99 {stats.percentile(m.latencies, 99):.4f} ms")
    print(
        f"samples: setups {len(m.setup_s)}, repeats {len(m.walls)}, windows streamed "
        f"{len(m.latencies)} (highest percentile with {stats.MIN_BEYOND} beyond: p{tail})"
    )
    if tail is None or tail < 99:
        failures.append(f"{len(m.latencies)} latency samples cannot support a p99")
    return values


def per_layer_values(m):
    from workloads import CNN_INPUT_LEN

    per_repeat = [layers.layer_metrics(spans) for _, _, spans in m.traced]
    values = {name: statistics.median([r[name] for r in per_repeat]) for name in per_repeat[0]}
    # the quality figures of a layer the workload does not run read 0
    values.update({"cnn.accuracy": 0.0, "cnn.test_mse": 0.0}, **m.verdicts[0].quality)
    values["trace.overhead_ratio"] = stats.paired_overhead(
        m.walls, [(d, w) for d, w, _ in m.traced]
    )
    values["trace.spans"] = statistics.median(
        [len(s) - len(m.setup_spans) for _, _, s in m.traced]
    )
    if values["cnn.steps"]:
        from wellmon import CnnClassifier

        flops = opcount.cnn_flops_per_sample(CnnClassifier(), CNN_INPUT_LEN)
        print("cnn flop per training sample, computed from the layer shapes: "
              + ", ".join(f"{k}={v}" for k, v in flops.items()))
    return values


def write_spans(args, fp, traced):
    path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"fingerprint": fp, "workload": args.workload,
                             "seed": args.seed}) + "\n")
        for repeat, (_, _, spans) in enumerate(traced):
            for s in spans:
                fh.write(json.dumps({
                    "repeat": repeat, "id": s.span_id, "parent": s.parent_id,
                    "op": s.op_id, "name": s.name, "start": s.start, "end": s.end,
                    "counts": s.counts,
                }) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
