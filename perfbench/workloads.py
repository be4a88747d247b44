"""The benchmark's workloads.

compare-noise1     The analyst comparing methods: per repeat one of three
                   5+5 one-hour studies at noise 1 (384 train / 96 test
                   windows), pipeline.run_compare of all four methods on
                   COV+PCA(4), models and reports persisted, then a batch
                   predict of every window of the study. CNN training is
                   the largest stage.
classical-noise50  The analyst tuning the classical methods, no CNN: per
                   repeat one of twelve 2+2 studies at noise 50, with
                   evaluation.compare of logreg, dtree and svm on COV+PCA(4)
                   and STD+PCA(3), plus dtree.grid_search over a reduced
                   pre-pruning grid and dtree.ccp_path on COV+PCA(4), and a
                   batch predict of every window of the study. Tree
                   growth and SMO dominate; a CNN change should move nothing.
monitor-stream     The production monitor: load CSV series, backfill (batch
                   predict of every window and baseline.monitor), then stream
                   the windows in time order through every fitted pipeline,
                   one window per predict call, refitting the trailing
                   ten-minute baseline lines per window. Closed loop, one
                   client, no think time.

The analyst workloads also stream a study's first windows in time order
through its logreg pipeline, so every workload reports per-window latency.
That probe runs after the timed region, so it does not count in run_s.

Every input derives from the seed. setup() builds the inputs and is timed
as set-up; run() is the timed region; latency_probe() follows it, outside
the wall time and the trace; check() verifies the outputs of both outside
the timed region and hashes them for the same-seed digest.
"""

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wellmon import baseline, dataset, dtree, evaluation, pipeline

WINDOW_SECONDS = 60.0
CNN_INPUT_LEN = int(WINDOW_SECONDS * dataset.DEFAULT_SAMPLE_RATE_HZ)
TEST_FRACTION = 0.2
ONE_HOUR = 18001  # samples at 5 Hz, the paper's series length
# the pinned criterion-7 CNN settings, with an epoch budget sized so a
# run's four repeats fit its time
CNN_PARAMS = {"epochs": 10, "learning_rate": 5e-3, "batch_size": 50}


class Ops:
    """Counts the calls a workload makes into wellmon and the ones that raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise


@dataclass
class Output:
    """What one timed repeat produced."""

    predict_windows: int = 0
    predict_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """check()'s findings for one repeat."""

    dataset: int  # which of the workload's datasets the repeat ran on
    scores: dict  # (feature set, method) -> (correct, total) test predictions
    quality: dict  # per-layer quality figures, e.g. cnn.accuracy
    digest: str
    failures: list


def accuracies(verdicts):
    """method -> accuracy pooled over the datasets, lowest over feature sets."""
    first = {}
    for verdict in verdicts:
        first.setdefault(verdict.dataset, verdict)
    pooled = {}
    for verdict in first.values():
        for key, (correct, total) in verdict.scores.items():
            c, t = pooled.get(key, (0, 0))
            pooled[key] = (c + correct, t + total)
    out = {}
    for (_, method), (correct, total) in pooled.items():
        out[method] = min(correct / total, out.get(method, 1.0))
    return out


class Checks:
    def __init__(self):
        self.failures = []
        self.hash = hashlib.sha256()

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)

    def digest(self, *items):
        for item in items:
            data = np.ascontiguousarray(item)
            self.hash.update(str(data.dtype).encode() + data.tobytes())

    def probabilities(self, name, probs):
        probs = np.asarray(probs)
        self.require(
            bool(np.all(np.isfinite(probs)) and np.all((probs >= 0) & (probs <= 1))),
            f"{name}: probability outside [0, 1] or not finite",
        )
        self.digest(probs)


def truth_of(segments):
    return np.array([int(s.label) for s in segments], dtype=np.int64)


def time_ordered(segments):
    """Windows in arrival order: minute by minute, series by series."""
    return sorted(segments, key=lambda s: (s.window_index, s.source_index))


def batch_predict(ops, pipes, segments):
    """Label every segment with each pipeline; returns labels and the time
    the predict calls took."""
    labels = []
    elapsed = 0.0
    for pipe in pipes:
        start = time.perf_counter()
        labels.append(ops(pipe.predict, segments))
        elapsed += time.perf_counter() - start
    return labels, elapsed


def stream_probe(ops, pipe, segments):
    """Predict one window per call; returns labels and latencies (ms)."""
    labels, latencies = [], []
    for segment in segments:
        start = time.perf_counter()
        labels.append(ops(pipe.predict, [segment])[0])
        latencies.append((time.perf_counter() - start) * 1e3)
    return np.array(labels, dtype=np.int64), latencies


def cnn_probabilities(pipe, segments):
    return pipe.estimator.predict_proba(pipe._normalize(pipe._to_array(segments)))


def check_pipeline_outputs(checks, name, pipe, segments):
    """Probabilities (logreg, CNN) in [0, 1]; SVM decisions finite."""
    if isinstance(pipe, pipeline.CnnPipeline):
        probs = cnn_probabilities(pipe, segments)
        checks.probabilities(name, probs)
        return probs
    model = pipe.estimator
    if hasattr(model, "predict_proba"):
        checks.probabilities(name, model.predict_proba(pipe.project(segments).values))
    elif hasattr(model, "decision_function"):
        decision = model.decision_function(pipe.project(segments).values)
        checks.require(bool(np.all(np.isfinite(decision))), f"{name}: non-finite decision")
        checks.digest(decision)
    return None


def check_stream_matches_batch(checks, name, pipe, segments, streamed):
    batch = pipe.predict(segments)
    checks.require(
        np.array_equal(batch, streamed),
        f"{name}: one-window predictions differ from the batch predictions",
    )


def cnn_quality(probs, truth):
    return {
        "cnn.accuracy": float(np.mean((probs >= 0.5) == truth)),
        "cnn.test_mse": float(np.mean((probs - truth) ** 2)),
    }


def generated(n_per_class, noise, seed, series_len=ONE_HOUR):
    return dataset.generate(
        dataset.preset_config(
            "slack", n_series_per_class=n_per_class, noise_level=noise, seed=seed,
            series_len=series_len,
        )
    )


@dataclass
class Study:
    """One analyst study: a generated series set, windowed and split."""

    seed: int
    series: object
    train: list
    test: list
    channel_names: tuple


class StudyCycle:
    """Analyst workloads: each repeat runs one of STUDIES independent
    studies of N_PER_CLASS + N_PER_CLASS one-hour series, in turn.

    SVM fit time depends strongly on the data: at noise 1 on 20+20 series
    it took 0.7 to 13.5 s over data seeds 0-9, so one large study per run
    makes run time bimodal between seeds. Several smaller studies per run,
    with run time averaged over them and accuracies pooled over them, are
    steadier.
    """

    STUDIES = 3
    N_PER_CLASS = 5
    ACCURACY_FLOORS = {}
    # windows streamed per repeat: the fewest repeats a run makes, one per
    # study and one more, stream the 1000 windows a p99 needs
    PROBE = 250

    @property
    def datasets(self):
        return self.STUDIES

    def setup(self, seed, ops, work):
        studies = []
        for r in range(self.STUDIES):
            study_seed = seed * self.STUDIES + r
            series = generated(self.N_PER_CLASS, self.NOISE, study_seed)
            segments = dataset.window(series, WINDOW_SECONDS)
            train, test = dataset.split(segments, TEST_FRACTION, study_seed)
            studies.append(Study(study_seed, series, train, test, series.channel_names))
        return {"studies": studies, "work": work}

    def dispose(self, state):
        pass

    def config(self, study, transform="cov", pcs=4, method_params=None):
        return pipeline.PipelineConfig(
            transform=transform, pcs=pcs, noise=self.NOISE, seed=study.seed,
            n_series_per_class=self.N_PER_CLASS, method_params=method_params or {},
        )

    def latency_probe(self, state, out, ops):
        """Stream the study's first PROBE windows through its logreg pipeline."""
        x = out.extra
        study = state["studies"][x["index"]]
        x["probe"] = time_ordered(study.train + study.test)[: self.PROBE]
        x["streamed"], out.latencies_ms = stream_probe(ops, x["pipes"][0], x["probe"])


class CompareNoise1(StudyCycle):
    name = "compare-noise1"
    NOISE = 1
    ACCURACY_FLOORS = {"logreg": 0.95}  # criterion 7, COV+PCA(4)

    def run(self, state, ops, index):
        study = state["studies"][index]
        out_dir = Path(tempfile.mkdtemp(dir=state["work"]))
        cfg = self.config(study, method_params={"cnn": CNN_PARAMS})
        reports, pipes = ops(pipeline.run_compare, cfg, out_dir, study.series)
        # label the whole study, test windows first: the test set alone is
        # too little predict time for a steady throughput
        windows = study.test + study.train
        labels, predict_s = batch_predict(ops, pipes, windows)
        return Output(
            predict_windows=len(pipes) * len(windows),
            predict_s=predict_s,
            extra=dict(index=index, out_dir=out_dir, reports=reports, pipes=pipes,
                       labels=labels),
        )

    def check(self, state, out):
        x = out.extra
        study = state["studies"][x["index"]]
        checks = Checks()
        truth = truth_of(study.test)
        scores, quality = {}, {}
        for report, pipe, labels in zip(x["reports"], x["pipes"], x["labels"]):
            checks.digest(labels)
            labels = labels[: len(truth)]
            acc = float(np.mean(labels == truth))
            checks.require(
                abs(acc - report.accuracy) < 1e-12,
                f"{pipe.name}: report accuracy {report.accuracy} != predicted {acc}",
            )
            probs = check_pipeline_outputs(checks, pipe.name, pipe, study.test)
            if pipe.name == "cnn":
                quality = cnn_quality(probs, truth)
            else:
                scores["cov4", pipe.name] = (int(np.sum(labels == truth)), len(truth))
        check_stream_matches_batch(checks, "logreg", x["pipes"][0], x["probe"], x["streamed"])
        rows = (x["out_dir"] / "report.csv").read_text().splitlines()
        checks.require(len(rows) == 1 + len(x["pipes"]), "report.csv row count")
        for pipe in x["pipes"]:
            checks.require(
                any(x["out_dir"].glob(f"{pipe.name}_model*")), f"{pipe.name}: model not saved"
            )
        shutil.rmtree(x["out_dir"])
        checks.digest(x["streamed"])
        return Verdict(x["index"], scores, quality, checks.hash.hexdigest(), checks.failures)


class ClassicalNoise50(StudyCycle):
    name = "classical-noise50"
    NOISE = 50
    # SVM fit time at noise 50 follows the data: one 5+5 study took 10.7 s
    # against 3-5 s for the others of its seed, and a 3+3 study's two SVM
    # fits took 0.25-2.1 s over ten study seeds. Many small studies per run
    # average that out: a repeat's wall varied by 0.28 of its mean on 3+3
    # studies and by 0.15 on 2+2, and six 3+3 studies a run left run_s
    # spreading 0.26 between seeds.
    STUDIES = 12
    N_PER_CLASS = 2
    PROBE = 77
    FEATURE_SETS = (("cov", 4), ("std", 3))
    METHODS = ("logreg", "dtree", "svm")
    GRID = {"max_depth": (3, 6), "min_samples_split": (2,), "min_samples_leaf": (4,)}
    K_FOLDS = 3

    def run(self, state, ops, index):
        study = state["studies"][index]
        fitted, labels, predict_s = [], [], 0.0
        for transform, pcs in self.FEATURE_SETS:
            cfg = self.config(study, transform, pcs)
            pipes = [
                pipeline.build_pipeline(cfg, method, channel_names=study.channel_names)
                for method in self.METHODS
            ]
            ops(evaluation.compare, pipes, study.train, study.test)
            got, elapsed = batch_predict(ops, pipes, study.test + study.train)
            fitted.extend(pipes)
            labels.extend(got)
            predict_s += elapsed
        cov_tree = fitted[self.METHODS.index("dtree")]
        features = cov_tree.project(study.train)
        best = ops(dtree.grid_search, features.values, features.labels, "gini",
                   self.GRID, self.K_FOLDS, seed=study.seed)
        path = ops(dtree.ccp_path, cov_tree.estimator, features.values, features.labels)
        return Output(
            predict_windows=len(fitted) * (len(study.test) + len(study.train)),
            predict_s=predict_s,
            extra=dict(index=index, pipes=fitted, labels=labels, best=best, path=path),
        )

    def check(self, state, out):
        x = out.extra
        study = state["studies"][x["index"]]
        checks = Checks()
        truth = truth_of(study.test)
        scores = {}
        for pipe, labels in zip(x["pipes"], x["labels"]):
            feature_set = f"{pipe.transform}{pipe.pcs}"
            test_labels = labels[: len(truth)]
            scores[feature_set, pipe.name] = (int(np.sum(test_labels == truth)), len(truth))
            checks.digest(labels)
            check_pipeline_outputs(checks, pipe.describe(), pipe, study.test)
        params, cv_accuracy = x["best"]
        checks.require(0.0 <= cv_accuracy <= 1.0, f"grid search accuracy {cv_accuracy}")
        checks.digest(np.array([params[k] for k in sorted(params)]), np.array([cv_accuracy]))
        alphas = np.array(x["path"].alphas)
        checks.require(
            bool(np.all(np.diff(alphas) >= 0)) and x["path"].node_counts[-1] == 1,
            "ccp path must run from the full tree to the root with non-decreasing alphas",
        )
        checks.digest(alphas)
        check_stream_matches_batch(checks, "logreg", x["pipes"][0], x["probe"], x["streamed"])
        checks.digest(x["streamed"])
        return Verdict(x["index"], scores, {}, checks.hash.hexdigest(), checks.failures)


@dataclass
class MonitorState:
    csv_dir: Path
    pipes: list


class MonitorStream:
    name = "monitor-stream"
    datasets = 1
    ACCURACY_FLOORS = {}
    STREAM_PER_CLASS = 2
    # two hours: 480 windows a repeat, so a run makes at least the three
    # repeats that stream the 1000 a p99 needs; two were too few for steady
    # batch throughput
    STREAM_LEN = 2 * ONE_HOUR - 1
    TRAIN_PER_CLASS = 3
    # One training set and model seed for every stream seed: SVM fit time
    # follows the training data, so a seed-dependent training set would
    # make setup_s spread between seeds. The training data seed is even and
    # every stream data seed (2 * seed + 1) odd, so for any seed a streamed
    # series is never a training series.
    TRAIN_SEED = 0
    NOISE = 10
    CNN_PARAMS = dict(CNN_PARAMS, epochs=2)
    PAIRS = (("accx_FJ", "bmx"), ("accy_FJ", "bmy"))
    LINE_MINUTES = 10

    def setup(self, seed, ops, work):
        csv_dir = Path(tempfile.mkdtemp(dir=work))
        stream = generated(self.STREAM_PER_CLASS, self.NOISE, 2 * seed + 1, self.STREAM_LEN)
        dataset.save_series_set(stream, csv_dir)
        train_set = generated(self.TRAIN_PER_CLASS, self.NOISE, self.TRAIN_SEED)
        train = dataset.window(train_set, WINDOW_SECONDS)
        cfg = pipeline.PipelineConfig(
            transform="cov", pcs=4, noise=self.NOISE, seed=self.TRAIN_SEED,
            method_params={"cnn": self.CNN_PARAMS},
        )
        pipes = [
            pipeline.build_pipeline(cfg, method, channel_names=train_set.channel_names)
            for method in pipeline.METHODS
        ]
        for pipe in pipes:
            ops(pipe.fit, train)
        return MonitorState(csv_dir, pipes)

    def dispose(self, state):
        shutil.rmtree(state.csv_dir)

    def latency_probe(self, state, out, ops):
        """Nothing: streaming one window per call is this workload's timed region."""

    def _refit_lines(self, series, minute):
        """Lines over the ten minutes ending with `minute`, as the monitor
        would refit them when that minute's window arrives."""
        per_minute = int(round(60.0 * series.sample_rate_hz))
        first = minute + 1 - self.LINE_MINUTES
        lo, hi = first * per_minute, (minute + 1) * per_minute
        lines = []
        for x_name, y_name in self.PAIRS:
            x = baseline.minute_stds(series.channel(x_name)[lo:hi], per_minute)
            y = baseline.minute_stds(series.channel(y_name)[lo:hi], per_minute)
            lines.append(baseline.fit_line(x, y, first))
        return lines

    def _one_window(self, pipes, segment, series):
        labels = [pipe.predict([segment])[0] for pipe in pipes]
        lines = []
        if segment.window_index + 1 >= self.LINE_MINUTES:
            lines = self._refit_lines(series, segment.window_index)
        return labels, lines

    def run(self, state, ops, index):
        series_set = ops(dataset.load_series_set, state.csv_dir)
        segments = ops(dataset.window, series_set, WINDOW_SECONDS)
        labels, predict_s = batch_predict(ops, state.pipes, segments)
        backfill = {
            (i, pair): ops(baseline.monitor, series, baseline.MonitorConfig(*pair))
            for i, (series, _) in enumerate(series_set)
            for pair in self.PAIRS
        }
        arrivals = time_ordered(segments)
        streamed, refits, latencies = [], [], []
        for segment in arrivals:
            series = series_set.items[segment.source_index][0]
            start = time.perf_counter()
            got, lines = ops(self._one_window, state.pipes, segment, series)
            latencies.append((time.perf_counter() - start) * 1e3)
            streamed.append(got)
            refits.append(lines)
        return Output(
            predict_windows=len(state.pipes) * len(segments),
            predict_s=predict_s,
            latencies_ms=latencies,
            extra=dict(series_set=series_set, segments=segments, labels=labels,
                       backfill=backfill, arrivals=arrivals, streamed=streamed,
                       refits=refits),
        )

    def check(self, state, out):
        x = out.extra
        checks = Checks()
        segments = x["segments"]
        truth = truth_of(segments)
        scores, quality = {}, {}
        streamed = np.array(x["streamed"], dtype=np.int64)
        position = {id(s): i for i, s in enumerate(segments)}
        order = np.array([position[id(s)] for s in x["arrivals"]])
        for k, (pipe, labels) in enumerate(zip(state.pipes, x["labels"])):
            checks.digest(labels)
            probs = check_pipeline_outputs(checks, pipe.name, pipe, segments)
            checks.require(
                np.array_equal(labels[order], streamed[:, k]),
                f"{pipe.name}: one-window predictions differ from the batch predictions",
            )
            if pipe.name == "cnn":
                quality = cnn_quality(probs, truth)
            else:
                scores["cov4", pipe.name] = (int(np.sum(labels == truth)), len(truth))
        for (i, pair), lines in x["backfill"].items():
            series = x["series_set"].items[i][0]
            minutes = series.n_samples // int(round(60.0 * series.sample_rate_hz))
            expected = minutes - self.LINE_MINUTES + 1
            checks.require(
                len(lines) == expected,
                f"series {i} {pair}: {len(lines)} baseline lines, expected {expected}",
            )
            checks.digest(np.array([(ln.intercept, ln.incline) for ln in lines]))
        for segment, lines in zip(x["arrivals"], x["refits"]):
            for pair, line in zip(self.PAIRS, lines):
                ref = x["backfill"][segment.source_index, pair][line.window_start_index]
                checks.require(
                    ref.window_start_index == line.window_start_index
                    and np.allclose([line.intercept, line.incline],
                                    [ref.intercept, ref.incline], rtol=1e-12, atol=1e-15),
                    f"streamed line at minute {line.window_start_index} differs from backfill",
                )
        return Verdict(0, scores, quality, checks.hash.hexdigest(), checks.failures)


WORKLOADS = {w.name: w for w in (CompareNoise1, ClassicalNoise50, MonitorStream)}
