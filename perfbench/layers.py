"""Which wellmon calls a traced run wraps, and the per-layer metrics
derived from the spans they record.

The layers are wellmon's modules; cli is a thin shell over pipeline and is
not measured. A span name is "<layer>.<what>".
"""

import os
from collections import Counter, defaultdict
from pathlib import Path

import opcount
from spans import self_times

LAYERS = (
    "dataset", "transforms", "linalg", "pca", "baseline", "logreg", "dtree",
    "svm", "cnn", "evaluation", "pipeline",
)


def _csv_bytes(result, in_dir, *args, **kwargs):
    return {"bytes": sum(os.path.getsize(p) for p in Path(in_dir).glob("series_*.csv"))}


def _transform_kind(args, kwargs):
    return "transforms." + (args[1] if len(args) > 1 else kwargs["kind"])


def _cnn_fit_counts(model, _self, X, *args, **kwargs):
    n = len(X)
    return {
        "steps": opcount.cnn_steps(model, n),
        "flops": opcount.cnn_fit_flops(model, X),
        "final_train_mse": model.history_["train_mse"][-1],
    }


def instrument(tracer):
    """Rebind every measured public name; tracer.restore() undoes it."""
    from wellmon import (
        baseline, cnn, dataset, dtree, evaluation, logreg, pca, pipeline, svm,
        transforms,
    )

    bind = tracer.rebind
    bind(dataset, "generate", "dataset.generate")
    bind(dataset, "window", "dataset.window")
    bind(dataset, "split", "dataset.split")
    bind(dataset, "load_series_set", "dataset.load_series_set", _csv_bytes)
    bind(dataset, "sym_sqrt", "linalg.sym_sqrt")
    bind(dataset, "jacobi_eigh", "linalg.jacobi_eigh")
    bind(pipeline, "transform_segments", _transform_kind,
         lambda fm, *a, **k: {"segments": fm.n_rows})
    bind(transforms.Standardizer, "fit", "transforms.standardize")
    bind(transforms.Standardizer, "transform", "transforms.standardize")
    bind(transforms, "sym_sqrt_batch", "linalg.sym_sqrt_batch",
         lambda roots, mats, *a, **k: {"matrices": len(mats)})
    bind(pca, "eigh_descending", "linalg.eigh_descending")
    bind(pca.PCA, "fit", "pca.fit")
    bind(pca.PCA, "transform", "pca.transform")
    bind(baseline, "monitor", "baseline.monitor")
    bind(baseline, "minute_stds", "baseline.minute_stds")
    bind(baseline, "fit_line", "baseline.fit_line", lambda *a, **k: {"lines": 1})
    bind(logreg.LogisticRegression, "fit", "logreg.fit",
         lambda model, *a, **k: {"n_iter": model.n_iter_})
    bind(logreg.LogisticRegression, "predict", "logreg.predict")
    bind(dtree.DecisionTree, "fit", "dtree.fit",
         lambda model, *a, **k: {"nodes": model.n_nodes_, "depth": model.depth_})
    bind(dtree.DecisionTree, "predict", "dtree.predict")
    bind(dtree, "grid_search", "dtree.grid_search")
    bind(dtree, "ccp_path", "dtree.ccp_path")
    bind(svm.SvmClassifier, "fit", "svm.fit", lambda model, *a, **k: {
        "n_support": model.n_support_,
        "kernel_entries": opcount.svm_fit_kernel_entries(model),
    })
    bind(svm.SvmClassifier, "predict", "svm.predict", lambda labels, model, X: {
        "kernel_entries": opcount.svm_predict_kernel_entries(model, X),
    })
    bind(cnn.CnnClassifier, "fit", "cnn.fit", _cnn_fit_counts)
    bind(cnn.CnnClassifier, "predict", "cnn.predict")
    bind(pipeline, "compare", "evaluation.compare")
    bind(evaluation, "compare", "evaluation.compare")
    bind(pipeline, "run_compare", "pipeline.run_compare")
    bind(pipeline, "reports_to_csv", "pipeline.persist")
    for cls in (pipeline.ClassicalPipeline, pipeline.CnnPipeline):
        bind(cls, "fit", "pipeline.fit")
        bind(cls, "predict", "pipeline.predict")
        bind(cls, "save", "pipeline.persist")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metric name -> value over the given spans; a layer the
    spans never reach reads 0."""
    busy = defaultdict(float)
    calls = Counter()
    counts = defaultdict(float)
    for span in spans:
        busy[span.name] += span.duration
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[span.name, key] += value
    own = self_times(spans)
    layer_self = defaultdict(float)
    for span in spans:
        layer_self[span.layer] += own[span.span_id]
    by_id = {span.span_id: span for span in spans}

    def under_compare(name):
        return sum(
            1 for s in spans
            if s.name == name and s.parent_id is not None
            and by_id[s.parent_id].name == "evaluation.compare"
        )

    transform_s = busy["transforms.cov"] + busy["transforms.std"]
    cnn_fit_s = busy["cnn.fit"]
    cnn_steps = counts["cnn.fit", "steps"]
    load_s = busy["dataset.load_series_set"]
    metrics = {
        "dataset.generate_s": busy["dataset.generate"],
        "dataset.window_s": busy["dataset.window"],
        "dataset.split_s": busy["dataset.split"],
        "dataset.load_series_s": load_s,
        "dataset.load_mb_per_s": _ratio(counts["dataset.load_series_set", "bytes"] / 1e6, load_s),
        "transforms.cov_s": busy["transforms.cov"],
        "transforms.std_s": busy["transforms.std"],
        "transforms.segments_per_s": _ratio(
            counts["transforms.cov", "segments"] + counts["transforms.std", "segments"],
            transform_s,
        ),
        "transforms.standardize_s": busy["transforms.standardize"],
        "linalg.sym_sqrt_batch_s": busy["linalg.sym_sqrt_batch"],
        "linalg.sym_sqrt_batch_calls": calls["linalg.sym_sqrt_batch"],
        "linalg.mean_batch_size": _ratio(
            counts["linalg.sym_sqrt_batch", "matrices"], calls["linalg.sym_sqrt_batch"]
        ),
        "linalg.eigh_descending_s": busy["linalg.eigh_descending"],
        "pca.fit_s": busy["pca.fit"],
        "pca.transform_s": busy["pca.transform"],
        "baseline.monitor_s": busy["baseline.monitor"],
        "baseline.fit_line_s": busy["baseline.fit_line"],
        "baseline.lines": counts["baseline.fit_line", "lines"],
        "logreg.fit_s": busy["logreg.fit"],
        "logreg.n_iter": counts["logreg.fit", "n_iter"],
        "dtree.fit_s": busy["dtree.fit"],
        "dtree.fits": calls["dtree.fit"],
        "dtree.nodes": counts["dtree.fit", "nodes"],
        "dtree.depth": max(
            (s.counts["depth"] for s in spans if s.name == "dtree.fit" and s.counts),
            default=0,
        ),
        "dtree.grid_search_s": busy["dtree.grid_search"],
        "dtree.ccp_path_s": busy["dtree.ccp_path"],
        "svm.fit_s": busy["svm.fit"],
        "svm.n_support": counts["svm.fit", "n_support"],
        "svm.predict_s": busy["svm.predict"],
        "svm.computed_kernel_entries": (
            counts["svm.fit", "kernel_entries"] + counts["svm.predict", "kernel_entries"]
        ),
        "cnn.fit_s": cnn_fit_s,
        "cnn.steps": cnn_steps,
        "cnn.step_ms": _ratio(cnn_fit_s * 1e3, cnn_steps),
        "cnn.gflops_per_s": _ratio(counts["cnn.fit", "flops"] / 1e9, cnn_fit_s),
        "cnn.predict_s": busy["cnn.predict"],
        "cnn.final_train_mse": _ratio(counts["cnn.fit", "final_train_mse"], calls["cnn.fit"]),
        "evaluation.compare_s": sum(
            own[s.span_id] for s in spans if s.name == "evaluation.compare"
        ),
        "evaluation.predict_useful_ratio": _ratio(
            under_compare("pipeline.fit"), under_compare("pipeline.predict")
        ),
        "pipeline.persist_s": busy["pipeline.persist"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
