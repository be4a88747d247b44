"""Command-line driver for the whole pipeline.

Subcommands: generate, transform, pca, baseline, train {logreg|dtree|svm|cnn},
evaluate, compare, emit-plots. All file I/O goes through the CSV/JSON formats
of the owning modules. Exit codes: 0 success, 2 config error, 3 data error,
4 training failure.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataset as dataset_mod
from .baseline import MonitorConfig, monitor, read_lines_csv, write_lines_csv
from .cnn import SearchSpace, TrainingDivergedError, random_search
from .dtree import DecisionTree, PRE_PRUNING_GRIDS, grid_search, post_pruning_alpha
from .evaluation import format_table, reports_to_csv, score_predictions
from .logreg import LogisticRegression
from .pca import PCA
from .pipeline import (
    CnnPipeline,
    ConfigError,
    DataError,
    PipelineConfig,
    build_pipeline,
    emit_baseline_cloud,
    emit_cnn_embedding,
    emit_feature_scatter,
    emit_pca_ratios,
    prepare_segments,
    run_compare,
    run_split,
    subset_channels,
)
from .svm import ConvergenceError, SvmClassifier
from .transforms import FeatureMatrix, transform_segments
from .validation import stratified_kfold_indices

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAIN = 4


def _add_data_options(parser):
    parser.add_argument("--data", help="directory of series written by generate")
    parser.add_argument("--transform", choices=("std", "cov"), default="cov")
    parser.add_argument("--pcs", type=int, default=None)
    parser.add_argument("--noise", type=int, choices=(1, 10, 50), default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-per-class", type=int, default=10)
    parser.add_argument("--len", type=int, dest="series_len",
                        default=dataset_mod.DEFAULT_SERIES_LEN)
    parser.add_argument("--preset", choices=("slack", "tight"), default="slack")
    parser.add_argument("--window-seconds", type=float, default=60.0)
    parser.add_argument("--test-fraction", type=float, default=0.2)
    parser.add_argument("--channels", help="comma-separated channel subset")
    parser.add_argument("--config", help="JSON config file; flags override it")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wellmon",
        description="dispersion-feature time-series classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic labelled series set")
    p.add_argument("--n-per-class", type=int, required=True)
    p.add_argument("--len", type=int, dest="series_len",
                   default=dataset_mod.DEFAULT_SERIES_LEN)
    p.add_argument("--noise", type=int, choices=(1, 10, 50), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=("slack", "tight"), default="slack")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("transform", help="window series and extract features")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--transform", choices=("std", "cov"), default="cov")
    p.add_argument("--window-seconds", type=float, default=60.0)
    p.add_argument("--channels", help="comma-separated channel subset")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("pca", help="fit PCA on a feature CSV")
    p.add_argument("--in", dest="in_csv", required=True)
    p.add_argument("--pcs", type=int, required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--apply", help="also write the projected features here")
    p.set_defaults(handler=cmd_pca)

    p = sub.add_parser("baseline", help="sliding-window regression monitor")
    p.add_argument("--x", required=True, help="x channel, e.g. accx_FJ")
    p.add_argument("--y", required=True, help="y channel, e.g. bmx")
    p.add_argument("--window", type=int, default=10, help="window minutes")
    p.add_argument("--step", type=int, default=1, help="step minutes")
    p.add_argument("--in", dest="in_csv", required=True, help="series CSV path")
    p.add_argument("--out", required=True, help="lines CSV path")
    p.set_defaults(handler=cmd_baseline)

    p = sub.add_parser("train", help="train one method end to end")
    p.add_argument("method", choices=("logreg", "dtree", "svm", "cnn"))
    _add_data_options(p)
    p.add_argument("--out", required=True)
    # logreg
    p.add_argument("--reg-strength", type=float, default=1.0)
    p.add_argument("--optimizer", choices=("newton", "gradient"), default="newton")
    # dtree
    p.add_argument("--criterion", choices=("gini", "entropy"), default="gini")
    p.add_argument("--prune", choices=("none", "pre", "post"), default="none")
    p.add_argument("--ccp-alpha", type=float, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--k-folds", type=int, default=5,
                   help="CV folds of --prune pre; --trials validates on one")
    # svm
    p.add_argument("--kernel", choices=("linear", "rbf"), default="rbf")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--gamma", default="scale")
    # cnn
    p.add_argument("--trials", type=int, default=0,
                   help="random-search trials; 0 trains one config")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=30)
    p.add_argument("--learning-rate", type=float, default=5e-3)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--activation", default="leaky_relu",
                   choices=("tanh", "sigmoid", "swish", "relu", "leaky_relu"))
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", help="projected feature CSV (classical models)")
    p.add_argument("--data", help="series directory (cnn models)")
    p.add_argument("--window-seconds", type=float, default=60.0)
    p.add_argument("--out", help="report CSV path")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("compare", help="run all four methods on one split")
    _add_data_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("emit-plots", help="CSV bundles for external plotting")
    p.add_argument("--features", help="feature CSV for pairwise scatter")
    p.add_argument("--pca-model", help="PCA model JSON for explained ratios")
    p.add_argument("--lines", help="baseline lines CSV for the line cloud")
    p.add_argument("--cnn-model-dir", help="directory holding cnn_model/_channels")
    p.add_argument("--data", help="series directory for the cnn embedding")
    p.add_argument("--window-seconds", type=float, default=60.0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_emit_plots)

    return parser


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def cmd_generate(args):
    config = dataset_mod.preset_config(
        args.preset,
        n_series_per_class=args.n_per_class,
        noise_level=args.noise,
        seed=args.seed,
        series_len=args.series_len,
    )
    series_set = dataset_mod.generate(config)
    dataset_mod.save_series_set(series_set, args.out)
    print(f"wrote {2 * args.n_per_class} series to {args.out}")
    return EXIT_OK


def _load_series_dir(path):
    try:
        return dataset_mod.load_series_set(path)
    except FileNotFoundError as exc:
        raise DataError(str(exc))


def cmd_transform(args):
    series_set = _load_series_dir(args.in_dir)
    segments = dataset_mod.window(series_set, args.window_seconds)
    channel_names = series_set.channel_names
    if args.channels:
        segments, channel_names = subset_channels(
            segments, channel_names, args.channels.split(",")
        )
    features = transform_segments(segments, args.transform, channel_names)
    features.to_csv(args.out)
    print(f"wrote {features.n_rows} x {features.n_features} features to {args.out}")
    return EXIT_OK


def cmd_pca(args):
    features = FeatureMatrix.from_csv(args.in_csv)
    model = PCA(args.pcs).fit(features)
    model.save(args.out)
    if args.apply:
        model.transform(features).to_csv(args.apply)
    print(f"wrote PCA model ({args.pcs} components) to {args.out}")
    return EXIT_OK


def cmd_baseline(args):
    stem = Path(args.in_csv).with_suffix("")
    try:
        series, _, _, _ = dataset_mod.load_series(stem)
    except FileNotFoundError as exc:
        raise DataError(str(exc))
    cfg = MonitorConfig(args.x, args.y, args.window, args.step)
    lines = monitor(series, cfg)
    write_lines_csv(lines, args.out)
    print(f"wrote {len(lines)} lines to {args.out}")
    return EXIT_OK


# PipelineConfig field -> argparse attribute holding the same value
_CONFIG_ATTRS = {
    "transform": "transform",
    "pcs": "pcs",
    "noise": "noise",
    "seed": "seed",
    "n_series_per_class": "n_per_class",
    "series_len": "series_len",
    "preset": "preset",
    "window_seconds": "window_seconds",
    "test_fraction": "test_fraction",
    "channels": "channels",
}


def _pipeline_config(args, method_params):
    channels = tuple(args.channels.split(",")) if args.channels else None
    overrides = {
        "method": getattr(args, "method", "logreg"),
        "transform": args.transform,
        "pcs": args.pcs,
        "noise": args.noise,
        "seed": args.seed,
        "n_series_per_class": args.n_per_class,
        "series_len": args.series_len,
        "preset": args.preset,
        "window_seconds": args.window_seconds,
        "test_fraction": args.test_fraction,
        "channels": channels,
        "method_params": method_params,
    }
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        unknown = set(payload) - set(PipelineConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        defaults = build_parser().parse_args(_defaults_argv(args))
        # a flag left at its parser default defers to the config file; only
        # keys present in the file are merged at all
        for key, file_value in payload.items():
            if key == "method":
                continue  # the subcommand's positional always wins
            if key == "method_params":
                merged = dict(file_value)
                merged.update(_explicit_method_params(args, defaults, method_params))
                overrides["method_params"] = merged
                continue
            attr = _CONFIG_ATTRS[key]
            if getattr(args, attr) == getattr(defaults, attr):
                if key == "channels" and file_value is not None:
                    file_value = tuple(file_value)
                overrides[key] = file_value
    return PipelineConfig(**overrides).validate()


def _explicit_method_params(args, defaults, method_params):
    """Method params whose flags the user actually set on the command line."""
    if not hasattr(args, "method"):
        return {}
    default_params = _method_params(defaults)
    return {
        key: value
        for key, value in method_params.items()
        if key not in default_params or value != default_params[key]
    }


def _defaults_argv(args):
    if getattr(args, "method", None):
        return ["train", args.method, "--out", "unused"]
    return ["compare", "--out", "unused"]


def _method_params(args):
    method = args.method
    if method == "logreg":
        return {"reg_strength": args.reg_strength, "optimizer": args.optimizer}
    if method == "dtree":
        params = {"criterion": args.criterion}
        if args.max_depth is not None:
            params["max_depth"] = args.max_depth
        if args.prune == "post":
            params["ccp_alpha"] = (
                args.ccp_alpha
                if args.ccp_alpha is not None
                else post_pruning_alpha(_grid_key(args), args.criterion, args.noise)
            )
        return params
    if method == "svm":
        gamma = args.gamma if args.gamma == "scale" else float(args.gamma)
        return {"kernel": args.kernel, "C": args.C, "gamma": gamma}
    if method == "cnn":
        return {
            "epochs": args.epochs,
            "batch_size": args.batch_size,
            "learning_rate": args.learning_rate,
            "weight_decay": args.weight_decay,
            "activation": args.activation,
        }
    raise ConfigError(f"unknown method {method!r}")


def _grid_key(args):
    if args.transform == "cov" and args.pcs == 4:
        return "cov_pca4"
    return args.transform


def cmd_train(args):
    cfg = _pipeline_config(args, _method_params(args))
    series_set = _load_series_dir(args.data) if args.data else None
    out_dir = Path(args.out)
    # tuning sees the split and preprocessing that the final fit reports on
    train, test, channel_names = prepare_segments(cfg, series_set)
    if args.method == "dtree" and args.prune == "pre":
        features = build_pipeline(cfg, channel_names=channel_names).fit_project(train)
        grid = PRE_PRUNING_GRIDS[(_grid_key(args), args.criterion)]
        best, score = grid_search(
            features.values, features.labels, args.criterion, grid,
            args.k_folds, seed=args.seed,
        )
        cfg = replace(cfg, method_params={**cfg.method_params, **best})
        print(f"pre-pruning grid search: {best} (cv accuracy {score:.4f})")
    if args.method == "cnn" and args.trials > 0:
        # trials are scored on a stratified validation fold of train; the
        # test windows stay unseen until the final report
        fit_idx, val_idx = stratified_kfold_indices(
            _labels(train), args.k_folds, args.seed
        )[0]
        fit_part = [train[k] for k in fit_idx]
        val_part = [train[k] for k in val_idx]
        pipeline = build_pipeline(cfg)
        X_fit = pipeline.fit_project(fit_part)
        out_dir.mkdir(parents=True, exist_ok=True)
        best, _ = random_search(
            SearchSpace(n_trials=args.trials),
            X_fit, _labels(fit_part), pipeline.project(val_part), _labels(val_part),
            seed=args.seed, epochs=args.epochs,
            log_path=out_dir / "trials.jsonl",
        )
        cfg = replace(cfg, method_params={**cfg.method_params, **best})
        print(f"random search best: {best}")
    reports, _ = run_split(cfg, out_dir, train, test, channel_names)
    print(f"{reports[0].method}: accuracy {reports[0].accuracy:.4f}")
    return EXIT_OK


def _labels(segments):
    return np.array([int(s.label) for s in segments])


def _load_cnn(model_dir, data_dir, window_seconds, stem="cnn"):
    """The CNN pipeline saved in model_dir under stem and the windows of
    data_dir."""
    segments = dataset_mod.window(_load_series_dir(data_dir), window_seconds)
    return CnnPipeline.load(model_dir, stem), segments


def cmd_evaluate(args):
    model_path = Path(args.model)
    if args.features:
        features = FeatureMatrix.from_csv(args.features)
        payload = json.loads(model_path.read_text())
        loaders = {
            "logreg": LogisticRegression,
            "dtree": DecisionTree,
            "svm": SvmClassifier,
        }
        kind = payload.get("kind")
        if kind not in loaders:
            raise DataError(f"cannot evaluate model kind {kind!r} on features")
        model = loaders[kind].load(model_path)
        pred = model.predict(features.values)
        report = score_predictions(kind, pred, features.labels,
                                   config=str(model_path))
    elif args.data:
        # train writes a CNN as <stem>_model.json/.bin beside <stem>_channels.json
        stem = model_path.name.removesuffix("_model")
        if stem == model_path.name:
            raise DataError(f"a CNN model path ends in _model: {model_path}")
        pipeline, segments = _load_cnn(model_path.parent, args.data,
                                       args.window_seconds, stem)
        pred = pipeline.predict(segments)
        truth = _labels(segments)
        report = score_predictions("cnn", pred, truth, config=str(model_path))
    else:
        raise ConfigError("evaluate needs --features or --data")
    print(
        f"{report.method}: precision {report.precision:.4f} recall "
        f"{report.recall:.4f} f1 {report.f1:.4f} accuracy {report.accuracy:.4f}"
    )
    if args.out:
        reports_to_csv([report], args.out)
    return EXIT_OK


def cmd_compare(args):
    cfg = _pipeline_config(args, {})
    series_set = _load_series_dir(args.data) if args.data else None
    reports, _ = run_compare(cfg, args.out, series_set)
    print(format_table(reports))
    return EXIT_OK


def cmd_emit_plots(args):
    wrote_any = False
    out = Path(args.out)
    if args.features:
        emit_feature_scatter(FeatureMatrix.from_csv(args.features), out)
        wrote_any = True
    if args.pca_model:
        out.mkdir(parents=True, exist_ok=True)
        emit_pca_ratios(PCA.load(args.pca_model), out / "pca_ratios.csv")
        wrote_any = True
    if args.lines:
        out.mkdir(parents=True, exist_ok=True)
        emit_baseline_cloud(read_lines_csv(args.lines), out / "baseline_cloud.csv")
        wrote_any = True
    if args.cnn_model_dir:
        if not args.data:
            raise ConfigError("--cnn-model-dir needs --data for the embedding")
        pipeline, segments = _load_cnn(args.cnn_model_dir, args.data,
                                       args.window_seconds)
        out.mkdir(parents=True, exist_ok=True)
        emit_cnn_embedding(pipeline, segments, out / "cnn_embedding.csv")
        wrote_any = True
    if not wrote_any:
        raise ConfigError(
            "emit-plots needs --features, --pca-model, --lines or --cnn-model-dir"
        )
    print(f"wrote plot bundles to {out}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConvergenceError, TrainingDivergedError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
