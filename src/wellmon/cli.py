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

from . import dataset as dataset_mod
from .baseline import MonitorConfig, monitor, read_lines_csv, write_lines_csv
from .cnn import (
    ACTIVATIONS, SEARCHED_PARAMS, SearchSpace, TrainingDivergedError, random_search,
)
from .dtree import PRE_PRUNING_PARAMS, cv_ccp_alpha, grid_search, pre_pruning_grid
from .evaluation import format_table, reports_to_csv, score_predictions
from .pca import PCA
from .pipeline import (
    ESTIMATORS,
    TRANSFORMS,
    CnnPipeline,
    ConfigError,
    DataError,
    PipelineConfig,
    build_pipeline,
    emit_baseline_cloud,
    emit_cnn_embedding,
    emit_feature_scatter,
    emit_pca_ratios,
    generate_series,
    load_run,
    prepare_segments,
    run_compare,
    run_split,
    window_segments,
)
from .svm import ConvergenceError
from .transforms import FeatureMatrix, transform_segments
from .validation import stratified_kfold_indices

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAIN = 4

# Flags that set a PipelineConfig field, a MonitorConfig field or an
# estimator parameter have that name as their dest and no default of their
# own: the parsers below default to SUPPRESS, so vars(args) holds only what
# was typed, and the owner's default applies to the rest.
SUPPRESS = argparse.SUPPRESS


def _channel_list(text):
    return tuple(text.split(","))


def _gamma(text):
    return text if text == "scale" else float(text)


def _add_series_options(parser, n_required=False):
    parser.add_argument("--n-per-class", type=int, dest="n_series_per_class",
                        metavar="N", required=n_required)
    parser.add_argument("--len", type=int, dest="series_len", metavar="SAMPLES")
    parser.add_argument("--noise", type=int, choices=dataset_mod.NOISE_LEVELS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--preset", choices=("slack", "tight"))


def _add_window_options(parser):
    parser.add_argument("--transform", choices=TRANSFORMS)
    parser.add_argument("--window-seconds", type=float)
    parser.add_argument("--channels", type=_channel_list,
                        help="comma-separated channel subset")


def _add_data_options(parser):
    parser.add_argument("--data", default=None,
                        help="directory of series written by generate")
    _add_series_options(parser)
    _add_window_options(parser)
    parser.add_argument("--pcs", type=int)
    parser.add_argument("--test-fraction", type=float)
    parser.add_argument("--config", default=None,
                        help="JSON config file; typed flags override it")
    parser.add_argument("--out", required=True)


def _add_method_parsers(train):
    """One parser per method, each with only that method's flags."""
    def method_parser(name):
        p = train.add_parser(name, argument_default=SUPPRESS, allow_abbrev=False,
                             help=f"train {name} end to end")
        _add_data_options(p)
        p.set_defaults(handler=cmd_train)
        return p

    p = method_parser("logreg")
    p.add_argument("--reg-strength", type=float)
    p.add_argument("--optimizer", choices=("newton", "gradient"))

    p = method_parser("dtree")
    p.add_argument("--criterion", choices=("gini", "entropy"))
    p.add_argument("--prune", choices=("none", "pre", "post"), default="none")
    p.add_argument("--ccp-alpha", type=float)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--k-folds", type=int, default=5,
                   help="CV folds of --prune pre and post")

    p = method_parser("svm")
    p.add_argument("--kernel", choices=("linear", "rbf"))
    p.add_argument("--C", type=float)
    p.add_argument("--gamma", type=_gamma, help='"scale" or a number')

    p = method_parser("cnn")
    p.add_argument("--trials", type=int, default=0,
                   help="random-search trials; 0 trains one config")
    p.add_argument("--k-folds", type=int, default=5,
                   help="--trials validates on the first of these folds")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--activation", choices=tuple(ACTIVATIONS))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wellmon",
        description="dispersion-feature time-series classification toolkit",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", argument_default=SUPPRESS, allow_abbrev=False,
                       help="write a synthetic labelled series set")
    _add_series_options(p, n_required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("transform", argument_default=SUPPRESS, allow_abbrev=False,
                       help="window series and extract features")
    p.add_argument("--in", dest="in_dir", required=True)
    _add_window_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("pca", allow_abbrev=False, help="fit PCA on a feature CSV")
    p.add_argument("--in", dest="in_csv", required=True)
    p.add_argument("--pcs", type=int, required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(handler=cmd_pca)

    p = sub.add_parser("baseline", argument_default=SUPPRESS, allow_abbrev=False,
                       help="sliding-window regression monitor")
    p.add_argument("--x", dest="x_channel", required=True,
                   help="x channel, e.g. accx_FJ")
    p.add_argument("--y", dest="y_channel", required=True,
                   help="y channel, e.g. bmx")
    p.add_argument("--window", type=int, dest="window_minutes",
                   help="window minutes")
    p.add_argument("--step", type=int, dest="step_minutes", help="step minutes")
    p.add_argument("--in", dest="in_csv", required=True, help="series CSV path")
    p.add_argument("--out", required=True, help="lines CSV path")
    p.set_defaults(handler=cmd_baseline)

    p = sub.add_parser("train", allow_abbrev=False, help="train one method end to end")
    _add_method_parsers(p.add_subparsers(dest="method", required=True))

    p = sub.add_parser("evaluate", allow_abbrev=False, help="score a saved model")
    p.add_argument("--model", required=True, help="model path <dir>/<stem>_model")
    p.add_argument("--data", required=True, help="series directory to score")
    p.add_argument("--out", help="report CSV path")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("compare", argument_default=SUPPRESS, allow_abbrev=False,
                       help="run all four methods on one split")
    _add_data_options(p)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("emit-plots", allow_abbrev=False,
                       help="CSV bundles for external plotting")
    p.add_argument("--features", help="feature CSV for pairwise scatter")
    p.add_argument("--pca-model", help="PCA model JSON for explained ratios")
    p.add_argument("--lines", help="baseline lines CSV for the line cloud")
    p.add_argument("--cnn-model",
                   help="CNN model path <dir>/<stem>_model, as evaluate takes it")
    p.add_argument("--data", help="series directory for the cnn embedding")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_emit_plots)

    return parser


def _typed(args, names):
    """The typed flags whose dest is one of names."""
    return {key: value for key, value in vars(args).items() if key in names}


def _pipeline_config(args):
    """Typed flags over the --config file over the PipelineConfig and
    estimator defaults."""
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        try:
            cfg = PipelineConfig.from_json(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError, TypeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
    fields = _typed(args, PipelineConfig.__dataclass_fields__)
    cfg = replace(cfg, **fields)
    if "method" in fields:
        # --seed sets the config's seed, which the CNN takes as well
        names = set(ESTIMATORS[cfg.method]._param_names()) - set(fields)
        params = {**cfg.params_for(cfg.method), **_typed(args, names)}
        cfg = replace(cfg, method_params=params)
    return cfg.validate()


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def cmd_generate(args):
    cfg = _pipeline_config(args)
    dataset_mod.save_series_set(generate_series(cfg), args.out)
    print(f"wrote {2 * cfg.n_series_per_class} series to {args.out}")
    return EXIT_OK


def _load_series_dir(path):
    try:
        return dataset_mod.load_series_set(path)
    except FileNotFoundError as exc:
        raise DataError(str(exc))


def cmd_transform(args):
    cfg = _pipeline_config(args)
    segments, channel_names = window_segments(cfg, _load_series_dir(args.in_dir))
    features = transform_segments(segments, cfg.transform, channel_names)
    features.to_csv(args.out)
    print(f"wrote {features.n_rows} x {features.n_features} features to {args.out}")
    return EXIT_OK


def cmd_pca(args):
    features = FeatureMatrix.from_csv(args.in_csv)
    model = PCA(args.pcs).fit(features)
    model.save(args.out)
    print(f"wrote PCA model ({args.pcs} components) to {args.out}")
    return EXIT_OK


def cmd_baseline(args):
    stem = Path(args.in_csv.removesuffix(".csv"))
    try:
        series, _, _, _ = dataset_mod.load_series(stem)
    except FileNotFoundError as exc:
        raise DataError(str(exc))
    cfg = MonitorConfig(**_typed(args, MonitorConfig.__dataclass_fields__))
    lines = monitor(series, cfg)
    write_lines_csv(lines, args.out)
    print(f"wrote {len(lines)} lines to {args.out}")
    return EXIT_OK


# the estimator settings each tuner of train chooses, by (method, tuning)
TUNED_PARAMS = {
    # grid search scores truncations of unpruned trees
    ("dtree", "pre"): (*PRE_PRUNING_PARAMS, "ccp_alpha"),
    ("dtree", "post"): ("ccp_alpha",),
    # random_search returns the best trial's seed with its settings
    ("cnn", "trials"): (*SEARCHED_PARAMS, "seed"),
}


def _refuse_tuned(args, cfg):
    """Refuse, before any data is made, a --k-folds below 2 and a setting
    given by a flag or --config that the tuning replaces; return the tuning."""
    if getattr(args, "k_folds", 2) < 2:
        raise ConfigError(f"--k-folds must be >= 2, got {args.k_folds}")
    tuning = "trials" if getattr(args, "trials", 0) > 0 else getattr(args, "prune", None)
    given = [key for key in TUNED_PARAMS.get((cfg.method, tuning), ())
             if key in cfg.method_params]
    if given:
        flag = "--trials" if tuning == "trials" else f"--prune {tuning}"
        raise ConfigError(
            f"{flag} tunes {', '.join(given)}, which is also set by a flag "
            "or --config; drop the setting or the tuning"
        )
    return tuning


def cmd_train(args):
    cfg = _pipeline_config(args)
    tuning = _refuse_tuned(args, cfg)
    series_set = _load_series_dir(args.data) if args.data else None
    out_dir = Path(args.out)
    # tuning sees the split and preprocessing that the final fit reports on
    train, test, channel_names = prepare_segments(cfg, series_set)
    pipeline = build_pipeline(cfg, channel_names=channel_names)
    estimator = pipeline.estimator  # each tuner starts from the run's estimator
    tuned = {}
    if tuning == "pre":
        features = pipeline.fit_project(train)
        X, y = features.values, features.labels
        grid = pre_pruning_grid(X, y, estimator.criterion)
        tuned, score = grid_search(X, y, estimator.criterion, grid, args.k_folds,
                                   seed=cfg.seed)
        print(f"pre-pruning grid search: {tuned} (cv accuracy {score:.4f})")
    if tuning == "post":
        features = pipeline.fit_project(train)
        alpha, score = cv_ccp_alpha(estimator, features.values, features.labels,
                                    args.k_folds, seed=cfg.seed)
        tuned = {"ccp_alpha": alpha}
        print(f"post-pruning cv: ccp_alpha {alpha:.6g} (cv accuracy {score:.4f})")
    if tuning == "trials":
        # trials are scored on a stratified validation fold of train; the
        # test windows stay unseen until the final report
        fit_idx, val_idx = stratified_kfold_indices(
            dataset_mod.labels_of(train), args.k_folds, cfg.seed
        )[0]
        fit_part = [train[k] for k in fit_idx]
        val_part = [train[k] for k in val_idx]
        X_fit = pipeline.fit_project(fit_part)
        out_dir.mkdir(parents=True, exist_ok=True)
        tuned, _ = random_search(
            estimator, SearchSpace(n_trials=args.trials),
            X_fit, dataset_mod.labels_of(fit_part), pipeline.project(val_part),
            dataset_mod.labels_of(val_part),
            seed=cfg.seed, log_path=out_dir / "trials.jsonl",
        )
        print(f"random search best: {tuned}")
    cfg = replace(cfg, method_params={**cfg.method_params, **tuned})
    reports, _ = run_split(cfg, out_dir, train, test, channel_names)
    print(f"{reports[0].method}: accuracy {reports[0].accuracy:.4f}")
    return EXIT_OK


def cmd_evaluate(args):
    pipeline, segments = load_run(args.model, _load_series_dir(args.data))
    truth = dataset_mod.labels_of(segments)
    report = score_predictions(pipeline.name, pipeline.predict(segments), truth,
                               config=str(Path(args.model)))
    print(
        f"{report.method}: precision {report.precision:.4f} recall "
        f"{report.recall:.4f} f1 {report.f1:.4f} accuracy {report.accuracy:.4f}"
    )
    if args.out:
        reports_to_csv([report], args.out)
    return EXIT_OK


def cmd_compare(args):
    cfg = _pipeline_config(args)
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
    if args.cnn_model:
        if not args.data:
            raise ConfigError("--cnn-model needs --data for the embedding")
        pipeline, segments = load_run(args.cnn_model, _load_series_dir(args.data))
        if not isinstance(pipeline, CnnPipeline):
            raise DataError(f"{args.cnn_model} is a {pipeline.name} model, not a CNN")
        out.mkdir(parents=True, exist_ok=True)
        emit_cnn_embedding(pipeline, segments, out / "cnn_embedding.csv")
        wrote_any = True
    if not wrote_any:
        raise ConfigError(
            "emit-plots needs --features, --pca-model, --lines or --cnn-model"
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
