"""Command line entry points: synth, cohort, run, compare.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, DataError, IcubenchError, SchemaError
from .experiment import (
    ENCODING_CHOICES,
    MODEL_CHOICES,
    TASK_CHOICES,
    VARIABLE_CHOICES,
    base_cohort,
    compare,
    config_from_sources,
    parse_config_file,
    render_comparison,
    run_experiment,
    write_audit_files,
    write_reports,
)
from .ingestion import load_dataset
from .schema import json_number, parse_float, parse_int
from .synth import SynthConfig, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icubench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic data dump")
    p_synth.add_argument("--patients", type=parse_int, required=True)
    p_synth.add_argument("--out", required=True)
    for flag, default in (("--seed", 0), ("--hours-min", 24), ("--hours-max", 72), ("--missingness", 0.1),
                          ("--mortality-rate", 0.083), ("--decomp-rate", 0.065), ("--signal", 1.0),
                          ("--underage-fraction", 0.0), ("--sparse-fraction", 0.0)):
        p_synth.add_argument(flag, type=parse_int if isinstance(default, int) else parse_float, default=default)

    p_cohort = sub.add_parser("cohort", help="audit cohort selection on a data dump")
    p_cohort.add_argument("--data-dir", required=True)
    p_cohort.add_argument("--out", default=None, help="directory for the audit text files")

    p_run = sub.add_parser("run", help="run one cross-validated experiment")
    p_run.add_argument("--task", choices=TASK_CHOICES)
    p_run.add_argument("--model", choices=MODEL_CHOICES)
    p_run.add_argument("--encoding", choices=ENCODING_CHOICES)
    p_run.add_argument("--variables", choices=VARIABLE_CHOICES)
    p_run.add_argument("--data-dir")
    p_run.add_argument("--folds", type=parse_int)
    p_run.add_argument("--seed", type=parse_int)
    p_run.add_argument("--epochs", type=parse_int)
    p_run.add_argument("--config", help="flat key=value config file; flags override it")
    p_run.add_argument("--out")

    p_compare = sub.add_parser("compare", help="significance table for two report.json files")
    p_compare.add_argument("report_a")
    p_compare.add_argument("report_b")
    p_compare.add_argument("--out", default=None)

    return parser


def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        n_patients=args.patients,
        hours_range=(args.hours_min, args.hours_max),
        missingness=args.missingness,
        mortality_rate=args.mortality_rate,
        decomp_rate=args.decomp_rate,
        signal_strength=args.signal,
        seed=args.seed,
        underage_fraction=args.underage_fraction,
        sparse_fraction=args.sparse_fraction,
    )
    paths = generate(cfg, args.out)
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return EXIT_OK


def _cmd_cohort(args) -> int:
    _, audit = base_cohort(load_dataset(args.data_dir))
    if args.out:
        out = Path(args.out)
        write_audit_files(out, *audit)
        print(f"wrote audit files to {out}")
    else:
        print("\n".join(audit), end="")
    return EXIT_OK


def _cmd_run(args) -> int:
    file_values = parse_config_file(args.config) if args.config else {}
    cfg = config_from_sources(
        file_values,
        task=args.task,
        model=args.model,
        encoding=args.encoding,
        variables=args.variables,
        data_dir=args.data_dir,
        folds=args.folds,
        seed=args.seed,
        epochs=args.epochs,
        out_dir=args.out,
    )
    report = run_experiment(cfg)
    paths = write_reports(report, cfg.out_dir)
    print(f"wrote {paths['json']}")
    print(f"wrote {paths['text']}")
    return EXIT_OK


def _read_report(path) -> dict:
    """A report.json as a dict; DataError naming the file if it is not one."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read report: {exc}") from exc
    except ValueError as exc:   # JSON and UTF-8 decoding errors
        raise DataError(f"{path}: report is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a report (the top level is not a JSON object)")
    missing = [key for key in ("task", "seed", "folds", "aggregate") if key not in doc]
    if missing:
        raise DataError(f"{path}: not a report (no {', '.join(missing)})")
    if not isinstance(doc["aggregate"], dict) or not isinstance(doc["folds"], list):
        raise DataError(f"{path}: not a report (folds must be a list and aggregate an object)")
    for i, fold in enumerate(doc["folds"]):
        if not (isinstance(fold, dict) and isinstance(fold.get("metrics"), dict)):
            raise DataError(f"{path}: not a report (a fold has no metrics)")
        for key, value in fold["metrics"].items():
            if value is not None and math.isnan(json_number(value)):
                raise DataError(f"{path}: not a report (fold {i} metric {key!r} is {value!r}, not a finite number)")
    return doc


def _cmd_compare(args) -> int:
    table = render_comparison(compare(_read_report(args.report_a), _read_report(args.report_b)))
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(table, end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"synth": _cmd_synth, "cohort": _cmd_cohort, "run": _cmd_run, "compare": _cmd_compare}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, SchemaError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except IcubenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
