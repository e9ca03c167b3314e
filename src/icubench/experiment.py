"""Config-driven orchestration: ingest, cohort, preprocess, train, evaluate
under patient-level k-fold cross-validation, then emit reports.

Leak rules enforced at runtime on every run: folds partition patients (all
stays of a patient share a fold), vocabularies and oversampling see
training folds only.  Optional z-score statistics come from the training
windows' rows (oversampled repeats included).  The windows are cut from
the stays' hours; only a windowed stay is then gridded, up to its last
window end, into one stacked row array per run.  Each fold normalizes those shared rows
once with its statistics and encodes their categories once with its
vocabularies, test rows included.  The StayTable is released once the
windows are stacked: the folds build their vocabularies from its
``categorical_index``.  Reports are deterministic: report.json
carries no timing, so identical seeds reproduce it byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import cohort as cohort_mod
from . import evaluation
from .errors import ConfigError, DataError, IcubenchError
from .ingestion import Dataset, load_dataset
from .neural import build_model, predict_scores, train_model
from .neural.checkpoint import save_checkpoint, schema_hash
from .neural.training import InstanceSet
from .phenotypes import PhenotypeCatalog
from .preprocessing import build_stay_grid, build_vocabs, categorical_index, encode_categoricals, oversample
from .schema import (
    CATEGORICAL_VARIABLES,
    DEFAULT_MAX_GRID_HOURS,
    DischargeStatus,
    HourlyGrid,
    Task,
    TaskInstance,
    grid_hours,
    normal_values,
    parse_float,
    parse_int,
    read_normal_values,
)

TASK_CHOICES = ("mortality24", "mortality48", "los", "phenotyping", "decompensation")
MODEL_CHOICES = ("lr", "ann", "bilstm")
ENCODING_CHOICES = ("ohe", "embedding")
VARIABLE_CHOICES = ("all", "numerical_only", "categorical_only")

_TASK_OF = {
    "mortality24": Task.MORTALITY,
    "mortality48": Task.MORTALITY,
    "los": Task.LOS,
    "phenotyping": Task.PHENOTYPING,
    "decompensation": Task.DECOMPENSATION,
}
_BINARY_TASKS = (Task.MORTALITY, Task.DECOMPENSATION)

#: Config keys report.json leaves out, so same-seed runs match wherever they read and write.
_PATH_KEYS = ("data_dir", "out_dir")


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs; every field is addressable from
    the flat key=value config file and overridable on the command line."""

    task: str
    data_dir: str = "."
    out_dir: str = "run"
    model: str = "bilstm"
    encoding: str = "embedding"
    variables: str = "all"
    folds: int = 5
    seed: int = 0
    hidden: int = 64
    ann_hidden: int = 64
    epochs: int = 10
    batch_size: int = 128
    learning_rate: float = 1e-3
    dropout: float = 0.0
    embed_init: str = "random"
    embed_frozen: bool = False
    embed_dim_cap: int = 50
    max_hours: int = DEFAULT_MAX_GRID_HOURS
    zscore: bool = False
    oversample_train: bool = True
    normal_values_file: str = ""
    phenotype_map: str = ""
    save_models: bool = False

    def __post_init__(self):
        if self.task not in TASK_CHOICES:
            raise ConfigError(f"task must be one of {TASK_CHOICES}, got {self.task!r}")
        if self.model not in MODEL_CHOICES:
            raise ConfigError(f"model must be one of {MODEL_CHOICES}, got {self.model!r}")
        if self.encoding not in ENCODING_CHOICES:
            raise ConfigError(f"encoding must be one of {ENCODING_CHOICES}, got {self.encoding!r}")
        if self.variables not in VARIABLE_CHOICES:
            raise ConfigError(f"variables must be one of {VARIABLE_CHOICES}, got {self.variables!r}")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.embed_init not in ("random", "identity"):
            raise ConfigError(f"embed_init must be 'random' or 'identity', got {self.embed_init!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        for name in ("hidden", "ann_hidden", "epochs", "batch_size", "max_hours", "embed_dim_cap"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be a finite number above 0, got {self.learning_rate!r}")
        horizon = self.mortality_horizon
        if horizon and self.max_hours < horizon:
            raise ConfigError(f"max_hours {self.max_hours} is below the mortality horizon {horizon}")

    @property
    def task_kind(self) -> Task:
        return _TASK_OF[self.task]

    @property
    def mortality_horizon(self) -> int | None:
        return {"mortality24": 24, "mortality48": 48}.get(self.task)

    @property
    def use_numeric(self) -> bool:
        return self.variables != "categorical_only"

    @property
    def use_categorical(self) -> bool:
        return self.variables != "numerical_only"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are skipped."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def config_from_sources(file_values: Mapping[str, str] | None = None, **overrides) -> ExperimentConfig:
    """Build a config from file values plus CLI overrides (overrides win)."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    merged: dict = {}
    for key, raw in (file_values or {}).items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _coerce(fields[key].type, key, raw)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value
    if "task" not in merged:
        raise ConfigError("config is missing required key 'task'")
    return ExperimentConfig(**merged)


def _coerce(annotation: str, key: str, raw: str):
    annotation = str(annotation)
    try:
        if annotation == "int":
            return parse_int(raw, "value")
        if annotation == "float":
            return parse_float(raw)
        if annotation == "bool":
            lowered = raw.lower()
            if lowered not in _BOOL_STRINGS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_STRINGS[lowered]
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def make_folds(patient_ids: Sequence[int], k: int, seed: int) -> dict[int, int]:
    """Deterministic partition of patients into k folds of near-equal size."""
    unique = sorted(set(patient_ids))
    if k < 2:
        raise ConfigError("folds must be >= 2")
    if len(unique) < k:
        raise ConfigError(f"cannot split {len(unique)} patients into {k} folds")
    rng = np.random.default_rng((seed, 0xF01D))
    order = rng.permutation(len(unique))
    return {unique[idx]: pos % k for pos, idx in enumerate(order)}


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise IcubenchError(f"runtime invariant violated: {message}")


@dataclass
class EvalReport:
    """Per-fold metrics, aggregate, and the audit text that came out of the run."""

    task: str
    config: dict
    fold_results: list[dict]
    aggregate_mean: dict
    aggregate_ci95: dict
    warnings: list[str]
    seed: int
    fold_scores: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, repr=False)
    audit: tuple[str, str, str] = ("", "", "")   # the texts base_cohort returns
    wall_clock_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "seed": self.seed,
            "config": self.config,
            "folds": self.fold_results,
            "aggregate": {
                key: {"mean": self.aggregate_mean.get(key), "ci95": self.aggregate_ci95.get(key)}
                for key in self.aggregate_mean
            },
            "warnings": self.warnings,
        }


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def report_json(report: EvalReport) -> str:
    return json.dumps(_sanitize(report.to_dict()), sort_keys=True, indent=2) + "\n"


def report_text(report: EvalReport) -> str:
    lines = [f"task: {report.task}    model: {report.config['model']}    "
             f"encoding: {report.config['encoding']}    variables: {report.config['variables']}"]
    lines.append(f"seed: {report.seed}    folds: {len(report.fold_results)}    "
                 f"wall clock: {report.wall_clock_seconds:.1f} s")
    lines.append("")
    keys = list(report.aggregate_mean)
    header = f"{'metric':<24}" + "".join(f"fold{i:<8}" for i in range(len(report.fold_results)))
    lines.append(header + f"{'mean':<12}{'ci95':<12}")
    for key in keys:
        row = f"{key:<24}"
        for fold in report.fold_results:
            value = fold["metrics"].get(key)
            row += f"{_fmt_cell(value):<12}"
        row += f"{_fmt_cell(report.aggregate_mean.get(key)):<12}{_fmt_cell(report.aggregate_ci95.get(key)):<12}"
        lines.append(row)
    if report.warnings:
        lines.append("")
        lines.extend(f"warning: {w}" for w in report.warnings)
    return "\n".join(lines) + "\n"


def _fmt_cell(value) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "—"
    return f"{value:.4f}"


def summarize_cohort(metas: Mapping[int, object]) -> str:
    """Demographics table split by hospital outcome (counts, medians, IQRs)."""
    rows = list(metas.values())
    strata = {
        "Overall": rows,
        "Dead at hospital": [m for m in rows if m.hospital_discharge_status == DischargeStatus.EXPIRED],
        "Alive at hospital": [m for m in rows if m.hospital_discharge_status == DischargeStatus.ALIVE],
    }
    lines = ["cohort demographics", "==================="]
    header = f"{'':<28}" + "".join(f"{name:<22}" for name in strata)
    lines.append(header)

    def render(label, fn):
        row = f"{label:<28}"
        for group in strata.values():
            row += f"{fn(group) if group else '—':<22}"
        lines.append(row)

    def med_iqr(values):
        if not values:
            return "—"
        q1, q2, q3 = np.percentile(values, (25, 50, 75))
        return f"{q2:.2f} [{q1:.2f}-{q3:.2f}]"

    render("ICU stays", lambda g: str(len(g)))
    render("Age, median [IQR]", lambda g: med_iqr([m.age for m in g if not math.isnan(m.age)]))
    render("Gender (F), n (%)", lambda g: _count_pct(g, lambda m: m.gender == "Female"))
    for ethnicity in sorted({m.ethnicity for m in rows}):
        render(f"Ethnicity: {ethnicity}", lambda g, e=ethnicity: _count_pct(g, lambda m: m.ethnicity == e))
    render("ICU LoS days, median [IQR]", lambda g: med_iqr([m.unit_los_days for m in g]))
    render("Hospital death, n (%)",
           lambda g: _count_pct(g, lambda m: m.hospital_discharge_status == DischargeStatus.EXPIRED))
    return "\n".join(lines) + "\n"


def _count_pct(group, predicate) -> str:
    n = sum(1 for m in group if predicate(m))
    return f"{n} ({100.0 * n / len(group):.1f})"


def base_cohort(dataset: Dataset) -> tuple[cohort_mod.CohortReport, tuple[str, str, str]]:
    """The base cohort of a dump, with its audit texts: ingestion report, cohort rules, demographics."""
    base = cohort_mod.select_base_cohort(list(dataset.metas.values()), dataset.record_counts)
    demographics = summarize_cohort({sid: dataset.metas[sid] for sid in base.included})
    return base, (dataset.report.render(), base.render(), demographics)


def _build_instances(cfg: ExperimentConfig, hours, metas, diagnoses) -> list[TaskInstance]:
    """The task's windows; only phenotyping reads a phenotype map, ``phenotype_map`` or the data dump's."""
    if cfg.task_kind == Task.MORTALITY:
        return cohort_mod.build_mortality_instances(hours, metas, cfg.mortality_horizon)
    if cfg.task_kind == Task.LOS:
        return cohort_mod.build_los_instances(hours, metas)
    if cfg.task_kind == Task.DECOMPENSATION:
        return cohort_mod.build_decomp_instances(hours, metas)
    map_path = Path(cfg.phenotype_map) if cfg.phenotype_map else Path(cfg.data_dir) / "phenotype_map.csv"
    return cohort_mod.build_phenotype_instances(hours, diagnoses, PhenotypeCatalog.from_file(map_path))


def _stacked_windows(cfg: ExperimentConfig, dataset: Dataset, stays, normals):
    """The task's windows, cut from the stays' hours, into one stacked grid of each windowed
    stay's rows up to its last window end, stays in id order.
    Returns (stay ids, starts, lengths, labels, rows), one entry per instance."""
    hours = {sid: grid_hours(dataset.metas[sid].unit_discharge_offset_minutes, cfg.max_hours) for sid in stays}
    instances = _build_instances(cfg, hours, dataset.metas, dataset.diagnoses)
    if not instances:
        raise DataError(f"task {cfg.task!r} produced no instances on this data")
    stay, start, end, labels = zip(*instances)
    stay, start, end = (np.array(column, dtype=np.int64) for column in (stay, start, end))
    labels = np.array(labels, dtype=np.float64)
    kept, which = np.unique(stay, return_inverse=True)
    last = np.zeros(len(kept), dtype=np.int64)
    np.maximum.at(last, which, end)
    grids = [build_stay_grid(dataset.table.rows(sid), n, normals) for sid, n in zip(kept.tolist(), last.tolist())]
    rows = HourlyGrid(numeric=np.concatenate([grid.numeric for grid in grids]),
                      codes=np.concatenate([grid.codes for grid in grids]))
    return stay, (np.cumsum(last) - last)[which] + start, end - start, labels, rows


def _zscore(rows: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``rows`` normalized by the mean and std of the windows' rows, taken
    back to back in window order, repeats included."""
    seen = rows[np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())]
    mean = seen.mean(axis=0)
    std = seen.std(axis=0)
    std[std == 0.0] = 1.0
    return (rows - mean) / std


def _fold_metrics(cfg: ExperimentConfig, scores: np.ndarray, labels: np.ndarray) -> tuple[dict, list[str]]:
    warnings: list[str] = []
    if cfg.task_kind == Task.LOS:
        metrics = evaluation.regression_metrics(scores, labels)
        if metrics["r2"] is None:
            warnings.append("r2 undefined (zero target variance)")
        return metrics, warnings
    if cfg.task_kind == Task.PHENOTYPING:
        per_key = {key: [] for key in evaluation.CLASSIFICATION_KEYS}
        skipped = 0
        for n in range(scores.shape[1]):
            try:
                m = evaluation.classification_metrics(scores[:, n], labels[:, n])
            except evaluation.UndefinedMetricError:
                skipped += 1
                continue
            for key, value in m.items():
                if isinstance(value, float) and math.isnan(value):
                    continue
                per_key[key].append(value)
        if skipped:
            warnings.append(f"{skipped} phenotype categories single-class in this fold; macro average skips them")
        metrics = {key: (float(np.mean(vals)) if vals else None) for key, vals in per_key.items()}
        return metrics, warnings
    try:
        return evaluation.classification_metrics(scores, labels), warnings
    except evaluation.UndefinedMetricError as exc:
        return dict.fromkeys(evaluation.CLASSIFICATION_KEYS), [f"classification metrics undefined: {exc}"]


def run_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Execute one (task, model, encoding, variables) experiment end to end."""
    started = time.perf_counter()
    normals = read_normal_values(cfg.normal_values_file) if cfg.normal_values_file else normal_values()
    dataset = load_dataset(cfg.data_dir)

    base, audit = base_cohort(dataset)
    stay, starts, lengths, labels, rows = _stacked_windows(cfg, dataset, base.included, normals)
    metas, vocab_index = dataset.metas, categorical_index(dataset.table)
    del dataset   # frees the StayTable: the folds read only metas, the stacked rows and vocab_index

    instance_stays = np.unique(stay).tolist()
    patients = sorted({metas[sid].patient_id for sid in instance_stays})
    fold_of = make_folds(patients, cfg.folds, cfg.seed)

    fold_results: list[dict] = []
    fold_scores: list[tuple[np.ndarray, np.ndarray]] = []
    run_warnings: list[str] = []
    out_dir = Path(cfg.out_dir)

    for fold in range(cfg.folds):
        test_stays = {sid for sid in instance_stays if fold_of[metas[sid].patient_id] == fold}
        train_stays = {sid for sid in instance_stays if sid not in test_stays}
        train_patients = {metas[sid].patient_id for sid in train_stays}
        test_patients = {metas[sid].patient_id for sid in test_stays}
        _check(not (train_patients & test_patients), f"fold {fold}: train and test share patients")

        vocabs = build_vocabs(vocab_index, train_stays)
        _check(vocabs.source_stays <= train_stays, f"fold {fold}: vocabulary built from non-train stays")

        is_test = np.isin(stay, sorted(test_stays))
        train_pos, test_pos = np.flatnonzero(~is_test), np.flatnonzero(is_test)
        _check(bool(len(train_pos) and len(test_pos)), f"fold {fold}: empty train or test side")

        train_rows = train_pos
        if cfg.oversample_train and cfg.task_kind in _BINARY_TASKS:
            picks, warn = oversample(labels[train_pos], np.random.default_rng((cfg.seed, fold, 0x05)))
            train_rows = train_pos[picks]
            if warn:
                run_warnings.append(f"fold {fold}: {warn}")

        num = rows.numeric if cfg.use_numeric else None
        if cfg.zscore and num is not None:
            num = _zscore(num, starts[train_rows], lengths[train_rows])
        cat = encode_categoricals(rows, vocabs) if cfg.use_categorical else None
        train_set = InstanceSet(starts[train_rows], lengths[train_rows], num, cat, labels[train_rows])
        test_set = InstanceSet(starts[test_pos], lengths[test_pos], num, cat, labels[test_pos])

        vocab_sizes = {name: len(vocabs.values[name]) for name in CATEGORICAL_VARIABLES} if cfg.use_categorical else None
        model = build_model(
            cfg.model,
            cfg.task_kind,
            np.random.default_rng((cfg.seed, fold, 0x01)),
            use_numeric=cfg.use_numeric,
            vocab_sizes=vocab_sizes,
            encoding=cfg.encoding,
            hidden=cfg.hidden,
            ann_hidden=cfg.ann_hidden,
            embed_init=cfg.embed_init,
            embed_frozen=cfg.embed_frozen,
            embed_dim_cap=cfg.embed_dim_cap,
        )
        train_model(
            model,
            train_set,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            rng=np.random.default_rng((cfg.seed, fold, 0x02)),
            step_size=cfg.learning_rate,
            dropout=cfg.dropout,
        )
        scores = predict_scores(model, test_set)
        metrics, fold_warnings = _fold_metrics(cfg, scores, test_set.labels)
        fold_results.append({
            "fold": fold,
            "n_train": len(train_rows),
            "n_train_before_oversample": len(train_pos),
            "n_test": len(test_pos),
            "metrics": metrics,
            "warnings": fold_warnings,
        })
        fold_scores.append((scores, test_set.labels))
        if cfg.save_models:
            out_dir.mkdir(parents=True, exist_ok=True)
            save_checkpoint(
                out_dir / f"model_fold{fold}.ckpt",
                model.params,
                schema_hash(normals, vocabs.values),
                {"kind": model.kind, "task": cfg.task, "fold": fold},
            )

    folded = evaluation.aggregate_metric_dicts([f["metrics"] for f in fold_results])
    run_warnings.extend(folded.warnings)

    report = EvalReport(
        task=cfg.task,
        config={k: v for k, v in cfg.to_dict().items() if k not in _PATH_KEYS},
        fold_results=fold_results,
        aggregate_mean=folded.mean,
        aggregate_ci95=folded.ci95,
        warnings=run_warnings,
        seed=cfg.seed,
        fold_scores=fold_scores,
        audit=audit,
        wall_clock_seconds=time.perf_counter() - started,
    )
    return report


@dataclass(frozen=True)
class ComparisonRow:
    metric: str
    mean_a: float | None
    mean_b: float | None
    t: float
    p: float
    flag: str


def _report_dict(report) -> dict:
    return report.to_dict() if isinstance(report, EvalReport) else report


def compare(report_a, report_b) -> list[ComparisonRow]:
    """Welch t-test per metric across fold values of two same-task reports."""
    a = _report_dict(report_a)
    b = _report_dict(report_b)
    if a["task"] != b["task"]:
        raise ConfigError(f"cannot compare different tasks: {a['task']!r} vs {b['task']!r}")
    if len(a["folds"]) != len(b["folds"]) or a["seed"] != b["seed"]:
        raise ConfigError("cannot compare reports with different fold definitions")
    keys = [k for k in a["aggregate"] if k in b["aggregate"]]
    rows = []
    for key in keys:
        va = [f["metrics"].get(key) for f in a["folds"] if f["metrics"].get(key) is not None]
        vb = [f["metrics"].get(key) for f in b["folds"] if f["metrics"].get(key) is not None]
        if len(va) < 2 or len(vb) < 2:
            continue
        result = evaluation.t_test(va, vb)
        rows.append(ComparisonRow(
            metric=key,
            mean_a=float(np.mean(va)),
            mean_b=float(np.mean(vb)),
            t=result.t,
            p=result.p,
            flag=result.flag,
        ))
    return rows


def render_comparison(rows: list[ComparisonRow]) -> str:
    lines = [f"{'metric':<24}{'mean A':<12}{'mean B':<12}{'t':<12}{'p':<12}flag   (\u2020 p<0.05, \u2021 p<0.1)"]
    for row in rows:
        lines.append(
            f"{row.metric:<24}{_fmt_cell(row.mean_a):<12}{_fmt_cell(row.mean_b):<12}"
            f"{row.t:<12.4f}{row.p:<12.4g}{row.flag}"
        )
    return "\n".join(lines) + "\n"


def write_reports(report: EvalReport, out_dir) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"json": out_dir / "report.json", "text": out_dir / "report.txt"}
    paths["json"].write_text(report_json(report), encoding="utf-8")
    paths["text"].write_text(report_text(report), encoding="utf-8")
    paths.update(write_audit_files(out_dir, *report.audit))
    return paths


def write_audit_files(out_dir, ingest_text: str, cohort_text: str, demographics_text: str) -> dict[str, Path]:
    """Write ingestion_report.txt and cohort_report.txt (cohort audit, then demographics)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"ingestion": out_dir / "ingestion_report.txt", "cohort": out_dir / "cohort_report.txt"}
    paths["ingestion"].write_text(ingest_text, encoding="utf-8")
    paths["cohort"].write_text(cohort_text + "\n" + demographics_text, encoding="utf-8")
    return paths
