"""Which calls the traced run wraps, and the per-layer metrics derived from them.

Span names are "<layer>.<what>"; the layer part names an icubench module
(``lstm`` is ``icubench.neural.lstm``, and so on).  Every wrapped call
inside ``run_experiment`` belongs to exactly one layer, so the layers' self
times add up to the ``run_experiment`` span; ``accounting`` checks that.
"""

from __future__ import annotations

from tracer import Target

ROOT_SPAN = "experiment.run"
OUTSIDE_ROOT = ("experiment.write",)   # called by the CLI after run_experiment returns

#: Largest share of the run_experiment span the layer self times may miss.
MAX_RESIDUAL_SHARE = 0.01


def _ingestion_counts(args, dataset) -> dict:
    report = dataset.report
    return {
        "ingestion.rows_read": sum(report.rows_read.values()),
        "ingestion.rows_kept": sum(report.rows_kept.values()),
        "ingestion.rows_malformed": sum(report.rows_malformed.values()),
        "ingestion.rows_unmapped": sum(report.rows_unmapped_variable.values()),
    }


def _instance_counts(args, instances) -> dict:
    return {"cohort.instances": len(instances)}


def _batch_counts(args, result) -> dict:
    labels = args[3]   # (self, num, cat, labels)
    return {"training.instances": len(labels)}


def _lstm_flops(args, result) -> dict:
    x, _, wh, _ = args
    batch, steps, width = x.shape
    hidden = wh.shape[1]
    return {"lstm.flops": 8 * batch * steps * (width + hidden) * hidden}


def targets() -> list[Target]:
    """Import icubench (its ``src`` must be on sys.path) and list what to wrap.

    Names are wrapped where the caller looks them up: ``experiment`` binds
    ``load_dataset`` at import, ``lstm`` and ``models`` each bind ``sigmoid``.
    """
    from icubench import cli, cohort, evaluation, experiment
    from icubench.neural import adam, embedding, lstm, models

    return [
        Target(cli, "run_experiment", ROOT_SPAN),
        Target(cli, "write_reports", "experiment.write"),
        Target(experiment, "load_dataset", "ingestion.load", count=_ingestion_counts, track_rss=True),
        Target(cohort, "select_base_cohort", "cohort.select"),
        *(Target(cohort, f"build_{kind}_instances", "cohort.instances", count=_instance_counts)
          for kind in ("mortality", "los", "decomp", "phenotype")),
        Target(experiment, "build_stay_grid", "preprocessing.grid"),
        Target(experiment, "build_vocabs", "preprocessing.vocab"),
        Target(experiment, "encode_categoricals", "preprocessing.encode"),
        Target(experiment, "oversample", "preprocessing.oversample"),
        Target(experiment, "build_model", "models.build"),
        Target(experiment, "train_model", "training.train"),
        Target(experiment, "predict_scores", "training.predict"),
        Target(models.BaseModel, "loss_and_grads", "models.loss_and_grads", count=_batch_counts),
        Target(models.BaseModel, "predict", "models.predict"),
        Target(lstm, "lstm_forward", "lstm.forward", count=_lstm_flops),
        Target(lstm, "lstm_backward", "lstm.backward"),
        Target(lstm, "sigmoid", "functional.sigmoid"),
        Target(models, "sigmoid", "functional.sigmoid"),
        Target(embedding.EmbeddingTable, "forward", "embedding.forward"),
        Target(embedding.EmbeddingTable, "backward", "embedding.backward"),
        Target(adam.Adam, "step", "adam.step"),
        *(Target(evaluation, name, "evaluation.metrics")
          for name in ("classification_metrics", "regression_metrics", "aggregate_metric_dicts")),
    ]


def accounting(spans: dict) -> dict:
    """Self seconds per layer inside the run_experiment span, and what is left over."""
    layers: dict[str, float] = {}
    for name, span in spans.items():
        if name not in OUTSIDE_ROOT:
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + span["self_s"]
    root = spans[ROOT_SPAN]["total_s"]
    residual = root - sum(layers.values())
    return {"root_s": root, "layers_self_s": layers, "residual_s": residual,
            "ok": abs(residual) <= MAX_RESIDUAL_SHARE * root}


def layer_metrics(spans: dict, counts: dict, oversample_ratio: float) -> dict:
    """The per-layer metrics of one traced run, as {name: (value, unit)}."""
    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def per(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    load_s = total("ingestion.load")
    rows_kept = counts.get("ingestion.rows_kept", 0)
    grid_s = total("preprocessing.grid")
    train_s = total("training.train")
    fwd_s, bwd_s = total("lstm.forward"), total("lstm.backward")
    fwd_calls, bwd_calls = calls("lstm.forward"), calls("lstm.backward")
    return {
        "ingestion.load_s": (load_s, "s"),
        "ingestion.rows_per_s": (per(counts.get("ingestion.rows_read", 0), load_s), "1/s"),
        "ingestion.bytes_per_kept_row": (
            per(1024.0 * counts.get("ingestion.load.rss_growth_kb", 0), rows_kept), "B"),
        "ingestion.rows_read": (counts.get("ingestion.rows_read", 0), "count"),
        "ingestion.rows_kept": (rows_kept, "count"),
        "ingestion.rows_malformed": (counts.get("ingestion.rows_malformed", 0), "count"),
        "ingestion.rows_unmapped": (counts.get("ingestion.rows_unmapped", 0), "count"),
        "cohort.select_s": (total("cohort.select"), "s"),
        "cohort.instances_s": (total("cohort.instances"), "s"),
        "cohort.instances": (counts.get("cohort.instances", 0), "count"),
        "preprocessing.grid_s": (grid_s, "s"),
        "preprocessing.stays_per_s": (per(calls("preprocessing.grid"), grid_s), "1/s"),
        "preprocessing.vocab_s": (total("preprocessing.vocab"), "s"),
        "preprocessing.encode_s": (total("preprocessing.encode"), "s"),
        "preprocessing.encode_calls": (calls("preprocessing.encode"), "count"),
        "preprocessing.oversample_ratio": (oversample_ratio, "ratio"),
        "experiment.self_s": (self_time(ROOT_SPAN), "s"),
        "experiment.write_s": (total("experiment.write"), "s"),
        "training.train_s": (train_s, "s"),
        "training.predict_s": (total("training.predict"), "s"),
        "training.batches": (calls("models.loss_and_grads"), "count"),
        "training.instances_per_s": (per(counts.get("training.instances", 0), train_s), "1/s"),
        "models.self_s": (self_time("models.loss_and_grads"), "s"),
        "lstm.forward_s": (fwd_s, "s"),
        "lstm.backward_s": (bwd_s, "s"),
        "lstm.forward_ms": (per(1000.0 * fwd_s, fwd_calls), "ms"),
        "lstm.backward_ms": (per(1000.0 * bwd_s, bwd_calls), "ms"),
        "lstm.calls": (fwd_calls, "count"),
        "lstm.self_forward_s": (self_time("lstm.forward"), "s"),
        # Computed from the call shapes (8*B*T*(D+H)*H per forward call), not counted by hardware.
        "lstm.gflop_per_s": (per(counts.get("lstm.flops", 0) / 1e9, fwd_s), "GFLOP/s"),
        "functional.sigmoid_s": (total("functional.sigmoid"), "s"),
        "functional.sigmoid_calls": (calls("functional.sigmoid"), "count"),
        "embedding.forward_s": (total("embedding.forward"), "s"),
        "embedding.backward_s": (total("embedding.backward"), "s"),
        "adam.step_s": (total("adam.step"), "s"),
        "adam.steps": (calls("adam.step"), "count"),
        "evaluation.metrics_s": (total("evaluation.metrics"), "s"),
        "evaluation.metrics_calls": (calls("evaluation.metrics"), "count"),
    }
