"""The benchmark's workloads: one synthetic dump plus one `icubench run`.

Every workload runs 5-fold cross-validation with fold seed 1 and
`zscore=true`.  The dump seed is the benchmark's `--seed`; the program only
ever sees the generated CSV files.  BLAS threading and `cache_dir` stay at
what users get by default, so work on either shows up here.  README.md says
why each workload exists and which layers it is meant to move.
`ingest-lr` runs with `--workload ingest-lr` or `all` but is not listed in
BENCHMARK.json: its single-threaded time follows the host's speed phases
too closely for the benchmark's bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMON_RUN = {"folds": 5, "seed": 1, "zscore": "true"}


@dataclass(frozen=True)
class Workload:
    name: str
    n_patients: int
    synth: dict                     # SynthConfig fields other than n_patients and seed
    run: dict                       # ExperimentConfig fields written to the config file
    min_auroc: float | None = None  # learnability floor checked on every run

    def config_text(self, data_dir: str, out_dir: str, epochs: int | None = None) -> str:
        values = {**COMMON_RUN, **self.run, "data_dir": data_dir, "out_dir": out_dir}
        if epochs is not None:
            values["epochs"] = epochs
        return "".join(f"{key}={value}\n" for key, value in values.items())


WORKLOADS = {
    w.name: w
    for w in (
        # The criterion-7 signal dump, scaled down: uniform T=24 windows in
        # full B=128 batches, so the BiLSTM kernel dominates.  The larger step
        # size keeps the criterion-7 AUROC floor reachable in 2 epochs.
        Workload(
            name="mort24-bilstm",
            n_patients=500,
            synth={"hours_range": (49, 60), "signal_strength": 1.5},
            run={"task": "mortality24", "model": "bilstm", "encoding": "embedding",
                 "epochs": 2, "learning_rate": 0.003},
            min_auroc=0.85,
        ),
        # Whole-stay windows give ~49 distinct lengths, so the same LSTM layer
        # runs on ragged small batches; the 25-way head, the frozen OHE tables
        # and predict_scores run here too.
        Workload(
            name="pheno-bilstm-ohe",
            n_patients=500,
            synth={"multi_stay_fraction": 0.1},
            run={"task": "phenotyping", "model": "bilstm", "encoding": "ohe", "epochs": 1},
        ),
        # Long, dirty stays: CSV ingestion and grid building dominate and neural
        # code is a small share, so LSTM kernel work predicts no change here.
        # Its runs spread the most between measurements, so the dump is
        # smaller and more processes fit in one.  At this size the stronger
        # signal and step size make the logistic model learn in 2 epochs on
        # every seed, so auroc_mean is steady across seeds.
        Workload(
            name="ingest-lr",
            n_patients=300,
            synth={"hours_range": (72, 168), "missingness": 0.15, "underage_fraction": 0.05,
                   "sparse_fraction": 0.05, "multi_stay_fraction": 0.1, "signal_strength": 2.0},
            run={"task": "mortality48", "model": "lr", "encoding": "embedding",
                 "epochs": 2, "learning_rate": 0.1},
        ),
    )
}
