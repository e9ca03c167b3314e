import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    ref_auprc_rank_enum,
    ref_auroc_pairs,
    ref_operating_sweep,
    ref_permutation_pvalue,
)
from icubench.errors import UndefinedMetricError
from icubench.evaluation import (
    _betainc,
    _t_quantile_975,
    aggregate_folds,
    aggregate_metric_dicts,
    auprc,
    auroc,
    classification_metrics,
    operating_point,
    regression_metrics,
    t_test,
)


def random_scored_instance(rng, n_max=200, tie_prone=True):
    n = int(rng.integers(4, n_max + 1))
    if tie_prone and rng.random() < 0.5:
        scores = rng.integers(0, 12, size=n) / 11.0  # coarse grid forces ties
    else:
        scores = rng.random(n)
    labels = (rng.random(n) < rng.uniform(0.15, 0.85)).astype(int)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return scores, labels


class TestAuroc:
    def test_worked_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_is_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_error(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [1, 1])

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(0)
        for _ in range(120):
            scores, labels = random_scored_instance(rng)
            assert auroc(scores, labels) == pytest.approx(ref_auroc_pairs(scores, labels), abs=1e-12)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(1)
        scores, labels = random_scored_instance(rng, tie_prone=False)
        base = auroc(scores, labels)
        assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(3.0 * scores + 11.0, labels) == pytest.approx(base, abs=1e-12)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(2)
        scores, labels = random_scored_instance(rng)
        assert auroc(-scores, 1 - labels) == pytest.approx(auroc(scores, labels), abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_invariant_under_any_strictly_increasing_transform(self, data):
        # scores index a few levels, so ties are common; the transform maps
        # level k to the k-th of a sorted set of distinct floats
        n_levels = data.draw(st.integers(1, 8))
        levels = data.draw(st.lists(st.integers(0, n_levels - 1), min_size=2, max_size=40))
        labels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=len(levels), max_size=len(levels)))
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        image = sorted(data.draw(st.sets(st.floats(allow_nan=False), min_size=n_levels, max_size=n_levels)))
        levels = np.asarray(levels)
        assert auroc(np.asarray(image)[levels], labels) == auroc(levels, labels)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_worked_example(self):
        assert auprc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_no_positives_error(self):
        with pytest.raises(UndefinedMetricError):
            auprc([0.4, 0.6], [0, 0])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            auprc([0.1, 0.9, 0.5], [0, 2, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            auprc([0.1, 0.9, 0.5], [0, 1])

    def test_matches_rank_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            scores, labels = random_scored_instance(rng, n_max=60)
            assert auprc(scores, labels) == pytest.approx(
                ref_auprc_rank_enum(list(scores), list(labels)), abs=1e-12
            )

    def test_random_scores_approach_prevalence(self):
        rng = np.random.default_rng(4)
        n, p = 40_000, 0.2
        labels = (rng.random(n) < p).astype(int)
        scores = rng.random(n)
        assert auprc(scores, labels) == pytest.approx(labels.mean(), abs=0.02)


class TestOperatingPoint:
    def test_worked_example(self):
        point = operating_point([0.9, 0.8, 0.7, 0.1], [1, 1, 0, 0])
        assert point.threshold == 0.8
        assert point.sensitivity == 1.0
        assert point.specificity == 1.0
        assert point.ppv == 1.0 and point.npv == 1.0

    def test_inverted_ranking_gives_zero_specificity(self):
        point = operating_point([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert point.specificity == 0.0
        assert point.sensitivity >= 0.9

    def test_ten_positives_need_at_least_nine(self):
        rng = np.random.default_rng(5)
        scores = rng.random(40)
        labels = np.array([1] * 10 + [0] * 30)
        point = operating_point(scores, labels)
        admitted = sum(1 for s, y in zip(scores, labels) if y == 1 and s >= point.threshold)
        assert admitted >= 9

    def test_matches_exhaustive_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            scores, labels = random_scored_instance(rng, n_max=80)
            point = operating_point(scores, labels)
            threshold, sens, spec, ppv, npv = ref_operating_sweep(list(scores), list(labels))
            assert point.threshold == threshold
            assert point.sensitivity == pytest.approx(sens, abs=1e-12)
            assert point.specificity == pytest.approx(spec, abs=1e-12)
            if not math.isnan(npv):
                assert point.npv == pytest.approx(npv, abs=1e-12)
            assert point.ppv == pytest.approx(ppv, abs=1e-12)

    def test_maximality_no_larger_threshold_works(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            scores, labels = random_scored_instance(rng, n_max=50)
            point = operating_point(scores, labels)
            n_pos = labels.sum()
            for cutoff in sorted(set(scores), reverse=True):
                if cutoff <= point.threshold:
                    break
                tp = sum(1 for s, y in zip(scores, labels) if s >= cutoff and y == 1)
                assert tp / n_pos < 0.9


class TestRegression:
    def test_exact_predictions(self):
        m = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m["r2"] == 1.0 and m["mae"] == 0.0

    def test_mean_predictor_is_zero(self):
        targets = np.array([1.0, 2.0, 3.0, 6.0])
        m = regression_metrics(np.full(4, targets.mean()), targets)
        assert m["r2"] == 0.0

    def test_worse_than_mean_is_negative(self):
        m = regression_metrics([10.0, -10.0, 10.0], [1.0, 2.0, 3.0])
        assert m["r2"] < 0.0

    def test_zero_variance_returns_mae_only(self):
        m = regression_metrics([1.0, 2.0], [5.0, 5.0])
        assert m["r2"] is None
        assert m["mae"] == pytest.approx(3.5)


class TestAggregateFolds:
    def test_identical_values_zero_halfwidth(self):
        mean, hw = aggregate_folds([0.8] * 5)
        assert mean == 0.8 and hw == 0.0

    def test_closed_form_example(self):
        mean, hw = aggregate_folds([1.0, 2.0, 3.0, 4.0, 5.0])
        assert mean == 3.0
        assert hw == pytest.approx(1.963, abs=1e-3)

    def test_single_value_errors(self):
        with pytest.raises(UndefinedMetricError):
            aggregate_folds([1.0])

    def test_halfwidth_scales_linearly_with_sd(self):
        base = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        _, hw1 = aggregate_folds(base)
        _, hw3 = aggregate_folds(base * 3.0)
        assert hw3 == pytest.approx(3.0 * hw1, rel=1e-12)


class TestTTest:
    def test_identical_samples(self):
        result = t_test([1.0, 1.1, 0.9], [1.0, 1.1, 0.9])
        assert result.t == 0.0 and result.p == 1.0
        assert not result.significant_05 and not result.significant_10

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=5).tolist()
        b = rng.normal(size=5).tolist()
        fwd, rev = t_test(a, b), t_test(b, a)
        assert fwd.t == -rev.t
        assert fwd.p == rev.p

    def test_well_separated_samples_flagged(self):
        result = t_test([1.0, 1.1, 0.9, 1.05, 0.95], [2.0, 2.1, 1.9, 2.05, 1.95])
        assert result.p < 0.05 and result.significant_05

    def test_zero_variance_equal_means(self):
        result = t_test([2.0, 2.0], [2.0, 2.0])
        assert result.p == 1.0

    def test_zero_variance_distinct_means(self):
        result = t_test([2.0, 2.0], [3.0, 3.0])
        assert result.p == 0.0 and result.t == -math.inf

    def test_infinite_value_gives_nan_p_not_an_error(self):
        with np.errstate(invalid="ignore"):
            result = t_test([math.inf, 1.0], [1.0, 2.0])
        assert math.isnan(result.p) and not result.significant_10

    def test_small_samples_rejected(self):
        with pytest.raises(UndefinedMetricError):
            t_test([1.0], [2.0, 3.0])

    def test_agrees_with_exact_permutation_oracle(self):
        rng = np.random.default_rng(9)
        agree = 0
        total = 24
        for i in range(total):
            shift = 0.0 if i % 2 == 0 else 2.5
            a = rng.normal(0.0, 1.0, 5).tolist()
            b = rng.normal(shift, 1.0, 5).tolist()
            welch_reject = t_test(a, b).p < 0.05
            perm_reject = ref_permutation_pvalue(a, b) < 0.05
            agree += welch_reject == perm_reject
        assert agree / total >= 0.9


class TestStudentTAgainstScipy:
    """The math-based Student-t functions against scipy, which only the tests install."""

    def test_t_quantile_matches_stdtrit(self):
        special = pytest.importorskip("scipy.special")
        for df in range(1, 1001):
            assert _t_quantile_975(df) == pytest.approx(special.stdtrit(df, 0.975), rel=1e-12, abs=0.0)

    def test_betainc_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        ends = np.array([1e-9, 1e-7, 5e-7, 1e-6, 1e-4, 1e-2])
        xs = np.concatenate([ends, np.linspace(0.02, 0.98, 49), 1.0 - ends[::-1]])
        for a in np.geomspace(0.25, 5000.0, 80):
            for x in xs:
                assert _betainc(a, 0.5, x) == pytest.approx(special.betainc(a, 0.5, x), rel=0.0, abs=1e-12)

    def test_welch_p_matches_ttest_ind(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(12)
        for _ in range(500):
            n_a, n_b = rng.integers(2, 13, size=2)
            a = rng.normal(0.0, rng.uniform(0.1, 3.0), n_a)
            b = rng.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 3.0), n_b)
            expected = stats.ttest_ind(a, b, equal_var=False).pvalue
            assert t_test(a, b).p == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_the_program_never_loads_scipy(self):
        code = (
            "import sys\n"
            "import icubench.cli\n"
            "from icubench.evaluation import aggregate_folds, t_test\n"
            "aggregate_folds([1.0, 2.0, 3.0])\n"
            "t_test([1.0, 2.0, 3.0], [2.0, 3.0, 5.0])\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        assert done.stdout.strip() == "[]"


class TestAggregateMetricDicts:
    def test_skips_undefined_folds_with_warning(self):
        per_fold = [{"auroc": 0.8}, {"auroc": None}, {"auroc": 0.9}, {"auroc": 0.85}, {"auroc": 0.82}]
        result = aggregate_metric_dicts(per_fold)
        assert result.mean["auroc"] == pytest.approx(np.mean([0.8, 0.9, 0.85, 0.82]))
        assert result.warnings and "auroc" in result.warnings[0]

    def test_full_classification_metrics_shape(self):
        rng = np.random.default_rng(10)
        scores, labels = random_scored_instance(rng, n_max=100)
        d = classification_metrics(scores, labels)
        assert set(d) == {"auroc", "auprc", "specificity_at_sens90", "sensitivity", "ppv", "npv"}
        assert d["sensitivity"] == 0.90
