import numpy as np
import pytest

from icubench.cohort import (
    DERIVATION_HOURS,
    SLIDE_HOURS,
    build_decomp_instances,
    build_los_instances,
    build_mortality_instances,
    build_phenotype_instances,
    schedule_points,
    select_base_cohort,
)
from icubench.phenotypes import PhenotypeCatalog
from icubench.ingestion import stay_table
from icubench.preprocessing import build_stay_grid
from icubench.schema import DischargeStatus, StayMeta, normal_values

NORMALS = normal_values()


def meta(stay_id, *, age=40.0, hours=72, status=DischargeStatus.ALIVE, death_hours=None, patient=None):
    return StayMeta(
        stay_id=stay_id,
        patient_id=patient if patient is not None else stay_id,
        age=age,
        gender="Female",
        ethnicity="Other",
        admission_diagnosis="Sepsis",
        hospital_discharge_status=status,
        unit_discharge_offset_minutes=hours * 60,
        death_offset_minutes=None if death_hours is None else int(death_hours * 60),
    )


def grid_for(m):
    return build_stay_grid(m, stay_table([m], [])[0], NORMALS)


class TestBaseCohort:
    def test_age_rule(self):
        report = select_base_cohort([meta(1, age=17.0)], {1: 200})
        assert report.included == []
        assert report.excluded["age <= 18"] == 1

    def test_record_rule(self):
        report = select_base_cohort([meta(1, age=40.0)], {1: 14})
        assert report.excluded["fewer than 15 records"] == 1

    def test_age_rule_applies_first(self):
        report = select_base_cohort([meta(1, age=17.0)], {1: 3})
        assert report.excluded["age <= 18"] == 1
        assert report.excluded["fewer than 15 records"] == 0

    def test_age_exactly_18_excluded(self):
        report = select_base_cohort([meta(1, age=18.0)], {1: 100})
        assert report.included == []

    def test_counts_are_a_partition(self):
        metas = [meta(i, age=float(15 + i), patient=i) for i in range(10)]
        counts = {i: (10 if i % 2 else 100) for i in range(10)}
        report = select_base_cohort(metas, counts)
        assert len(report.included) + sum(report.excluded.values()) == report.total == 10


class TestMortality:
    def test_short_stay_excluded(self):
        m = meta(1, hours=36, status=DischargeStatus.EXPIRED, death_hours=36)
        assert build_mortality_instances({1: grid_for(m)}, {1: m}, 24) == []

    def test_expired_stay_window_and_label(self):
        m = meta(1, hours=72, status=DischargeStatus.EXPIRED, death_hours=72)
        (inst,) = build_mortality_instances({1: grid_for(m)}, {1: m}, 24)
        assert (inst.start, inst.end, inst.label) == (0, 24, 1.0)

    def test_missing_status_dropped(self):
        m = meta(1, hours=72, status=DischargeStatus.MISSING)
        assert build_mortality_instances({1: grid_for(m)}, {1: m}, 48) == []

    def test_horizon_48(self):
        m = meta(1, hours=50)
        (inst,) = build_mortality_instances({1: grid_for(m)}, {1: m}, 48)
        assert (inst.start, inst.end, inst.label) == (0, 48, 0.0)


class TestLos:
    def test_thirty_hour_stay(self):
        m = meta(1, hours=30)
        insts = build_los_instances({1: grid_for(m)}, {1: m})
        assert [(i.start, i.end) for i in insts] == [(0, 12), (6, 18), (12, 24)]
        assert [i.label for i in insts] == pytest.approx([0.75, 0.50, 0.25])

    def test_twelve_hour_stay_empty(self):
        m = meta(1, hours=12)
        assert build_los_instances({1: grid_for(m)}, {1: m}) == []

    def test_consecutive_labels_differ_by_quarter_day(self):
        m = meta(1, hours=49)
        insts = build_los_instances({1: grid_for(m)}, {1: m})
        diffs = np.diff([i.label for i in insts])
        assert np.allclose(diffs, -0.25)

    def test_labels_nonnegative(self):
        for hours in (13, 18, 25, 100):
            m = meta(1, hours=hours)
            for inst in build_los_instances({1: grid_for(m)}, {1: m}):
                assert inst.label >= 0.0


class TestDecompensation:
    def test_death_within_window_positive(self):
        m = meta(1, hours=30, status=DischargeStatus.EXPIRED, death_hours=30)
        insts = build_decomp_instances({1: grid_for(m)}, {1: m})
        by_point = {i.end: i.label for i in insts}
        assert by_point[12] == 1.0  # death at 30 is inside (12, 36]

    def test_death_beyond_window_negative(self):
        m = meta(1, hours=60, status=DischargeStatus.EXPIRED, death_hours=40)
        insts = build_decomp_instances({1: grid_for(m)}, {1: m})
        by_point = {i.end: i.label for i in insts}
        assert by_point[12] == 0.0
        assert by_point[18] == 1.0  # 40 inside (18, 42]

    def test_survivor_all_negative(self):
        m = meta(1, hours=48)
        insts = build_decomp_instances({1: grid_for(m)}, {1: m})
        assert insts and all(i.label == 0.0 for i in insts)

    def test_no_points_at_or_after_death(self):
        m = meta(1, hours=60, status=DischargeStatus.EXPIRED, death_hours=24)
        insts = build_decomp_instances({1: grid_for(m)}, {1: m})
        assert all(i.end < 24 for i in insts)

    def test_positive_implies_death_offset(self):
        metas = {
            1: meta(1, hours=40, status=DischargeStatus.EXPIRED, death_hours=40),
            2: meta(2, hours=40),
        }
        grids = {sid: grid_for(m) for sid, m in metas.items()}
        for inst in build_decomp_instances(grids, metas):
            if inst.label == 1.0:
                assert metas[inst.stay_id].death_offset_minutes is not None


class TestScheduleLaw:
    def test_windows_are_twelve_hours_ending_on_schedule(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            hours = int(rng.integers(1, 120))
            m = meta(1, hours=hours)
            grid = grid_for(m)
            for inst in build_los_instances({1: grid}, {1: m}) + build_decomp_instances({1: grid}, {1: m}):
                assert inst.end - inst.start == 12
                assert inst.end >= 12 and (inst.end - 12) % 6 == 0
                assert inst.end < hours

    def test_no_partial_final_point(self):
        assert schedule_points(17) == [12]  # 18 would need hour 18 to exist
        assert schedule_points(19) == [12, 18]

    def test_window_schedule_type(self):
        assert DERIVATION_HOURS == 12 and SLIDE_HOURS == 6
        assert schedule_points(30) == [12, 18, 24]


class TestPhenotyping:
    CATALOG = PhenotypeCatalog(code_map={"038.9": 2, "785.5": 8, "428.0": 21})

    def test_mask_bits(self):
        m = meta(1, hours=20)
        (inst,) = build_phenotype_instances({1: grid_for(m)}, {1: frozenset({"038.9", "785.5"})}, self.CATALOG)
        assert inst.label.sum() == 2 and inst.label.shape == (25,)
        assert inst.start == 0 and inst.end == 20

    def test_unmappable_codes_excluded(self):
        m = meta(1, hours=20)
        assert build_phenotype_instances({1: grid_for(m)}, {1: frozenset({"999.9"})}, self.CATALOG) == []

    def test_no_diagnoses_excluded(self):
        m = meta(1, hours=20)
        assert build_phenotype_instances({1: grid_for(m)}, {}, self.CATALOG) == []
