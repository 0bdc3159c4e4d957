"""Latent pattern simulation and the two observation processes."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import chi2

from fusedsdm.covariates import CovariateField
from fusedsdm.errors import ConfigError, DataError
from fusedsdm.geometry import (
    SampledRegion,
    StudyRegion,
    SurveyDesign,
    SurveyUnit,
    build_partitions,
)
from fusedsdm.pointprocess import (
    IndividualPattern,
    ModelParams,
    ObservationSet,
    aggregate_counts,
    degrade_to_partial,
    load_observations,
    save_observations,
    simulate_ippp,
    simulate_observation,
)


def constant_field(value=0.0, n=4):
    return CovariateField(0, 0, 1.0 / n, 1.0 / n,
                          np.full((n, n, 1), float(value)))


class TestSimulateIPPP:
    def test_mean_count_matches_integrated_intensity(self):
        """E[N] check: constant lambda=100 over 500 seeds within 3 sigma."""
        params = ModelParams(np.array([math.log(100.0)]), 0.025, 0.2)
        field = constant_field(0.0)
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 0)))
        region = StudyRegion.unit_square()
        counts = [simulate_ippp(params, field, region, seed).n
                  for seed in range(500)]
        assert abs(np.mean(counts) - 100.0) <= 1.5

    def test_vanishing_intensity_gives_empty_pattern(self):
        params = ModelParams(np.array([-20.0]), 0.025, 0.2)
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 0)))
        pattern = simulate_ippp(params, field, StudyRegion.unit_square(), 1)
        assert pattern.n == 0

    def test_locations_proportional_to_intensity(self):
        """Chi-square goodness of fit on a 2-cell field with ratio 1:e."""
        values = np.zeros((1, 2, 1))
        values[0, 1, 0] = 1.0
        field = CovariateField(0, 0, 0.5, 1.0, values)
        params = ModelParams(np.array([math.log(200.0), 1.0]), 0.025, 0.2)
        region = StudyRegion.unit_square()
        left = right = 0
        for seed in range(60):
            pattern = simulate_ippp(params, field, region, seed)
            in_left = (pattern.locations[:, 0] < 0.5).sum()
            left += in_left
            right += pattern.n - in_left
        p_left = 1.0 / (1.0 + math.e)
        n = left + right
        expected = np.array([n * p_left, n * (1 - p_left)])
        stat = ((np.array([left, right]) - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.999, df=1)

    def test_all_locations_inside_region(self):
        params = ModelParams(np.array([5.0]), 0.025, 0.2)
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 0)))
        region = StudyRegion.unit_square()
        pattern = simulate_ippp(params, field, region, 9)
        assert region.contains(pattern.locations).all()

    def test_deterministic_given_seed(self):
        params = ModelParams(np.array([4.0]), 0.025, 0.2)
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 0)))
        region = StudyRegion.unit_square()
        a = simulate_ippp(params, field, region, 123)
        b = simulate_ippp(params, field, region, 123)
        assert np.array_equal(a.locations, b.locations)


def single_point_design(radius=0.04):
    return SurveyDesign((
        SampledRegion(SurveyUnit("p0", "point", np.array([0.5, 0.5])),
                      radius),
    ))


def single_trap_design(radius=0.02):
    return SurveyDesign((
        SampledRegion(SurveyUnit("t0", "trap", np.array([0.5, 0.5])),
                      radius),
    ))


class TestSimulateObservation:
    def test_individual_at_point_always_detected(self):
        params = ModelParams(np.array([0.0]), 0.025, 0.2)
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 0)))
        pattern = IndividualPattern(np.tile([0.5, 0.5], (200, 1)))
        obs = simulate_observation(pattern, single_point_design(), params, 3)
        assert obs.n_ds == 200
        assert np.allclose(obs.ds_distance, 0.0)

    def test_edge_detection_probability(self):
        """phi=0.025 at d=0.04: detection probability exp(-0.064)=0.9380."""
        params = ModelParams(np.array([0.0]), 0.025, 0.2)
        pattern = IndividualPattern(np.tile([0.54, 0.5], (10_000, 1)))
        design = single_point_design(radius=0.0400001)
        obs = simulate_observation(pattern, design, params, 5)
        assert math.exp(-0.04 ** 2 / 0.025) == pytest.approx(0.9380, abs=1e-4)
        assert obs.n_ds / 10_000 == pytest.approx(0.9380, abs=0.01)

    def test_capture_rate_matches_theta(self):
        params = ModelParams(np.array([0.0]), 0.025, 0.2)
        pattern = IndividualPattern(np.tile([0.51, 0.5], (10_000, 1)))
        obs = simulate_observation(pattern, single_trap_design(), params, 7)
        assert obs.n_cr / 10_000 == pytest.approx(0.2, abs=0.015)

    def test_detection_curve_matches_half_normal(self):
        """Binned retention over distance within binomial 3-sigma bands."""
        phi = 0.025
        params = ModelParams(np.array([0.0]), phi, 0.2)
        rng = np.random.default_rng(11)
        r = 0.04 * np.sqrt(rng.uniform(0, 1, 10_000))
        ang = rng.uniform(0, 2 * math.pi, 10_000)
        locs = np.column_stack([0.5 + r * np.cos(ang), 0.5 + r * np.sin(ang)])
        pattern = IndividualPattern(locs)
        obs = simulate_observation(pattern, single_point_design(0.0401),
                                   params, 13)
        detected_d = obs.ds_distance
        bins = np.linspace(0, 0.04, 9)
        for lo, hi in zip(bins[:-1], bins[1:]):
            in_bin = (r >= lo) & (r < hi)
            n = in_bin.sum()
            got = ((detected_d >= lo) & (detected_d < hi)).sum()
            mid_p = math.exp(-((lo + hi) / 2) ** 2 / phi)
            sigma = math.sqrt(n * mid_p * (1 - mid_p))
            assert abs(got - n * mid_p) <= 3 * sigma + 1

    def test_nothing_observed_outside_regions(self):
        params = ModelParams(np.array([0.0]), 0.025, 0.9)
        rng = np.random.default_rng(17)
        pattern = IndividualPattern(rng.uniform(0, 1, size=(2000, 2)))
        design = SurveyDesign((
            SampledRegion(SurveyUnit("p0", "point", np.array([0.25, 0.25])), 0.04),
            SampledRegion(SurveyUnit("t0", "trap", np.array([0.75, 0.75])), 0.02),
        ))
        obs = simulate_observation(pattern, design, params, 19)
        for loc in obs.ds_loc:
            assert math.hypot(loc[0] - 0.25, loc[1] - 0.25) <= 0.04
        for loc in obs.cr_loc:
            assert math.hypot(loc[0] - 0.75, loc[1] - 0.75) <= 0.02
        # Each observation is a distinct individual of the pattern.
        observed = {tuple(loc) for loc in (*obs.ds_loc, *obs.cr_loc)}
        assert len(observed) == obs.n
        assert observed <= {tuple(loc) for loc in pattern.locations}
    def test_overlapping_design_rejected(self):
        params = ModelParams(np.array([0.0]), 0.025, 0.2)
        design = SurveyDesign((
            SampledRegion(SurveyUnit("a", "trap", np.array([0.5, 0.5])), 0.02),
            SampledRegion(SurveyUnit("b", "trap", np.array([0.53, 0.5])), 0.02),
        ))
        with pytest.raises(ConfigError, match="overlap"):
            simulate_observation(IndividualPattern(np.zeros((0, 2))),
                                 design, params, 1)


class TestDegradeAndAggregate:
    def test_degrade_removes_locations_keeps_distances(self, toy_data):
        partial = degrade_to_partial(toy_data["obs"])
        assert partial.ds_loc is None and partial.cr_loc is None
        assert np.array_equal(partial.ds_distance,
                              toy_data["obs"].ds_distance)

    def test_degrade_idempotent(self, toy_data):
        once = degrade_to_partial(toy_data["obs"])
        twice = degrade_to_partial(once)
        assert twice.ds_loc is None
        assert np.array_equal(once.ds_distance, twice.ds_distance)
        assert np.array_equal(once.ds_unit, twice.ds_unit)

    def test_degrade_empty(self):
        out = degrade_to_partial(ObservationSet.empty())
        assert out.n == 0

    def test_aggregate_conserves_totals(self, toy_data, toy_partitions,
                                        toy_design):
        counts = aggregate_counts(toy_data["partial"], toy_partitions,
                                  toy_design)
        assert counts.sum() == toy_data["partial"].n

    def test_aggregate_no_observations(self, toy_partitions, toy_design):
        counts = aggregate_counts(ObservationSet.empty(), toy_partitions,
                                  toy_design)
        assert (counts == 0).all()

    def test_three_captures_at_one_trap(self, toy_design):
        region = StudyRegion.unit_square()
        partitions = build_partitions(region, 10, 10, toy_design)
        obs = ObservationSet(
            ds_unit=np.array([], dtype=object),
            ds_distance=np.array([]),
            cr_unit=np.array(["cr", "cr", "cr"], dtype=object),
        )
        counts = aggregate_counts(obs, partitions, toy_design)
        cell = partitions.cell_index(np.array([[0.7, 0.5]]))[0]
        assert counts[cell] == 3
        assert counts.sum() == 3

    def test_aggregate_per_unit_reference_cells(self, toy_data,
                                                toy_partitions, toy_design):
        """Each observation lands in its unit's reference-point cell, as
        one cell_index call per unit puts it."""
        partial = toy_data["partial"]
        want = np.zeros(toy_partitions.n_cells, dtype=int)
        for uid in (*partial.ds_unit, *partial.cr_unit):
            ref = toy_design.region_by_id(uid).unit.reference_point
            want[toy_partitions.cell_index(ref[None, :])[0]] += 1
        got = aggregate_counts(partial, toy_partitions, toy_design)
        assert got.tolist() == want.tolist()

    def test_aggregate_unknown_unit_rejected(self, toy_partitions,
                                             toy_design):
        obs = ObservationSet(ds_unit=np.array(["nowhere"], dtype=object),
                             ds_distance=np.array([0.01]),
                             cr_unit=np.array([], dtype=object))
        with pytest.raises(DataError, match="unknown unit id 'nowhere'"):
            aggregate_counts(obs, toy_partitions, toy_design)

    def test_aggregate_names_the_first_unknown_unit(self, toy_partitions,
                                                    toy_design):
        """DS observations come before CR ones."""
        obs = ObservationSet(
            ds_unit=np.array(["pt", "ds-x", "tr", "ds-y"], dtype=object),
            ds_distance=np.full(4, 0.01),
            cr_unit=np.array(["cr-x", "cr"], dtype=object))
        with pytest.raises(DataError) as err:
            aggregate_counts(obs, toy_partitions, toy_design)
        assert str(err.value) == "unknown unit id 'ds-x'"
        obs = dataclasses.replace(obs, ds_unit=np.array(["pt"] * 4,
                                                        dtype=object))
        with pytest.raises(DataError) as err:
            aggregate_counts(obs, toy_partitions, toy_design)
        assert str(err.value) == "unknown unit id 'cr-x'"

    def test_aggregate_on_an_empty_design(self, toy_partitions):
        counts = aggregate_counts(ObservationSet.empty(), toy_partitions,
                                  SurveyDesign(()))
        assert (counts == 0).all()


class TestObservationFile:
    def test_round_trip_with_locations(self, toy_data, tmp_path):
        path = tmp_path / "obs.csv"
        save_observations(toy_data["obs"], path)
        back = load_observations(path)
        assert back.n_ds == toy_data["obs"].n_ds
        assert back.n_cr == toy_data["obs"].n_cr
        assert np.allclose(back.ds_distance, toy_data["obs"].ds_distance)
        assert np.allclose(back.ds_loc, toy_data["obs"].ds_loc)

    def test_round_trip_partial(self, toy_data, tmp_path):
        path = tmp_path / "obs.csv"
        save_observations(toy_data["partial"], path)
        back = load_observations(path)
        assert back.ds_loc is None
        assert list(back.cr_unit) == list(toy_data["partial"].cr_unit)

    def test_cr_rows_must_leave_distance_empty(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("source,unit_id,distance\ncr,t0,0.01\n")
        with pytest.raises(DataError):
            load_observations(path)

    def test_unknown_source_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("source,unit_id,distance\nxx,t0,\n")
        with pytest.raises(DataError, match="unknown source"):
            load_observations(path)

    @pytest.mark.parametrize("row", ("ds,p0,0.01,abc,0.5", "cr,t0,,0.5,"))
    def test_bad_location_names_line(self, tmp_path, row):
        path = tmp_path / "obs.csv"
        path.write_text(f"source,unit_id,distance,x,y\nds,p0,0.01,0.5,0.5\n"
                        f"{row}\n")
        with pytest.raises(DataError, match=":3: bad location"):
            load_observations(path)

    def test_bad_distance_names_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("source,unit_id,distance\n\nds,p0,0.01\n  \n"
                        "ds,p0,abc\n")
        with pytest.raises(DataError, match=r"obs\.csv:5: bad distance 'abc'"):
            load_observations(path)

    @pytest.mark.parametrize("with_loc", (True, False))
    def test_ids_with_a_comma_or_a_quote_round_trip(self, tmp_path, with_loc):
        obs = ObservationSet(
            ds_unit=np.array(["p,1", 'a, "b"'], dtype=object),
            ds_distance=np.array([0.01, 0.02]),
            cr_unit=np.array(['t"2'], dtype=object),
            ds_loc=np.array([[0.1, 0.2], [0.3, 0.4]]) if with_loc else None,
            cr_loc=np.array([[0.5, 0.6]]) if with_loc else None)
        path = tmp_path / "obs.csv"
        save_observations(obs, path)
        back = load_observations(path)
        assert list(back.ds_unit) == ["p,1", 'a, "b"']
        assert list(back.cr_unit) == ['t"2']
        assert np.array_equal(back.ds_distance, obs.ds_distance)
        if with_loc:
            assert np.array_equal(back.ds_loc, obs.ds_loc)
            assert np.array_equal(back.cr_loc, obs.cr_loc)


class TestModelParamsValidation:
    def test_phi_positive(self):
        with pytest.raises(ConfigError):
            ModelParams(np.array([0.0]), 0.0, 0.2)

    def test_theta_open_interval(self):
        with pytest.raises(ConfigError):
            ModelParams(np.array([0.0]), 0.025, 1.0)
