"""The five scenario log-likelihoods against brute-force oracles, hand
calculations, and structural invariants."""

import dataclasses
import gc
import math
import os
import struct
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

import oracles
from conftest import make_toy_spec
from fusedsdm import likelihoods
from fusedsdm.covariates import (
    CovariateField,
    ingest_raster,
    region_of,
    simulate_grf,
)
from fusedsdm.errors import ConfigError, DataError
from fusedsdm.estimation import _LOG_PHI_INF
from fusedsdm.experiment import StudyConfig, _build_spec
from fusedsdm.geometry import (
    SampledRegion,
    StudyRegion,
    SurveyDesign,
    SurveyUnit,
    build_partitions,
    line_template,
    load_design,
    region_nodes,
)
from fusedsdm.likelihoods import (
    LikelihoodSpec,
    QuadratureSettings,
    RateParams,
    WorkingParams,
    _GroupedTable,
    design_tables,
    loglik,
    loglik_derivatives,
    loglik_terms,
)
from fusedsdm.pointprocess import (
    ModelParams,
    ObservationSet,
    aggregate_counts,
    degrade_to_partial,
    load_observations,
    simulate_ippp,
    simulate_observation,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "demo")
SCENARIOS = ("complete", "aggregated-farr", "aggregated-cos",
             "fused-region", "fused-distance")

def random_working(rng, n_beta=2):
    beta = np.concatenate([[rng.normal(2.0, 1.0)],
                           rng.normal(0.0, 0.8, n_beta - 1)])
    return WorkingParams(beta, rng.normal(-3.5, 1.0), rng.normal(0.0, 1.0))


def oracle_value(scenario, wp, toy_field, toy_design, toy_region, toy_data):
    beta = wp.beta
    phi = math.exp(wp.log_phi)
    theta = 1.0 / (1.0 + math.exp(-wp.logit_theta))
    if scenario == "complete":
        return oracles.oracle_complete(toy_field, toy_design,
                                       toy_data["obs"], beta, phi, theta)
    if scenario == "fused-region":
        return oracles.oracle_fused_region(toy_field, toy_design,
                                           toy_data["partial"], beta, phi,
                                           theta)
    if scenario == "fused-distance":
        return oracles.oracle_fused_distance(toy_field, toy_design,
                                             toy_data["partial"], beta, phi,
                                             theta)
    return oracles.oracle_aggregated(toy_field, toy_region, 3, 3, toy_design,
                                     toy_data["partial"], beta, phi, theta,
                                     scenario == "aggregated-farr")


class TestOracleEquivalence:
    """Acceptance criterion: every scenario matches an independently coded
    brute-force sum to 1e-8 across 20 random parameter points."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_matches_brute_force_at_20_random_points(
            self, scenario, toy_specs, toy_field, toy_design, toy_region,
            toy_data):
        rng = np.random.default_rng(99)
        spec = toy_specs[scenario]
        for _ in range(20):
            wp = random_working(rng)
            got = loglik(wp, spec)
            want = oracle_value(scenario, wp, toy_field, toy_design,
                                toy_region, toy_data)
            assert got == pytest.approx(want, abs=1e-8)


class TestCompleteScenario:
    def test_no_observations_leaves_exposure_only(self, toy_field,
                                                  toy_design, toy_region):
        obs = ObservationSet.empty()
        spec = LikelihoodSpec("complete", toy_design, toy_field, obs=obs,
                              region=toy_region,
                              quadrature=QuadratureSettings(mode="native"))
        wp = WorkingParams(np.array([-8.0, 0.0]), math.log(0.02),
                           0.0)
        terms = loglik_terms(wp, spec)
        assert terms.observation == 0.0
        e_ds, e_cr = oracles.exposure_terms(toy_field, toy_design,
                                            wp.beta, 0.02, 0.5)
        assert terms.total == pytest.approx(-(e_ds + e_cr), abs=1e-12)

    def test_one_capture_hand_value(self):
        """Constant field, beta=0, theta=0.5: contribution log(1/2) plus
        the trap exposure theta * area."""
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 0)))
        design = SurveyDesign((
            SampledRegion(SurveyUnit("t0", "trap", np.array([0.5, 0.5])),
                          0.1),
        ))
        obs = ObservationSet(
            ds_unit=np.array([], dtype=object),
            ds_distance=np.array([]),
            cr_unit=np.array(["t0"], dtype=object),
            ds_loc=np.zeros((0, 2)),
            cr_loc=np.array([[0.52, 0.5]]),
        )
        spec = LikelihoodSpec("complete", design, field, obs=obs,
                              quadrature=QuadratureSettings(spacing=0.002))
        wp = WorkingParams(np.array([0.0]), math.log(0.02), 0.0)
        # Group 0 is the trap region; lambda = 1 leaves its measure.
        prep = spec.prepared()
        exposure = 0.5 * prep.captured.group_sums(prep.captured.w)[0]
        assert loglik(wp, spec) == pytest.approx(math.log(0.5) - exposure)

    def test_requires_locations(self, toy_design, toy_field, toy_data):
        with pytest.raises(DataError, match="locations"):
            LikelihoodSpec("complete", toy_design, toy_field,
                           obs=toy_data["partial"])


class TestAggregatedScenarios:
    def test_all_zero_counts_is_minus_sum_of_means(self, toy_field,
                                                   toy_design, toy_region,
                                                   toy_partitions):
        counts = np.zeros(toy_partitions.n_cells, dtype=int)
        wp = WorkingParams(np.array([1.0, 0.3]), math.log(0.02), 0.2)
        for scenario in ("aggregated-farr", "aggregated-cos"):
            spec = LikelihoodSpec(scenario, toy_design, toy_field,
                                  counts=counts, partitions=toy_partitions,
                                  region=toy_region,
                                  quadrature=QuadratureSettings(mode="native"))
            terms = loglik_terms(wp, spec)
            assert terms.observation == 0.0
            assert loglik(wp, spec) == pytest.approx(-terms.exposure)

    def test_single_cell_poisson_pmf(self):
        """One trap cell with mean 2 and count 2: 2 log 2 - 2 - log 2!."""
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 0)))
        design = SurveyDesign((
            SampledRegion(SurveyUnit("t0", "trap", np.array([0.5, 0.5])),
                          0.2),
        ))
        region = StudyRegion.unit_square()
        partitions = build_partitions(region, 1, 1, design)
        counts = np.array([2])
        theta = 0.5
        spec = LikelihoodSpec("aggregated-farr", design, field, counts=counts,
                              partitions=partitions, region=region,
                              quadrature=QuadratureSettings(mode="native"))
        prep = spec.prepared()
        area = prep.captured.group_sums(prep.captured.w)[0]
        beta0 = math.log(2.0 / (theta * area))
        wp = WorkingParams(np.array([beta0]), math.log(0.02), 0.0)
        want = 2 * math.log(2) - 2 - math.log(2)
        assert loglik(wp, spec) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("scenario", ("aggregated-farr",
                                          "aggregated-cos"))
    def test_log_n_factorial_matches_gammaln(self, scenario, toy_specs,
                                             toy_design, toy_field,
                                             toy_region):
        """Σ log n! is summed from ``math.lgamma``; it agrees with the
        reference ``gammaln`` on the toy counts and on counts up to 10⁴."""
        fine = build_partitions(toy_region, 10, 10, toy_design)
        large = np.where(fine.sampled, np.random.default_rng(3).integers(
            0, 10_001, fine.n_cells), 0)
        large[np.flatnonzero(fine.sampled)[:2]] = (0, 10_000)
        for spec in (toy_specs[scenario], LikelihoodSpec(
                scenario, toy_design, toy_field, counts=large,
                partitions=fine, region=toy_region,
                quadrature=QuadratureSettings(mode="native"))):
            sampled = np.asarray(spec.counts)[spec.partitions.sampled]
            want = float(gammaln(sampled + 1.0).sum())
            assert want > 0.0
            assert spec.prepared().log_n_factorial == pytest.approx(
                want, rel=1e-14)

    def test_farr_equals_cos_on_constant_field(self, toy_design, toy_region,
                                               toy_partitions, toy_data):
        field = CovariateField(0, 0, 0.2, 0.2, np.full((5, 5, 1), 0.7))
        counts = toy_data["counts"]
        rng = np.random.default_rng(31)
        for _ in range(5):
            wp = random_working(rng)
            va = loglik(wp, LikelihoodSpec(
                "aggregated-farr", toy_design, field, counts=counts,
                partitions=toy_partitions, region=toy_region,
                quadrature=QuadratureSettings(mode="native")))
            vb = loglik(wp, LikelihoodSpec(
                "aggregated-cos", toy_design, field, counts=counts,
                partitions=toy_partitions, region=toy_region,
                quadrature=QuadratureSettings(mode="native")))
            assert va == pytest.approx(vb, abs=1e-8)

    def test_count_on_zero_mean_cell_heavily_penalized(self, toy_field):
        """A sampled cell whose region mass vanishes cannot carry counts."""
        design = SurveyDesign((
            SampledRegion(SurveyUnit("t0", "trap", np.array([0.1, 0.1])),
                          0.05),
            SampledRegion(SurveyUnit("p0", "point", np.array([0.7, 0.7])),
                          0.05),
        ))
        region = StudyRegion.unit_square()
        partitions = build_partitions(region, 4, 4, design)
        counts = np.zeros(16, dtype=int)
        counts[partitions.cell_index(np.array([[0.7, 0.7]]))[0]] = 3
        spec = LikelihoodSpec("aggregated-cos", design, toy_field,
                              counts=counts, partitions=partitions,
                              region=region,
                              quadrature=QuadratureSettings(mode="native"))
        # theta -> 1 keeps the trap cell harmless; the point's detection
        # mass vanishes as phi -> 0 while its cell still holds 3 counts.
        wp = WorkingParams(np.array([0.0, 0.0]), -700.0, 30.0)
        assert loglik(wp, spec) < -600

    def test_two_cell_hand_quadrature(self):
        """Change-of-support mean equals a hand-computed cell integral."""
        values = np.zeros((1, 2, 1))
        values[0, 0, 0] = -0.3
        values[0, 1, 0] = 0.9
        field = CovariateField(0, 0, 0.5, 1.0, values)
        design = SurveyDesign((
            SampledRegion(SurveyUnit("t0", "trap", np.array([0.5, 0.5])),
                          0.15),
        ))
        region = StudyRegion.unit_square()
        partitions = build_partitions(region, 2, 1, design)
        beta = np.array([1.2, 0.8])
        theta = 0.3
        wp = WorkingParams(beta, math.log(0.02),
                           math.log(theta / (1 - theta)))
        # Counts zero: loglik = -sum of means. The trap's reference point
        # (0.5, 0.5) lands in the right cell, so only that cell is sampled;
        # the left half of the disk is mass the aggregated model never
        # sees, which is exactly its blind spot. The expected value is the
        # same midpoint sum carried out by hand on the node grid.
        counts = np.zeros(2, dtype=int)
        spacing = 0.0005
        spec = LikelihoodSpec("aggregated-cos", design, field, counts=counts,
                              partitions=partitions, region=region,
                              quadrature=QuadratureSettings(spacing=spacing))
        lo, hi = 0.5 - 0.15, 0.5 + 0.15
        n = math.ceil((hi - lo) / spacing)
        h = (hi - lo) / n
        xs = lo + (np.arange(n) + 0.5) * h
        gx, gy = np.meshgrid(xs, xs)
        in_disk = (gx - 0.5) ** 2 + (gy - 0.5) ** 2 <= 0.15 ** 2
        in_right_cell = np.floor(gx / 0.5) >= 1
        lam_nodes = np.exp(beta[0] + beta[1] * np.where(gx < 0.5, -0.3, 0.9))
        want = -theta * float(
            (lam_nodes * in_disk * in_right_cell).sum()) * h * h
        assert loglik(wp, spec) == pytest.approx(want, rel=1e-6)
        # and the hand sum agrees with the analytic half-disk integral
        lam_right = math.exp(beta[0] + beta[1] * 0.9)
        assert want == pytest.approx(
            -theta * lam_right * math.pi * 0.15 ** 2 / 2, rel=5e-3)


class TestFusedRegion:
    def test_constant_intensity_factors_out(self):
        """Observation term equals log(c * mean q) for constant lambda."""
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 0)))
        design = SurveyDesign((
            SampledRegion(SurveyUnit("p0", "point", np.array([0.5, 0.5])),
                          0.04),
        ))
        obs = ObservationSet(
            ds_unit=np.array(["p0"], dtype=object),
            ds_distance=np.array([0.02]),
            cr_unit=np.array([], dtype=object),
        )
        c = math.exp(1.3)
        phi = 0.025
        spec = LikelihoodSpec("fused-region", design, field, obs=obs,
                              quadrature=QuadratureSettings(spacing=0.001))
        wp = WorkingParams(np.array([1.3]), math.log(phi), 0.0)
        prep = spec.prepared()
        q_mean = float((prep.detected.w * np.exp(-prep.detected.d2 / phi)).sum()
                       / prep.m[0])
        terms = loglik_terms(wp, spec)
        assert terms.observation == pytest.approx(math.log(c * q_mean),
                                                  abs=1e-12)

    def test_profile_concave_in_log_theta(self, toy_specs):
        """1-d profile over logit theta is unimodal for fixed beta."""
        spec = toy_specs["fused-region"]
        grid = np.linspace(-4, 4, 41)
        vals = [loglik(WorkingParams(np.array([3.0, 0.7]), math.log(0.02), t),
                       spec) for t in grid]
        diffs = np.sign(np.diff(vals))
        switches = (np.diff(diffs) != 0).sum()
        assert switches <= 1

    def test_unknown_unit_id_rejected(self, toy_design, toy_field):
        obs = ObservationSet(
            ds_unit=np.array(["nope"], dtype=object),
            ds_distance=np.array([0.01]),
            cr_unit=np.array([], dtype=object),
        )
        with pytest.raises(DataError, match="nope"):
            LikelihoodSpec("fused-region", toy_design, toy_field, obs=obs)


class TestFusedDistance:
    def test_constant_intensity_exact_term(self):
        """DS term reduces to log c - d^2/phi for a constant field."""
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 0)))
        design = SurveyDesign((
            SampledRegion(SurveyUnit("p0", "point", np.array([0.5, 0.5])),
                          0.04),
        ))
        d = 0.023
        obs = ObservationSet(
            ds_unit=np.array(["p0"], dtype=object),
            ds_distance=np.array([d]),
            cr_unit=np.array([], dtype=object),
        )
        spec = LikelihoodSpec("fused-distance", design, field, obs=obs)
        phi = 0.025
        wp = WorkingParams(np.array([1.7]), math.log(phi), 0.0)
        terms = loglik_terms(wp, spec)
        assert terms.observation == pytest.approx(1.7 - d * d / phi,
                                                  abs=1e-12)

    @pytest.mark.parametrize("scenario,d", [
        ("fused-distance", 0.3),
        *((scenario, d)
          for scenario in ("complete", "fused-region", "fused-distance")
          for d in (math.nan, -0.01, math.inf))])
    def test_distance_beyond_truncation_is_data_error(self, toy_design,
                                                      toy_field, scenario,
                                                      d):
        """A recorded distance past the truncation radius, or one that is
        not finite and >= 0, is refused by every scenario that reads it."""
        obs = ObservationSet(
            ds_unit=np.array(["pt"], dtype=object),
            ds_distance=np.array([d]),
            cr_unit=np.array([], dtype=object),
            ds_loc=np.array([[0.3, 0.3]]),
            cr_loc=np.zeros((0, 2)),
        )
        text = ("exceeds truncation" if 0.0 <= d < math.inf else
                f"distance {d} of unit 'pt' must be finite and >= 0")
        with pytest.raises(DataError, match=text):
            LikelihoodSpec(scenario, toy_design, toy_field, obs=obs)

    def test_phi_dependence_separates_exactly(self, toy_specs, toy_data):
        """loglik(phi) - loglik(phi') = sum d_i^2 (1/phi' - 1/phi) plus the
        exposure difference; the support integrals drop out."""
        spec = toy_specs["fused-distance"]
        beta = np.array([3.0, 0.7])
        lt = 0.3
        phi_a, phi_b = 0.015, 0.03
        ta = loglik_terms(WorkingParams(beta, math.log(phi_a), lt), spec)
        tb = loglik_terms(WorkingParams(beta, math.log(phi_b), lt), spec)
        d2 = np.sort(toy_data["partial"].ds_distance ** 2)
        want = float(d2.sum() * (1 / phi_b - 1 / phi_a))
        got = (ta.total - tb.total) - (tb.exposure - ta.exposure)
        assert got == pytest.approx(want, rel=1e-10)


class TestObservationChecks:
    """With several offending observations the error names the first, DS
    before CR, by the first check it fails, as checking one by one does."""

    @pytest.mark.parametrize("scenario, ds, distances, cr, text", [
        ("fused-distance", ["pt", "tr", "pt", "zz", "tr"],
         [0.1, 0.2, math.nan, 0.1, -1.0], ["tr"],
         "recorded distance 0.2 exceeds truncation radius 0.15 of unit 'tr'"),
        ("fused-region", ["pt", "tr", "pt", "zz", "tr"],
         [0.1, 0.2, math.nan, 0.1, -1.0], ["tr"],
         "recorded distance nan of unit 'pt' must be finite and >= 0"),
        ("fused-region", ["pt", "cr", "zz", "pt"],
         [0.1, 0.1, 0.1, math.inf], [],
         "DS observation references non-DS unit 'cr'"),
        ("fused-distance", ["tr", "zz", "cr"], [-1.0, 0.1, 0.1], [],
         "recorded distance -1.0 of unit 'tr' must be finite and >= 0"),
        ("fused-distance", ["tr", "zz", "cr"], [0.1, 0.1, 0.1], [],
         "unknown unit id 'zz'"),
        ("fused-distance", ["pt"], [0.1], ["cr", "tr", "zz", "pt"],
         "CR observation references non-trap unit 'tr'"),
        ("fused-region", ["pt"], [0.1], ["cr", "zz", "tr"],
         "unknown unit id 'zz'"),
    ])
    def test_first_offending_observation_is_named(
            self, toy_design, toy_field, scenario, ds, distances, cr, text):
        obs = ObservationSet(ds_unit=np.array(ds, dtype=object),
                             ds_distance=np.array(distances),
                             cr_unit=np.array(cr, dtype=object))
        with pytest.raises(DataError) as err:
            LikelihoodSpec(scenario, toy_design, toy_field, obs=obs)
        assert str(err.value) == text


class TestQuadratureSettings:
    @pytest.mark.parametrize("name, value", [
        ("spacing_fraction", -1.0), ("spacing_fraction", 0.0),
        ("spacing_fraction", math.inf), ("spacing_fraction", math.nan),
        ("spacing_fraction", None), ("spacing", 0.0), ("spacing", -0.01),
        ("spacing", math.nan), ("spacing", math.inf), ("spacing", True),
        ("spacing", "0.01"),
    ])
    def test_bad_spacing_is_config_error(self, name, value):
        """Refused by name: a negative fraction used to run a study on a
        garbage rule, and a NaN spacing passed ``spacing <= 0``."""
        with pytest.raises(ConfigError, match=f"quadrature {name} must be"):
            QuadratureSettings(**{name: value})

    def test_positive_numpy_spacing_accepted(self):
        spacing = np.float32(0.002)
        assert QuadratureSettings(spacing=spacing).spacing == spacing


def _with_unsampled_count(counts, partitions):
    counts = np.array(counts)
    counts[np.flatnonzero(~partitions.sampled)[0]] = 1
    return counts


class TestInputErrors:
    @pytest.mark.parametrize("call,error,text", (
        (lambda t: WorkingParams.from_vector(np.array([1.0, 2.0])),
         ConfigError,
         "working vector needs >= 1 beta plus log_phi, logit_theta"),
        (lambda t: QuadratureSettings(mode="exact"),
         ConfigError, "unknown quadrature mode 'exact'"),
        (lambda t: LikelihoodSpec("exact", t["design"], t["field"]),
         ConfigError, "unknown scenario 'exact'"),
        (lambda t: LikelihoodSpec("aggregated-farr", t["design"], t["field"],
                                  partitions=t["partitions"]),
         DataError,
         "aggregated-farr needs per-cell counts and a partition grid"),
        (lambda t: LikelihoodSpec("aggregated-cos", t["design"], t["field"],
                                  counts=t["counts"][:-1],
                                  partitions=t["partitions"]),
         DataError, "counts length does not match the partition grid"),
        (lambda t: LikelihoodSpec("aggregated-cos", t["design"], t["field"],
                                  counts=_with_unsampled_count(
                                      t["counts"], t["partitions"]),
                                  partitions=t["partitions"]),
         DataError, "nonzero count in an unsampled partition"),
        (lambda t: LikelihoodSpec("fused-region", t["design"], t["field"]),
         DataError, "fused-region needs an ObservationSet"),
    ), ids=("working-vector", "quadrature-mode", "scenario", "counts",
            "counts-length", "unsampled-count", "observations"))
    def test_bad_input_error_names_its_field(self, call, error, text,
                                             toy_design, toy_field,
                                             toy_partitions, toy_data):
        toy = {"design": toy_design, "field": toy_field,
               "partitions": toy_partitions, "counts": toy_data["counts"]}
        with pytest.raises(error) as exc:
            call(toy)
        assert type(exc.value) is error
        assert str(exc.value) == text


class TestSharedInvariants:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_gradient_two_finite_difference_schemes_agree(self, scenario,
                                                          toy_specs):
        """Central differences at two steps (3- and 5-point) agree to
        relative 1e-4; guards quadrature-caching bugs."""
        spec = toy_specs[scenario]
        rng = np.random.default_rng(123)
        for _ in range(5):
            wp = random_working(rng)
            v = wp.as_vector()

            def f(x):
                return loglik(WorkingParams.from_vector(x), spec)

            for i in range(len(v)):
                h = 1e-5 * max(1.0, abs(v[i]))
                e = np.zeros(len(v))
                e[i] = h
                g3 = (f(v + e) - f(v - e)) / (2 * h)
                g5 = (8 * (f(v + e) - f(v - e))
                      - (f(v + 2 * e) - f(v - 2 * e))) / (12 * h)
                assert g3 == pytest.approx(g5, rel=1e-4, abs=1e-7)

    @pytest.mark.parametrize("scenario",
                             ["complete", "fused-region", "fused-distance"])
    def test_exposure_monotone_in_intercept(self, scenario, toy_specs):
        spec = toy_specs[scenario]
        base = WorkingParams(np.array([2.0, 0.5]), math.log(0.02), 0.3)
        up = WorkingParams(np.array([2.5, 0.5]), math.log(0.02), 0.3)
        t0, t1 = loglik_terms(base, spec), loglik_terms(up, spec)
        assert t1.exposure > t0.exposure
        assert t1.observation > t0.observation

    def test_quadrature_refinement_stability(self):
        """Halving the default spacing moves each fused loglik by < 1e-3
        on the full study configuration."""
        from fusedsdm.covariates import GPConfig, simulate_grf
        from fusedsdm.experiment import build_study_design
        from fusedsdm.pointprocess import (degrade_to_partial, simulate_ippp,
                                           simulate_observation)

        region = StudyRegion.unit_square()
        field = simulate_grf(region, GPConfig(seed=0), 0.01)
        design = build_study_design(1)
        truth = ModelParams(np.array([9.0, 1.0]), 0.025, 0.2)
        rng = np.random.default_rng(42)
        pattern = simulate_ippp(truth, field, region, rng)
        partial = degrade_to_partial(
            simulate_observation(pattern, design, truth, rng))
        wp = WorkingParams.from_model(truth)
        for scenario in ("fused-region", "fused-distance"):
            vals = []
            for frac in (0.05, 0.025):
                spec = LikelihoodSpec(
                    scenario, design, field, obs=partial, region=region,
                    quadrature=QuadratureSettings(spacing_fraction=frac))
                vals.append(loglik(wp, spec))
            assert abs(vals[1] - vals[0]) < 1e-3 * abs(vals[0])

    def test_reordered_observations_identical_loglik(self, toy_design,
                                                     toy_field, toy_region,
                                                     toy_data):
        """Canonical internal ordering makes sums bitwise reproducible."""
        partial = toy_data["partial"]
        rng = np.random.default_rng(5)
        perm_ds = rng.permutation(partial.n_ds)
        perm_cr = rng.permutation(partial.n_cr)
        shuffled = ObservationSet(
            ds_unit=partial.ds_unit[perm_ds],
            ds_distance=partial.ds_distance[perm_ds],
            cr_unit=partial.cr_unit[perm_cr],
        )
        wp = WorkingParams(np.array([3.0, 0.7]), math.log(0.02), 0.4)
        for scenario in ("fused-region", "fused-distance"):
            a = loglik(wp, LikelihoodSpec(scenario, toy_design, toy_field,
                                          obs=partial, region=toy_region))
            b = loglik(wp, LikelihoodSpec(scenario, toy_design, toy_field,
                                          obs=shuffled, region=toy_region))
            assert a == b

    def test_working_params_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            wp = random_working(rng)
            back = WorkingParams.from_model(wp.to_model())
            assert np.allclose(back.as_vector(), wp.as_vector(), atol=1e-12)

    def test_negative_counts_rejected(self, toy_design, toy_field,
                                      toy_partitions):
        counts = np.zeros(toy_partitions.n_cells, dtype=int)
        counts[0] = -1
        with pytest.raises(DataError, match="negative"):
            LikelihoodSpec("aggregated-cos", toy_design, toy_field,
                           counts=counts, partitions=toy_partitions)


def _permuted(obs, perm_ds, perm_cr):
    """The same observations with DS and CR rows reordered."""
    return dataclasses.replace(
        obs, ds_unit=obs.ds_unit[perm_ds], ds_distance=obs.ds_distance[perm_ds],
        cr_unit=obs.cr_unit[perm_cr],
        ds_loc=None if obs.ds_loc is None else obs.ds_loc[perm_ds],
        cr_loc=None if obs.cr_loc is None else obs.cr_loc[perm_cr])


class TestPermutationInvariance:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           beta=st.tuples(st.floats(-2.0, 6.0), st.floats(-2.0, 2.0)),
           log_phi=st.floats(-8.0, 2.0), logit_theta=st.floats(-6.0, 6.0))
    def test_loglik_exact_under_row_permutation(
            self, scenario, seed, beta, log_phi, logit_theta, toy_field,
            toy_design, toy_region, toy_partitions, toy_data, toy_specs):
        """Canonical internal ordering makes loglik bitwise independent of
        the order of the observation rows."""
        obs = toy_data["obs"]
        rng = np.random.default_rng(seed)
        shuffled = _permuted(obs, rng.permutation(obs.n_ds),
                             rng.permutation(obs.n_cr))
        partial = degrade_to_partial(shuffled)
        data = {"obs": shuffled, "partial": partial,
                "counts": aggregate_counts(partial, toy_partitions, toy_design)}
        spec = make_toy_spec(scenario, toy_field, toy_design, toy_region,
                             toy_partitions, data)
        wp = WorkingParams(np.array(beta), log_phi, logit_theta)
        assert loglik(wp, spec) == loglik(wp, toy_specs[scenario])


def _relabelled(design, obs, names):
    """The same design and observations with unit i renamed ``names[i]``."""
    new = {r.unit.id: name for r, name in zip(design.regions, names)}
    design = SurveyDesign(tuple(
        dataclasses.replace(r, unit=dataclasses.replace(r.unit, id=new[r.unit.id]))
        for r in design.regions))

    def rename(units):
        return np.array([new[u] for u in units], dtype=object)

    return design, dataclasses.replace(obs, ds_unit=rename(obs.ds_unit),
                                       cr_unit=rename(obs.cr_unit))


class TestUnitRelabelling:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(max_examples=25, deadline=None)
    @given(names=st.lists(st.text("abcxyz019_-", min_size=1, max_size=6),
                          min_size=3, max_size=3, unique=True),
           beta=st.tuples(st.floats(-2.0, 6.0), st.floats(-2.0, 2.0)),
           log_phi=st.floats(-8.0, 2.0), logit_theta=st.floats(-6.0, 6.0))
    def test_loglik_exact_under_unit_relabelling(
            self, scenario, names, beta, log_phi, logit_theta, toy_field,
            toy_design, toy_region, toy_data, toy_specs):
        """Unit ids only name units: renaming them in the design and the
        observations together leaves loglik bitwise unchanged."""
        design, obs = _relabelled(toy_design, toy_data["obs"], names)
        partitions = build_partitions(toy_region, 3, 3, design)
        partial = degrade_to_partial(obs)
        data = {"obs": obs, "partial": partial,
                "counts": aggregate_counts(partial, partitions, design)}
        spec = make_toy_spec(scenario, toy_field, design, toy_region,
                             partitions, data)
        wp = WorkingParams(np.array(beta), log_phi, logit_theta)
        assert loglik(wp, spec) == loglik(wp, toy_specs[scenario])


class TestSpecImmutable:
    def test_assigning_data_field_raises(self, toy_specs, toy_data):
        """Prepared tables are cached, so the data they came from is fixed."""
        spec = toy_specs["fused-region"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.obs = toy_data["obs"]
        assert spec.obs is toy_data["partial"]


def _node_sums(lam, w, cell, group, n_groups):
    """Reference per-group sums over unmerged quadrature nodes, and the
    number of distinct (group, cell) pairs among them."""
    keep = group >= 0
    w, cell, group = w[keep], cell[keep], group[keep]
    sums = np.bincount(group, weights=w * lam[cell], minlength=n_groups)
    return sums, len(set(zip(group.tolist(), cell.tolist())))


def _region_nodes(spec, regions):
    """The regions' quadrature nodes, rebuilt one region at a time."""
    field, quad = spec.field, spec.quadrature
    nodes, w, ridx = [], [], []
    for k, reg in enumerate(regions):
        if quad.mode == "native":
            kwargs = {"grid": (field.x0, field.y0, field.dx, field.dy)}
        else:
            kwargs = {"spacing": [quad.spacing_fraction * reg.radius]}
        xy, weights, *_ = region_nodes([reg], within=spec.region, **kwargs)
        nodes.append(xy)
        w.append(weights)
        ridx.append(np.full(len(xy), k))
    return np.concatenate(nodes), np.concatenate(w), np.concatenate(ridx)


def _line_nodes(spec):
    """Each DS observation's line nodes (anchor + d * direction, uniform
    weights), clipped to the region and renormalized, one observation at a
    time in canonical order (by unit position, then distance)."""
    obs, design = spec.obs, spec.design
    upos = {r.unit.id: k for k, r in enumerate(design.ds_regions)}
    order = np.lexsort((obs.ds_distance, [upos[u] for u in obs.ds_unit]))
    nodes, w, group = [], [], []
    for g, k in enumerate(order):
        anchor, direction = line_template(
            design.region_by_id(obs.ds_unit[k]).unit)
        pts = anchor + float(obs.ds_distance[k]) * direction
        keep = spec.region.contains(pts)
        nodes.append(pts[keep])
        w.append(np.full(keep.sum(), 1.0 / keep.sum()))
        group.append(np.full(keep.sum(), g))
    return np.concatenate(nodes), np.concatenate(w), np.concatenate(group)


class TestMergedTables:
    """Tables hold one entry per (group, field cell); their sums equal the
    node-level sums."""

    @pytest.mark.parametrize("native", (True, False))
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 3.0),
           log_phi=st.floats(-6.0, 0.0))
    def test_merged_sums_match_node_sums(self, native, seed, spread, log_phi,
                                         toy_field, toy_design, toy_region,
                                         toy_partitions, toy_data):
        lam = np.random.default_rng(seed).lognormal(0.0, spread,
                                                    toy_field.n_cells)
        phi = math.exp(log_phi)
        specs = {s: make_toy_spec(s, toy_field, toy_design, toy_region,
                                  toy_partitions, toy_data, native)
                 for s in ("complete", "aggregated-cos", "fused-distance")}
        c, p, q = (specs[s].prepared() for s in specs)
        sampled = np.flatnonzero(toy_partitions.sampled)
        pos = np.full(toy_partitions.n_cells, -1)
        pos[sampled] = np.arange(len(sampled))
        n_ds, n_cr = len(toy_design.ds_regions), len(toy_design.cr_regions)

        cos = specs["aggregated-cos"]
        cr_xy, cr_w, cr_region = _region_nodes(cos, toy_design.cr_regions)
        cr_cell = toy_field.cell_index(cr_xy)
        ds_xy, ds_w, ds_region = _region_nodes(cos, toy_design.ds_regions)
        ds_d2 = np.concatenate([
            reg.distance(ds_xy[ds_region == k]) ** 2
            for k, reg in enumerate(toy_design.ds_regions)])
        line_xy, line_w, line_group = _line_nodes(specs["fused-distance"])
        # (prepared, table, its first group, node weights, cells, groups,
        # number of groups); the CR regions follow the DS regions.
        cases = (
            (c, c.captured, n_ds, cr_w, cr_cell, cr_region, n_cr),
            (q, q.captured, n_ds, cr_w, cr_cell, cr_region, n_cr),
            (p, p.captured, 0, cr_w, cr_cell,
             pos[toy_partitions.cell_index(cr_xy)], len(sampled)),
            (q, q.undetected, n_ds + n_cr, line_w,
             toy_field.cell_index(line_xy), line_group,
             toy_data["partial"].n_ds),
            (q, q.detected, 0, ds_w * np.exp(-ds_d2 / phi),
             toy_field.cell_index(ds_xy), ds_region, n_ds),
        )
        for prep, table, lo, w, cell, group, n_groups in cases:
            want, n_pairs = _node_sums(lam, w, cell, group, n_groups)
            in_block = (table.group >= lo) & (table.group < lo + n_groups)
            assert np.count_nonzero(in_block) == n_pairs
            w = prep.detection(phi)[0] if table is prep.detected \
                else table.w
            got = table.group_sums(w * lam[prep.cells][table.cell])
            got = got[lo:lo + n_groups]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_hand_merge_with_empty_groups(self):
        """Two entries share (group 0, cell 0); groups 1 and 3 are empty."""
        table = _GroupedTable.merged(np.array([1.0, 2.0, 4.0, 8.0]),
                                     np.array([0, 1, 0, 0]),
                                     np.array([2, 0, 2, 0]), 4)
        assert sorted(zip(table.group.tolist(), table.cell.tolist(),
                          table.w.tolist())) == [(0, 0, 8.0), (0, 1, 2.0),
                                                 (2, 0, 5.0)]
        lam = np.array([1.0, 10.0])
        assert table.group_sums(table.w * lam[table.cell]).tolist() == \
            [28.0, 0.0, 5.0, 0.0]
        empty = _GroupedTable.merged(np.zeros(0), np.zeros(0, dtype=int),
                                     np.zeros(0, dtype=int), 2)
        assert empty.group_sums(empty.w).tolist() == [0.0, 0.0]

    def test_distance_tables_keep_every_node(self, toy_field, toy_design,
                                             toy_region, toy_partitions,
                                             toy_data):
        """exp(-d2/phi) varies within a cell, so DS nodes stay beside their
        (group, cell) entries."""
        spec = make_toy_spec("fused-region", toy_field, toy_design, toy_region,
                             toy_partitions, toy_data, native=False)
        xy, _, region = _region_nodes(spec, toy_design.ds_regions)
        n_pairs = len(set(zip(region.tolist(),
                              toy_field.cell_index(xy).tolist())))
        detected = spec.prepared().detected
        assert n_pairs < len(xy) == len(detected.w) == len(detected.d2)
        assert len(detected.cell) == n_pairs


def _support_inputs(spec):
    """The canonical DS order and the DS unit positions that ``_by_unit``
    passes to ``_line_nodes``."""
    obs = spec.obs
    ds_pos = {r.unit.id: k for k, r in enumerate(spec.design.ds_regions)}
    upos = np.array([ds_pos[u] for u in obs.ds_unit], dtype=int)
    return (likelihoods._canonical_order(upos, obs.ds_loc, obs.ds_distance),
            upos)


def _node_by_node_supports(spec, ds_order, ds_upos):
    """The line supports built unit by unit, each node tested with
    ``StudyRegion.contains`` and given its cell by ``cell_index``, then all
    nodes merged by (observation, cell): (w, cell, observation)."""
    dist, upos = spec.obs.ds_distance[ds_order], ds_upos[ds_order]
    regions = spec.design.ds_regions
    w, cell, group = [np.zeros(0)], [np.zeros(0, dtype=int)], \
        [np.zeros(0, dtype=int)]
    starts = np.flatnonzero(np.diff(upos, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], len(upos))):
        reg = regions[upos[lo]]
        anchor, direction = line_template(reg.unit)
        pts = anchor + dist[lo:hi, None, None] * direction
        keep = spec.region.contains(pts.reshape(-1, 2)).reshape(hi - lo, -1)
        n_keep = keep.sum(axis=1)
        if not n_keep.all():
            k = lo + int(np.argmin(n_keep))
            raise DataError(
                f"observed-location support for unit {reg.unit.id!r} at "
                f"distance {dist[k]} lies outside the region")
        w.append(np.repeat(1.0 / n_keep, n_keep))
        cell.append(spec.field.cell_index(pts[keep]))
        group.append(np.repeat(np.arange(lo, hi), n_keep))
    table = _GroupedTable.merged(np.concatenate(w), np.concatenate(cell),
                                 np.concatenate(group), len(dist))
    return table.w, table.cell, table.group


def _ds_obs(units, distances):
    return ObservationSet(ds_unit=np.array(units, dtype=object),
                          ds_distance=np.array(distances, dtype=float),
                          cr_unit=np.array([], dtype=object))


class TestLineSupports:
    """``_line_nodes`` builds each support as one row and merges it by
    sorting its own cells; every entry keeps the bits of the supports
    built node by node and merged by (observation, cell)."""

    @staticmethod
    def _assert_same_bits(spec):
        order, upos = _support_inputs(spec)
        got = likelihoods._line_nodes(spec, order, upos)
        want = _node_by_node_supports(spec, order, upos)
        for name, a, b in zip(("w", "cell", "group"), got, want):
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        return got

    @staticmethod
    def _assert_same_error(spec):
        order, upos = _support_inputs(spec)
        with pytest.raises(DataError) as want:
            _node_by_node_supports(spec, order, upos)
        with pytest.raises(DataError) as got:
            likelihoods._line_nodes(spec, order, upos)
        assert str(got.value) == str(want.value)
        return str(got.value)

    def test_point_units_of_the_default_study(self, study_replicate_0):
        config, field, _, (_, partial, _) = study_replicate_0
        spec = LikelihoodSpec("fused-distance", config.design, field,
                              obs=partial, region=config.region)
        _, _, group = self._assert_same_bits(spec)
        assert np.array_equal(np.unique(group), np.arange(partial.n_ds))

    def test_transects_of_the_demo_fixture(self):
        field = ingest_raster([os.path.join(FIXTURES, "covariate.asc")])
        design = load_design(os.path.join(FIXTURES, "design.csv"))
        obs = load_observations(os.path.join(FIXTURES, "observations.csv"))
        assert {r.unit.kind for r in design.ds_regions} == {"transect"}
        self._assert_same_bits(LikelihoodSpec(
            "fused-distance", design, field, obs=obs, region=region_of(field)))

    def test_masked_region_cuts_supports(self, toy_field, toy_design):
        """A mask west of x = 0.2 cuts the circles of 'pt' (0.3, 0.3) past
        d = 0.1; the radii 0.21 and 0.15 and distance 0 are included."""
        region = StudyRegion(0.0, 0.0, 1.0, 1.0,
                             mask=((0.2, 0.0), (1.0, 0.0), (1.0, 1.0),
                                   (0.2, 1.0)))
        obs = _ds_obs(["pt"] * 5 + ["tr"] * 3,
                      [0.0, 0.05, 0.15, 0.2, 0.21, 0.0, 0.07, 0.15])
        spec = LikelihoodSpec("fused-distance", toy_design, toy_field,
                              obs=obs, region=region)
        self._assert_same_bits(spec)
        anchor, direction = line_template(toy_design.ds_regions[0].unit)
        n_keep = [region.contains(anchor + d * direction).sum()
                  for d in (0.15, 0.21)]
        assert 0 < min(n_keep) and max(n_keep) < len(anchor)

    def test_points_and_transects_interleaved(self, toy_field):
        """DS units in the order point, transect, point: the rows of the
        point block and the transect's block are put back in canonical
        order."""
        design = SurveyDesign((
            SampledRegion(SurveyUnit("a", "point", np.array([0.3, 0.3])), 0.2),
            SampledRegion(SurveyUnit("t", "transect",
                                     np.array([[0.1, 0.9], [0.9, 0.9]])), 0.1),
            SampledRegion(SurveyUnit("b", "point", np.array([0.9, 0.1])), 0.2),
        ))
        obs = _ds_obs(["b", "t", "a", "b", "t", "a"],
                      [0.2, 0.1, 0.0, 0.05, 0.0, 0.2])
        _, _, group = self._assert_same_bits(LikelihoodSpec(
            "fused-distance", design, toy_field, obs=obs))
        assert (np.diff(group) >= 0).all()

    def test_support_on_the_grid_east_edge(self, toy_field):
        """Nodes up to 1e-12 past the grid's east edge fold into its last
        column; a region reaching that far keeps them."""
        c = np.abs(line_template(SurveyUnit("p", "point",
                                            np.zeros(2)))[1][:, 0]).max()
        design = SurveyDesign((
            SampledRegion(SurveyUnit("p", "point", np.array([0.9, 0.5])),
                          0.2),))
        reach = 0.1 / c
        distances = [0.0, reach, reach * (1 + 2e-13), reach * (1 + 1e-12),
                     0.2]
        for xmax in (1.0, 1.0 + 5e-13):
            spec = LikelihoodSpec(
                "fused-distance", design, toy_field,
                obs=_ds_obs(["p"] * len(distances), distances),
                region=StudyRegion(0.0, 0.0, xmax, 1.0))
            self._assert_same_bits(spec)
        edge = (design.regions[0].unit.xy
                + np.array(distances)[:, None, None]
                * line_template(design.regions[0].unit)[1])[..., 0].max(axis=1)
        assert ((edge > 1.0) & (edge <= 1.0 + 1e-12)).any()

    def test_support_outside_the_region(self, toy_field, toy_design):
        """The transect 'tr' runs along y = 0.9 with radius 0.15."""
        spec = LikelihoodSpec(
            "fused-distance", toy_design, toy_field,
            obs=_ds_obs(["pt", "tr", "tr"], [0.1, 0.05, 0.0]),
            region=StudyRegion(0.0, 0.0, 1.0, 0.5))
        text = self._assert_same_error(spec)
        assert "'tr' at distance 0.0 lies outside" in text

    def test_support_off_the_grid(self, toy_field):
        """A region wider than the field: the support of 'p' at (0.95, 0.5)
        keeps nodes east of the grid."""
        design = SurveyDesign((
            SampledRegion(SurveyUnit("q", "point", np.array([0.5, 0.5])),
                          0.2),
            SampledRegion(SurveyUnit("p", "point", np.array([0.95, 0.5])),
                          0.2),))
        spec = LikelihoodSpec(
            "fused-distance", design, toy_field,
            obs=_ds_obs(["q", "p", "p"], [0.2, 0.01, 0.1]),
            region=StudyRegion(0.0, 0.0, 1.2, 1.0))
        text = self._assert_same_error(spec)
        assert text.endswith("is outside the field grid")


class TestUnderflowedScale:
    def test_no_warnings_when_phi_underflows(self, toy_specs):
        """log phi = -800 underflows phi to 0; loglik stays quiet and
        returns a number."""
        wp = WorkingParams(np.array([3.0, 0.7]), -800.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scenario in SCENARIOS:
                assert not math.isnan(loglik(wp, toy_specs[scenario]))


class TestSaturatedScale:
    @pytest.mark.parametrize("native", (True, False))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(max_examples=10, deadline=None)
    @given(beta0=st.floats(-5.0, 12.0), beta1=st.floats(-3.0, 3.0),
           logit_theta=st.floats(-40.0, 40.0))
    def test_log_phi_past_the_cap_is_phi_inf_to_the_bit(
            self, scenario, native, beta0, beta1, logit_theta, toy_field,
            toy_design, toy_region, toy_partitions, toy_data):
        """fit reports phi = inf as log phi = _LOG_PHI_INF: loglik there,
        and further out, equals loglik at eta = 0 to the bit."""
        spec = make_toy_spec(scenario, toy_field, toy_design, toy_region,
                             toy_partitions, toy_data, native)
        beta = np.array([beta0, beta1])
        at_inf = loglik(RateParams(beta, 0.0, logit_theta), spec)
        for log_phi in (_LOG_PHI_INF, 800.0):
            assert loglik(WorkingParams(beta, log_phi, logit_theta),
                          spec) == at_inf


def _logit(t):
    if t <= 0.0:
        return -math.inf
    return math.inf if t >= 1.0 else math.log(t) - math.log1p(-t)


def _difference_derivatives(f, z, h, side):
    """Gradient and Hessian of f at z by finite differences: central in
    each coordinate, or one-sided (``side`` +1 forward, -1 backward, both
    second order) in a coordinate that sits at a bound."""
    first, second = [], []
    for s, t in zip(side, h):
        if s == 0:
            first.append(((-t, -0.5 / t), (t, 0.5 / t)))
            second.append(((-t, t ** -2), (0.0, -2 * t ** -2), (t, t ** -2)))
        else:
            t *= s
            first.append(((0.0, -1.5 / t), (t, 2 / t), (2 * t, -0.5 / t)))
            second.append(((0.0, 2 * t ** -2), (t, -5 * t ** -2),
                           (2 * t, 4 * t ** -2), (3 * t, -t ** -2)))

    def at(*moves):
        y = np.array(z, dtype=float)
        for i, o in moves:
            y[i] += o
        return f(y)

    n = len(z)
    grad = np.array([sum(w * at((i, o)) for o, w in first[i])
                     for i in range(n)])
    hess = np.zeros((n, n))
    for i in range(n):
        hess[i, i] = sum(w * at((i, o)) for o, w in second[i])
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = sum(
                wa * wb * at((i, a), (j, b))
                for a, wa in first[i] for b, wb in first[j])
    return grad, hess


def _without_captures(toy_data, toy_partitions, toy_design):
    """The toy data with every CR row dropped: with no captures theta = 0
    lies inside the likelihood's support (no observed group is left with
    captured entries alone, where mu = theta * T)."""
    obs, partial = (dataclasses.replace(
        o, cr_unit=o.cr_unit[:0],
        cr_loc=None if o.cr_loc is None else o.cr_loc[:0])
        for o in (toy_data["obs"], toy_data["partial"]))
    return {"obs": obs, "partial": partial,
            "counts": aggregate_counts(partial, toy_partitions, toy_design)}


class TestLoglikDerivatives:
    """loglik_derivatives against loglik itself: the value, and central
    differences of it in (beta, eta, theta)."""

    POINTS = {  # (beta0, beta1, eta, theta), sides of the stencil
        "interior": ((3.0, 0.7, 50.0, 0.6), (0, 0, 0, 0)),
        "eta at 0": ((3.0, 0.7, 0.0, 0.6), (0, 0, 0, 0)),
        "theta at 0": ((3.0, 0.7, 50.0, 0.0), (0, 0, 0, 1)),
        "theta at 1": ((3.0, 0.7, 50.0, 1.0), (0, 0, 0, -1)),
    }

    @pytest.mark.parametrize("native", (True, False))
    @pytest.mark.parametrize("point", list(POINTS))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_matches_differences_of_loglik(self, scenario, point, native,
                                           toy_field, toy_design, toy_region,
                                           toy_partitions, toy_data):
        z, side = self.POINTS[point]
        data = toy_data if point != "theta at 0" else _without_captures(
            toy_data, toy_partitions, toy_design)
        spec = make_toy_spec(scenario, toy_field, toy_design, toy_region,
                             toy_partitions, data, native)

        def f(y):
            return loglik(RateParams(y[:2], y[2], _logit(y[3])), spec)

        value, grad, hess = loglik_derivatives(
            RateParams(np.array(z[:2]), z[2], _logit(z[3])), spec)
        assert value == pytest.approx(f(np.array(z)), rel=1e-12, abs=0.0)
        steps = (1e-4, 1e-4, 1e-4 / spec.prepared().max_d2, 1e-4)
        fd_grad, fd_hess = _difference_derivatives(f, z, steps, side)
        # Each coordinate is measured on the scale of its Hessian row.
        scale = np.sqrt(np.abs(hess).max(axis=1))
        assert (np.abs(grad - fd_grad) <= 1e-6 * (np.abs(grad) + scale)).all()
        assert (np.abs(hess - fd_hess) <= 1e-4 * np.outer(scale, scale)).all()


def _prepared_arrays(spec):
    """Every attribute of the spec's prepared tables by name, the fields of
    its grouped tables included. The kept detected run sums are left out:
    they depend on the points evaluated so far, and TestDetectionKernel
    checks them."""
    out = {}
    for name, value in vars(spec.prepared()).items():
        if name == "_recent_phi":
            continue
        if isinstance(value, _GroupedTable):
            out.update((f"{name}.{f.name}", getattr(value, f.name))
                       for f in dataclasses.fields(value))
        else:
            out[name] = value
    return out


def _assert_same_bits(own, shared, points):
    """``shared`` prepares, evaluates and differentiates as ``own`` does,
    to the bit."""
    a, b = _prepared_arrays(own), _prepared_arrays(shared)
    assert a.keys() == b.keys()
    for name, value in a.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == b[name].dtype, name
            assert np.array_equal(value, b[name]), name
        else:
            assert value == b[name], name
    for rp in points:
        assert loglik(rp, own).hex() == loglik(rp, shared).hex()
        (va, ga, ha), (vb, gb, hb) = (loglik_derivatives(rp, spec)
                                      for spec in (own, shared))
        assert va.hex() == vb.hex()
        assert ga.tobytes() == gb.tobytes() and ha.tobytes() == hb.tobytes()


@pytest.fixture(scope="module")
def study_replicate_0():
    """Replicate 0 of the default study: its config, field, partitions and
    data."""
    config = StudyConfig(replicates=1)
    field = simulate_grf(config.region, config.gp, config.grid_resolution)
    partitions = build_partitions(config.region, config.partitions_nx,
                                  config.partitions_ny, config.design)
    rng = np.random.default_rng(config.root_seed ^ 0)
    pattern = simulate_ippp(config.truth, field, config.region, rng)
    obs = simulate_observation(pattern, config.design, config.truth, rng)
    partial = degrade_to_partial(obs)
    counts = aggregate_counts(partial, partitions, config.design)
    return config, field, partitions, (obs, partial, counts)


@pytest.fixture
def node_layouts(monkeypatch):
    """The region lists that the likelihoods' quadrature lays out."""
    calls = []

    def spy(regions, **kwargs):
        calls.append(regions)
        return region_nodes(regions, **kwargs)

    monkeypatch.setattr(likelihoods, "region_nodes", spy)
    return calls


BY_UNIT = ("complete", "fused-region", "fused-distance")
TOY_POINTS = [RateParams(np.array([3.0, 0.7]), eta, _logit(0.6))
              for eta in (0.0, 50.0)]


def _toy_inputs(toy_field, toy_design, toy_region, toy_partitions):
    """The toy design tables' inputs, with a copy of the field that no
    kept tables were built for."""
    return {"design": toy_design, "field": dataclasses.replace(toy_field),
            "region": toy_region, "quadrature": QuadratureSettings(),
            "partitions": toy_partitions}


def _bare_spec(scenario, inputs, data):
    """A spec on ``inputs``' design, field, region, quadrature and (farr,
    cos) partitions."""
    return _build_spec(scenario, inputs["design"], inputs["field"],
                       inputs["region"], inputs["partitions"],
                       inputs["quadrature"], data["obs"], data["partial"],
                       data["counts"])


def _cold(spec):
    """A copy of ``spec`` prepared from design tables built for it alone:
    the process's kept tables are set aside for the build and then put
    back as they were."""
    kept = likelihoods._recent[:]
    likelihoods._recent.clear()
    try:
        cold = dataclasses.replace(spec)
        cold.prepared()
    finally:
        likelihoods._recent[:] = kept
    return cold


class TestDesignTables:
    """``design_tables`` keeps the tables it builds: the specs of a study
    (``run_study`` builds its tables first) take them to the bit, as do
    specs of the same inputs later on, and no spec of other inputs takes
    them."""

    @pytest.mark.parametrize("native", (True, False))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_toy_specs_share_to_the_bit(self, scenario, native, toy_field,
                                        toy_design, toy_region,
                                        toy_partitions, toy_data):
        shared = make_toy_spec(scenario, toy_field, toy_design, toy_region,
                               toy_partitions, toy_data, native)
        design_tables(toy_design, toy_field, toy_region,
                      shared.quadrature, toy_partitions)
        _assert_same_bits(_cold(shared), shared, TOY_POINTS)

    @pytest.mark.parametrize("mode", ("spacing", "native"))
    def test_default_study_replicate_0_shares_to_the_bit(
            self, mode, node_layouts, study_replicate_0):
        config, field, partitions, data = study_replicate_0
        quad = QuadratureSettings(mode=mode)
        design_tables(config.design, field, config.region, quad,
                      partitions, config.scenarios)
        node_layouts.clear()
        shared = [_build_spec(scenario, config.design, field, config.region,
                              partitions, quad, *data)
                  for scenario in config.scenarios]
        for spec in shared:
            spec.prepared()
        assert node_layouts == []
        for spec in shared:
            _assert_same_bits(_cold(spec), spec, [
                RateParams(np.array([9.0, 1.0]), eta, _logit(0.2))
                for eta in (0.0, 40.0)])

    def test_aggregated_tables_need_partitions(self, toy_design, toy_field,
                                               toy_region):
        with pytest.raises(ConfigError, match="partition grid"):
            design_tables(toy_design, toy_field, toy_region,
                          QuadratureSettings(), None, ("aggregated-cos",))

    @pytest.mark.parametrize("native", (True, False))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_cold_and_warm_bare_specs_match_fresh_tables(
            self, scenario, native, toy_field, toy_design, toy_region,
            toy_partitions, toy_data):
        inputs = _toy_inputs(toy_field, toy_design, toy_region,
                             toy_partitions)
        inputs["quadrature"] = QuadratureSettings(
            mode="native" if native else "spacing")
        for _ in ("cold", "warm"):
            bare = _bare_spec(scenario, inputs, toy_data)
            _assert_same_bits(_cold(bare), bare, TOY_POINTS)

    def test_default_study_bare_specs_match_fresh_tables(
            self, study_replicate_0):
        config, field, partitions, (obs, partial, counts) = study_replicate_0
        inputs = {"design": config.design, "field": dataclasses.replace(field),
                  "region": config.region, "quadrature": config.quadrature,
                  "partitions": partitions}
        data = {"obs": obs, "partial": partial, "counts": counts}
        for scenario in SCENARIOS:
            for _ in ("cold", "warm"):
                bare = _bare_spec(scenario, inputs, data)
                _assert_same_bits(_cold(bare), bare, [
                    RateParams(np.array([9.0, 1.0]), eta, _logit(0.2))
                    for eta in (0.0, 40.0)])

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_second_bare_spec_lays_out_no_region_nodes(
            self, scenario, node_layouts, toy_field, toy_design, toy_region,
            toy_partitions, toy_data):
        inputs = _toy_inputs(toy_field, toy_design, toy_region,
                             toy_partitions)
        _bare_spec(scenario, inputs, toy_data).prepared()
        assert len(node_layouts) == 2   # the DS and the CR regions
        node_layouts.clear()
        # One build serves all three by-unit scenarios.
        for other in BY_UNIT if scenario in BY_UNIT else (scenario,):
            _bare_spec(other, inputs, toy_data).prepared()
        assert node_layouts == []

    @pytest.mark.parametrize("scenario, name", [
        ("fused-region", "design"), ("aggregated-cos", "design"),
        ("complete", "field"), ("aggregated-farr", "field"),
        ("aggregated-farr", "partitions"), ("aggregated-cos", "partitions"),
        ("fused-region", "region"), ("aggregated-cos", "region"),
        ("fused-distance", "quadrature"), ("aggregated-farr", "quadrature"),
    ])
    def test_no_kept_tables_serve_other_inputs(
            self, scenario, name, node_layouts, toy_field, toy_design,
            toy_region, toy_partitions, toy_data):
        inputs = _toy_inputs(toy_field, toy_design, toy_region,
                             toy_partitions)
        _bare_spec(scenario, inputs, toy_data).prepared()
        # Designs and fields are matched by identity, so equal-looking
        # copies are not served; partitions, regions and quadrature
        # settings are matched by value, so these differ.
        inputs[name] = {
            "design": SurveyDesign(toy_design.regions),
            "field": dataclasses.replace(inputs["field"]),
            "partitions": build_partitions(toy_region, 3, 2, toy_design),
            "region": StudyRegion(0.0, 0.0, 1.0, 0.95),
            "quadrature": QuadratureSettings(spacing_fraction=0.1),
        }[name]
        data = dict(toy_data, counts=aggregate_counts(
            toy_data["partial"], inputs["partitions"], toy_design))
        node_layouts.clear()
        bare = _bare_spec(scenario, inputs, data)
        bare.prepared()
        assert len(node_layouts) == 2
        _assert_same_bits(_cold(bare), bare, TOY_POINTS)

    @pytest.mark.parametrize("scenario", ("fused-region", "aggregated-cos"))
    def test_equal_region_and_quadrature_are_served(
            self, scenario, node_layouts, toy_field, toy_design, toy_region,
            toy_partitions, toy_data):
        inputs = _toy_inputs(toy_field, toy_design, toy_region,
                             toy_partitions)
        _bare_spec(scenario, inputs, toy_data).prepared()
        node_layouts.clear()
        inputs["region"] = dataclasses.replace(toy_region)
        inputs["quadrature"] = QuadratureSettings()
        inputs["partitions"] = build_partitions(toy_region, 3, 3, toy_design)
        assert inputs["partitions"] is not toy_partitions
        _bare_spec(scenario, inputs, toy_data).prepared()
        assert node_layouts == []

    def test_evicted_tables_release_their_inputs(
            self, toy_field, toy_design, toy_region, toy_partitions,
            toy_data):
        inputs = _toy_inputs(toy_field, toy_design, toy_region,
                             toy_partitions)
        _bare_spec("fused-region", inputs, toy_data).prepared()
        field = weakref.ref(inputs.pop("field"))
        gc.collect()
        assert field() is not None   # kept with its tables
        for _ in range(likelihoods._RECENT_TABLES):
            inputs["design"] = SurveyDesign(toy_design.regions)
            inputs["field"] = toy_field
            _bare_spec("fused-region", inputs, toy_data).prepared()
        gc.collect()
        assert field() is None

    def test_failed_build_raises_every_time(self, toy_field, toy_design,
                                            toy_partitions, toy_data):
        # The transect 'tr' runs along y = 0.9 with radius 0.15.
        inputs = _toy_inputs(toy_field, toy_design,
                             StudyRegion(0.0, 0.0, 1.0, 0.5), toy_partitions)
        messages = []
        for _ in range(2):
            with pytest.raises(ConfigError, match="of unit 'tr'") as err:
                _bare_spec("aggregated-cos", inputs, toy_data).prepared()
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_bare_specs_of_changing_designs_across_seeds(
            self, study_replicate_0):
        """Bare specs of the default study interleaved with specs of a toy
        design drawn anew for each seed, whose objects are freed before
        the next seed's are made (so their ids may come back): every value
        has the bits of tables built for its own inputs, the toy values
        match the brute-force oracle, and permuted observation rows change
        nothing beyond 1e-12."""
        config, field, partitions, _ = study_replicate_0
        study = {"design": config.design, "field": field,
                 "region": config.region, "quadrature": config.quadrature,
                 "partitions": partitions}
        for seed in range(6):
            _check_seed(np.random.default_rng([seed, 17]), config.truth,
                        study)

    def test_bare_specs_of_freed_designs_whose_ids_come_back(self):
        """Small designs and fields, each built, evaluated and freed before
        the next is made: every bare spec has the bits of a spec prepared
        from cold tables. The field is freed first and the design last,
        and the next ones are made with no allocation in between, so
        CPython hands them the freed ids whenever nothing else holds the
        objects."""
        rng = np.random.default_rng(29)
        rounds = [_tiny_parts(rng) for _ in range(30)]
        for regions, values in rounds:
            design = SurveyDesign(regions)
            field = CovariateField(0.0, 0.0, 0.5, 0.5, values)
            _check_tiny(design, field, rng)
            del field, design


def _tiny_parts(rng):
    """The regions of a one-point, one-trap design with drawn positions
    and radii, and the values of a 2x2 field over the unit square."""
    return ((SampledRegion(SurveyUnit("p", "point", rng.uniform(0.2, 0.3, 2)),
                           rng.uniform(0.1, 0.2)),
             SampledRegion(SurveyUnit("t", "trap", rng.uniform(0.7, 0.8, 2)),
                           rng.uniform(0.1, 0.2))),
            rng.normal(0.0, 1.0, (2, 2, 1)))


def _check_tiny(design, field, rng):
    """One round of the test above: data drawn on ``design`` and
    ``field``, and one loglik of each scenario's bare spec against a cold
    one."""
    region = StudyRegion.unit_square()
    inputs = {"design": design, "field": field, "region": region,
              "quadrature": QuadratureSettings(),
              "partitions": build_partitions(region, 2, 2, design)}
    data = _draw_data(ModelParams(np.array([5.0, 0.5]), 0.02, 0.6), inputs,
                      rng)
    wp = random_working(rng)
    for scenario in SCENARIOS:
        bare = _bare_spec(scenario, inputs, data)
        assert loglik(wp, bare).hex() == loglik(wp, _cold(bare)).hex()


def _check_seed(rng, truth, study):
    """One seed of the test above; the toy objects die with this call."""
    toy = _draw_toy(rng)
    study_data = _draw_data(truth, study, rng)
    toy_data = _draw_data(ModelParams(np.array([4.0, 0.7]), 0.02, 0.6),
                          toy, rng)
    runs = (("study", study, study_data,
             [WorkingParams(np.array([9.0, 1.0]), math.log(phi), _logit(0.2))
              for phi in (0.025, 0.3)]),
            ("toy", toy, toy_data, [random_working(rng) for _ in range(2)]))
    values = {}
    for scenario in SCENARIOS:
        for label, inputs, data, points in runs:
            bare = _bare_spec(scenario, inputs, data)
            cold = _cold(bare)
            got = [loglik(wp, bare) for wp in points]
            assert [v.hex() for v in got] == \
                [loglik(wp, cold).hex() for wp in points]
            values[label, scenario] = got
        for wp, got in zip(runs[1][3], values["toy", scenario]):
            assert got == pytest.approx(oracle_value(
                scenario, wp, toy["field"], toy["design"], toy["region"],
                toy_data), abs=1e-8)
    for label, inputs, data, points in runs:
        obs = _permuted(data["obs"], rng.permutation(data["obs"].n_ds),
                        rng.permutation(data["obs"].n_cr))
        partial = degrade_to_partial(obs)
        permuted = {"obs": obs, "partial": partial,
                    "counts": aggregate_counts(partial, inputs["partitions"],
                                               inputs["design"])}
        for scenario in SCENARIOS:
            bare = _bare_spec(scenario, inputs, permuted)
            assert [loglik(wp, bare) for wp in points] == \
                pytest.approx(values[label, scenario], rel=1e-12)


def _draw_toy(rng):
    """A toy problem drawn from ``rng``, every object new: a 5x5 field,
    native quadrature, and a design as the toy one with the point moved
    by up to 0.01 and the transect, clipped by the top edge of the unit
    square, at a height between 0.87 and 0.93."""
    region = StudyRegion.unit_square()
    y = rng.uniform(0.87, 0.93)
    design = SurveyDesign((
        SampledRegion(SurveyUnit("pt", "point", rng.uniform(0.29, 0.31, 2)),
                      0.21),
        SampledRegion(SurveyUnit("tr", "transect",
                                 np.array([[0.1, y], [0.9, y]])), 0.15),
        SampledRegion(SurveyUnit("cr", "trap", np.array([0.7, 0.5])), 0.21),
    ))
    return {"design": design,
            "field": CovariateField(0.0, 0.0, 0.2, 0.2,
                                    rng.normal(0.0, 1.0, (5, 5, 1))),
            "region": region, "quadrature": QuadratureSettings(mode="native"),
            "partitions": build_partitions(region, 3, 3, design)}


def _draw_data(truth, inputs, rng):
    """One simulated draw of every data flavour on ``inputs``."""
    pattern = simulate_ippp(truth, inputs["field"], inputs["region"], rng)
    obs = simulate_observation(pattern, inputs["design"], truth, rng)
    partial = degrade_to_partial(obs)
    return {"obs": obs, "partial": partial,
            "counts": aggregate_counts(partial, inputs["partitions"],
                                       inputs["design"])}


# Detection rates for the kernel tests: eta = 0 (phi = inf), rates whose
# phi differ in the last bits (1 / 50 is 0.02 to 12 decimals for the
# three), a negative rate, and eta = +-inf (phi = 0.0 and -0.0).
KERNEL_ETAS = (0.0, 50.0, math.nextafter(50.0, math.inf), 50.0 * (1 + 1e-12),
               -50.0, 400.0, math.inf, -math.inf)
# log phi = -800 underflows phi to 0.
KERNEL_LOG_PHIS = (-800.0, math.log(0.02), 7.4)


def _hex(*values):
    """The bits of floats and arrays, NaN-aware: equal NaNs compare equal,
    and 0.0 differs from -0.0."""
    return [float(v).hex() for value in values
            for v in np.ravel(np.asarray(value, dtype=float))]


def _evaluate(spec, step):
    """One kernel-test step: (working, index, order, beta0). A working
    step is loglik_terms at KERNEL_LOG_PHIS[index]; a rate step is
    loglik_terms (order 0) or loglik_derivatives (order 2) at
    KERNEL_ETAS[index]."""
    working, index, order, beta0 = step
    beta = np.array([beta0, 0.7])
    if working:
        terms = loglik_terms(WorkingParams(beta, KERNEL_LOG_PHIS[index], 0.4),
                             spec)
        return _hex(terms.observation, terms.exposure)
    rp = RateParams(beta, KERNEL_ETAS[index], 0.4)
    if order == 0:
        terms = loglik_terms(rp, spec)
        return _hex(terms.observation, terms.exposure)
    return _hex(*loglik_derivatives(rp, spec))


def _kernel_steps():
    working = st.tuples(st.just(True),
                        st.integers(0, len(KERNEL_LOG_PHIS) - 1),
                        st.just(0), st.sampled_from((2.0, 3.0)))
    rate = st.tuples(st.just(False), st.integers(0, len(KERNEL_ETAS) - 1),
                     st.sampled_from((0, 2)), st.sampled_from((2.0, 3.0)))
    return st.lists(st.one_of(working, rate), min_size=1, max_size=14)


def _node_weights(table, phi, order):
    """The detected run sums taken per node, in the kernel's order of
    operations: exp(d2 / -phi) times w, then times -d2 per order."""
    q = np.exp(np.divide(table.d2, -phi)) * table.w
    out = [np.add.reduceat(q, table.first)]
    for _ in range(order):
        q = q * -table.d2
        out.append(np.add.reduceat(q, table.first))
    return out


class TestDetectionKernel:
    """The detected tables take exp(-d2/phi) once per distinct distance,
    and each spec keeps the run sums of its last four phi values; neither
    moves a bit."""

    @pytest.mark.parametrize("native", (True, False))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(max_examples=25, deadline=None)
    @given(steps=_kernel_steps())
    def test_warm_spec_matches_cold_evaluations(self, scenario, native, steps,
                                                toy_field, toy_design,
                                                toy_region, toy_partitions,
                                                toy_data):
        """Any sequence of points, repeated phi and order 0 then order 2 at
        one phi included, gives at each point the bits of an evaluation
        with nothing kept."""
        spec = make_toy_spec(scenario, toy_field, toy_design, toy_region,
                             toy_partitions, toy_data, native)
        cold = dataclasses.replace(spec)
        for step in steps:
            got = _evaluate(spec, step)
            cold.prepared()._recent_phi = []
            assert got == _evaluate(cold, step), step
            kept = spec.prepared()._recent_phi
            assert len(kept) <= 4
            assert len({key for key, *_ in kept}) == len(kept)

    @pytest.mark.parametrize("native", (True, False))
    @settings(max_examples=30, deadline=None)
    @given(phi=st.one_of(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=1e-300, max_value=1e300),
        st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan))))
    def test_weights_match_node_level_reference(self, native, phi,
                                                toy_field, toy_design,
                                                toy_region, toy_partitions,
                                                toy_data):
        for scenario in ("complete", "aggregated-farr", "aggregated-cos"):
            prep = make_toy_spec(scenario, toy_field, toy_design, toy_region,
                                 toy_partitions, toy_data, native).prepared()
            with np.errstate(all="ignore"):
                got = prep.detection(phi, 2)
                want = _node_weights(prep.detected, phi, 2)
            assert _hex(*got) == _hex(*want)

    @pytest.mark.parametrize("native", (True, False))
    def test_levels_are_the_distinct_node_distances(self, native, toy_field,
                                                    toy_design, toy_region,
                                                    toy_partitions, toy_data):
        detected = make_toy_spec("fused-region", toy_field, toy_design,
                                 toy_region, toy_partitions, toy_data,
                                 native).prepared().detected
        assert (np.diff(detected.levels) > 0).all()
        assert detected.levels[detected.level].tobytes() == \
            detected.d2.tobytes()
        assert len(detected.levels) < len(detected.d2)

    def test_threads_sharing_a_spec_get_cold_bits(self, toy_field,
                                                 toy_design, toy_region,
                                                 toy_partitions, toy_data):
        """Four threads cycle one spec through six phi values, so entries
        are evicted and rebuilt while the others read: every result has
        the bits of a cold evaluation."""
        spec = make_toy_spec("fused-distance", toy_field, toy_design,
                             toy_region, toy_partitions, toy_data, False)
        cold = dataclasses.replace(spec)
        steps = [(False, i, order, 3.0) for i in (0, 1, 2, 5, 6, 7)
                 for order in (0, 2)]
        want = []
        for step in steps:
            cold.prepared()._recent_phi = []
            want.append(_evaluate(cold, step))
        spec.prepared()
        failures = []

        def run(shift):
            for k in range(120):
                j = (k + shift) % len(steps)
                if _evaluate(spec, steps[j]) != want[j]:
                    failures.append(steps[j])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(s,))
                       for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert len(spec.prepared()._recent_phi) <= 4

    def test_kept_arrays_are_read_only(self, toy_specs):
        prep = toy_specs["fused-distance"].prepared()
        sums = prep.detection(0.02, 2)
        _, levels_exp, kept = prep._recent_phi[0]
        assert kept is sums
        for array in (levels_exp, *sums):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_order_two_extends_a_kept_phi(self, toy_specs):
        """Order 2 at a phi kept at order 0 reuses its level exponentials
        and its order-0 sums; a fifth phi evicts the oldest."""
        prep = dataclasses.replace(toy_specs["complete"]).prepared()
        first = prep.detection(0.02)
        assert len(first) == 1
        _, levels_exp, _ = prep._recent_phi[0]
        extended = prep.detection(0.02, 2)
        assert len(extended) == 3 and extended[0] is first[0]
        assert prep.detection(0.02) is extended
        assert prep._recent_phi[0][1] is levels_exp
        for phi in (0.03, 0.04, 0.05, 0.06):
            prep.detection(phi)
        assert [struct.unpack("d", key)[0] for key, *_ in prep._recent_phi] \
            == [0.06, 0.05, 0.04, 0.03]
        again = prep.detection(0.02)
        assert again[0] is not first[0]
        assert prep._recent_phi[0][1] is not levels_exp


def _row_major_weights(table, phi, order):
    """A table's entry weights, its detected run sums taken afresh."""
    return [table.w] if table.d2 is None else _node_weights(table, phi, order)


def _row_major_sums(table, values):
    return np.bincount(table.group, weights=values, minlength=table.n_groups)


def _row_major_halves(p, mu, phi):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean = np.maximum(mu[p.observed] / p.m, likelihoods._FLOOR)
        distance = float((p.obs_d2 / phi).sum())
        observation = (float(np.sum(p.n * np.log(mean))) - distance
                       - p.log_n_factorial)
    return likelihoods.LoglikTerms(observation, float(mu[:p.n_exposed].sum()))


def _row_major_terms(rp, spec):
    """``loglik_terms`` as the row-major kernel took it."""
    p = spec.prepared()
    phi, theta = rp.phi, likelihoods._sigmoid(rp.logit_theta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam = np.exp(p.X @ rp.beta)
        mu = (_row_major_sums(p.detected,
                              _row_major_weights(p.detected, phi, 0)[0]
                              * lam[p.detected.cell])
              + _row_major_sums(p.undetected,
                                p.undetected.w * lam[p.undetected.cell])
              + theta * _row_major_sums(p.captured,
                                        p.captured.w * lam[p.captured.cell]))
    return _row_major_halves(p, mu, phi)


def _row_major_derivatives(rp, spec):
    """``loglik_derivatives`` as the row-major kernel took it: one (entries
    x k) covariate array, every per-entry column padded to all entries,
    and the detected run sums taken afresh."""
    p = spec.prepared()
    theta, k = likelihoods._sigmoid(rp.logit_theta), p.X.shape[1]
    tables = (p.detected, p.undetected, p.captured)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam = np.exp(p.X @ rp.beta)
        lam_d, lam_u, lam_c = (lam[t.cell] for t in tables)
        w0, w1, w2 = _row_major_weights(p.detected, rp.phi, 2)
        D, U, T = w0 * lam_d, p.undetected.w * lam_u, p.captured.w * lam_c
        mu = (_row_major_sums(p.detected, D) + _row_major_sums(p.undetected, U)
              + theta * _row_major_sums(p.captured, T))
        value = _row_major_halves(p, mu, rp.phi).total
        c = np.zeros(len(mu))
        c[:p.n_exposed] = -1.0
        mu_obs = mu[p.observed]
        live = mu_obs / p.m > likelihoods._FLOOR
        c[p.observed[live]] += p.n[live] / mu_obs[live]

        pad_du, pad_uc = np.zeros(len(D) + len(U)), np.zeros(len(U) + len(T))
        term = np.concatenate([D, U, theta * T])
        d_eta = np.concatenate([w1 * lam_d, pad_uc])
        d_eta2 = np.concatenate([w2 * lam_d, pad_uc])
        d_theta = np.concatenate([pad_du, T])
        group = np.concatenate([t.group for t in tables])
        X = p.X[np.concatenate([t.cell for t in tables])]
        jac = np.column_stack([
            np.bincount(group, col, len(mu))
            for col in (*(X * term[:, None]).T, d_eta, d_theta)])
        grad = jac.T @ c
        grad[k] -= float(p.obs_d2.sum())
        ce = c[group]
        Xc = X * ce[:, None]
        hess = np.zeros((k + 2, k + 2))
        hess[:k, :k] = Xc.T @ (X * term[:, None])
        hess[:k, k] = hess[k, :k] = Xc.T @ d_eta
        hess[:k, k + 1] = hess[k + 1, :k] = Xc.T @ d_theta
        hess[k, k] = np.einsum("i,i->", ce, d_eta2)
        J = jac[p.observed[live]]
        hess -= (J * (p.n[live] / mu_obs[live] ** 2)[:, None]).T @ J
    return value, grad, hess


@pytest.fixture(scope="module")
def row_major_inputs(study_replicate_0, toy_field, toy_design):
    """(spec, beta) by name: the five scenarios on default-study replicate 0
    and on the demo fixture, two on a masked region, two whose captured
    table is empty, and a trap-only spec whose detected and undetected
    tables are."""
    config, field, partitions, (obs, partial, counts) = study_replicate_0
    inputs = {f"study {s}": (_build_spec(
        s, config.design, field, config.region, partitions, config.quadrature,
        obs, partial, counts), (9.0, 1.0)) for s in SCENARIOS}
    design = load_design(os.path.join(FIXTURES, "design.csv"))
    demo_field = ingest_raster([os.path.join(FIXTURES, "covariate.asc")])
    region = region_of(demo_field)
    demo_obs = load_observations(os.path.join(FIXTURES, "observations.csv"))
    demo_partitions = build_partitions(region, 4, 2, design)
    demo_counts = aggregate_counts(demo_obs, demo_partitions, design)
    inputs.update((f"demo {s}", (_build_spec(
        s, design, demo_field, region, demo_partitions, QuadratureSettings(),
        demo_obs, demo_obs, demo_counts), (6.0, 1.0))) for s in SCENARIOS)
    masked = StudyRegion(0.0, 0.0, 1.0, 1.0, mask=(
        (0.2, 0.0), (1.0, 0.0), (1.0, 1.0), (0.2, 1.0)))
    ds_obs = _ds_obs(["pt"] * 5 + ["tr"] * 3,
                     [0.0, 0.05, 0.15, 0.2, 0.21, 0.0, 0.07, 0.15])
    ds_only = SurveyDesign(toy_design.ds_regions)
    for s in ("fused-region", "fused-distance"):
        inputs[f"masked {s}"] = (LikelihoodSpec(
            s, toy_design, toy_field, obs=ds_obs, region=masked), (3.0, 0.7))
        inputs[f"no captured {s}"] = (LikelihoodSpec(
            s, ds_only, toy_field, obs=ds_obs), (3.0, 0.7))
    trap = SurveyDesign((SampledRegion(
        SurveyUnit("t0", "trap", np.array([0.5, 0.5])), 0.1),))
    inputs["trap-only complete"] = (LikelihoodSpec(
        "complete", trap, CovariateField(0, 0, 0.25, 0.25,
                                         np.zeros((4, 4, 0))),
        obs=ObservationSet(ds_unit=np.array([], dtype=object),
                           ds_distance=np.array([]),
                           cr_unit=np.array(["t0"], dtype=object),
                           ds_loc=np.zeros((0, 2)),
                           cr_loc=np.array([[0.52, 0.5]])),
        quadrature=QuadratureSettings(spacing=0.002)), (0.0,))
    return inputs


class TestColumnMajorKernel:
    """``loglik_terms`` and ``loglik_derivatives`` give the bits of the
    row-major kernel (a copy of it above), at a phi first kept by a value
    call and then extended, at a phi never seen, at eta = 0 and at
    eta = 1e6."""

    # (eta, logit theta, call), evaluated in this order on a fresh spec.
    STEPS = ((40.0, -1.4, "terms"), (40.0, -1.4, "derivatives"),
             (40.0, 2.0, "derivatives"), (40.0, 2.0, "terms"),
             (57.3, -1.4, "derivatives"), (57.3, 0.3, "terms"),
             (0.0, -1.4, "derivatives"), (0.0, 2.0, "terms"),
             (1e6, 2.0, "terms"), (1e6, -1.4, "derivatives"))

    @pytest.mark.parametrize("name", [
        *(f"{d} {s}" for d in ("study", "demo") for s in SCENARIOS),
        *(f"{m} {s}" for m in ("masked", "no captured")
          for s in ("fused-region", "fused-distance")),
        "trap-only complete"])
    def test_bits_match_the_row_major_kernel(self, name, row_major_inputs):
        spec, beta = row_major_inputs[name]
        spec = dataclasses.replace(spec)
        p = spec.prepared()
        if name.startswith("no captured"):
            assert len(p.captured.group) == 0
        if name == "trap-only complete":
            assert len(p.detected.group) == len(p.undetected.group) == 0
        for eta, logit_theta, call in self.STEPS:
            rp = RateParams(np.array(beta), eta, logit_theta)
            if call == "terms":
                got, want = loglik_terms(rp, spec), _row_major_terms(rp, spec)
                assert _hex(got.observation, got.exposure) == _hex(
                    want.observation, want.exposure), (eta, call)
            else:
                got = loglik_derivatives(rp, spec)
                want = _row_major_derivatives(rp, spec)
                assert _hex(*got) == _hex(*want), (eta, call)
