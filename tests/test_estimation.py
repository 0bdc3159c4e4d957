"""Optimizer, Hessian, Wald/delta-method inference, and full fits."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize
from scipy.special import ndtri

from fusedsdm import cli, estimation, experiment
from fusedsdm.cli import main
from fusedsdm.covariates import (
    CovariateField,
    GPConfig,
    ingest_raster,
    region_of,
    simulate_grf,
)
from fusedsdm.errors import ConfigError, DataError
from fusedsdm.estimation import (
    _LOG_PHI_INF,
    _Z95,
    FitSettings,
    abundance,
    delta_method_ci,
    fit,
    nelder_mead,
    numerical_hessian,
    wald_ci,
)
from fusedsdm.experiment import StudyConfig, _build_spec, build_study_design
from fusedsdm.geometry import (
    SampledRegion,
    StudyRegion,
    SurveyDesign,
    SurveyUnit,
    build_partitions,
    load_design,
)
from fusedsdm.likelihoods import (
    SCENARIO_ORDER,
    LikelihoodSpec,
    QuadratureSettings,
    RateParams,
    WorkingParams,
    design_tables,
    loglik,
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
from fusedsdm.optimize import projected_newton


class TestNelderMead:
    def test_shifted_quadratic(self):
        res = nelder_mead(lambda p: (p[0] - 1) ** 2 + (p[1] - 2) ** 2,
                          np.zeros(2))
        assert res.converged
        assert np.abs(res.x - [1.0, 2.0]).max() < 1e-6

    def test_rosenbrock(self):
        def rosen(p):
            return 100 * (p[1] - p[0] ** 2) ** 2 + (1 - p[0]) ** 2

        res = nelder_mead(rosen, np.array([-1.2, 1.0]), max_iter=5000)
        assert res.converged
        assert np.abs(res.x - 1.0).max() < 1e-4

    def test_constant_objective_terminates_by_simplex_size(self):
        res = nelder_mead(lambda p: 7.0, np.array([0.3, -0.4]))
        assert res.converged
        assert res.reason in ("f-tol", "x-tol")

    def test_never_returns_worse_than_start(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            A = A @ A.T + 0.1 * np.eye(3)
            b = rng.normal(size=3)
            start = rng.normal(size=3)

            def f(p):
                return float(p @ A @ p + b @ p)

            res = nelder_mead(f, start, max_iter=50)
            assert res.fun <= f(start)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ConfigError):
            nelder_mead(lambda p: float("nan"), np.zeros(2))

    def test_max_iter_flagged_not_fatal(self):
        def rosen(p):
            return 100 * (p[1] - p[0] ** 2) ** 2 + (1 - p[0]) ** 2

        res = nelder_mead(rosen, np.array([-1.2, 1.0]), max_iter=5)
        assert not res.converged
        assert res.reason == "max-iter"
        assert len(res.trace) == 5


class TestNumericalHessian:
    def test_univariate_square(self):
        H = numerical_hessian(lambda p: p[0] ** 2, np.array([0.3]))
        assert H[0, 0] == pytest.approx(2.0, abs=1e-4)

    def test_cross_term(self):
        H = numerical_hessian(lambda p: p[0] * p[1], np.array([0.2, -0.1]))
        assert H[0, 1] == pytest.approx(1.0, abs=1e-4)
        assert H[1, 0] == pytest.approx(1.0, abs=1e-4)

    def test_recovers_random_quadratic_forms(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            A = rng.normal(size=(4, 4))
            A = 0.5 * (A + A.T)

            def f(p):
                return 0.5 * float(p @ A @ p)

            x = rng.normal(size=4)
            H = numerical_hessian(f, x)
            assert np.abs(H - A).max() < 1e-4

    def test_symmetrized_output(self):
        rng = np.random.default_rng(5)

        def f(p):
            return float(np.sin(p[0]) * np.cos(p[1]) + p[0] ** 2)

        H = numerical_hessian(f, rng.normal(size=2))
        assert np.array_equal(H, H.T)


class TestWaldCI:
    def test_standard_normal_interval(self):
        lo, hi = wald_ci(0.0, 1.0)
        assert lo == pytest.approx(-1.959964, abs=1e-6)
        assert hi == pytest.approx(1.959964, abs=1e-6)

    def test_zero_se_degenerate(self):
        assert wald_ci(3.0, 0.0) == (3.0, 3.0)

    def test_hand_computed_interval(self):
        lo, hi = wald_ci(9.0, 0.5)
        assert lo == pytest.approx(9.0 - 1.959964 * 0.5, abs=1e-6)
        assert hi == pytest.approx(9.0 + 1.959964 * 0.5, abs=1e-6)

    def test_negative_se_rejected(self):
        with pytest.raises(ConfigError):
            wald_ci(0.0, -1.0)

    def test_numpy_inputs_give_python_floats(self):
        lo, hi = wald_ci(np.float64(9.0), np.float64(0.5))
        assert type(lo) is float and type(hi) is float

    def test_z95_is_the_normal_quantile_bit_for_bit(self):
        """The package writes Φ⁻¹(0.975) as a literal; it must be the double
        the reference special-function routine returns."""
        assert _Z95 == float(ndtri(0.975))
        assert wald_ci(0.0, 1.0) == (-_Z95, _Z95)


class TestAbundance:
    def test_unit_square_intercept_only(self):
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 0)))
        params = ModelParams(np.array([0.0]), 0.025, 0.2)
        lam_bar, grad = abundance(params, field)
        assert lam_bar == pytest.approx(1.0, abs=1e-12)
        assert grad == pytest.approx([1.0], abs=1e-12)

    def test_constant_zero_covariate(self):
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 1)))
        params = ModelParams(np.array([9.0, 1.0]), 0.025, 0.2)
        lam_bar, _ = abundance(params, field)
        assert lam_bar == pytest.approx(math.exp(9.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self, toy_field):
        params = ModelParams(np.array([2.0, 0.6]), 0.025, 0.2)
        lam_bar, grad = abundance(params, toy_field)
        h = 1e-6
        for j in range(2):
            beta_p = params.beta.copy()
            beta_m = params.beta.copy()
            beta_p[j] += h
            beta_m[j] -= h
            fd = (abundance(ModelParams(beta_p, 0.025, 0.2), toy_field)[0]
                  - abundance(ModelParams(beta_m, 0.025, 0.2), toy_field)[0]
                  ) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6)


class TestDeltaMethod:
    def test_one_dimensional_chain_rule(self):
        """lambda_bar = exp(beta), Var(beta) = s^2 -> se = exp(beta) s."""
        beta, s = 1.3, 0.2
        lam = math.exp(beta)
        est = delta_method_ci(lam, np.array([lam]),
                              np.array([[s ** 2]]))
        assert est.se == pytest.approx(lam * s, rel=1e-12)

    def test_zero_covariance_zero_width(self):
        est = delta_method_ci(5.0, np.array([2.0, 1.0]), np.zeros((4, 4)))
        assert est.se == 0.0
        assert est.interval == (5.0, 5.0)

    def test_log_interval_consistent(self):
        est = delta_method_ci(100.0, np.array([100.0]),
                              np.array([[0.01]]))
        width_log = est.log_interval[1] - est.log_interval[0]
        assert width_log == pytest.approx(2 * 1.959964 * est.se / 100.0,
                                          rel=1e-6)

    def test_matches_monte_carlo_sd_on_two_parameter_toy(self, toy_field):
        """Delta-method se within 10% of the Monte Carlo sd of lambda_bar
        over parametric resamples of (beta0, beta1)."""
        beta_hat = np.array([2.0, 0.6])
        cov = np.array([[0.0009, -0.0002, 0.0, 0.0],
                        [-0.0002, 0.0016, 0.0, 0.0],
                        [0.0, 0.0, 0.01, 0.0],
                        [0.0, 0.0, 0.0, 0.01]])
        params = ModelParams(beta_hat, 0.025, 0.2)
        lam_bar, grad = abundance(params, toy_field)
        est = delta_method_ci(lam_bar, grad, cov)
        rng = np.random.default_rng(17)
        draws = rng.multivariate_normal(beta_hat, cov[:2, :2], size=20_000)
        lam_draws = [abundance(ModelParams(b, 0.025, 0.2), toy_field)[0]
                     for b in draws]
        mc_sd = float(np.std(lam_draws))
        assert est.se == pytest.approx(mc_sd, rel=0.10)


@pytest.fixture(scope="module")
def study_replicate():
    """One simulated replicate of the full study configuration."""
    region = StudyRegion.unit_square()
    field = simulate_grf(region, GPConfig(seed=0), 0.01)
    truth = ModelParams(np.array([9.0, 1.0]), 0.025, 0.2)
    design = build_study_design(1)
    rng = np.random.default_rng(42)
    pattern = simulate_ippp(truth, field, region, rng)
    obs = simulate_observation(pattern, design, truth, rng)
    return {"region": region, "field": field, "truth": truth,
            "design": design, "obs": obs,
            "partial": degrade_to_partial(obs)}


class TestFit:
    def test_fused_distance_recovers_slope_within_3_se(self, study_replicate):
        s = study_replicate
        spec = LikelihoodSpec("fused-distance", s["design"], s["field"],
                              obs=s["partial"], region=s["region"])
        result = fit(spec, settings=FitSettings(n_starts=2))
        assert result.converged and result.has_covariance
        assert abs(result.params.beta[1] - 1.0) <= 3 * result.se["beta1"]
        assert abs(result.params.beta[0] - 9.0) <= 3 * result.se["beta0"]

    def test_complete_benchmark_recovers_beta_within_3_se(self,
                                                          study_replicate):
        s = study_replicate
        spec = LikelihoodSpec("complete", s["design"], s["field"],
                              obs=s["obs"], region=s["region"])
        result = fit(spec, settings=FitSettings(n_starts=2))
        assert result.converged and result.has_covariance
        assert abs(result.params.beta[0] - 9.0) <= 3 * result.se["beta0"]
        assert abs(result.params.beta[1] - 1.0) <= 3 * result.se["beta1"]

    def test_fused_distance_phi_profile_unimodal(self, study_replicate):
        """Profile loglik over log phi at fixed beta has a single peak."""
        s = study_replicate
        spec = LikelihoodSpec("fused-distance", s["design"], s["field"],
                              obs=s["partial"], region=s["region"])
        beta = np.array([9.0, 1.0])
        grid = np.linspace(-6.5, -1.5, 26)
        vals = [loglik(WorkingParams(beta, lp, -1.386), spec) for lp in grid]
        signs = np.sign(np.diff(vals))
        switches = (np.diff(signs) != 0).sum()
        assert switches <= 1

    def test_se_invariant_under_observation_reordering(self, study_replicate):
        s = study_replicate
        partial = s["partial"]
        rng = np.random.default_rng(9)
        pd, pc = rng.permutation(partial.n_ds), rng.permutation(partial.n_cr)
        shuffled = ObservationSet(ds_unit=partial.ds_unit[pd],
                                  ds_distance=partial.ds_distance[pd],
                                  cr_unit=partial.cr_unit[pc])
        results = []
        for data in (partial, shuffled):
            spec = LikelihoodSpec("fused-distance", s["design"], s["field"],
                                  obs=data, region=s["region"])
            results.append(fit(spec, settings=FitSettings(n_starts=1)))
        a, b = results
        assert a.se["beta0"] == pytest.approx(b.se["beta0"], rel=1e-6)
        assert a.se["beta1"] == pytest.approx(b.se["beta1"], rel=1e-6)
        assert a.abundance.se == pytest.approx(b.abundance.se, rel=1e-6)

    def test_report_shape(self, study_replicate):
        s = study_replicate
        spec = LikelihoodSpec("fused-distance", s["design"], s["field"],
                              obs=s["partial"], region=s["region"])
        report = fit(spec, settings=FitSettings(n_starts=1)).report()
        assert set(report["estimates"]) == {"beta0", "beta1", "phi", "theta"}
        assert "ci_width" in report
        assert "abundance" in report
        assert report["abundance"]["lambda_bar"] > 0

    def test_covariance_symmetric_nonnegative_diagonal(self, study_replicate):
        s = study_replicate
        spec = LikelihoodSpec("complete", s["design"], s["field"],
                              obs=s["obs"], region=s["region"])
        result = fit(spec, settings=FitSettings(n_starts=1))
        cov = result.covariance
        assert np.array_equal(cov, cov.T)
        assert (np.diag(cov) >= 0).all()
        for lo, hi in result.cis.values():
            assert not (lo > hi)


@pytest.fixture(scope="module")
def default_study_specs():
    """The five specs of replicate ``rep`` of the default study, built as
    ``run_study`` builds them."""
    config = StudyConfig()
    field = simulate_grf(config.region, config.gp, config.grid_resolution)
    partitions = build_partitions(config.region, config.partitions_nx,
                                  config.partitions_ny, config.design)
    design_tables(config.design, field, config.region, config.quadrature,
                  partitions, config.scenarios)

    def specs(rep):
        rng = np.random.default_rng(config.root_seed ^ rep)
        pattern = simulate_ippp(config.truth, field, config.region, rng)
        obs = simulate_observation(pattern, config.design, config.truth, rng)
        partial = degrade_to_partial(obs)
        counts = aggregate_counts(partial, partitions, config.design)
        return {s: _build_spec(s, config.design, field, config.region,
                               partitions, config.quadrature, obs, partial,
                               counts)
                for s in config.scenarios}

    return specs


def _phi_inf_maximum(spec, result) -> float:
    """The log-likelihood maximized over (beta, logit theta) with phi = inf
    (eta = 1/phi pinned at 0), by scipy's Nelder-Mead from the fit's point
    and from the study truth."""
    def nll(v):
        return -loglik(WorkingParams(v[:-1], _LOG_PHI_INF, v[-1]), spec)

    best = -math.inf
    for x0 in ([*result.working.beta, result.working.logit_theta],
               [9.0, 1.0, math.log(0.2 / 0.8)]):
        r = minimize(nll, np.asarray(x0, dtype=float), method="Nelder-Mead",
                     options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": 20000})
        best = max(best, -float(r.fun))
    return best


class TestDetectionRateFit:
    """The detection scale is fitted on eta = 1/phi over its range
    [0, inf), and log phi is reported capped where the likelihood itself
    reads phi as inf."""

    def test_flat_phi_fit_reports_its_maximum(self, default_study_specs):
        """Replicate 0 fused-distance: eta is within one SE of 0, and the
        fit used to move to a flat-scan point 0.975 below its maximum."""
        spec = default_study_specs(0)["fused-distance"]
        result = fit(spec, settings=FitSettings(n_starts=2))
        assert result.loglik >= _phi_inf_maximum(spec, result) - 1e-6
        assert result.loglik == pytest.approx(loglik(result.working, spec),
                                              rel=1e-9, abs=0.0)
        assert result.has_covariance
        lo, hi = result.cis["log_phi"]
        assert math.isfinite(lo) and math.isfinite(hi)
        assert lo <= result.working.log_phi <= hi
        assert "weakly identified" not in result.message

    def test_rate_past_its_bound_is_reported_at_phi_inf(self,
                                                        default_study_specs):
        """Replicate 0 fused-region: the maximum over eta lies below 0, so
        eta is held at 0 (phi = inf), and log phi is reported where the
        likelihood is that of eta = 0 to the bit."""
        spec = default_study_specs(0)["fused-region"]
        result = fit(spec, settings=FitSettings(n_starts=2))
        wp = result.working
        log_phi = wp.log_phi
        assert log_phi == _LOG_PHI_INF
        assert result.loglik == loglik(
            RateParams(wp.beta, 0.0, wp.logit_theta), spec)
        assert math.log(result.params.phi) == log_phi
        assert result.has_covariance
        assert np.isfinite(result.covariance).all()
        assert result.se["eta"] > 0
        lo, hi = result.cis["log_phi"]
        assert math.isfinite(lo) and lo <= log_phi == hi
        assert "bound" in result.message
        assert result.loglik == loglik(result.working, spec)

        # eta's variance at the bound is the inverse of its own curvature,
        # here resolved with a step of a quarter SE. A Hessian step of
        # 1e-4 * max(1, |eta|) reads it 7 % high.
        def nll_at(eta):
            return -loglik(RateParams(wp.beta, eta, wp.logit_theta), spec)

        h = 10.0
        curvature = (nll_at(h) - 2.0 * nll_at(0.0) + nll_at(-h)) / h ** 2
        assert result.se["eta"] == pytest.approx(curvature ** -0.5, rel=1e-3)
        assert result.loglik >= _phi_inf_maximum(spec, result) - 1e-6


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "demo")


def _refuse_constant(name):
    raise ValueError(f"fit_report.json holds {name}")


@pytest.fixture(scope="module")
def demo_reports(tmp_path_factory):
    """fit_report.json text of the five demo-fixture fits with the config of
    acceptance criterion 8 (partitions [4, 2], two starts)."""
    tmp = tmp_path_factory.mktemp("demo_fits")
    texts = {}
    for scenario in SCENARIO_ORDER:
        out = tmp / scenario
        cfg = tmp / f"{scenario}.json"
        cfg.write_text(json.dumps({
            "scenario": scenario,
            "observations": os.path.join(FIXTURES, "observations.csv"),
            "design": os.path.join(FIXTURES, "design.csv"),
            "raster": os.path.join(FIXTURES, "covariate.asc"),
            "partitions": [4, 2],
            "fit": {"n_starts": 2},
            "out": str(out),
        }))
        assert main(["fit", "--config", str(cfg)]) == 0
        texts[scenario] = (out / "fit_report.json").read_text()
    return texts


class TestDemoFitReports:
    def test_aggregated_cos_has_covariance(self, demo_reports):
        """eta's curvature there is about 1e-4; a Hessian step of
        1e-4 * max(1, |eta|) cannot resolve it."""
        report = json.loads(demo_reports["aggregated-cos"])
        assert "ci_width" in report
        assert "se" in report["abundance"]

    def test_reports_hold_only_finite_numbers(self, demo_reports):
        for scenario, text in demo_reports.items():
            json.loads(text, parse_constant=_refuse_constant)

    def test_log_phi_interval_finite_and_holds_estimate(self, demo_reports):
        for scenario, text in demo_reports.items():
            report = json.loads(text)
            if "ci" not in report:
                continue
            lo, hi = report["ci"]["log_phi"]
            log_phi = math.log(report["estimates"]["phi"])
            assert math.isfinite(lo) and math.isfinite(hi), scenario
            assert lo <= log_phi <= hi, scenario
            assert "phi only weakly identified" not in report["message"]


def _scipy_maximum(spec, x_reported, x_truth) -> float:
    """The best log-likelihood scipy's Nelder-Mead reaches on the working
    scale from the reported point and from the truth."""
    best = -math.inf
    for x0 in (x_reported, x_truth):
        r = minimize(lambda v: -loglik(WorkingParams.from_vector(v), spec),
                     np.asarray(x0, dtype=float), method="Nelder-Mead",
                     options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": 20000})
        best = max(best, -float(r.fun))
    return best


class TestCaptureProbabilityAtItsBound:
    def test_demo_aggregated_farr_reports_its_maximum(self, demo_reports):
        """theta-hat sits at its bound 0 here. Searched on logit theta it
        lay at -inf, and the fit used to report a refit with logit theta
        pinned at -1, 0.53 below the maximum."""
        report = json.loads(demo_reports["aggregated-farr"])
        design = load_design(os.path.join(FIXTURES, "design.csv"))
        field = ingest_raster([os.path.join(FIXTURES, "covariate.asc")])
        region = region_of(field)
        obs = load_observations(os.path.join(FIXTURES, "observations.csv"))
        partitions = build_partitions(region, 4, 2, design)
        spec = LikelihoodSpec(
            "aggregated-farr", design, field, region=region,
            counts=aggregate_counts(obs, partitions, design),
            partitions=partitions)
        with open(os.path.join(FIXTURES, "simulate_config.json")) as fh:
            t = json.load(fh)["truth"]
        truth = WorkingParams.from_model(
            ModelParams(np.array(t["beta"]), t["phi"], t["theta"]))
        est = report["estimates"]
        wp = WorkingParams.from_model(ModelParams(
            np.array([est["beta0"], est["beta1"]]), est["phi"], est["theta"]))
        assert report["loglik"] == pytest.approx(loglik(wp, spec), rel=1e-12)
        best = _scipy_maximum(spec, wp.as_vector(), truth.as_vector())
        assert report["loglik"] >= best - 0.01
        assert "theta held at its bound 0" in report["message"]
        lo, hi = report["ci"]["logit_theta"]
        assert math.isfinite(lo) and math.isfinite(hi)
        assert lo <= wp.logit_theta <= hi
        assert lo == wp.logit_theta < hi


class TestProjectedNewton:
    def test_quadratic_over_a_box_meets_its_kkt_conditions(self):
        """min 0.5 x'Ax - b'x over a box whose free minimum lies outside
        it: the result is feasible, its free gradient vanishes and each
        coordinate at a bound is pushed against it."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            M = rng.normal(size=(4, 4))
            A = M @ M.T + 0.5 * np.eye(4)
            b = rng.normal(0.0, 3.0, 4)
            lo, hi = np.array([-np.inf, 0.0, 0.0, -1.0]), np.array(
                [np.inf, np.inf, 1.0, 1.0])

            def value(x):
                return x, 0.5 * x @ A @ x - b @ x

            def derivatives(x):
                return 0.5 * x @ A @ x - b @ x, A @ x - b, A

            x, _, _, reason = projected_newton(
                value, derivatives, np.array([0.0, 0.5, 0.5, 0.0]), lo, hi)
            g = A @ x - b
            assert reason == "converged"
            assert (lo <= x).all() and (x <= hi).all()
            at_lo, at_hi = x <= lo, x >= hi
            assert np.abs(g[~at_lo & ~at_hi]).max(initial=0.0) < 1e-8
            assert (g[at_lo] >= -1e-8).all() and (g[at_hi] <= 1e-8).all()

    def test_full_newton_step_is_the_only_trial_on_a_quadratic(self):
        """On a strictly convex quadratic whose minimum lies inside the
        box, the full Newton step lands on the minimum and meets Armijo at
        once: one value call, and convergence at the second iteration."""
        A = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.5]])
        b = np.array([1.0, -2.0, 0.5])
        lo, hi = np.full(3, -10.0), np.full(3, 10.0)
        trials = []

        def value(x):
            trials.append(x.copy())
            return x, 0.5 * x @ A @ x - b @ x

        def derivatives(x):
            return 0.5 * x @ A @ x - b @ x, A @ x - b, A

        x, _, it, reason = projected_newton(value, derivatives, np.zeros(3),
                                            lo, hi)
        assert (reason, it, len(trials)) == ("converged", 2, 1)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-12)

    def test_a_full_step_that_fails_armijo_is_halved(self):
        """sum sqrt(1 + x^2) is convex, but its Newton step -x(1 + x^2)
        overshoots from |x| > 1: the full step is tried and refused, and
        halving still reaches the minimum at 0."""
        lo, hi = np.full(2, -10.0), np.full(2, 10.0)
        trials = []

        def f(x):
            return float(np.sqrt(1.0 + x * x).sum())

        def value(x):
            trials.append((x.copy(), f(x)))
            return x, f(x)

        def derivatives(x):
            r = np.sqrt(1.0 + x * x)
            return f(x), x / r, np.diag(r ** -3)

        start = np.array([2.0, -3.0])
        x, _, it, reason = projected_newton(value, derivatives, start, lo, hi)
        assert reason == "converged"
        np.testing.assert_allclose(trials[0][0], np.clip(-start ** 3, lo, hi))
        assert trials[0][1] > f(start)
        assert len(trials) > it - 1
        assert np.abs(x).max() < 1e-8

    @pytest.mark.parametrize("case,reason", (
        ("nan gradient", "non-finite derivatives"),
        ("uphill gradient", "no descent"),
        ("one iteration", "max-iter")))
    def test_non_converged_exit_names_its_reason(self, case, reason):
        """On sum sqrt(1 + x^2), which takes several iterations from
        (0.5, -0.3): a NaN gradient stops at once; a gradient of the wrong
        sign sends every trial uphill, so Armijo never holds; and
        max_iter=1 stops before convergence. Each returns a point whose
        value is not above the start's."""
        lo, hi = np.full(2, -10.0), np.full(2, 10.0)

        def f(x):
            return float(np.sqrt(1.0 + x * x).sum())

        def value(x):
            return x, f(x)

        def derivatives(x):
            r = np.sqrt(1.0 + x * x)
            g = {"nan gradient": np.full(2, np.nan),
                 "uphill gradient": -x / r}.get(case, x / r)
            return f(x), g, np.diag(r ** -3)

        start = np.array([0.5, -0.3])
        x, fx, _, got = projected_newton(
            value, derivatives, start, lo, hi,
            max_iter=1 if case == "one iteration" else 100)
        assert got == reason
        assert fx == f(x) <= f(start)


class TestFitSettings:
    """A setting that ``fit`` would ignore or crash on is refused by name."""

    BAD = (("n_starts", -3), ("n_starts", 0))

    @pytest.mark.parametrize("name,value", BAD)
    def test_fit_refuses(self, name, value, toy_specs):
        with pytest.raises(ConfigError, match=name):
            fit(toy_specs["fused-region"],
                settings=FitSettings(**{"n_starts": 2, name: value}))

    @pytest.mark.parametrize("name,value", BAD)
    def test_study_config_refuses(self, name, value):
        with pytest.raises(ConfigError, match=name):
            StudyConfig(replicates=1,
                        fit_settings=FitSettings(**{name: value}))


class TestTracedNames:
    """The benchmark's traced run wraps names by module attribute; a fit
    has to reach them through those attributes."""

    def test_fit_evaluates_through_estimation_attributes(self, monkeypatch,
                                                         toy_specs):
        calls = {"loglik": 0, "hessian": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(estimation, "loglik",
                            counting("loglik", estimation.loglik))
        monkeypatch.setattr(estimation, "numerical_hessian",
                            counting("hessian", estimation.numerical_hessian))
        result = estimation.fit(toy_specs["fused-distance"])
        assert calls["hessian"] == 1
        assert calls["loglik"] > 1
        assert result.converged

    @pytest.mark.parametrize("module,run", (
        (cli, "cli"), (experiment, "experiment")))
    def test_commands_fit_through_their_module_attributes(
            self, module, run, monkeypatch, tmp_path):
        calls = {"fit": 0, "LikelihoodSpec": 0}
        for name in calls:
            fn = getattr(module, name)

            def wrapper(*args, name=name, fn=fn, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        if run == "cli":
            cfg = tmp_path / "fit.json"
            cfg.write_text(json.dumps({
                "scenario": "fused-distance",
                "observations": os.path.join(FIXTURES, "observations.csv"),
                "design": os.path.join(FIXTURES, "design.csv"),
                "raster": os.path.join(FIXTURES, "covariate.asc"),
                "partitions": [4, 2], "out": str(tmp_path / "out")}))
            assert main(["fit", "--config", str(cfg)]) == 0
            assert calls == {"fit": 1, "LikelihoodSpec": 1}
        else:
            experiment.run_study(StudyConfig(
                replicates=1, grid_resolution=0.05,
                fit_settings=FitSettings()))
            assert calls == {"fit": 5, "LikelihoodSpec": 5}


# The random designs' 3 x 3 lattice of cells, one unit at most per cell.
_CELL = 1.0 / 3.0


@st.composite
def random_designs(draw):
    """A region, possibly masked below a sloping line, and a design of
    points, transects and traps, at least one of them a DS unit and one a
    trap. Each unit lies in its own cell of a 3 x 3 lattice, so no two
    overlap, with its reference point inside the region; the mask may cut
    off part of it."""
    top = draw(st.one_of(st.none(), st.tuples(st.floats(0.4, 1.0),
                                              st.floats(0.4, 1.0))))
    region = StudyRegion(0.0, 0.0, 1.0, 1.0, mask=None if top is None else (
        (0.0, 0.0), (1.0, 0.0), (1.0, top[1]), (0.0, top[0])))
    units = []
    for cell in range(9):
        kind = draw(st.sampled_from((None, "point", "transect", "trap")))
        if kind is None:
            continue
        cx, cy = (cell % 3 + 0.5) * _CELL, (cell // 3 + 0.5) * _CELL
        radius = draw(st.floats(0.02, 0.08))
        half = draw(st.floats(0.02, 0.06)) if kind == "transect" else 0.0
        room = _CELL / 2 - radius - half - 0.01
        x = cx + draw(st.floats(-room, room))
        y = cy + draw(st.floats(-room, room))
        if kind == "transect":
            turn = draw(st.floats(-1.0, 1.0))
            xy = np.array([[x - half, y - half * turn], [x, y],
                           [x + half, y + half * turn]])
        else:
            xy = np.array([x, y])
        if region.contains(np.array([x, y]))[0]:
            units.append(SampledRegion(
                SurveyUnit(f"{kind[0]}{cell}", kind, xy), radius))
    kinds = {r.unit.kind for r in units}
    assume("trap" in kinds and kinds & {"point", "transect"})
    return region, SurveyDesign(tuple(units))


def _fit_random_design(region, design, seed, beta1, phi, theta):
    """One simulated dataset on ``design`` and each scenario's fit of it, or
    the ConfigError or DataError that the fit raised."""
    rng = np.random.default_rng(seed)
    field = CovariateField(0.0, 0.0, 0.1, 0.1,
                           rng.normal(0.0, 1.0, (10, 10, 1)))
    truth = ModelParams(np.array([8.0, beta1]), phi, theta)
    partitions = build_partitions(region, 4, 4, design)
    obs = simulate_observation(simulate_ippp(truth, field, region, rng),
                               design, truth, rng)
    partial = degrade_to_partial(obs)
    counts = aggregate_counts(partial, partitions, design)
    results = {}
    for scenario in SCENARIO_ORDER:
        try:
            results[scenario] = fit(_build_spec(
                scenario, design, field, region, partitions,
                QuadratureSettings(), obs, partial, counts))
        except (ConfigError, DataError) as exc:
            results[scenario] = exc
    return obs, results


class TestRandomDesigns:
    @settings(max_examples=10, deadline=None)
    @given(setup=random_designs(), seed=st.integers(0, 2 ** 16),
           beta1=st.floats(-1.0, 1.0), phi=st.sampled_from((0.002, 0.02)),
           theta=st.floats(0.2, 0.8))
    def test_every_scenario_fits_or_names_a_unit(self, setup, seed, beta1,
                                                 phi, theta):
        """simulate -> LikelihoodSpec -> fit ends with a finite loglik in
        all five scenarios, or with a ConfigError or DataError that names
        one of the design's units."""
        region, design = setup
        ids = [r.unit.id for r in design.regions]
        _, results = _fit_random_design(region, design, seed, beta1, phi,
                                        theta)
        for scenario, result in results.items():
            if isinstance(result, Exception):
                assert any(f"'{uid}'" in str(result) for uid in ids), result
            else:
                assert math.isfinite(result.loglik), (scenario,
                                                      result.message)

    def test_one_capture_leaves_the_lower_theta_bound(self):
        """A design the property above drew: 183 DS detections and one
        capture. The first Newton step of the complete and fused-distance
        fits crosses q's lower bound and steps onto it. There theta has to
        be 0, so that the capture makes -loglik infinite in effect and the
        step is refused; at theta = 2.2e-19 (_q_of(0.0) through _theta_of)
        the step was taken and q could not move again (complete ended "no
        descent" 27 below the maximum)."""
        def unit(uid, kind, xy, radius):
            return SampledRegion(SurveyUnit(uid, kind, np.array(xy)), radius)

        design = SurveyDesign((
            unit("t0", "transect", [[0.12666666666666665, 0.16666666666666666],
                                    [0.16666666666666666, 0.16666666666666666],
                                    [0.20666666666666667, 0.16666666666666666]],
                 0.022094856185399175),
            unit("t1", "transect", [[0.41943127818056736, 0.1230116812424264],
                                    [0.45923042550224036, 0.1520334072585527],
                                    [0.49902957282391336, 0.18105513327467898]],
                 0.02),
            unit("t2", "transect", [[0.8140282821363396, 0.10656266240319817],
                                    [0.8599668614467854, 0.14790738378259938],
                                    [0.9059054407572311, 0.18925210516200058]],
                 0.07341507743949302),
            unit("t4", "transect", [[0.45932317511712023, 0.5355258515551119],
                                    [0.4999999999999998, 0.5343920919498487],
                                    [0.5406768248828793, 0.5332583323445855]],
                 0.08),
            unit("t5", "trap", [0.8054609610789202, 0.4932105517395978], 0.02),
            unit("p8", "point", [0.8920306038458394, 0.7738863633954687],
                 0.07143587962608397)))
        obs, results = _fit_random_design(
            StudyRegion.unit_square(), design, 993, 0.6275845986593844, 0.02,
            0.5387162826227287)
        assert (obs.n_ds, obs.n_cr) == (183, 1)
        assert all(r.converged for r in results.values()), {
            s: r.message for s, r in results.items()}
        for s in ("complete", "fused-distance"):
            assert 0.1 < results[s].params.theta < 0.2
        assert results["complete"].loglik == pytest.approx(1337.7614, abs=1e-3)
        assert estimation._theta_of(estimation._Q_ZERO) == 0.0

    def test_transect_midpoint_cell_is_sampled(self):
        """A design the property above drew, in hex. t4's reference point,
        where aggregate_counts files its observations, rounds to x = 0.5 -
        2^-54 and falls in cell 9 of the 4 x 4 partition, which the march
        along t4 (cells 5 and 10) never flagged. So both aggregated specs
        refused the data ("nonzero count in an unsampled partition"),
        naming no unit."""
        h = float.fromhex
        t4 = SurveyUnit("t4", "transect", np.array([
            [h("0x1.d4460c352f315p-2"), h("0x1.f511830d4bcc5p-2")],
            [0.5, 0.5],
            [h("0x1.15dcf9e568675p-1"), h("0x1.05773e795a19dp-1")]]))
        design = SurveyDesign((
            SampledRegion(SurveyUnit("t1", "trap", np.array(
                [0.5, h("0x1.5555555555555p-3")])), 0.0625),
            SampledRegion(t4, 0.0625)))
        region = StudyRegion.unit_square()
        partitions = build_partitions(region, 4, 4, design)
        assert t4.reference_point[0] == h("0x1.fffffffffffffp-2")
        assert partitions.cell_index(t4.reference_point[None, :])[0] == 9
        assert np.flatnonzero(partitions.sampled).tolist() == [2, 5, 9, 10]
        _, results = _fit_random_design(region, design, 0, 0.0, 0.002, 0.5)
        for scenario, result in results.items():
            assert not isinstance(result, Exception), (scenario, result)
            assert math.isfinite(result.loglik), scenario
