"""Maximum-likelihood fitting and uncertainty quantification.

A fit is a projected Newton search with exact derivatives over the model's
range; it needs nothing but this package and numpy. Standard errors come
from inverting a central-difference Hessian of the negative log-likelihood;
abundance inference propagates the covariance through the intensity
integral with a first-order delta method, on the natural and log scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariates import CovariateField, region_of
from .errors import ConfigError
from .geometry import StudyRegion
from .likelihoods import (
    LikelihoodSpec,
    RateParams,
    WorkingParams,
    _EXP_CAP,
    _exp_clip,
    _sigmoid,
    loglik,
    loglik_derivatives,
    loglik_terms,
)
from .optimize import (  # noqa: F401  (nelder_mead is re-exported)
    nelder_mead,
    numerical_hessian,
    projected_newton,
)
from .pointprocess import ModelParams

# The two-sided normal quantile of every 95% interval, Φ⁻¹(0.975) =
# 1.959963984540054236...: the double that Cephes' ndtri(0.975) returns
# (within 1 ulp of the exact value). Written out so that the package needs
# no special-function library; the tests pin it to that routine bit for bit.
_Z95 = 1.959963984540054
# Half-width of the uniform jitter around the start of each further run,
# and the seed of those starts.
_START_JITTER = 1.0
_START_SEED = 0
# The iteration cap of each Newton run; runs on the acceptance study take
# 15-97 iterations.
_MAX_ITER = 4000
# theta is searched as q, theta = (1 + 2 eps) sigmoid(q) - eps (_theta_of).
_THETA_EPS = 1e-3


def wald_ci(estimate: float, se: float) -> tuple[float, float]:
    """estimate +/- z * se with the two-sided 95% normal quantile."""
    if se < 0:
        raise ConfigError("standard error must be nonnegative")
    return (float(estimate - _Z95 * se), float(estimate + _Z95 * se))


def abundance(params: ModelParams, field: CovariateField,
              region: StudyRegion | None = None):
    """Expected abundance over the region and its gradient w.r.t. beta.

    Integrates exp(x(s)'beta) over the field's native grid (cells whose
    centers fall in the region), which is exact for the piecewise-constant
    field.
    """
    if region is None:
        region = region_of(field)
    Xk = field.design_matrix()[region.contains(field.cell_centers())]
    lam = np.exp(Xk @ params.beta) * field.cell_area
    return float(lam.sum()), Xk.T @ lam


@dataclass(frozen=True)
class AbundanceEstimate:
    value: float
    se: float
    interval: tuple[float, float]
    log_interval: tuple[float, float]


def delta_method_ci(lambda_bar: float, gradient: np.ndarray,
                    covariance: np.ndarray) -> AbundanceEstimate:
    """First-order 95% delta-method interval for the abundance.

    ``gradient`` is d(lambda_bar)/d(beta); since the working scale leaves
    beta untransformed and phi, theta do not enter the abundance, the
    gradient is zero-padded to the full working vector.
    """
    g = np.zeros(covariance.shape[0])
    g[: len(gradient)] = gradient
    se = math.sqrt(max(float(g @ covariance @ g), 0.0))
    log_interval = (wald_ci(math.log(lambda_bar), se / lambda_bar)
                    if lambda_bar > 0 else (-math.inf, math.inf))
    return AbundanceEstimate(lambda_bar, se, wald_ci(lambda_bar, se),
                             log_interval)


@dataclass(frozen=True)
class FitSettings:
    """The number of Newton runs: the first run starts at beta = 0,
    phi = (w/2)^2 with w the largest DS radius, and theta = 1/2, each
    further one from it jittered uniformly by ±``_START_JITTER`` on every
    working coordinate; the best converged run wins. 95% intervals."""

    n_starts: int = 1

    def __post_init__(self):
        if self.n_starts < 1:
            raise ConfigError(f"n_starts must be >= 1, got {self.n_starts}")


@dataclass
class FitResult:
    """Estimates, covariance, and abundance inference.

    ``working`` is the reported point (beta, log phi, logit theta), with
    stand-ins for phi = inf and theta = 0 or 1 (see ``fit``), and ``loglik``
    is ``loglik(working, spec)``; ``iterations`` counts the Newton
    iterations of every run. ``covariance`` is on (beta, eta = 1/phi,
    logit theta), or theta itself when theta is at a bound, and ``se`` is
    keyed by those coordinates; ``cis`` by the working names.
    """

    working: WorkingParams
    params: ModelParams
    loglik: float
    converged: bool
    iterations: int
    message: str
    covariance: np.ndarray | None
    se: dict | None
    cis: dict | None
    abundance: AbundanceEstimate | None

    @property
    def has_covariance(self) -> bool:
        return self.covariance is not None

    def report(self) -> dict:
        p, a = self.params, self.abundance
        out = {"converged": self.converged, "iterations": self.iterations,
               "message": self.message, "loglik": self.loglik,
               "estimates": {**{f"beta{i}": float(b)
                                for i, b in enumerate(p.beta)},
                             "phi": p.phi, "theta": p.theta}}
        if self.se is not None:
            out.update(se=dict(self.se),
                       ci={k: list(v) for k, v in self.cis.items()},
                       ci_width={k: float(v[1] - v[0])
                                 for k, v in self.cis.items()})
        if a is not None:
            ab = {"lambda_bar": a.value, "log_lambda_bar": (
                math.log(a.value) if a.value > 0 else None)}
            if self.se is not None:
                ab.update(se=a.se, ci=list(a.interval),
                          log_ci=list(a.log_interval),
                          ci_width=a.interval[1] - a.interval[0],
                          log_ci_width=a.log_interval[1] - a.log_interval[0])
            out["abundance"] = ab
        return out


def _logit(t: float) -> float:
    if t <= 0.0:
        return -math.inf
    return math.inf if t >= 1.0 else math.log(t) - math.log1p(-t)


def _round_trip(x: float, there, back) -> float:
    """A double near x that back(there(.)) gives back unchanged, so that a
    value reported as there(x) reads back as itself."""
    for _ in range(8):
        if (y := back(there(x))) == x:
            break
        x = y
    return x


def _theta_of(q: float) -> float:
    return min(max((1 + 2 * _THETA_EPS) * _sigmoid(q) - _THETA_EPS, 0.0), 1.0)


def _q_of(theta: float) -> float:
    return _logit((theta + _THETA_EPS) / (1.0 + 2.0 * _THETA_EPS))


# The reported log phi of phi = inf: past _EXP_CAP the likelihood is that of
# phi = inf to the bit.
_LOG_PHI_INF = _round_trip(_EXP_CAP, math.exp, math.log)
# The reported logit theta of theta = 0 and 1. sigmoid(-30) = 9.4e-14, so
# theta * T there is within float noise of its value at the bound.
_LOGIT_STAND_INS = tuple(_round_trip(x, _sigmoid, _logit) for x in (-30.0, 30.0))
# q's lower end, where theta is 0. At _q_of(0.0) theta is 2.2e-19, which a
# capture does not forbid and from which q's Newton steps are below one ulp.
_Q_ZERO = float(np.nextafter(_q_of(0.0), -np.inf))


def _invert_at_bound(H: np.ndarray, held: list) -> np.ndarray | None:
    """H inverted with the coordinates ``held`` at their bounds: the other
    coordinates' block inverted, and each held one's variance the inverse
    of its curvature. None unless finite with a nonnegative diagonal."""
    free = np.ones(len(H), dtype=bool)
    free[held] = False
    cov = np.zeros_like(H)
    try:
        cov[np.ix_(free, free)] = np.linalg.inv(H[np.ix_(free, free)])
    except np.linalg.LinAlgError:
        return None
    with np.errstate(divide="ignore"):
        cov[held, held] = 1.0 / H[held, held]
    cov = 0.5 * (cov + cov.T)
    return cov if np.isfinite(cov).all() and (np.diag(cov) >= 0).all() else None


def fit(spec: LikelihoodSpec, settings: FitSettings | None = None) -> FitResult:
    """Maximize the scenario log-likelihood and attach Wald/delta inference.

    Each run (see ``FitSettings`` for its start) is one ``projected_newton``
    search with the exact derivatives of ``loglik_derivatives`` over the
    model's range, the box eta = 1/phi >= 0, 0 <= theta <= 1. The
    covariance inverts a central-difference Hessian on (beta, eta, logit
    theta) at the reported point, with a coordinate at its bound held there
    (``_invert_at_bound``); theta's own curvature there is taken on its own
    scale, since on the logit scale it vanishes. A singular Hessian leaves
    the covariance out.

    log phi is reported as min(-log eta, ``_LOG_PHI_INF``), which stands in
    for phi = inf with the likelihood's own value there, and the eta
    interval is mapped through the same rule. logit theta is reported
    within ``_LOGIT_STAND_INS``, which stand in for theta = 0 and 1, and at
    a bound its interval is the theta interval mapped through the logit.
    Every stand-in reads back as itself through phi and theta.
    """
    settings = settings or FitSettings()
    k = 1 + spec.field.q
    w_ds = max((r.radius for r in spec.design.ds_regions), default=0.1)
    start = np.r_[np.zeros(k), math.log(w_ds ** 2 / 4.0), 0.0]
    max_d2 = spec.prepared().max_d2
    # The search is on z = (beta, r, q): eta = unit * expm1(r), which is
    # eta * max d^2 near 0 and log eta for large eta, and theta = _theta_of(q)
    # (logit theta inside, theta near the bounds). Without a DS distance phi
    # does not enter the likelihood, so r keeps its start.
    unit = 1.0 / max_d2 if max_d2 > 0 else 1.0
    n_total = float(spec.prepared().n.sum())

    def rate(v):
        return RateParams(v[:k], math.expm1(min(v[k], _EXP_CAP)) * unit,
                          _logit(_theta_of(v[k + 1])))

    def profiled(v):
        # v with beta0 at its maximum given the rest, and -loglik there:
        # moving beta0 by c adds c sum n to the observation term and scales
        # the exposure by exp(c), so the maximum is at log(sum n / exposure).
        terms = loglik_terms(rate(v), spec)
        c = math.log(n_total / terms.exposure) if (
            n_total > 0 and 0 < terms.exposure < math.inf) else 0.0
        v = v.copy()
        v[0] += c
        return v, math.exp(c) * terms.exposure - terms.observation - c * n_total

    def derivatives(v):
        value, g, H = loglik_derivatives(rate(v), spec)
        t = _sigmoid(v[k + 1])
        jac = np.array([1.0] * k + [_exp_clip(v[k]) * unit,
                                    (1.0 + 2.0 * _THETA_EPS) * t * (1.0 - t)])
        H = H * np.outer(jac, jac)
        H[k, k] += g[k] * jac[k]
        H[k + 1, k + 1] += g[k + 1] * jac[k + 1] * (1.0 - 2.0 * t)
        return -value, -g * jac, -H

    def run(x):
        z = profiled(np.r_[x[:k], math.log1p(_exp_clip(-x[k]) / unit),
                           _q_of(_sigmoid(x[-1]))])[0]
        free = max_d2 > 0
        lo = np.r_[np.full(k, -np.inf), 0.0 if free else z[k], _Q_ZERO]
        hi = np.r_[np.full(k, np.inf), math.inf if free else z[k], _q_of(1.0)]
        return projected_newton(profiled, derivatives, z, lo, hi,
                                max_iter=_MAX_ITER)

    rng = np.random.default_rng(_START_SEED)
    runs = [run(x) for x in [start] + [
        start + rng.uniform(-_START_JITTER, _START_JITTER, k + 2)
        for _ in range(settings.n_starts - 1)]]
    z, _, _, reason = min(runs, key=lambda r: (r[3] != "converged", r[1]))
    u, theta = math.expm1(z[k]), _theta_of(z[k + 1])
    eta = u * unit

    def log_phi_of(e: float) -> float:
        return _LOG_PHI_INF if e <= 0 else min(-math.log(e), _LOG_PHI_INF)

    def logit_of(t: float) -> float:
        return min(max(_logit(t), _LOGIT_STAND_INS[0]), _LOGIT_STAND_INS[1])

    logit_theta = logit_of(theta)
    theta_held = logit_theta in _LOGIT_STAND_INS
    wp_hat = WorkingParams(z[:k], log_phi_of(eta), logit_theta)
    notes = []
    cov = None
    if max_d2 <= 0:
        notes.append("no DS distances, so phi does not enter the likelihood")
    else:
        scale = np.r_[np.ones(k), unit, 1.0]
        x = np.r_[z[:k], u, logit_theta]
        H = numerical_hessian(
            lambda v: -loglik(RateParams.from_vector(v * scale), spec), x)
        if theta_held:
            H[k + 1, k + 1] = -loglik_derivatives(
                RateParams(z[:k], eta, _logit(theta)), spec)[2][k + 1, k + 1]
        cov = _invert_at_bound(H, [i for i, at_bound in (
            (k, eta <= 0), (k + 1, theta_held)) if at_bound])
        if cov is not None:
            cov = cov * np.outer(scale, scale)
        if eta <= 0:
            notes.append("eta = 1/phi held at its bound 0 (the maximum lies "
                         f"past it), log phi reported at {_LOG_PHI_INF:g}")
    if theta_held:
        notes.append(f"theta held at its bound {round(theta)}, logit theta "
                     f"reported at {logit_theta:.6g}")
    message = "; ".join([reason if reason == "converged"
                         else f"not converged ({reason})", *notes])
    if cov is None:
        message += "; singular Hessian, covariance unavailable"

    params_hat = wp_hat.to_model()
    lam_bar, grad = abundance(params_hat, spec.field, spec.region)
    se = cis = None
    ab = AbundanceEstimate(lam_bar, float("nan"), (float("nan"),) * 2,
                           (float("nan"),) * 2)
    if cov is not None:
        names = [*wp_hat.names[:k], "eta",
                 "theta" if theta_held else "logit_theta"]
        se = {nm: math.sqrt(max(cov[i, i], 0.0)) for i, nm in enumerate(names)}
        cis = {nm: wald_ci(z[i], se[nm]) for i, nm in enumerate(names[:k])}
        eta_lo, eta_hi = wald_ci(eta, se["eta"])
        cis["log_phi"] = (log_phi_of(eta_hi), log_phi_of(eta_lo))
        t_lo, t_hi = wald_ci(round(theta) if theta_held else logit_theta,
                             se[names[-1]])
        cis["logit_theta"] = ((logit_of(t_lo), logit_of(t_hi)) if theta_held
                              else (t_lo, t_hi))
        ab = delta_method_ci(lam_bar, grad, cov)

    return FitResult(wp_hat, params_hat, loglik(wp_hat, spec),
                     reason == "converged", sum(r[2] for r in runs), message,
                     cov, se, cis, ab)
