"""General numerical tools: a bound-constrained Newton minimizer, a
Nelder-Mead simplex minimizer and a central-difference Hessian.
``estimation`` fits by ``projected_newton``, takes its covariance from
``numerical_hessian``, and re-exports ``nelder_mead``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Nelder-Mead's stopping tolerances: relative value spread and simplex
# diameter; and its first simplex's step along each coordinate, relative
# to max(1, |start|).
_FTOL = 1e-10
_XTOL = 1e-9
_INITIAL_STEP = 0.25
# Projected Newton uses the eigenvalues of the unit-diagonal Hessian at
# magnitude at least _EIG_FLOOR, so that a step descends where the Hessian
# is not positive definite; halves a step at most _HALVINGS times to meet
# Armijo's condition with fraction _ARMIJO; and stops once a step's
# predicted decrease is below _GAIN_TOL times max(1, |value|).
_EIG_FLOOR = 1e-8
_ARMIJO = 1e-4
_HALVINGS = 60
_GAIN_TOL = 1e-12


@dataclass
class NelderMeadResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool
    reason: str
    trace: list[float]


def nelder_mead(objective, start, *, max_iter: int = 2000) -> NelderMeadResult:
    """Minimize ``objective`` from ``start`` with the simplex method.

    Terminates when the simplex value spread falls below
    ``_FTOL * (|best| + _FTOL)`` (spread measured relative to the best
    value, as in R's optim), when the simplex diameter falls below
    ``_XTOL``, or
    after ``max_iter`` iterations (flagged as non-converged, not fatal).
    The returned point never has a value above the starting one.
    """
    x0 = np.asarray(start, dtype=float).copy()
    n = len(x0)
    f0 = float(objective(x0))
    if not np.isfinite(f0):
        raise ConfigError("objective is not finite at the starting point")

    simplex = [x0]
    values = [f0]
    for i in range(n):
        xi = x0.copy()
        xi[i] += _INITIAL_STEP * max(1.0, abs(x0[i]))
        simplex.append(xi)
        values.append(float(objective(xi)))
    simplex = np.array(simplex)
    values = np.array(values)

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    trace = []
    reason = "max-iter"
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        trace.append(float(values[0]))

        spread = float(values[-1] - values[0])
        diam = float(np.max(np.abs(simplex[1:] - simplex[0])))
        if spread <= _FTOL * (abs(values[0]) + _FTOL):
            reason, converged = "f-tol", True
            break
        if diam < _XTOL:
            reason, converged = "x-tol", True
            break

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        xr = centroid + alpha * (centroid - worst)
        fr = float(objective(xr))
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
            continue
        if fr < values[0]:
            xe = centroid + gamma * (centroid - worst)
            fe = float(objective(xe))
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
            continue
        xc = centroid + rho * (worst - centroid)
        fc = float(objective(xc))
        if fc < values[-1]:
            simplex[-1], values[-1] = xc, fc
            continue
        best = simplex[0]
        for k in range(1, n + 1):
            simplex[k] = best + sigma * (simplex[k] - best)
            values[k] = float(objective(simplex[k]))

    order = np.argsort(values, kind="stable")
    simplex, values = simplex[order], values[order]
    return NelderMeadResult(simplex[0].copy(), float(values[0]), it,
                            converged, reason, trace)


def numerical_hessian(objective, point) -> np.ndarray:
    """Central second differences with step 1e-4 * max(1, |x_i|) along
    coordinate i, symmetrized as (H + H')/2."""
    x = np.asarray(point, dtype=float)
    n = len(x)
    step = 1e-4 * np.maximum(1.0, np.abs(x))
    H = np.empty((n, n))
    f0 = float(objective(x))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step[i]
        fpp = float(objective(x + ei))
        fmm = float(objective(x - ei))
        H[i, i] = (fpp - 2.0 * f0 + fmm) / step[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step[j]
            fa = float(objective(x + ei + ej))
            fb = float(objective(x + ei - ej))
            fc = float(objective(x - ei + ej))
            fd = float(objective(x - ei - ej))
            H[i, j] = H[j, i] = (fa - fb - fc + fd) / (4.0 * step[i] * step[j])
    return 0.5 * (H + H.T)


def _newton_step(g: np.ndarray, H: np.ndarray) -> np.ndarray:
    """-H^-1 g with the eigenvalues of the unit-diagonal H floored."""
    s = np.sqrt(np.abs(np.diag(H)))
    s[~(s > 0)] = 1.0
    w, V = np.linalg.eigh(H / np.outer(s, s))
    return -(V @ ((V.T @ (g / s)) / np.maximum(np.abs(w), _EIG_FLOOR))) / s


def projected_newton(value, derivatives, x, lo, hi, *, max_iter: int = 100):
    """Minimize a function over the box lo <= x <= hi from ``x`` by
    projected Newton (Bertsekas 1982, SIAM J. Control Optim. 20:221).

    ``derivatives(x)`` gives the value, gradient and Hessian at x;
    ``value(x)`` gives (x', value at x'), x' being x with any coordinates
    that have a closed-form minimum given the rest moved there. Each
    iteration holds the coordinates at a bound whose gradient points out of
    the box, and those whose Newton step would cross their bound, which
    step onto it; the rest take the Newton step on that face. The full
    step is tried first and halved until it descends enough (Armijo).
    Coordinates with lo == hi stay put. Returns (x, value, iterations,
    reason): "converged" once the predicted decrease is below ``_GAIN_TOL
    * max(1, |value|)``, else "no descent", "non-finite derivatives" or
    "max-iter".
    """
    movable = lo < hi
    f, g, H = derivatives(x)
    for it in range(1, max_iter + 1):
        if not (np.isfinite(g).all() and np.isfinite(H).all()):
            return x, f, it, "non-finite derivatives"
        held = ~movable | ((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0))
        while True:
            free = ~held
            d = np.where(held & movable, np.where(g > 0, lo, hi) - x, 0.0)
            d[free] = _newton_step(g[free] + H[np.ix_(free, held)] @ d[held],
                                   H[np.ix_(free, free)])
            crossing = free & (((x + d < lo) & (g > 0))
                               | ((x + d > hi) & (g < 0)))
            if not crossing.any():
                break
            held |= crossing
        if -float(g @ d) <= _GAIN_TOL * max(1.0, abs(f)):
            return x, f, it, "converged"
        step = 1.0
        for _ in range(_HALVINGS):
            trial, f_trial = value(np.clip(x + step * d, lo, hi))
            slope = float(g @ (trial - x))
            if slope < 0 and f_trial <= f + _ARMIJO * slope:
                break
            step /= 2.0
        else:
            return x, f, it, "no descent"
        x = trial
        f, g, H = derivatives(x)
    return x, f, max_iter, "max-iter"
