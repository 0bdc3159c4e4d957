"""Brute-force reference implementations for the five log-likelihoods,
and the per-batch and per-unit loops of the two simulators.

Everything here is written with plain Python loops over raw floats pulled
out of the domain objects, sharing no computational code with the package:
membership tests, distances, cell lookups, and partition logic are all
re-derived from first principles. The only things shared with the package
are conventions (native-grid nodes at covariate cell centers, circle nodes
at angles (k + 1/2) * 2*pi/n, parallel-line nodes at per-segment arclength
midpoints), since both sides must discretize the same integrals.
"""

import math

import numpy as np


def cell_of(field, x, y):
    """(iy, ix) of the covariate cell containing (x, y)."""
    ix = min(int(math.floor((x - field.x0) / field.dx)), field.nx - 1)
    iy = min(int(math.floor((y - field.y0) / field.dy)), field.ny - 1)
    return max(iy, 0), max(ix, 0)


def log_lambda(field, beta, x, y):
    iy, ix = cell_of(field, x, y)
    out = beta[0]
    for k in range(field.q):
        out += beta[1 + k] * float(field.values[iy, ix, k])
    return out


def lam(field, beta, x, y):
    return math.exp(log_lambda(field, beta, x, y))


def point_segment(x, y, ax, ay, bx, by):
    """(t, distance) of the projection of (x, y) onto segment a-b."""
    vx, vy = bx - ax, by - ay
    denom = vx * vx + vy * vy
    t = ((x - ax) * vx + (y - ay) * vy) / denom if denom > 0 else 0.0
    tc = min(max(t, 0.0), 1.0)
    px, py = ax + tc * vx, ay + tc * vy
    return t, math.hypot(x - px, y - py)


def unit_distance(unit, x, y):
    if unit.kind == "transect":
        best = float("inf")
        verts = unit.xy
        for i in range(len(verts) - 1):
            _, d = point_segment(x, y, verts[i][0], verts[i][1],
                                 verts[i + 1][0], verts[i + 1][1])
            best = min(best, d)
        return best
    return math.hypot(x - unit.xy[0], y - unit.xy[1])


def in_region(region, x, y):
    unit = region.unit
    if unit.kind == "transect":
        verts = unit.xy
        for i in range(len(verts) - 1):
            t, d = point_segment(x, y, verts[i][0], verts[i][1],
                                 verts[i + 1][0], verts[i + 1][1])
            if 0.0 < t < 1.0 and d <= region.radius:
                return True
        return unit_distance(unit, x, y) <= 1e-12
    return math.hypot(x - unit.xy[0], y - unit.xy[1]) <= region.radius


def field_cells(field):
    """Yield (x_center, y_center, area) for every covariate cell."""
    for iy in range(field.ny):
        for ix in range(field.nx):
            yield (field.x0 + (ix + 0.5) * field.dx,
                   field.y0 + (iy + 0.5) * field.dy,
                   field.dx * field.dy)


def region_cells(field, region):
    """Native-grid decomposition: covariate cells whose centers fall in
    the region."""
    return [(x, y, a) for x, y, a in field_cells(field) if in_region(region, x, y)]


def exposure_terms(field, design, beta, phi, theta):
    """(DS exposure, CR exposure): detection-weighted intensity integrals."""
    e_ds = 0.0
    e_cr = 0.0
    for region in design.regions:
        for x, y, a in region_cells(field, region):
            value = lam(field, beta, x, y) * a
            if region.unit.kind == "trap":
                e_cr += theta * value
            else:
                d = unit_distance(region.unit, x, y)
                e_ds += value * math.exp(-d * d / phi)
    return e_ds, e_cr


def oracle_complete(field, design, obs, beta, phi, theta):
    e_ds, e_cr = exposure_terms(field, design, beta, phi, theta)
    total = -e_ds - e_cr
    for i in range(obs.n_ds):
        x, y = obs.ds_loc[i]
        d = float(obs.ds_distance[i])
        total += log_lambda(field, beta, x, y) - d * d / phi
    for i in range(obs.n_cr):
        x, y = obs.cr_loc[i]
        total += log_lambda(field, beta, x, y) + math.log(theta)
    return total


def oracle_fused_region(field, design, obs, beta, phi, theta):
    e_ds, e_cr = exposure_terms(field, design, beta, phi, theta)
    total = -e_ds - e_cr
    by_id = {r.unit.id: r for r in design.regions}
    for uid in obs.ds_unit:
        region = by_id[uid]
        num = 0.0
        den = 0.0
        for x, y, a in region_cells(field, region):
            d = unit_distance(region.unit, x, y)
            num += lam(field, beta, x, y) * math.exp(-d * d / phi) * a
            den += a
        total += math.log(num / den)
    for uid in obs.cr_unit:
        region = by_id[uid]
        num = 0.0
        den = 0.0
        for x, y, a in region_cells(field, region):
            num += theta * lam(field, beta, x, y) * a
            den += a
        total += math.log(num / den)
    return total


def line_nodes(region, distance, n_nodes):
    """Node layout convention shared with the package's line rules."""
    unit = region.unit
    if unit.kind == "transect":
        verts = unit.xy
        total_len = 0.0
        for i in range(len(verts) - 1):
            total_len += math.hypot(verts[i + 1][0] - verts[i][0],
                                    verts[i + 1][1] - verts[i][1])
        total_len *= 2.0
        nodes = []
        for i in range(len(verts) - 1):
            ax, ay = verts[i]
            bx, by = verts[i + 1]
            ell = math.hypot(bx - ax, by - ay)
            if ell == 0:
                continue
            nx_, ny_ = -(by - ay) / ell, (bx - ax) / ell
            n_seg = max(1, int(round(n_nodes * ell / total_len)))
            for side in (+1.0, -1.0):
                for k in range(n_seg):
                    t = (k + 0.5) / n_seg
                    nodes.append((ax + t * (bx - ax) + side * distance * nx_,
                                  ay + t * (by - ay) + side * distance * ny_))
        return nodes
    if distance <= 1e-12:
        return [(float(unit.xy[0]), float(unit.xy[1]))]
    nodes = []
    for k in range(n_nodes):
        ang = (k + 0.5) * 2.0 * math.pi / n_nodes
        nodes.append((unit.xy[0] + distance * math.cos(ang),
                      unit.xy[1] + distance * math.sin(ang)))
    return nodes


def oracle_fused_distance(field, design, obs, beta, phi, theta, n_nodes=128):
    e_ds, e_cr = exposure_terms(field, design, beta, phi, theta)
    total = -e_ds - e_cr
    by_id = {r.unit.id: r for r in design.regions}
    xmax = field.x0 + field.nx * field.dx
    ymax = field.y0 + field.ny * field.dy
    for i in range(obs.n_ds):
        region = by_id[obs.ds_unit[i]]
        d = float(obs.ds_distance[i])
        nodes = [(x, y) for x, y in line_nodes(region, d, n_nodes)
                 if field.x0 <= x <= xmax and field.y0 <= y <= ymax]
        mean = sum(lam(field, beta, x, y) for x, y in nodes) / len(nodes)
        total += math.log(mean) - d * d / phi
    for uid in obs.cr_unit:
        region = by_id[uid]
        num = 0.0
        den = 0.0
        for x, y, a in region_cells(field, region):
            num += theta * lam(field, beta, x, y) * a
            den += a
        total += math.log(num / den)
    return total


def partition_cell(region, nx, ny, x, y):
    cw = (region.xmax - region.xmin) / nx
    ch = (region.ymax - region.ymin) / ny
    ix = min(max(int(math.floor((x - region.xmin) / cw)), 0), nx - 1)
    iy = min(max(int(math.floor((y - region.ymin) / ch)), 0), ny - 1)
    return iy * nx + ix


def sampled_cells(region, nx, ny, design):
    """Cells whose reference geometry intersects them, by fine marching."""
    cw = (region.xmax - region.xmin) / nx
    ch = (region.ymax - region.ymin) / ny
    out = set()
    for reg in design.regions:
        unit = reg.unit
        if unit.kind == "transect":
            verts = unit.xy
            for i in range(len(verts) - 1):
                ax, ay = verts[i]
                bx, by = verts[i + 1]
                ell = math.hypot(bx - ax, by - ay)
                steps = max(2, int(math.ceil(ell / (0.125 * min(cw, ch)))))
                for k in range(steps + 1):
                    t = k / steps
                    out.add(partition_cell(region, nx, ny,
                                           ax + t * (bx - ax),
                                           ay + t * (by - ay)))
        else:
            out.add(partition_cell(region, nx, ny,
                                   float(unit.xy[0]), float(unit.xy[1])))
    return sorted(out)


def reference_point(unit):
    if unit.kind != "transect":
        return float(unit.xy[0]), float(unit.xy[1])
    verts = unit.xy
    lens = [math.hypot(verts[i + 1][0] - verts[i][0],
                       verts[i + 1][1] - verts[i][1])
            for i in range(len(verts) - 1)]
    half = 0.5 * sum(lens)
    for i, ell in enumerate(lens):
        if half <= ell or i == len(lens) - 1:
            t = 0.0 if ell == 0 else min(half / ell, 1.0)
            return (verts[i][0] + t * (verts[i + 1][0] - verts[i][0]),
                    verts[i][1] + t * (verts[i + 1][1] - verts[i][1]))
        half -= ell
    return float(verts[-1][0]), float(verts[-1][1])


def oracle_counts(region, nx, ny, design, obs):
    by_id = {r.unit.id: r.unit for r in design.regions}
    counts = {}
    for uid in list(obs.ds_unit) + list(obs.cr_unit):
        x, y = reference_point(by_id[uid])
        j = partition_cell(region, nx, ny, x, y)
        counts[j] = counts.get(j, 0) + 1
    return counts


def aggregated_means(field, region, nx, ny, design, beta, phi, theta, farr):
    """Per-sampled-cell Poisson means for either aggregated scenario."""
    cells = sampled_cells(region, nx, ny, design)
    mu = {j: 0.0 for j in cells}
    e = {j: 0.0 for j in cells}
    for reg in design.regions:
        for x, y, a in region_cells(field, reg):
            j = partition_cell(region, nx, ny, x, y)
            if j not in mu:
                continue
            if reg.unit.kind == "trap":
                mu[j] += theta * lam(field, beta, x, y) * a
                e[j] += theta * a
            else:
                d = unit_distance(reg.unit, x, y)
                q = math.exp(-d * d / phi)
                mu[j] += lam(field, beta, x, y) * q * a
                e[j] += q * a
    if not farr:
        return mu
    cw = (region.xmax - region.xmin) / nx
    ch = (region.ymax - region.ymin) / ny
    out = {}
    for j in cells:
        cx = region.xmin + (j % nx + 0.5) * cw
        cy = region.ymin + (j // nx + 0.5) * ch
        out[j] = lam(field, beta, cx, cy) * e[j]
    return out


def oracle_aggregated(field, region, nx, ny, design, obs, beta, phi, theta,
                      farr):
    mu = aggregated_means(field, region, nx, ny, design, beta, phi, theta,
                          farr)
    counts = oracle_counts(region, nx, ny, design, obs)
    total = 0.0
    for j, m in sorted(mu.items()):
        n = counts.get(j, 0)
        total += n * math.log(max(m, 1e-300)) - m - math.lgamma(n + 1.0)
    return total


# Per-unit and per-batch references for the simulators. Unlike the
# likelihood oracles above, these call the package's own per-point
# arithmetic (``SampledRegion.contains`` and ``distance``,
# ``StudyRegion.contains``, ``CovariateField.covariates_at``): the
# simulators must reproduce their bits and their random draws, so only the
# loop structure is the reference.

def simulate_ippp_batches(params, field, region, seed):
    """Locations of ``simulate_ippp`` by its batch loop: per batch, x, y
    and acceptance draws, every candidate tested against the region and
    looked up through the checked ``covariates_at``."""
    rng = np.random.default_rng(seed)
    in_region = region.contains(field.cell_centers())
    lam_cells = np.exp(field.design_matrix() @ params.beta)
    lam_cells = np.where(in_region, lam_cells, 0.0)
    total = float(lam_cells.sum() * field.cell_area)
    lam_max = float(lam_cells.max())
    n = int(rng.poisson(total))
    if n == 0 or lam_max == 0.0:
        return np.zeros((0, 2))
    accepted = []
    remaining = n
    while remaining > 0:
        m = max(256, int(remaining * 1.5))
        pts = np.column_stack([
            rng.uniform(region.xmin, region.xmax, m),
            rng.uniform(region.ymin, region.ymax, m),
        ])
        ok = region.contains(pts)
        u = rng.uniform(0.0, lam_max, m)
        lam = np.exp(field.covariates_at(pts) @ params.beta)
        ok &= u < lam
        take = pts[ok][:remaining]
        if len(take):
            accepted.append(take)
            remaining -= len(take)
    return np.vstack(accepted)


def simulate_observation_per_unit(locations, design, phi, theta, seed):
    """(ds_unit, ds_distance, cr_unit, ds_loc, cr_loc) of
    ``simulate_observation`` by one ``contains`` test of every individual
    and one ``rng.random`` call per unit, in design order."""
    rng = np.random.default_rng(seed)
    pts = locations
    ds_unit, ds_dist, ds_loc = [], [], []
    cr_unit, cr_loc = [], []
    for reg in design.regions:
        if len(pts) == 0:
            break
        inside = np.flatnonzero(reg.contains(pts))
        if len(inside) == 0:
            continue
        if reg.is_ds:
            d = reg.distance(pts[inside])
            p = np.exp(-d ** 2 / phi)
        else:
            d = None
            p = np.full(len(inside), theta)
        hit = rng.random(len(inside)) < p
        taken = inside[hit]
        if reg.is_ds:
            ds_unit.extend([reg.unit.id] * len(taken))
            ds_dist.extend(d[hit].tolist())
            ds_loc.extend(pts[taken].tolist())
        else:
            cr_unit.extend([reg.unit.id] * len(taken))
            cr_loc.extend(pts[taken].tolist())
    return (np.array(ds_unit, dtype=object),
            np.array(ds_dist, dtype=float),
            np.array(cr_unit, dtype=object),
            np.array(ds_loc, dtype=float).reshape(-1, 2),
            np.array(cr_loc, dtype=float).reshape(-1, 2))
