"""Geometry: distances, quadrature rules, partitions, overlap checks."""

import csv
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fusedsdm.errors import ConfigError, DataError
from fusedsdm.geometry import (
    SampledRegion,
    StudyRegion,
    SurveyDesign,
    SurveyUnit,
    build_partitions,
    check_nonoverlap,
    distance_to_unit,
    line_template,
    load_design,
    region_nodes,
    save_design,
)


def point_unit(x, y, uid="p"):
    return SurveyUnit(uid, "point", np.array([x, y], dtype=float))


def trap_unit(x, y, uid="t"):
    return SurveyUnit(uid, "trap", np.array([x, y], dtype=float))


def transect_unit(coords, uid="tr"):
    return SurveyUnit(uid, "transect", np.array(coords, dtype=float))


class TestDistanceToUnit:
    def test_coincident_points(self):
        assert distance_to_unit(np.array([0.0, 0.0]), point_unit(0, 0)) == 0.0

    def test_three_four_five(self):
        assert distance_to_unit(np.array([3.0, 4.0]), point_unit(0, 0)) == pytest.approx(5.0)

    def test_perpendicular_drop_onto_segment_interior(self):
        tr = transect_unit([[0.0, 0.0], [1.0, 0.0]])
        assert distance_to_unit(np.array([0.5, 0.3]), tr) == pytest.approx(0.3)

    def test_beyond_segment_end_uses_endpoint(self):
        tr = transect_unit([[0.0, 0.0], [1.0, 0.0]])
        d = distance_to_unit(np.array([1.3, 0.4]), tr)
        assert d == pytest.approx(0.5)

    def test_reflection_symmetry(self):
        """Distances are invariant under reflecting the coordinate frame."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.uniform(-1, 1, 2)
            a, b = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            tr = transect_unit([a, b])
            tr_ref = transect_unit([a * [-1, 1], b * [-1, 1]])
            d = distance_to_unit(s, tr)
            d_ref = distance_to_unit(s * [-1, 1], tr_ref)
            assert d == pytest.approx(d_ref, abs=1e-12)


class TestAreaRule:
    """Spacing-mode totals: each region's measure from ``region_nodes``."""

    def test_disk_area_within_one_percent(self):
        reg = SampledRegion(point_unit(0.5, 0.5), 0.04)
        *_, measure = region_nodes([reg], spacing=[0.002])
        assert measure[0] == pytest.approx(math.pi * 0.04 ** 2, rel=0.01)

    def test_strip_area(self):
        reg = SampledRegion(transect_unit([[0.2, 0.5], [0.5, 0.5]]), 0.02)
        *_, measure = region_nodes([reg], spacing=[0.001])
        assert measure[0] == pytest.approx(0.012, rel=0.01)

    def test_zero_nodes_in_region_errors(self):
        # A disk entirely outside the clipping region leaves no nodes.
        reg = SampledRegion(point_unit(-0.2, 0.5), 0.05)
        with pytest.raises(ConfigError, match="of unit 'p'"):
            region_nodes([reg], spacing=[0.01],
                         within=StudyRegion.unit_square())

    @pytest.mark.parametrize("kind", ("strip", "native"))
    def test_empty_rule_error_names_the_unit(self, kind):
        """Strip and native-grid rules name the unit too."""
        square = StudyRegion.unit_square()
        if kind == "strip":
            reg = SampledRegion(transect_unit([[-0.5, 0.5], [-0.2, 0.5]]),
                                0.05)
            with pytest.raises(ConfigError, match="of unit 'tr'"):
                region_nodes([reg], spacing=[0.01], within=square)
        else:
            reg = SampledRegion(point_unit(-0.2, 0.5), 0.05)
            with pytest.raises(ConfigError, match="of unit 'p'"):
                region_nodes([reg], grid=(0.0, 0.0, 0.01, 0.01),
                             within=square)

    def test_disk_halving_spacing_converges_monotonically(self):
        reg = SampledRegion(point_unit(0.37, 0.53), 0.04)
        errors = []
        for spacing in (reg.radius / 4, reg.radius / 8, reg.radius / 16,
                        reg.radius / 32):
            *_, measure = region_nodes([reg], spacing=[spacing])
            errors.append(abs(measure[0] - reg.measure))
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_strip_rule_tiles_exactly_at_every_spacing(self):
        reg = SampledRegion(transect_unit([[0.2, 0.31], [0.61, 0.31]]), 0.02)
        errors = []
        for spacing in (reg.radius / 4, reg.radius / 8, reg.radius / 16):
            *_, measure = region_nodes([reg], spacing=[spacing])
            errors.append(abs(measure[0] - reg.measure))
        assert all(e2 <= e1 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(("disk", "strip", "masked disk")),
           radius=st.floats(0.02, 0.2), cut=st.floats(-0.9, 0.9),
           u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
           turn=st.floats(-1.0, 1.0))
    # A kept sliver 0.015625 wide: no node at spacing 0.03125.
    @example(kind="masked disk", radius=0.125, cut=-0.875, u=0.5, v=0.5,
             turn=0.0)
    def test_totals_approach_the_measure_as_spacing_halves(self, kind,
                                                           radius, cut,
                                                           u, v, turn):
        """A disk's midpoint-rule total is within one cell area per cell
        its boundary crosses (at most 4 L / h + 4 of them, boundary length
        L, spacing h) of its area, so the error falls with h; a disk cut
        by a mask converges to the analytic area of the part kept, and a
        strip's per-segment grids tile it exactly.

        A masked disk keeps a cap radius * (1 + cut) wide. At these
        spacings (radius / 2^j) the grid's first column lies h / 2 inside
        the disk, so a cap at least one spacing wide holds a node; a
        narrower one may hold none, and then ``region_nodes`` raises its
        documented error."""
        cx, cy = (radius + t * (1.0 - 2.0 * radius) for t in (u, v))
        kept = math.inf
        within = None
        if kind == "strip":
            reg = SampledRegion(transect_unit(
                [[cx - 0.3, cy], [cx, cy], [cx + 0.2, cy + 0.2 * turn]]),
                radius)
            area, boundary = reg.measure, 0.0
        else:
            reg = SampledRegion(point_unit(cx, cy), radius)
            area, boundary = reg.measure, 2 * math.pi * radius
            if kind == "masked disk":
                # Keep the part of the disk left of x = cx + cut * radius.
                delta = cut * radius
                edge = cx + delta
                within = StudyRegion(0.0, 0.0, 1.0, 1.0, mask=(
                    (0.0, 0.0), (edge, 0.0), (edge, 1.0), (0.0, 1.0)))
                area -= (radius ** 2 * math.acos(cut)
                         - delta * math.sqrt(radius ** 2 - delta ** 2))
                boundary += 2 * math.sqrt(radius ** 2 - delta ** 2)
                kept = radius * (1 + cut)
        for h in (radius / 4, radius / 8, radius / 16, radius / 32):
            try:
                *_, measure = region_nodes([reg], spacing=[h], within=within)
            except ConfigError as exc:
                assert kept < h, (h, exc)
                assert str(exc) == (
                    f"spacing {h} too coarse: no quadrature nodes fall in "
                    "the region of unit 'p'")
                continue
            if kind == "strip":
                assert measure[0] == pytest.approx(area, rel=1e-12)
            else:
                assert abs(measure[0] - area) <= h * (4 * boundary + 4 * h)

    def test_clipped_to_study_region(self):
        reg = SampledRegion(point_unit(0.0, 0.5), 0.1)
        *_, measure = region_nodes([reg], spacing=[0.005],
                                   within=StudyRegion.unit_square())
        assert measure[0] == pytest.approx(math.pi * 0.1 ** 2 / 2, rel=0.02)


class TestLineTemplate:
    """Line-support nodes at recorded distance d: anchor + d * direction."""

    def test_circle_nodes_at_recorded_distance(self):
        anchor, direction = line_template(point_unit(0.3, 0.4))
        nodes = anchor + 0.017 * direction
        d = np.sqrt(((nodes - [0.3, 0.4]) ** 2).sum(axis=1))
        assert np.abs(d - 0.017).max() < 1e-9

    def test_circle_angles_equally_spaced(self):
        anchor, direction = line_template(point_unit(0.3, 0.4))
        assert (anchor == [0.3, 0.4]).all()
        assert np.allclose(np.hypot(direction[:, 0], direction[:, 1]), 1.0,
                           atol=1e-15)
        angles = np.unwrap(np.arctan2(direction[:, 1], direction[:, 0]))
        step = 2 * math.pi / len(direction)
        assert np.allclose(np.diff(angles), step, atol=1e-12)
        assert angles[0] == pytest.approx(step / 2, abs=1e-15)

    def test_parallel_line_nodes_at_perpendicular_distance(self):
        anchor, direction = line_template(transect_unit([[0.2, 0.5],
                                                         [0.5, 0.5]]))
        nodes = anchor + 0.1 * direction
        assert np.allclose(np.abs(nodes[:, 1] - 0.5), 0.1, atol=1e-12)

    def test_two_segments_split_by_length_on_both_sides(self):
        """An L of lengths 0.3 and 0.1 gets 48 and 16 nodes a side, each
        at distance d from its own segment, once on each side."""
        unit = transect_unit([[0.2, 0.2], [0.5, 0.2], [0.5, 0.3]])
        anchor, direction = line_template(unit)
        d = 0.03
        nodes = anchor + d * direction
        assert len(nodes) == 2 * 48 + 2 * 16
        first, second = nodes[:96], nodes[96:]
        # Horizontal segment: anchors at the 48 midpoints along it, nodes
        # above and below it at d.
        xs = 0.2 + 0.3 * (np.arange(48) + 0.5) / 48
        for side, half in ((1, first[:48]), (-1, first[48:])):
            assert np.allclose(half[:, 0], xs, atol=1e-15)
            assert np.allclose(half[:, 1], 0.2 + side * d, atol=1e-15)
        # Vertical segment: 16 nodes to its left and to its right at d.
        ys = 0.2 + 0.1 * (np.arange(16) + 0.5) / 16
        for side, half in ((1, second[:16]), (-1, second[16:])):
            assert np.allclose(half[:, 1], ys, atol=1e-15)
            assert np.allclose(half[:, 0], 0.5 - side * d, atol=1e-15)

    def test_zero_length_segment_skipped(self):
        with_repeat = line_template(transect_unit([[0.2, 0.2], [0.2, 0.2],
                                                   [0.5, 0.2]]))
        plain = line_template(transect_unit([[0.2, 0.2], [0.5, 0.2]]))
        for a, b in zip(with_repeat, plain):
            assert np.array_equal(a, b)


class TestNativeAreaRule:
    def test_nodes_are_grid_cell_centers(self):
        reg = SampledRegion(point_unit(0.3, 0.3), 0.21)
        xy, _, _, _, measure = region_nodes([reg], grid=(0.0, 0.0, 0.2, 0.2))
        assert len(xy) == 5
        assert measure[0] == pytest.approx(5 * 0.04)
        frac = (xy - 0.1) / 0.2
        assert np.allclose(frac, np.round(frac), atol=1e-12)


class TestPartitions:
    def test_unit_square_10x10(self, toy_design):
        grid = build_partitions(StudyRegion.unit_square(), 10, 10, toy_design)
        assert grid.n_cells == 100
        assert grid.cell_area == pytest.approx(0.01)

    def test_cell_areas_sum_to_region_area(self, toy_design):
        region = StudyRegion(0.0, 0.0, 1.3, 0.7)
        grid = build_partitions(region, 7, 3, toy_design)
        assert grid.n_cells * grid.cell_area == pytest.approx(
            region.area, rel=1e-9)

    def test_single_point_marks_single_cell(self):
        design = SurveyDesign((SampledRegion(point_unit(0.05, 0.05), 0.04),))
        grid = build_partitions(StudyRegion.unit_square(), 10, 10, design)
        assert grid.sampled.sum() == 1
        assert grid.sampled[0]

    def test_empty_design_all_unsampled(self):
        grid = build_partitions(StudyRegion.unit_square(), 10, 10,
                                SurveyDesign(()))
        assert not grid.sampled.any()

    def test_transect_marks_every_crossed_cell(self):
        design = SurveyDesign((
            SampledRegion(transect_unit([[0.05, 0.05], [0.95, 0.05]]), 0.02),
        ))
        grid = build_partitions(StudyRegion.unit_square(), 10, 10, design)
        assert grid.sampled.sum() == 10
        assert grid.sampled[:10].all()


class TestCheckNonoverlap:
    def test_disjoint_points(self):
        design = SurveyDesign((
            SampledRegion(point_unit(0.2, 0.2, "a"), 0.04),
            SampledRegion(point_unit(0.3, 0.2, "b"), 0.04),
        ))
        ok, pairs = check_nonoverlap(design)
        assert ok and pairs == []

    def test_overlapping_traps_reported(self):
        design = SurveyDesign((
            SampledRegion(trap_unit(0.20, 0.2, "a"), 0.02),
            SampledRegion(trap_unit(0.23, 0.2, "b"), 0.02),
        ))
        ok, pairs = check_nonoverlap(design)
        assert not ok
        assert pairs == [("a", "b")]

    def test_single_unit_vacuous(self):
        design = SurveyDesign((SampledRegion(point_unit(0.5, 0.5), 0.04),))
        assert check_nonoverlap(design) == (True, [])

    def test_memory_grows_with_regions_not_pairs(self):
        """3,000 traps make 4.5 million pairs, 36 MB per float array of
        them; the check stays below 40 MB at its peak."""
        rng = np.random.default_rng(0)
        design = SurveyDesign(tuple(
            SampledRegion(trap_unit(*rng.uniform(0.0, 1.0, 2), f"t{k}"),
                          0.002) for k in range(3000)))
        tracemalloc.start()
        try:
            ok, pairs = check_nonoverlap(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not ok and pairs
        assert peak < 40e6

    def test_memory_of_a_column_design(self):
        """1,500 traps on one vertical line: every pair's boxes meet in x,
        1.1 million of them, and the check stays below 10 MB."""
        design = SurveyDesign(tuple(
            SampledRegion(trap_unit(0.5, (k + 0.5) / 1500, f"t{k}"), 1e-4)
            for k in range(1500)))
        tracemalloc.start()
        try:
            ok, pairs = check_nonoverlap(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and not pairs
        assert peak < 10e6

    @pytest.mark.parametrize("seed", (0, 1))
    def test_row_blocks_match_per_row_reference(self, seed):
        """Designs of 199 units, transects among them."""
        rng = np.random.default_rng(seed)
        regions = []
        for k in range(199):
            kind = str(rng.choice(["point", "trap", "transect"],
                                  p=[0.45, 0.45, 0.1]))
            a = rng.uniform(0.0, 1.0, 2)
            xy = np.vstack([a, a + rng.uniform(-0.1, 0.1, 2)]) \
                if kind == "transect" else a
            regions.append(SampledRegion(SurveyUnit(f"u{k}", kind, xy),
                                         rng.uniform(0.02, 0.08)))
        design = SurveyDesign(tuple(regions))
        ok, pairs = check_nonoverlap(design)
        assert pairs and not ok
        assert (ok, pairs) == _per_row_nonoverlap(design)


class TestDesignFile:
    def test_round_trip(self, tmp_path, toy_design):
        path = tmp_path / "design.csv"
        save_design(toy_design, path)
        loaded = load_design(path)
        assert [r.unit.id for r in loaded.regions] == \
            [r.unit.id for r in toy_design.regions]
        for a, b in zip(loaded.regions, toy_design.regions):
            assert a.radius == b.radius
            assert np.allclose(a.unit.xy, b.unit.xy)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text("name,kind\n")
        with pytest.raises(DataError):
            load_design(path)

    def test_bad_radius_names_line(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text("id,kind,radius,geometry\np1,point,abc,0.5 0.5\n")
        with pytest.raises(DataError, match=":2"):
            load_design(path)

    def test_point_without_location_names_line(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text("id,kind,radius,geometry\n"
                        "p1,point,0.04,0.5 0.5\nt1,trap,0.02,\n")
        with pytest.raises(DataError, match=r":3: unit 't1' needs a single"):
            load_design(path)

    def test_point_with_several_locations_names_line(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text("id,kind,radius,geometry\n"
                        "p1,point,0.04,0.5 0.5;0.6 0.6\n")
        with pytest.raises(DataError, match=r":2: unit 'p1' needs a single"):
            load_design(path)

    def test_nan_coordinate_names_line(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text("id,kind,radius,geometry\n"
                        "p1,point,0.04,0.5 0.5\nnet05,trap,0.045,nan 0.3\n")
        with pytest.raises(DataError,
                           match=r":3: unit 'net05' has a non-finite"):
            load_design(path)

    def test_infinite_radius_names_line(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text("id,kind,radius,geometry\np1,point,inf,0.5 0.5\n")
        with pytest.raises(DataError, match=r":2: region radius for 'p1' "
                                            r"must be finite"):
            load_design(path)

    def test_bad_radius_names_its_file_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,kind,radius,geometry\n\np1,point,0.04,0.5 0.5\n"
                        "\nt1,trap,abc,0.5 0.7\n")
        with pytest.raises(DataError, match=r"d\.csv:5: bad radius 'abc'"):
            load_design(path)

    def test_a_transect_of_many_vertices_round_trips(self, tmp_path):
        """Its geometry field is about 190 kB, past the csv module's
        default field limit."""
        x = np.linspace(0.1, 0.9, 5000)
        unit = transect_unit(np.c_[x, 0.5 + 0.01 * np.sin(50 * x)])
        path = tmp_path / "design.csv"
        save_design(SurveyDesign((SampledRegion(unit, 0.01),)), path)
        assert path.stat().st_size > 131072
        assert np.array_equal(load_design(path).regions[0].unit.xy, unit.xy)

    def test_unreadable_row_names_its_line(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text("id,kind,radius,geometry\np1,point,0.04,0.5 0.5\n\n"
                        "p2,point,0.04,0.25 0.75\n")
        limit = csv.field_size_limit(8)
        try:
            with pytest.raises(DataError, match=r"design\.csv:4: field larger"):
                load_design(path)
        finally:
            csv.field_size_limit(limit)

    def test_ids_with_a_comma_or_a_quote_round_trip(self, tmp_path):
        ids = ("p,1", 't"2', 'a, "b"')
        design = SurveyDesign((
            SampledRegion(point_unit(0.2, 0.2, ids[0]), 0.04),
            SampledRegion(trap_unit(0.5, 0.5, ids[1]), 0.02),
            SampledRegion(transect_unit([[0.6, 0.8], [0.9, 0.8]], ids[2]),
                          0.05)))
        path = tmp_path / "design.csv"
        save_design(design, path)
        loaded = load_design(path)
        assert tuple(r.unit.id for r in loaded.regions) == ids
        for a, b in zip(loaded.regions, design.regions):
            assert a.radius == b.radius
            assert np.array_equal(a.unit.xy, b.unit.xy)


class TestInvariantsAndValidation:
    def test_transect_needs_two_vertices(self):
        with pytest.raises(ConfigError):
            SurveyUnit("t", "transect", np.array([[0.0, 0.0]]))

    def test_zero_length_transect_rejected(self):
        with pytest.raises(ConfigError):
            SurveyUnit("t", "transect", np.array([[0.1, 0.1], [0.1, 0.1]]))

    @pytest.mark.parametrize("uid", ["", " ", " p1", "p1 ", "p1\n", 1])
    def test_id_must_read_back_from_a_table_file(self, uid):
        """Table readers strip their fields, so an empty id or one with
        leading or trailing whitespace could not come back from a file."""
        with pytest.raises(ConfigError,
                           match=re.escape(f"unit id {uid!r} must be")):
            point_unit(0.5, 0.5, uid)

    def test_positive_radius_required(self):
        with pytest.raises(ConfigError):
            SampledRegion(point_unit(0.5, 0.5), 0.0)

    @pytest.mark.parametrize("kind, xy", [
        ("point", [0.5, math.nan]),
        ("trap", [math.inf, 0.5]),
        ("transect", [[0.2, 0.5], [-math.inf, 0.5]]),
        ("transect", [[0.2, 0.5], [0.4, 0.5], [math.nan, math.nan]]),
    ])
    def test_nonfinite_coordinates_rejected(self, kind, xy):
        with pytest.raises(ConfigError, match="non-finite coordinate"):
            SurveyUnit("u", kind, np.array(xy))

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_finite_radius_required(self, radius):
        with pytest.raises(ConfigError, match="must be finite and > 0"):
            SampledRegion(point_unit(0.5, 0.5), radius)

    @pytest.mark.parametrize("bounds", [
        (0.0, 0.0, math.inf, 1.0),
        (-math.inf, 0.0, 1.0, 1.0),
        (0.0, -math.inf, 1.0, math.inf),
    ])
    def test_finite_study_bounds_required(self, bounds):
        with pytest.raises(ConfigError, match="bounds must be finite"):
            StudyRegion(*bounds)

    def test_finite_mask_required(self):
        with pytest.raises(ConfigError, match="vertices must be finite"):
            StudyRegion(0, 0, 1, 1, mask=((0.0, 0.0), (1.0, math.nan),
                                          (0.0, 1.0)))

    def test_strip_membership_excludes_beyond_ends(self):
        reg = SampledRegion(transect_unit([[0.2, 0.5], [0.5, 0.5]]), 0.1)
        inside = reg.contains(np.array([[0.35, 0.55], [0.12, 0.5],
                                        [0.35, 0.65]]))
        assert inside.tolist() == [True, False, False]

    def test_bent_transect_vertex_inside(self):
        """A vertex is an end of both its segments (t = 1, then t = 0), so
        only the on-polyline rule admits it; a point just past the corner
        lies beyond the ends of both."""
        reg = SampledRegion(transect_unit([[0.2, 0.2], [0.5, 0.2],
                                           [0.5, 0.5]]), 0.05)
        inside = reg.contains(np.array([[0.5, 0.2], [0.52, 0.18],
                                        [0.35, 0.2]]))
        assert inside.tolist() == [True, False, True]

    def test_masked_region_area_and_membership(self):
        tri = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        region = StudyRegion(0, 0, 1, 1, mask=tri)
        assert region.area == pytest.approx(0.5)
        inside = region.contains(np.array([[0.2, 0.2], [0.8, 0.8]]))
        assert inside.tolist() == [True, False]


def _reference_nonoverlap(design):
    """The per-pair loop that check_nonoverlap replaces, pair order
    included."""
    regions = design.regions
    offending = []
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            a, b = regions[i], regions[j]
            if a.unit.kind == "transect" or b.unit.kind == "transect":
                d = _strip_distance(a, b)
            else:
                d = float(np.sqrt(((a.unit.xy - b.unit.xy) ** 2).sum()))
            if d <= a.radius + b.radius:
                offending.append((a.unit.id, b.unit.id))
    return (len(offending) == 0, offending)


def _strip_distance(a, b):
    """The distance check_nonoverlap takes for a pair with a strip."""
    strip, other = (a, b) if a.unit.kind == "transect" else (b, a)
    if other.unit.kind == "transect":
        return min(float(distance_to_unit(strip.unit.xy, other.unit).min()),
                   float(distance_to_unit(other.unit.xy, strip.unit).min()))
    return float(distance_to_unit(other.unit.xy, strip.unit))


def _per_row_nonoverlap(design):
    """The overlapping pairs found one row i at a time: the disk-disk
    distances to all j > i in one numpy pass, pairs with a strip one by
    one."""
    regions = design.regions
    strip = np.array([r.unit.kind == "transect" for r in regions])
    xy = np.array([(0.0, 0.0) if s else r.unit.xy
                   for r, s in zip(regions, strip)], dtype=float)
    radius = np.array([r.radius for r in regions])
    offending = []
    for i in range(len(regions)):
        d = np.sqrt(((xy[i + 1:] - xy[i]) ** 2).sum(axis=1))
        for k in np.flatnonzero(strip[i] | strip[i + 1:]):
            d[k] = _strip_distance(regions[i], regions[i + 1 + k])
        offending += [(regions[i].unit.id, regions[i + 1 + k].unit.id)
                      for k in np.flatnonzero(d <= radius[i] + radius[i + 1:])]
    return (len(offending) == 0, offending)


def _reference_disk_rule(reg, spacing=None, grid=None, within=None):
    """One disk's rule as a meshgrid over its bounding box, clipped to the
    disk and ``within``: its nodes, one weight for all, and the text of the
    error when no node is left."""
    xmin, ymin, xmax, ymax = reg.bbox()
    if grid is None:
        nx = max(1, int(math.ceil((xmax - xmin) / spacing)))
        ny = max(1, int(math.ceil((ymax - ymin) / spacing)))
        hx, hy = (xmax - xmin) / nx, (ymax - ymin) / ny
        xs = xmin + (np.arange(nx) + 0.5) * hx
        ys = ymin + (np.arange(ny) + 0.5) * hy
        weight = hx * hy
        what = f"spacing {spacing} too coarse: no quadrature nodes"
    else:
        x0, y0, dx, dy = grid
        i0, i1 = (int(math.floor((xmin - x0) / dx)),
                  int(math.ceil((xmax - x0) / dx)))
        j0, j1 = (int(math.floor((ymin - y0) / dy)),
                  int(math.ceil((ymax - y0) / dy)))
        xs = x0 + (np.arange(i0, i1 + 1) + 0.5) * dx
        ys = y0 + (np.arange(j0, j1 + 1) + 0.5) * dy
        weight = dx * dy
        what = "no native-grid cell centers"
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    keep = reg.contains(pts)
    if within is not None:
        keep &= within.contains(pts)
    return (pts[keep], weight,
            f"{what} fall in the region of unit {reg.unit.id!r}")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


_EIGHTHS = st.integers(0, 8).map(lambda k: k / 8)


@st.composite
def _designs(draw):
    """Points, traps and transects on a 1/8 lattice with radii in 1/16
    steps, so that many pairs touch exactly or overlap."""
    regions = []
    for k in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("point", "trap", "transect")))
        radius = draw(st.integers(1, 5)) / 16
        a = np.array([draw(_EIGHTHS), draw(_EIGHTHS)])
        if kind == "transect":
            steps = draw(st.lists(
                st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
                    lambda s: s != (0, 0)), min_size=1, max_size=2))
            xy = a + np.cumsum(np.array(steps) / 8, axis=0)
            xy = np.vstack([a, xy])
        else:
            xy = a
        regions.append(SampledRegion(SurveyUnit(f"u{k}", kind, xy), radius))
    return SurveyDesign(tuple(regions))


@st.composite
def _large_designs(draw):
    """Up to 300 points, traps and transects on a 1/32 lattice, shifted by
    an offset that rounds their coordinates or by none, with radii in 1/64
    steps: many pairs touch exactly, and disks sit on the unit square's
    edges."""
    n = draw(st.integers(0, 300))
    offset = draw(st.sampled_from((0.0, -0.3, 1e6 / 3)))
    share = draw(st.sampled_from((0.0, 0.03, 0.1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    regions = []
    for k in range(n):
        xy = rng.integers(0, 33, 2) / 32
        kind = str(rng.choice(["point", "trap"]))
        if rng.random() < share:
            steps = rng.integers(-4, 5, (rng.integers(1, 3), 2))
            steps[(steps == 0).all(axis=1)] = (1, 0)
            xy = np.vstack([xy, xy + np.cumsum(steps, axis=0) / 32])
            kind = "transect"
        regions.append(SampledRegion(SurveyUnit(f"u{k}", kind, xy + offset),
                                     rng.integers(1, 7) / 64))
    return SurveyDesign(tuple(regions))


@st.composite
def _within(draw):
    """No clipping, the unit square, or the unit square masked by a
    polygon."""
    choice = draw(st.sampled_from(("none", "square", "mask")))
    if choice == "none":
        return None
    if choice == "square":
        return StudyRegion.unit_square()
    corner = st.floats(0.0, 1.0, allow_nan=False)
    mask = draw(st.lists(st.tuples(corner, corner), min_size=3,
                         max_size=6))
    return StudyRegion(0.0, 0.0, 1.0, 1.0, mask=tuple(mask))


@st.composite
def _disks(draw):
    """Points and traps, some reaching past the unit square."""
    coord = st.floats(-0.1, 1.1, allow_nan=False)
    return [SampledRegion(SurveyUnit(f"d{k}", draw(st.sampled_from(
        ("point", "trap"))), np.array([draw(coord), draw(coord)])),
        draw(st.floats(0.01, 0.12, allow_nan=False)))
        for k in range(draw(st.integers(1, 6)))]


class TestArrayPasses:
    """check_nonoverlap and the disk quadrature give the bits of the
    per-pair and per-disk code they replace."""

    @settings(max_examples=150, deadline=None)
    @given(design=_designs())
    def test_nonoverlap_matches_per_pair_loop(self, design):
        assert check_nonoverlap(design) == _reference_nonoverlap(design)

    @settings(max_examples=12, deadline=None)
    @given(design=_large_designs())
    def test_nonoverlap_of_large_designs_matches_per_pair_loop(self, design):
        """The sweep over bounding boxes misses no pair of the loop."""
        assert check_nonoverlap(design) == _reference_nonoverlap(design)

    def test_nonoverlap_touching_disks_overlap(self):
        """Regions that touch count as overlapping, as in the loop."""
        design = SurveyDesign((
            SampledRegion(point_unit(0.0, 0.0, "a"), 0.25),
            SampledRegion(trap_unit(0.5, 0.0, "b"), 0.25),
            SampledRegion(trap_unit(0.5, 0.625, "c"), 0.25),
        ))
        assert check_nonoverlap(design) == (False, [("a", "b")])

    def test_nonoverlap_boxes_apart_by_rounding(self):
        """Disks whose distance rounds to their radius sum, while their
        bounding boxes, rounded on their own, lie apart."""
        a = SampledRegion(point_unit(0.25657651975640827, 0.5, "a"),
                          0.0835517546862419)
        b = SampledRegion(trap_unit(0.4221398237796159, 0.5, "b"),
                          0.08201154933696571)
        assert a.bbox()[2] < b.bbox()[0]
        for design in (SurveyDesign((a, b)), SurveyDesign((b, a))):
            ok, pairs = check_nonoverlap(design)
            assert not ok
            assert (ok, pairs) == _reference_nonoverlap(design)

    @settings(max_examples=100, deadline=None)
    @given(disks=_disks(), within=_within(), native=st.booleans(),
           fraction=st.floats(0.03, 0.3), data=st.data())
    def test_disk_nodes_match_per_disk_grids(self, disks, within, native,
                                             fraction, data):
        if native:
            step = st.floats(0.004, 0.05, allow_nan=False)
            origin = st.floats(-0.05, 0.05, allow_nan=False)
            kwargs = {"grid": (data.draw(origin), data.draw(origin),
                               data.draw(step), data.draw(step))}
            refs = [_reference_disk_rule(reg, grid=kwargs["grid"],
                                         within=within) for reg in disks]
        else:
            kwargs = {"spacing": [fraction * reg.radius for reg in disks]}
            refs = [_reference_disk_rule(reg, spacing=s, within=within)
                    for reg, s in zip(disks, kwargs["spacing"])]
        empty = [error for nodes, _, error in refs if len(nodes) == 0]
        if empty:
            with pytest.raises(ConfigError) as exc:
                region_nodes(disks, within=within, **kwargs)
            assert str(exc.value) == empty[0]
            return
        xy, w, index, d2, measure = region_nodes(disks, within=within,
                                                 **kwargs)
        weights = [np.full(len(nodes), weight) for nodes, weight, _ in refs]
        assert _same_bits(xy, np.concatenate([r[0] for r in refs]))
        assert _same_bits(w, np.concatenate(weights))
        assert _same_bits(index, np.repeat(np.arange(len(disks)),
                                           [len(r[0]) for r in refs]))
        assert _same_bits(d2, np.concatenate([
            reg.distance(r[0]) ** 2 for reg, r in zip(disks, refs)]))
        assert _same_bits(measure, np.array([float(ws.sum())
                                             for ws in weights]))
        for k, reg in enumerate(disks):
            one = ({"grid": kwargs["grid"]} if native else
                   {"spacing": [kwargs["spacing"][k]]})
            xy, w, *_ = region_nodes([reg], within=within, **one)
            assert _same_bits(xy, refs[k][0])
            assert _same_bits(w, weights[k])

    @pytest.mark.parametrize("native", (False, True))
    def test_mixed_list_keeps_region_order(self, native, toy_design):
        """Transects between disks keep their place, with their own rule."""
        regions = list(toy_design.regions) + [
            SampledRegion(trap_unit(0.1, 0.1, "t2"), 0.05)]
        square = StudyRegion.unit_square()
        if native:
            kwargs = {"grid": (0.0, 0.0, 0.01, 0.01)}
            ones = [kwargs] * len(regions)
        else:
            kwargs = {"spacing": [0.05 * reg.radius for reg in regions]}
            ones = [{"spacing": [s]} for s in kwargs["spacing"]]
        rules = [region_nodes([reg], within=square, **one)
                 for reg, one in zip(regions, ones)]
        xy, w, index, d2, measure = region_nodes(regions, within=square,
                                                 **kwargs)
        assert _same_bits(xy, np.concatenate([r[0] for r in rules]))
        assert _same_bits(w, np.concatenate([r[1] for r in rules]))
        assert index.tolist() == np.repeat(
            np.arange(len(rules)), [len(r[0]) for r in rules]).tolist()
        assert _same_bits(d2, np.concatenate([
            reg.distance(r[0]) ** 2 for reg, r in zip(regions, rules)]))
        assert _same_bits(measure, np.concatenate([r[4] for r in rules]))

    @pytest.mark.parametrize("kwargs,text", (
        ({"spacing": [0.004, 0.002, 0.004, 0.004]},
         "spacing 0.002 too coarse: no quadrature nodes fall in the region "
         "of unit 'p'"),
        ({"grid": (0.0, 0.0, 0.01, 0.01)},
         "no native-grid cell centers fall in the region of unit 'p'")))
    def test_no_node_error_names_first_unit(self, kwargs, text):
        """Two regions outside the study area: the first one is named."""
        regions = [SampledRegion(point_unit(0.5, 0.5, "a"), 0.04),
                   SampledRegion(point_unit(-0.2, 0.5), 0.04),
                   SampledRegion(trap_unit(0.3, 0.3, "b"), 0.04),
                   SampledRegion(trap_unit(1.3, 0.5), 0.04)]
        with pytest.raises(ConfigError) as exc:
            region_nodes(regions, within=StudyRegion.unit_square(), **kwargs)
        assert str(exc.value) == text

    def test_no_node_error_names_a_strip_before_a_disk(self):
        regions = [SampledRegion(point_unit(0.5, 0.5, "a"), 0.04),
                   SampledRegion(transect_unit([[-0.5, 0.5], [-0.2, 0.5]]),
                                 0.05),
                   SampledRegion(point_unit(-0.2, 0.5), 0.04)]
        with pytest.raises(ConfigError, match="strip quadrature nodes fall "
                                              "in the region of unit 'tr'"):
            region_nodes(regions, spacing=[0.002] * 3,
                         within=StudyRegion.unit_square())

    def test_empty_list(self):
        xy, w, index, d2, measure = region_nodes([], spacing=[])
        assert xy.shape == (0, 2)
        assert len(w) == len(index) == len(d2) == len(measure) == 0
