import numpy as np
import pytest

from corestate.errors import ConfigurationError, DegenerateProblemError
from corestate.geometry import (Field, GeometryConfig, RegionBox, build_mesh,
                                inner_product, relative_l2_error)

from helpers import random_field, uniform_config


def point_in_box_region(config, x, y):
    """Brute-force oracle: first region box (by priority, then position)
    containing the point."""
    best = None
    for k, r in enumerate(config.regions):
        prio = r.priority if r.priority is not None else k
        x0, x1, y0, y1 = r.box
        if x0 <= x <= x1 and y0 <= y <= y1:
            if best is None or prio < best[0]:
                best = (prio, r.name)
    return None if best is None else best[1]


class TestBuildMesh:
    def test_default_layout(self):
        mesh = build_mesh(GeometryConfig.default())
        assert mesh.n_cells == 2500
        assert mesh.cell_area == pytest.approx(0.25)
        # centers (7.5, 7.5), (17.5, 2.5), (22, 22) -> cell indices
        def region_at(x, y):
            i = int(x / mesh.dx)
            j = int(y / mesh.dy)
            return mesh.region_of(i, j)
        assert region_at(7.5, 7.5) == "Core"
        assert region_at(17.5, 2.5) == "Void"
        assert region_at(22.0, 22.0) == "Reflector"
        assert mesh.bc.xmin == "reflective" and mesh.bc.ymin == "reflective"
        assert mesh.bc.xmax == "vacuum" and mesh.bc.ymax == "vacuum"

    def test_tiny_single_region(self):
        mesh = build_mesh(uniform_config(2, 2, lx=1.0, ly=1.0, region="A"))
        assert mesh.n_cells == 4
        assert mesh.cell_area == pytest.approx(0.25)
        assert np.all(mesh.region_map == 0)
        assert mesh.region_names == ("A",)

    def test_region_assignment_matches_point_in_box_oracle(self):
        config = GeometryConfig.default()
        config = GeometryConfig(
            extent_x=config.extent_x, extent_y=config.extent_y, nx=10, ny=10,
            regions=config.regions, bc=config.bc)
        mesh = build_mesh(config)
        for j, y in enumerate(mesh.cell_centers_y):
            for i, x in enumerate(mesh.cell_centers_x):
                assert mesh.region_of(i, j) == point_in_box_region(config, x, y)

    def test_ambiguous_overlap_rejected(self):
        config = GeometryConfig(
            extent_x=4.0, extent_y=4.0, nx=4, ny=4,
            regions=(RegionBox("A", (0, 4, 0, 4), priority=0),
                     RegionBox("B", (0, 2, 0, 2), priority=0)))
        with pytest.raises(ConfigurationError, match="equal priority"):
            build_mesh(config)

    def test_zero_size_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            build_mesh(GeometryConfig(extent_x=0.0, extent_y=1.0, nx=2, ny=2,
                                      regions=(RegionBox("A", (0, 1, 0, 1)),)))

    def test_uncovered_cell_rejected(self):
        config = GeometryConfig(
            extent_x=4.0, extent_y=4.0, nx=4, ny=4,
            regions=(RegionBox("A", (0, 2, 0, 4)),))
        with pytest.raises(ConfigurationError, match="no region"):
            build_mesh(config)

    def test_box_outside_domain_rejected(self):
        config = GeometryConfig(
            extent_x=4.0, extent_y=4.0, nx=4, ny=4,
            regions=(RegionBox("A", (0, 5, 0, 4)),))
        with pytest.raises(ConfigurationError, match="outside"):
            build_mesh(config)

    def test_priority_overrides_listing_order(self):
        config = GeometryConfig(
            extent_x=4.0, extent_y=4.0, nx=4, ny=4,
            regions=(RegionBox("A", (0, 4, 0, 4), priority=5),
                     RegionBox("B", (0, 2, 0, 2), priority=1)))
        mesh = build_mesh(config)
        assert mesh.region_of(0, 0) == "B"
        assert mesh.region_of(3, 3) == "A"

    def test_config_dict_round_trip(self):
        config = GeometryConfig.default()
        again = GeometryConfig.from_dict(config.to_dict())
        assert again == config

    @pytest.mark.parametrize("key, value, match", [
        ("regions", None, "geometry is missing 'regions'"),
        ("extent_x", None, "geometry is missing 'extent_x'"),
        ("ny", None, "geometry is missing 'ny'"),
        ("name", None, "geometry region 0 is missing 'name'"),
        ("box", None, "region 'Core' is missing 'box'"),
        ("box", [0.0, 15.0, 0.0], "region 'Core' box must be 4 numbers"),
        ("box", [0.0, 15.0, 0.0, "15"], "region 'Core' box must be 4 numbers"),
        ("box", "0 15", "region 'Core' box must be 4 numbers"),
        ("box", 15.0, "region 'Core' box must be 4 numbers"),
        ("extent_x", "wide", "geometry extent_x must be a number"),
        ("bc", {"left": "vacuum"}, "geometry bc has unknown sides"),
        ("regions", ["Core"], "geometry region 0 must be an object"),
        ("extent_y", float("nan"), "geometry extent_y must be a number"),
        ("box", [0.0, 15.0, 0.0, float("inf")],
         "region 'Core' box must be 4 numbers"),
        ("priorty", 1, r"geometry region 0 has unknown keys \['priorty'\]")])
    def test_missing_or_malformed_field_named(self, key, value, match):
        d = GeometryConfig.default().to_dict()
        target = d if key in d else d["regions"][0]
        if value is None:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(ConfigurationError, match=f"^{match}"):
            GeometryConfig.from_dict(d)


class TestInnerProduct:
    def test_constant_one_gives_domain_area(self):
        mesh = build_mesh(GeometryConfig.default())
        one = Field(mesh, np.ones(mesh.n_cells))
        assert inner_product(one, one) == pytest.approx(625.0, rel=1e-14)

    def test_disjoint_supports_give_zero(self):
        mesh = build_mesh(uniform_config(4, 4))
        f = np.zeros(16); f[:8] = 2.0
        g = np.zeros(16); g[8:] = 3.0
        assert inner_product(Field(mesh, f), Field(mesh, g)) == 0.0

    def test_matches_direct_summation_oracle(self):
        mesh = build_mesh(uniform_config(5, 5))
        rng = np.random.default_rng(7)
        f, g = random_field(mesh, rng), random_field(mesh, rng)
        oracle = sum(float(a) * float(b) * mesh.cell_area
                     for a, b in zip(f.values, g.values))
        assert inner_product(f, g) == pytest.approx(oracle, rel=1e-14)

    def test_mesh_mismatch_rejected(self):
        m1 = build_mesh(uniform_config(4, 4))
        m2 = build_mesh(uniform_config(4, 5))
        with pytest.raises(ValueError, match="different meshes"):
            inner_product(Field(m1, np.ones(16)), Field(m2, np.ones(20)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetric_and_bilinear(self, seed):
        mesh = build_mesh(uniform_config(6, 3))
        rng = np.random.default_rng(seed)
        f, g, h = (random_field(mesh, rng) for _ in range(3))
        a, b = 2.7, -0.3
        assert inner_product(f, g) == inner_product(g, f)
        combo = Field(mesh, a * f.values + b * h.values)
        lhs = inner_product(combo, g)
        rhs = a * inner_product(f, g) + b * inner_product(h, g)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_positive_definite(self, seed):
        mesh = build_mesh(uniform_config(5, 4))
        rng = np.random.default_rng(seed)
        f = random_field(mesh, rng)
        assert inner_product(f, f) > 0
        zero = Field(mesh, np.zeros(mesh.n_cells))
        assert inner_product(zero, zero) == 0.0

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_cauchy_schwarz(self, seed):
        mesh = build_mesh(uniform_config(7, 2))
        rng = np.random.default_rng(seed)
        f, g = random_field(mesh, rng), random_field(mesh, rng)
        lhs = inner_product(f, g) ** 2
        rhs = inner_product(f, f) * inner_product(g, g)
        assert lhs <= rhs * (1 + 1e-12)


class TestRelativeError:
    def test_identical_fields(self):
        mesh = build_mesh(uniform_config(4, 4))
        u = random_field(mesh, np.random.default_rng(0))
        assert relative_l2_error(u, u) == 0.0

    def test_zero_estimate(self):
        mesh = build_mesh(uniform_config(4, 4))
        u = Field(mesh, np.full(16, 2.0))
        zero = Field(mesh, np.zeros(16))
        assert relative_l2_error(u, zero) == pytest.approx(1.0, rel=1e-14)

    def test_constant_offset(self):
        mesh = build_mesh(uniform_config(4, 4))
        u = Field(mesh, np.full(16, 2.0))
        v = Field(mesh, np.full(16, 1.0))
        assert relative_l2_error(u, v) == pytest.approx(0.5, rel=1e-14)

    def test_zero_reference_rejected(self):
        mesh = build_mesh(uniform_config(4, 4))
        zero = Field(mesh, np.zeros(16))
        with pytest.raises(DegenerateProblemError):
            relative_l2_error(zero, zero)


class TestField:
    def test_wrong_length_rejected(self):
        mesh = build_mesh(uniform_config(4, 4))
        with pytest.raises(ValueError, match="16 values"):
            Field(mesh, np.ones(15))

    def test_non_finite_rejected(self):
        mesh = build_mesh(uniform_config(4, 4))
        values = np.ones(16); values[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(mesh, values)

    def test_values_immutable(self):
        mesh = build_mesh(uniform_config(4, 4))
        f = Field(mesh, np.ones(16))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_normalized(self):
        mesh = build_mesh(uniform_config(4, 4))
        f = Field(mesh, np.full(16, 3.0))
        assert f.normalized().norm() == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(DegenerateProblemError):
            Field(mesh, np.zeros(16)).normalized()
