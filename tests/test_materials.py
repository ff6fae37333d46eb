import itertools
from dataclasses import fields

import numpy as np
import pytest

from corestate.errors import ConfigurationError
from corestate.geometry import GeometryConfig, build_mesh
from corestate.materials import (CellXS, CrossSectionSet, RegionXS,
                                 cell_arrays, cell_values,
                                 default_cross_sections, map_alpha_to_mu,
                                 training_lattice)
from corestate.materials import test_lattice as make_test_lattice

from helpers import fuel_xs, make_region_xs, uniform_config


def scaled_entries_oracle(xs: RegionXS, alpha):
    """Independent per-entry recomputation of the scaling map."""
    a1, a2, a3, a4, a5 = alpha
    out = {
        "d1": xs.d[0] / a1, "d2": xs.d[1] / a2,
        "sa1": a1 * xs.sigma_a[0], "sa2": a2 * xs.sigma_a[1],
        "s12": a3 * xs.sigma_s[0, 1],
        "nsf1": a4 * xs.nu_sigma_f[0], "nsf2": a5 * xs.nu_sigma_f[1],
        "chi1": xs.chi[0], "chi2": xs.chi[1],
        "s11": xs.sigma_s[0, 0], "s22": xs.sigma_s[1, 1],
        "s21": xs.sigma_s[1, 0],
    }
    out["st1"] = out["sa1"] + out["s11"] + out["s12"]
    out["st2"] = out["sa2"] + out["s21"] + out["s22"]
    return out


class TestAlphaMap:
    def test_identity(self):
        base = default_cross_sections()
        mapped = map_alpha_to_mu((1.0,) * 5, base)
        for name in base.region_names():
            for field in ("d", "sigma_a", "sigma_s", "nu_sigma_f", "chi",
                          "kappa_sigma_f", "sigma_t"):
                assert np.array_equal(getattr(mapped[name], field),
                                      getattr(base[name], field)), (name, field)

    def test_first_component_arithmetic(self):
        base = CrossSectionSet({"Fuel": make_region_xs(
            d=(1.0, 0.4), sigma_a=(0.01, 0.08))})
        mapped = map_alpha_to_mu((0.8, 1, 1, 1, 1), base)["Fuel"]
        assert mapped.d[0] == pytest.approx(1.25, rel=1e-15)
        assert mapped.sigma_a[0] == pytest.approx(0.008, rel=1e-15)

    def test_matches_per_entry_oracle(self):
        base = default_cross_sections()
        alpha = (0.9,) * 5
        mapped = map_alpha_to_mu(alpha, base)
        for name in base.region_names():
            want = scaled_entries_oracle(base[name], alpha)
            got = mapped[name]
            assert got.d[0] == want["d1"] and got.d[1] == want["d2"]
            assert got.sigma_a[0] == want["sa1"]
            assert got.sigma_a[1] == want["sa2"]
            assert got.sigma_s[0, 1] == want["s12"]
            assert got.sigma_s[0, 0] == want["s11"]
            assert got.sigma_s[1, 0] == want["s21"]
            assert got.nu_sigma_f[0] == want["nsf1"]
            assert got.nu_sigma_f[1] == want["nsf2"]
            assert got.chi[0] == want["chi1"] and got.chi[1] == want["chi2"]
            assert got.sigma_t[0] == pytest.approx(want["st1"], rel=1e-15)
            assert got.sigma_t[1] == pytest.approx(want["st2"], rel=1e-15)

    @pytest.mark.parametrize("bad", [
        (0.7, 1, 1, 1, 1), (1, 1.1, 1, 1, 1), (0.8, 0.8, 0.8, 0.8)])
    def test_out_of_bounds_rejected(self, bad):
        with pytest.raises(ValueError):
            map_alpha_to_mu(bad, default_cross_sections())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multiplicative_composition(self, seed):
        # products of the two factors stay inside the [0.8, 1] bounds
        rng = np.random.default_rng(seed)
        a = tuple(rng.uniform(0.9, 1.0, 5))
        b = tuple(rng.uniform(0.9, 1.0, 5))
        ab = tuple(x * y for x, y in zip(a, b))
        base = default_cross_sections()
        two_steps = map_alpha_to_mu(b, map_alpha_to_mu(a, base))
        one_step = map_alpha_to_mu(ab, base)
        for name in base.region_names():
            for field in ("d", "sigma_a", "sigma_s", "nu_sigma_f",
                          "sigma_t"):
                lhs = getattr(two_steps[name], field)
                rhs = getattr(one_step[name], field)
                assert np.allclose(lhs, rhs, rtol=1e-14, atol=0), (name, field)

    def test_chi_normalization_preserved(self):
        base = default_cross_sections()
        mapped = map_alpha_to_mu((0.8, 0.85, 0.9, 0.95, 1.0), base)
        for name in mapped.region_names():
            if mapped[name].fissile:
                assert mapped[name].chi.sum() == pytest.approx(1.0, abs=1e-15)


class TestLattices:
    def test_training_size_and_order(self):
        lattice = training_lattice()
        assert len(lattice) == 243
        assert lattice[0] == (0.8, 0.8, 0.8, 0.8, 0.8)
        assert lattice[-1] == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_training_matches_nested_loop_oracle(self):
        oracle = set()
        for a1 in (0.8, 0.9, 1.0):
            for a2 in (0.8, 0.9, 1.0):
                for a3 in (0.8, 0.9, 1.0):
                    for a4 in (0.8, 0.9, 1.0):
                        for a5 in (0.8, 0.9, 1.0):
                            oracle.add((a1, a2, a3, a4, a5))
        lattice = training_lattice()
        assert len(set(lattice)) == len(lattice)
        assert set(lattice) == oracle

    def test_test_lattice(self):
        lattice = make_test_lattice()
        assert len(lattice) == 32
        assert all(a in (0.85, 0.95) for point in lattice for a in point)
        assert lattice == sorted(lattice)

    def test_lattices_disjoint(self):
        assert not set(training_lattice()) & set(make_test_lattice())


class TestCrossSectionSet:
    def test_json_round_trip(self, tmp_path):
        xs = default_cross_sections()
        path = tmp_path / "xs.json"
        xs.save(path)
        again = CrossSectionSet.load(path)
        for name in xs.region_names():
            for field in ("d", "sigma_a", "sigma_s", "nu_sigma_f", "chi",
                          "kappa_sigma_f", "sigma_t"):
                assert np.array_equal(getattr(again[name], field),
                                      getattr(xs[name], field))

    def test_negative_cross_section_rejected(self):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            make_region_xs(sigma_a=(-0.01, 0.1))

    @pytest.mark.parametrize("value", [[1], "regions", None])
    def test_non_object_top_level_rejected(self, value):
        # [1] raised a bare AttributeError.
        with pytest.raises(ConfigurationError,
                           match="^cross sections: the top level must be "
                                 "an object, got "):
            CrossSectionSet.from_dict(value)

    def test_missing_group_block_rejected(self):
        with pytest.raises(ConfigurationError, match="groups"):
            CrossSectionSet.from_dict(
                {"regions": {"Core": {"1": {"D": 1.0, "sigma_a": 0.01}}}})

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigurationError, match="sigma_a"):
            CrossSectionSet.from_dict(
                {"regions": {"Core": {"1": {"D": 1.0, "sigma_a": 0.01},
                                      "2": {"D": 0.4}}}})

    @pytest.mark.parametrize("group, key, value", [
        ("1", "D", True), ("1", "D", "1.3"), ("1", "D", float("nan")),
        ("2", "sigma_a", float("inf")), ("2", "nu_sigma_f", None)])
    def test_non_numeric_coefficient_rejected(self, group, key, value):
        # "D": true loaded as 1.0 and "D": "1.3" as 1.3; json parses NaN
        # and Infinity, and both loaded too.
        d = default_cross_sections().to_dict()
        d["regions"]["Core"][group][key] = value
        with pytest.raises(ConfigurationError,
                           match=rf"^region 'Core' group {group} {key} must "
                                 "be a number, finite and real, got "):
            CrossSectionSet.from_dict(d)

    @pytest.mark.parametrize("path, match", [
        (("Core", "1", "sigma_s12"),
         r"^region 'Core' group 1 has unknown keys \['sigma_s12'\]"),
        (("Core", "2", "sigma_s_12"),
         r"^region 'Core' group 2 has unknown keys \['sigma_s_12'\]"),
        (("Core", "3"), r"^region 'Core' has unknown groups \['3'\]")])
    def test_unknown_key_or_group_rejected(self, path, match):
        # "sigma_s12" set Core's 1->2 transfer to 0 and left its explicit
        # sigma_t unbalanced.
        d = default_cross_sections().to_dict()
        target = d["regions"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 0.016 if len(path) == 3 else {"D": 1.0,
                                                         "sigma_a": 0.01}
        with pytest.raises(ConfigurationError, match=match):
            CrossSectionSet.from_dict(d)

    @pytest.mark.parametrize("d", [{}, {"regions": []}, {"regions": "x"}])
    def test_missing_or_malformed_regions_rejected(self, d):
        # No "regions" raised a bare KeyError, and a list or a string an
        # AttributeError.
        with pytest.raises(ConfigurationError,
                           match=r"^cross sections need a 'regions' object"):
            CrossSectionSet.from_dict(d)

    def test_unnormalized_chi_rejected_in_fissile_region(self):
        with pytest.raises(ConfigurationError, match="spectrum"):
            make_region_xs(chi=(0.9, 0.2))

    def test_chi_flexible_in_non_fissile_region(self):
        make_region_xs(nu_sigma_f=(0.0, 0.0), chi=(0.3, 0.3))

    def test_default_totals_balanced(self):
        xs = default_cross_sections()
        for name in xs.region_names():
            r = xs[name]
            assert np.allclose(r.sigma_t,
                               r.sigma_a + r.sigma_s.sum(axis=1), rtol=1e-12)

    def test_cell_arrays_requires_coefficients_for_all_regions(self):
        mesh = build_mesh(uniform_config(3, 3, region="Mystery"))
        with pytest.raises(ConfigurationError, match="Mystery"):
            cell_arrays(fuel_xs(), mesh)

    def test_cell_arrays_match_region_mask_loop(self):
        # Reference: every region's coefficients written through its
        # mask; a region of the set that the mesh lacks is ignored.
        mesh = build_mesh(GeometryConfig.default())
        base = map_alpha_to_mu(training_lattice()[100],
                               default_cross_sections())
        xs = CrossSectionSet({**base.regions, "Unused": make_region_xs()})
        cx = cell_arrays(xs, mesh)
        for field in fields(CellXS):
            want = np.zeros(getattr(base[mesh.region_names[0]],
                                    field.name).shape + (mesh.ny, mesh.nx))
            for name in mesh.region_names:
                want[..., mesh.region_mask(name)] = \
                    getattr(xs[name], field.name)[..., None]
            np.testing.assert_array_equal(getattr(cx, field.name), want)
            (alone,) = cell_values(xs, mesh, field.name)
            np.testing.assert_array_equal(alone, want)

    def test_cell_arrays_layout(self):
        mesh = build_mesh(uniform_config(3, 2))
        cx = cell_arrays(fuel_xs(), mesh)
        assert cx.sigma_t.shape == (2, 2, 3)
        assert np.all(cx.sigma_t[0] == fuel_xs()["Fuel"].sigma_t[0])
