import weakref
from dataclasses import replace

import numpy as np
import pytest

from corestate import bench, diffusion, eigen, materials
from corestate.diffusion import (GroupOperator, ToleranceConfig,
                                 eigen_residual, power_map_diffusion,
                                 solve_diffusion)
from corestate.errors import (ConfigurationError, DegenerateProblemError,
                              IterationLimitError)
from corestate.geometry import (BoundaryTags, Field, GeometryConfig,
                                RegionBox, build_mesh)
from corestate.materials import (CrossSectionSet, default_cross_sections,
                                 map_alpha_to_mu, training_lattice)

from helpers import (default_lattice_problem, finite_volume_oracle, fuel_xs,
                     homogeneous_problem, make_region_xs, reflective_bc,
                     uniform_config, with_upscatter)


def infinite_medium_k(xs):
    """Analytic fundamental eigenvalue of the spatially constant limit of
    the two-group equation as written (chi = (1, 0), no upscatter):
    k = (nuSf1 + nuSf2 * Ss12 / Sa2) / Sa1."""
    r = xs["Fuel"]
    assert r.chi[0] == 1.0 and r.sigma_s[1, 0] == 0.0
    return (r.nu_sigma_f[0]
            + r.nu_sigma_f[1] * r.sigma_s[0, 1] / r.sigma_a[1]) / r.sigma_a[0]


class TestInfiniteMedium:
    def test_k_matches_analytic_two_group_balance(self):
        mesh, xs = homogeneous_problem(6, 5)
        sol = solve_diffusion(xs, mesh)
        assert sol.k_eff == pytest.approx(infinite_medium_k(xs), abs=1e-8)

    def test_flux_spatially_constant(self):
        mesh, xs = homogeneous_problem(6, 5)
        sol = solve_diffusion(xs, mesh)
        for g in range(2):
            phi = sol.phi[g].values
            assert np.max(np.abs(phi - phi.mean())) <= 1e-8 * phi.mean()

    def test_one_group_limit(self):
        mesh, xs = homogeneous_problem(5, 4, nu_sigma_f=(0.011, 0.0),
                                       sigma_s_12=0.0)
        sol = solve_diffusion(xs, mesh)
        k_expected = 0.011 / xs["Fuel"].sigma_a[0]
        assert sol.k_eff == pytest.approx(k_expected, abs=1e-8)

    def test_upscatter_matches_two_group_oracle(self):
        # 2x2 analytic oracle of the flat limit with Ss21 > 0
        mesh, xs = homogeneous_problem(5, 4, sigma_s_21=0.004)
        r = xs["Fuel"]
        removal = np.array([[r.sigma_a[0], -r.sigma_s[1, 0]],
                            [-r.sigma_s[0, 1], r.sigma_a[1]]])
        fission = np.outer(r.chi, r.nu_sigma_f)
        k_oracle = np.max(np.linalg.eigvals(
            np.linalg.solve(removal, fission)).real)
        sol = solve_diffusion(xs, mesh)
        assert sol.k_eff == pytest.approx(float(k_oracle), abs=1e-8)


class TestGridRefinement:
    def test_richardson_consistency_on_default_layout(self):
        # Second-order scheme: |k25 - k50| stays below the Richardson
        # estimate of the 25x25 discretization error built from the
        # 50 -> 100 refinement (plus an iteration-tolerance allowance).
        xs = default_cross_sections()
        base = GeometryConfig.default()
        ks = {}
        for n in (25, 50, 100):
            config = GeometryConfig(
                extent_x=base.extent_x, extent_y=base.extent_y, nx=n, ny=n,
                regions=base.regions, bc=base.bc)
            ks[n] = solve_diffusion(xs, build_mesh(config)).k_eff
        richardson = (16.0 / 3.0) * abs(ks[50] - ks[100])
        assert abs(ks[25] - ks[50]) < richardson + 1e-7


def band_order(mesh):
    """Natural index of each band-order cell: band rows number the
    cells along the shorter mesh side."""
    natural = np.arange(mesh.n_cells).reshape(mesh.ny, mesh.nx)
    return (natural.T if mesh.nx > mesh.ny else natural).ravel()


def band_to_dense(op, mesh):
    """Expand upper band storage to a dense matrix in natural cell
    order."""
    w, n = op.band.shape[0] - 1, op.band.shape[1]
    banded = np.zeros((n, n))
    for k in range(w + 1):
        banded[np.arange(n - k), np.arange(k, n)] = op.band[w - k, k:]
    banded = banded + np.triu(banded, 1).T
    order = band_order(mesh)
    dense = np.zeros((n, n))
    dense[np.ix_(order, order)] = banded
    return dense


class TestGroupOperator:
    @pytest.mark.parametrize("nx, ny", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("vacuum_model", ["robin", "zero_flux"])
    @pytest.mark.parametrize("bc", [
        BoundaryTags(xmin="vacuum", xmax="reflective",
                     ymin="reflective", ymax="vacuum"),
        BoundaryTags(xmin="reflective", xmax="vacuum",
                     ymin="vacuum", ymax="reflective")])
    def test_band_matches_dense_oracle(self, nx, ny, vacuum_model, bc):
        mesh = build_mesh(uniform_config(nx, ny, lx=3.0, ly=5.0, bc=bc))
        rng = np.random.default_rng(nx * 10 + ny)
        d = rng.uniform(0.3, 2.0, (ny, nx))
        sigma_a = rng.uniform(0.01, 0.2, (ny, nx))
        op = GroupOperator(mesh, d, sigma_a, vacuum_model)
        oracle = finite_volume_oracle(mesh, d, sigma_a, vacuum_model)
        assert op.band.shape == (min(nx, ny) + 1, nx * ny)
        np.testing.assert_allclose(band_to_dense(op, mesh), oracle,
                                   rtol=1e-14, atol=1e-15)
        # The solve takes and gives cells in band order.
        q, order = rng.standard_normal(nx * ny), band_order(mesh)
        np.testing.assert_allclose(op.factorize(1)(q[order]),
                                   np.linalg.solve(oracle, q)[order],
                                   rtol=1e-12)

    @pytest.mark.parametrize("nx, ny", [(5, 3), (3, 5)])
    def test_solve_outlives_its_operator(self, nx, ny):
        # A cached solve keeps its factor only: the operator, and with
        # it the band matrix, goes once the caller drops it.
        mesh = build_mesh(uniform_config(nx, ny))
        rng = np.random.default_rng(nx * 10 + ny)
        op = GroupOperator(mesh, rng.uniform(0.3, 2.0, (ny, nx)),
                           rng.uniform(0.01, 0.2, (ny, nx)), "robin")
        solve = op.factorize(1)
        q = rng.standard_normal(nx * ny)
        before = solve(q)
        alive = weakref.ref(op)
        del op
        assert alive() is None
        after = solve(q)
        assert after.shape == (nx * ny,)
        assert after.tobytes() == before.tobytes()

    @pytest.mark.parametrize("nx, ny", [(30, 20), (20, 30), (24, 24)])
    def test_band_order_solve_certifies(self, nx, ny):
        # The iteration runs in the band's cell order, column-major when
        # nx > ny and row-major otherwise; either way the solution it
        # hands back, in natural order, is a certified eigenpair.
        base = GeometryConfig.default()
        mesh = build_mesh(replace(base, nx=nx, ny=ny))
        xs = map_alpha_to_mu(training_lattice()[60], default_cross_sections())
        sol = solve_diffusion(xs, mesh)
        assert eigen_residual(sol, xs) <= 10 * ToleranceConfig().flux_tol

    def test_transposed_layout_gives_same_k(self):
        # A non-square two-region layout and its x <-> y mirror image
        # are the same problem; one is numbered row-major, the other
        # column-major, so a band-ordering slip shows up in k.
        xs = CrossSectionSet({"Fuel": make_region_xs(),
                              "Reflector": make_region_xs(
                                  nu_sigma_f=(0.0, 0.0),
                                  kappa_sigma_f=(0.0, 0.0))})
        bc = BoundaryTags(xmin="reflective", xmax="vacuum",
                          ymin="vacuum", ymax="reflective")
        config = GeometryConfig(
            extent_x=18.0, extent_y=10.0, nx=9, ny=5,
            regions=(RegionBox("Fuel", (0.0, 12.0, 0.0, 6.0)),
                     RegionBox("Reflector", (0.0, 18.0, 0.0, 10.0))), bc=bc)
        mirrored = GeometryConfig(
            extent_x=10.0, extent_y=18.0, nx=5, ny=9,
            regions=(RegionBox("Fuel", (0.0, 6.0, 0.0, 12.0)),
                     RegionBox("Reflector", (0.0, 10.0, 0.0, 18.0))),
            bc=BoundaryTags(xmin=bc.ymin, xmax=bc.ymax,
                            ymin=bc.xmin, ymax=bc.xmax))
        k = solve_diffusion(xs, build_mesh(config)).k_eff
        k_mirrored = solve_diffusion(xs, build_mesh(mirrored)).k_eff
        assert k_mirrored == pytest.approx(k, rel=1e-12)


class TestConvergedState:
    def test_generalized_eigenresidual(self):
        mesh = build_mesh(GeometryConfig.default())
        xs = default_cross_sections()
        tol = ToleranceConfig()
        sol = solve_diffusion(xs, mesh, tol)
        assert eigen_residual(sol, xs) < 10 * tol.flux_tol

    def test_upscatter_on_default_layout_certifies(self):
        # One group pass per outer takes group 1's upscatter source from
        # the outer's starting iterate; the outer iteration converges
        # the coupling (9 outers, certificate 1.9e-10 at 2%).
        mesh = build_mesh(GeometryConfig.default())
        xs = with_upscatter(default_cross_sections(), 0.02)
        sol = solve_diffusion(xs, mesh)
        assert eigen_residual(sol, xs) < ToleranceConfig().flux_tol

    @pytest.mark.parametrize("max_outer", [1, 3, 5])
    def test_stopped_solve_exceeds_tolerance(self, max_outer):
        # The certificate detects non-convergence: on this test-lattice
        # point the last iterate scored 1.6e-2, 5.4e-4 and 7.4e-7 after
        # 1, 3 and 5 outers.
        cfg = bench.ExperimentConfig.default()
        xs = map_alpha_to_mu(materials.test_lattice()[0],
                             cfg.cross_sections)
        tol = replace(cfg.tolerances, max_outer=max_outer)
        with pytest.raises(IterationLimitError) as err:
            solve_diffusion(xs, build_mesh(cfg.geometry), tol)
        assert eigen_residual(err.value.last_solution, xs) > tol.flux_tol

    def test_certifies_in_the_solve_vacuum_model(self):
        # Certified under the Robin condition, this converged zero-flux
        # solve scored 0.106; in its own model it scores 2.2e-10.
        cfg = bench.ExperimentConfig.default()
        xs = map_alpha_to_mu(bench.PARENT_ALPHA, cfg.cross_sections)
        mesh = build_mesh(cfg.geometry)
        sol = solve_diffusion(xs, mesh, cfg.tolerances,
                              vacuum_model="zero_flux")
        assert sol.vacuum_model == "zero_flux"
        assert eigen_residual(sol, xs) < cfg.tolerances.flux_tol
        tol = replace(cfg.tolerances, max_outer=3)
        with pytest.raises(IterationLimitError) as err:
            solve_diffusion(xs, mesh, tol, vacuum_model="zero_flux")
        assert err.value.last_solution.vacuum_model == "zero_flux"
        assert eigen_residual(err.value.last_solution, xs) > tol.flux_tol

    def test_flux_nonnegative(self):
        mesh = build_mesh(GeometryConfig.default())
        sol = solve_diffusion(default_cross_sections(), mesh)
        for g in range(2):
            phi = sol.phi[g].values
            assert phi.min() >= -1e-12 * phi.max()

    def test_k_scales_with_fission_production(self):
        mesh, xs = homogeneous_problem(5, 4)
        c = 1.7
        scaled = CrossSectionSet({"Fuel": make_region_xs(
            nu_sigma_f=(c * 0.008, c * 0.18))})
        k1 = solve_diffusion(xs, mesh).k_eff
        k2 = solve_diffusion(scaled, mesh).k_eff
        assert k2 == pytest.approx(c * k1, rel=1e-8)

    def test_vacuum_leakage_lowers_k(self):
        mesh_refl, xs = homogeneous_problem(6, 6)
        mesh_vac = build_mesh(uniform_config(6, 6))
        assert solve_diffusion(xs, mesh_vac).k_eff \
            < solve_diffusion(xs, mesh_refl).k_eff

    def test_dirichlet_variant_leaks_more(self):
        mesh = build_mesh(uniform_config(8, 8))
        xs = fuel_xs()
        k_robin = solve_diffusion(xs, mesh, vacuum_model="robin").k_eff
        k_dirichlet = solve_diffusion(xs, mesh,
                                      vacuum_model="zero_flux").k_eff
        assert k_dirichlet < k_robin


class TestPowerMap:
    def test_group2_only_contribution(self):
        mesh, _ = homogeneous_problem(4, 4)
        xs = fuel_xs(kappa_sigma_f=(0.004, 0.0))
        sol = solve_diffusion(xs, mesh)
        p = power_map_diffusion(sol, xs)
        expected = Field(mesh, sol.phi[0].values).normalized()
        assert np.allclose(p.values, expected.values, rtol=1e-12)

    def test_homogeneous_reflective_gives_constant(self):
        mesh, xs = homogeneous_problem(5, 5, )
        p = power_map_diffusion(solve_diffusion(xs, mesh), xs)
        expected = 1.0 / np.sqrt(mesh.extent_x * mesh.extent_y)
        assert np.allclose(p.values, expected, rtol=1e-7)

    def test_matches_elementwise_oracle(self):
        mesh = build_mesh(uniform_config(4, 4))
        xs = fuel_xs()
        sol = solve_diffusion(xs, mesh)
        r = xs["Fuel"]
        raw = (r.kappa_sigma_f[0] * sol.phi[0].values
               + r.kappa_sigma_f[1] * sol.phi[1].values)
        oracle = raw / np.sqrt(np.sum(raw**2) * mesh.cell_area)
        p = power_map_diffusion(sol, xs)
        assert np.allclose(p.values, oracle, rtol=1e-13)
        assert p.norm() == pytest.approx(1.0, rel=1e-13)

    def test_zero_power_rejected(self):
        mesh, _ = homogeneous_problem(4, 4)
        xs = fuel_xs(kappa_sigma_f=(0.0, 0.0))
        sol = solve_diffusion(xs, mesh)
        with pytest.raises(DegenerateProblemError):
            power_map_diffusion(sol, xs)


class TestErrors:
    def test_no_fissile_cell_rejected(self):
        mesh = build_mesh(uniform_config(4, 4))
        xs = fuel_xs(nu_sigma_f=(0.0, 0.0))
        with pytest.raises(DegenerateProblemError, match="fissile"):
            solve_diffusion(xs, mesh)

    def test_fissile_groups_checked_at_the_fission_scale(self):
        # Prepared operators know, per group, whether a cell is fissile,
        # so the check needs no scan of the scaled nuSf.  This problem
        # is fissile in group 2 only.
        mesh = build_mesh(uniform_config(4, 4))
        fuel = diffusion.prepare_diffusion(fuel_xs(), mesh)
        thermal = diffusion.prepare_diffusion(
            fuel_xs(nu_sigma_f=(0.0, 0.18)), mesh)
        for ops, scale in ((fuel, (0.0, 0.0)), (thermal, (1.0, 0.0))):
            with pytest.raises(DegenerateProblemError, match="fissile"):
                solve_diffusion(ops._replace(fission_scale=scale), mesh)
        sol = solve_diffusion(thermal._replace(fission_scale=(0.0, 1.0)),
                              mesh)
        assert sol.k_eff > 0 and sol.fission_scale == (0.0, 1.0)

    def test_nonpositive_d_rejected(self):
        mesh = build_mesh(uniform_config(4, 4))
        xs = fuel_xs(d=(0.0, 0.4))
        with pytest.raises(ConfigurationError, match="D > 0"):
            solve_diffusion(xs, mesh)

    def test_iteration_limit_carries_last_iterate(self):
        mesh = build_mesh(uniform_config(6, 6))
        with pytest.raises(IterationLimitError) as err:
            solve_diffusion(fuel_xs(), mesh,
                            ToleranceConfig(k_tol=1e-14, flux_tol=1e-14,
                                            max_outer=2))
        last = err.value.last_solution
        assert last is not None and last.k_eff > 0

    @pytest.mark.parametrize("nx, ny", [(6, 4), (5, 5)])
    def test_singular_group_operator_rejected(self, nx, ny):
        # No group-2 absorption on a closed domain: the group-2 matrix
        # is singular (on 5 x 5 its Cholesky pivots all stay positive).
        mesh, xs = homogeneous_problem(nx, ny, sigma_a=(0.012, 0.0))
        with pytest.raises(DegenerateProblemError, match="group 2"):
            solve_diffusion(xs, mesh)

    def test_indefinite_group_operator_rejected(self):
        mesh = build_mesh(uniform_config(4, 3))
        op = GroupOperator(mesh, np.ones((3, 4)), np.full((3, 4), -1.0),
                           "robin")
        with pytest.raises(DegenerateProblemError,
                           match="group 1 .* not positive definite"):
            op.factorize(1)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ConfigurationError):
            ToleranceConfig(k_tol=0.0)

    @pytest.mark.parametrize("tolerances", [
        {"k_tol": "inf", "flux_tol": "inf"}, {"flux_tol": "inf"},
        {"k_tol": "nan"}, {"flux_tol": "nan"}])
    def test_nonfinite_tolerances_rejected(self, tolerances):
        # Infinite ones stopped a default diffusion solve after 1 outer.
        with pytest.raises(ConfigurationError,
                           match=r"^tolerances\.(k|flux)_tol must be a "
                                 "number, finite and real, got '(inf|nan)'"):
            ToleranceConfig.from_dict(tolerances)

    def test_bad_vacuum_model_rejected(self):
        mesh = build_mesh(uniform_config(4, 4))
        with pytest.raises(ConfigurationError, match="vacuum_model"):
            solve_diffusion(fuel_xs(), mesh, vacuum_model="albedo")

    def test_start_on_another_mesh_rejected(self):
        start = solve_diffusion(fuel_xs(), build_mesh(uniform_config(5, 4)))
        with pytest.raises(ConfigurationError, match="5 x 4 mesh"):
            solve_diffusion(fuel_xs(), build_mesh(uniform_config(4, 5)),
                            start=start)


class TestFactorCache:
    """Group factors kept across solves (`eigen.cached_factors`): reused
    only for equal inputs, bit-identically, one per group."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(eigen, "_FACTOR_SETS", {})

    @staticmethod
    def problems():
        """The default layout, 15 x 10, at two scalings whose group
        matrices differ in both groups."""
        base = GeometryConfig.default()
        mesh = build_mesh(replace(base, nx=15, ny=10))
        xs = default_cross_sections()
        return mesh, [xs, map_alpha_to_mu((0.8, 0.8, 1.0, 1.0, 1.0), xs)]

    @staticmethod
    def count_factorizations(monkeypatch):
        calls = []
        factorize = GroupOperator.factorize

        def counting(op, group):
            calls.append(group)
            return factorize(op, group)

        monkeypatch.setattr(GroupOperator, "factorize", counting)
        return calls

    def test_reuse_is_bit_identical(self):
        mesh, (a, b) = self.problems()
        results = []
        for xs in (a, a, b, a):
            sol = solve_diffusion(xs, mesh)
            if xs is a:
                results.append((sol.k_eff, [f.values.tobytes()
                                            for f in sol.phi]))
        eigen._FACTOR_SETS.clear()
        cold = solve_diffusion(a, mesh)
        assert results == [(cold.k_eff,
                            [f.values.tobytes() for f in cold.phi])] * 3

    def test_one_set_per_group(self, monkeypatch):
        # The factor is a function, so it can be tracked while alive.
        live, peak = weakref.WeakSet(), []
        factorize = GroupOperator.factorize

        def tracking(op, group):
            peak.append(len(live))
            solve = factorize(op, group)
            live.add(solve)
            return solve

        monkeypatch.setattr(GroupOperator, "factorize", tracking)
        mesh, (a, b) = self.problems()
        solve_diffusion(a, mesh)
        peak.clear()
        solve_diffusion(b, mesh)
        assert len(live) == 2 and peak == [1, 1]
        assert set(eigen._FACTOR_SETS) == {("diffusion", 1),
                                           ("diffusion", 2)}

    def test_changed_region_or_vacuum_model_misses(self, monkeypatch):
        mesh, (a, _) = self.problems()
        solve_diffusion(a, mesh)
        calls = self.count_factorizations(monkeypatch)
        solve_diffusion(a, mesh)
        assert calls == []
        # One region's group-1 absorption, one ulp up: group 1 misses.
        name = a.region_names()[0]
        region = a[name]
        nudged = CrossSectionSet({**a.regions, name: replace(
            region, sigma_a=np.nextafter(region.sigma_a,
                                         region.sigma_a + [1.0, 0.0]))})
        solve_diffusion(nudged, mesh)
        assert calls == [1]
        solve_diffusion(nudged, mesh, vacuum_model="zero_flux")
        assert calls == [1, 1, 2]

    def test_lattice_order_shares_factors(self, monkeypatch, tmp_path):
        # Group 1's operator follows a1 and group 2's a2.  After the
        # parent's two, a2 runs twice and a1 three times (0.85, 0.95 on
        # the first a2 level, then 0.95, 0.85).
        calls = self.count_factorizations(monkeypatch)
        bench.generate_snapshots(bench.ExperimentConfig.default(tmp_path),
                                 "diffusion", "test")
        assert calls == [1, 2, 1, 2, 1, 2, 1]

    @staticmethod
    def count_assemblies(monkeypatch):
        built = []
        init = GroupOperator.__init__

        def counting(op, *args):
            built.append(op)
            init(op, *args)

        monkeypatch.setattr(GroupOperator, "__init__", counting)
        return built

    def test_hit_assembles_no_operator(self, monkeypatch):
        mesh, (a, _) = self.problems()
        solve_diffusion(a, mesh)
        built = self.count_assemblies(monkeypatch)
        solve_diffusion(a, mesh)
        assert built == []

    def test_eigen_residual_after_its_solve_factorizes_nothing(
            self, monkeypatch):
        mesh, (a, _) = self.problems()
        sol = solve_diffusion(a, mesh)
        built = self.count_assemblies(monkeypatch)
        calls = self.count_factorizations(monkeypatch)
        assert eigen_residual(sol, a) < ToleranceConfig().flux_tol
        assert built == [] and calls == []


class TestAndersonMixing:
    """The Anderson-mixed outer iteration (`eigen._Anderson`, depth 2):
    the mixing step itself, and its effect on diffusion solves."""

    def test_two_differences_solve_a_linear_map_in_the_plane(self):
        # For an affine map the residual is affine too, so once two
        # differences span the plane the mixed iterate is the fixed
        # point.
        a = np.array([[0.3, 0.1], [-0.2, 0.25]])
        b = np.array([1.0, 2.0])
        fixed = np.linalg.solve(np.eye(2) - a, b)
        x, mix = np.zeros(2), eigen._Anderson(2)
        for _ in range(3):
            g = a @ x + b
            x = mix(g, g - x)
        np.testing.assert_allclose(x, fixed, rtol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_singular_or_nan_fit_takes_the_plain_step(self, bad):
        g, f = np.arange(4.0), np.ones(4)
        mix = eigen._Anderson(4)
        for pair in [(g, f), (g, f + bad)]:
            mix(*pair)
        assert mix(g, f) is g

    def test_matches_least_squares_step(self):
        # The kept differences and the closed-form fit give the type-II
        # step of a least-squares solve on the last (up to) two
        # differences, formed afresh from the whole history.
        rng = np.random.default_rng(7)
        mix, history = eigen._Anderson(50), []
        for _ in range(8):
            g, f = rng.standard_normal(50), rng.standard_normal(50)
            history = (history + [(g, f)])[-3:]
            mixed = mix(g, f)
            if len(history) == 1:
                assert mixed is g
                continue
            dg = np.array([b[0] - a[0] for a, b in zip(history, history[1:])])
            df = np.array([b[1] - a[1] for a, b in zip(history, history[1:])])
            gamma = np.linalg.lstsq(df.T, f, rcond=None)[0]
            np.testing.assert_allclose(mixed, g - gamma @ dg, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(g)))

    @pytest.mark.parametrize("index", [0, 60, 121, 180, 242])
    def test_cold_default_points_take_fewer_outers(self, index):
        # Mixed: 8 outers; plain power iteration takes 11-12.
        cfg, mesh, xs = default_lattice_problem(index)
        assert solve_diffusion(xs, mesh, cfg.tolerances).iterations <= 9

    def test_restart_from_own_solution_stays_put(self):
        cfg, mesh, xs = default_lattice_problem(0)
        sol = solve_diffusion(xs, mesh, cfg.tolerances)
        again = solve_diffusion(xs, mesh, cfg.tolerances, start=sol)
        assert again.iterations <= 2
        assert np.isfinite(again.k_eff)
        assert all(np.isfinite(f.values).all() for f in again.phi)
        assert abs(again.k_eff - sol.k_eff) <= cfg.tolerances.k_tol

    @pytest.mark.parametrize("index", [0, 121, 242])
    def test_matches_tight_reference(self, index):
        cfg, mesh, xs = default_lattice_problem(index)
        tol = cfg.tolerances
        tight = ToleranceConfig(k_tol=tol.k_tol / 1000,
                                flux_tol=tol.flux_tol / 1000,
                                max_outer=tol.max_outer)
        sol, ref = (solve_diffusion(xs, mesh, t) for t in (tol, tight))
        assert abs(sol.k_eff - ref.k_eff) <= tol.k_tol
        power, exact = (power_map_diffusion(s, xs).values for s in (sol, ref))
        assert (np.max(np.abs(power - exact))
                <= tol.flux_tol * np.max(np.abs(exact)))
        assert eigen_residual(sol, xs) <= 10 * tol.flux_tol

    def test_capped_solve_carries_its_last_step(self):
        mesh, xs = build_mesh(uniform_config(6, 6)), fuel_xs()
        with pytest.raises(IterationLimitError) as err:
            solve_diffusion(xs, mesh, ToleranceConfig(
                k_tol=1e-14, flux_tol=1e-14, max_outer=5))
        last = err.value.last_solution
        assert last.iterations == 5 and last.k_eff > 0
        sol = solve_diffusion(xs, mesh, start=last)
        assert eigen_residual(sol, xs) < ToleranceConfig().flux_tol
