import multiprocessing
import weakref
from dataclasses import replace

import numpy as np
import pytest

from corestate import bench, diffusion, eigen, transport
from corestate.diffusion import ToleranceConfig
from corestate.errors import (ConfigurationError, DegenerateProblemError,
                              IterationLimitError)
from corestate.geometry import BoundaryTags, Field, GeometryConfig, build_mesh
from corestate.materials import (CrossSectionSet, default_cross_sections,
                                 map_alpha_to_mu)
from corestate.sensing import build_sensors, observe
from corestate.transport import (AngularQuadrature, build_quadrature,
                                 eigen_residual, power_map_transport,
                                 solve_transport)

from helpers import (SharedCounts, default_lattice_problem,
                     finite_volume_oracle, fuel_xs, homogeneous_problem,
                     one_direction_flux, reflective_bc, uniform_config,
                     with_upscatter)

FOUR_PI = 4.0 * np.pi


def small_default_mesh(n=3, bc=None):
    """Default region layout on an aligned coarse grid (15n x 10n), with
    the default side conditions unless `bc` is given."""
    base = GeometryConfig.default()
    return build_mesh(GeometryConfig(
        extent_x=base.extent_x, extent_y=base.extent_y,
        nx=15 * n, ny=10 * n, regions=base.regions, bc=bc or base.bc))


def infinite_medium_k_transport(xs):
    """Analytic 2x2 eigen oracle: (St - Ss_within) phi = H phi + (1/k) F phi
    solved directly for the spatially flat, isotropic limit."""
    r = xs["Fuel"]
    removal = np.diag(r.sigma_t) - r.sigma_s.T
    fission = np.outer(r.chi, r.nu_sigma_f)
    eigvals = np.linalg.eigvals(np.linalg.solve(removal, fission))
    return float(np.max(eigvals.real))


class TestQuadrature:
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_weights_sum_to_full_solid_angle(self, order):
        q = build_quadrature(order)
        assert q.weight.sum() == pytest.approx(FOUR_PI, rel=1e-12)
        assert q.n_directions == order * (order + 2) // 2

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_odd_moments_vanish(self, order):
        q = build_quadrature(order)
        assert abs(np.dot(q.weight, q.omega_x)) < 1e-12
        assert abs(np.dot(q.weight, q.omega_y)) < 1e-12

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_quadrant_symmetry_of_second_moments(self, order):
        q = build_quadrature(order)
        mx = np.dot(q.weight, q.omega_x**2)
        my = np.dot(q.weight, q.omega_y**2)
        assert abs(mx - my) < 1e-12

    def test_second_moment_matches_unit_sphere(self):
        # int over directions of (Omega_x)^2 = 4*pi/3 on the sphere
        q = build_quadrature(4)
        assert np.dot(q.weight, q.omega_x**2) == pytest.approx(
            FOUR_PI / 3.0, abs=1e-10)

    @pytest.mark.parametrize("order", [1, 3, 0, -2])
    def test_bad_order_rejected(self, order):
        with pytest.raises(ValueError, match="even"):
            build_quadrature(order)

    def test_mirror_maps(self):
        q = build_quadrature(4)
        for d in range(q.n_directions):
            mx, my = q.mirror_x[d], q.mirror_y[d]
            assert q.omega_x[mx] == -q.omega_x[d]
            assert q.omega_y[mx] == q.omega_y[d]
            assert q.omega_x[my] == q.omega_x[d]
            assert q.omega_y[my] == -q.omega_y[d]
            assert q.weight[mx] == q.weight[d] == q.weight[my]


class TestInfiniteMedium:
    def test_k_matches_two_group_eigen_oracle(self):
        mesh, xs = homogeneous_problem(5, 4)
        sol = solve_transport(xs, mesh, build_quadrature(4))
        assert sol.k_eff == pytest.approx(infinite_medium_k_transport(xs),
                                          abs=1e-6)

    def test_upscatter_matches_two_group_oracle(self):
        mesh, xs = homogeneous_problem(5, 4, sigma_s_21=0.004)
        sol = solve_transport(xs, mesh, build_quadrature(2))
        assert sol.k_eff == pytest.approx(infinite_medium_k_transport(xs),
                                          abs=1e-6)

    def test_scalar_flux_constant_and_isotropic(self):
        mesh, xs = homogeneous_problem(5, 4)
        sol = solve_transport(xs, mesh, build_quadrature(4))
        for g in range(2):
            phi = sol.scalar_flux[g].values
            assert np.max(np.abs(phi - phi.mean())) <= 1e-6 * phi.mean()
            psi = sol.angular_flux[g]
            spread = psi.max() - psi.min()
            assert spread <= 1e-6 * psi.mean() * FOUR_PI


class TestAttenuation:
    def test_pure_absorber_matches_exponential_under_refinement(self):
        # Fixed unit inflow on both upstream faces of a pure absorber;
        # the exact solution is exp(-sigma_t * min(x/ox, y/oy)).  The
        # step scheme is first order in the mean (the max norm degrades
        # along the characteristic kink), so halving h halves the error.
        sigma_t = 0.8
        omega = (0.6, 0.45)
        lx = ly = 6.0
        errors = []
        for n in (12, 24, 48):
            mesh = build_mesh(uniform_config(n, n, lx=lx, ly=ly))
            sig = np.full((mesh.ny, mesh.nx), sigma_t)
            psi = one_direction_flux(mesh, sig, omega,
                                     emission2d=np.zeros((mesh.ny, mesh.nx)),
                                     inflow_x=np.ones(mesh.ny),
                                     inflow_y=np.ones(mesh.nx))
            x = mesh.cell_centers_x[None, :]
            y = mesh.cell_centers_y[:, None]
            exact = np.exp(-sigma_t * np.minimum(x / omega[0], y / omega[1]))
            errors.append(np.mean(np.abs(psi - exact)))
        assert errors[1] < 0.8 * errors[0]
        assert errors[2] < 0.8 * errors[1]
        assert errors[2] < 0.4 * errors[0]

    def test_single_column_attenuation_profile(self):
        # With x-side inflow only, the first row obeys the exact step
        # recursion psi_i = r^(i+1) with r = a / (sigma_t A + a + b).
        mesh = build_mesh(uniform_config(30, 4, lx=3.0, ly=0.4))
        sigma_t = 1.1
        omega = (0.7, 0.01)
        sig = np.full((mesh.ny, mesh.nx), sigma_t)
        psi = one_direction_flux(mesh, sig, omega,
                                 emission2d=np.zeros((mesh.ny, mesh.nx)),
                                 inflow_x=np.ones(mesh.ny))
        a = omega[0] * mesh.dy
        b = omega[1] * mesh.dx
        r = a / (sigma_t * mesh.cell_area + a + b)
        profile = psi[0, :]
        assert profile[0] == pytest.approx(r, rel=1e-12)
        assert np.allclose(profile[1:] / profile[:-1], r, rtol=1e-12)

    def test_direction_factors_have_no_fill(self):
        # Upwind numbering makes each direction system, and the system
        # of a whole sweep with its reflective couplings to quadrants
        # swept earlier, lower triangular for either scheme: L keeps
        # exactly the matrix's nonzeros and U is its diagonal.  The
        # same holds for the cached system refilled with another
        # group's (here spatially varying) totals, on the default,
        # all-vacuum and all-reflective layouts.
        sig = np.full((10, 15), 0.5)
        varied = 0.2 + np.random.default_rng(1).random((10, 15))
        quad = build_quadrature(4)
        factors = []
        for bc in (None, BoundaryTags(xmin="vacuum", ymin="vacuum"),
                   reflective_bc()):
            mesh = small_default_mesh(1, bc)
            for scheme in transport.SCHEMES:
                sweepers = [transport._GroupSweeper(mesh, quad, s, scheme, g)
                            for g, s in enumerate((sig, varied), start=1)]
                assert sweepers[0]._system is sweepers[1]._system
                factors += [(sweeper._system, sweeper._lu)
                            for sweeper in sweepers]
        directions = [transport._sweep_block(
            mesh.nx, mesh.ny, mesh.dx, mesh.dy, [quad.omega_x[d]],
            [quad.omega_y[d]])[0] for d in range(quad.n_directions)]
        factors += [(block, block.factorize(sig, mesh.cell_area))
                    for block in directions]
        for block, lu in factors:
            assert lu.L.nnz == block.indices.size
            assert lu.U.nnz == block.diag_pos.size


def exit_faces(psi, ox, oy):
    """The (exit column, exit row) of a (ny, nx) array for (ox, oy)."""
    return psi[:, -1 if ox > 0 else 0], psi[-1 if oy > 0 else 0, :]


def assembled_step_solve(mesh, sig, ox, oy, emission_area, inflow_x,
                         inflow_y):
    """Step-scheme flux of one direction from a dense system assembled
    cell by cell in natural order: (sigma_t A + a + b) psi - a psi_x,up
    - b psi_y,up = q A, the upstream flux being the inflow on the
    boundary.  Returns the cell flux and the outgoing x and y face
    fluxes, those of the exit cells."""
    nx, ny = mesh.nx, mesh.ny
    a, b = abs(ox) * mesh.dy, abs(oy) * mesh.dx
    mat = np.zeros((nx * ny, nx * ny))
    rhs = emission_area.copy()
    for j in range(ny):
        for i in range(nx):
            c = j * nx + i
            mat[c, c] = sig[j, i] * mesh.cell_area + a + b
            iu, ju = i - int(np.sign(ox)), j - int(np.sign(oy))
            if 0 <= iu < nx:
                mat[c, j * nx + iu] = -a
            else:
                rhs[c] += a * inflow_x[j]
            if 0 <= ju < ny:
                mat[c, ju * nx + i] = -b
            else:
                rhs[c] += b * inflow_y[i]
    psi = np.linalg.solve(mat, rhs).reshape(ny, nx)
    return (psi, *exit_faces(psi, ox, oy))


def assembled_diamond_solve(mesh, sig, ox, oy, emission_area, inflow_x,
                            inflow_y):
    """Diamond-difference flux of one direction from a dense system
    assembled cell by cell in natural order, with unknowns psi, then
    each cell's outgoing x face flux, then its outgoing y face flux:
    (sigma_t A + 2a + 2b) psi - 2a f_x,in - 2b f_y,in = q A and
    f_out - 2 psi + f_in = 0 per face, the incoming face flux being the
    upstream cell's outgoing one, or the inflow on the boundary.
    Returns the cell flux and the outgoing x and y face fluxes on the
    exit sides."""
    nx, ny = mesh.nx, mesh.ny
    n = nx * ny
    a, b = abs(ox) * mesh.dy, abs(oy) * mesh.dx
    mat = np.zeros((3 * n, 3 * n))
    rhs = np.concatenate([emission_area, np.zeros(2 * n)])
    for j in range(ny):
        for i in range(nx):
            c = j * nx + i
            mat[c, c] = sig[j, i] * mesh.cell_area + 2 * a + 2 * b
            iu, ju = i - int(np.sign(ox)), j - int(np.sign(oy))
            for off, weight, up, inflow in (
                    (n, a, j * nx + iu if 0 <= iu < nx else None,
                     inflow_x[j]),
                    (2 * n, b, ju * nx + i if 0 <= ju < ny else None,
                     inflow_y[i])):
                mat[off + c, off + c] = 1.0
                mat[off + c, c] = -2.0
                if up is None:
                    rhs[c] += 2 * weight * inflow
                    rhs[off + c] -= inflow
                else:
                    mat[c, off + up] = -2 * weight
                    mat[off + c, off + up] = 1.0
    x = np.linalg.solve(mat, rhs)
    return (x[:n].reshape(ny, nx),
            exit_faces(x[n:2 * n].reshape(ny, nx), ox, oy)[0],
            exit_faces(x[2 * n:].reshape(ny, nx), ox, oy)[1])


@pytest.mark.parametrize("nx, ny", [(7, 4), (4, 7)])
def test_planned_sweep_matches_assembled_system(nx, ny):
    # Non-square mesh and cells, varied totals, emission and start: one
    # sweep of a sweeper refilled from the cached system, for either
    # scheme, matches a system assembled cell by cell per direction, in
    # the cell flux and the exit-face fluxes.  A reflective inflow is
    # the mirror direction's exit face: of this sweep when its quadrant
    # is swept earlier, of the start when later (xmax, ymax); the
    # layouts cover both and vacuum sides.
    rng = np.random.default_rng(nx)
    sig = 0.3 + rng.random((ny, nx))
    quad = build_quadrature(4)
    nb = quad.n_directions // 4
    emission = rng.random((ny, nx))
    start = rng.random((quad.n_directions, ny, nx))
    for bc in (reflective_bc(), BoundaryTags(),
               BoundaryTags(xmin="vacuum", xmax="reflective")):
        mesh = build_mesh(uniform_config(nx, ny, lx=7.0, ly=3.0, bc=bc))
        emission_area = emission.ravel() * mesh.cell_area
        for scheme, assembled in (("step", assembled_step_solve),
                                  ("diamond", assembled_diamond_solve)):
            sweeper = transport._GroupSweeper(mesh, quad, sig, scheme, 1)
            sweeper.seed(start)
            sweeper.sweep(emission)
            psi = sweeper.psi
            # Outgoing x (y) face fluxes: psi's unknown in step, the
            # next (second next) one in diamond.
            fx, fy = (1, 2) if scheme == "diamond" else (0, 0)
            face_x = sweeper.x[sweeper._system.rank + fx]
            face_y = sweeper.x[sweeper._system.rank + fy]
            swept = {}
            for q in transport._SWEEP_ORDER:
                for d in range(q * nb, (q + 1) * nb):
                    ox, oy = quad.omega_x[d], quad.omega_y[d]
                    inflows = []
                    for side, mirror, k in (
                            ("xmin" if ox > 0 else "xmax",
                             quad.mirror_x[d], 1),
                            ("ymin" if oy > 0 else "ymax",
                             quad.mirror_y[d], 2)):
                        if getattr(bc, side) == "vacuum":
                            inflows.append(np.zeros(ny if k == 1 else nx))
                        elif mirror in swept:
                            inflows.append(swept[mirror][k])
                        else:
                            inflows.append(exit_faces(
                                start[mirror], quad.omega_x[mirror],
                                quad.omega_y[mirror])[k - 1])
                    swept[d] = assembled(mesh, sig, ox, oy, emission_area,
                                         *inflows)
                    computed = (psi[d], exit_faces(face_x[d], ox, oy)[0],
                                exit_faces(face_y[d], ox, oy)[1])
                    for got, want in zip(computed, swept[d]):
                        assert (np.max(np.abs(got - want))
                                <= 1e-14 * np.max(np.abs(want)))


class TestSweepSystem:
    """The whole sweep as one lower-triangular solve, with reflective
    inflows from quadrants swept later lagged by one sweep."""

    def test_one_superlu_solve_per_sweep(self, monkeypatch):
        solves = []

        class Counting:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                solves.append(rhs.size)
                return self.lu.solve(rhs)

        cached = transport.cached_factors

        def counting(kind, *args, **kwargs):
            value = cached(kind, *args, **kwargs)
            return Counting(value) if kind == "sweep" else value

        monkeypatch.setattr(transport, "cached_factors", counting)
        for mesh, xs in ((small_default_mesh(1), default_cross_sections()),
                         homogeneous_problem(5, 4)):
            solves.clear()
            sol = solve_transport(xs, mesh, build_quadrature(2))
            assert len(solves) == sol.sweeps > 0

    @pytest.mark.parametrize("scheme", transport.SCHEMES)
    def test_default_layout_has_no_lagged_inflows(self, scheme):
        # Its reflective sides, xmin and ymin, are fed within the sweep,
        # so the DSA correction of the exit faces has nothing to feed.
        mesh = small_default_mesh(1)
        rng = np.random.default_rng(3)
        sig = 0.3 + rng.random((mesh.ny, mesh.nx))
        emission = rng.random((mesh.ny, mesh.nx))
        sweeper, twin = (transport._GroupSweeper(
            mesh, build_quadrature(4), sig, scheme, 1) for _ in range(2))
        assert sweeper._lag is None
        sweeper.sweep(emission)
        twin.sweep(emission)
        state = sweeper.x.copy()
        sweeper.correct(rng.random((mesh.ny, mesh.nx)))
        assert sweeper.x.tobytes() == state.tobytes()
        assert (sweeper.sweep(emission).tobytes()
                == twin.sweep(emission).tobytes())

    @pytest.mark.parametrize("scheme", transport.SCHEMES)
    def test_reflective_layout_lags_its_dsa_correction(self, scheme):
        # All four sides reflective: the xmax and ymax inflows come from
        # the previous sweep, and the DSA correction reaches them.
        mesh, _ = homogeneous_problem(5, 4)
        rng = np.random.default_rng(4)
        sig = 0.3 + rng.random((mesh.ny, mesh.nx))
        emission = rng.random((mesh.ny, mesh.nx))
        sweeper, twin = (transport._GroupSweeper(
            mesh, build_quadrature(4), sig, scheme, 1) for _ in range(2))
        assert sweeper._lag is not None and sweeper._lag.nnz > 0
        sweeper.sweep(emission)
        twin.sweep(emission)
        sweeper.correct(rng.random((mesh.ny, mesh.nx)))
        corrected, plain = sweeper.sweep(emission), twin.sweep(emission)
        assert np.max(np.abs(corrected - plain)) > 1e-3 * np.max(plain)

    @pytest.mark.parametrize("scheme", transport.SCHEMES)
    def test_scale_reaches_lagged_inflows(self, scheme):
        # A sweep is linear in its emission and its lagged inflows, so
        # after `scale(3)` three times the emission gives three times
        # the twin's scalar flux, the DSA correction included.
        mesh, _ = homogeneous_problem(5, 4)
        rng = np.random.default_rng(5)
        sig = 0.3 + rng.random((mesh.ny, mesh.nx))
        emission = rng.random((mesh.ny, mesh.nx))
        delta = rng.random((mesh.ny, mesh.nx))
        sweeper, twin = (transport._GroupSweeper(
            mesh, build_quadrature(4), sig, scheme, 1) for _ in range(2))
        for s in (sweeper, twin):
            s.sweep(emission)
            s.correct(delta)
        sweeper.scale(3.0)
        np.testing.assert_allclose(sweeper.psi, 3.0 * twin.psi, rtol=1e-15)
        np.testing.assert_allclose(sweeper.sweep(3.0 * emission),
                                   3.0 * twin.sweep(emission), rtol=1e-13)


def manufactured_error(n, scheme, omega=(0.6, 0.35), a=1.3, b=2.1):
    """RMS error of one direction's sweep on an n x n mesh of the unit
    square with sigma_t = 1, against psi = exp(a x) cos(b y): the source
    and the inflows are its exact cell and face averages, and the
    computed cell fluxes are compared with its cell averages."""
    ox, oy = omega
    h = 1.0 / n
    edges = np.linspace(0.0, 1.0, n + 1)
    f, g = np.exp(a * edges), np.cos(b * edges)
    f_bar = np.diff(np.exp(a * edges) / a) / h
    g_bar = np.diff(np.sin(b * edges) / b) / h
    exact = np.outer(g_bar, f_bar)
    source = (ox * np.outer(g_bar, np.diff(f) / h)
              + oy * np.outer(np.diff(g) / h, f_bar) + exact)
    mesh = build_mesh(uniform_config(n, n, lx=1.0, ly=1.0))
    psi = one_direction_flux(mesh, np.ones((n, n)), omega, source,
                             f[0] * g_bar, f_bar * g[0], scheme)
    return np.sqrt(np.mean((psi - exact) ** 2))


@pytest.mark.parametrize("scheme,order", [("diamond", 1.9), ("step", 0.8)])
def test_manufactured_solution_order(scheme, order):
    # Observed orders on n = 10, 20, 40, 80: diamond 2.00 at every
    # refinement, step 0.86, 0.90, 0.94 (first order in the limit).
    errors = [manufactured_error(n, scheme) for n in (10, 20, 40, 80)]
    observed = np.log2(np.array(errors[:-1]) / errors[1:])
    assert observed.min() >= order, observed


class TestConvergedState:
    def test_k_stable_under_further_iteration(self):
        mesh, xs = homogeneous_problem(4, 4)
        tol = ToleranceConfig()
        k1 = solve_transport(xs, mesh, build_quadrature(2), tol).k_eff
        tight = ToleranceConfig(k_tol=1e-11, flux_tol=1e-10, max_outer=5000)
        k2 = solve_transport(xs, mesh, build_quadrature(2), tight).k_eff
        assert abs(k1 - k2) < 10 * tol.k_tol

    def test_tolerance_refinement(self):
        # The worst default-lattice point for inexact inner iterations:
        # a tol/100 solve moves k_eff by less than k_tol and the power
        # map observations by less than flux_tol.
        cfg, mesh, xs = default_lattice_problem(6)
        tol = cfg.tolerances
        fine = ToleranceConfig(k_tol=tol.k_tol / 100,
                               flux_tol=tol.flux_tol / 100,
                               max_outer=tol.max_outer)
        sensors = build_sensors(mesh, cfg.sensor_grid)
        quad = build_quadrature(cfg.sn_order)
        k, obs = [], []
        for t in (tol, fine):
            sol = solve_transport(xs, mesh, quad, t)
            k.append(sol.k_eff)
            obs.append(observe(power_map_transport(sol, xs), sensors))
        assert abs(k[0] - k[1]) <= tol.k_tol
        assert (np.max(np.abs(obs[0] - obs[1]))
                <= tol.flux_tol * np.max(np.abs(obs[1])))

    def test_sweep_budget(self):
        # Diffusion-accelerated inners stopped on their estimated error
        # at 0.03 x the outer flux change, with Anderson-mixed outers,
        # take 22 sweeps here, one per group and outer once each group's
        # contraction is measured.  Earlier solves, counted without the
        # two balance sweeps they then ended with: 28 at 0.01 x, 39
        # without the mixing, 61 stopped on their last change, ~180
        # without the acceleration, ~670 with inner iterations run to
        # 1e-9 in every outer.
        cfg, mesh, xs = default_lattice_problem(0)
        sol = solve_transport(xs, mesh, build_quadrature(cfg.sn_order),
                              cfg.tolerances)
        # At least one sweep per group and outer.
        assert 2 * sol.iterations <= sol.sweeps <= 26

    def test_every_sweep_inside_power_iteration(self, monkeypatch):
        # `sweeps` counts every sweep of the solve, and none follows the
        # power iteration.
        calls, in_iteration = [], []
        sweep = transport._GroupSweeper.sweep
        power_iteration = transport.power_iteration

        def counting_sweep(self, emission):
            calls.append(emission)
            return sweep(self, emission)

        def counting_power_iteration(*args, **kwargs):
            sol = power_iteration(*args, **kwargs)
            in_iteration.append(len(calls))
            return sol

        monkeypatch.setattr(transport._GroupSweeper, "sweep", counting_sweep)
        monkeypatch.setattr(transport, "power_iteration",
                            counting_power_iteration)
        cfg, mesh, xs = default_lattice_problem(0)
        sol = solve_transport(xs, mesh, build_quadrature(cfg.sn_order),
                              cfg.tolerances)
        assert len(calls) == in_iteration[0] == sol.sweeps

    def test_scalar_flux_positive(self):
        mesh = small_default_mesh(1)
        sol = solve_transport(default_cross_sections(), mesh,
                              build_quadrature(4))
        for g in range(2):
            phi = sol.scalar_flux[g].values
            assert phi.min() >= -1e-12 * phi.max()

    def test_quadrature_refinement_consistency(self):
        mesh = small_default_mesh(1)
        xs = default_cross_sections()
        ks = {order: solve_transport(xs, mesh, build_quadrature(order)).k_eff
              for order in (2, 4, 8)}
        assert abs(ks[8] - ks[4]) < abs(ks[4] - ks[2])

    def test_diamond_scheme_consistent_with_step(self):
        mesh, xs = homogeneous_problem(5, 4)
        quad = build_quadrature(2)
        k_diamond = solve_transport(xs, mesh, quad, scheme="diamond").k_eff
        assert k_diamond == pytest.approx(infinite_medium_k_transport(xs),
                                          abs=1e-6)
        mesh2 = small_default_mesh(1)
        xs2 = default_cross_sections()
        k_step = solve_transport(xs2, mesh2, quad).k_eff
        k_dd = solve_transport(xs2, mesh2, quad, scheme="diamond").k_eff
        assert abs(k_step - k_dd) < 0.1  # differ by discretization only


def inner_spectral_radius(monkeypatch, xs, mesh, quad, group, sweeps=40):
    """Contraction per sweep of `group`'s source iteration, diffusion
    acceleration included where it applies.  The iteration runs on a
    zero source from a random flux, so each iterate is its own error,
    until the sweep cap stops it; the rate is taken over the second
    half of the sweeps from the max norm of the scattering source each
    sweep is handed."""
    sweepers, source_iteration = transport._group_solvers(
        transport.prepare_transport(xs, mesh, quad))
    sweeper, norms = sweepers[group], []
    sweep = sweeper.sweep

    def recording_sweep(emission, *args, **kwargs):
        norms.append(np.max(np.abs(emission)))
        return sweep(emission, *args, **kwargs)

    sweeper.sweep = recording_sweep
    monkeypatch.setattr(transport, "_MAX_INNER", sweeps)
    shape = (mesh.ny, mesh.nx)
    start = np.random.default_rng(0).random(shape)
    with pytest.raises(IterationLimitError):
        source_iteration(group, np.zeros(shape), start, 0.0)
    half = sweeps // 2
    return (norms[-1] / norms[half]) ** (1.0 / (sweeps - 1 - half))


class TestSourceIterationAcceleration:
    """Diffusion synthetic acceleration of the within-group source
    iteration, and the thickness rule that switches it off."""

    @pytest.mark.parametrize("index", [0, 121, 242])
    def test_spectral_radius_on_default_layout(self, monkeypatch, index):
        # Measured 0.18-0.19 in both groups; plain source iteration
        # contracts by 0.63-0.72 per sweep here.
        cfg, mesh, xs = default_lattice_problem(index)
        quad = build_quadrature(cfg.sn_order)
        for group in range(2):
            assert inner_spectral_radius(monkeypatch, xs, mesh, quad,
                                         group) <= 0.3

    def test_thick_cells_fall_back_to_source_iteration(self):
        # 2.5 mfp cells, scattering ratio 0.99 in group 1: accelerated
        # inners diverge on such cells (rho 1.04 at 2 mfp, 1.95 at 4),
        # so they would hit the inner sweep cap; plain source iteration
        # converges.
        mesh = build_mesh(uniform_config(8, 8, lx=20.0, ly=20.0))
        xs = fuel_xs(sigma_a=(0.004, 0.05), sigma_s_within=(0.99, 0.95),
                     sigma_s_12=0.006, nu_sigma_f=(0.006, 0.08))
        assert np.all(xs["Fuel"].sigma_t * mesh.dx >= 2.0)
        sol = solve_transport(xs, mesh, build_quadrature(2))
        assert sol.k_eff > 0
        assert eigen_residual(sol, xs) < ToleranceConfig().flux_tol


class TestInnerStoppingRule:
    """The source iteration stops on its estimated error, its last
    change times rho / (1 - rho) for the measured contraction rho."""

    def test_slow_inner_returns_within_its_tolerance(self, monkeypatch):
        # 2.5 mfp cells with scattering ratio 0.9 in group 1 run plain
        # source iteration at rho ~ 0.9.  The returned flux is 0.91 x
        # inner_tol off the converged one; stopped once its last change
        # fell below inner_tol, it was 7.4 x off.
        mesh = build_mesh(uniform_config(8, 8, lx=20.0, ly=20.0))
        xs = fuel_xs(sigma_a=(0.094, 0.05), sigma_s_within=(0.9, 0.95),
                     sigma_s_12=0.006, nu_sigma_f=(0.006, 0.08))
        quad = build_quadrature(2)
        q, zero = np.ones((mesh.ny, mesh.nx)), np.zeros((mesh.ny, mesh.nx))
        _, source_iteration = transport._group_solvers(
            transport.prepare_transport(xs, mesh, quad))
        inner_tol = 1e-6
        phi = source_iteration(0, q, zero, inner_tol)
        monkeypatch.setattr(transport, "_INNER_TOL", 1e-13)
        _, converge = transport._group_solvers(
            transport.prepare_transport(xs, mesh, quad))
        exact = converge(0, q, zero, 1e-13)
        error = np.max(np.abs(phi - exact)) / np.max(exact)
        assert error <= 2 * inner_tol


class TestEigenResidual:
    """`eigen_residual`, the one convergence report of a transport
    solve, exceeds the tolerance on stopped solves and stays below it
    on converged ones."""

    @pytest.mark.parametrize("order", [2, 4])
    def test_stopped_solve_exceeds_tolerance(self, order):
        mesh = small_default_mesh(1)
        xs = default_cross_sections()
        quad = build_quadrature(order)
        tol = ToleranceConfig(max_outer=3)
        with pytest.raises(IterationLimitError) as err:
            solve_transport(xs, mesh, quad, tol)
        assert eigen_residual(err.value.last_solution, xs) > tol.k_tol

    @pytest.mark.parametrize("order,scheme", [(2, "step"), (4, "step"),
                                              (2, "diamond")])
    def test_converged_solve_below_flux_tol(self, order, scheme):
        # Measured 1.6e-9 to 6.9e-9 on these solves.
        mesh = small_default_mesh(1)
        xs = default_cross_sections()
        quad = build_quadrature(order)
        tol = ToleranceConfig()
        sol = solve_transport(xs, mesh, quad, tol, scheme=scheme)
        assert eigen_residual(sol, xs) < tol.flux_tol

    def test_defaults_to_the_solve_quadrature(self):
        # Certified with the default S4, this S2 solve scored 6.9e-2.
        mesh = small_default_mesh(1)
        xs = default_cross_sections()
        tol = ToleranceConfig()
        sol = solve_transport(xs, mesh, build_quadrature(2), tol)
        assert (sol.quadrature_order, sol.scheme) == (2, "step")
        assert eigen_residual(sol, xs) < tol.flux_tol

    def test_upscatter_on_default_layout_certifies(self):
        # One group pass per outer takes group 1's upscatter source from
        # the outer's starting iterate; the outer iteration converges
        # the coupling (9 outers, certificate 1.6e-8 at 2%).
        cfg = bench.ExperimentConfig.default()
        xs = with_upscatter(default_cross_sections(), 0.02)
        sol = solve_transport(xs, build_mesh(cfg.geometry),
                              build_quadrature(cfg.sn_order))
        assert eigen_residual(sol, xs) < ToleranceConfig().flux_tol

    def test_homogeneous_reflective_below_k_tol(self):
        mesh, xs = homogeneous_problem(4, 4)
        quad = build_quadrature(2)
        sol = solve_transport(xs, mesh, quad)
        assert eigen_residual(sol, xs) < ToleranceConfig().k_tol


class TestAndersonMixing:
    """The Anderson-mixed outer iteration (`eigen._Anderson`, depth 2) on
    transport."""

    @pytest.mark.parametrize("index", [0, 60, 121, 180, 242])
    def test_cold_default_points_take_fewer_outers(self, index):
        # Mixed: 10-11 outers and 22-24 sweeps; plain power iteration
        # takes 15-16 outers and 32-34 sweeps.
        cfg, mesh, xs = default_lattice_problem(index)
        sol = solve_transport(xs, mesh, build_quadrature(cfg.sn_order),
                              cfg.tolerances)
        assert sol.iterations <= 11 and sol.sweeps <= 26

    def test_restart_from_own_solution_stays_put(self):
        # A start at the solution converges in its first outer (|dk|
        # 8e-11), before any mixing.
        cfg, mesh, xs = default_lattice_problem(0)
        quad, tol = build_quadrature(cfg.sn_order), cfg.tolerances
        sol = solve_transport(xs, mesh, quad, tol)
        again = solve_transport(xs, mesh, quad, tol, start=sol)
        assert again.iterations <= 2
        assert np.isfinite(again.k_eff)
        assert all(np.isfinite(f.values).all() for f in again.scalar_flux)
        assert abs(again.k_eff - sol.k_eff) <= tol.k_tol

    @pytest.mark.parametrize("index", [6, 121])
    def test_matches_tight_reference(self, index):
        cfg, mesh, xs = default_lattice_problem(index)
        tol, quad = cfg.tolerances, build_quadrature(cfg.sn_order)
        tight = ToleranceConfig(k_tol=tol.k_tol / 1000,
                                flux_tol=tol.flux_tol / 1000,
                                max_outer=tol.max_outer)
        sol, ref = (solve_transport(xs, mesh, quad, t) for t in (tol, tight))
        assert abs(sol.k_eff - ref.k_eff) <= tol.k_tol
        power, exact = (power_map_transport(s, xs).values for s in (sol, ref))
        assert (np.max(np.abs(power - exact))
                <= tol.flux_tol * np.max(np.abs(exact)))

    def test_capped_solve_carries_the_unmixed_step(self):
        # Thick cells switch DSA off, so an outer step's scalar flux is
        # the quadrature sum of the angular flux the sweepers hold; a
        # mixed iterate is not.
        mesh = build_mesh(uniform_config(8, 8, lx=20.0, ly=20.0))
        xs = fuel_xs(sigma_a=(0.004, 0.05), sigma_s_within=(0.99, 0.95),
                     sigma_s_12=0.006, nu_sigma_f=(0.006, 0.08))
        quad = build_quadrature(2)
        with pytest.raises(IterationLimitError) as err:
            solve_transport(xs, mesh, quad,
                            ToleranceConfig(k_tol=1e-14, flux_tol=1e-14,
                                            max_outer=5))
        last = err.value.last_solution
        assert last.iterations == 5 and last.k_eff > 0
        for phi, psi in zip(last.scalar_flux, last.angular_flux):
            summed = quad.weight @ psi.reshape(len(psi), -1)
            np.testing.assert_allclose(phi.values, summed, rtol=1e-12)


class TestFactorCache:
    """Sweep and DSA factors kept across solves (`eigen.cached_factors`):
    reused only for equal totals, bit-identically, one set per group."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(eigen, "_FACTOR_SETS", {})

    @staticmethod
    def problems():
        """The S2 default layout at two lattice points whose totals
        differ in both groups."""
        base = default_cross_sections()
        return small_default_mesh(1), build_quadrature(2), [
            map_alpha_to_mu(alpha, base)
            for alpha in ((1.0,) * 5, (0.8, 0.8, 0.8, 1.0, 1.0))]

    @staticmethod
    def count_factorizations(monkeypatch):
        """Calls of the sweep and the DSA factorizations, by kind, in
        this process and in the pool workers it forks."""
        calls = SharedCounts(("sweep", "dsa"))
        for kind, owner in (("sweep", transport._SweepBlock),
                            ("dsa", diffusion.GroupOperator)):
            def counting(*args, kind=kind, factorize=owner.factorize):
                calls.add(kind)
                return factorize(*args)
            monkeypatch.setattr(owner, "factorize", counting)
        return calls

    def test_reuse_is_bit_identical(self):
        mesh, quad, (a, b) = self.problems()
        results = []
        for xs in (a, a, b, a):
            sol = solve_transport(xs, mesh, quad)
            if xs is a:
                results.append((sol.k_eff, [f.values.tobytes()
                                            for f in sol.scalar_flux]))
        eigen._FACTOR_SETS.clear()
        cold = solve_transport(a, mesh, quad)
        expected = (cold.k_eff, [f.values.tobytes() for f in cold.scalar_flux])
        assert results == [expected] * 3

    def test_one_set_per_kind_and_group(self, monkeypatch):
        # Each sweep factor, one per group, is tracked while alive.  A
        # miss drops the group's old factor before factorizing, so while
        # the second problem factorizes either group, only the other
        # group's factor is alive; after it, one set per group.
        class Tracked:
            def __init__(self, lu):
                self.solve = lu.solve

        live, peak = weakref.WeakSet(), []
        factorize = transport._SweepBlock.factorize

        def tracking(block, *args):
            peak.append(len(live))
            lu = Tracked(factorize(block, *args))
            live.add(lu)
            return lu

        monkeypatch.setattr(transport._SweepBlock, "factorize", tracking)
        mesh, quad, (a, b) = self.problems()
        solve_transport(a, mesh, quad)
        peak.clear()
        solve_transport(b, mesh, quad)
        assert len(live) == 2 and max(peak) == 1
        assert set(eigen._FACTOR_SETS) == {
            (kind, g) for kind in ("sweep", "dsa") for g in (1, 2)}

    def test_changed_region_total_misses(self, monkeypatch):
        mesh, quad, (a, _) = self.problems()
        solve_transport(a, mesh, quad)
        calls = self.count_factorizations(monkeypatch)
        solve_transport(a, mesh, quad)
        assert calls == {"sweep": 0, "dsa": 0}
        # One region's group-1 total, one ulp up: group 1 only misses.
        name = a.region_names()[0]
        region = a[name]
        nudged = CrossSectionSet({**a.regions, name: replace(
            region, sigma_t=np.nextafter(region.sigma_t,
                                          region.sigma_t + [1.0, 0.0]))})
        solve_transport(nudged, mesh, quad)
        assert calls == {"sweep": 1, "dsa": 1}

    @pytest.mark.parametrize("threads, factorizations", [(1, 11), (2, 12)])
    def test_lattice_order_shares_factors(self, monkeypatch, tmp_path,
                                          threads, factorizations):
        # The parent's 2 factor sets, then 7 group-1 runs (4 pairs of
        # (a1, a3) on one a2 level, 3 more on the other) and 2 group-2
        # runs.  Two workers take one a2 level each as one contiguous
        # run, and the second starts its level on the (a1, a3) pair the
        # first ended on, which one worker kept: one more group-1 run.
        if threads > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked workers inherit the counting wrapper")
        calls = self.count_factorizations(monkeypatch)
        bench.generate_snapshots(
            bench.ExperimentConfig.default(tmp_path, threads=threads),
            "transport", "test")
        assert calls == {"sweep": factorizations, "dsa": factorizations}

    def test_eigen_residual_after_its_solve_factorizes_nothing(
            self, monkeypatch):
        mesh, quad, (a, _) = self.problems()
        sol = solve_transport(a, mesh, quad)
        calls = self.count_factorizations(monkeypatch)
        assert eigen_residual(sol, a) < ToleranceConfig().flux_tol
        assert calls == {"sweep": 0, "dsa": 0}


class TestDSAFactor:
    """A group's DSA solve (`transport._dsa_factor`) on (ny, nx) cells,
    against the dense finite-volume matrix of its diffusion operator."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(eigen, "_FACTOR_SETS", {})

    @staticmethod
    def thin_group(nx, ny, seed):
        """A 3 x 5 cm mesh with mixed sides and random cross sections
        below `_DSA_MAX_MFP` in every cell."""
        bc = BoundaryTags(xmin="vacuum", xmax="reflective",
                          ymin="reflective", ymax="vacuum")
        mesh = build_mesh(uniform_config(nx, ny, lx=3.0, ly=5.0, bc=bc))
        rng = np.random.default_rng(seed)
        sigt = rng.uniform(0.2, 0.55, (ny, nx))
        return mesh, sigt, sigt * rng.uniform(0.5, 0.95, (ny, nx)), rng

    @pytest.mark.parametrize("nx, ny", [(5, 3), (3, 5)])
    def test_matches_dense_oracle(self, nx, ny):
        # On 5 x 3 the band order is the transpose of the natural one.
        mesh, sigt, sigs, rng = self.thin_group(nx, ny, nx * 10 + ny)
        thickest = float(sigt.max()) * max(mesh.dx, mesh.dy)
        assert thickest <= transport._DSA_MAX_MFP
        oracle = finite_volume_oracle(mesh, 1.0 / (3.0 * sigt), sigt - sigs)
        r = rng.standard_normal((ny, nx))
        delta = transport._dsa_factor(mesh, sigt, sigs, 1)(r)
        assert delta.shape == (ny, nx)
        np.testing.assert_allclose(
            delta, np.linalg.solve(oracle, r.ravel()).reshape(ny, nx),
            rtol=1e-12)

    def test_thick_group_factorizes_nothing(self, monkeypatch):
        mesh, sigt, sigs, _ = self.thin_group(5, 3, 0)
        assert transport._dsa_factor(mesh, sigt, sigs, 1) is not None
        cached = dict(eigen._FACTOR_SETS)
        calls = TestFactorCache.count_factorizations(monkeypatch)
        thick = 1.01 * transport._DSA_MAX_MFP / max(mesh.dx, mesh.dy)
        assert transport._dsa_factor(mesh, sigt + thick, sigs, 1) is None
        # The thin group's factor is left in place, and still hits.
        assert eigen._FACTOR_SETS == cached
        assert transport._dsa_factor(mesh, sigt, sigs, 1) is not None
        assert calls["dsa"] == 0


class TestPowerMap:
    def test_power_supported_on_fissile_region_only(self):
        mesh = small_default_mesh(1)
        xs = default_cross_sections()
        sol = solve_transport(xs, mesh, build_quadrature(2))
        p = power_map_transport(sol, xs)
        core = mesh.region_mask("Core").ravel()
        assert np.all(p.values[~core] == 0.0)
        assert np.all(p.values[core] > 0.0)

    def test_homogeneous_reflective_gives_constant(self):
        mesh, xs = homogeneous_problem(4, 4)
        sol = solve_transport(xs, mesh, build_quadrature(2))
        p = power_map_transport(sol, xs)
        expected = 1.0 / np.sqrt(mesh.extent_x * mesh.extent_y)
        assert np.allclose(p.values, expected, rtol=1e-6)

    def test_matches_elementwise_oracle(self):
        mesh = build_mesh(uniform_config(3, 3))
        xs = fuel_xs()
        sol = solve_transport(xs, mesh, build_quadrature(2))
        r = xs["Fuel"]
        raw = (r.kappa_sigma_f[0] * sol.scalar_flux[0].values
               + r.kappa_sigma_f[1] * sol.scalar_flux[1].values)
        oracle = raw / np.sqrt(np.sum(raw**2) * mesh.cell_area)
        p = power_map_transport(sol, xs)
        assert np.allclose(p.values, oracle, rtol=1e-13)


class TestErrors:
    def test_sigma_t_floor_enforced(self):
        mesh = build_mesh(uniform_config(4, 4))
        xs = fuel_xs(sigma_a=(1e-5, 1e-5), sigma_s_within=(1e-5, 1e-5),
                     sigma_s_12=0.0, nu_sigma_f=(1e-5, 0.0))
        with pytest.raises(ConfigurationError, match="sigma_t"):
            solve_transport(xs, mesh, build_quadrature(2))

    def test_no_fissile_cell_rejected(self):
        mesh = build_mesh(uniform_config(4, 4))
        with pytest.raises(DegenerateProblemError, match="fissile"):
            solve_transport(fuel_xs(nu_sigma_f=(0.0, 0.0)), mesh,
                            build_quadrature(2))

    def test_fissile_groups_checked_at_the_fission_scale(self):
        # As in diffusion: the prepared operators' per-group facts, read
        # at the solve's fission scale.  Fissile in group 2 only.
        mesh = build_mesh(uniform_config(4, 4))
        quad = build_quadrature(2)
        fuel = transport.prepare_transport(fuel_xs(), mesh, quad)
        thermal = transport.prepare_transport(
            fuel_xs(nu_sigma_f=(0.0, 0.18)), mesh, quad)
        for ops, scale in ((fuel, (0.0, 0.0)), (thermal, (1.0, 0.0))):
            with pytest.raises(DegenerateProblemError, match="fissile"):
                solve_transport(ops._replace(fission_scale=scale), mesh)
        sol = solve_transport(thermal._replace(fission_scale=(0.0, 1.0)),
                              mesh)
        assert sol.k_eff > 0 and sol.fission_scale == (0.0, 1.0)

    @pytest.mark.parametrize("nx, ny", [(6, 4), (5, 5)])
    def test_zero_dsa_removal_on_closed_domain_rejected(self, nx, ny):
        # Group 2 neither absorbs nor scatters out and nothing leaks:
        # its DSA operator is singular.  Round-off can let a
        # factorization through, and the solve then returns k ~ 1e15.
        mesh, xs = homogeneous_problem(nx, ny, sigma_a=(0.012, 0.0))
        with pytest.raises(DegenerateProblemError, match="group 2"):
            solve_transport(xs, mesh, build_quadrature(2))

    def test_unknown_scheme_rejected(self):
        mesh = build_mesh(uniform_config(4, 4))
        with pytest.raises(ConfigurationError, match="scheme"):
            solve_transport(fuel_xs(), mesh, build_quadrature(2),
                            scheme="characteristics")

    def test_iteration_limit_carries_last_iterate(self):
        # The last iterate carries the angular flux, so it can start
        # another solve.
        mesh = build_mesh(uniform_config(5, 5))
        quad = build_quadrature(2)
        with pytest.raises(IterationLimitError) as err:
            solve_transport(fuel_xs(), mesh, quad,
                            ToleranceConfig(k_tol=1e-14, flux_tol=1e-14,
                                            max_outer=2))
        last = err.value.last_solution
        assert last.k_eff > 0
        sol = solve_transport(fuel_xs(), mesh, quad, start=last)
        assert eigen_residual(sol, fuel_xs()) < ToleranceConfig().flux_tol

    def test_unusable_start_rejected(self):
        mesh = build_mesh(uniform_config(5, 4))
        xs, quad = fuel_xs(), build_quadrature(2)
        start = solve_transport(xs, mesh, quad)
        with pytest.raises(ConfigurationError, match="angular"):
            solve_transport(xs, mesh, quad,
                            start=replace(start, angular_flux=None))
        with pytest.raises(ConfigurationError, match="5 x 4 mesh"):
            solve_transport(xs, build_mesh(uniform_config(4, 5)), quad,
                            start=start)
        with pytest.raises(ConfigurationError, match="S4"):
            solve_transport(xs, mesh, build_quadrature(4), start=start)
        with pytest.raises(ConfigurationError, match="diamond"):
            solve_transport(xs, mesh, quad, scheme="diamond", start=start)

    def test_inner_sweep_cap_raises(self, monkeypatch):
        # An inner returns after one sweep only once its group's
        # contraction is known, and measuring it takes two sweeps in
        # one inner.  Vacuum sides keep the flux shape changing over
        # the outers, so no change falls below the 1e-9 floor first (a
        # homogeneous reflective problem converges with one sweep per
        # inner).
        monkeypatch.setattr(transport, "_MAX_INNER", 1)
        mesh = build_mesh(uniform_config(5, 4))
        with pytest.raises(IterationLimitError,
                           match="_MAX_INNER = 1") as err:
            solve_transport(fuel_xs(), mesh, build_quadrature(2))
        assert err.value.last_solution.k_eff > 0
