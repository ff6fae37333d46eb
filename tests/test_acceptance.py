"""Acceptance suite: runs the full default pipeline once, then checks
every acceptance criterion at its stated tolerance, printing one
pass/fail line per criterion."""

import os
import time

import numpy as np
import pytest

from corestate.bench import (ExperimentConfig, generate_snapshots,
                             prepare_case, run_case, sweep_noise)
from corestate.diffusion import ToleranceConfig, solve_diffusion
from corestate.geometry import Field, build_mesh
from corestate.materials import default_cross_sections
from corestate.pbdw import assemble, reconstruct
from corestate.rom import pod
from corestate.sensing import build_sensors, observe_psi
from corestate.transport import (build_quadrature, eigen_residual,
                                 solve_transport)

from helpers import homogeneous_problem, one_direction_flux, uniform_config
from test_diffusion import infinite_medium_k as diffusion_k_oracle
from test_transport import infinite_medium_k_transport as transport_k_oracle
from test_pbdw import beta_sphere_oracle, make_basis
from test_rom import gaussian_family, svd_delta_oracle
from helpers import orthonormal_fields


def report_criterion(number, name, checks):
    """Print one pass/fail line; checks is a list of (ok, detail)."""
    ok = all(c[0] for c in checks)
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")
    failed = [detail for passed, detail in checks if not passed]
    assert ok, f"criterion {number} failed: {failed}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    threads = min(2, os.cpu_count() or 1)
    cfg = ExperimentConfig.default(output_dir=out, threads=threads)
    t0 = time.perf_counter()
    rep1 = run_case(cfg, 1)
    rep2 = run_case(cfg, 2)
    noise = sweep_noise(cfg, [0.0, 1e-3, 1e-2], n_seeds=10)
    elapsed = time.perf_counter() - t0
    return {"cfg": cfg, "rep1": rep1, "rep2": rep2, "noise": noise,
            "elapsed": elapsed}


def test_criterion_1_bound_theorem_and_runtime(pipeline):
    checks = []
    for rep in (pipeline["rep1"], pipeline["rep2"]):
        err = rep.column("err_wc")
        bound = rep.column("bound")
        ok = bool(np.all(err <= bound * (1 + 1e-9)))
        checks.append((ok, f"case {rep.case}: err_wc exceeds beta^-1 "
                           f"delta_wc (max ratio "
                           f"{np.max(err / bound):.12f})"))
    checks.append((pipeline["elapsed"] <= 600.0,
                   f"pipeline took {pipeline['elapsed']:.0f}s > 600s"))
    report_criterion(1, "reconstruction error bound + runtime", checks)


def test_criterion_2_exact_recovery(pipeline):
    cfg = pipeline["cfg"]
    ctx = prepare_case(cfg, 1)
    n = 10
    op = assemble(ctx.basis, n, ctx.sensors)
    rng = np.random.default_rng(2024)
    checks = []
    worst_err, worst_interp = 0.0, 0.0
    for _ in range(20):
        z = rng.standard_normal(n)
        u = Field(ctx.mesh, z @ ctx.basis.mode_matrix[:n])
        y = observe_psi(u, ctx.sensors)
        rec = reconstruct(op, y)
        rel = (Field(ctx.mesh, u.values - rec.estimate.values).norm()
               / u.norm())
        interp = float(np.linalg.norm(
            observe_psi(rec.estimate, ctx.sensors) - y))
        worst_err = max(worst_err, rel)
        worst_interp = max(worst_interp, interp)
    checks.append((worst_err < 1e-10,
                   f"recovery error {worst_err:.2e} >= 1e-10"))
    checks.append((worst_interp < 1e-10,
                   f"interpolation residual {worst_interp:.2e} >= 1e-10"))
    for rep in (pipeline["rep1"], pipeline["rep2"]):
        r = rep.run_info["interpolation_residual_max"]
        checks.append((r < 1e-10,
                       f"case {rep.case} interpolation residual {r:.2e}"))
    report_criterion(2, "exact recovery + interpolation", checks)


def test_criterion_3_stability_constant(pipeline):
    checks = []
    for rep in (pipeline["rep1"], pipeline["rep2"]):
        beta = rep.column("beta")
        checks.append((bool(np.all((beta >= 0.0) & (beta <= 1.0 + 1e-12))),
                       f"case {rep.case}: beta outside [0, 1]"))
        checks.append((bool(np.all(np.diff(beta) <= 1e-12)),
                       f"case {rep.case}: beta not nonincreasing"))
    # 6-cell toy oracle: dense sphere sampling of the inf-sup definition
    mesh = build_mesh(uniform_config(3, 2))
    sensors = build_sensors(mesh, (3, 1))
    fields = orthonormal_fields(mesh, 2, np.random.default_rng(99))
    basis = make_basis(mesh, [f.values for f in fields])
    op = assemble(basis, 2, sensors)
    oracle = beta_sphere_oracle(basis, sensors, 2)
    checks.append((abs(op.beta - oracle) < 1e-6,
                   f"beta {op.beta:.8f} vs sphere oracle {oracle:.8f}"))
    report_criterion(3, "stability constant", checks)


def test_criterion_4_solver_oracles(pipeline):
    checks = []
    mesh, xs = homogeneous_problem(6, 5)
    sol = solve_diffusion(xs, mesh)
    k_oracle = diffusion_k_oracle(xs)
    checks.append((abs(sol.k_eff - k_oracle) < 1e-8,
                   f"diffusion k {sol.k_eff!r} vs analytic {k_oracle!r}"))

    tsol = solve_transport(xs, mesh, build_quadrature(4))
    kt_oracle = transport_k_oracle(xs)
    checks.append((abs(tsol.k_eff - kt_oracle) < 1e-6,
                   f"transport k {tsol.k_eff!r} vs 2x2 oracle {kt_oracle!r}"))

    default_mesh = build_mesh(pipeline["cfg"].geometry)
    bsol = solve_transport(default_cross_sections(), default_mesh,
                           build_quadrature(4))
    certified = eigen_residual(bsol, default_cross_sections())
    checks.append((certified < ToleranceConfig().flux_tol,
                   f"transport convergence certificate {certified:.2e}"))

    sigma_t, omega = 0.8, (0.6, 0.45)
    errors = []
    for nref in (12, 24, 48):
        m = build_mesh(uniform_config(nref, nref, lx=6.0, ly=6.0))
        psi = one_direction_flux(m, np.full((nref, nref), sigma_t), omega,
                                 np.zeros((nref, nref)),
                                 inflow_x=np.ones(nref),
                                 inflow_y=np.ones(nref))
        x = m.cell_centers_x[None, :]
        y = m.cell_centers_y[:, None]
        exact = np.exp(-sigma_t * np.minimum(x / omega[0], y / omega[1]))
        errors.append(float(np.mean(np.abs(psi - exact))))
    checks.append((errors[2] < 0.8 * errors[1] < 0.8 * 0.8 * errors[0],
                   f"attenuation errors not first order: {errors}"))
    report_criterion(4, "solver oracles", checks)


def test_criterion_5_pod_correctness(pipeline):
    cfg = pipeline["cfg"]
    checks = []
    ctx = prepare_case(cfg, 1)
    train, _ = generate_snapshots(cfg, "transport", "training")

    # dense-SVD oracle on the live training set, restricted to the
    # conditioning-valid range (eigenvalues >= 1e-8 of the trace, where
    # both backward-stable routes resolve the same subspaces)
    trace = float(np.sum(ctx.basis.gram_eigenvalues))
    n_cut = int(np.sum(ctx.basis.gram_eigenvalues >= 1e-8 * trace))
    n_cut = min(n_cut, ctx.basis.n_max)
    from corestate.rom import delta_curves
    dwc, dms = delta_curves(ctx.basis, ctx.testset)
    owc, oms = svd_delta_oracle(train, ctx.testset, n_cut)
    diff_wc = float(np.max(np.abs(dwc[:n_cut] - owc)))
    diff_ms = float(np.max(np.abs(dms[:n_cut] - oms)))
    checks.append((diff_wc < 1e-10 and diff_ms < 1e-10,
                   f"live-set SVD oracle mismatch wc={diff_wc:.2e} "
                   f"ms={diff_ms:.2e} over n <= {n_cut}"))

    # analytic family with a clean spectrum: full-range oracle agreement
    mesh = build_mesh(uniform_config(12, 9))
    family = gaussian_family(mesh, 40)
    probes = gaussian_family(mesh, 12, np.random.default_rng(7))
    basis = pod(family, n_max=15)
    awc, ams = delta_curves(basis, probes)
    xwc, xms = svd_delta_oracle(family, probes, 15)
    checks.append((bool(np.allclose(awc, xwc, atol=1e-10)
                        and np.allclose(ams, xms, atol=1e-10)),
                   "analytic-family SVD oracle mismatch"))

    total = sum(f.norm()**2 for f in train.fields)
    energy = float(np.sum(ctx.basis.gram_eigenvalues))
    checks.append((abs(energy - total) <= 1e-10 * total,
                   f"energy identity off: {energy!r} vs {total!r}"))

    for rep in (pipeline["rep1"], pipeline["rep2"]):
        d_wc = rep.column("delta_wc")
        d_ms = rep.column("delta_ms")
        checks.append((bool(np.all(np.diff(d_wc) <= 1e-15)
                            and np.all(np.diff(d_ms) <= 1e-15)),
                       f"case {rep.case}: delta curves not nonincreasing"))
        checks.append((bool(np.all(d_ms <= d_wc * (1 + 1e-12))),
                       f"case {rep.case}: delta_ms above delta_wc"))
    report_criterion(5, "reduced-basis correctness", checks)


def test_criterion_6_qualitative_trends(pipeline):
    rep1, rep2 = pipeline["rep1"], pipeline["rep2"]
    m = pipeline["cfg"].sensor_grid[0] * pipeline["cfg"].sensor_grid[1]
    checks = []

    err1 = rep1.column("err_wc")
    n1 = rep1.column("n")
    i_star = int(np.argmin(err1))
    n_star = int(n1[i_star])
    checks.append((1 < n_star < m,
                   f"case 1 minimum at n = {n_star}, not interior to "
                   f"[1, m = {m}]"))
    delta_at_star = rep1.column("delta_wc")[i_star]
    checks.append((err1[i_star] <= 5.0 * delta_at_star,
                   f"case 1 min err {err1[i_star]:.3e} not within factor 5 "
                   f"of delta {delta_at_star:.3e}"))

    err2 = rep2.column("err_wc")
    checks.append((err2.min() >= 10.0 * err1.min(),
                   f"model-bias floor too small: case2 {err2.min():.3e} "
                   f"vs case1 {err1.min():.3e}"))

    for rep, comparator, label in ((rep1, np.less, "case 1 decays"),
                                   (rep2, np.greater, "case 2 plateaus")):
        d = rep.column("delta_wc")
        n_hi = len(d)
        ratio = d[n_hi - 1] / d[n_hi // 2 - 1]
        checks.append((bool(comparator(ratio, 0.3)),
                       f"{label}: delta ratio {ratio:.3f} fails 0.3 split"))
    report_criterion(6, "qualitative trend reproduction", checks)


def test_criterion_7_noise_bound_and_determinism(pipeline):
    cfg = pipeline["cfg"]
    noise = pipeline["noise"]
    checks = []
    err = noise.column("err_wc")
    bound = noise.column("bound")
    checks.append((bool(np.all(err <= bound * (1 + 1e-9))),
                   "noisy reconstruction exceeded the extended bound"))

    eps = noise.column("eps")
    means = [err[eps == e].mean() for e in (0.0, 1e-3, 1e-2)]
    checks.append((means[0] <= means[1] <= means[2],
                   f"mean error not nondecreasing in eps: {means}"))

    first = noise.csv_path.read_bytes()
    again = sweep_noise(cfg, [0.0, 1e-3, 1e-2], n_seeds=10)
    checks.append((again.csv_path.read_bytes() == first,
                   "noise sweep not byte-identical under fixed seed"))
    report_criterion(7, "noise bound + determinism", checks)
