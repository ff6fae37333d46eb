import ctypes
import hashlib
import json
import logging
import shutil
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import pytest

from corestate.bench import (BETA_FLOOR, ExperimentConfig, NOISE_COLUMNS,
                             REPORT_COLUMNS, generate_snapshots, prepare_case,
                             run_case, solve_power_map, sweep_noise)
from corestate.diffusion import ToleranceConfig
from corestate.diffusion import eigen_residual as diffusion_residual
from corestate.diffusion import power_map_diffusion, solve_diffusion
from corestate.errors import ConfigurationError, DegenerateProblemError
from corestate.geometry import Field, GeometryConfig, build_mesh
from corestate.materials import (default_cross_sections, map_alpha_to_mu,
                                 training_lattice)
from corestate.pbdw import reconstruct_batch
from corestate.rom import ReducedBasis
from corestate.sensing import build_sensors, observe, perturb_observations
from corestate.transport import eigen_residual as transport_residual
from corestate.transport import (build_quadrature, power_map_transport,
                                 solve_transport)
from corestate import bench, cli, materials
from helpers import (orthonormal_fields, random_field, snapshot_set,
                     uniform_config)


#: content_hash of `small_config`'s test-lattice set per (model,
#: SOLVER_REVISION[model]).
PINNED_TEST_SET_HASHES = {
    ("diffusion", 5):
        "f54cda9535a25fb4506be7115738004986d5e749ffc592165a365688a7a6e6bc",
    ("transport", 11):
        "c5ead85d4b6482c17086c3c20a644351858989379722fd28e91b1ed9b12627e8",
}


def small_config(out_dir, **overrides) -> ExperimentConfig:
    """Desk-test configuration: coarse aligned mesh, 3 x 2 sensors."""
    base = GeometryConfig.default()
    geometry = GeometryConfig(
        extent_x=base.extent_x, extent_y=base.extent_y, nx=15, ny=10,
        regions=base.regions, bc=base.bc)
    defaults = dict(
        geometry=geometry,
        cross_sections=default_cross_sections(),
        tolerances=ToleranceConfig(),
        sn_order=2,
        sensor_grid=(3, 2),
        n_range=(1, 6),
        output_dir=Path(out_dir),
        seed=0,
        threads=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def openblas_thread_controls():
    """(get, set) of the thread count of each OpenBLAS library mapped
    into this process; none without /proc."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in bench._OPENBLAS_SETTERS:
            if hasattr(lib, name):
                controls.append((getattr(lib, name.replace("set", "get")),
                                 getattr(lib, name)))
    return controls


def openblas_threads(_=None):
    return [get() for get, _ in openblas_thread_controls()]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def case2_report(workdir):
    cfg = small_config(workdir)
    return cfg, run_case(cfg, 2)


@pytest.fixture
def case2_config(case2_report, tmp_path):
    """`small_config` writing its reports to a directory of its own, with
    a copy of the case-2 report's snapshot cache."""
    cfg, _ = case2_report
    shutil.copytree(cfg.output_dir / "snapshots", tmp_path / "snapshots")
    return small_config(tmp_path)


class TestSnapshots:
    def test_diffusion_training_set(self, workdir):
        cfg = small_config(workdir)
        snaps, manifest = generate_snapshots(cfg, "diffusion", "training")
        assert len(snaps) == 243
        assert manifest["count"] == 243
        assert len(manifest["k_eff"]) == 243
        directory = Path(workdir) / "snapshots" / "diffusion_training"
        stored = np.load(directory / "snapshots.npy", allow_pickle=False)
        assert stored.dtype == np.float64
        assert stored.shape == (243, build_mesh(cfg.geometry).n_cells)
        assert not list(directory.glob("snapshot_*.csv"))

    def test_transport_test_set(self, workdir):
        cfg = small_config(workdir)
        snaps, manifest = generate_snapshots(cfg, "transport", "test")
        assert len(snaps) == 32
        assert all(abs(f.norm() - 1.0) < 1e-9 for f in snaps.fields)

    def test_regeneration_is_byte_identical(self, workdir, tmp_path):
        cfg = small_config(workdir)
        _, m1 = generate_snapshots(cfg, "diffusion", "test")
        path = (Path(workdir) / "snapshots" / "diffusion_test"
                / "manifest.json")
        first = path.read_bytes()
        _, m2 = generate_snapshots(cfg, "diffusion", "test", force=True)
        assert path.read_bytes() == first
        assert m1["content_hash"] == m2["content_hash"]

    def test_cache_read_is_bit_identical(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="corestate.bench")
        cfg = small_config(tmp_path)
        solved, _ = generate_snapshots(cfg, "diffusion", "test")
        read, _ = generate_snapshots(cfg, "diffusion", "test")
        assert "reusing" in caplog.text
        for a, b in zip(solved.fields, read.fields, strict=True):
            assert a.values.tobytes() == b.values.tobytes()

    def test_cache_reused_when_signature_matches(self, workdir, caplog):
        caplog.set_level(logging.INFO, logger="corestate.bench")
        cfg = small_config(workdir)
        generate_snapshots(cfg, "diffusion", "test")
        assert "reusing" in caplog.text

    def test_corrupted_cache_detected(self, tmp_path):
        cfg = small_config(tmp_path)
        generate_snapshots(cfg, "diffusion", "test")
        victim = (Path(tmp_path) / "snapshots" / "diffusion_test"
                  / "snapshots.npy")
        stored = np.load(victim, allow_pickle=False)
        changed = stored.copy()
        changed[3, 7] = 0.5
        np.save(victim, changed)
        with pytest.raises(RuntimeError, match="content hash"):
            generate_snapshots(cfg, "diffusion", "test")
        np.save(victim, stored)
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(RuntimeError, match="content hash"):
            generate_snapshots(cfg, "diffusion", "test")

    def test_cache_invalidated_by_config_change(self, tmp_path):
        cfg = small_config(tmp_path)
        _, m1 = generate_snapshots(cfg, "diffusion", "test")
        cfg2 = small_config(tmp_path,
                            tolerances=ToleranceConfig(k_tol=1e-9))
        _, m2 = generate_snapshots(cfg2, "diffusion", "test")
        assert m1["signature"] != m2["signature"]

    def test_cache_invalidated_by_solver_revision(self, tmp_path,
                                                  monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="corestate.bench")
        cfg = small_config(tmp_path)
        _, m1 = generate_snapshots(cfg, "diffusion", "test")
        revision = m1["signature"]["solver_revision"]
        monkeypatch.setitem(bench.SOLVER_REVISION, "diffusion", revision + 1)
        caplog.clear()
        _, m2 = generate_snapshots(cfg, "diffusion", "test")
        err = caplog.text
        assert "solving" in err and "reusing" not in err
        assert m2["signature"]["solver_revision"] == revision + 1

    def test_csv_layout_cache_regenerated(self, tmp_path, caplog):
        # A set stored one CSV per lattice point, under a manifest
        # signed and hashed the way that layout was, is solved again
        # rather than read.
        caplog.set_level(logging.INFO, logger="corestate.bench")
        cfg = small_config(tmp_path)
        snaps, manifest = generate_snapshots(cfg, "diffusion", "test")
        directory = Path(tmp_path) / "snapshots" / "diffusion_test"
        (directory / "snapshots.npy").unlink()
        hasher = hashlib.sha256()
        for i, f in enumerate(snaps.fields):
            text = f.to_text()
            hasher.update(text.encode())
            (directory / f"snapshot_{i:03d}.csv").write_text(text)
        del manifest["signature"]["store"]
        manifest["content_hash"] = hasher.hexdigest()
        (directory / "manifest.json").write_text(json.dumps(manifest))
        caplog.clear()
        again, _ = generate_snapshots(cfg, "diffusion", "test")
        assert "solving" in caplog.text and "reusing" not in caplog.text
        assert again.matrix.tobytes() == snaps.matrix.tobytes()
        assert (directory / "snapshots.npy").exists()
        assert not list(directory.glob("snapshot_*.csv"))

    @pytest.mark.parametrize("model", ["diffusion", "transport"])
    def test_solver_output_pinned(self, tmp_path, model):
        # A solver change that moves any snapshot bit must come with a
        # new SOLVER_REVISION, so that old caches are not reused; this
        # pin catches one without.  Recorded with numpy 2.4 and scipy
        # 1.17 on x86-64; another BLAS may round differently.
        _, manifest = generate_snapshots(small_config(tmp_path), model,
                                         "test")
        revision = bench.SOLVER_REVISION[model]
        assert PINNED_TEST_SET_HASHES.get((model, revision)) \
            == manifest["content_hash"], \
            "solver output changed: bump `SOLVER_REVISION` and re-pin"

    @pytest.mark.parametrize("model", ["diffusion", "transport"])
    def test_threads_do_not_change_results(self, tmp_path, model):
        # One and two workers write what warm solves from the fixed
        # parent, made here one by one, give.
        cfg1 = small_config(tmp_path / "a", threads=1)
        cfg2 = small_config(tmp_path / "b", threads=2)
        _, m1 = generate_snapshots(cfg1, model, "test")
        _, m2 = generate_snapshots(cfg2, model, "test")
        mesh = build_mesh(cfg1.geometry)
        parent, _ = bench._solve_parent(cfg1, model, mesh)
        warm = np.stack([
            solve_power_map(
                model, map_alpha_to_mu(alpha, cfg1.cross_sections), mesh,
                cfg1.tolerances, cfg1.sn_order, cfg1.scheme,
                start=parent)[1].values
            for alpha in materials.test_lattice()])
        assert m1["content_hash"] == m2["content_hash"] \
            == hashlib.sha256(warm.data).hexdigest()

    def test_parent_point_taken_from_the_parent(self, tmp_path,
                                                monkeypatch):
        # Training point 121 is PARENT_ALPHA: its row is the parent's
        # solution, on one worker or two, and it is not solved again.
        solved = []
        solve = bench.solve_power_map

        def recording(model, xs, *args, **kwargs):
            solved.append(xs)
            return solve(model, xs, *args, **kwargs)

        cfg = small_config(tmp_path / "a")
        mesh = build_mesh(cfg.geometry)
        parent, converged = bench._solve_parent(cfg, "diffusion", mesh)
        monkeypatch.setattr(bench, "solve_power_map", recording)
        snaps, manifest = generate_snapshots(cfg, "diffusion", "training")
        index = training_lattice().index(bench.PARENT_ALPHA)
        assert converged and len(solved) == 242
        assert manifest["k_eff"][index] == parent.k_eff
        xs = map_alpha_to_mu(bench.PARENT_ALPHA, cfg.cross_sections)
        assert (snaps.fields[index].values.tobytes()
                == power_map_diffusion(parent, xs).values.tobytes())
        _, pooled = generate_snapshots(
            small_config(tmp_path / "b", threads=2), "diffusion", "training")
        assert pooled["content_hash"] == manifest["content_hash"]

    def test_pool_worker_runs_one_blas_thread(self):
        # A forked worker inherits the parent's BLAS threads, so two
        # workers oversubscribed a 2-core machine: 2-worker snapshots
        # were slower than serial ones.
        controls = openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS library is loaded")
        before = [get() for get, _ in controls]
        for _, set_threads in controls:
            set_threads(2)
        try:
            with Pool(1, initializer=bench._init_pool_worker,
                      initargs=(None,)) as pool:
                assert pool.map(openblas_threads, [0]) == [[1] * len(before)]
        finally:
            for (_, set_threads), n in zip(controls, before):
                set_threads(n)

    def test_serial_solves_run_one_blas_thread(self, tmp_path,
                                               monkeypatch):
        # The parent solve and the one-worker loop run in the caller's
        # process, which the pool initializer does not reach: there they
        # ran at the caller's BLAS thread count.
        controls = openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS library is loaded")
        before = [get() for get, _ in controls]
        seen = []

        def recording_solve(*args, **kwargs):
            seen.append(openblas_threads())
            return solve_diffusion(*args, **kwargs)

        monkeypatch.setattr(bench, "solve_diffusion", recording_solve)
        for _, set_threads in controls:
            set_threads(2)
        try:
            generate_snapshots(small_config(tmp_path), "diffusion", "test")
            after = openblas_threads()
        finally:
            for (_, set_threads), n in zip(controls, before):
                set_threads(n)
        assert len(seen) == 1 + len(materials.test_lattice())
        assert seen == [[1] * len(before)] * len(seen)
        assert after == [2] * len(before)

    def test_field_text_matches_per_value_repr(self):
        values = np.array([-1.5, 5e-324, 2.2250738585072014e-308 / 3, 3.0,
                           -7.0, 1e-300, -1e-300, 0.1 + 0.2, -0.0, 1e300])
        mesh = build_mesh(uniform_config(5, 2))
        text = Field(mesh, values).to_text()
        assert text == "".join(repr(float(x)) + "\n" for x in values)
        parsed = Field.from_text(text, mesh).values
        assert parsed.tobytes() == values.tobytes()

    def test_solver_failure_identifies_alpha(self, tmp_path, monkeypatch):
        bad = small_config(
            tmp_path, tolerances=ToleranceConfig(k_tol=1e-14,
                                                 flux_tol=1e-14, max_outer=1))
        with pytest.raises(RuntimeError, match=r"alpha = \(0\.8"):
            generate_snapshots(bad, "diffusion", "test")
        # Test points 9 and 26 fail, in different chunks of a 2-worker
        # pool: on one worker or two the error names point 9.
        failing = [materials.test_lattice()[i] for i in (26, 9)]
        scale = bench.map_alpha_to_mu

        def failing_scale(alpha, base):
            if alpha in failing:
                raise DegenerateProblemError(f"no solve at {alpha}")
            return scale(alpha, base)

        monkeypatch.setattr(bench, "map_alpha_to_mu", failing_scale)
        for threads in (1, 2):
            cfg = small_config(tmp_path / f"w{threads}", threads=threads)
            with pytest.raises(RuntimeError) as info:
                generate_snapshots(cfg, "diffusion", "test")
            assert str(info.value).startswith(
                f"diffusion solve failed at alpha = {failing[1]}: ")

    def test_unconverged_parent_starts_the_lattice_with_a_warning(
            self, tmp_path, monkeypatch):
        # The parent stops at 3 outers; the lattice still converges
        # from its last iterate.
        solve = bench.solve_diffusion

        def capped_parent(xs, mesh, tol, start=None):
            if start is None:
                tol = ToleranceConfig(max_outer=3)
            return solve(xs, mesh, tol, start=start)

        monkeypatch.setattr(bench, "solve_diffusion", capped_parent)
        cfg = small_config(tmp_path)
        with pytest.warns(RuntimeWarning,
                          match=r"parent .* alpha = \(0\.9, 0\.9"):
            snaps, _ = generate_snapshots(cfg, "diffusion", "test")
        assert len(snaps) == 32

    def test_parent_failure_identifies_parent_alpha(self, tmp_path,
                                                    monkeypatch):
        def broken(*args, **kwargs):
            raise DegenerateProblemError("no fissile cell")

        monkeypatch.setattr(bench, "solve_diffusion", broken)
        with pytest.raises(RuntimeError,
                           match=r"parent solve failed at alpha = \(0\.9"):
            generate_snapshots(small_config(tmp_path), "diffusion", "test")

    def test_bad_model_or_lattice_rejected(self, workdir):
        cfg = small_config(workdir)
        with pytest.raises(ConfigurationError):
            generate_snapshots(cfg, "montecarlo", "test")
        with pytest.raises(ConfigurationError):
            generate_snapshots(cfg, "diffusion", "validation")


@pytest.mark.parametrize("model", ["transport", "diffusion"])
def test_warm_start_matches_cold_with_less_work(model):
    # Default 45 x 30 S4 setup, training points 0, 121 (the parent
    # itself) and 242: a warm solve agrees with the cold one within the
    # tolerances, is certified, and takes fewer sweeps (transport) or
    # outers (diffusion), so a warm start that is silently dropped fails.
    cfg = ExperimentConfig.default()
    tol = cfg.tolerances
    mesh = build_mesh(cfg.geometry)
    sensors = build_sensors(mesh, cfg.sensor_grid)
    quad = build_quadrature(cfg.sn_order)
    parent, _ = bench._solve_parent(cfg, model, mesh)
    for index in (0, 121, 242):
        xs = map_alpha_to_mu(training_lattice()[index], cfg.cross_sections)
        if model == "transport":
            cold, warm = (solve_transport(xs, mesh, quad, tol, start=s)
                          for s in (None, parent))
            maps = [power_map_transport(s, xs) for s in (cold, warm)]
            assert warm.sweeps < cold.sweeps
            assert transport_residual(warm, xs) <= tol.flux_tol
        else:
            cold, warm = (solve_diffusion(xs, mesh, tol, start=s)
                          for s in (None, parent))
            maps = [power_map_diffusion(s, xs) for s in (cold, warm)]
            assert warm.iterations < cold.iterations
            assert diffusion_residual(warm, xs) <= tol.flux_tol
        assert abs(warm.k_eff - cold.k_eff) <= tol.k_tol
        obs = [observe(m, sensors) for m in maps]
        assert (np.max(np.abs(obs[1] - obs[0]))
                <= tol.flux_tol * np.max(np.abs(obs[0])))


def test_warm_test_points_match_tight_reference():
    # The path the snapshots take: default test-lattice points 25 and
    # 31, solved from the parent, against cold solves to k_tol/1000 and
    # flux_tol/1000.  Over the 32 test points the largest errors are
    # at these two, |dk| 1.7e-9 and 4.0e-9 and power 3.4e-8 and 2.9e-8
    # relative.
    cfg = ExperimentConfig.default()
    tol = cfg.tolerances
    tight = ToleranceConfig(k_tol=tol.k_tol / 1000,
                            flux_tol=tol.flux_tol / 1000,
                            max_outer=tol.max_outer)
    mesh = build_mesh(cfg.geometry)
    quad = build_quadrature(cfg.sn_order)
    parent, _ = bench._solve_parent(cfg, "transport", mesh)
    for index in (25, 31):
        xs = map_alpha_to_mu(materials.test_lattice()[index],
                             cfg.cross_sections)
        warm = solve_transport(xs, mesh, quad, tol, start=parent)
        ref = solve_transport(xs, mesh, quad, tight)
        assert abs(warm.k_eff - ref.k_eff) <= tol.k_tol
        power, exact = (power_map_transport(s, xs).values
                        for s in (warm, ref))
        assert (np.max(np.abs(power - exact))
                <= tol.flux_tol * np.max(np.abs(exact)))


def test_transport_test_lattice_work_budget():
    # The 32 default test-lattice points solved serially from the
    # parent take 229 outers and 526 sweeps in all.  With the inner
    # tolerance at 0.01 x the outer change they took 227 and 638, and
    # also without the Anderson mixing of the outers 307 and 918 (not
    # counting the two balance sweeps each solve then ended with).
    # Work counts do not depend on the machine, so a lost acceleration
    # fails here.
    cfg = ExperimentConfig.default()
    mesh = build_mesh(cfg.geometry)
    quad = build_quadrature(cfg.sn_order)
    parent, _ = bench._solve_parent(cfg, "transport", mesh)
    outers = sweeps = 0
    for alpha in materials.test_lattice():
        sol = solve_transport(map_alpha_to_mu(alpha, cfg.cross_sections),
                              mesh, quad, cfg.tolerances, scheme=cfg.scheme,
                              start=parent)
        outers += sol.iterations
        sweeps += sol.sweeps
    assert outers <= 240 and sweeps <= 550, (outers, sweeps)


def test_diffusion_lattice_work_budget():
    # The 243 training and 32 test points of the default lattices, each
    # solved from the parent, take 1,509 + 198 = 1,707 outers in all,
    # and without the Anderson mixing of the outers 2,330 + 300.  Work
    # counts do not depend on the machine, so a lost acceleration fails
    # here.
    cfg = ExperimentConfig.default()
    mesh = build_mesh(cfg.geometry)
    parent, _ = bench._solve_parent(cfg, "diffusion", mesh)
    outers = sum(
        solve_diffusion(map_alpha_to_mu(alpha, cfg.cross_sections), mesh,
                        cfg.tolerances, start=parent).iterations
        for alpha in training_lattice() + materials.test_lattice())
    assert outers <= 1720, outers


class TestRunCase:
    def test_report_schema(self, case2_report):
        cfg, report = case2_report
        text = report.csv_path.read_text().splitlines()
        assert text[0] == "n,beta,delta_wc,delta_ms,err_wc,bound,eta_norm_mean"
        assert text[0] == ",".join(REPORT_COLUMNS)
        assert len(text) == 1 + len(report.rows)

    def test_bound_theorem_rowwise(self, case2_report):
        _, report = case2_report
        err = report.column("err_wc")
        bound = report.column("bound")
        assert np.all(err <= bound * (1 + 1e-9))

    def test_beta_and_delta_monotone(self, case2_report):
        _, report = case2_report
        assert np.all(np.diff(report.column("beta")) <= 1e-12)
        assert np.all(np.diff(report.column("delta_wc")) <= 1e-15)
        assert np.all(np.diff(report.column("delta_ms")) <= 1e-15)
        assert np.all(report.column("delta_ms")
                      <= report.column("delta_wc") * (1 + 1e-12))

    def test_beta_in_unit_interval(self, case2_report):
        _, report = case2_report
        beta = report.column("beta")
        assert np.all(beta >= BETA_FLOOR)
        assert np.all(beta <= 1.0 + 1e-12)

    def test_interpolation_residual_recorded(self, case2_report):
        _, report = case2_report
        assert report.run_info["interpolation_residual_max"] < 1e-10

    def test_rerun_is_byte_identical(self, case2_report):
        cfg, report = case2_report
        first = report.csv_path.read_bytes()
        again = run_case(cfg, 2)
        assert again.csv_path.read_bytes() == first

    def test_k_eff_stats_present(self, case2_report):
        _, report = case2_report
        stats = report.run_info["k_eff"]
        assert stats["training"]["min"] <= stats["training"]["mean"] \
            <= stats["training"]["max"]

    def test_invalid_case_rejected(self, case2_report):
        cfg, _ = case2_report
        with pytest.raises(ValueError, match="case"):
            run_case(cfg, 3)

    def test_fields_formed_once_per_row_and_never_by_the_sweep(
            self, case2_config, monkeypatch):
        # Errors come from coordinates; only the interpolation check of
        # `run_case` forms the estimates as fields.
        calls = []

        def counting(op, y):
            calls.append(op.n)
            return reconstruct_batch(op, y)

        monkeypatch.setattr(bench, "reconstruct_batch", counting)
        noise = sweep_noise(case2_config, [0.0, 1e-3], n_seeds=2)
        assert len(noise.rows) > 0 and calls == []
        report = run_case(case2_config, 2)
        assert calls == report.column("n").tolist() == [1, 2, 3, 4]


class TestSweepNoise:
    def test_zero_eps_matches_case_report(self, case2_report):
        cfg, report = case2_report
        noise = sweep_noise(cfg, [0.0, 1e-2], n_seeds=2)
        ns = noise.column("n")
        eps = noise.column("eps")
        errs = noise.column("err_wc")
        for row in report.rows:
            sel = (ns == row["n"]) & (eps == 0.0)
            assert np.all(errs[sel] == row["err_wc"])

    def test_rows_respect_extended_bound(self, case2_report):
        cfg, _ = case2_report
        noise = sweep_noise(cfg, [1e-3, 1e-2], n_seeds=3)
        assert np.all(noise.column("err_wc")
                      <= noise.column("bound") * (1 + 1e-9))

    def test_schema_and_determinism(self, case2_report):
        cfg, _ = case2_report
        first = sweep_noise(cfg, [0.0, 1e-3], n_seeds=2)
        text = first.csv_path.read_bytes()
        again = sweep_noise(cfg, [0.0, 1e-3], n_seeds=2)
        assert again.csv_path.read_bytes() == text
        header = text.decode().splitlines()[0]
        assert header == ",".join(NOISE_COLUMNS)

    def test_each_noise_sample_drawn_once(self, case2_config, monkeypatch):
        # Every n shares the samples: the sweep once drew them per n.
        calls = []

        def counting_perturb(*args, **kwargs):
            calls.append(args[1])
            return perturb_observations(*args, **kwargs)

        monkeypatch.setattr(bench, "perturb_observations", counting_perturb)
        noise = sweep_noise(case2_config, [0.0, 1e-3, 1e-2], n_seeds=2)
        assert len(set(noise.column("n"))) == 4
        assert len(calls) == 2 * 2 * 32  # eps > 0, seeds, test states
        assert 0.0 not in calls

    def test_beta_floor_truncates_and_flags_both_reports(self, case2_config,
                                                          monkeypatch):
        # The case-2 betas of small_config are 0.89, 0.53, 0.031, 0.0084.
        monkeypatch.setattr(bench, "BETA_FLOOR", 0.1)
        report = run_case(case2_config, 2)
        noise = sweep_noise(case2_config, [0.0, 1e-3], n_seeds=2)
        assert report.column("n").tolist() == [1, 2]
        assert sorted(set(noise.column("n").tolist())) == [1, 2]
        flags = report.run_info["flags"]
        assert [(f["n"], f["reason"]) for f in flags] == [
            (3, "beta below 0.1")]
        assert flags[0]["beta"] < 0.1
        out = case2_config.output_dir
        for name in ("case2_run_info.json", "noise_sweep_run_info.json"):
            assert json.loads((out / name).read_text())["flags"] == flags

    def test_negative_eps_rejected(self, case2_report):
        cfg, _ = case2_report
        with pytest.raises(ValueError):
            sweep_noise(cfg, [-1e-3], n_seeds=1)

    @pytest.mark.parametrize("eps_list, n_seeds",
                             [([], 2), ([0.0, 1e-3], 0), ([1e-3], -1)])
    def test_empty_sweep_rejected_before_any_read(self, tmp_path, monkeypatch,
                                                  eps_list, n_seeds):
        def no_snapshots(*args, **kwargs):
            raise AssertionError("snapshot set read")

        monkeypatch.setattr(bench, "generate_snapshots", no_snapshots)
        with pytest.raises(ValueError):
            sweep_noise(small_config(tmp_path), eps_list, n_seeds=n_seeds)
        assert list(tmp_path.iterdir()) == []

    def test_run_info_times_each_stage(self, case2_config):
        noise = sweep_noise(case2_config, [0.0, 1e-3], n_seeds=2)
        on_disk = json.loads((case2_config.output_dir
                              / "noise_sweep_run_info.json").read_text())
        timings = on_disk["timings_s"]
        assert timings == noise.run_info["timings_s"]
        assert set(timings) == {"setup", "draws", "reconstruction", "total"}
        assert all(t >= 0 for t in timings.values())
        assert timings["total"] >= (timings["setup"] + timings["draws"]
                                    + timings["reconstruction"]) - 1e-9


def field_errors(ctx, op, y):
    """Relative errors of the test set against its estimates from `y`,
    formed as fields."""
    estimates, _, _ = reconstruct_batch(op, y)
    truths = ctx.testset.matrix
    return (np.linalg.norm(truths - estimates, axis=1)
            / np.linalg.norm(truths, axis=1))


def assert_frame_matches_fields(cfg, ctx, y):
    pairs = list(bench._reconstruct(cfg, ctx, [y], []))
    assert pairs
    for op, errs in pairs:
        np.testing.assert_allclose(errs, field_errors(ctx, op, y),
                                   rtol=1e-9, atol=0)


def synthetic_context(mesh, mode_values, truths, grid):
    """A `CaseContext` on `mesh` with the given modes, test truths and
    sensor grid; only what `_reconstruct` reads is filled in."""
    n = len(mode_values)
    basis = ReducedBasis(mesh=mesh, mode_matrix=np.stack(mode_values),
                         singular_values=np.ones(n),
                         gram_eigenvalues=np.ones(n), model_tag="synthetic")
    sensors = build_sensors(mesh, grid)
    testset = snapshot_set(truths)
    y_psi = testset.matrix @ sensors.psi_matrix.T * mesh.cell_area
    return bench.CaseContext(
        case=2, mesh=mesh, basis=basis, sensors=sensors, testset=testset,
        delta_wc=np.zeros(n), delta_ms=np.zeros(n), y_psi=y_psi,
        eps_model=0.0, train_manifest={}, test_manifest={})


class TestFrameErrors:
    """The test errors `_reconstruct` takes in the span of the modes and
    sensor fields equal those of the estimates formed as fields."""

    @pytest.mark.parametrize("case", [1, 2])
    def test_noiseless_cases(self, workdir, case):
        cfg = small_config(workdir)
        ctx = prepare_case(cfg, case)
        assert_frame_matches_fields(cfg, ctx, ctx.y_psi)

    def test_noisy_observations(self, case2_report):
        cfg, _ = case2_report
        ctx = prepare_case(cfg, 2)
        y = np.stack([perturb_observations(y, 1e-2, 11 + t)
                      for t, y in enumerate(ctx.y_psi)])
        assert_frame_matches_fields(cfg, ctx, y)

    def test_fewer_cells_than_modes_and_sensors(self, tmp_path):
        # One cell per sensor: the 3 + 6 frame fields span only 6 cells.
        mesh = build_mesh(uniform_config(3, 2))
        rng = np.random.default_rng(5)
        modes = [f.values for f in orthonormal_fields(mesh, 3, rng)]
        truths = [random_field(mesh, rng).normalized() for _ in range(4)]
        ctx = synthetic_context(mesh, modes, truths, (3, 2))
        cfg = small_config(tmp_path, n_range=(1, 3))
        noisy = ctx.y_psi + 1e-3 * rng.standard_normal(ctx.y_psi.shape)
        assert_frame_matches_fields(cfg, ctx, noisy)

    def test_modes_nearly_in_the_sensor_span(self, tmp_path):
        # The first mode is a sensor field up to 1e-9: the frame is
        # numerically rank deficient, and R is never inverted.
        mesh = build_mesh(uniform_config(6, 4))
        sensors = build_sensors(mesh, (3, 2))
        rng = np.random.default_rng(6)
        first = sensors.psi_matrix[0] + 1e-9 * rng.standard_normal(
            mesh.n_cells)
        first /= np.sqrt(first @ first * mesh.cell_area)
        modes = [first]
        for f in orthonormal_fields(mesh, 8, rng):
            v = f.values
            for q in modes:
                v = v - (q @ v) * mesh.cell_area * q
            modes.append(v / np.sqrt(v @ v * mesh.cell_area))
            if len(modes) == 4:
                break
        truths = [random_field(mesh, rng).normalized() for _ in range(5)]
        ctx = synthetic_context(mesh, modes, truths, (3, 2))
        cfg = small_config(tmp_path, n_range=(1, 4))
        assert_frame_matches_fields(cfg, ctx, ctx.y_psi)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        xs_path = tmp_path / "xs.json"
        default_cross_sections().save(xs_path)
        config = {
            "geometry": small_config(tmp_path).geometry.to_dict(),
            "cross_sections": "xs.json",
            "tolerances": {"k_tol": 1e-9, "flux_tol": 1e-8},
            "sn_order": 2,
            "sensors": {"sx": 3, "sy": 2},
            "n_range": [1, 5],
            "output_dir": str(tmp_path / "out"),
            "seed": 7,
            "threads": 2,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.tolerances.k_tol == 1e-9
        assert cfg.sensor_grid == (3, 2)
        assert cfg.n_range == (1, 5)
        assert cfg.seed == 7

    def test_retired_model_for_rom_key_still_loads(self, tmp_path):
        # The case id picks the basis model; the key is ignored.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model_for_rom": "diffusion"}))
        cfg = ExperimentConfig.from_json(path)
        assert not hasattr(cfg, "model_for_rom")

    def test_n_range_validated(self, tmp_path):
        with pytest.raises(ConfigurationError, match="n_range"):
            small_config(tmp_path, n_range=(1, 7))  # m = 6

    @pytest.mark.parametrize("key, value, match", [
        ("scheme", "diamnod", "scheme 'diamnod'"),
        ("sn_order", 3, "sn_order"), ("sn_order", 0, "sn_order")])
    def test_scheme_and_order_validated(self, key, value, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig.from_dict({key: value})

    def test_default_config_is_aligned(self):
        cfg = ExperimentConfig.default()
        mesh = build_mesh(cfg.geometry)
        assert mesh.nx % cfg.sensor_grid[0] == 0
        assert mesh.ny % cfg.sensor_grid[1] == 0

    def test_solve_power_map_models_agree_on_normalization(self, tmp_path):
        cfg = small_config(tmp_path)
        mesh = build_mesh(cfg.geometry)
        for model in ("diffusion", "transport"):
            k, p = solve_power_map(model, cfg.cross_sections, mesh,
                                   cfg.tolerances, sn_order=2)
            assert k > 0
            assert p.norm() == pytest.approx(1.0, rel=1e-12)


class TestCli:
    @pytest.fixture(autouse=True)
    def restore_logging(self):
        # `main` binds its stderr handler to the `sys.stderr` of its first
        # call, and capsys swaps `sys.stderr` for every test.
        logger = logging.getLogger("corestate")
        handlers, level = logger.handlers[:], logger.level
        yield
        logger.handlers[:], logger.level = handlers, level

    def _config_file(self, tmp_path):
        config = {
            "geometry": small_config(tmp_path).geometry.to_dict(),
            "sn_order": 2,
            "sensors": {"sx": 3, "sy": 2},
            "n_range": [1, 6],
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_info(self, tmp_path, capsys):
        rc = cli.main(["info", "--config", str(self._config_file(tmp_path))])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cells"] == 150
        assert out["sensors"]["m"] == 6

    def test_snapshots_command(self, tmp_path, capsys):
        rc = cli.main(["snapshots", "--model", "diffusion", "--set", "test",
                       "--config", str(self._config_file(tmp_path))])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 32
        assert len(out["content_hash"]) == 64

    def test_case_command(self, tmp_path, capsys):
        rc = cli.main(["case", "--id", "2",
                       "--config", str(self._config_file(tmp_path))])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert Path(out["csv"]).exists()

    def test_noise_sweep_command(self, tmp_path, capsys):
        rc = cli.main(["noise-sweep", "--eps", "0,1e-3", "--seeds", "2",
                       "--config", str(self._config_file(tmp_path))])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert Path(out["csv"]).exists()

    @pytest.mark.parametrize("option", [["--seeds", "0"], ["--eps", ""]])
    def test_empty_noise_sweep_fails_before_any_work(self, tmp_path, capsys,
                                                     option):
        rc = cli.main(["noise-sweep", *option,
                       "--config", str(self._config_file(tmp_path))])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError"
        assert not (tmp_path / "out").exists()

    def test_progress_goes_to_stderr(self, tmp_path, capsys):
        argv = ["snapshots", "--model", "diffusion", "--set", "test",
                "--config", str(self._config_file(tmp_path))]
        assert cli.main(argv) == 0 and cli.main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4  # solving and done, once per run
        assert err[0] == "[snapshots] solving diffusion/test: 32 problems " \
            "on 1 worker(s)"
        assert err[1].startswith("[snapshots] diffusion/test done in ")
        assert len(logging.getLogger("corestate").handlers) == 1

    def test_error_is_machine_readable(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = cli.main(["info", "--config", str(missing)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_bad_scheme_fails_info(self, tmp_path, capsys):
        path = self._config_file(tmp_path)
        config = json.loads(path.read_text())
        path.write_text(json.dumps({**config, "scheme": "diamnod",
                                    "sn_order": 3}))
        assert cli.main(["info", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigurationError"
        assert "diamnod" in err["message"]

    def test_out_override(self, tmp_path, capsys):
        rc = cli.main(["snapshots", "--model", "diffusion", "--set", "test",
                       "--config", str(self._config_file(tmp_path)),
                       "--out", str(tmp_path / "elsewhere")])
        assert rc == 0
        assert (tmp_path / "elsewhere" / "snapshots" / "diffusion_test"
                / "manifest.json").exists()
