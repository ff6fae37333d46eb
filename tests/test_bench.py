import ctypes
import hashlib
import json
import logging
import shutil
import weakref
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
from corestate.eigen import FissionSpan
from corestate.geometry import GeometryConfig, build_mesh
from corestate.materials import (cell_values, default_cross_sections,
                                 map_alpha_to_mu, training_lattice)
from corestate.pbdw import reconstruct_batch
from corestate.rom import ReducedBasis
from corestate.sensing import build_sensors, observe, perturb_observations
from corestate.transport import eigen_residual as transport_residual
from corestate.transport import (build_quadrature, power_map_transport,
                                 solve_transport)
from corestate import bench, cli, diffusion, eigen, materials, transport
from helpers import (orthonormal_fields, random_field, snapshot_set,
                     uniform_config)


#: content_hash of `small_config`'s test-lattice set per (model,
#: SOLVER_REVISION[model]).
PINNED_TEST_SET_HASHES = {
    ("diffusion", 7):
        "5eb5b076ab818f8ef50865b9274eaf47c4011d3324a7578fbf9ed1170a8d0018",
    ("transport", 13):
        "91f7e56a4aa97be20913d4fe70a315b8279a3f30fd1dcb100eb3d20c53a5cf19",
}


def _default_geometry_dict() -> dict:
    return ExperimentConfig.default().geometry.to_dict()


def fail_solves_at(monkeypatch, failing):
    """Make `bench.solve_power_map` raise `DegenerateProblemError` at each
    lattice point of `failing`, known by its fission scale and by the
    block of the cross sections it is handed, which `bench.map_alpha_to_mu`
    builds once per (a1, a2, a3) block."""
    blocks, scale, solve = {}, bench.map_alpha_to_mu, bench.solve_power_map

    def recording_scale(alpha, base):
        xs = scale(alpha, base)
        blocks[id(xs)] = tuple(alpha[:3])
        return xs

    def failing_solve(model, xs, *args, operators, **kwargs):
        alpha = blocks[id(xs)] + tuple(operators.fission_scale)
        if alpha in failing:
            raise DegenerateProblemError(f"no solve at {alpha}")
        return solve(model, xs, *args, operators=operators, **kwargs)

    monkeypatch.setattr(bench, "map_alpha_to_mu", recording_scale)
    monkeypatch.setattr(bench, "solve_power_map", failing_solve)


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

    def test_truncated_manifest_asks_for_regeneration(self, tmp_path):
        # It stopped the run with a bare JSONDecodeError naming no file.
        cfg = small_config(tmp_path)
        _, manifest = generate_snapshots(cfg, "diffusion", "test")
        victim = (Path(tmp_path) / "snapshots" / "diffusion_test"
                  / "manifest.json")
        text = victim.read_text()
        victim.write_text(text[:len(text) // 2])
        with pytest.raises(RuntimeError,
                           match=f"^snapshot manifest {victim} is not valid "
                                 "JSON; regenerate with force=True$"):
            generate_snapshots(cfg, "diffusion", "test")
        _, again = generate_snapshots(cfg, "diffusion", "test", force=True)
        assert again["content_hash"] == manifest["content_hash"]

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
        for i, row in enumerate(snaps.matrix.tolist()):
            text = "".join(repr(x) + "\n" for x in row)
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
        # One, two and three workers write the same bytes and record the
        # same starts.  A start is the parent's, or is made from
        # solutions of the point's own (a1, a2, a3) block solved before
        # it in `_solve_order`: all but the first point of each of the
        # 8 blocks of 4 start from their block.
        manifests = [generate_snapshots(
            small_config(tmp_path / f"w{threads}", threads=threads), model,
            "test")[1] for threads in (1, 2, 3)]
        matrices = [np.load(tmp_path / f"w{threads}" / "snapshots"
                            / f"{model}_test" / "snapshots.npy").tobytes()
                    for threads in (1, 2, 3)]
        assert matrices[1:] == matrices[:1] * 2
        starts = manifests[0]["starts"]
        assert [m["starts"] for m in manifests[1:]] == [starts] * 2
        lattice = materials.test_lattice()
        rank = {index: position for position, (index, _) in enumerate(
            bench._solve_order(list(enumerate(lattice))))}
        for index, start in enumerate(starts):
            assert start == sorted(start) and start
            assert start == [-1] or all(
                lattice[i][:3] == lattice[index][:3]
                and rank[i] < rank[index] for i in start)
        assert sum(start != [-1] for start in starts) == 24

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
        lattice = training_lattice()
        index = lattice.index(bench.PARENT_ALPHA)
        assert converged and len(solved) == 242
        assert manifest["k_eff"][index] == parent.k_eff
        xs = map_alpha_to_mu(bench.PARENT_ALPHA, cfg.cross_sections)
        assert (snaps.fields[index].values.tobytes()
                == power_map_diffusion(parent, xs).values.tobytes())
        _, pooled = generate_snapshots(
            small_config(tmp_path / "b", threads=2), "diffusion", "training")
        assert pooled["content_hash"] == manifest["content_hash"]
        assert pooled["starts"] == manifest["starts"]
        # The parent spans the starts of its own block, and no other: a
        # block's first point starts from the parent, and every later
        # one from its block's solutions.
        starts = manifest["starts"]
        own = [i for i, alpha in enumerate(lattice)
               if alpha[:3] == bench.PARENT_ALPHA[:3]]
        assert starts[index] == [-1]
        assert all(starts[i][0] == -1 for i in own)
        others = [start for i, start in enumerate(starts) if i not in own]
        assert others.count([-1]) == 26
        assert all(-1 not in start for start in others if start != [-1])

    def test_pool_worker_runs_one_blas_thread(self):
        # A worker not forked from the caller's one-thread setting
        # (spawn, forkserver) starts with multi-threaded BLAS, and two
        # such workers oversubscribe a 2-core machine: 2-worker
        # snapshots were slower than serial ones.
        controls = openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS library is loaded")
        before = [get() for get, _ in controls]
        for _, set_threads in controls:
            set_threads(2)
        try:
            with Pool(1, initializer=bench._one_blas_thread) as pool:
                assert pool.map(openblas_threads, [0]) == [[1] * len(before)]
        finally:
            for (_, set_threads), n in zip(controls, before):
                set_threads(n)

    def test_pool_takes_contiguous_runs_of_the_solve_order(
            self, tmp_path, monkeypatch):
        # A stand-in pool solves its tasks here and records them.
        started, runs = [], []

        class RecordingPool:
            def __init__(self, processes, initializer):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, func, tasks):
                runs.extend([index for index, _ in run] for _, run in tasks)
                return [func(task) for task in tasks]

        _, serial = generate_snapshots(small_config(tmp_path / "serial"),
                                       "diffusion", "test")
        monkeypatch.setattr(bench, "Pool", RecordingPool)
        lattice = materials.test_lattice()
        order = bench._solve_order(list(enumerate(lattice)))
        for threads, workers in ((3, 3), (64, 8)):
            started.clear()
            runs.clear()
            _, pooled = generate_snapshots(
                small_config(tmp_path / f"pooled{threads}", threads=threads),
                "diffusion", "test")
            # No run splits an (a1, a2, a3) block: 8 blocks of 4 points.
            assert started == [workers]
            assert len(runs) == workers and all(runs)
            assert sum(runs, []) == [index for index, _ in order]
            blocks = [{lattice[i][:3] for i in run} for run in runs]
            assert sum(len(b) for b in blocks) == 8
            assert all(len(run) == 4 * len(b)
                       for run, b in zip(runs, blocks))
            assert pooled["content_hash"] == serial["content_hash"]

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

    def test_solver_failure_identifies_alpha(self, tmp_path, monkeypatch):
        bad = small_config(
            tmp_path, tolerances=ToleranceConfig(k_tol=1e-14,
                                                 flux_tol=1e-14, max_outer=1))
        with pytest.raises(RuntimeError, match=r"alpha = \(0\.8"), \
                pytest.warns(RuntimeWarning, match="did not converge"):
            generate_snapshots(bad, "diffusion", "test")
        # Test points 6 (a2 = 0.85) and 26 (a2 = 0.95) fail.  Two
        # workers take one a2 level each, so the failures come from
        # different workers: on one worker or two the error names
        # point 6.
        failing = [materials.test_lattice()[i] for i in (26, 6)]
        fail_solves_at(monkeypatch, failing)
        for threads in (1, 2):
            cfg = small_config(tmp_path / f"w{threads}", threads=threads)
            with pytest.raises(RuntimeError) as info:
                generate_snapshots(cfg, "diffusion", "test")
            assert str(info.value).startswith(
                f"diffusion solve failed at alpha = {failing[1]}: ")

    def test_failed_block_preparation_identifies_alpha(self, tmp_path,
                                                       monkeypatch):
        # Block (0.95, 0.85, 0.85) is test points 16-23.  Each of its
        # points retries the preparation and fails with it, so on one
        # worker or two the error names point 16 and no file is written.
        base = small_config(tmp_path).cross_sections
        failing = map_alpha_to_mu((0.95, 0.85, 0.85, 1.0, 1.0),
                                  base).to_dict()
        prepare = bench.prepare_diffusion

        def failing_prepare(xs, mesh):
            if xs.to_dict() == failing:
                raise DegenerateProblemError("no operators for the block")
            return prepare(xs, mesh)

        monkeypatch.setattr(bench, "prepare_diffusion", failing_prepare)
        alpha = materials.test_lattice()[16]
        assert alpha == (0.95, 0.85, 0.85, 0.85, 0.85)
        for threads in (1, 2):
            cfg = small_config(tmp_path / f"w{threads}", threads=threads)
            with pytest.raises(RuntimeError) as info:
                generate_snapshots(cfg, "diffusion", "test")
            assert str(info.value) == (
                f"diffusion solve failed at alpha = {alpha}: "
                "DegenerateProblemError: no operators for the block")
            directory = cfg.output_dir / "snapshots" / "diffusion_test"
            assert not (directory / "manifest.json").exists()
            assert not (directory / "snapshots.npy").exists()

    def test_failed_first_of_a_ray_leaves_its_next_point_to_the_parent(
            self, tmp_path, monkeypatch):
        # Test points 0-3 are one block, solved in this order.  Point 0
        # fails and adds nothing to the block's span, so point 1 starts
        # from the parent and the later ones from point 1 and on.
        cfg = small_config(tmp_path)
        mesh = build_mesh(cfg.geometry)
        parent, converged = bench._solve_parent(cfg, "diffusion", mesh)
        lattice = materials.test_lattice()
        fail_solves_at(monkeypatch, [lattice[0]])
        points = [(i, lattice[i]) for i in (0, 1, 2, 3)]
        results = list(bench._solve_points(
            ("diffusion", cfg, mesh, parent, converged), points))
        assert [(index, start) for index, start, *_ in results] \
            == [(0, [-1]), (1, [-1]), (2, [1]), (3, [1, 2])]
        assert results[0][4].startswith("DegenerateProblemError")
        assert all(error is None for *_, error in results[1:])

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


@pytest.mark.parametrize("model", ["transport", "diffusion"])
def test_block_point_converges_from_its_ritz_start(tmp_path, model):
    # a4 and a5 only scale nuSf1 and nuSf2, so the points of the training
    # block (0.8, 0.8, 0.8) share every other operator.  After its points
    # at (a4, a5) = (0.8, 0.8), (0.8, 0.9) and (0.8, 1.0), three rays,
    # the point (0.9, 0.9), on the first one's ray, and (0.9, 0.8), on a
    # new ray, start from the Ritz pair of the three and pass within two
    # outers, where a start from the parent takes more.
    cfg = small_config(tmp_path)
    tol = cfg.tolerances
    mesh = build_mesh(cfg.geometry)
    parent, _ = bench._solve_parent(cfg, model, mesh)
    nusf = cell_values(cfg.cross_sections, mesh, "nu_sigma_f")[0]
    span = FissionSpan(nusf.reshape(2, -1), 10 * tol.flux_tol)
    spanning = []

    def solve(scale, start):
        xs = map_alpha_to_mu((0.8,) * 3 + scale, cfg.cross_sections)
        return xs, solve_power_map(model, xs, mesh, tol, cfg.sn_order,
                                   cfg.scheme, start=start,
                                   keep_solution=True)[2]

    for index, scale in enumerate([(0.8, 0.8), (0.8, 0.9), (0.8, 1.0)]):
        _, sol = solve(scale, parent)
        assert span.add(sol.k_eff, bench._fluxes(model, sol), scale)
        spanning.append((index, sol))
    if model == "transport":
        power, residual = power_map_transport, transport_residual
    else:
        power, residual = power_map_diffusion, diffusion_residual
    for scale in [(0.9, 0.8), (0.9, 0.9)]:
        start = bench._combine(model, mesh, span, spanning,
                               *span.ritz(scale))
        xs, sol = solve(scale, start)
        _, reference = solve(scale, parent)
        assert sol.iterations <= 2 < reference.iterations
        assert abs(sol.k_eff - reference.k_eff) <= tol.k_tol
        maps = [power(s, xs).values for s in (sol, reference)]
        assert (np.max(np.abs(maps[0] - maps[1]))
                <= tol.flux_tol * np.max(np.abs(maps[1])))
        assert residual(sol, xs) <= tol.flux_tol
    # The same-ray point, solved last, has its fission source in the
    # span already.
    assert not span.add(sol.k_eff, bench._fluxes(model, sol), (0.9, 0.9))


@pytest.mark.parametrize("real, imag", [(1.1, 0.2), (-1.1, 0.0)])
def test_unusable_ritz_value_falls_back_to_the_parent(tmp_path, monkeypatch,
                                                      real, imag):
    # A complex or negative Ritz value is no start: every point of a
    # test block then starts from the parent, and gives what a solve
    # from the parent gives.
    def eigenpairs(h, compute_vl=0):
        n = len(h)
        return np.full(n, real), np.full(n, imag), None, np.eye(n), 0

    monkeypatch.setattr(eigen, "dgeev", eigenpairs)
    cfg = small_config(tmp_path)
    mesh = build_mesh(cfg.geometry)
    parent, converged = bench._solve_parent(cfg, "diffusion", mesh)
    lattice = materials.test_lattice()
    results = list(bench._solve_points(
        ("diffusion", cfg, mesh, parent, converged),
        [(i, lattice[i]) for i in (0, 1, 2, 3)]))
    assert [start for _, start, *_ in results] == [[-1]] * 4
    for index, _, k_eff, values, error in results:
        xs = map_alpha_to_mu(lattice[index], cfg.cross_sections)
        expected = solve_power_map("diffusion", xs, mesh, cfg.tolerances,
                                   start=parent)
        assert error is None and k_eff == expected[0]
        assert values.tobytes() == expected[1].values.tobytes()


@pytest.mark.parametrize("model, lattice", [("transport", "test"),
                                            ("diffusion", "training")])
def test_block_points_match_per_point_solves(tmp_path, monkeypatch, model,
                                             lattice):
    # The points of an (a1, a2, a3) block share the operators prepared
    # once from its cross sections at a4 = a5 = 1, and each forms only
    # its own fission production; solved from its own cross sections
    # and the same start, each point gives the same bits.  The transport
    # block is the first of the solve order, the diffusion block the
    # parent's, which the parent spans.
    cfg = small_config(tmp_path)
    mesh = build_mesh(cfg.geometry)
    parent, converged = bench._solve_parent(cfg, model, mesh)
    alphas = (training_lattice() if lattice == "training"
              else materials.test_lattice())
    order = bench._solve_order([(i, alpha) for i, alpha in enumerate(alphas)
                                if alpha != bench.PARENT_ALPHA])
    block = order[0][1][:3] if model == "transport" else bench.PARENT_ALPHA[:3]
    points = [point for point in order if point[1][:3] == block]
    calls, solve = [], bench.solve_power_map

    def recording(*args, start, **kwargs):
        result = solve(*args, start=start, **kwargs)
        calls.append((start, result[2]))
        return result

    monkeypatch.setattr(bench, "solve_power_map", recording)
    results = list(bench._solve_points(
        (model, cfg, mesh, parent, converged), points))
    assert len(calls) == len(points) in (4, 8)
    assert sum(start is not parent for start, _ in calls) >= len(points) - 1
    # Each solve starts its own state afresh, so its outer and sweep
    # counts match too.
    for (index, alpha), (start, sol), result in zip(points, calls, results):
        k_eff, power, alone = solve(
            model, map_alpha_to_mu(alpha, cfg.cross_sections), mesh,
            cfg.tolerances, cfg.sn_order, cfg.scheme, start=start,
            keep_solution=True)
        assert result[0] == index and result[4] is None
        assert result[2].hex() == k_eff.hex()
        assert result[3].tobytes() == power.values.tobytes()
        assert sol.iterations == alone.iterations
        assert getattr(sol, "sweeps", 0) == getattr(alone, "sweeps", 0)


def block_point_solves(cfg, model, lattice, monkeypatch):
    """(block, calls) of the first block in the solve order of `lattice`,
    each call (the cross sections `solve_power_map` was handed, its
    operators, the solution)."""
    mesh = build_mesh(cfg.geometry)
    parent, converged = bench._solve_parent(cfg, model, mesh)
    alphas = (training_lattice() if lattice == "training"
              else materials.test_lattice())
    order = bench._solve_order(list(enumerate(alphas)))
    block = order[0][1][:3]
    calls, solve = [], bench.solve_power_map

    def recording(model, xs, *args, operators, **kwargs):
        result = solve(model, xs, *args, operators=operators, **kwargs)
        calls.append((xs, operators, result[2]))
        return result

    monkeypatch.setattr(bench, "solve_power_map", recording)
    results = list(bench._solve_points(
        (model, cfg, mesh, parent, converged),
        [point for point in order if point[1][:3] == block]))
    assert all(error is None for *_, error in results)
    return block, calls


@pytest.mark.parametrize("model, lattice", [("diffusion", "training"),
                                            ("transport", "test")])
def test_block_points_certify_with_the_cross_sections_handed(
        tmp_path, monkeypatch, model, lattice):
    # A block point solves on operators prepared from the block's cross
    # sections at a4 = a5 = 1, which `solve_power_map` is handed, at its
    # own fission scale (a4, a5).  Its solution records that scale, so
    # it certifies on the nuSf it was solved with; certified on the
    # block's nuSf unscaled, these points would read up to 0.25
    # (training) and 0.18 (test).  A point's own cross sections, already
    # scaled, cannot be the solve's, and are refused.
    cfg = small_config(tmp_path)
    residual = transport_residual if model == "transport" \
        else diffusion_residual
    block, calls = block_point_solves(cfg, model, lattice, monkeypatch)
    assert len(calls) == (9 if lattice == "training" else 4)
    for xs, ops, sol in calls:
        assert sol.fission_scale == ops.fission_scale
        certified = residual(sol, xs)
        assert certified <= 10 * cfg.tolerances.flux_tol
        own = map_alpha_to_mu(block + sol.fission_scale, cfg.cross_sections)
        if sol.fission_scale == (1.0, 1.0):
            assert residual(sol, own) == certified
        else:
            with pytest.raises(ConfigurationError, match="fission_scale"):
                residual(sol, own)


@pytest.mark.parametrize("model, lattice", [("diffusion", "training"),
                                            ("transport", "test")])
def test_block_power_maps_read_the_operators_kappa(tmp_path, monkeypatch,
                                                   model, lattice):
    # The operators carry the block's kappaSf, gathered once, and a
    # point's map from them has the bytes of its map from its own cross
    # sections.
    cfg = small_config(tmp_path)
    power = power_map_transport if model == "transport" \
        else power_map_diffusion
    block, calls = block_point_solves(cfg, model, lattice, monkeypatch)
    for _, ops, sol in calls:
        own = map_alpha_to_mu(block + ops.fission_scale, cfg.cross_sections)
        assert (power(sol, ops).values.tobytes()
                == power(sol, own).values.tobytes())


def test_kappa_gathered_once_per_block(tmp_path, monkeypatch):
    # One worker gathers kappaSf onto the cells for the parent's
    # operators, for the parent's own lattice point, and once per
    # (a1, a2, a3) block with the block's operators: not once per point.
    gathers = []

    def counting(module):
        gather = module.cell_values

        def counted(xs, mesh, *names):
            if "kappa_sigma_f" in names:
                gathers.append(names)
            return gather(xs, mesh, *names)

        monkeypatch.setattr(module, "cell_values", counted)

    for module in (bench, diffusion, transport, materials):
        counting(module)
    generate_snapshots(small_config(tmp_path), "diffusion", "training")
    blocks = {alpha[:3] for alpha in training_lattice()}
    assert len(gathers) <= 2 + len(blocks) == 29


def test_previous_block_released_before_the_next_factorizes(tmp_path,
                                                            monkeypatch):
    # Each sweep factor is tracked while alive.  When a block's sweep
    # system is factorized, the previous block's operators are gone and
    # the factor cache has dropped that group's old factor, so only the
    # other group's factor is alive: never two blocks' at once.
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

    cfg = small_config(tmp_path)
    mesh = build_mesh(cfg.geometry)
    parent, converged = bench._solve_parent(cfg, "transport", mesh)
    monkeypatch.setattr(transport._SweepBlock, "factorize", tracking)
    order = bench._solve_order(list(enumerate(materials.test_lattice())))
    results = list(bench._solve_points(
        ("transport", cfg, mesh, parent, converged), order))
    assert all(error is None for *_, error in results)
    assert len(peak) > 4 and max(peak) == 1


def test_block_cross_sections_built_once_per_block(tmp_path, monkeypatch):
    # One worker builds cross sections for the parent, for the parent's
    # own lattice point, and once per (a1, a2, a3) block at a4 = a5 = 1,
    # whose operators all the block's points share: not once per point.
    calls, scale = [], bench.map_alpha_to_mu

    def counting(alpha, base):
        calls.append(tuple(alpha))
        return scale(alpha, base)

    monkeypatch.setattr(bench, "map_alpha_to_mu", counting)
    generate_snapshots(small_config(tmp_path), "diffusion", "training")
    blocks = {alpha[:3] for alpha in training_lattice()}
    assert len(calls) == 2 + len(blocks) == 29
    assert calls[:2] == [bench.PARENT_ALPHA] * 2
    assert sorted(calls[2:]) == sorted(b + (1.0, 1.0) for b in blocks)


def test_snapshot_work_budget(tmp_path, monkeypatch):
    # Solves made by `generate_snapshots` on the default lattices, the
    # parents included.  With every point solved from the parent the
    # transport test set took 239 outers and 548 sweeps, and diffusion
    # 1,722 outers over both lattices; with the later points of each ray
    # (a1, a2, a3, a5 / a4) started from its first solution 190, 450 and
    # 1,400.  Every point started from the Ritz pair of its (a1, a2, a3)
    # block's solutions takes them to 163, 408 and 718.  Work counts do
    # not depend on the machine, so a lost Ritz start fails here.
    work = {"outers": 0, "sweeps": 0}

    def counting(solve):
        def counted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            work["outers"] += sol.iterations
            work["sweeps"] += getattr(sol, "sweeps", 0)
            return sol
        return counted

    for name in ("solve_transport", "solve_diffusion"):
        monkeypatch.setattr(bench, name, counting(getattr(bench, name)))
    cfg = ExperimentConfig.default(output_dir=tmp_path, threads=1)
    generate_snapshots(cfg, "transport", "test")
    assert work["outers"] <= 170 and work["sweeps"] <= 415, work
    work.update(outers=0, sweeps=0)
    for lattice in ("training", "test"):
        generate_snapshots(cfg, "diffusion", lattice)
    assert work["outers"] <= 740, work


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

    @pytest.mark.parametrize("report", [
        lambda cfg: run_case(cfg, 2),
        lambda cfg: sweep_noise(cfg, [0.0, 1e-3], n_seeds=2)],
        ids=["run_case", "sweep_noise"])
    def test_reports_run_one_blas_thread(self, case2_config, monkeypatch,
                                         report):
        # POD, the delta curves and the reconstruction ran at the caller's
        # BLAS thread count, and the report bytes depended on it.
        controls = openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS library is loaded")
        before = [get() for get, _ in controls]
        seen = []
        pod = bench.pod

        def recording_pod(*args, **kwargs):
            seen.append(openblas_threads())
            return pod(*args, **kwargs)

        monkeypatch.setattr(bench, "pod", recording_pod)
        for _, set_threads in controls:
            set_threads(2)
        try:
            report(case2_config)
            after = openblas_threads()
        finally:
            for (_, set_threads), n in zip(controls, before):
                set_threads(n)
        assert seen == [[1] * len(before)]
        assert after == [2] * len(before)

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
            calls.append((args[1], np.shape(args[0])))
            return perturb_observations(*args, **kwargs)

        monkeypatch.setattr(bench, "perturb_observations", counting_perturb)
        noise = sweep_noise(case2_config, [0.0, 1e-3, 1e-2], n_seeds=2)
        assert len(set(noise.column("n"))) == 4
        # One call per nonzero level, drawing all its seeds at once.
        assert [eps for eps, _ in calls] == [1e-3, 1e-2]
        assert all(shape == (2, 32, 6) for _, shape in calls)

    def test_seed_prefix_rows_are_stable(self, case2_config):
        # Seed s draws the same noise whatever the number of seeds.
        rows = {n_seeds: {(r["n"], r["eps"], r["seed"]): r for r in
                          sweep_noise(case2_config, [0.0, 1e-3, 1e-2],
                                      n_seeds=n_seeds).rows}
                for n_seeds in (2, 3)}
        assert len(rows[2]) == 4 * 3 * 2
        assert all(rows[3][key] == row for key, row in rows[2].items())

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

    def test_range_above_the_basis_rank_flags_both_reports(self,
                                                           case2_config):
        # small_config's case-2 basis has rank 12; 5 x 5 sensors allow
        # n up to 25.
        out = case2_config.output_dir
        cfg = small_config(out, sensor_grid=(5, 5), n_range=(13, 25))
        report = run_case(cfg, 2)
        noise = sweep_noise(cfg, [0.0, 1e-3], n_seeds=2)
        assert report.rows == () and noise.rows == ()
        assert report.csv_path.read_text() == ",".join(REPORT_COLUMNS) + "\n"
        expected = [{"n": 13, "basis_rank": 12, "reason":
                     "n_range starts at 13, above the basis rank 12"}]
        for name in ("case2_run_info.json", "noise_sweep_run_info.json"):
            assert json.loads((out / name).read_text())["flags"] == expected
        assert report.run_info["flags"] == noise.run_info["flags"] == expected

    def test_negative_eps_rejected(self, case2_report):
        cfg, _ = case2_report
        with pytest.raises(ValueError):
            sweep_noise(cfg, [-1e-3], n_seeds=1)

    @pytest.mark.parametrize("eps_list, n_seeds",
                             [([], 2), ([0.0, 1e-3], 0), ([1e-3], -1),
                              ([0.0, float("nan")], 2), ([float("inf")], 2)])
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


def assert_frame_matches_fields(cfg, ctx, observations):
    """Each (M, K) error array `_reconstruct` yields for the stacked
    observation matrices `observations` (M, K, m) equals, row by row,
    the errors of the estimates formed as fields."""
    pairs = list(bench._reconstruct(cfg, ctx, observations, []))
    assert pairs
    for op, errs in pairs:
        assert errs.shape == observations.shape[:2]
        for y, row in zip(observations, errs):
            np.testing.assert_allclose(row, field_errors(ctx, op, y),
                                       rtol=1e-9, atol=0)


def noisy_stack(ctx, levels, seed):
    """The noiseless observations of `ctx` perturbed at each noise level
    of `levels`, stacked (len(levels), K, m), each draw seeded apart."""
    return np.stack([
        [perturb_observations(y, eps, seed + 100 * i + t)
         for t, y in enumerate(ctx.y_psi)]
        for i, eps in enumerate(levels)])


def synthetic_context(mesh, mode_values, truths, grid):
    """A `CaseContext` on `mesh` with the given modes, test truths and
    sensor grid; only what `_reconstruct` reads is filled in."""
    n = len(mode_values)
    basis = ReducedBasis(mesh=mesh, mode_matrix=np.stack(mode_values),
                         singular_values=np.ones(n),
                         gram_eigenvalues=np.ones(n))
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
        assert_frame_matches_fields(cfg, ctx, ctx.y_psi[None])

    def test_noisy_observations(self, case2_report):
        cfg, _ = case2_report
        ctx = prepare_case(cfg, 2)
        stack = np.concatenate([ctx.y_psi[None],
                                noisy_stack(ctx, [1e-2, 1e-3, 1e-2], 11)])
        assert_frame_matches_fields(cfg, ctx, stack)

    def test_fewer_cells_than_modes_and_sensors(self, tmp_path):
        # One cell per sensor: the 3 + 6 frame fields span only 6 cells.
        mesh = build_mesh(uniform_config(3, 2))
        rng = np.random.default_rng(5)
        modes = [f.values for f in orthonormal_fields(mesh, 3, rng)]
        truths = [random_field(mesh, rng).normalized() for _ in range(4)]
        ctx = synthetic_context(mesh, modes, truths, (3, 2))
        cfg = small_config(tmp_path, n_range=(1, 3))
        noisy = ctx.y_psi + 1e-3 * rng.standard_normal((2,) + ctx.y_psi.shape)
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
        assert_frame_matches_fields(cfg, ctx, ctx.y_psi[None])

    @pytest.mark.parametrize("count", [1, 5])
    def test_stack_matches_one_matrix_at_a_time(self, case2_report, count):
        # One reconstruction of the stack per n gives each matrix the
        # errors it gets on its own, bit for bit.
        cfg, _ = case2_report
        ctx = prepare_case(cfg, 2)
        stack = noisy_stack(ctx, [1e-3, 1e-2, 3e-2, 1e-3, 1e-2][:count], 7)
        stacked = [(op.n, errs)
                   for op, errs in bench._reconstruct(cfg, ctx, stack, [])]
        alone = [[(op.n, errs[0]) for op, errs
                  in bench._reconstruct(cfg, ctx, y[None], [])]
                 for y in stack]
        assert [n for n, _ in stacked] == [1, 2, 3, 4]
        for i, per_n in enumerate(alone):
            assert [n for n, _ in per_n] == [n for n, _ in stacked]
            for (_, errs), (_, own) in zip(stacked, per_n):
                assert errs.shape == (count, len(ctx.testset))
                assert errs[i].tobytes() == own.tobytes()

    def test_range_above_the_basis_rank_is_flagged(self, tmp_path, caplog):
        mesh = build_mesh(uniform_config(6, 4))
        rng = np.random.default_rng(8)
        modes = [f.values for f in orthonormal_fields(mesh, 3, rng)]
        truths = [random_field(mesh, rng).normalized() for _ in range(4)]
        ctx = synthetic_context(mesh, modes, truths, (3, 2))
        flags = []
        caplog.set_level(logging.WARNING, logger="corestate.bench")
        cfg = small_config(tmp_path, n_range=(4, 6))
        assert list(bench._reconstruct(cfg, ctx, ctx.y_psi[None],
                                       flags)) == []
        assert flags == [{"n": 4, "basis_rank": 3, "reason":
                          "n_range starts at 4, above the basis rank 3"}]
        assert "above the basis rank 3" in caplog.text
        # A range ending above the rank is cut at it, without a flag.
        cfg = small_config(tmp_path, n_range=(3, 6))
        pairs = list(bench._reconstruct(cfg, ctx, ctx.y_psi[None], flags))
        assert [op.n for op, _ in pairs] == [3] and len(flags) == 1


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
        for value in ([1, 2, 3], 5):
            with pytest.raises(ConfigurationError,
                               match=r"^n_range must be a pair of integers"):
                ExperimentConfig.from_dict({"n_range": value})

    @pytest.mark.parametrize("key, value, match", [
        ("scheme", "diamnod", "scheme 'diamnod'"),
        ("sn_order", 3, "sn_order"), ("sn_order", 0, "sn_order"),
        ("threads", 0, "threads"), ("threads", -4, "threads"),
        ("seed", -1, "seed"),
        ("model_for_truth", "difusion", "^model_for_truth 'difusion'")])
    def test_scheme_and_order_validated(self, key, value, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize("config, field", [
        ({"threads": 2.7}, "threads"), ({"threads": True}, "threads"),
        ({"seed": 3.9}, "seed"), ({"sn_order": 4.5}, "sn_order"),
        ({"n_range": [1.5, 6.9]}, "n_range"),
        ({"sensors": {"sx": 3.5}}, "sensors.sx"),
        ({"sensors": {"sy": "6"}}, "sensors.sy"),
        ({"tolerances": {"max_outer": 2.9}}, "max_outer"),
        ({"tolerances": {"max_outer": "1e3"}}, "max_outer"),
        ({"tolerances": {"max_outer": False}}, "max_outer"),
        ({"geometry": {"nx": 45.5}}, "nx"),
        ({"geometry": {"ny": None}}, "ny"),
        ({"geometry": {"regions": [{"name": "Core", "box": [0, 15, 0, 15],
                                    "priority": 1.5}]}}, "priority")])
    def test_non_integral_integer_fields_rejected(self, config, field):
        # Each integer field used to go through int(): 2.7 threads ran 2
        # workers, True one, and "1e3" failed with a bare ValueError.  A
        # region priority was taken as given.
        if "tolerances" in config:
            field = f"tolerances.{field}"
        if "geometry" in config:
            config = {"geometry": {**_default_geometry_dict(),
                                   **config["geometry"]}}
        with pytest.raises(ConfigurationError,
                           match=rf"^{field} must be an integer, got "):
            ExperimentConfig.from_dict(config)

    @pytest.mark.parametrize("config, field", [
        ({"tolerances": {"k_tol": True}}, "tolerances.k_tol"),
        ({"tolerances": {"k_tol": "1e-9"}}, "tolerances.k_tol"),
        ({"tolerances": {"flux_tol": float("nan")}}, "tolerances.flux_tol"),
        ({"tolerances": {"flux_tol": float("inf")}}, "tolerances.flux_tol"),
        ({"geometry": {"extent_y": True}}, "geometry extent_y"),
        ({"geometry": {"extent_x": float("inf")}}, "geometry extent_x"),
        ({"geometry": {"extent_x": 10 ** 400}}, "geometry extent_x")])
    def test_non_numeric_number_fields_rejected(self, config, field):
        # k_tol and flux_tol went through float(): true loaded as 1.0.
        if "geometry" in config:
            config = {"geometry": {**_default_geometry_dict(),
                                   **config["geometry"]}}
        with pytest.raises(ConfigurationError,
                           match=rf"^{field} must be a number, finite and "
                                 "real, got "):
            ExperimentConfig.from_dict(config)

    @pytest.mark.parametrize("tolerances, match", [
        ({"k_tol": -1}, r"^tolerances\.k_tol must be finite and > 0, got "
                        r"-1(\.0)?$"),
        ({"flux_tol": 0}, r"^tolerances\.flux_tol must be finite and > 0, "
                          r"got 0(\.0)?$"),
        ({"max_outer": 0}, r"^tolerances\.max_outer must be >= 1, got 0$")])
    def test_out_of_range_tolerances_named(self, tolerances, match):
        # Each raised only "tolerances must be finite and positive", from
        # a config and from ToleranceConfig alike.
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig.from_dict({"tolerances": tolerances})
        with pytest.raises(ConfigurationError, match=match):
            ToleranceConfig(**tolerances)

    @pytest.mark.parametrize("key, value, match", [
        ("nx", 1, r"^geometry nx must be >= 2, got 1$"),
        ("ny", 0, r"^geometry ny must be >= 2, got 0$"),
        ("extent_x", -5, r"^geometry extent_x must be > 0, got -5\.0$")])
    def test_out_of_range_geometry_named(self, key, value, match):
        # These raised "need at least 2 cells per direction" and "domain
        # extents must be positive".
        geometry = GeometryConfig.from_dict(
            {**_default_geometry_dict(), key: value})
        with pytest.raises(ConfigurationError, match=match):
            build_mesh(geometry)

    @pytest.mark.parametrize("config, match", [
        ({"tolerances": {"ktol": 1e-12}},
         r"^tolerances has unknown keys \['ktol'\]"),
        ({"tolerances": 1e-9}, "^tolerances must be an object"),
        ({"geometry": {"nxx": 45}},
         r"^geometry has unknown keys \['nxx'\]"),
        ({"geometry": {"regions": [{"name": "Core", "box": [0, 15, 0, 15],
                                    "priorty": 1}]}},
         r"^geometry region 0 has unknown keys \['priorty'\]"),
        ({"sensors": {"sxx": 3}}, r"^sensors has unknown keys \['sxx'\]"),
        ({"sensors": [9, 6]}, "^sensors must be an object"),
        ({"sensors": {"sx": -9, "sy": -6}}, r"^sensors\.sx must be >= 1"),
        ({"sensors": {"sx": 0}}, r"^sensors\.sx must be >= 1, got 0$"),
        ({"sensors": {"sx": 9, "sy": -1}}, r"^sensors\.sy must be >= 1"),
        ([1], r"^experiment config: the top level must be an object, "
              r"got \[1\]$")])
    def test_unknown_keys_rejected(self, config, match):
        # {"ktol": 1e-12} kept k_tol at 1e-8, and a region's "priorty"
        # was dropped.  Sensors: {"sxx": 3} kept the 9 x 6 default,
        # [9, 6] raised a bare AttributeError, {"sx": -9, "sy": -6}
        # loaded with m = 54 and failed only in build_sensors, and
        # {"sx": 0} was blamed on n_range.  A top level of [1] raised a
        # bare AttributeError.
        if "geometry" in config:
            config = {"geometry": {**_default_geometry_dict(),
                                   **config["geometry"]}}
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig.from_dict(config)

    @pytest.mark.parametrize("field", ["output_dir", "cross_sections"])
    @pytest.mark.parametrize("value", [5, ["bench_out"], True])
    def test_non_string_paths_rejected(self, field, value):
        # A number raised a bare TypeError from Path() or the / operator.
        with pytest.raises(ConfigurationError,
                           match=rf"^{field} must be a path string, got "):
            ExperimentConfig.from_dict({field: value})

    def test_integral_floats_load_as_ints(self):
        cfg = ExperimentConfig.from_dict({
            "threads": 2.0, "seed": 3, "sn_order": 4.0, "n_range": [1.0, 6],
            "tolerances": {"max_outer": 1e3},
            "geometry": {**_default_geometry_dict(), "nx": 45.0}})
        assert (cfg.threads, cfg.seed, cfg.sn_order, cfg.n_range,
                cfg.tolerances.max_outer, cfg.geometry.nx) \
            == (2, 3, 4, (1, 6), 1000, 45)
        assert all(type(v) is int for v in (
            cfg.threads, cfg.sn_order, *cfg.n_range,
            cfg.tolerances.max_outer, cfg.geometry.nx))

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

    def test_info_output_loads_back_as_the_same_config(self, tmp_path,
                                                       capsys):
        # model_for_truth was not printed, so "diffusion" came back as
        # "transport".
        path = self._config_file(tmp_path)
        config = json.loads(path.read_text())
        path.write_text(json.dumps({
            **config, "model_for_truth": "diffusion", "scheme": "diamond",
            "tolerances": {"k_tol": 1e-9, "flux_tol": 1e-8, "max_outer": 50},
            "seed": 5, "threads": 2}))
        assert cli.main(["info", "--config", str(path)]) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)["model_for_truth"] == "diffusion"
        again = tmp_path / "again.json"
        again.write_text(printed)
        assert cli.main(["info", "--config", str(again)]) == 0
        assert capsys.readouterr().out == printed

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

    @pytest.mark.parametrize("option", [["--seeds", "0"], ["--eps", ""],
                                        ["--eps", "nan"], ["--eps", "0,inf"]])
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

    @pytest.mark.parametrize("name", ["config.json", "xs.json"])
    def test_non_object_file_fails_info(self, tmp_path, capsys, name):
        # A config, or the cross-section file it names, holding [1]
        # printed {"error": "AttributeError", ...}.
        path = self._config_file(tmp_path)
        config = json.loads(path.read_text())
        path.write_text(json.dumps({**config, "cross_sections": "xs.json"}))
        (tmp_path / "xs.json").write_text(
            json.dumps(default_cross_sections().to_dict()))
        (tmp_path / name).write_text("[1]")
        assert cli.main(["info", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigurationError"
        assert "top level must be an object, got [1]" in err["message"]

    @pytest.mark.parametrize("section, key, value, message", [
        ("tolerances", "k_tol", -1,
         "tolerances.k_tol must be finite and > 0, got -1.0"),
        ("geometry", "nx", 1, "geometry nx must be >= 2, got 1")])
    def test_out_of_range_field_fails_info(self, tmp_path, capsys, section,
                                           key, value, message):
        path = self._config_file(tmp_path)
        config = json.loads(path.read_text())
        config.setdefault(section, {})[key] = value
        path.write_text(json.dumps(config))
        assert cli.main(["info", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ConfigurationError",
                                            "message": message}

    def test_zero_threads_fails_info(self, capsys):
        assert cli.main(["info", "--threads", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigurationError"
        assert "threads" in err["message"]

    def test_out_override(self, tmp_path, capsys):
        rc = cli.main(["snapshots", "--model", "diffusion", "--set", "test",
                       "--config", str(self._config_file(tmp_path)),
                       "--out", str(tmp_path / "elsewhere")])
        assert rc == 0
        assert (tmp_path / "elsewhere" / "snapshots" / "diffusion_test"
                / "manifest.json").exists()
