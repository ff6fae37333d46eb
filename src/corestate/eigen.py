"""Two-group power iteration on the fission source, shared by the
diffusion and transport eigensolvers.

Both solvers seek the fundamental pair (k_eff, phi) of

    L_g phi_g = (chi_g / k) (nuSf1 phi1 + nuSf2 phi2) + S_g phi_g'

for g = 1, 2 (g' the other group, S_g the in-scatter from it) and differ
only in how one group's equation L_g phi_g = q is solved for a frozen
source q.  The iteration starts from a flat flux, or from the eigenpair
of a nearby problem (a warm start), keeps the fission integral at one,
and updates k by that integral's ratio after each outer step.  Within
an outer step the groups are solved Gauss-Seidel style, group 1 then
group 2, repeating the pass only when upscatter couples them.  A group
solver that iterates may stop its inner iteration at `INNER_TOL_FACTOR`
times the last outer flux change: early outers then cost a sweep or
two, and the inner tolerance tightens as the outer iteration converges.
Transport's source iteration holds its estimated error, not just its
last change, to this tolerance.
Exhausting the outer budget, the group-pass cap or a group solver's own
cap raises `IterationLimitError` carrying the last iterate.
Both solvers keep their group factorizations across solves in
`cached_factors`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigurationError, DegenerateProblemError,
                     IterationLimitError)

#: Most Gauss-Seidel passes over the two groups in one outer step.
MAX_GROUP_PASSES = 200

#: Inner tolerance handed to `solve_group`, relative to the last outer
#: flux change: transport's source iteration stops once its estimated
#: error falls below it.  The value was set for a stop on the last
#: change, where 0.1 let the k_eff of some default-lattice points drift
#: by 3e-8 from a tol/100 solve, past k_tol; with the error estimate,
#: 0.1 has been checked on single solves only.
INNER_TOL_FACTOR = 0.01


@dataclass(frozen=True)
class ToleranceConfig:
    """Outer-iteration tolerances of both eigensolvers."""

    k_tol: float = 1e-8
    flux_tol: float = 1e-7
    max_outer: int = 2000

    def __post_init__(self):
        if self.k_tol <= 0 or self.flux_tol <= 0 or self.max_outer < 1:
            raise ConfigurationError("tolerances must be positive")

    @staticmethod
    def from_dict(d: dict) -> "ToleranceConfig":
        return ToleranceConfig(
            k_tol=float(d.get("k_tol", 1e-8)),
            flux_tol=float(d.get("flux_tol", 1e-7)),
            max_outer=int(d.get("max_outer", 2000)))

    def to_dict(self) -> dict:
        return {"k_tol": self.k_tol, "flux_tol": self.flux_tol,
                "max_outer": self.max_outer}


def save_solution(directory, fluxes, k_eff, iterations):
    """Write group fluxes as CSV plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for g, flux in enumerate(fluxes, start=1):
        flux.save(directory / f"flux_g{g}.csv")
    mesh = fluxes[0].mesh
    manifest = {"k_eff": k_eff, "iterations": iterations,
                "nx": mesh.nx, "ny": mesh.ny,
                "extent_x": mesh.extent_x, "extent_y": mesh.extent_y}
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


#: The factor set last built per (kind, group), with its key.  It is
#: process-wide, so successive solves reuse it without being handed it;
#: a hit gives the same bits as a rebuild, so no caller sees another's
#: entries in its results, and each pool worker keeps its own.
_FACTOR_SETS: dict = {}


def cached_factors(kind: str, group: int, key, build: Callable,
                   on_drop: Callable | None = None):
    """`build()`, or what it returned last time for (kind, group) when
    that was built for an equal `key`, which must hold the exact bytes
    of everything `build` reads, so a hit is bit-identical to a rebuild.
    One set per (kind, group) catches the reuse of the lattice order, in
    which runs of consecutive points share their cross sections.  On a
    miss the old set is dropped, and `on_drop()` called, before `build`
    runs, so no more factors are alive than one solve needs."""
    slot = (kind, group)
    if slot in _FACTOR_SETS:
        if _FACTOR_SETS[slot][0] == key:
            return _FACTOR_SETS[slot][1]
        del _FACTOR_SETS[slot]
        if on_drop is not None:
            on_drop()
    value = build()
    _FACTOR_SETS[slot] = (key, value)
    return value


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.max(np.abs(new - old))
                 / max(float(np.max(np.abs(new))), 1e-300))


def power_iteration(solve_group: Callable, nusf: Sequence[np.ndarray],
                    chi: Sequence[np.ndarray],
                    inscatter: Sequence[np.ndarray], tol: ToleranceConfig,
                    label: str, make_solution: Callable, volume: float = 1.0,
                    rescale: Callable | None = None, start=None):
    """Return `make_solution(k_eff, phi, iterations, residual)` of the
    converged iterate, `residual` being the last |dk|; an
    `IterationLimitError` carries the same for the last iterate.

    `solve_group(g, q, phi_g, inner_tol)` returns group g's flux for the
    frozen source `q` (fission plus in-scatter), starting from its
    current flux `phi_g`; an iterative solver may stop once its error
    relative to the flux falls below `inner_tol` (infinite on the first
    outer step).
    An `IterationLimitError` it raises without a last iterate leaves
    here with the current one attached.  `nusf`, `chi` and `inscatter`
    are per-cell arrays shaped like the fluxes; `inscatter[g]` is the
    scatter into g from the other group.  The fission integral is the
    cell sum times `volume`.  `rescale(factor)` runs whenever the
    fluxes are scaled, so a solver can scale state of its own along
    with them.  `start = (k, phi)` replaces the flat start with the
    eigenpair of a nearby problem; phi is renormalized first.
    """
    if not any((f > 0).any() for f in nusf):
        raise DegenerateProblemError("no fissile cell: not an eigenproblem")
    upscatter = bool((inscatter[0] > 0).any())
    group_tol = max(0.01 * tol.flux_tol, 1e-13)

    def normalize(phi, message):
        fint = float((nusf[0] * phi[0] + nusf[1] * phi[1]).sum() * volume)
        if fint <= 0:
            raise DegenerateProblemError(message)
        if rescale is not None:
            rescale(1.0 / fint)
        return [p / fint for p in phi], fint

    k, phi = (1.0, [np.ones_like(f) for f in nusf]) if start is None \
        else (float(start[0]), list(start[1]))
    phi, _ = normalize(phi, "initial fission source vanished")
    dk = flux_change = np.inf
    for it in range(1, tol.max_outer + 1):
        fission = nusf[0] * phi[0] + nusf[1] * phi[1]
        phi_old = list(phi)
        inner_tol = INNER_TOL_FACTOR * flux_change
        for _ in range(MAX_GROUP_PASSES):
            phi_before = phi[1]
            for g in range(2):
                q = chi[g] * fission / k + inscatter[g] * phi[1 - g]
                try:
                    phi[g] = solve_group(g, q, phi[g], inner_tol)
                except IterationLimitError as exc:
                    if exc.last_solution is None:
                        exc.last_solution = make_solution(k, phi, it, dk)
                    raise
            if not upscatter:
                break
            change = _relative_change(phi[1], phi_before)
            if change < group_tol:
                break
        else:
            raise IterationLimitError(
                f"{label} eigensolve: group iteration reached "
                f"MAX_GROUP_PASSES = {MAX_GROUP_PASSES} passes in outer "
                f"{it} (change = {change:.3e})",
                last_solution=make_solution(k, phi, it, dk))

        phi, fint = normalize(phi, "fission source vanished")
        k_new = k * fint
        flux_change = max(_relative_change(phi[g], phi_old[g])
                          for g in range(2))
        dk = abs(k_new - k)
        k = k_new
        if dk < tol.k_tol and flux_change < tol.flux_tol:
            return make_solution(k, phi, it, dk)
    raise IterationLimitError(
        f"{label} eigensolve: no convergence in {tol.max_outer} "
        f"outer iterations (|dk| = {dk:.3e})",
        last_solution=make_solution(k, phi, tol.max_outer, dk))
