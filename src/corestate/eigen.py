"""Two-group power iteration on the fission source, shared by the
diffusion and transport eigensolvers.

Both solvers seek the fundamental pair (k_eff, phi) of

    L_g phi_g = (chi_g / k) (nuSf1 phi1 + nuSf2 phi2) + S_g phi_g'

for g = 1, 2 (g' the other group, S_g the in-scatter from it) and differ
only in how one group's equation L_g phi_g = q is solved for a frozen
source q.  The iteration starts from a flat flux, or from the eigenpair
of a nearby problem (a warm start), keeps the fission integral at one,
and updates k by that integral's ratio after each outer step.  Within
an outer step the groups are solved once each, Gauss-Seidel style:
group 1, whose upscatter source comes from the outer's starting iterate,
then group 2 from the new group 1, so the outer iteration converges the
upscatter coupling along with everything else.  A group
solver that iterates may stop its inner iteration at `INNER_TOL_FACTOR`
times the last outer flux change: early outers then cost a sweep or
two, and the inner tolerance tightens as the outer iteration converges.
Transport's source iteration holds its estimated error, not just its
last change, to this tolerance.

The outer iteration contracts at a near-constant ratio (0.22 per outer
in diffusion, 0.27 in transport on the default problem), so each
unconverged outer is Anderson-mixed (type II of depth 2, Walker & Ni
2011): the two groups' normalized fluxes, stacked into one vector x,
are mapped to G(x) by the outer step, and the next iterate is G(x)
corrected by the least-squares fit of the last two differences of the
residual f = G(x) - x (`_Anderson`).  Depth 2 takes default cold
solves from 11-14 to 8-11 outers; depth 1 left some diffusion
certificates near 2e-8 and depth 3 saved no more outers.  Each G(x)
has fission integral one, so the mixed iterate keeps it.  The
convergence test, |dk|, the inner tolerance and every returned
solution use the unmixed G(x), so a solution's scalar flux is the one
its group solvers left (transport's angular flux is not mixed).

Both solvers certify an eigenpair the same way (`certificate`): one
more outer step from it with k frozen, each group solved through the
solver's own group solve at its tightest inner tolerance.  The
certificate is of the order of the outer changes a solve still had to
make, so one stopped early scores well above its tolerances.

Both solvers keep their group factorizations across solves in
`cached_factors`.  Problems that differ only in a per-group scaling of
their fission production share their `Operators` and start from the
Rayleigh-Ritz pair of each other's solutions (`FissionSpan`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dgeev

from .errors import (ConfigurationError, DegenerateProblemError,
                     IterationLimitError, config_int, config_number,
                     config_object)

#: Inner tolerance handed to `solve_group`, relative to the last outer
#: flux change: transport's source iteration stops once its estimated
#: error falls below it.  0.03 takes cold default transport solves from
#: 27-29 sweeps at 0.01 to 22-24, in the same 10-11 outers.  Over both
#: default lattices (275 points, warm from the parent, against tol/1000
#: solves) it leaves |dk| <= 4.7e-9, observations <= 3.5e-8 relative
#: and certificates <= 3.0e-8 (at 0.01: 2.6e-9, 2.9e-8, 2.9e-8).  The
#: thick-cell problem of the tests, plain source iteration at rho ~ 0.99,
#: certifies at 1.7e-9 (0.01: 5.5e-10, 0.1: 8.7e-9) and fails at 0.3
#: (1.2e-7 > flux_tol).
INNER_TOL_FACTOR = 0.03


@dataclass(frozen=True)
class ToleranceConfig:
    """Outer-iteration tolerances of both eigensolvers."""

    k_tol: float = 1e-8
    flux_tol: float = 1e-7
    max_outer: int = 2000

    def __post_init__(self):
        if not (0 < self.k_tol < math.inf and 0 < self.flux_tol < math.inf
                and self.max_outer >= 1):
            raise ConfigurationError("tolerances must be finite and positive")

    @staticmethod
    def from_dict(d: dict) -> "ToleranceConfig":
        d = config_object(d, ("k_tol", "flux_tol", "max_outer"), "tolerances")
        return ToleranceConfig(
            k_tol=config_number(d.get("k_tol", 1e-8), "tolerances.k_tol"),
            flux_tol=config_number(d.get("flux_tol", 1e-7),
                                   "tolerances.flux_tol"),
            max_outer=config_int(d.get("max_outer", 2000), "max_outer"))

    def to_dict(self) -> dict:
        return {"k_tol": self.k_tol, "flux_tol": self.flux_tol,
                "max_outer": self.max_outer}


#: The factor set last built per (kind, group), with its key.  It is
#: process-wide, so successive solves reuse it without being handed it;
#: a hit gives the same bits as a rebuild, so no caller sees another's
#: entries in its results, and each pool worker keeps its own.
_FACTOR_SETS: dict = {}


def cached_factors(kind: str, group: int, key, build: Callable):
    """`build()`, or the last value for (kind, group) when that was
    built for an equal `key`, which must hold the exact bytes of
    everything `build` reads, so a hit is bit-identical to a rebuild.
    One set per (kind, group) catches the reuse of the lattice order, in
    which consecutive blocks share one group's operators.  On a miss the
    old set is dropped before `build` runs, so no more factors are alive
    than one problem needs."""
    slot = (kind, group)
    if slot in _FACTOR_SETS:
        if _FACTOR_SETS[slot][0] == key:
            return _FACTOR_SETS[slot][1]
        del _FACTOR_SETS[slot]
    value = build()
    _FACTOR_SETS[slot] = (key, value)
    return value


class Operators(NamedTuple):
    """A problem's unscaled fission production, spectrum and in-scatter,
    C-ordered (2, ...) cell arrays as `power_iteration` takes them, its
    kappaSf as (2, n_cells) in natural cell order, as the power map reads
    it, and what its solver reads besides.  Problems that differ only in
    a per-group scaling of nuSf share them, each at its `fission_scale`,
    and share the facts `power_iteration` checks, found once by `of`:
    per group, whether any cell is fissile, and whether group 1 has any
    upscatter."""

    nu_sigma_f: np.ndarray
    chi: np.ndarray
    inscatter: np.ndarray
    kappa_sigma_f: np.ndarray
    solver: tuple
    fissile: tuple
    upscatter: bool
    fission_scale: tuple = (1.0, 1.0)

    @classmethod
    def of(cls, nu_sigma_f, chi, inscatter, kappa_sigma_f, solver
           ) -> "Operators":
        """The operators of these arrays, with their facts."""
        return cls(nu_sigma_f, chi, inscatter, kappa_sigma_f, solver,
                   tuple(bool((nu > 0).any()) for nu in nu_sigma_f),
                   bool((inscatter[0] > 0).any()))

    def nusf(self) -> np.ndarray:
        return self.nu_sigma_f * np.reshape(self.fission_scale, (2, 1, 1))


class _Anderson:
    """Type-II Anderson mixing of depth 2 (Walker & Ni 2011) of vectors
    of `size`, called once per step.  It keeps the last step and
    residual, the last two differences of each, and the residual
    differences' squared norms, so a call forms only the new
    differences and their dot products, and solves the 2 x 2 normal
    equations of the fit in closed form.  The differences are allocated
    at the first mixing step, so a solve that passes its first outer
    allocates none."""

    def __init__(self, size: int):
        self.size = size
        self.last = None  # copies of the previous (G(x), f)
        self.dg = self.df = None  # (2, size) each, from the first mix
        self.norms = [0.0, 0.0]  # df[i] @ df[i]
        self.held = 0  # differences held
        self.slot = 0  # the row the next difference overwrites

    def __call__(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The type-II Anderson iterate g - dG gamma of the step g = G(x)
        and its residual f = g - x, where gamma solves the normal
        equations (dF^T dF) gamma = dF^T f of the last one or two
        residual differences dF; g itself while no difference is held or
        when the fit is singular or not finite."""
        if self.last is None:
            self.last = (g.copy(), f.copy())
            return g
        if self.dg is None:
            self.dg, self.df = np.zeros((2, 2, self.size))
        j, o = self.slot, 1 - self.slot
        g_old, f_old = self.last
        np.subtract(g, g_old, out=self.dg[j])
        np.subtract(f, f_old, out=self.df[j])
        np.copyto(g_old, g)
        np.copyto(f_old, f)
        self.slot, self.held = o, min(self.held + 1, 2)
        cross = (self.df @ self.df[j]).tolist()  # [df0 . df_j, df1 . df_j]
        rhs = (self.df @ f).tolist()
        a, b, c = cross[j], cross[o], self.norms[o]
        self.norms[j] = a
        gamma = [0.0, 0.0]
        if self.held == 1:
            if a == 0.0:
                return g
            gamma[j] = rhs[j] / a
        else:
            det = a * c - b * b
            if det == 0.0:
                return g
            gamma[j] = (c * rhs[j] - b * rhs[o]) / det
            gamma[o] = (a * rhs[o] - b * rhs[j]) / det
        if not (math.isfinite(gamma[0]) and math.isfinite(gamma[1])):
            return g
        return g - np.array(gamma) @ self.dg


def power_iteration(solve_group: Callable, ops: Operators,
                    nusf: np.ndarray, tol: ToleranceConfig, label: str,
                    make_solution: Callable, volume: float = 1.0,
                    rescale: Callable | None = None, start=None):
    """Return `make_solution(k_eff, phi, iterations)` of the converged
    iterate; an `IterationLimitError` carries the same for the last
    iterate.

    `solve_group(g, q, phi_g, inner_tol)` returns group g's flux for the
    frozen source `q` (fission plus in-scatter), starting from its
    current flux `phi_g`; an iterative solver may stop once its error
    relative to the flux falls below `inner_tol` (infinite on the first
    outer step).  `q` and `phi_g` are the driver's buffers, valid only
    during the call.  An `IterationLimitError` it raises without a last
    iterate leaves here with the current one attached.  `nusf` is the
    fission production the solve multiplies the fluxes by, `ops.nusf()`
    or a multiple of it; `ops` gives the spectrum and the in-scatter,
    C-ordered (2, ...) cell arrays whose cell shape `nusf`, the fluxes
    and the sources handed around take too (`inscatter[g]` is the
    scatter into g from the other group), and the facts prepared with
    them: `DegenerateProblemError` is raised when no cell is fissile at
    `ops.fission_scale`, and group 1 gets an in-scatter source only
    when there is upscatter.  The fission integral is the cell sum
    times `volume`.  `rescale(factor)` runs whenever the fluxes are
    scaled, so a solver can scale state of its own along with them.
    `start = (k, phi)` replaces the flat start with the eigenpair of a
    nearby problem; phi is renormalized first.

    Unconverged outers are Anderson-mixed (see the module docstring);
    nothing this returns or raises carries a mixed iterate except the
    current one of a failing group solve.
    """
    if not any(fissile and scale > 0 for fissile, scale in zip(
            ops.fissile, ops.fission_scale)):  # nuSf is never negative
        raise DegenerateProblemError("no fissile cell: not an eigenproblem")
    upscatter, chi, inscatter = ops.upscatter, ops.chi, ops.inscatter
    shape = nusf.shape[1:]
    nusf, chi, inscatter = (a.reshape(2, -1) for a in (nusf, chi, inscatter))
    n = nusf.shape[1]
    nusf_all = nusf.ravel()

    def normalize(phi, message):
        """Scale the stacked fluxes `phi` in place to fission integral
        one; return the integral they had."""
        fint = float(nusf_all @ phi.ravel()) * volume
        if fint <= 0:
            raise DegenerateProblemError(message)
        phi /= fint
        if rescale is not None:
            rescale(1.0 / fint)
        return fint

    x = np.empty((2, n))  # the iterate an outer starts from
    if start is None:
        k = 1.0
        x.fill(1.0)
    else:
        k = float(start[0])
        x[0], x[1] = (np.ravel(p) for p in start[1])
    normalize(x, "initial fission source vanished")
    # The outer step G(x) and its residual G(x) - x, stacked so that one
    # max-abs pass gives both groups' flux changes.
    work, magnitude = np.empty((4, n)), np.empty((4, n))
    step, residual = work[:2], work[2:]
    phi = [step[0].reshape(shape), step[1].reshape(shape)]
    fission, q, scatter = np.empty(n), np.empty(n), np.empty(n)
    q_view = q.reshape(shape)
    mix = _Anderson(2 * n)
    flux_change = np.inf
    for it in range(1, tol.max_outer + 1):
        np.einsum("gi,gi->i", nusf, x, out=fission)
        fission /= k
        np.copyto(step, x)
        inner_tol = INNER_TOL_FACTOR * flux_change
        for g in range(2):
            np.multiply(chi[g], fission, out=q)
            if g or upscatter:
                np.multiply(inscatter[g], step[1 - g], out=scatter)
                q += scatter
            try:
                phi[g][...] = solve_group(g, q_view, phi[g], inner_tol)
            except IterationLimitError as exc:
                if exc.last_solution is None:
                    exc.last_solution = make_solution(k, phi, it)
                raise

        fint = normalize(step, "fission source vanished")
        k_new = k * fint
        np.subtract(step, x, out=residual)
        top = np.abs(work, out=magnitude).max(axis=1).tolist()
        flux_change = max(top[2] / max(top[0], 1e-300),
                          top[3] / max(top[1], 1e-300))
        dk = abs(k_new - k)
        k = k_new
        if dk < tol.k_tol and flux_change < tol.flux_tol:
            return make_solution(k, phi, it)
        np.copyto(x.reshape(-1), mix(step.reshape(-1), residual.reshape(-1)))
    raise IterationLimitError(
        f"{label} eigensolve: no convergence in {tol.max_outer} "
        f"outer iterations (|dk| = {dk:.3e})",
        last_solution=make_solution(k, phi, tol.max_outer))


def certificate(solve_group: Callable, nusf: Sequence[np.ndarray],
                chi: Sequence[np.ndarray], inscatter: Sequence[np.ndarray],
                k: float, phi: Sequence[np.ndarray]) -> float:
    """Convergence certificate of the eigenpair (k, phi): one Gauss-Seidel
    outer step from the group fluxes `phi` with k frozen, each group
    solved by `solve_group` (as in `power_iteration`) at inner tolerance
    zero, its tightest.  Returns the larger of |ratio - 1|, ratio being
    the new fission integral over the old, and the largest change of the
    fission source (the new one scaled to the old integral, over the old
    one's maximum).  `nusf`, `chi`, `inscatter` and `phi` are per-cell
    arrays of one shape."""
    phi = list(phi)
    fission = nusf[0] * phi[0] + nusf[1] * phi[1]
    for g in range(2):
        q = chi[g] * fission / k + inscatter[g] * phi[1 - g]
        phi[g] = solve_group(g, q, phi[g], 0.0)
    new = nusf[0] * phi[0] + nusf[1] * phi[1]
    ratio = float(new.sum() / fission.sum())
    source_change = float(np.max(np.abs(new / ratio - fission))
                          / np.max(np.abs(fission)))
    return max(source_change, abs(ratio - 1.0))


def check_production(nusf: np.ndarray, phi: Sequence[np.ndarray],
                     volume: float, fission_scale):
    """Raise `ConfigurationError` unless `nusf`, formed from the cross
    sections a certificate was handed at `fission_scale`, can be the
    production of the solve that left the fluxes `phi`: every iterate
    `power_iteration` returns has fission integral one under its own.
    A solution at scale (1, 1) is certified on the cross sections
    given, as always.  One at another scale was solved on shared
    `Operators`; handed a point's own cross sections, already scaled,
    in place of those the operators were prepared from, it is refused,
    as is the unnormalized current iterate of a failing group solve."""
    if tuple(fission_scale) == (1.0, 1.0):
        return
    fint = float(sum((p * f).sum() for p, f in zip(nusf, phi))) * volume
    if not abs(fint - 1.0) <= 1e-9:
        raise ConfigurationError(
            "eigen_residual: the cross sections given are not those of a "
            f"solve at fission_scale {tuple(fission_scale)}: its fluxes "
            f"have fission integral {fint:.9g} under them, not 1 (give the "
            "cross sections its operators were prepared from)")


class FissionSpan:
    """Rayleigh-Ritz starts (Saad 2011, ch. 4) for eigenproblems that
    differ only in a per-group scaling s of their fission production,
    s_g nuSf_g.

    Such problems share the map L^-1 chi from a fission source to the
    fluxes it drives, so a solved eigenpair (k_i, phi_i), whose fission
    source is F_i = sum_g s_i,g nuSf_g phi_i,g, gives that map on F_i:
    L^-1 chi F_i = k_i phi_i.  Another problem p, whose eigenpair is
    the dominant one of its fission-source operator M_p = (s_p nuSf)
    L^-1 chi, therefore has M_p F_i = k_i sum_g s_p,g nuSf_g phi_i,g at
    no cost.

    `add` keeps an orthonormal basis Q of span{F_i}, grown by one
    vector per solution whose F_i leaves the span by more than
    `rank_tol` relative to its norm, and `ritz` takes the largest Ritz
    pair (theta, y) of H = Q^T M_p Q.  Q is held as `t` @ F of the
    spanning solutions (`t` upper triangular), so the Ritz vector Q y
    is sum_i c_i F_i with c = t^T y, and the start it gives is
    sum_i c_i k_i phi_i / theta with k = theta.  A span holding an exact
    eigenvector of M_p, such as the solution of a problem whose s is a
    multiple of p's, gives that eigenpair back.  The products of Q with
    each solution's group productions nuSf_g phi_i,g are kept, so a
    Ritz pair costs only operations on matrices of the span's size.
    `nusf` and the fluxes are (2, n) arrays, group first; the spanning
    solutions' fluxes are stacked in `phi`, (count, 2, n)."""

    def __init__(self, nusf: np.ndarray, rank_tol: float):
        self.nusf, self.rank_tol = nusf, rank_tol
        n = nusf.shape[1]
        self.k = np.empty(0)
        self.phi = np.empty((0, 2, n))
        self.production = np.empty((0, 2, n))  # nusf_g phi_i,g
        self.q = np.empty((0, n))  # orthonormal rows
        self.t = np.empty((0, 0))  # q = t @ (F of the spanning solutions)
        self.tk = self.t  # t_ji k_i
        # q_l . nusf_g phi_i,g, and the cell sums of q_l and of the
        # group productions.
        self.q_production = np.empty((0, 0, 2))
        self.q_sums = np.empty(0)
        self.production_sums = np.empty((0, 2))

    def __len__(self) -> int:
        return len(self.k)

    def add(self, k: float, phi: np.ndarray, scale) -> bool:
        """Add the solution (k, phi) of the problem with group scaling
        `scale` when its fission source leaves the span by more than
        `rank_tol` (classical Gram-Schmidt, the new basis vector
        orthogonalized twice); return whether it was added."""
        production = self.nusf * phi
        f = scale[0] * production[0] + scale[1] * production[1]
        h = self.q @ f
        w = f - h @ self.q
        if not w @ w > self.rank_tol**2 * (f @ f):
            return False
        step = self.q @ w
        w -= step @ self.q
        h += step
        rest = math.sqrt(w @ w)
        m = len(self)
        t = np.zeros((m + 1, m + 1))
        t[:m, :m] = self.t
        t[m, :m] = -(h @ self.t) / rest
        t[m, m] = 1.0 / rest
        self.t = t
        self.q = np.concatenate([self.q, w[None] / rest])
        self.k = np.append(self.k, k)
        self.tk = t * self.k
        self.phi = np.concatenate([self.phi, phi[None]])
        self.production = np.concatenate([self.production, production[None]])
        self.q_production = (self.q @ self.production.reshape(
            2 * (m + 1), -1).T).reshape(m + 1, m + 1, 2)
        self.q_sums = self.q.sum(axis=1)
        self.production_sums = self.production.sum(axis=2)
        return True

    def ritz(self, scale):
        """(theta, weights) of the problem with group scaling `scale`:
        its start is k = theta, phi = weights @ `phi`.  None when the
        span is empty, when theta is not real, finite and positive, or
        when the start's fission integral is not positive; the Ritz
        vector's sign is taken to give its fission source a positive
        cell sum."""
        if not len(self):
            return None
        h = (self.q_production @ scale) @ self.tk.T  # Q^T M_p Q
        if not np.isfinite(h).all():
            return None
        real, imag, _, vectors, info = dgeev(h, compute_vl=0)
        j = int(np.argmax(real))
        theta = float(real[j])
        if info or imag[j] != 0 or not 0 < theta < math.inf:
            return None
        y = vectors[:, j]
        if y @ self.q_sums < 0:
            y = -y
        weights = (y @ self.tk) / theta
        if not (weights @ self.production_sums) @ scale > 0:
            return None
        return theta, weights
