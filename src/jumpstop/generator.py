"""Discrete generator: local diffusion part plus the nonlocal jump part.

The jump integral is discretized in three zones:

* **core** ``|y| <= y_core = 2h``: small jumps in second-difference form,
  integrated over dyadic panels in the jump size and a weighted quadrature
  in the chord variable.  Every read lands within two grid steps, so the
  whole zone collapses to a 5-point stencil acting on the discrete second
  derivative, plus an exact Taylor floor for the mass below the last
  panel.
* **band** ``(y_core, 1]``: each cell of the jump axis (cut at the
  half-nodes ``(k + 1/2) h`` and at 1, so at most one grid step wide) is
  lumped onto the two bracketing grid shifts with nonnegative weights
  that preserve the cell's mass and mean exactly; the band is
  compensated by the summed cell means (summed exactly, so a symmetric
  measure's is 0) times a centered first difference.
* **tail** ``(1, R]``: same lumping, uncompensated; ``R`` is chosen so
  the ignored outer mass is below :data:`_RADIUS_TOL`.

Because lumping preserves cell means exactly, the compensator cancels
linear functions to rounding.  In the ``"accurate"`` profile each cell
also carries a second-moment correction (a small coefficient on the
discrete second derivative at the cell centroid), making the operator
exact on quadratics up to quadrature tolerance.  The ``"monotone"``
profile drops the corrections so that every off-diagonal weight is
nonnegative; the time stepper uses it to preserve comparison.

The operator depends on the model and the grid alone.

Applied to a grid function, the operator is split by linearity.  The
long kernels read the ``nx + 1`` grid values through a Toeplitz block
(:func:`_toeplitz`, built lazily once per operator).  The far field
past the grid (:class:`~jumpstop.grids.PayoffGhosts`: the payoff, which
the march and the residual never change, times a per-side discount)
enters through :func:`ghost_term`: one precomputed vector per side
(:func:`ghost_terms`), scaled by that side's discount.  The short
stencils -- the centered slope and the core stencil on second
differences -- still read a :data:`NEAR_GHOSTS`-node extension.
:func:`apply_nonlocal_ext` is the reference form on any pre-extended
slice.

The time stepper treats the core implicitly, next to the diffusion: it
reads the core stencil on the grid values (:func:`core_band`, seven
shifts) and its reads of the near ghosts as the ``"core"`` part of
:func:`ghost_term`, and leaves the core out of its explicit
:func:`apply_nonlocal_grid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import levy
from .errors import ParameterError
from .grids import CoefficientField, GridFunction, SpaceTimeGrid
from .levy import LevyModel

__all__ = [
    "NonlocalOperator",
    "build_operator",
    "apply_local",
    "local_form",
    "apply_nonlocal",
    "apply_nonlocal_ext",
    "apply_nonlocal_grid",
    "ghost_terms",
    "ghost_term",
    "core_band",
    "NEAR_GHOSTS",
    "operator_summary",
]

_GL12_NODES, _GL12_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)

_CORE_PANELS = 40
# jump-tail mass allowed outside the truncation radius
_RADIUS_TOL = 1e-12

#: Ghost nodes per side that the short stencils read: the core stencil
#: reaches two nodes past the grid, and a second difference one more.
NEAR_GHOSTS = 3


@dataclass(eq=False)
class NonlocalOperator:
    """Precomputed discrete jump operator on a fixed grid."""

    model: LevyModel
    h: float
    n_base: int
    y_core: float
    radius: float
    n_ext: int
    cell_mass: np.ndarray      # per cell, both sides concatenated
    # dense kernels (index 0 <-> shift k_min)
    k_min: int
    far_kernel: np.ndarray
    corr_kernel: np.ndarray
    core_stencil: np.ndarray   # shifts -2..2, acts on discrete 2nd derivative
    # scalars
    far_mass: float
    compensator: float
    core_var: float
    fv_core: float | None
    # grid blocks of the long kernels, built on first use
    blocks: dict = field(default_factory=dict, repr=False)

    @property
    def d2_kernel_accurate(self) -> np.ndarray:
        k2 = self.corr_kernel.copy()
        k2[-2 - self.k_min: 3 - self.k_min] += self.core_stencil
        return k2


def build_operator(model: LevyModel, grid: SpaceTimeGrid) -> NonlocalOperator:
    """Assemble the discrete jump operator for ``model`` on ``grid``."""
    h = grid.h
    n_base = grid.nx + 1
    y_core = 2.0 * h
    if model.is_trivial:
        return _trivial_operator(model, h, n_base, y_core)

    radius = levy.truncation_radius(model, tol=_RADIUS_TOL)
    core_stencil, core_var = _core_stencil(model, h, y_core)

    edges = _cell_edges(h, y_core, radius)
    cells = _build_cells(model, edges) if edges is not None else None

    if cells is None:
        op = _trivial_operator(model, h, n_base, y_core)
        op.core_stencil = core_stencil
        op.core_var = core_var
        op.radius = radius
        op.fv_core = _fv_core(model, y_core)
        return op

    _, hi, m0, m1, m2 = cells
    centroid = m1 / m0
    s = centroid / h
    node = np.floor(s).astype(int)
    theta = s - node
    w_lo = m0 * (1.0 - theta)
    w_hi = m0 * theta
    spread = w_lo * (node * h - centroid) ** 2 + \
        w_hi * ((node + 1) * h - centroid) ** 2
    r2 = (m2 - m1 * m1 / m0) - spread
    compensated = hi <= 1.0 + 1e-12

    k_min = int(min(node.min(), -2))
    k_max = int(max(node.max() + 1, 2))
    size = k_max - k_min + 1
    far_kernel = _lump(size, k_min, node, w_lo, w_hi)
    corr_kernel = _lump(size, k_min, node, 0.5 * r2 * (1.0 - theta),
                        0.5 * r2 * theta)

    return NonlocalOperator(
        model=model, h=h, n_base=n_base, y_core=y_core, radius=radius,
        n_ext=max(abs(k_min), k_max) + 2,
        cell_mass=m0, k_min=k_min, far_kernel=far_kernel,
        corr_kernel=corr_kernel, core_stencil=core_stencil,
        far_mass=float(m0.sum()), compensator=math.fsum(m1[compensated]),
        core_var=core_var, fv_core=_fv_core(model, y_core),
    )


def _trivial_operator(model, h, n_base, y_core) -> NonlocalOperator:
    return NonlocalOperator(
        model=model, h=h, n_base=n_base, y_core=y_core, radius=0.0,
        n_ext=3, cell_mass=np.zeros(0), k_min=-2, far_kernel=np.zeros(5),
        corr_kernel=np.zeros(5), core_stencil=np.zeros(5), far_mass=0.0,
        compensator=0.0, core_var=0.0,
        fv_core=0.0 if model.finite_variation else None,
    )


def _fv_core(model: LevyModel, y_core: float) -> float | None:
    if not model.finite_variation:
        return None
    return levy.jump_moment(model, 1, 0.0, y_core)


def _cell_edges(h, y_core, radius):
    """Cell boundaries (magnitudes) covering (y_core, radius]: the
    half-nodes and 1, the edge of the compensated band."""
    if radius <= y_core * (1.0 + 1e-9):
        return None
    k0 = int(np.floor(y_core / h - 0.5)) + 1
    k1 = int(np.floor(radius / h - 0.5))
    half_nodes = (np.arange(k0, k1 + 1) + 0.5) * h
    half_nodes = half_nodes[(half_nodes > y_core) & (half_nodes < radius)]
    one = [1.0] if y_core * (1 + 1e-9) < 1.0 < radius * (1 - 1e-9) else []
    cand = np.concatenate([[y_core], half_nodes, one, [radius]])
    cand.sort()
    keep = np.concatenate([[True], np.diff(cand) > 1e-10 * h])
    return cand[keep]


def _build_cells(model, edges):
    """Mass, signed mean and raw second moment of every jump cell."""
    lo_m = edges[:-1]
    hi_m = edges[1:]
    mid = 0.5 * (lo_m + hi_m)
    half = 0.5 * (hi_m - lo_m)
    y_mag = mid[:, None] + half[:, None] * _GL16_NODES[None, :]
    out = []
    for sgn in (1.0, -1.0):
        dens = levy.density(model, sgn * y_mag)
        w = dens * half[:, None] * _GL16_WEIGHTS[None, :]
        m0 = w.sum(axis=1)
        m1 = (w * (sgn * y_mag)).sum(axis=1)
        m2 = (w * y_mag * y_mag).sum(axis=1)
        keep = m0 > 1e-300
        if np.any(keep):
            out.append((lo_m[keep], hi_m[keep], m0[keep], m1[keep],
                        m2[keep]))
    if not out:
        return None
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _core_stencil(model, h, y_core):
    """5-point stencil on the discrete 2nd derivative for ``|y| <= y_core``."""
    z = 0.5 * (_GL12_NODES + 1.0)
    wz = 0.5 * _GL12_WEIGHTS * (1.0 - z)
    stencil = np.zeros(5)
    ln2 = np.log(2.0)
    for sgn in (1.0, -1.0):
        for p in range(_CORE_PANELS):
            hi = y_core * 0.5 ** p
            u_mid = np.log(hi) - 0.5 * ln2
            y = np.exp(u_mid + 0.5 * ln2 * _GL12_NODES)
            wy = 0.5 * ln2 * _GL12_WEIGHTS * y * \
                levy.density(model, sgn * y) * y * y
            c = sgn * y[:, None] * z[None, :]
            coef = wy[:, None] * wz[None, :]
            s = c / h
            k = np.clip(np.floor(s).astype(int), -2, 1)
            theta = s - k
            np.add.at(stencil, k + 2, coef * (1.0 - theta))
            np.add.at(stencil, k + 3, coef * theta)
    floor_y = y_core * 0.5 ** _CORE_PANELS
    floor_var = levy.tails(model, floor_y).small_var
    stencil[2] += 0.5 * floor_var
    core_var = 2.0 * float(stencil.sum())
    return stencil, core_var


# ---------------------------------------------------------------------------
# application


def _lump(size, k_min, node, w_lo, w_hi):
    """Kernel on the ``size`` shifts from ``k_min`` holding each cell's
    weights ``w_lo`` and ``w_hi`` on its shifts ``node`` and ``node + 1``."""
    kernel = np.zeros(size)
    np.add.at(kernel, node - k_min, w_lo)
    np.add.at(kernel, node + 1 - k_min, w_hi)
    return kernel


def _kernel_sum(x, kernel, start, n_base):
    """out[i] = sum_j kernel[j] * x[start + i + j] for ``i < n_base``: a
    first tap at shift ``k_min`` starts at ``n_ext + k_min`` on a slice
    with ``n_ext`` ghosts per side, one node earlier on its d2."""
    if kernel.size == 0 or not np.any(kernel):
        return np.zeros(n_base)
    return np.correlate(x, kernel, mode="valid")[start: start + n_base]


def apply_nonlocal(op: NonlocalOperator, gf: GridFunction,
                   profile: str = "accurate", n: int = 0) -> np.ndarray:
    """Full jump operator applied to slice ``n`` of ``gf`` on all nodes."""
    near = gf.extended(NEAR_GHOSTS, NEAR_GHOSTS, n)
    ghost = None if gf.ghosts is None else \
        ghost_term(op, gf.ghosts, profile, n * gf.grid.dt)
    return apply_nonlocal_grid(op, near, profile, ghost)


def apply_nonlocal_grid(op: NonlocalOperator, near: np.ndarray,
                        profile: str = "accurate",
                        ghost: np.ndarray | None = None,
                        core: bool = True) -> np.ndarray:
    """Jump operator from the grid values and a precomputed ghost term.

    ``near`` is the slice with :data:`NEAR_GHOSTS` ghosts per side, or a
    surface of such slices (space axis first, one level per column), and
    ``ghost`` the contribution of all ghosts beyond what the short
    stencils read (:func:`ghost_term`: a vector, or a row per level of
    a surface; ``None`` for zero ghosts).  Equals
    :func:`apply_nonlocal_ext` on the full extension up to rounding; a
    surface gives, column by column, exactly what each slice gives alone.
    With ``core=False`` no second differences are formed: in the monotone
    profile they are the core stencil alone, which the time stepper
    treats implicitly.
    """
    _check_profile(profile)
    nb, ng, h = op.n_base, NEAR_GHOSTS, op.h
    if near.shape[0] != nb + 2 * ng:
        raise ParameterError(
            f"near extension has {near.shape[0]} nodes, expected "
            f"{nb + 2 * ng}")
    base = near[ng: ng + nb]
    out = _per_level(_grid_block(op, "far"), base)
    if ghost is not None:
        out.T[...] += ghost
    out -= op.far_mass * base
    if op.compensator != 0.0:
        d1 = (near[ng + 1: ng + nb + 1] - near[ng - 1: ng + nb - 1]) / \
            (2.0 * h)
        out -= op.compensator * d1
    if not core:
        return out
    # second differences at positions -2 .. nx+2 (the core stencil's reach)
    d2 = (near[2:] - 2.0 * near[1:-1] + near[:-2]) / (h * h)
    if profile == "monotone":
        out += _per_level(
            lambda d: np.correlate(d, op.core_stencil, mode="valid"), d2)
    else:
        out += _per_level(_grid_block(op, "accurate"), d2)
    return out


def _per_level(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` on a contiguous slice, or on each column of a surface (into
    one Fortran-ordered result: cheaper than stacking a short column)."""
    if x.ndim == 1:
        return fn(np.ascontiguousarray(x))
    first = fn(np.ascontiguousarray(x[:, 0]))
    out = np.empty((first.size, x.shape[1]), order="F")
    out[:, 0] = first
    for k in range(1, x.shape[1]):
        out[:, k] = fn(np.ascontiguousarray(x[:, k]))
    return out


def ghost_terms(op: NonlocalOperator, ghosts,
                part: str = "accurate") -> tuple[np.ndarray, np.ndarray]:
    """Jump term of the left and of the right ghost values alone.

    ``ghosts`` is a :class:`~jumpstop.grids.PayoffGhosts`; the pair is
    computed once per operator and ``part`` and cached on it, undiscounted
    (:func:`ghost_term` scales and adds it).  For a profile, each side is
    the long kernels' reach into its ghosts: the far kernel over every
    ghost node, and the profile's second-difference kernel over the
    second differences that :func:`apply_nonlocal_grid` does not form.
    For ``"core"`` it is the implicit core's reads of the
    :data:`NEAR_GHOSTS` ghosts (:func:`core_band`).
    """
    if part != "core":
        _check_profile(part)
    key = (op, part)
    if key not in ghosts.terms:
        ne = NEAR_GHOSTS if part == "core" else op.n_ext
        left, right = ghosts.take(ne, ne)
        zeros = np.zeros(op.n_base + ne)
        ghosts.terms[key] = tuple(
            _ghost_reach(op, part, ext)
            for ext in (np.concatenate([left, zeros]),
                        np.concatenate([zeros, right])))
    return ghosts.terms[key]


def _ghost_reach(op: NonlocalOperator, part: str,
                 ext: np.ndarray) -> np.ndarray:
    """One side of :func:`ghost_terms`; ``ext`` is zero off its ghosts."""
    nb = op.n_base
    if part == "core":
        return _kernel_sum(ext, core_band(op), 0, nb)
    ne, h = op.n_ext, op.h
    term = _kernel_sum(ext, op.far_kernel, ne + op.k_min, nb)
    d2 = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / (h * h)
    d2[ne - NEAR_GHOSTS: ne + nb + NEAR_GHOSTS - 2] = 0.0
    k2, k2_min = _d2_kernel(op, part)
    term += _kernel_sum(d2, k2, ne - 1 + k2_min, nb)
    return term


def ghost_term(op: NonlocalOperator, ghosts, part: str, s):
    """Jump term of the far field at time to expiry ``s``: each side of
    :func:`ghost_terms` scaled by its :meth:`PayoffGhosts.discount
    <jumpstop.grids.PayoffGhosts.discount>`, then added.  For an array
    of levels ``s`` with a decaying far field, one row per level."""
    left, right = ghost_terms(op, ghosts, part)
    dl, dr = ghosts.discount(s)
    return np.multiply.outer(dl, left) + np.multiply.outer(dr, right)


def core_band(op: NonlocalOperator) -> np.ndarray:
    """The core stencil on the grid values: weights ``c_j`` of
    ``v[i + j]``, ``j = -3 .. 3``, with ``c_j = (s_{j-1} - 2 s_j +
    s_{j+1}) / h^2`` from the stencil ``s`` on second differences.  The
    weights sum to zero."""
    s = np.pad(op.core_stencil, 2)
    return (s[:-2] - 2.0 * s[1:-1] + s[2:]) / (op.h * op.h)


def _d2_kernel(op: NonlocalOperator, profile: str) -> tuple[np.ndarray, int]:
    """Second-difference kernel of ``profile`` and its first shift."""
    if profile == "accurate":
        return op.d2_kernel_accurate, op.k_min
    return op.core_stencil, -2


def _grid_block(op: NonlocalOperator, kind: str):
    """Grid block of the far kernel (on the grid values) or of the
    accurate second-difference kernel (on second differences at
    positions -2 .. nx+2); built once per operator."""
    if kind not in op.blocks:
        nb = op.n_base
        if kind == "far":
            op.blocks[kind] = _toeplitz(op.far_kernel, op.k_min, nb, nb, 0)
        else:
            op.blocks[kind] = _toeplitz(op.d2_kernel_accurate, op.k_min, nb,
                                        nb + 2 * NEAR_GHOSTS - 2,
                                        1 - NEAR_GHOSTS)
    return op.blocks[kind]


def _toeplitz(kernel, k_min, n_rows, n_cols, col0):
    """``x -> out`` with ``out[i] = sum_c kernel[c + col0 - i - k_min] x[c]``.

    The correlation of ``kernel`` with ``x`` (column ``c`` sits at
    position ``col0 + c``, row ``i`` at ``i``), reading zero past both
    ends of ``x``.  A dense ``n_rows x n_cols`` block when the kernel
    joins every row to every column, else a correlation of the
    zero-padded ``x`` with the taps that reach it.
    """
    lo = max(k_min, col0 - (n_rows - 1))
    hi = min(k_min + kernel.size - 1, col0 + n_cols - 1)
    taps = kernel[lo - k_min: max(hi - k_min + 1, 0)]
    if taps.size == 0 or not np.any(taps):
        return lambda x: np.zeros(n_rows)
    if n_cols <= taps.size:
        shift = (np.arange(n_cols)[None, :] + col0 - lo -
                 np.arange(n_rows)[:, None])
        inside = (shift >= 0) & (shift < taps.size)
        block = np.where(inside, taps[np.clip(shift, 0, taps.size - 1)],
                         0.0)
        return lambda x: block @ x
    # row i reads columns i + lo - col0 .. i + hi - col0
    start = lo - col0
    j0, c0 = max(0, -start), max(0, start)
    m = min(n_cols - c0, n_rows + taps.size - 1 - j0)

    def correlate(x):
        padded = np.zeros(n_rows + taps.size - 1)
        padded[j0: j0 + m] = x[c0: c0 + m]
        return np.correlate(padded, taps, mode="valid")
    return correlate


def apply_nonlocal_ext(op: NonlocalOperator, ext: np.ndarray,
                       profile: str = "accurate") -> np.ndarray:
    """Jump operator on a pre-extended slice (``n_ext`` ghosts per side)."""
    _check_profile(profile)
    ne = op.n_ext
    if ext.shape[0] != op.n_base + 2 * ne:
        raise ParameterError(
            f"extended slice has {ext.shape[0]} nodes, expected "
            f"{op.n_base + 2 * ne}")
    base = ext[ne: ne + op.n_base]
    d2 = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / (op.h * op.h)
    out = _kernel_sum(ext, op.far_kernel, ne + op.k_min, op.n_base)
    out -= op.far_mass * base
    if op.compensator != 0.0:
        d1 = (ext[ne + 1: ne + op.n_base + 1] -
              ext[ne - 1: ne + op.n_base - 1]) / (2.0 * op.h)
        out -= op.compensator * d1
    k2, k2_min = _d2_kernel(op, profile)
    out += _kernel_sum(d2, k2, ne - 1 + k2_min, op.n_base)
    return out


def apply_local(coeffs: CoefficientField, gf: GridFunction,
                t: float = 0.0, n: int = 0) -> np.ndarray:
    """Diffusion-plus-drift part ``a*u'' + b*u'`` on all padded nodes."""
    x = gf.grid.nodes
    return local_form(np.asarray(coeffs.a(x, t), dtype=float),
                      np.asarray(coeffs.b(x, t), dtype=float),
                      gf.extended(1, 1, n), gf.grid.h)


def local_form(a: np.ndarray, b: np.ndarray, ext: np.ndarray,
               h: float) -> np.ndarray:
    """``a*u'' + b*u'`` from a slice or a surface (space axis first) with
    one ghost node per side; ``a`` and ``b`` broadcast against it."""
    d2 = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / (h * h)
    d1 = (ext[2:] - ext[:-2]) / (2.0 * h)
    return a * d2 + b * d1


def operator_summary(op: NonlocalOperator) -> dict:
    """Scalar facts about the assembled operator, for reports; the far
    mass is the jumps' share of the explicit rate in a step."""
    return {
        "family": op.model.family,
        "y_core": op.y_core,
        "radius": op.radius,
        "cells": int(op.cell_mass.size),
        "far_mass": op.far_mass,
        "compensator": op.compensator,
        "core_var": op.core_var,
        "fv_core": op.fv_core,
    }


def _check_profile(profile: str) -> None:
    if profile not in ("accurate", "monotone"):
        raise ParameterError(f"unknown operator profile {profile!r}")
