"""The jump operator split at a cell edge, for the split tests.

:func:`apply_nonlocal_split` returns the small-jump and large-jump
halves for any cut ``eps`` on a cell edge: a half-node ``(k + 1/2) h``
or 1.  It rebuilds the cells' lumping from the operator's model and grid
(``generator._cell_edges`` and ``_build_cells``), and the largest
kernel shift as ``k_min + far_kernel.size - 1``.  The small half
evaluates each lumped shift through the telescoped second-difference
identity

    phi[i+k] - phi[i] - k*h*D1c[i] = (k/2) d2[i] + sum_{0<m<k} (k-m) d2[i+m]

(``d2`` the undivided second difference, ``D1c`` the centered slope),
which is algebraically equal to the direct compensated form, so the two
halves recombine to the full operator to rounding wherever the cut is
placed.
"""

import numpy as np

from jumpstop.errors import ParameterError
from jumpstop.generator import (NonlocalOperator, _build_cells, _cell_edges,
                                _check_profile, _kernel_sum, _lump)
from jumpstop.grids import GridFunction


def _cells(op: NonlocalOperator):
    """Each cell's bounds (magnitudes), mass, signed mean and second
    moment, as ``build_operator`` builds them."""
    return _build_cells(op.model, _cell_edges(op.h, op.y_core, op.radius))


def _lumping(op: NonlocalOperator):
    """Each cell's left lumping node, fraction toward node + 1, lumped
    weights and second-moment defect, as ``build_operator`` lumps them."""
    _, _, m0, m1, m2 = _cells(op)
    centroid = m1 / m0
    s = centroid / op.h
    node = np.floor(s).astype(int)
    theta = s - node
    w_lo, w_hi = m0 * (1.0 - theta), m0 * theta
    spread = w_lo * (node * op.h - centroid) ** 2 + \
        w_hi * ((node + 1) * op.h - centroid) ** 2
    return node, theta, w_lo, w_hi, (m2 - m1 * m1 / m0) - spread


def apply_nonlocal_split(op: NonlocalOperator, gf: GridFunction, eps: float,
                         profile: str = "accurate",
                         n: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(small-jump half, large-jump half) of the operator cut at ``eps``.

    The small half covers jumps of size at most ``eps`` in compensated
    second-difference form; the large half covers the rest directly, with
    the compensation of the remaining band.  ``eps`` must lie in
    ``[y_core, 1]`` on a cell edge: a half-node ``(k + 1/2) h``, or 1.
    """
    _check_profile(profile)
    if eps > 1.0 + 1e-12:
        raise ParameterError("split point must be at most 1")
    if eps < op.y_core * (1.0 - 1e-12):
        raise ParameterError(
            f"split point {eps:g} lies inside the stencil core "
            f"(|y| <= {op.y_core:g}); refine the grid or move the cut")
    cell_lo, cell_hi, cell_mass, cell_mean, _ = _cells(op)
    straddle = (cell_lo < eps * (1.0 - 1e-12)) & \
               (cell_hi > eps * (1.0 + 1e-12))
    if np.any(straddle):
        raise ParameterError(
            f"split point {eps:g} bisects a jump cell; cut at a cell "
            f"edge: a half-node (k + 1/2) h with h = {op.h:g}, or 1")
    ne, nb, h = op.n_ext, op.n_base, op.h
    ext = gf.extended(ne, ne, n)
    base = ext[ne: ne + nb]
    d1 = (ext[ne + 1: ne + nb + 1] - ext[ne - 1: ne + nb - 1]) / (2.0 * h)
    d2 = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / (h * h)
    node, theta, w_lo, w_hi, r2 = _lumping(op)

    bucket = cell_hi <= eps * (1.0 + 1e-12)
    # small half: core stencil + telescoped second-difference form of the
    # lumped shifts below the cut (+ their corrections when accurate)
    tri_kernel, tri_min = _triangular_kernel(
        node[bucket], w_lo[bucket], w_hi[bucket], h)
    small = _kernel_sum(d2, op.core_stencil, ne - 3, nb)
    small += _kernel_sum(d2, tri_kernel, ne - 1 + tri_min, nb)

    # large half: direct lumped differences of the remaining cells minus
    # the compensation of the part of the band above the cut
    rest = ~bucket
    size = op.far_kernel.size
    far = _lump(size, op.k_min, node[rest], w_lo[rest], w_hi[rest])
    compensated = cell_hi <= 1.0 + 1e-12
    comp_rest = float(cell_mean[rest & compensated].sum())
    large = _kernel_sum(ext, far, ne + op.k_min, nb)
    large -= float(cell_mass[rest].sum()) * base
    large -= comp_rest * d1

    if profile == "accurate":
        for mask, acc in ((bucket, small), (rest, large)):
            corr = _lump(size, op.k_min, node[mask],
                         0.5 * r2[mask] * (1.0 - theta[mask]),
                         0.5 * r2[mask] * theta[mask])
            acc += _kernel_sum(d2, corr, ne - 1 + op.k_min, nb)
    return small, large


def _triangular_kernel(nodes, w_lo, w_hi, h):
    """Second-difference kernel equivalent to compensated lumped shifts."""
    if nodes.size == 0:
        return np.zeros(1), 0
    reach = int(np.max(np.abs(nodes))) + 1
    c0 = reach - 1
    kernel = np.zeros(2 * reach - 1)
    h2 = h * h
    for k_left, wl, wh in zip(nodes, w_lo, w_hi):
        for k, w in ((int(k_left), wl), (int(k_left) + 1, wh)):
            if w == 0.0 or k == 0:
                continue
            kk = abs(k)
            ramp = np.arange(kk, 0.0, -1.0) * (h2 * w)
            ramp[0] *= 0.5
            if k > 0:
                kernel[c0: c0 + kk] += ramp
            else:
                kernel[c0 - kk + 1: c0 + 1] += ramp[::-1]
    return kernel, -c0
