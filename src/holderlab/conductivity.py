"""Local Neumann-to-Dirichlet map for piecewise constant anisotropic
conductivity on the unit square.

The map sends a zero-mean boundary current supported on the patch to
the trace of the resulting potential; its matrix in the current basis
is assembled by solving one Neumann problem per basis current. The
potential space is H1 modulo constants, realized by grounding one node
off the patch: the basis currents have zero mean, so the patch pairing
of a potential does not see the constant the ground fixes.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import CellCountMismatch, EmptyPatch
from .mesh import (
    boundary_mass_matrix,
    boundary_hat_integrals,
    patch_nodes,
    triangle_areas,
)
from .numerics import factor_spd, solve, symmetrize
from .operators import DataOperator, operator_distance  # noqa: F401

KIND = "conductivity_nd"


@dataclass
class ConductivityParams:
    """Per-cell 2x2 SPD matrices stored as rows (a11, a22, a12)."""

    cells: np.ndarray

    def __post_init__(self):
        self.cells = np.atleast_2d(np.asarray(self.cells, dtype=float))
        if self.cells.shape[1] != 3:
            raise ValueError("cells must be an (N, 3) array of (a11, a22, a12)")
        a11, a22, a12 = self.cells.T
        det = a11 * a22 - a12 * a12
        if np.any(a11 <= 0) or np.any(det <= 0):
            raise ValueError("every cell matrix must be positive definite")

    @property
    def n_cells(self):
        return self.cells.shape[0]

    def matrices(self):
        return cell_matrices(self.cells)

    @classmethod
    def from_matrices(cls, mats):
        mats = np.asarray(mats, dtype=float)
        return cls(np.column_stack([mats[:, 0, 0], mats[:, 1, 1], mats[:, 0, 1]]))


def cell_matrices(cells):
    """(N, 3) component rows to (N, 2, 2) symmetric matrices."""
    cells = np.atleast_2d(np.asarray(cells, dtype=float))
    n = cells.shape[0]
    m = np.empty((n, 2, 2))
    m[:, 0, 0] = cells[:, 0]
    m[:, 1, 1] = cells[:, 1]
    m[:, 0, 1] = m[:, 1, 0] = cells[:, 2]
    return m


@dataclass
class CurrentBasis:
    """Zero-mean currents on the patch: differences of adjacent
    normalized hat functions. coeffs[i] expresses basis current i in
    the patch hat functions."""

    nodes: np.ndarray   # patch node indices, arclength order
    coeffs: np.ndarray  # (k, k+1)
    gram: np.ndarray    # (k, k) L2 patch Gram of the currents

    @property
    def k(self):
        return self.coeffs.shape[0]


def current_basis(mesh):
    pn = patch_nodes(mesh)
    if pn.size < 2:
        raise EmptyPatch("current basis needs at least two patch nodes")
    w = boundary_hat_integrals(mesh)[pn]
    k = pn.size - 1
    coeffs = np.zeros((k, k + 1))
    idx = np.arange(k)
    coeffs[idx, idx] = 1.0 / w[:-1]
    coeffs[idx, idx + 1] = -1.0 / w[1:]
    gram = symmetrize(coeffs @ boundary_mass_matrix(mesh) @ coeffs.T)
    return CurrentBasis(pn, coeffs, gram)


def _gradients(mesh):
    """Per-triangle P1 basis gradients (n_tri, 3, 2) and areas."""
    p = mesh.nodes[mesh.triangles]
    area = triangle_areas(mesh)
    g = np.empty((len(mesh.triangles), 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[:, i, 0] = p[:, j, 1] - p[:, k, 1]
        g[:, i, 1] = p[:, k, 0] - p[:, j, 0]
    g /= (2.0 * area)[:, None, None]
    return g, area


def stiffness_block(mesh, cells):
    """P1 stiffness matrix for the piecewise constant coefficient given
    by (N, 3) component rows; the rows need not be positive definite
    (directions are allowed)."""
    cells = np.atleast_2d(np.asarray(cells, dtype=float))
    n_cells = int(mesh.labels.max())
    if cells.shape[0] != n_cells:
        raise CellCountMismatch(
            "%d cell matrices for a %d-cell partition" % (cells.shape[0], n_cells)
        )
    mats = cell_matrices(cells)[mesh.labels - 1]
    g, area = _gradients(mesh)
    ke = np.einsum("t,tai,tij,tbj->tab", area, g, mats, g)
    rows = np.broadcast_to(mesh.triangles[:, :, None], ke.shape)
    cols = np.broadcast_to(mesh.triangles[:, None, :], ke.shape)
    n = mesh.n_nodes
    k = scipy.sparse.coo_matrix(
        (ke.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)
    )
    return k.tocsr()


def ground_node(mesh, patch):
    """Node whose potential is fixed to zero: the one farthest from the
    midpoint of the patch (node indices in arclength order), which
    always lies off the patch. Grounded at the patch's corner node
    instead, the smallest-step finite-difference check of the
    derivative loses almost two decades (1e-10 to 6e-9 at n_sub=8)."""
    mid = 0.5 * (mesh.nodes[patch[0]] + mesh.nodes[patch[-1]])
    return int(np.argmax(np.linalg.norm(mesh.nodes - mid, axis=1)))


def _patch_loads(mesh, basis):
    """Load vectors over all nodes: row i is the pairing of basis
    current i with every nodal trace."""
    n = mesh.n_nodes
    a = mesh.boundary_edges[:, 0]
    b = mesh.boundary_edges[:, 1]
    h = np.linalg.norm(mesh.nodes[b] - mesh.nodes[a], axis=1)
    mass = scipy.sparse.coo_matrix(
        (
            np.concatenate([h / 3.0, h / 3.0, h / 6.0, h / 6.0]),
            (
                np.concatenate([a, b, a, b]),
                np.concatenate([a, b, b, a]),
            ),
        ),
        shape=(n, n),
    ).tocsr()
    return mass[:, basis.nodes] @ basis.coeffs.T


def nd_solutions(mesh, p, basis):
    """Solve the grounded Neumann problem for every basis current.

    Returns (U, B): potentials and load vectors, both (n_nodes, k).
    The potentials vanish at the ground node; they differ from the
    zero-mean ones by a constant per column, which neither the loads
    nor any stiffness matrix sees.
    """
    k_block = stiffness_block(mesh, p.cells)
    loads = _patch_loads(mesh, basis)
    free = np.delete(np.arange(mesh.n_nodes), ground_node(mesh, basis.nodes))
    f = factor_spd(k_block[free][:, free])
    u = np.zeros_like(loads)
    u[free] = solve(f, loads[free])
    return u, loads


def nd_matrix(mesh, p, basis):
    """Matrix of the local Neumann-to-Dirichlet map in the current
    basis: M[i][j] = pairing of current j with the trace of the
    potential driven by current i."""
    u, loads = nd_solutions(mesh, p, basis)
    return DataOperator(symmetrize(loads.T @ u), basis.gram, KIND)


def nd_derivative(mesh, p, dp, basis):
    """Directional derivative of the map at p in direction dp, as a
    matrix in the current basis.

    dp is an (N, 3) array of symmetric per-cell components; it need not
    be positive definite.
    """
    u, _ = nd_solutions(mesh, p, basis)
    k_dp = stiffness_block(mesh, np.asarray(dp, dtype=float))
    return symmetrize(-(u.T @ (k_dp @ u)))
