"""Localized Dirichlet-to-Neumann map for plane-strain piecewise
homogeneous anisotropic elasticity on the unit square.

Stiffness tensors are 3x3 SPD matrices in Mandel form, acting on the
strain vector (e11, e22, sqrt(2)*e12), so tensor Frobenius norms and
the SPD cone coincide with their matrix counterparts. The map sends a
boundary displacement supported compactly in the patch to the
resulting traction; its matrix is the Schur complement of the interior
block of the vector P1 stiffness, equivalently the energy of the
lifted-and-corrected solution.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import CellCountMismatch, NotPositiveDefinite, PatchTooSmall
from .mesh import boundary_mass_matrix, boundary_node_set, patch_nodes, triangle_areas
from .numerics import eig_min, factor_spd, solve, symmetrize
from .operators import DataOperator

KIND = "elasticity_dn"

ROOT2 = np.sqrt(2.0)


@dataclass
class ElasticityParams:
    """Per-cell 3x3 SPD Mandel matrices; positive definiteness is
    exactly the strong-convexity bound with constant eig_min."""

    cells: np.ndarray

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=float)
        if self.cells.ndim == 2:
            self.cells = self.cells[None]
        if self.cells.shape[1:] != (3, 3):
            raise ValueError("cells must be an (N, 3, 3) array")
        for c in self.cells:
            if not np.array_equal(c, c.T):
                raise ValueError("cell tensors must be symmetric")
            if eig_min(c) <= 0:
                raise ValueError("every cell tensor must be positive definite")

    @property
    def n_cells(self):
        return self.cells.shape[0]


def isotropic_tensor(lambda_lame, mu):
    """Isotropic plane-strain tensor in Mandel form."""
    m = np.array(
        [
            [lambda_lame + 2.0 * mu, lambda_lame, 0.0],
            [lambda_lame, lambda_lame + 2.0 * mu, 0.0],
            [0.0, 0.0, 2.0 * mu],
        ]
    )
    if mu <= 0 or lambda_lame + mu <= 0 or eig_min(m) <= 0:
        raise NotPositiveDefinite("isotropic tensor outside the elliptic range")
    return m


def mandel_to_tensor(m):
    """3x3 Mandel matrix to the 4-index plane tensor C[i,j,k,l]."""
    m = np.asarray(m, dtype=float)
    pairs = [(0, 0), (1, 1), (0, 1)]
    scale = np.array([1.0, 1.0, ROOT2])
    c = np.zeros((2, 2, 2, 2))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            v = m[a, b] / (scale[a] * scale[b])
            c[i, j, k, l] = c[j, i, k, l] = c[i, j, l, k] = c[j, i, l, k] = v
    return c


def tensor_to_mandel(c):
    """Inverse of mandel_to_tensor."""
    c = np.asarray(c, dtype=float)
    pairs = [(0, 0), (1, 1), (0, 1)]
    scale = np.array([1.0, 1.0, ROOT2])
    m = np.empty((3, 3))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            m[a, b] = c[i, j, k, l] * scale[a] * scale[b]
    return m


def strain_to_mandel(e):
    e = np.asarray(e, dtype=float)
    return np.array([e[0, 0], e[1, 1], ROOT2 * e[0, 1]])


@dataclass
class DisplacementBasis:
    """Vector hat functions at patch interior nodes: entries pair a
    node index with a component (0 for x, 1 for y), interleaved per
    node. Endpoint nodes carry no basis function, so every basis
    displacement vanishes outside the open patch."""

    nodes: np.ndarray    # interior patch nodes in arclength order
    entries: np.ndarray  # (k, 2) rows (node, component)
    gram: np.ndarray     # (k, k) vector L2 patch Gram

    @property
    def k(self):
        return self.entries.shape[0]


def displacement_basis(mesh):
    pn = patch_nodes(mesh)
    if pn.size < 3:
        raise PatchTooSmall("displacement basis needs an interior patch node")
    inner = pn[1:-1]
    entries = np.array([(n, c) for n in inner for c in (0, 1)], dtype=np.intp)
    mass = boundary_mass_matrix(mesh)[1:-1, 1:-1]
    gram = symmetrize(np.kron(mass, np.eye(2)))
    return DisplacementBasis(inner, entries, gram)


def _strain_operators(mesh):
    """Per-triangle Mandel strain matrices B (n_tri, 3, 6) over the
    local dofs (v0x, v0y, v1x, v1y, v2x, v2y), plus areas."""
    p = mesh.nodes[mesh.triangles]
    area = triangle_areas(mesh)
    g = np.empty((len(mesh.triangles), 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[:, i, 0] = p[:, j, 1] - p[:, k, 1]
        g[:, i, 1] = p[:, k, 0] - p[:, j, 0]
    g /= (2.0 * area)[:, None, None]
    b = np.zeros((len(mesh.triangles), 3, 6))
    for i in range(3):
        gx, gy = g[:, i, 0], g[:, i, 1]
        b[:, 0, 2 * i] = gx
        b[:, 1, 2 * i + 1] = gy
        b[:, 2, 2 * i] = gy / ROOT2
        b[:, 2, 2 * i + 1] = gx / ROOT2
    return b, area


def full_vector_stiffness(mesh, cells):
    """Vector P1 stiffness over all 2*n_nodes displacement dofs for
    per-cell Mandel matrices; directions (non-SPD cells) allowed."""
    cells = np.asarray(cells, dtype=float)
    if cells.ndim == 2:
        cells = cells[None]
    n_cells = int(mesh.labels.max())
    if cells.shape[0] != n_cells:
        raise CellCountMismatch(
            "%d cell tensors for a %d-cell partition" % (cells.shape[0], n_cells)
        )
    mats = cells[mesh.labels - 1]
    b, area = _strain_operators(mesh)
    ke = np.einsum("t,tia,tij,tjb->tab", area, b, mats, b)
    dofs = np.empty((len(mesh.triangles), 6), dtype=np.intp)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    rows = np.broadcast_to(dofs[:, :, None], ke.shape)
    cols = np.broadcast_to(dofs[:, None, :], ke.shape)
    n = 2 * mesh.n_nodes
    k = scipy.sparse.coo_matrix(
        (ke.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)
    )
    return k.tocsr()


def interior_dofs(mesh):
    bset = boundary_node_set(mesh)
    inner = np.setdiff1d(np.arange(mesh.n_nodes), bset)
    return np.sort(np.concatenate([2 * inner, 2 * inner + 1]))


def _basis_dofs(basis):
    return 2 * basis.entries[:, 0] + basis.entries[:, 1]


def dn_solutions(mesh, p, basis, lift=None):
    """Full displacement solutions for every basis datum.

    lift is an optional (n_interior, k) array of interior values for
    the lifting operator; the default is the zero extension. Returns
    (U_full, K_full, idx_interior).
    """
    k_full = full_vector_stiffness(mesh, p.cells)
    idx = interior_dofs(mesh)
    bd = _basis_dofs(basis)
    n = 2 * mesh.n_nodes
    k = basis.k
    e_full = np.zeros((n, k))
    e_full[bd, np.arange(k)] = 1.0
    if lift is not None:
        e_full[idx, :] = lift
    loads = (k_full @ e_full)[idx]
    f = factor_spd(k_full[np.ix_(idx, idx)])
    corr = solve(f, loads)
    u_full = e_full.copy()
    u_full[idx] -= corr
    return u_full, k_full, idx


def dn_matrix(mesh, p, basis, lift=None):
    """Matrix of the localized Dirichlet-to-Neumann map: lifted-datum
    energy minus the correction energy recovered through the interior
    solve. Independent of the lift choice up to solver accuracy."""
    k_full = full_vector_stiffness(mesh, p.cells)
    idx = interior_dofs(mesh)
    bd = _basis_dofs(basis)
    n = 2 * mesh.n_nodes
    k = basis.k
    e_full = np.zeros((n, k))
    e_full[bd, np.arange(k)] = 1.0
    if lift is not None:
        e_full[idx, :] = lift
    ke = k_full @ e_full
    q = e_full.T @ ke
    loads = ke[idx]
    f = factor_spd(k_full[np.ix_(idx, idx)])
    corr = solve(f, loads)
    m = q - loads.T @ corr
    return DataOperator(symmetrize(m), basis.gram, KIND)


def dn_derivative(mesh, p, dp, basis):
    """Directional derivative of the map at p in direction dp: the
    dp-energy pairing of the full solutions."""
    u_full, _, _ = dn_solutions(mesh, p, basis)
    k_dp = full_vector_stiffness(mesh, np.asarray(dp, dtype=float))
    return symmetrize(u_full.T @ (k_dp @ u_full))
