"""Localized Dirichlet-to-Neumann map for plane-strain piecewise
homogeneous anisotropic elasticity on the unit square.

Stiffness tensors are 3x3 SPD matrices in Mandel form, acting on the
strain vector (e11, e22, sqrt(2)*e12), so tensor Frobenius norms and
the SPD cone coincide with their matrix counterparts. The map sends a
boundary displacement supported compactly in the patch to the
resulting traction; its matrix is the Schur complement of the interior
block of the vector P1 stiffness, equivalently the energy of the
lifted-and-corrected solution.

DNProblem is this problem's one object. It owns the parameter space,
per-cell SPD 3x3 Mandel tensors, and all about one mesh that does not
depend on them: the displacement basis, its whitening and the vector
stiffness as a linear map of the nine Mandel entries per cell.
forward(cells) and derivative(cells, dp) check the cells and return
plain, exactly symmetric matrices in the displacement basis; the
problem, not the matrix, carries the kind, the degree and the whitener.
The interior dofs are numbered patch side last (mesh.patch_last_order),
so the interior loads L = K[idx, bd] of the basis data vanish above a
short trailing block of rows. With the banded factorization
K[idx, idx] = U.T @ U, the map is M = K[bd, bd] - W.T @ W for
W = U^-T L, which vanishes above that block too: forward pays one
factorization and one triangular solve over the trailing rows.
derivative takes the same two steps and one more triangular solve,
which back-substitutes W into the interior corrections K[idx, idx]^-1 L
over all interior dofs, and pairs the full solutions through the
stiffness of the direction.
"""

from dataclasses import dataclass

import numpy as np

from . import operators
from .errors import NotPositiveDefinite, PatchTooSmall
from .mesh import (
    boundary_mass_matrix,
    boundary_node_set,
    p1_gradients,
    patch_last_order,
    patch_nodes,
)
from .numerics import (
    CellStiffness,
    back_solve,
    factor_spd,
    layout,
    scatter,
    symmetrize,
    trailing_solve,
)

KIND = "elasticity_dn"

ROOT2 = np.sqrt(2.0)


def check_symmetric(cells):
    """The cells, or directions, as an (N, 3, 3) float array of
    symmetric Mandel matrices."""
    cells = np.asarray(cells, dtype=float)
    if cells.ndim == 2:
        cells = cells[None]
    if cells.shape[1:] != (3, 3):
        raise ValueError("cells must be an (N, 3, 3) array")
    if not np.array_equal(cells, cells.transpose(0, 2, 1)):
        raise ValueError("cell tensors must be symmetric")
    return cells


def check_cells(cells):
    """The cells as an (N, 3, 3) float array of finite, symmetric
    Mandel matrices, each positive definite, which is exactly the
    strong-convexity bound with each cell's smallest eigenvalue as
    its constant."""
    cells = np.asarray(cells, dtype=float)
    if not np.isfinite(cells).all():
        raise NotPositiveDefinite("every cell tensor must be finite")
    cells = check_symmetric(cells)
    if np.linalg.eigvalsh(cells)[:, 0].min() <= 0:
        raise NotPositiveDefinite("every cell tensor must be positive definite")
    return cells


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
    g, area = p1_gradients(mesh)
    b = np.zeros((len(mesh.triangles), 3, 6))
    b[:, 0, 0::2] = g[:, :, 0]
    b[:, 1, 1::2] = g[:, :, 1]
    b[:, 2, 0::2] = g[:, :, 1] / ROOT2
    b[:, 2, 1::2] = g[:, :, 0] / ROOT2
    return b, area


def interior_dofs(mesh):
    """Dofs of the interior nodes in patch-last node order, x before y
    at each node."""
    order = patch_last_order(mesh)
    inner = order[~np.isin(order, boundary_node_set(mesh))]
    return np.column_stack([2 * inner, 2 * inner + 1]).ravel()


def stiffness_form(mesh, active):
    """Vector P1 stiffness over the active dofs (active[d] is dof d's
    position among them, -1 if left out; dof 2*node + component),
    linear in the (N, 3, 3) Mandel cells; directions need not be
    positive definite."""
    b, area = _strain_operators(mesh)
    dofs = np.repeat(2 * mesh.triangles, 2, axis=1)
    dofs[:, 1::2] += 1
    return CellStiffness(b, np.eye(9).reshape(9, 3, 3), area, dofs, mesh.labels, active)


class DNProblem:
    """The localized Dirichlet problem of one mesh, built once, and the
    parameter space of its stiffness tensors.

    dofs lists the active dofs, the interior dofs idx in patch-last
    order followed by the basis dofs bd; form is the vector P1
    stiffness over them, linear in the (N, 3, 3) Mandel cells. The
    interior loads K[idx, bd] vanish above interior dof first. band,
    load and energy place the slot values into the interior block
    K[idx, idx] (band storage), the rows first: of K[idx, bd] and
    K[bd, bd].
    """

    kind = KIND
    degree = 1  # F(t p) = t F(p)

    def __init__(self, mesh):
        self.basis = displacement_basis(mesh)
        self.whitener = operators.gram_inv_sqrt(self.basis.gram)
        idx = interior_dofs(mesh)
        bd = 2 * self.basis.entries[:, 0] + self.basis.entries[:, 1]
        self.dofs = np.concatenate([idx, bd])
        n, k = idx.size, self.basis.k
        active = np.full(2 * mesh.n_nodes, -1)
        active[self.dofs] = np.arange(n + k)
        self.form = stiffness_form(mesh, active)
        r, c = self.form.rows, self.form.cols
        inner = np.flatnonzero(c < n)
        cross = np.flatnonzero((r < n) & (c >= n))
        outer = np.flatnonzero(r >= n)
        self.first = int(r[cross].min())
        self.band = self.form.band_layout(inner, n)
        self.load = layout(cross, r[cross] - self.first, c[cross] - n, (n - self.first, k))
        self.energy = layout(
            np.concatenate([outer, outer]),
            np.concatenate([r[outer], c[outer]]) - n,
            np.concatenate([c[outer], r[outer]]) - n,
            (k, k),
        )

    @staticmethod
    def sample_cells(rng, lo, hi, n_cells):
        """n_cells tensors with eigenvalues drawn uniformly in [lo, hi]
        and eigenvectors from the QR of a Gaussian matrix."""
        # the draws keep the per-cell order; the rotations and products
        # run stacked, which gives the per-cell results bit for bit
        e = np.empty((n_cells, 3))
        g = np.empty((n_cells, 3, 3))
        for j in range(n_cells):
            e[j] = rng.uniform(lo, hi, 3)
            g[j] = rng.standard_normal((3, 3))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        a = (q * e[:, None, :]) @ q.transpose(0, 2, 1)
        return 0.5 * (a + a.transpose(0, 2, 1))

    @staticmethod
    def sample_direction(rng, n_cells):
        """Gaussian symmetric tensors with unit Frobenius norm over the
        whole tuple."""
        d = rng.standard_normal((n_cells, 3, 3))
        d = 0.5 * (d + d.transpose(0, 2, 1))
        return d / float(np.linalg.norm(d))

    @staticmethod
    def cell_matrices(cells):
        """The cells are their own Mandel matrices."""
        return np.asarray(cells, dtype=float)

    def factor(self, cells):
        """Stiffness slot values, the banded Cholesky factor of the
        interior block and the trailing rows of the interior loads
        K[idx, bd] of the zero-extended basis data; the cells are
        checked first."""
        values = self.form.values(check_cells(cells))
        return values, factor_spd(scatter(values, self.band)), scatter(values, self.load)

    def forward(self, cells):
        return dn_matrix(self, cells)

    def derivative(self, cells, dp):
        """Directional derivative of the map at cells in direction dp:
        the dp-energy pairing of the full solutions, which are the basis
        data minus the interior corrections that make each datum's zero
        extension discrete-harmonic. dp must be finite and symmetric,
        like the cells, but need not be positive definite."""
        _, f, tail = self.factor(cells)
        values = self.form.values(dp)  # checks count and finiteness first
        check_symmetric(dp)
        corr = back_solve(f, trailing_solve(f, tail))
        u = np.vstack([-corr, np.eye(self.basis.k)])
        return self.form.pairing(values, u)


def dn_matrix(problem, cells):
    """Matrix of the localized Dirichlet-to-Neumann map: datum energy
    minus the correction energy W.T @ W, from the trailing rows of
    W = U^-T K[idx, bd]; both terms are exactly symmetric.
    DNProblem.forward calls it; it is a module function only so that
    tracing and forward-counting code can wrap it here."""
    values, f, tail = problem.factor(cells)
    w = trailing_solve(f, tail)
    return scatter(values, problem.energy) - w.T @ w
