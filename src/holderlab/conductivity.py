"""Local Neumann-to-Dirichlet map for piecewise constant anisotropic
conductivity on the unit square.

The map sends a boundary current to the trace of the resulting
potential; its matrix in the current basis is assembled by solving one
Neumann problem per basis current. A basis current is the difference of
two adjacent patch-node hat functions, each scaled by its integral over
the whole boundary, so it has zero mean over the whole boundary, not
over the patch; the end nodes' hats reach one edge past the patch (see
CurrentBasis). The potential space is H1 modulo constants, realized by
grounding one node off the patch: the currents have zero mean, so their
pairing with a potential does not see the constant the ground fixes.

NDProblem is this problem's one object. It owns the parameter space,
per-cell SPD 2x2 conductivities stored as rows (a11, a22, a12), and
all about one mesh that does not depend on the conductivity: the
current basis, its whitening, the ground node, the patch loads and the
stiffness as a linear map of the cell components. forward(cells) and
derivative(cells, dp) check the cells and return plain, exactly
symmetric matrices in the current basis; the problem, not the matrix,
carries the kind, the degree and the whitener.
The free nodes are numbered patch side last (mesh.patch_last_order),
so the loads L vanish above a short trailing block of rows. With the
banded factorization K = U.T @ U, the map is M = L.T K^-1 L = W.T @ W
for W = U^-T L, which vanishes above that block too: forward pays one
factorization and one triangular solve over the trailing rows.
derivative takes the same two steps and one more triangular solve,
which back-substitutes W into the potentials K^-1 L over all free
dofs, and pairs them through the stiffness of the direction.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .errors import EmptyPatch, NotPositiveDefinite
from .mesh import (
    boundary_hat_integrals,
    boundary_mass_matrix,
    p1_gradients,
    patch_last_order,
    patch_nodes,
)
from .numerics import (
    CellStiffness,
    back_solve,
    factor_spd,
    scatter,
    symmetrize,
    trailing_solve,
)

KIND = "conductivity_nd"


def check_cells(cells):
    """The cells as an (N, 3) float array of rows (a11, a22, a12), each
    a finite, positive definite 2x2 matrix."""
    cells = np.atleast_2d(np.asarray(cells, dtype=float))
    if cells.shape[1] != 3:
        raise ValueError("cells must be an (N, 3) array of (a11, a22, a12)")
    if not np.isfinite(cells).all():
        raise NotPositiveDefinite("every cell matrix must be finite")
    a11, a22, a12 = cells.T
    det = a11 * a22 - a12 * a12
    if np.any(a11 <= 0) or np.any(det <= 0):
        raise NotPositiveDefinite("every cell matrix must be positive definite")
    return cells


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
    """Currents in the patch hat functions (coeffs[i] is current i).
    The loads pair them over the whole boundary, where the end nodes'
    hats reach one edge past the patch; gram sums over patch edges."""

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


def ground_node(mesh, patch):
    """Node whose potential is fixed to zero: the one farthest from the
    midpoint of the patch (node indices in arclength order), which
    always lies off the patch. Grounded at the patch's corner node
    instead, the smallest-step finite-difference check of the
    derivative loses almost two decades (1e-10 to 6e-9 at n_sub=8)."""
    mid = 0.5 * (mesh.nodes[patch[0]] + mesh.nodes[patch[-1]])
    return int(np.argmax(np.linalg.norm(mesh.nodes - mid, axis=1)))


def _patch_loads(mesh, basis):
    """Load vectors over all nodes: column i pairs basis current i,
    through the boundary mass matrix, with every nodal trace."""
    x = np.zeros((mesh.n_nodes, basis.k))
    x[basis.nodes] = basis.coeffs.T
    a, b = mesh.boundary_edges.T
    h = np.linalg.norm(mesh.nodes[b] - mesh.nodes[a], axis=1)[:, None]
    loads = np.zeros_like(x)
    np.add.at(loads, a, h / 3.0 * x[a] + h / 6.0 * x[b])
    np.add.at(loads, b, h / 3.0 * x[b] + h / 6.0 * x[a])
    return loads


def stiffness_form(mesh, active):
    """P1 stiffness over the active nodes (active[i] is node i's
    position among them, -1 if left out), linear in the (N, 3) cell
    rows; directions need not be positive definite."""
    g, area = p1_gradients(mesh)
    comps = cell_matrices(np.eye(3))
    return CellStiffness(g.transpose(0, 2, 1), comps, area, mesh.triangles, mesh.labels, active)


class NDProblem:
    """The grounded Neumann problem of one mesh, built once, and the
    parameter space of its conductivities.

    dofs[i] is the node of free dof i, in patch-last order without the
    ground node; form is the P1 stiffness over the free dofs, linear in
    the (N, 3) cell components. The loads pair every basis current
    with every free nodal trace; they vanish above free dof first, so
    only their rows first: are kept, as loads (n_free - first, k).
    """

    kind = KIND
    degree = -1  # F(t p) = t^-1 F(p)
    cell_matrices = staticmethod(cell_matrices)

    def __init__(self, mesh):
        self.basis = current_basis(mesh)
        self.whitener = operators.gram_inv_sqrt(self.basis.gram)
        self.ground = ground_node(mesh, self.basis.nodes)
        order = patch_last_order(mesh)
        self.dofs = order[order != self.ground]
        active = np.full(mesh.n_nodes, -1)
        active[self.dofs] = np.arange(self.dofs.size)
        self.form = stiffness_form(mesh, active)
        self.band = self.form.band_layout(slice(None), self.dofs.size)
        loads = _patch_loads(mesh, self.basis)[self.dofs]
        self.first = int(np.flatnonzero(loads.any(axis=1))[0])
        self.loads = loads[self.first:].copy()  # not a view holding every row

    @staticmethod
    def sample_cells(rng, lo, hi, n_cells):
        """n_cells rows whose matrices have eigenvalues drawn uniformly
        in [lo, hi] and a uniform rotation angle, drawn cell by cell."""
        cells = np.empty((n_cells, 3))
        for j in range(n_cells):
            e = rng.uniform(lo, hi, 2)
            th = rng.uniform(0.0, np.pi)
            c, s = math.cos(th), math.sin(th)
            rot = np.array([[c, -s], [s, c]])
            a = rot @ np.diag(e) @ rot.T
            cells[j] = (a[0, 0], a[1, 1], 0.5 * (a[0, 1] + a[1, 0]))
        return cells

    @staticmethod
    def sample_direction(rng, n_cells):
        """Gaussian symmetric rows with unit Frobenius norm of their
        matrices over the whole tuple."""
        d = rng.standard_normal((n_cells, 3))
        norm = math.sqrt(float(np.sum(d[:, 0] ** 2 + d[:, 1] ** 2 + 2.0 * d[:, 2] ** 2)))
        return d / norm

    def factor(self, cells):
        """Banded Cholesky factor of the grounded stiffness; the cells
        are checked first."""
        return factor_spd(scatter(self.form.values(check_cells(cells)), self.band))

    def forward(self, cells):
        return nd_matrix(self, cells)

    def derivative(self, cells, dp):
        """Directional derivative of the map at cells in direction dp,
        as a matrix in the current basis. dp is an (N, 3) array of finite
        symmetric per-cell components; it need not be positive definite.
        The grounded potentials u = K^-1 L, one column per basis
        current, differ from the zero-mean ones by a constant per
        column, which no stiffness sees.
        """
        f = self.factor(cells)
        u = back_solve(f, trailing_solve(f, self.loads))
        return -self.form.pairing(self.form.values(dp), u)


def nd_matrix(problem, cells):
    """Matrix of the local Neumann-to-Dirichlet map in the current
    basis: M[i][j] = pairing of current j with the trace of the
    potential driven by current i, computed as W.T @ W from the
    trailing rows of W = U^-T L, which is exactly symmetric.
    NDProblem.forward calls it; it is a module function only so that
    tracing and forward-counting code can wrap it here."""
    w = trailing_solve(problem.factor(cells), problem.loads)
    return w.T @ w
