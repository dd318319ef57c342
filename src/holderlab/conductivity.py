"""Local Neumann-to-Dirichlet map for piecewise constant anisotropic
conductivity on the unit square.

The map sends a boundary current to the trace of the resulting
potential. A basis current is the difference of two adjacent
patch-node hat functions, each scaled by its integral over the whole
boundary, so it has zero mean over the whole boundary, not over the
patch; the end nodes' hats reach one edge past the patch (see
current_basis). The potential space is H1 modulo constants, realized by
grounding one node off the patch: the currents have zero mean, so their
pairing with a potential does not see the constant the ground fixes.

NDProblem is this problem's operators.ForwardProblem; its cells are
SPD 2x2 conductivities. The free nodes are numbered patch side last
(mesh.patch_last_order), so the loads L, which pair every basis
current with every free nodal trace, vanish above a short trailing
block of rows, and W = U^-T L vanishes above it too: M = L.T K^-1 L =
W.T @ W, from one triangular solve over the trailing rows.
"""

import math

import numpy as np

from .mesh import (
    boundary_hat_integrals,
    boundary_mass_matrix,
    edge_lengths,
    p1_gradients,
    patch_last_order,
    patch_nodes,
)
from .numerics import CellStiffness, symmetrize, trailing_solve
from .operators import ForwardProblem

# (N, 3) rows (a11, a22, a12) to (N, 2, 2) symmetric matrices
_SYMMETRIC = [[0, 2], [2, 1]]


def current_basis(mesh):
    """The currents in the patch hat functions: the patch nodes in
    arclength order, coeffs (k, k+1) whose row i is current i, and the
    currents' (k, k) L2 Gram matrix over the patch edges. The loads
    pair them over the whole boundary, where the end nodes' hats reach
    one edge past the patch. patch_nodes gives at least two nodes."""
    pn = patch_nodes(mesh)
    w = boundary_hat_integrals(mesh)[pn]
    k = pn.size - 1
    coeffs = np.zeros((k, k + 1))
    idx = np.arange(k)
    coeffs[idx, idx] = 1.0 / w[:-1]
    coeffs[idx, idx + 1] = -1.0 / w[1:]
    gram = symmetrize(coeffs @ boundary_mass_matrix(mesh) @ coeffs.T)
    return pn, coeffs, gram


def ground_node(mesh, patch):
    """Node whose potential is fixed to zero: the one farthest from the
    midpoint of the patch (node indices in arclength order), which
    always lies off the patch. Grounded at the patch's corner node
    instead, the smallest-step finite-difference check of the
    derivative loses almost two decades (1e-10 to 6e-9 at n_sub=8)."""
    mid = 0.5 * (mesh.nodes[patch[0]] + mesh.nodes[patch[-1]])
    return int(np.argmax(np.linalg.norm(mesh.nodes - mid, axis=1)))


def _patch_loads(mesh, nodes, coeffs):
    """The loads on the boundary ring, the only nodes they reach: ring
    lists the boundary nodes in counterclockwise order, and column i of
    rows pairs current i, coeffs[i] over the patch nodes, through the
    boundary mass matrix with the nodal trace of each ring node."""
    ring = mesh.boundary_edges[:, 0]
    at = np.empty(mesh.n_nodes, dtype=np.intp)
    at[ring] = np.arange(ring.size)
    x = np.zeros((ring.size, len(coeffs)))
    x[at[nodes]] = coeffs.T
    h = edge_lengths(mesh, mesh.boundary_edges)[:, None]
    a, b = at[mesh.boundary_edges.T]  # each edge's ends as ring positions
    rows = np.zeros_like(x)
    np.add.at(rows, a, h / 3.0 * x[a] + h / 6.0 * x[b])
    np.add.at(rows, b, h / 3.0 * x[b] + h / 6.0 * x[a])
    return ring, rows


def stiffness_form(mesh, active):
    """P1 stiffness over the active nodes (active[i] is node i's
    position among them, -1 if left out), linear in the (N, 2, 2) cell
    matrices; directions need not be positive definite."""
    g, area = p1_gradients(mesh)
    return CellStiffness(g.transpose(0, 2, 1), area, mesh.triangles, mesh.labels, active)


class NDProblem(ForwardProblem):
    """The grounded Neumann problem of one mesh.

    dofs[i] is the node of free dof i, in patch-last order without the
    ground node; form is the P1 stiffness over the free dofs. The loads
    vanish above free dof first, so only their rows first: are kept, as
    loads (n_free - first, k).
    """

    kind = "conductivity_nd"
    degree = -1  # F(t p) = t^-1 F(p)

    def __init__(self, mesh):
        nodes, coeffs, gram = current_basis(mesh)
        self.ground = ground_node(mesh, nodes)
        order = patch_last_order(mesh)
        self.dofs = order[order != self.ground]
        active = np.full(mesh.n_nodes, -1)
        active[self.dofs] = np.arange(self.dofs.size)
        super().__init__(gram, stiffness_form(mesh, active))
        ring, rows = _patch_loads(mesh, nodes, coeffs)
        dof = active[ring]  # -1 at the ground
        hit = (dof >= 0) & rows.any(axis=1)
        self.first = int(dof[hit].min())
        self.loads = np.zeros((self.dofs.size - self.first, self.k))
        self.loads[dof[hit] - self.first] = rows[hit]

    def sample_cells(self, rng, lo, hi):
        """One matrix per cell with eigenvalues drawn uniformly in
        [lo, hi] and a uniform rotation angle, drawn cell by cell."""
        rows = np.empty((self.form.n_cells, 3))
        for j in range(self.form.n_cells):
            e = rng.uniform(lo, hi, 2)
            th = rng.uniform(0.0, np.pi)
            c, s = math.cos(th), math.sin(th)
            rot = np.array([[c, -s], [s, c]])
            a = rot @ np.diag(e) @ rot.T
            rows[j] = (a[0, 0], a[1, 1], 0.5 * (a[0, 1] + a[1, 0]))
        return rows[:, _SYMMETRIC]

    def sample_direction(self, rng):
        """Gaussian symmetric matrices, one per cell, with unit Frobenius
        norm over the whole tuple."""
        d = rng.standard_normal((self.form.n_cells, 3))
        norm = math.sqrt(float(np.sum(d[:, 0] ** 2 + d[:, 1] ** 2 + 2.0 * d[:, 2] ** 2)))
        return (d / norm)[:, _SYMMETRIC]

    def trailing(self, f):
        """The trailing rows of W = U^-T L for the factor f."""
        return trailing_solve(f, self.loads)

    def forward(self, cells):
        return nd_matrix(self, cells)


def nd_matrix(problem, cells):
    """Matrix of the local Neumann-to-Dirichlet map in the current
    basis: M[i][j] = pairing of current j with the trace of the
    potential driven by current i. NDProblem.forward calls it; it is a
    module function only so that tracing and forward-counting code can
    wrap it here."""
    return problem.matrix(cells)
