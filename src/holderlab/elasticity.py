"""Localized Dirichlet-to-Neumann map for plane-strain piecewise
homogeneous anisotropic elasticity on the unit square.

Stiffness tensors are 3x3 SPD matrices in Mandel form, acting on the
strain vector (e11, e22, sqrt(2)*e12), so tensor Frobenius norms and
the SPD cone coincide with their matrix counterparts. The map sends a
boundary displacement supported compactly in the patch to the
resulting traction; its matrix is the Schur complement of the interior
block of the vector P1 stiffness, equivalently the energy of the
lifted-and-corrected solution.

DNProblem is this problem's operators.ForwardProblem; its cells are
the Mandel tensors. The stiffness spans the interior dofs, numbered
patch side last (mesh.patch_last_order), and then the basis dofs, and
has a narrow band. W = C is the trailing k x k block of the factor U
itself: the Schur complement of the interior block is C.T @ C, and
U^-1 [0; C] are the basis data minus the interior corrections that
make each datum's zero extension discrete-harmonic.
"""

import numpy as np

from .errors import EmptyPatch
from .mesh import (
    boundary_mass_matrix,
    p1_gradients,
    patch_last_order,
    patch_nodes,
)
from .numerics import CellStiffness
from .operators import ForwardProblem

ROOT2 = np.sqrt(2.0)


def displacement_basis(mesh):
    """Vector hat functions at the patch's interior nodes: entries (k, 2)
    pairs a node index, in arclength order, with a component (0 for x,
    1 for y), interleaved per node, and gram is their (k, k) vector L2
    patch Gram matrix. Endpoint nodes carry no basis function, so every
    basis displacement vanishes outside the open patch."""
    pn = patch_nodes(mesh)
    if pn.size < 3:
        raise EmptyPatch("displacement basis needs an interior patch node")
    entries = np.array([(n, c) for n in pn[1:-1] for c in (0, 1)], dtype=np.intp)
    mass = boundary_mass_matrix(mesh)[1:-1, 1:-1]
    return entries, np.kron(mass, np.eye(2))


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
    inner = order[~np.isin(order, mesh.boundary_edges[:, 0])]
    return np.column_stack([2 * inner, 2 * inner + 1]).ravel()


def stiffness_form(mesh, active):
    """Vector P1 stiffness over the active dofs (active[d] is dof d's
    position among them, -1 if left out; dof 2*node + component),
    linear in the (N, 3, 3) Mandel cells; directions need not be
    positive definite."""
    b, area = _strain_operators(mesh)
    dofs = np.repeat(2 * mesh.triangles, 2, axis=1)
    dofs[:, 1::2] += 1
    return CellStiffness(b, area, dofs, mesh.labels, active)


class DNProblem(ForwardProblem):
    """The localized Dirichlet problem of one mesh.

    dofs lists the active dofs, the interior dofs in patch-last order
    followed by the k basis dofs; form is the vector P1 stiffness over
    them. trailing reads the trailing k x k block C of the factor off
    its band storage.
    """

    kind = "elasticity_dn"
    degree = 1  # F(t p) = t F(p)

    def __init__(self, mesh):
        entries, gram = displacement_basis(mesh)
        bd = 2 * entries[:, 0] + entries[:, 1]
        self.dofs = np.concatenate([interior_dofs(mesh), bd])
        active = np.full(2 * mesh.n_nodes, -1)
        active[self.dofs] = np.arange(self.dofs.size)
        super().__init__(gram, stiffness_form(mesh, active))
        # C[a, b] = U[n - k + a, n - k + b] for a <= b sits at
        # band[u + a - b, n - k + b] if b - a <= u; the rest of C is zero
        rows, n = self.form.band_shape
        k = self.k
        a, b = np.triu_indices(k)
        keep = b - a < rows
        self._block = a[keep], b[keep]
        self._in_band = rows - 1 + a[keep] - b[keep], n - k + b[keep]

    def sample_cells(self, rng, lo, hi):
        """One tensor per cell with eigenvalues drawn uniformly in
        [lo, hi] and eigenvectors from the QR of a Gaussian matrix."""
        # the draws keep the per-cell order; the rotations and products
        # run stacked, which gives the per-cell results bit for bit
        n_cells = self.form.n_cells
        e = np.empty((n_cells, 3))
        g = np.empty((n_cells, 3, 3))
        for j in range(n_cells):
            e[j] = rng.uniform(lo, hi, 3)
            g[j] = rng.standard_normal((3, 3))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        # a tensor that overflows is inf, which check_cells refuses
        with np.errstate(over="ignore"):
            a = (q * e[:, None, :]) @ q.transpose(0, 2, 1)
            return 0.5 * (a + a.transpose(0, 2, 1))

    def sample_direction(self, rng):
        """Gaussian symmetric tensors, one per cell, with unit Frobenius
        norm over the whole tuple."""
        d = rng.standard_normal((self.form.n_cells, 3, 3))
        d = 0.5 * (d + d.transpose(0, 2, 1))
        return d / float(np.linalg.norm(d))

    def trailing(self, f):
        """The trailing k x k block C of the factor f, upper triangular."""
        c = np.zeros((self.k, self.k))
        c[self._block] = f[self._in_band]
        return c

    def forward(self, cells):
        return dn_matrix(self, cells)


def dn_matrix(problem, cells):
    """Matrix of the localized Dirichlet-to-Neumann map: the Schur
    complement of the interior block. DNProblem.forward calls it; it is
    a module function only so that tracing and forward-counting code
    can wrap it here."""
    return problem.matrix(cells)
