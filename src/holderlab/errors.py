"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class
here, so tests and the CLI can name them without importing the module
that raised them.
"""


class HolderLabError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(HolderLabError):
    """A matrix expected to be SPD produced a non-positive pivot.

    For assembled systems: a coefficient outside the ellipticity cone,
    a singular system (no node grounded) or a stiffness that overflows.
    """


class DimensionMismatch(HolderLabError):
    """Operands have incompatible shapes."""


class ToleranceNotReached(HolderLabError):
    """The flat map's continued fraction hit its term cap before a step
    met the requested relative tolerance."""


class IncompatibleSubdivision(HolderLabError):
    """Mesh subdivision count does not align with the partition grid."""


class EmptyPatch(HolderLabError):
    """The measured boundary patch holds no basis: no mesh edge, so no
    current basis, or no interior node, so no displacement basis. The
    command line reports it as a ConfigError naming mesh.t0."""


class CellCountMismatch(HolderLabError):
    """Parameter tuple length differs from the partition cell count."""


class BasisMismatch(HolderLabError):
    """Data do not fit the boundary basis: a truncation order above its
    dimension, entries that form no upper triangle, or a Gram not SPD."""


class DegenerateSample(HolderLabError):
    """A sample has no finite ratio or logarithm: a non-finite record
    value, no sample pair with a positive operator distance to select
    from, a derivative whose largest entry is zero or not finite,
    sample points with coincident logarithms, or an F that underflows
    below the smallest normal float."""


class NotIdentifiable(HolderLabError):
    """The cells to recover have more parameters than the map's k(k+1)/2
    triangle entries, so no data determine them all."""


class InsufficientSpread(HolderLabError):
    """No fit possible: no records, fewer than two with positive
    distances, or fewer than two decades of delta_F spanned."""


class ConfigError(HolderLabError):
    """Experiment configuration failed validation.

    Carries the offending field name so the CLI can point at it.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
