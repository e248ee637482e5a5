"""Exception types shared across the package."""


class BundleformsError(Exception):
    """Base class for all library errors.  `point` is the sampled point
    that witnesses the failure, where there is one."""

    def __init__(self, *args, point=None):
        super().__init__(*args)
        self.point = None if point is None else tuple(float(v) for v in point)


class GuardViolation(BundleformsError):
    """An expression was evaluated outside its declared domain."""


class DimensionMismatch(BundleformsError):
    pass


class OpenSetRejected(BundleformsError):
    pass


class NotDisjoint(BundleformsError):
    pass


class CoverageFailure(BundleformsError):
    pass


class ContainmentFailure(BundleformsError):
    pass


class BaseMismatch(BundleformsError):
    pass


class ImageEscapesBase(BundleformsError):
    pass


class GeneratorsDegenerate(BundleformsError):
    pass


class RankDrop(BundleformsError):
    pass


class NoChartFound(BundleformsError):
    pass


class NotCatalogBase(BundleformsError):
    pass


class NearSingular(BundleformsError):
    pass


class InconsistentSignature(BundleformsError):
    """Raised when per-sample diagonalization types disagree."""

    def __init__(self, message, types, points=None, *, point=None):
        super().__init__(message, point=point)
        self.types = types
        self.points = points or []


class OmegaViolation(BundleformsError):
    pass


class NonFiniteForm(BundleformsError):
    """A form field evaluated to NaN or infinity at a sampled point."""


class TCoverGap(BundleformsError):
    pass


class EndpointMismatch(BundleformsError):
    pass


class ContractionEscapesBase(BundleformsError):
    pass


class NotPolynomial(BundleformsError):
    pass


class SpecParseError(BundleformsError):
    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class UnresolvedReference(BundleformsError):
    pass
