"""Exception hierarchy shared across the package."""


class StructureError(Exception):
    """Base class for every structured error raised by this package."""


class ShapeMismatch(StructureError):
    """Tensor dimensions are inconsistent with the declared structure."""


class InternalInvariantBroken(StructureError):
    """A construction produced output that fails its own verifier.

    The constructions re-verify their results; on valid inputs success is
    guaranteed, so this error localizes either a bug or an input that was
    never verified.
    """


class NotStrict(StructureError):
    """Operation requires l3 = 0 and R2 = 0."""


class NotChainMap(StructureError):
    """The pair (R0, R1) does not commute with the differential."""


class NotComposable(StructureError):
    """Morphism boundaries do not match for composition."""


class SourceTargetMismatch(StructureError):
    """Homomorphism composition requires f.target == g.source."""


class BudgetExceeded(StructureError):
    """Enumeration would visit more candidates than the configured budget."""

    def __init__(self, message: str, candidate_count: int):
        super().__init__(message)
        self.candidate_count = candidate_count


class BadSite(StructureError):
    """Mutation site does not address a valid tensor entry."""


class FormatError(StructureError):
    """Base class for structure-document errors."""


class ParseError(FormatError):
    """Document is not syntactically valid; a JSON syntax error's message
    names its line and column."""


class DuplicateEntry(FormatError):
    """Two entries address the same index tuple."""


class BadRational(FormatError):
    """Coefficient string is not a valid rational literal."""


class UnknownKind(FormatError):
    """Document kind tag is not one the format defines."""


class VersionMismatch(FormatError):
    """Document format version is unsupported."""
