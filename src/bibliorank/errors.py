"""Exception hierarchy shared across the package."""


class BiblioRankError(Exception):
    """Base class for all package-specific errors."""


class MissingFile(BiblioRankError):
    pass


class SchemaError(BiblioRankError):
    def __init__(self, message, path=None, row=None):
        detail = message
        if path is not None:
            detail = f"{path}: {detail}"
        if row is not None:
            detail = f"{detail} (row {row})"
        super().__init__(detail)
        self.path = path
        self.row = row


class DanglingReference(BiblioRankError):
    pass


class DuplicateKey(BiblioRankError):
    pass


class UnknownSDS(BiblioRankError):
    pass


class UnknownUniversity(BiblioRankError):
    pass


class UnknownUDA(BiblioRankError):
    pass


class UnknownResearcher(BiblioRankError):
    pass


class NegativeValue(BiblioRankError):
    pass


class MissingBaseline(BiblioRankError):
    pass


class ZeroStaff(BiblioRankError):
    pass


class NoPublications(BiblioRankError):
    """Quality score undefined for a unit without publications (absent, not zero)."""


class AllAbsent(BiblioRankError):
    pass


class NoStaffInUda(BiblioRankError):
    pass


class EmptyScope(BiblioRankError):
    pass


class ZeroBase(BiblioRankError):
    pass


class NoEligibleUniversities(BiblioRankError):
    pass


class EmptyIntersection(BiblioRankError):
    pass


class InvalidConfig(BiblioRankError):
    pass


class InvalidCorpus(BiblioRankError):
    """A loaded corpus breaks a byline rule that model.validate checks: an
    author count below the publication's authorship records, an author
    position outside the byline, or a position listed twice."""


class TooLarge(BiblioRankError):
    pass
