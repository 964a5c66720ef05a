"""Exception types raised by the numerical core (``engine``, and the scalar
reference ``covblocks`` that shares its checks), and every other exception
that ``cli.main`` maps to an exit code, so that the CLI reads them without
loading the modules that raise them (which re-export them).  ``engine``
imports nothing else from the package."""

from __future__ import annotations


class SampleSizeError(ValueError):
    """Sample size below the threshold required by a statistic or block family."""


class BatchItemError(ValueError):
    """A numerical check failed on a stack of matrices or samples.

    ``item`` is the index, within the stack that was checked, of the first
    item that failed, or None when the error does not point at one item.
    """

    def __init__(self, message: str, item: int | None = None):
        super().__init__(message)
        self.item = item


class DegenerateSampleError(BatchItemError):
    """Sample covariance (or another required matrix) is rank deficient."""


class SingularBlockError(BatchItemError):
    """A covariance block is numerically singular; the message names the block."""


class EigenvalueRangeError(BatchItemError):
    """A squared canonical correlation fell outside [0, 1] by more than the
    floating-point tolerance.  This signals a broken block construction, not
    unusual data, so it is an error rather than a clamp."""


class FunctionalDomainError(BatchItemError):
    """A functional of the squared canonical correlations is undefined
    (eigenvalue at 1 makes the ratio trace blow up)."""


class MomentsUndefinedError(ValueError):
    """The alternative has no finite population moments of the needed order."""


class TableMismatchError(ValueError):
    """A null table does not match the statistic or sample shape it is used for."""


class MissingTableError(ValueError):
    """No null table is available for a requested (statistic, n, p)."""


class NullTableFormatError(ValueError):
    """Unparseable header or unsupported format version."""


class NullTableLengthError(ValueError):
    """Payload length disagrees with the replication count in the header."""


class NullTableIntegrityError(ValueError):
    """Payload checksum does not match the header."""
