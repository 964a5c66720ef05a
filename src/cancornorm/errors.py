"""Exception types raised by the numerical core (``engine``, and the scalar
reference ``covblocks`` that shares its checks), the table store, the
simulation and the population moments.  A type's base decides its exit
code: ``DataError`` 3 (unreadable or mismatched input files),
``ComputeError`` 4 (thresholds, singular data), any other ``ValueError`` 2
(usage).  ``cli.main`` reads only the two bases (and numpy's
``LinAlgError``, a computation error), so a new error class needs no CLI
edit.  The modules that raise these re-export them.  ``engine``
imports nothing else from the package."""

from __future__ import annotations


class DataError(ValueError):
    """Input data or a table file that cannot be used (exit code 3)."""


class ComputeError(ValueError):
    """A computation that cannot proceed on valid input files (exit code 4)."""


class SampleSizeError(ComputeError):
    """Sample size below the threshold required by a statistic or block family."""


class BatchItemError(ComputeError):
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


class MomentsUndefinedError(ComputeError):
    """The alternative has no finite population moments of the needed order."""


class TableMismatchError(DataError):
    """A null table does not match the statistic or sample shape it is used for."""


class MissingTableError(ValueError):
    """No null table is available for a requested (statistic, n, p)."""


class NullTableFormatError(DataError):
    """Unparseable header or unsupported format version."""


class NullTableLengthError(DataError):
    """Payload length disagrees with the replication count in the header."""


class NullTableIntegrityError(DataError):
    """Payload checksum does not match the header."""
