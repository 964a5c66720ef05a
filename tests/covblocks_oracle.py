"""Scalar summaries of one set of squared canonical correlations.

The package evaluates the five summaries on (B, k) stacks of eigenvalues
(``cancor.batch_functionals``); these read them one at a time from a
``CanCorSq``, the result type of the scalar reference path
(``covblocks.lambda_blocks``/``psi_blocks`` then ``cancor.cancor_sq``), so
that path can be compared with the engine statistic by statistic.
"""

from cancornorm.cancor import _FUNCTIONALS, FUNCTIONAL_NAMES, CanCorSq


def functional_value(c: CanCorSq, name: str) -> float:
    """One scalar summary of the squared canonical correlations."""
    if name not in _FUNCTIONALS:
        raise ValueError(f"unknown functional {name!r}")
    return float(_FUNCTIONALS[name](c.values[None])[0])


def functionals(c: CanCorSq) -> dict[str, float]:
    """All five summaries: trace, product, ratio trace, largest and smallest."""
    return {name: functional_value(c, name) for name in FUNCTIONAL_NAMES}
