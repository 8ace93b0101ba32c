"""Exception types shared across the package.

The CLI maps these onto distinct exit codes (see pcsq.cli).
"""

import numpy as np


class PcsqError(Exception):
    """Base class for all package errors."""


class ConfigError(PcsqError):
    """Invalid configuration document, flag, or argument."""


class IngestError(PcsqError):
    """Malformed input data (CSV rows, binary core files, edge lists)."""


class NumericError(PcsqError):
    """NaN encountered, log of an exact zero, or a non-finite quantity
    where a finite one is required."""


class DomainError(NumericError):
    """Input point outside a family's domain (e.g. beyond spline knots)."""

    @classmethod
    def check(cls, x, in_domain, what):
        """``x`` as float64 when ``in_domain(x)`` holds at every value; else
        raise, naming the first value where it fails and ``what`` is wrong."""
        x = np.asarray(x, dtype=np.float64)
        bad = ~in_domain(x)
        if bad.any():
            idx = int(np.argmax(bad.reshape(-1)))
            raise cls(f"value {float(x.reshape(-1)[idx])!r} {what} (first bad index {idx})")
        return x


class DegenerateModelError(PcsqError):
    """Partition function is zero or otherwise unusable as a normalizer."""


class UnsupportedStructureError(PcsqError):
    """Operation requires a structural property the circuit lacks."""


class PreconditionError(PcsqError):
    """Caller violated a documented operation precondition."""
