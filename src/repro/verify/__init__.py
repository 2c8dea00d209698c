"""Exhaustive verification of generated and baseline libraries."""

from .exhaustive import Failure, VerificationReport, verify_exhaustive
from .theorem import (
    DerivedFormatReport,
    derived_formats,
    verify_derived_format,
    verify_theorem,
)

__all__ = [
    "DerivedFormatReport",
    "Failure",
    "VerificationReport",
    "derived_formats",
    "verify_derived_format",
    "verify_exhaustive",
    "verify_theorem",
]
