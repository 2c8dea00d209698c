"""Exhaustive verification of generated and baseline libraries."""

from .exhaustive import Failure, VerificationReport, verify_exhaustive

__all__ = [
    "Failure",
    "VerificationReport",
    "verify_exhaustive",
]
