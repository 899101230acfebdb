"""Exception hierarchy for vermatwist.

Every domain error raised by the library derives from ``VermatwistError``,
so callers (in particular the command line driver) can distinguish bad
mathematical input from programming mistakes.
"""

from __future__ import annotations


class VermatwistError(Exception):
    """Base class for all domain errors raised by this package."""


class NotFiniteType(VermatwistError):
    """The Cartan matrix does not describe a finite root system."""


class NotARoot(VermatwistError):
    """A vector was used where a root of the system was required."""


class IndexOutOfRange(VermatwistError):
    """A simple reflection index lies outside ``1..rank``."""


class MixedRootSystems(VermatwistError):
    """Objects attached to different root systems were combined."""


class GroupTooLarge(VermatwistError):
    """Weyl group enumeration exceeded the configured size bound."""


class NotAntidominant(VermatwistError):
    """The base weight of a block must be antidominant."""


class NeedsUserMatrix(VermatwistError):
    """No built-in decomposition matrix is available for this block."""


class BadDecompositionFile(VermatwistError):
    """A user supplied decomposition matrix failed validation."""


class NotMultiplicityFree(VermatwistError):
    """Layer extraction requires a multiplicity free composition series."""


class UnsupportedBlock(VermatwistError):
    """The requested operation is only defined on regular integral blocks."""


class TruncationTooSmall(VermatwistError):
    """The truncation order is too small to certify the requested check."""


class NotInBlockOrbit(VermatwistError, ValueError):
    """A weight or parameter lies outside the block's integral Weyl orbit."""


class InvariantViolated(VermatwistError):
    """An internal invariant failed; checked by a raise so ``python -O`` keeps it."""
