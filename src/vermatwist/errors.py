"""Exception hierarchy for vermatwist, and the package's one freezing rule.

Every domain error raised by the library derives from ``VermatwistError``,
so callers (in particular the command line driver) can distinguish bad
mathematical input from programming mistakes.

Every layer imports this module, so it also holds the base classes of
the package's value objects.  :class:`_Frozen` refuses to assign or
delete an attribute, raising ``dataclasses.FrozenInstanceError`` as a
frozen dataclass does; ``dataclasses`` is imported only when an
assignment is refused, so no command loads it.  :class:`_Record` names
its fields once and gives them the construction, equality, hash and
repr of a frozen dataclass.  Both stacks build on them: the local ring
element, the rank 1 laboratory's ``WeightMap``, and the roots, weights,
group elements and block records.
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


_set = object.__setattr__


class _Frozen:
    """Refuses to assign or delete an attribute, as a frozen dataclass does."""

    __slots__ = ()

    def __setattr__(self, name, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Record(_Frozen):
    """A frozen record of the fields named in ``_fields``, set positionally
    or by keyword, compared, hashed and shown as a frozen dataclass is.

    A record that checks its fields, or is built once per sum formula
    call, has its own ``__init__`` with the fields as parameters; the
    ones on the sum formula's path store them in the instance dict
    directly, as this generic one, which matches the arguments to
    ``_fields``, costs about four times as much.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        if len(args) > len(self._fields) or kwargs.keys() != set(self._fields[len(args) :]):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name, value in (*zip(self._fields, args), *kwargs.items()):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"
