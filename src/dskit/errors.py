"""Exception hierarchy, the integer check and result-record bases shared by all dskit modules."""

from operator import index


class DskitError(Exception):
    """Base class for all errors raised by dskit."""


class ValidationError(DskitError):
    """Invalid construction input (bad vertex ids, unbalanced facet, bad params)."""


class ParseError(DskitError):
    """Malformed .cplx or .colors input; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(DskitError):
    """Argument outside the operation's domain (e.g. a face not in the complex)."""


class ResourceLimitError(DskitError):
    """The face-count cap (max_faces / DSKIT_MAX_FACES) was exceeded."""


class PreconditionError(DskitError):
    """A relation's precondition failed; carries a witness face when one exists."""

    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        self.witness = witness
        if witness is not None:
            message = f"{message} (witness face: {witness})"
        super().__init__(message)


def _checked_int(value: object, what: str) -> int:
    """value as an int by operator.index, so 1.5 and "1" are not truncated
    or parsed; a ValidationError that names value if it is no integer."""
    try:
        return index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


class _Record:
    """A result record: its fields are its __slots__, in __init__ order,
    and _fields() their values as repr, equality, copy and pickle see them.

    It has the dataclass repr and equality, and copies and pickles through
    __init__; unlike a dataclass, it costs no import of inspect at start-up.
    It is unhashable, as it defines __eq__ alone; a _FrozenRecord is
    hashable and read-only.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._fields())
        args = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __reduce__(self):
        return type(self), self._fields()


class _FrozenRecord(_Record):
    """A record whose __init__ sets its fields with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())
