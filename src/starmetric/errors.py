"""Exception types shared across the toolkit, and the base of its value records.

Domain errors derive from :class:`StarmetricError` so callers (notably the
CLI) can distinguish bad input from genuine bugs.  :class:`InternalCheckError`
is reserved for self-checks that are mathematically guaranteed to pass; it
firing means the implementation is wrong, never the input.

Every record module imports this one, so the frozen-record base
:class:`_Record` lives here too.
"""

from __future__ import annotations


class _Record:
    """An immutable value record.

    A subclass lists its fields in order in ``_fields``, and a class
    attribute of a field's name is that field's default.  A record is built
    from its fields by position or by keyword, reprs as ``Name(field=value,
    ...)``, equals only a record of its own class with equal fields, hashes
    by its field tuple, and refuses assignment and deletion.  A subclass
    that normalises a field does so in its own ``__init__``, through
    ``object.__setattr__``.  Defining a subclass generates and compiles no
    code, unlike a frozen dataclass.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call that names fields or leaves them to their defaults."""
        fields = cls._fields
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        if len(args) > len(fields) or kwargs.keys() & fields[:len(args)] or values.keys() != set(fields):
            raise TypeError(
                f"{cls.__name__}() takes each of its fields ({', '.join(fields)}) once, "
                "by position or by keyword, unless it has a default"
            )
        return [values[name] for name in fields]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class StarmetricError(Exception):
    """Base class for all toolkit errors."""


class InvalidSpaceError(StarmetricError, ValueError):
    """A distance matrix violates a structural axiom.

    ``kind`` is one of ``"labels"``, ``"shape"``, ``"diagonal"``,
    ``"asymmetry"``, ``"negative"``, ``"coincident"`` so each axiom
    violation is reported distinctly.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class NotUltrametricError(StarmetricError, ValueError):
    """An operation requiring an ultrametric space got a non-ultrametric one.

    ``violation`` carries the first triple breaking the strong triangle
    inequality (see :class:`starmetric.spaces.Violation`).
    """

    def __init__(self, violation, message: str | None = None):
        super().__init__(message or f"space is not ultrametric: {violation}")
        self.violation = violation


class DegenerateLabelingError(StarmetricError, ValueError):
    """A labeled tree has an edge whose two endpoint labels are both zero."""

    def __init__(self, edge: tuple[str, str]):
        super().__init__(f"degenerate labeling: both endpoints of edge {edge} are labeled 0")
        self.edge = edge


class CenterViolationError(StarmetricError, ValueError):
    """A candidate star center fails the center condition.

    ``pair`` is the first witnessing pair (x, y) with d(center, x) > d(y, x).
    """

    def __init__(self, center: str, pair: tuple[str, str], message: str):
        super().__init__(message)
        self.center = center
        self.pair = pair


class SizeCapError(StarmetricError, ValueError):
    """A search was refused because the input exceeds its size cap."""


class NotCompleteMultipartiteError(StarmetricError, ValueError):
    """A four-point diametrical graph is not complete multipartite.

    For four-point inputs this certifies the space is not ultrametric.
    """


class InternalCheckError(StarmetricError, RuntimeError):
    """A theorem-backed self-check failed; this always indicates a bug."""
