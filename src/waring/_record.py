"""The package's one immutable value-class base, cheap to import.

A subclass names its fields in FIELDS. Its __init__, the public
constructor, validates them and stores them with _set, which writes the
instance __dict__ past the refusing __setattr__. waring's own walks,
whose values are canonical by construction, build through _of instead,
which binds the fields past __init__. Instances keep a __dict__ rather
than __slots__, so pickle restores them without calling __setattr__.
"""


class Record:
    """Equality, hashing, repr and immutability over the fields in FIELDS."""

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        """Bind values to FIELDS, in order."""
        vars(self).update(zip(self.FIELDS, values))

    @classmethod
    def _of(cls, *values: object):
        """An instance with values bound to FIELDS past __init__ and its checks: for values known valid."""
        self = object.__new__(cls)
        self._set(*values)
        return self

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.FIELDS])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.FIELDS, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")
