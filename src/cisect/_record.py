"""Frozen value records: ``@record`` stands in for ``@dataclass(frozen=True)``.

Importing ``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``, and each
decoration compiles its generated methods with ``exec``; together that was
about half of ``import cisect``.  ``record`` builds the same methods as
closures over the annotated field names, in annotation order:

- ``__init__`` taking the fields positionally or by keyword, a field's class
  attribute as its default, and calling ``__post_init__`` when defined;
- ``__eq__``, true only between instances of the same class with equal
  field tuples, and ``__hash__``, the hash of the field tuple;
- ``__repr__`` in the dataclass format;
- ``__setattr__`` and ``__delattr__``, which raise FrozenRecordError;
- ``__match_args__``, the field names.

A method the class defines itself is kept, as dataclass keeps it.  Fields
are set with ``object.__setattr__``, which leaves an instance's attributes
in its compact per-class layout; ``functools.cached_property`` and pickling
work as they do on any instance with a ``__dict__``.
"""
from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


def record(cls):
    """Turn the annotated class attributes of ``cls`` into frozen fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    nfields = len(names)
    post_init = getattr(cls, "__post_init__", None)
    title = cls.__qualname__

    def bind(args: tuple, kwargs: dict) -> list:
        if len(args) > nfields:
            raise TypeError(f"{title}() takes {nfields} arguments but {len(args)} were given")
        bound = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif name in defaults:
                bound.append(defaults[name])
            else:
                raise TypeError(f"{title}() missing required argument: {name!r}")
        if kwargs:
            extra = next(iter(kwargs))
            raise TypeError(f"{title}() got an unexpected or repeated argument: {extra!r}")
        return bound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != nfields:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post_init is not None:
            post_init(self)

    getter = attrgetter(*names)
    # the field tuple; attrgetter returns a bare value for a single name
    values = getter if nfields > 1 else lambda self: (getter(self),)

    def __eq__(self, other):
        # field values are never NaN-like, so an instance equals itself
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{title}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    cls.__match_args__ = names
    return cls
