"""The shared base of the package's immutable value classes.

A subclass writes its own ``__init__``; that signature's parameters are
its fields, in order.  The ``__init__`` stores each field in
``self.__dict__`` (the only way past the read-only ``__setattr__``),
which is also where ``functools.cached_property`` keeps its values and
where the unchecked ``_of`` constructors write; neither adds a field.
"""

from operator import attrgetter


class Value:
    """Field-wise ``==`` and ``hash``, a field-listing ``repr`` and read-only attributes.

    Objects are equal when they are of the same class and their field
    tuples are equal, and hash as that tuple; any other operand is
    unequal.  ``repr`` reads ``Name(field=value, ...)``.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]
        cls._key = attrgetter(*cls._fields)  # one C call reads the field tuple

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
