"""The base of the package's immutable value types.

A value class names its fields, in constructor order, in ``FIELDS`` and
stores them in ``__slots__``; its own ``__init__`` checks and normalises
the arguments and stores each field with ``set_field``.  ``Value`` derives
the rest from ``FIELDS``: equality between values of the same class and a
hash, both of the field tuple; the repr ``Name(field=value, ...)``;
pickling and copying through the constructor, which keep a stored
``report`` (of a quandle or a cocycle) and rebuild any other cached table;
and an ``AttributeError`` on any assignment or deletion after construction.
"""

from operator import attrgetter

set_field = object.__setattr__  # the one way to store a field, used by __init__ only


class Value:
    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._get = attrgetter(*cls.FIELDS)  # a tuple for two or more fields, a lone field bare

    def _fields(self) -> tuple:
        values = self._get(self)
        return values if len(self.FIELDS) > 1 else (values,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == self._get(other)  # a lone field compares like its 1-tuple
        return NotImplemented

    def __hash__(self) -> int:
        values = self._get(self)  # _fields, inlined: dict and set lookups hash values
        return hash(values if len(self.FIELDS) > 1 else (values,))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Pickle and copy call the constructor with the fields; a stored
        validity ``report`` goes along, no other cached table does."""
        report = getattr(self, "__dict__", {}).get("report")
        if report is None:
            return type(self), self._fields()
        return type(self), self._fields(), {"report": report}
