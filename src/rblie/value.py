"""Immutable value classes, defined without generating code.

A `Value` subclass declares its fields by annotation, after its bases'
fields; a class-level value is a default.  `__init__` binds fields by
position or keyword, then runs `__post_init__`; assignment and deletion
raise `AttributeError`; `==` and `hash` compare the class and the fields
(``class C(Value, uncompared=("labels",))`` leaves fields out); `repr`
lists the fields.  Instances keep the ``__dict__`` that `cached_property`
needs.  This is a frozen dataclass without the decorator, which compiles
generated source for every class (about 150 methods for this package's
26) and imports `inspect`, `ast` and `dis`: in a fresh ``import rblie.cli``
(2 CPUs, Python 3.11.7) the decorator took 25-27 ms of 80-82 ms.  Fields
are written one by one with ``object.__setattr__``, as the decorator's
code does; the tensor maps, built most often, spell out their `__init__`.

``class C(Value, shapes={"phi3": "target.linf.dim1 source.linf.dim0"})``
declares the bounds of the map at each attribute path, output first, as
attribute paths of the object (the notation of the `serialize` kinds
table); subclasses inherit them.  `__init__` checks them before
`__post_init__`: a map must have ``shape == bounds``, or it raises
`ShapeMismatch` naming the path.
"""

from __future__ import annotations

from itertools import accumulate
from operator import attrgetter

from .errors import ShapeMismatch

_set = object.__setattr__


class Value:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _uncompared: frozenset = frozenset()
    _shapes: dict[str, str] = {}          # map path -> its bounds
    _checked: tuple[tuple[str, slice], ...] = ()  # (path, its bounds in `_shaped`)

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (),
                          shapes: dict[str, str] | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in cls.__dict__.get("__annotations__", {})
                    if name not in cls._fields)
        cls._fields += own
        cls._defaults = {**cls._defaults,
                         **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        cls._uncompared |= frozenset(uncompared)
        # the class and the compared fields, as one tuple
        cls._compared = attrgetter("__class__", *(
            name for name in cls._fields if name not in cls._uncompared))
        cls._shapes = {**cls._shapes, **(shapes or {})}
        if cls._shapes:
            bounds = [b.split() for b in cls._shapes.values()]
            # the maps, then all their bounds, as one tuple
            cls._shaped = attrgetter(*cls._shapes, *(b for names in bounds for b in names))
            ends = list(accumulate(map(len, bounds), initial=len(bounds)))
            cls._checked = tuple(zip(cls._shapes, map(slice, ends, ends[1:])))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for field, value in zip(self._fields, args):
            _set(self, field, value)
        if self._checked:
            got = self._shaped(self)
            for at, (path, bounds) in enumerate(self._checked):
                if got[at].shape != got[bounds]:
                    raise ShapeMismatch(f"{path} is not a {'x'.join(map(str, got[bounds]))} map")
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """One value per field: `args` in order, then `kwargs` or the defaults."""
        fields, name, rest = cls._fields, cls.__name__, cls._fields[len(args):]
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields but {len(args)} were given")
        for field in kwargs:
            if field not in rest:
                raise TypeError(f"{name} got field {field!r} twice" if field in fields
                                else f"{name} has no field {field!r}")
        values = {**cls._defaults, **kwargs}
        for field in rest:
            if field not in values:
                raise TypeError(f"{name} is missing field {field!r}")
        return args + tuple(values[field] for field in rest)

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == other._compared(other)

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def replace(obj: Value, **changes):
    """A copy of `obj` with the fields in `changes` replaced; `__init__`
    and `__post_init__` run again."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})

