"""Records: slotted classes whose construction, ==, hash and repr read their
fields.

A record names its fields once, ``__slots__ = _fields = (...)``, and is
built from one value per field, in that order: ``Record.__init__`` stores
them through the slots' own setters, found once per class, and refuses a
wrong number of values.  A record that checks its input or sets up derived
data calls it after the checks; Mat (the most built object), Arrow (which
caches its hash) and Path (whose arrows default to none) keep a
straight-line ``__init__``.  Nothing is compiled when a class is defined.
Record gives == (the object itself, with no field read, or the same class
and equal fields), repr and no hash; Frozen adds the hash of the tuple of
fields and refuses every store after ``__init__``, which a slot setter
bypasses.
ParseError lives here, below every constructor that refuses its data with
it.
"""
from operator import attrgetter


class ParseError(ValueError):
    """Refused input: a JSON pointer into the spec ("" for the whole of
    it) and what is wrong there."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer, self.message = pointer, message


class Record:
    __slots__ = ()
    __hash__ = None
    _fields, _setters, _values = (), (), staticmethod(lambda r: ())

    def __init_subclass__(cls):
        fields = cls.__dict__.get("_fields")
        if fields:  # the field values, always as a tuple
            get = attrgetter(*fields)
            cls._values = staticmethod(
                get if len(fields) > 1 else lambda r: (get(r),))
            cls._setters = tuple(cls.__dict__[f].__set__ for f in fields)

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__qualname__} takes "
                            f"{len(self._setters)} values, got {len(values)}")
        for store, v in zip(self._setters, values):
            store(self, v)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in
                           zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
