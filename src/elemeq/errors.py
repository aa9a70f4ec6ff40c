"""Shared exception types, and ``Frozen``, the base of every immutable value.

Every solver in this package is an oracle of some kind: it must either
return a correct answer or fail loudly.  Nothing here ever degrades to a
guess, so budget overruns and malformed inputs get their own exception
types that callers (and the command line driver) can tell apart.
"""

from collections import _tuplegetter  # namedtuple's field accessor, in C


class ResourceBudgetError(RuntimeError):
    """A computation exceeded its declared search budget.

    ``best_known`` optionally carries the tightest enclosure or partial
    result obtained before the budget ran out.
    """

    def __init__(self, message, best_known=None):
        super().__init__(message)
        self.best_known = best_known


class PreconditionError(ValueError):
    """An input violates a documented precondition of an operation."""


class ParseError(ValueError):
    """Rejected input text, with a position when one is known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class Frozen(tuple):
    """An immutable value whose fields are the annotations of its class body.

    A value is the tuple ``(class, *fields)``, so construction, ``==``, ``hash``
    and the field reads run in C, as the memos keyed on formulas need; the class
    in front keeps equal fields of two classes unequal, and orders values of one
    class as tuples of their fields.  A subclass inherits its base's fields and
    appends its own; a class attribute named like a field is its default.  Each
    class gets a ``__new__`` taking the fields, which then calls a
    ``__post_init__`` if the class has one; a class that must normalise its
    fields defines ``__new__`` itself and ends with ``Frozen.__new__``.  Every
    attribute write is refused, and pickling rebuilds through ``__new__``.
    """

    __slots__ = ()
    _fields = _defaults = ()

    def __new__(cls, *fields):
        return tuple.__new__(cls, (cls, *fields))

    def __init_subclass__(cls):
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults += tuple(cls.__dict__[name] for name in own if name in cls.__dict__)
        for index, name in enumerate(own, len(cls._fields) + 1):
            setattr(cls, name, _tuplegetter(index, None))
        cls._fields += own
        # a subclass adding no fields and no check keeps its base's constructor
        inherits = not (own or Frozen in cls.__bases__ or "__post_init__" in cls.__dict__)
        if inherits or "__new__" in cls.__dict__:
            return
        params = ", ".join(("_cls",) + cls._fields)
        body = f"self = _new(_cls, ({params},))"
        if hasattr(cls, "__post_init__"):
            body += "; self.__post_init__()"
        scope = {"_new": tuple.__new__}
        exec(f"def __new__({params}): {body}; return self", scope)
        cls.__new__ = scope["__new__"]
        cls.__new__.__qualname__ = f"{cls.__qualname__}.__new__"
        cls.__new__.__defaults__ = cls._defaults or None

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self[1:]))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self[1:]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
