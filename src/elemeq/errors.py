"""Shared exception types, and the frozen dataclass of a node shape.

Every solver in this package is an oracle of some kind: it must either
return a correct answer or fail loudly.  Nothing here ever degrades to a
guess, so budget overruns and malformed inputs get their own exception
types that callers (and the command line driver) can tell apart.
"""

from dataclasses import FrozenInstanceError, dataclass


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


def frozen_shape(cls):
    """``dataclass(frozen=True)`` for a node shape that its nodes subclass: the
    generated ``__setattr__`` and ``__delattr__`` refuse every name only on the
    decorated class itself, so they are replaced to refuse it on subclasses too."""
    def refuse(self, name, *value):
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    cls = dataclass(frozen=True)(cls)
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls
