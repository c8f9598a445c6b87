"""A lock-free memoised property for immutable value objects."""

from __future__ import annotations

from typing import Any, Callable


class memoized_property:
    """Compute an attribute on first access and keep it in the instance dict.

    A non-data descriptor, like :func:`functools.cached_property`: once the
    value is in ``instance.__dict__`` the instance attribute shadows the
    descriptor, so later reads are plain attribute lookups.  Unlike
    ``cached_property`` on Python 3.11 it takes no lock on a first access.
    Only use it for values that are pure functions of an immutable
    instance: two threads racing on a first access both compute the same
    value, and one of them stores it.
    """

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: Any = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
