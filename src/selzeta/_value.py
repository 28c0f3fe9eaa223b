"""The guards that the value classes of every layer share."""

import operator


class Frozen:
    """A value that per-process caches may hand to many callers: its
    __init__ writes the attributes into __dict__, and no one may assign or
    delete an attribute afterwards (AttributeError)."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


def integer(value):
    """value as an int, read through operator.index, so that an int or a
    numpy integer passes and a float, a Fraction or a str raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{value!r} is not an integer") from None
