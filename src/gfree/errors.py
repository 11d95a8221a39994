"""Exception hierarchy and value-record helper shared by all gfree modules.

Every domain error raised by the package derives from GfreeError so the
CLI can map any of them to exit code 2.  `record` makes the package's
frozen value classes without importing `dataclasses`, which would cost
every CLI start-up its import and one generated-code `exec` per class.
"""

from __future__ import annotations


def record(cls):
    """Make cls a frozen value class over its annotated fields, in order.

    As with a frozen dataclass, the constructor takes the fields by position
    or keyword, fills in defaults and then calls __post_init__ if the class
    has one.  Instances compare equal and hash by their field values, only
    against instances of the same class; any assignment or deletion raises
    AttributeError; repr is `Name(field=value, ...)`.  Fields live in the
    instance __dict__, so functools.cached_property works on records.  A
    plain subclass keeps the fields and may override __post_init__.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(type(self).__name__, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def values(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


def _bind(cls_name: str, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of one record construction, in field order."""
    if len(args) > len(names):
        raise TypeError(f"{cls_name}() takes {len(names)} arguments but {len(args)} were given")
    out = list(args)
    for name in names[len(args) :]:
        if name in kwargs:
            out.append(kwargs.pop(name))
        elif name in defaults:
            out.append(defaults[name])
        else:
            raise TypeError(f"{cls_name}() missing required argument {name!r}")
    if kwargs:
        raise TypeError(f"{cls_name}() got an unexpected keyword argument {next(iter(kwargs))!r}")
    return out


class GfreeError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(GfreeError):
    """A text input (graph file, cotree file, tree file) failed to parse."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class DuplicateVertexError(GfreeError):
    """Vertex names must be pairwise distinct."""


class UnknownEndpointError(GfreeError):
    """An edge refers to a vertex that was not declared."""


class SelfLoopError(GfreeError):
    """Edges must join two distinct vertices."""


class LengthMismatchError(GfreeError):
    """Parallel lists (parts/labels) must have equal length."""


class BadSizeError(GfreeError):
    """A numeric size parameter is out of range."""


class BadPartialError(GfreeError):
    """A partial vertex map is not injective or uses unknown vertices."""


class EmptyGraphError(GfreeError):
    """The operation needs a nonempty graph."""


class UnknownVertexError(GfreeError):
    """A named vertex or leaf does not occur in the input."""


class SameVertexError(GfreeError):
    """The operation needs two distinct vertices."""


class NotCographError(GfreeError):
    """The graph contains an induced P4; carries a witness when known.

    witness: tuple of four vertex names inducing a path, in path order,
    or () when the offending graph was identified indirectly.
    """

    def __init__(self, message: str, witness: tuple[str, ...] = ()):
        super().__init__(message)
        self.witness = witness


class InvalidCotreeError(GfreeError):
    """A cotree value violates the structural invariants; carries the report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class TooLargeError(GfreeError):
    """Input exceeds the documented size bound of a brute-force routine."""


class LastLeafError(GfreeError):
    """Cannot delete the only leaf of a cotree."""


class EmptyIndexSetError(GfreeError):
    """The antichain index set must be nonempty."""


class ForbiddenInsideP4Error(GfreeError):
    """The forbidden graph embeds into P4, so the construction is undefined."""


class MalformedEncodingError(GfreeError):
    """A graph handed to the decoder is not a valid gadget encoding."""


class NotIsomorphismError(GfreeError):
    """A supplied vertex map is not an isomorphism between its graphs."""


class NotOrderThreeError(GfreeError):
    """The supplied permutation does not have order exactly 3."""


class NotAnExtensionError(GfreeError):
    """The graph does not extend the base structure as required."""


class BaseNotFreeError(GfreeError):
    """The base graph already contains the forbidden induced subgraph."""


class UnknownConstantError(GfreeError):
    """A formula constant does not occur among the target's constants."""
