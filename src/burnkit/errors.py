"""Exception hierarchy shared by all burnkit modules."""


class BurnkitError(Exception):
    """Base class for all burnkit errors."""


class InternalError(BurnkitError):
    """A result failed burnkit's own verification: an implementation bug,
    not bad input."""


class MalformedEdge(BurnkitError):
    """Edge with an out-of-range endpoint, a self-loop, or a duplicate."""


class Unreachable(BurnkitError):
    """Queried vertices lie in different components."""


class NotAnEdge(BurnkitError):
    """The given pair is not an edge of the tree."""


class NotDegreeTwo(BurnkitError):
    """Smoothing/lifting requested at a vertex whose degree is not 2."""


class NotATree(BurnkitError):
    """Graph is not connected or has the wrong edge count for a tree."""


class InvalidSource(BurnkitError):
    """Schedule names a vertex id outside the graph."""


class Disconnected(BurnkitError):
    """Operation requires a connected graph."""


class TooLarge(BurnkitError):
    """Instance exceeds the configured exact-search size limit."""


class TooMany(BurnkitError):
    """The spanning-tree enumeration reached one tree more than its limit."""


class TooSmall(BurnkitError):
    """Instance below an operation's minimum size: anchor search needs 6
    vertices, burning and HIST search need 1."""


class NotAHIT(BurnkitError):
    """Tree has a degree-2 vertex, so the HIT construction does not apply."""


class BaseScheduleIncomplete(BurnkitError):
    """Schedule handed to the lift does not burn the smoothed tree."""


class LiftVerificationFailed(InternalError):
    """Lifted schedule failed re-simulation; indicates an implementation bug."""


class BadParams(BurnkitError):
    """Generator parameters invalid for the requested family."""


class MalformedPlan(BurnkitError):
    """Schedule or plan JSON that does not match the expected shape."""


class MalformedSpec(BurnkitError):
    """Bench spec JSON that does not match the expected shape."""


class CertificationFailed(InternalError):
    """A certified result failed its own check; indicates an implementation bug."""


def certify(cond: bool, msg: str) -> None:
    """Raise CertificationFailed unless cond holds. Unlike assert, this check
    stays in place under python -O."""
    if not cond:
        raise CertificationFailed(msg)
