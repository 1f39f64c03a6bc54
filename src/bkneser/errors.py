"""Exception hierarchy shared by all bkneser modules.

Two families matter to callers:

* ``DomainError`` and its subclasses signal bad input (wrong cardinality,
  out-of-range rank, invalid connection set, ...).  The CLI maps these to
  exit code 2.
* ``VerificationError`` and its subclasses signal that a checked claim
  failed (a count mismatch, a broken isomorphism, a structure assertion).
  The CLI maps these to exit code 1.

The CLI also maps ``OSError`` (an unwritable ``--out`` path, a full disk, a
closed pipe or a closed stdout, in a command's writes or in the final flush
of stdout that ``cli.main`` makes) and ``MemoryError`` (an instance too
large for the machine, reported as "out of memory" without a traceback) to
exit code 2.  Any other exception escaping a command is a bug: the CLI
reports it as an internal error, prints the traceback to stderr and exits
with code 3.

``as_int`` checks an integer argument where it enters, so that a float or a
string raises ``DomainError`` instead of a raw ``TypeError`` further in.
"""

import operator


class BKneserError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BKneserError):
    """Input violates a documented precondition."""


class NullGraphError(DomainError):
    """H(2k, k) requested without explicitly allowing the edgeless case."""


class CardinalityError(DomainError):
    """A subset has the wrong number of elements for the requested operation."""


class RankError(DomainError):
    """A subset rank is outside [0, C(n, k))."""


class DisconnectedError(DomainError):
    """The operation requires a connected graph."""


class ConnectionSetError(DomainError):
    """A Cayley connection set contains the identity or is not inverse-closed."""


class SizeLimitError(DomainError):
    """An input exceeds one of two fixed limits.

    The search engine stops a search past a fixed amount of work
    (``autgroup.WORK_LIMIT``), and an enumerated group acts on at most 256
    points, one byte per image in its image strings (``perms``).
    """


class OrderCapExceeded(BKneserError):
    """Group closure grew past the configured order cap."""


class NeedEnumerationError(BKneserError):
    """The operation needs a fully enumerated group, but only generators are known."""


class VerificationError(BKneserError):
    """A verified claim did not hold."""


class FamilyInvariantError(VerificationError):
    """A count/degree/bipartition/connectivity invariant of H(n, k) failed."""


class StructureError(VerificationError):
    """A group-structure assertion (direct product step, hierarchy) failed."""


class IsomorphismError(VerificationError):
    """A constructed bijection failed its edge-preservation check."""


def as_int(value, what: str) -> int:
    """``operator.index(value)``, or ``DomainError`` for a value it rejects."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an int, got {value!r}") from None
