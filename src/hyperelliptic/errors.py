"""The failing outcomes of a command, one exception class each.

Every error the library raises on purpose is one of these classes, and the
class alone decides the exit code and the stderr prefix, which ``cli.main``
reads off it (the `cli` docstring lists the outcomes).  Any other exception
is a bug: it exits 3, with its type named.
"""


class InputError(ValueError):
    """Malformed document: wrong shape, unknown field values, bad rationals.

    A ValueError, so that `documents.load_document` reports one raised by a
    JSON hook (a duplicate key, an over-long integer literal) as invalid JSON.
    """

    exit_code, prefix = 1, "input error"


class InvalidDatum(Exception):
    """A well-formed datum that fails a mathematical condition.

    Raised only where some document reaches it: a document's shape is
    refused first, by `documents` (InputError).
    """

    exit_code, prefix = 2, "invalid datum"


class CapReached(Exception):
    """A resource cap stopped the run before it could decide.

    The message reads "<cap> <value>, <what needed more>".
    """

    exit_code, prefix = 2, "cap reached"


class InternalError(Exception):
    """A bug: a theorem-backed check failed on a validated datum.

    Also a failed precondition on data the library made itself (a lattice, a
    torus, a matrix), which no document reaches.
    """

    exit_code, prefix = 3, "internal error"
