"""Exception types shared across the package, and the one reading of a JSON input."""

import json
import sys


class InvalidParameter(ValueError):
    """An argument is outside the operation's documented domain."""


class MalformedInput(ValueError):
    """Structurally broken input (ragged table, bad JSON document, ...)."""


def load_json(text: str, what: str, spec: str | None = None):
    """``json.loads(text)``; a document it cannot read, or a ``text`` that is no
    str, bytes or bytearray, is a MalformedInput "bad <what>[ <spec>]: <reason>".

    An integer literal past the interpreter's digit limit is worded here once
    and never echoes ``spec``: the interpreter's own message quotes the value
    and advises raising the limit, which no user of the package can act on.
    """
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError, TypeError) as exc:
        shown = "" if spec is None else f" {spec!r}"
        raise MalformedInput(f"bad {what}{shown}: {exc}") from exc
    except ValueError as exc:  # not a decode error: an integer past the digit limit
        limit = sys.get_int_max_str_digits()
        raise MalformedInput(f"bad {what}: an integer has more than {limit} digits") from exc


def _check_type(value, kind: type, what: str) -> None:
    """Refuse, with InvalidParameter, a plain parameter whose type is not
    exactly ``kind``, int or bool: the exact type, since a bool is an int.
    Its words are "<what> must be an integer" or "<what> must be True or
    False"."""
    if type(value) is not kind:
        raise InvalidParameter(f"{what} must be {'an integer' if kind is int else 'True or False'}, got {value!r}")


class SearchBoundExceeded(RuntimeError):
    """A brute-force search bound would be exceeded; raise the bound to proceed."""


class NotApplicable(ValueError):
    """A rewriting move does not apply at the requested site."""


class WrongKind(ValueError):
    """The operation is defined for a different kind of diagram."""


class PreconditionFailed(RuntimeError):
    """A checked mathematical precondition is violated.

    ``witness`` carries a concrete counterexample when one exists.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
