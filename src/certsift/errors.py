"""Exception hierarchy shared across the package.

Everything raised deliberately by this package derives from CertsiftError,
so callers (and the CLI) can tell data problems apart from genuine bugs.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterator
from typing import TextIO


class CertsiftError(Exception):
    """Base class for all errors raised by certsift."""


class MalformedInput(CertsiftError):
    """A certificate or other input blob could not be decoded."""


class InvalidDomainName(CertsiftError):
    """A domain name failed syntactic validation before probing."""


class StorageFull(CertsiftError):
    """The corpus store could not append a record for lack of space."""


class SerializationFailure(CertsiftError):
    """A record could not be converted to or from its wire form."""


class CorruptRecord(SerializationFailure):
    """A stored corpus line other than the final one failed to parse."""


class IndexMismatch(CertsiftError):
    """A certificate/domain pair is absent from the duplicate index."""


class SchemaError(CertsiftError):
    """A model and a feature vector disagree about the feature schema."""


class DegenerateDataset(CertsiftError):
    """A training set does not contain both classes."""


class TooFewRows(CertsiftError):
    """Cross-validation was asked for more folds than the data supports."""


class CorruptModel(CertsiftError):
    """A persisted model file could not be parsed."""


class VersionMismatch(CertsiftError):
    """A persisted model file uses an unsupported format version."""


class SpecIncomplete(CertsiftError):
    """A distribution spec is missing probabilities a caller needs."""


class SubsetTooLarge(CertsiftError):
    """Exact enumeration was requested over too many features."""


class EmptyClass(CertsiftError):
    """A marginal fit or sample was requested for a class with no rows."""


class EmptyInput(CertsiftError):
    """A report was requested over zero rows."""


class UsageError(CertsiftError):
    """The command line was malformed."""


@contextlib.contextmanager
def reading(path: str | os.PathLike, error: type[CertsiftError],
            name: str | os.PathLike | None = None) -> Iterator[TextIO]:
    """Open a text input as UTF-8, with newline="" as csv needs (line
    readers strip their line ends).  Every input error names its file here,
    by name (the path opened when None): a CertsiftError raised in the
    block is re-raised with the name in front, and text that is not UTF-8,
    JSON that does not decode, or a RecursionError (the JSON decoder
    recurses once per nesting level) raises error."""
    name = path if name is None else name
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except CertsiftError as exc:
            raise type(exc)(f"{name}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise error(f"{name}: not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise error(f"{name}: not valid JSON: {exc}") from exc
        except RecursionError:
            raise error(f"{name}: nested too deeply to load") from None
