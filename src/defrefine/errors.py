"""Exception types shared across the package, and the one way an input file is opened."""

import io


class DefRefineError(Exception):
    """Base class for all package errors."""


class DataError(DefRefineError):
    """Dataset loading or validation failure, or an empty sampling stratum."""


class ProviderError(DefRefineError):
    """Embedding or LLM provider failure that exhausted its retry budget."""


class ScriptExhaustedError(ProviderError):
    """A scripted mock provider ran out of queued responses."""


class DefinitionParseError(DefRefineError):
    """LLM output could not be parsed into a complete definition set."""


class ConfigError(DefRefineError):
    """Invalid run configuration or command usage."""


def open_input(path, what: str, error: type[DefRefineError], missing_ok: bool = False):
    """The file at path opened for unbuffered binary reading, or an empty one if
    it is missing and `missing_ok`; else `error` naming it, as `what`, if it is
    missing or cannot be read (a directory, a path under a regular file, no
    read permission)."""
    try:
        return open(path, "rb", buffering=0)
    except FileNotFoundError:
        if missing_ok:
            return io.BytesIO()
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"{what} {path} cannot be read: {exc.strerror}") from None
