"""Exception types shared across the package, and the one way an input file is read."""


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


def read_input(path, what: str, error: type[DefRefineError], missing_ok: bool = False) -> bytes:
    """The bytes of the file at path, read whole, or b"" if it is missing and
    `missing_ok`; else `error` naming it, as `what`, if it is missing or cannot
    be opened or read (a directory, a path under a regular file, no read
    permission, a disk error)."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return fh.read()
    except FileNotFoundError:
        if missing_ok:
            return b""
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"{what} {path} cannot be read: {exc.strerror}") from None
