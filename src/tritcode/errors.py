"""Exception hierarchy shared across the toolkit.

Container parsing distinguishes malformed structure (bad magic, unsupported
version, impossible field values) from damaged content (undecodable payload,
truncated streams). The CLI maps these onto distinct exit codes.
"""


class TritcodeError(Exception):
    """Base class for all toolkit errors."""


class FormatError(TritcodeError):
    """Input bytes do not form a valid container (structure level)."""

    def __init__(self, message: str, offset: int | None = None):
        self.reason = message  # the message without its offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CorruptedDataError(TritcodeError):
    """Structurally valid input whose content cannot be decoded."""


class TruncatedDataError(CorruptedDataError):
    """Stream ended before the declared amount of data was read."""
