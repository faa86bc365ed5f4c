"""Shared exception types and the rule for echoing input in their messages."""


class ConfigError(ValueError):
    """Invalid configuration detected at build time."""


class ContainerError(ValueError):
    """Malformed or incompatible tensor container file."""


class TrainingDiverged(RuntimeError):
    """Training aborted on a non-finite loss or gradient."""


def short(value) -> str:
    """The first 32 characters of an input that an error message repeats."""
    text = str(value)
    return text if len(text) <= 32 else text[:32] + "..."
