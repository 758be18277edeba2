"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value, dimension, or hyperparameter."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key  # the config key at fault, where one is


class ProtocolError(RuntimeError):
    """A pipeline contract was violated at run time (empty shard,
    duplicate task, message routed to the wrong task phase, ...)."""
