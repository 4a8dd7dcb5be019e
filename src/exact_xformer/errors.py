"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument lies outside an operation's domain (empty list, x <= 0, ...)."""


class FloatRangeError(ArithmeticError):
    """A result needs an exponent outside the representable range [-2^p, 2^p)."""


class EvalModeError(ValueError):
    """A model's structure does not fit the requested evaluation mode."""


class ModelLoadError(ValueError):
    """A model document violates the schema.

    ``path`` points at the offending field, e.g. ``layers[0].heads[1].w_q``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)
