"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or malformed shapes."""


class SequenceError(ValueError):
    """Chunk indices arrived out of order."""


class ContractViolationError(ValueError):
    """A caller-side precondition was violated (e.g. an uncapped RoPE index)."""


class FormatError(ValueError):
    """A serialized blob has a bad magic number or malformed header."""


class LengthError(FormatError):
    """A serialized payload is shorter or longer than its header claims."""


class DivergenceError(ValueError):
    """A training run's parameters or its critic left the finite range."""
