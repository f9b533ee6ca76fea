"""Exception types shared across the library."""


class LgrPoolError(Exception):
    """Base class for all library errors."""


class ParseError(LgrPoolError):
    """Raised when a dataset directory or file cannot be parsed."""


class EmptySplit(LgrPoolError):
    """Raised when a requested dataset partition would be empty."""


class ShapeMismatch(LgrPoolError):
    """Incompatible operand shapes; message carries both shapes."""

    def __init__(self, op: str, shape_a, shape_b):
        super().__init__(f"{op}: incompatible shapes {shape_a} and {shape_b}")
        self.op = op
        self.shapes = (tuple(shape_a), tuple(shape_b))

    def __reduce__(self):
        return type(self), (self.op, *self.shapes)


class NonFinite(LgrPoolError):
    """A forward computation produced NaN or Inf."""


class NotScalar(LgrPoolError):
    """backward() was called on a non 1x1 value."""


class DoubleBackward(LgrPoolError):
    """backward() was called twice on the same loss node."""


class NonDeterministic(LgrPoolError):
    """Two evaluations at identical parameters produced different losses."""


class LabelOutOfRange(LgrPoolError):
    """A class label lies outside the valid range."""
