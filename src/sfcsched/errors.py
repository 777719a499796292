"""Exception types shared across the simulator."""


class SfcSchedError(Exception):
    """Base class for all simulator errors."""


class CycleDetected(SfcSchedError):
    """Chain edges contain a cycle."""


class DanglingEdge(SfcSchedError):
    """Chain edge references a node that is not part of the chain."""


class UnknownService(SfcSchedError):
    """Service id not present in the chain."""


class UnstableQueue(SfcSchedError):
    """Link arrival rate at or above the service rate."""


class NonPositiveRate(SfcSchedError):
    """Link service rate must be positive."""


class NoPath(SfcSchedError):
    """No route between the requested cloud nodes."""


class NodeFull(SfcSchedError):
    """Cloud node has no free VM slot."""


class NotBuffered(SfcSchedError):
    """Attempt to release a service the machine does not host."""


class IoError(SfcSchedError):
    """Reading or writing an artifact file failed."""


class ParseError(SfcSchedError):
    """Scenario file is not well-formed."""


class ValidationError(SfcSchedError, ValueError):
    """Scenario content violates an invariant.

    Carries the dotted path of the offending field for error reporting.  It
    is also a ValueError, which value classes such as ``WeightParams`` raise
    when built with a bad field outside any scenario file.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
