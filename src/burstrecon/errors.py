"""Exception types shared across the package.

Every contract failure raises a distinct, named error; no function returns a
best guess when its preconditions are violated.
"""


class EnumerationCapExceeded(RuntimeError):
    """An enumeration would produce more words than the configured cap allows."""

    def __init__(self, required: int, cap: int):
        super().__init__(f"enumeration needs {required} words, cap is {cap}")
        self.required = required
        self.cap = cap


class BallTooSmall(ValueError):
    """More distinct channel outputs were requested than the error ball holds."""

    def __init__(self, requested: int, ball_size: int):
        super().__init__(
            f"requested {requested} distinct outputs, ball size {ball_size}"
        )
        self.requested = requested
        self.ball_size = ball_size


class ReconstructionError(RuntimeError):
    """Base class for reconstruction failures."""


class BelowThreshold(ReconstructionError):
    """Fewer outputs than the channel's reconstruction threshold plus one."""

    def __init__(self, got: int, required: int):
        super().__init__(f"{got} outputs given, need at least {required}")
        self.got = got
        self.required = required


class AmbiguousSymbol(ReconstructionError):
    """No symbol wins every pairwise precedence/majority comparison."""


class ThresholdNotMet(ReconstructionError):
    """No burst count yields a first-symbol class above its pigeonhole bound."""


class InconsistentOutputs(ReconstructionError):
    """The outputs cannot all come from one center of the stated length."""


class CandidateFilterError(ReconstructionError):
    """No phase-2 candidate contains every output: zero survivors.

    Several survivors cannot happen.  Two length-n words whose balls both
    contain all N >= threshold+1 outputs would share more words than the
    maximum overlap of two distinct balls, which the paper proves on the
    decoder's domain (q = 2, b >= 2, n >= b*(t+1)-1).  So the search stops at
    the first survivor, and this error means the outputs do not all come
    from one center.
    """

    def __init__(self, candidates: int):
        super().__init__(f"none of the {candidates} phase-2 candidates contains every output")
        self.candidates = candidates
