"""Shared exception types."""


class EvaluationError(RuntimeError):
    """An objective evaluation failed or returned a non-finite value.

    `index` identifies the offending sample within the batch, when known.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index
