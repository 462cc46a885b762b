"""Shared exception types."""


class CapExceeded(RuntimeError):
    """An exhaustive enumeration would visit more tuples than allowed.

    Raised up front, before any work is done; results are never silently
    truncated.
    """

    def __init__(self, required: int, cap: int, unit: str = "tuples"):
        super().__init__(
            f"enumeration needs {required} {unit}, above the cap of {cap}"
        )
        self.required = required
        self.cap = cap
