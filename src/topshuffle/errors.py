"""Shared exception types, and ``_check_cap``, the one up-front cap check."""

from .permutations import _int_str, _integer

DEFAULT_TUPLE_CAP = 10**7


class CapExceeded(RuntimeError):
    """Building or counting something would take more units than allowed.

    ``unit`` names what ``required`` and ``cap`` count: terms, compositions,
    tuples, partitions, table cells, recurrence cells or bits.  Raised up
    front, before any work is done; results are never silently truncated.
    """

    def __init__(self, required: int, cap: int, unit: str):
        message = f"{_int_str(required)} {unit} needed, above the cap of {_int_str(cap)}"
        super().__init__(message)
        self.required, self.cap, self.unit = required, cap, unit


def _check_cap(required: int, cap: int, unit: str) -> None:
    """Refuse up front, never truncate, when ``required`` exceeds ``cap``."""
    cap = _integer(cap)
    if required > cap:
        raise CapExceeded(required, cap, unit)
