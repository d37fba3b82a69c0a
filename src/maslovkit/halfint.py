"""Exact half-integer arithmetic.

All Lagrangian-path indices in this package are half-integers.  They are
stored as an integer count of halves so that index identities can be asserted
with zero tolerance; floating point only ever enters through crossing
*detection*, never through index arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class HalfInt:
    """A half-integer ``halves / 2`` stored exactly."""

    halves: int

    def __post_init__(self):
        if not isinstance(self.halves, int) or isinstance(self.halves, bool):
            raise TypeError(f"halves must be an int, got {type(self.halves).__name__}")

    @staticmethod
    def from_int(k: int) -> "HalfInt":
        return HalfInt(2 * k)

    def __add__(self, other: "HalfInt") -> "HalfInt":
        if not isinstance(other, HalfInt):
            return NotImplemented
        return HalfInt(self.halves + other.halves)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        if not isinstance(other, HalfInt):
            return NotImplemented
        return HalfInt(self.halves - other.halves)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.halves)

    def __mul__(self, k: int) -> "HalfInt":
        if not isinstance(k, int):
            raise TypeError("HalfInt can only be scaled by an int")
        return HalfInt(self.halves * k)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return self.halves / 2.0

    def is_integer(self) -> bool:
        return self.halves % 2 == 0

    def as_integer(self) -> int:
        """Return the value as an int, or raise if it is a strict half."""
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return self.halves // 2

    def __str__(self) -> str:
        if self.is_integer():
            return str(self.halves // 2)
        return f"{self.halves}/2"

    def to_json(self) -> dict:
        return {"halves": self.halves}

    @staticmethod
    def from_json(obj: dict) -> "HalfInt":
        return HalfInt(int(obj["halves"]))
