"""The modulus parameter and the default horizon, table length and node budget."""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_HORIZON = 4096
DEFAULT_COLUMNS_SHOWN = 46
DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class ModulusConfig:
    """The odd modulus m = 2t+1 that parameterizes every construction."""

    m: int

    def __post_init__(self):
        if self.m < 5 or self.m % 2 == 0:
            raise ValueError(f"modulus must be an odd integer >= 5, got {self.m}")

    @property
    def t(self) -> int:
        return (self.m - 1) // 2

    @property
    def set_count(self) -> int:
        return self.t + 1
