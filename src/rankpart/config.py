"""Configuration dataclasses: the modulus parameter and CLI run settings."""
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


@dataclass(frozen=True)
class RunConfig:
    """Settings for a CLI invocation.

    horizon is the number of columns generated internally; columns_shown is
    the number actually rendered.  Classification needs a deep horizon even
    when only a short table is printed, hence the split.
    """

    m: int = 5
    horizon: int = DEFAULT_HORIZON
    columns_shown: int = DEFAULT_COLUMNS_SHOWN
    fmt: str = "text"
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        ModulusConfig(self.m)  # the one place that bounds the modulus
        if not self.horizon >= self.columns_shown >= 1:
            raise ValueError(
                f"need horizon >= columns_shown >= 1, got {self.horizon} and {self.columns_shown}"
            )
        if self.fmt not in ("text", "csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.node_budget < 1:
            raise ValueError("node budget must be positive")

    @property
    def modulus(self) -> ModulusConfig:
        return ModulusConfig(self.m)
