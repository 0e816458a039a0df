"""Workload specification shared by the client implementations."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class WorkloadSpec:
    """Describes the transactions a client generates.

    ``payload_size`` is Table I's ``psize``; ``write_fraction`` controls the
    put/get mix (the paper uses writes only, which remains the default).
    """

    payload_size: int = 0
    write_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.payload_size < 0:
            raise ValueError("payload_size must be non-negative")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")

    def operation_for(self, draw: float) -> str:
        """Map a uniform draw in [0, 1) to an operation kind."""
        return "put" if draw < self.write_fraction else "get"
