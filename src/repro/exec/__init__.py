"""Parallel execution layer: process-pool fan-out with serial fallback."""

from .pool import default_workers, fan_out, pool_available

__all__ = ["default_workers", "fan_out", "pool_available"]
