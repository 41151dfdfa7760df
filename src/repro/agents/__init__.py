"""Agent state: the property matrix as a structure of arrays."""

from .population import Population

__all__ = ["Population"]
