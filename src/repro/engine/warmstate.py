"""Compatibility stub for ``perfbench/paper.py``.

Engines build their placement and distance tables directly; no setup
state is cached between launches. This module exists only because the
repository benchmark imports :func:`reset_warmstate`; the next change to
the benchmark drops that import and deletes this module.
"""

__all__ = ["reset_warmstate"]


def reset_warmstate() -> None:
    """Do nothing: there is no cached setup state to reset."""
