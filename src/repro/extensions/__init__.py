"""Extensions implementing the paper's Section VII future-work items.

* the panic alarm is the :class:`~repro.components.hooks.PanicHook` step
  hook — ``config.replace(hooks=(PanicHook(trigger_step=...),))`` — whose
  default crisis parameters come from :func:`panic_variant`;
* heterogeneous velocities live in the core config
  (``SimulationConfig.slow_fraction`` / ``slow_period``) because they gate
  the engines' tour-construction stage directly.
"""

from ..components.hooks import panic_variant

__all__ = ["panic_variant"]
