"""The performance / power / precision / resolution trade space.

The paper's abstract promises a discussion of "the trade space between
performance, power, precision and resolution for these mini-apps, and
optimized solutions attained within given constraints."  This subpackage
makes that trade space a first-class object:

* :mod:`repro.tradespace.space` — enumerate design points
  (device × precision level × resolution), evaluate each through the
  machine models into a :class:`DesignPoint` (runtime, energy, memory,
  accuracy proxy, dollar cost);
* :mod:`repro.tradespace.optimize` — Pareto-frontier extraction and
  constrained selection ("best accuracy under an energy budget",
  "cheapest configuration meeting an error bound").

Accuracy enters as a *proxy*: error ∝ resolution^-p (the scheme's
convergence order) plus the precision level's rounding floor — the same
two-term budget that makes the paper's Fig. 3 Min-HiRes run better than
Full-LoRes.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "DesignPoint": "repro.tradespace.space",
    "TradeSpace": "repro.tradespace.space",
    "accuracy_proxy": "repro.tradespace.space",
    "pareto_front": "repro.tradespace.optimize",
    "best_under_constraints": "repro.tradespace.optimize",
    "Constraint": "repro.tradespace.optimize",
})
