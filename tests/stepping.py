"""Test-side probes of scheme.Stepper: one step, and the fused drift alone."""

import numpy as np

from spdefem import scheme


def one_step(config, load):
    """The state after one step of config's scheme from its initial state.

    load is the assembled (n,) noise load; the result is (n,).
    """
    stepper = scheme.Stepper(config, 1)
    stepper.step_loads(np.reshape(load, (1, -1, 1)))
    return stepper.finish()[0].x


def drift_term(stepper, x):
    """tau * drift_load(config, x) through the stepper's fused kernel.

    x is (n,) or (n, B) with the stepper's batch width; so is the result.
    The stepper's config must have a drift.
    """
    n, width = stepper._x.shape
    w = scheme._Work(n, width, drift=True)
    w.pad[1:-1] = np.reshape(x, (n, width))
    return stepper._drift_from_pad(w).reshape(np.shape(x))
