"""Test-side probes of scheme.Stepper: one step, a recorded run, and the
fused drift alone."""

import numpy as np

from spdefem import scheme


def one_step(config, load):
    """The state after one step of config's scheme from its initial state.

    load is the assembled (n,) noise load; the result is (n,).
    """
    stepper = scheme.Stepper(config)
    stepper.step_loads(np.reshape(load, (1, -1, 1)))
    return stepper.finish().x


def recorded_run(config, loads, stride, observe):
    """Step config's scheme over assembled loads, observing as the harness does.

    loads is (steps, n, B); the stepper takes batch B. One load at a time,
    observe(ops, x) of the live state is taken at the start and after
    every stride-th step. Returns the final SchemeState and the
    observations as a (times, quantities, paths) array.
    """
    stepper = scheme.Stepper(config, np.shape(loads)[2])
    rows = [observe(config.ops, stepper.x)]
    for m, load in enumerate(loads, start=1):
        stepper.step_loads(load[None])
        if m % stride == 0:
            rows.append(observe(config.ops, stepper.x))
    return stepper.finish(), np.array(rows)


def drift_term(stepper, x):
    """tau * drift_load(config, x) through the stepper's fused kernel.

    x is (n,) or (n, B) with the stepper's batch width; so is the result.
    The stepper's config must have a drift.
    """
    n, width = stepper._x.shape
    w = scheme._Work(n, width, drift=True)
    w.pad[1:-1] = np.reshape(x, (n, width))
    return stepper._drift_from_pad(w).reshape(np.shape(x))
