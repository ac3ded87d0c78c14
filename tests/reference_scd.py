"""Brute-force steepest coordinate descent, the definition ``scd`` must meet.

``ascd.driver.run`` with ``rule="scd"`` tracks the gradient with exact rows
from an exact start.  ``steepest_descent`` here recomputes the full gradient
before every step and takes the steepest score in units of the step, over
``sqrt(L_i)``: the gradient magnitude on a smooth problem (GS-L), and under
l1 the gs-s score, the distance from the gradient to ``-subdiff psi(x_i)``.
Ties go to the lowest index.  Given the picks of another run, it replays
them instead and reports how far each falls short of the steepest score at
its step.

The coordinate step is ``ascd.driver.step``, and the residual is refreshed
every ten epochs as the driver does, so a replay sees the iterates of the
run it replays.
"""

import numpy as np

from ascd.driver import step
from ascd.problem import CompositeProblem


def steepest_scores(problem: CompositeProblem, gradient: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """Steepest score of every coordinate at ``x`` over ``sqrt(L_i)``,
    unsquared."""
    lam = problem.l1
    if not lam:
        steep = np.abs(gradient)
    else:
        steep = np.where(x == 0.0, np.maximum(np.abs(gradient) - lam, 0.0),
                         np.abs(gradient + lam * np.sign(x)))
    return steep / np.sqrt(problem.lipschitz)


def steepest_descent(problem: CompositeProblem, steps: int, x0=None,
                     picks=None) -> tuple[np.ndarray, np.ndarray]:
    """``(picks, shortfall)`` of ``steps`` steps.

    Each step takes ``picks[t]`` when ``picks`` is given, else the
    steepest coordinate.  ``shortfall[t]`` is the best score minus the
    pick's score at step t, over ``1 + max|grad|``, the scale of the
    driver's soundness slack.
    """
    n = problem.n
    state = problem.residual_state(x0)
    taken = np.empty(steps, dtype=np.int64)
    shortfall = np.empty(steps)
    for t in range(steps):
        g = problem.full_gradient(state)
        scores = steepest_scores(problem, g, state.x)
        i = int(np.argmax(scores)) if picks is None else int(picks[t])
        taken[t] = i
        shortfall[t] = (scores.max() - scores[i]) / (1.0 + np.abs(g).max())
        step(problem, state, i)
        if (t + 1) % (10 * n) == 0:
            state.refresh(problem.matrix)
    return taken, shortfall
