"""The Adaptive Search engine (Figure 1 of the paper).

One iteration of the engine:

1. compute the per-variable errors of the current configuration and select the
   **most erroneous non-tabu variable** (ties broken uniformly at random);
   the error vector is reused across iterations until a move, reset or
   restart actually changes the configuration (a tabu-marking iteration
   leaves it untouched), and the tabu mask is skipped entirely when *every*
   variable is tabu — in that degenerate state tabu variables become
   selectable again rather than leaving the engine with an empty candidate
   set (see the note on :meth:`AdaptiveSearch.solve`);
2. evaluate every swap involving that variable (**min-conflict** value
   selection) and

   * apply the best swap if it strictly improves the cost,
   * if the best swap only equals the current cost, follow the **plateau**
     with probability ``plateau_probability``, otherwise mark the variable
     tabu,
   * if every swap worsens the cost (a **local minimum**), mark the variable
     tabu for ``tabu_tenure`` iterations;
3. if the number of currently tabu variables reaches ``reset_limit``, perform
   a **reset**: ask the problem for a custom perturbation
   (:meth:`~repro.core.problem.PermutationProblem.custom_reset`) and fall back
   to re-randomising ``reset_percentage`` of the variables;
4. optionally **restart** from scratch after ``restart_limit`` iterations.

The run ends when the cost reaches ``target_cost``, when the iteration budget
is exhausted, or when an external stop check (polled every ``check_period``
iterations — this is the parallel termination test of Section V-A) fires.

The loop exists twice, with one trajectory.  For the Costas model (with its
C kernels), N-Queens and All-Interval, and when no callback observes the
run, :meth:`AdaptiveSearch.solve` hands the whole loop to the compiled walk
kernel, which draws from the run's own :class:`numpy.random.Generator` with
numpy's algorithms (:func:`repro.core.cwalk.run_generator_walk`): the same
draws, the same :class:`SolveResult` and the same end state of problem and
generator as the Python loop below, several times faster (7.5× per walk
on the paper's order-12/13 run pools).  Every other
run takes the Python loop, which is also the oracle the kernel path is
tested against.  ``result.extra["engine"]`` names the loop that ran:
``"c"`` or ``"python"``.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional

import numpy as np

from repro.core.callbacks import IterationCallback
from repro.core.cwalk import run_generator_walk
from repro.core.params import ASParameters
from repro.core.problem import PermutationProblem
from repro.core.result import SolveResult
from repro.core.rng import SeedLike, ensure_generator
from repro.core.strategy import StrategyRun

__all__ = ["AdaptiveSearch", "solve"]

_INT64_MAX = np.iinfo(np.int64).max

#: Per-class cache of the ``apply_swap(..., delta=...)`` capability probe.
_DELTA_CAPABLE: dict = {}


def _accepts_delta(problem: PermutationProblem) -> bool:
    """Whether *problem*'s ``apply_swap`` accepts the scored ``delta`` keyword.

    Out-of-tree models written against the pre-incremental contract may still
    define ``apply_swap(self, i, j)``.  The ``inspect.signature`` probe is
    cached per problem class: every walk of every portfolio run re-enters
    :meth:`AdaptiveSearch.solve`, and re-parsing the signature there is pure
    hot-path overhead.
    """
    cls = type(problem)
    cached = _DELTA_CAPABLE.get(cls)
    if cached is None:
        try:
            cached = "delta" in inspect.signature(problem.apply_swap).parameters
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            cached = True
        _DELTA_CAPABLE[cls] = cached
    return cached


class AdaptiveSearch:
    """Reusable Adaptive Search solver.

    The object itself is stateless between calls to :meth:`solve`; parameters
    and callbacks given at construction time act as defaults that individual
    calls may override.
    """

    #: Whether :meth:`solve` may hand its loop to the walk kernel; only
    #: :func:`_solve_python` clears it, to reach the Python loop for tests.
    _use_kernel = True

    def __init__(
        self,
        params: Optional[ASParameters] = None,
        callbacks: Optional[IterationCallback] = None,
    ) -> None:
        self.params = params if params is not None else ASParameters()
        self.callbacks = callbacks

    # ------------------------------------------------------------------ public
    def solve(
        self,
        problem: PermutationProblem,
        seed: SeedLike = None,
        *,
        params: Optional[ASParameters] = None,
        stop_check: Optional[Callable[[], bool]] = None,
        callbacks: Optional[IterationCallback] = None,
        initial_configuration: Optional[np.ndarray] = None,
        max_time: Optional[float] = None,
    ) -> SolveResult:
        """Run Adaptive Search on *problem* and return a :class:`SolveResult`.

        Parameters
        ----------
        problem:
            The problem instance; its current configuration is overwritten.
        seed:
            Seed / generator for all stochastic decisions of this run.
        params:
            Override the engine parameters for this run only.
        stop_check:
            Zero-argument callable polled every ``check_period`` iterations;
            returning ``True`` aborts the run with ``stop_reason
            = "external_stop"`` (used for multi-walk termination).
        callbacks:
            Instrumentation for this run (overrides the constructor default).
        initial_configuration:
            Start from this configuration instead of a random one (restarts
            still draw fresh random configurations).
        max_time:
            Wall-clock limit in seconds (checked every ``check_period``
            iterations).

        Notes
        -----
        **All-tabu edge case.**  Culprit selection masks tabu variables out
        with an error of ``-1`` — but only while at least one variable is
        non-tabu.  When every variable is simultaneously tabu (possible with
        a large ``tabu_tenure`` and a ``reset_limit`` that has not yet
        triggered) the mask is skipped, so tabu variables become selectable
        again and the search keeps moving instead of picking uniformly among
        all-``-1`` errors.  This is intended behaviour and is pinned by a
        unit test.
        """
        p = params if params is not None else self.params
        cb = callbacks if callbacks is not None else self.callbacks
        rng = ensure_generator(seed)

        # Only pass the scored delta through when the implementation can
        # accept it (probe cached per problem class, see _accepts_delta).
        if _accepts_delta(problem):
            apply_swap = problem.apply_swap
        else:
            apply_swap = lambda i, j, delta=None: problem.apply_swap(i, j)  # noqa: E731

        run = StrategyRun(
            problem,
            "adaptive-search",
            seed,
            target_cost=p.target_cost,
            max_iterations=p.max_iterations,
            check_period=p.check_period,
            stop_check=stop_check,
            max_time=max_time,
            callbacks=cb,
        )
        observe = run.observe
        notifier = run.notifier
        if initial_configuration is not None:
            problem.set_configuration(np.asarray(initial_configuration, dtype=np.int64))
        else:
            problem.initialise(rng)
        if self._use_kernel and not observe and run_generator_walk(run, problem, p, rng):
            return run.finish(extra={"engine": "c"})
        n = problem.size
        cost = problem.cost()

        tabu_until = np.zeros(n, dtype=np.int64)
        marked_since_reset = 0
        iterations_since_restart = 0
        run.track_best(cost)
        # Per-iteration error vector, reused until the configuration changes
        # (an iteration that only marks a variable tabu leaves it valid).
        raw_errors: Optional[np.ndarray] = None

        while run.running(cost):
            iteration = run.iteration
            iterations_since_restart += 1

            # ------------------------------------------------------- select culprit
            if raw_errors is None:
                raw_errors = problem.variable_errors()
            errors = raw_errors
            active_tabu = tabu_until >= iteration
            # When *every* variable is tabu the mask is skipped on purpose:
            # tabu variables become selectable again (see the solve() note).
            if active_tabu.any() and not active_tabu.all():
                errors = np.where(active_tabu, -1, errors)
            max_err = errors.max()
            candidates = np.flatnonzero(errors == max_err)
            culprit = int(candidates[rng.integers(candidates.size)])

            # --------------------------------------------------- min-conflict move
            deltas = problem.swap_deltas(culprit)
            deltas[culprit] = _INT64_MAX
            best_delta = int(deltas.min())
            marked = False

            if best_delta < 0:
                partner = _random_argmin(deltas, best_delta, rng)
                cost = apply_swap(culprit, partner, delta=best_delta)
                raw_errors = None
                run.swaps += 1
                observe and notifier.on_event("improving_move", iteration, cost)
            elif best_delta == 0:
                if rng.random() < p.plateau_probability:
                    partner = _random_argmin(deltas, best_delta, rng)
                    cost = apply_swap(culprit, partner, delta=best_delta)
                    raw_errors = None
                    run.swaps += 1
                    run.plateau_moves += 1
                    observe and notifier.on_event("plateau_move", iteration, cost)
                else:
                    marked = True
            else:
                run.local_minima += 1
                observe and notifier.on_event("local_minimum", iteration, cost)
                if rng.random() < p.local_min_accept_probability:
                    # Escape uphill: accept the least-bad swap instead of
                    # freezing the variable (prob_select_loc_min of the
                    # reference library).
                    partner = _random_argmin(deltas, best_delta, rng)
                    cost = apply_swap(culprit, partner, delta=best_delta)
                    raw_errors = None
                    run.swaps += 1
                else:
                    marked = True

            if marked:
                tabu_until[culprit] = iteration + p.tabu_tenure
                marked_since_reset += 1
                observe and notifier.on_event("tabu_mark", iteration, cost)

                # ------------------------------------------------------------ reset
                if marked_since_reset >= p.reset_limit:
                    run.resets += 1
                    replacement = problem.custom_reset(rng)
                    if replacement is not None:
                        problem.load_trusted_configuration(
                            np.asarray(replacement, dtype=np.int64)
                        )
                        observe and notifier.on_event("custom_reset", iteration, cost)
                    else:
                        self._generic_reset(problem, rng, p.reset_percentage)
                        observe and notifier.on_event("reset", iteration, cost)
                    cost = problem.cost()
                    raw_errors = None
                    marked_since_reset = 0
                    if p.clear_tabu_on_reset:
                        tabu_until[:] = 0

            # -------------------------------------------------------------- restart
            if (
                p.restart_limit is not None
                and iterations_since_restart >= p.restart_limit
                and run.restarts < p.max_restarts
            ):
                run.restarts += 1
                problem.initialise(rng)
                cost = problem.cost()
                raw_errors = None
                tabu_until[:] = 0
                marked_since_reset = 0
                iterations_since_restart = 0
                observe and notifier.on_event("restart", iteration, cost)

            run.track_best(cost)
            observe and notifier.on_iteration(iteration, cost)

        return run.finish(extra={"engine": "python"})

    # ---------------------------------------------------------------- internals
    @staticmethod
    def _generic_reset(
        problem: PermutationProblem, rng: np.random.Generator, fraction: float
    ) -> None:
        """Re-randomise a fraction of the variables while staying a permutation.

        A random subset of positions (at least two) is selected and the values
        they hold are randomly re-distributed among them — the permutation-safe
        analogue of the paper's "assign fresh values to RP% of the variables".
        """
        n = problem.size
        k = max(2, int(round(fraction * n)))
        k = min(k, n)
        positions = rng.choice(n, size=k, replace=False)
        config = problem.configuration()
        values = config[positions]
        rng.shuffle(values)
        config[positions] = values
        problem.load_trusted_configuration(config)


def _random_argmin(deltas: np.ndarray, best: int, rng: np.random.Generator) -> int:
    """Uniformly random index among the entries of *deltas* equal to *best*."""
    ties = np.flatnonzero(deltas == best)
    return int(ties[rng.integers(ties.size)])


def _solve_python(
    problem: PermutationProblem, seed: SeedLike = None, **kwargs
) -> SolveResult:
    """``solve`` on the Python loop alone, never the walk kernel (the oracle
    the kernel path is tested against)."""
    engine = AdaptiveSearch(kwargs.pop("params", None))
    engine._use_kernel = False
    return engine.solve(problem, seed, **kwargs)


def solve(
    problem: PermutationProblem,
    seed: SeedLike = None,
    *,
    params: Optional[ASParameters] = None,
    **kwargs,
) -> SolveResult:
    """Convenience wrapper: ``AdaptiveSearch(params).solve(problem, seed, **kwargs)``."""
    return AdaptiveSearch(params=params).solve(problem, seed, **kwargs)
