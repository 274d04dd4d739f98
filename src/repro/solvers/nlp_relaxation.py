"""Continuous-relaxation NLP solvers (the APOPT/MINOS/SNOPT stand-ins).

The ordering problem is relaxed into continuous optimisation: each
transaction gets a real-valued *priority key*; a key vector decodes into
the permutation given by ``argsort``.  The objective is the (negated)
IFU wealth of the decoded order.  scipy's general-purpose NLP machinery
then minimises over the key space — exactly the job APOPT, MINOS and
SNOPT perform for the paper, and with the same pathology: the number of
decision variables grows with N, every function evaluation replays N
transactions, and the solvers' internal dense linear algebra makes both
time and memory grow super-linearly with mempool size (Figure 11).

Solver → stand-in mapping (documented substitution, DESIGN.md §2):

=========  ======================================  ==========================
Paper      Stand-in scipy method                   Matching characteristic
=========  ======================================  ==========================
APOPT      SLSQP (active-set SQP)                  dense quadratic subproblems
MINOS      BFGS (quasi-Newton, dense Hessian)      dense approximate Hessian
SNOPT      trust-constr (interior trust region)    good small-N, poor scaling
=========  ======================================  ==========================

``scipy.optimize`` is imported when a solver is constructed, not when
this module is: importing :mod:`repro` stays free of it, and Fig. 11's
``profile_solver`` times only the solve, never the import.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np

from .base import ReorderProblem, ReorderSolver, SolverResult


class RelaxationSolver(ReorderSolver):
    """Generic scipy-minimize-over-priority-keys solver."""

    name = "relaxation"
    method = "Nelder-Mead"

    def __init__(
        self,
        restarts: int = 3,
        max_iterations: int = 120,
        seed: int = 0,
        penalty: float = 10.0,
    ) -> None:
        from scipy import optimize

        self._minimize = optimize.minimize
        self.restarts = restarts
        self.max_iterations = max_iterations
        self.seed = seed
        #: Objective value assigned to infeasible decodes; keeps the
        #: landscape finite for gradient-based methods.
        self.penalty = penalty

    # ------------------------------------------------------------------ #

    @staticmethod
    def decode(keys: np.ndarray) -> Tuple[int, ...]:
        """Priority keys → permutation (ascending key executes first)."""
        return tuple(int(i) for i in np.argsort(keys, kind="stable"))

    def _loss(self, problem: ReorderProblem, keys: np.ndarray) -> float:
        order = self.decode(keys)
        value = problem.score(order)
        if value == float("-inf"):
            return self.penalty
        return -value

    def solve(self, problem: ReorderProblem) -> SolverResult:
        """Multi-start scipy minimisation over the key relaxation."""
        rng = np.random.default_rng(self.seed)
        started = time.perf_counter()
        best_order = problem.identity_order()
        best_value = problem.score(best_order)
        iterations_used = 0
        for restart in range(self.restarts):
            if restart == 0:
                keys0 = np.linspace(0.0, 1.0, problem.size)
            else:
                keys0 = rng.uniform(0.0, 1.0, size=problem.size)
            outcome = self._minimize(
                lambda keys: self._loss(problem, keys),
                keys0,
                method=self.method,
                options=self._options(),
            )
            iterations_used += int(getattr(outcome, "nit", 0) or 0)
            order = self.decode(outcome.x)
            value = problem.score(order)
            if value > best_value:
                best_value = value
                best_order = order
        elapsed = time.perf_counter() - started
        return self._result(
            problem,
            best_order,
            best_value,
            elapsed,
            metadata={"iterations": float(iterations_used)},
        )

    def _options(self) -> dict:
        return {"maxiter": self.max_iterations}


class ApoptLikeSolver(RelaxationSolver):
    """APOPT stand-in: sequential quadratic programming (SLSQP)."""

    name = "APOPT-like (SLSQP)"
    method = "SLSQP"


class MinosLikeSolver(RelaxationSolver):
    """MINOS stand-in: dense quasi-Newton (BFGS)."""

    name = "MINOS-like (BFGS)"
    method = "BFGS"

    def _options(self) -> dict:
        return {"maxiter": self.max_iterations, "gtol": 1e-6}


class SnoptLikeSolver(RelaxationSolver):
    """SNOPT stand-in: trust-region interior method (trust-constr)."""

    name = "SNOPT-like (trust-constr)"
    method = "trust-constr"

    def _options(self) -> dict:
        return {"maxiter": self.max_iterations, "gtol": 1e-6, "verbose": 0}
