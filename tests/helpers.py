"""Shared builders and test-only reference oracles for the test suite."""

import math

import numpy as np

from wfifo import FlowSpec, NetworkConfig, QueueSpec
from wfifo.dfc import LOG_FLOOR, _objective_const, _weights, solve_dfc
from wfifo.stability import inner_coefficients


def make_cfg(p_off_rows, lambdas=None, beta=1.0, M=1000.0, r_max=2.0):
    """NetworkConfig from nested p_off lists, optionally with arrival rates."""
    queues = []
    for n, row in enumerate(p_off_rows):
        flows = []
        for k, p in enumerate(row):
            lam = None if lambdas is None else lambdas[n][k]
            flows.append(FlowSpec(p_off=p, lam=lam))
        queues.append(QueueSpec(flows=flows))
    return NetworkConfig(queues=queues, beta=beta, M=M, r_max=r_max)


def single_queue_cfg(p_off, lambdas=None, **kw):
    return make_cfg([list(p_off)], None if lambdas is None else [list(lambdas)], **kw)


# ----- reference maximizers -----

GOLDEN_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, tol: float = GOLDEN_TOL) -> float:
    """Argmax of a unimodal f on [lo, hi] by golden-section search."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _grid_candidates(cfg: NetworkConfig, step: float) -> list[np.ndarray]:
    """Grant tables swept by the oracle.

    States where a single queue can benefit (its channel ON with a nonzero
    coefficient) grant that queue the whole slot: coefficients are
    nonnegative, so full allocation is never worse. Only a two-queue
    contended state is left to sweep.
    """
    n_queues = cfg.n_queues
    n_states = 1 << n_queues
    c = inner_coefficients(cfg)
    base = np.zeros((n_states, n_queues))
    contended = None
    for s in range(n_states):
        holders = [n for n in range(n_queues) if c[n, s] > 0.0]
        if len(holders) == 1:
            base[s, holders[0]] = 1.0
        elif len(holders) == 2:
            contended = (s, holders)
    if contended is None:
        return [base]
    s, (n0, n1) = contended
    out = []
    for x in np.arange(0.0, 1.0 + step / 2, step):
        tau = base.copy()
        tau[s, n0] = min(float(x), 1.0)
        tau[s, n1] = 1.0 - tau[s, n0]
        out.append(tau)
    return out


def dfc_gap_vs_oracle(cfg: NetworkConfig, grid_step: float = 0.01) -> float:
    """Solver objective minus the best objective on a dense grant grid.

    Supports one or two queues (at most one contended state). A small
    positive value means the solver beat the grid's resolution; a negative
    value beyond the grid's own error indicates a solver problem.
    """
    if cfg.n_queues > 2:
        raise ValueError("grid oracle supports at most two queues")
    sol = solve_dfc(cfg)
    c = inner_coefficients(cfg)
    w = _weights(cfg)
    const = _objective_const(cfg)
    best = -math.inf
    for tau in _grid_candidates(cfg, grid_step):
        a = np.maximum((c * tau.T).sum(axis=1), LOG_FLOOR)
        best = max(best, float(np.dot(w, np.log(a))) + const)
    return sol.objective - best
