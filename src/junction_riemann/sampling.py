"""Seeded random generators and state samplers for the property suites."""

from __future__ import annotations

import os

import numpy as np

from .errors import InputError
from .flux import DECREASING, INCREASING, FluxModel
from .junction import NodeTopology, RiemannState
from .tolerances import CAP_SLACK

#: environment variable consulted when no explicit seed is given.
ENV_SEED = "JUNCTION_RIEMANN_SEED"


def default_rng(seed: int | None = None) -> np.random.Generator:
    """A numpy Generator; with no explicit seed, ``JUNCTION_RIEMANN_SEED`` is honored."""
    if seed is None:
        env = os.environ.get(ENV_SEED, "").strip()
        if env:
            try:
                seed = int(env)
            except ValueError as exc:
                raise InputError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
    return np.random.default_rng(seed)


def random_state(rng: np.random.Generator, topology: NodeTopology) -> RiemannState:
    """Uniform random densities on every arc."""
    return RiemannState(topology, tuple(rng.uniform(0.0, 1.0, topology.total)))


def random_fluxes_with_sum(rng: np.random.Generator, count: int, total: float,
                           cap: float) -> list[float]:
    """``count`` fluxes in [0, cap] with the prescribed sum (sequential sampling)."""
    if not 0.0 <= total <= count * cap + CAP_SLACK:
        raise InputError("requested flux total is infeasible for the given cap")
    out: list[float] = []
    remaining = total
    for j in range(count):
        left = count - 1 - j
        lo = max(0.0, remaining - left * cap)
        hi = min(cap, remaining)
        g = hi if left == 0 else float(rng.uniform(lo, hi))
        out.append(min(max(g, 0.0), cap))
        remaining -= out[-1]
    return out


def random_balanced_state(rng: np.random.Generator, model: FluxModel,
                          topology: NodeTopology) -> RiemannState:
    """A random trace vector whose incoming and outgoing fluxes balance exactly.

    Fluxes are drawn first (incoming free, outgoing resampled to match the total),
    then each arc picks a branch preimage at random, so good and bad configurations
    are both well represented.
    """
    n, m = topology.n, topology.m
    fm = model.f_max
    g_in = rng.uniform(0.0, fm, n)
    total = float(g_in.sum())
    if total > m * fm:
        g_in *= (m * fm / total) * rng.uniform(0.2, 0.99)
        total = float(g_in.sum())
    g_out = random_fluxes_with_sum(rng, m, total, fm)
    rho = [model.invert(float(g), INCREASING if rng.integers(2) else DECREASING)
           for g in list(g_in) + g_out]
    return RiemannState(topology, tuple(rho))
