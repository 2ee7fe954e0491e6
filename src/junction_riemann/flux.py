"""Concave flux functions on the unit density interval.

A flux f: [0,1] -> R vanishes at both ends, is strictly increasing up to a unique
critical density sigma and strictly decreasing after it. Three kinds are supported:

* ``quadratic``  -- f(rho) = c * rho * (1 - rho); the default has c = 4 so f(sigma) = 1.
* ``triangular`` -- two linear pieces meeting at (sigma, f_max).
* ``tabulated``  -- piecewise-linear through strictly unimodal samples (e.g. from CSV).

Besides evaluation the model provides the mirror map tau (the other density with the
same flux), demand/supply intervals, admissible-trace-set membership for both arc
orientations, and exact inversion on either monotone branch.

The scalar path uses no numpy: a float density is evaluated in plain Python, and the
tabulated flux and its inverses use an exact one-point interpolation with
``np.interp``'s arithmetic, so their scalar values equal ``np.interp``'s bit for bit.
A tabulated model builds both branch inverse tables once, when it is constructed, and
keeps them out of ``to_json``; ``invert`` clamps with comparisons, which return the
same objects as ``min``/``max`` would.
Every method checks its densities, and the private ``_value`` is the one unchecked
kernel: the Godunov step runs it in place on whole arrays, and code holding densities
already checked (those of a ``RiemannState``) calls it directly. The check returns at
once for a density in [0, 1], so a checked call costs little more than the kernel.
Densities within ``DENSITY_SLACK`` of [0, 1] and fluxes within ``FLUX_SLACK`` of their
range are clamped; these and ``BOUNDARY_EPS`` live in :mod:`junction_riemann.tolerances`.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, InfeasibleFluxError, InputError
from .tolerances import BOUNDARY_EPS, DENSITY_SLACK, FLUX_SLACK

#: jam density; densities live in [0, RHO_MAX].
RHO_MAX = 1.0

INCREASING = "increasing"
DECREASING = "decreasing"


@dataclass(frozen=True)
class FluxInterval:
    """The interval [0, sup] of fluxes an arc can send or receive."""

    sup: float

    def contains(self, gamma: float) -> bool:
        return -FLUX_SLACK <= gamma <= self.sup + FLUX_SLACK


def _check_density(rho: float, what: str = "density") -> float:
    if 0.0 <= rho <= RHO_MAX:  # NaN fails this and reaches the raise below
        return rho
    if not math.isfinite(rho) or rho < -DENSITY_SLACK or rho > RHO_MAX + DENSITY_SLACK:
        raise DomainError(f"{what} {rho!r} outside [0, {RHO_MAX}]")
    return min(max(rho, 0.0), RHO_MAX)


def _check_densities(rho: np.ndarray) -> None:
    """Raise DomainError unless every entry lies in [0, 1] within the density slack;
    NaN never does (it propagates through min and max), an empty array always does."""
    if rho.size and not (float(rho.min()) >= -DENSITY_SLACK
                         and float(rho.max()) <= RHO_MAX + DENSITY_SLACK):
        raise DomainError(f"densities outside [0, {RHO_MAX}]")


def _interp(x: float, xp: tuple[float, ...], fp: tuple[float, ...]) -> float:
    """``np.interp(x, xp, fp)`` for one float and strictly increasing ``xp``.

    Same arithmetic as numpy: clamped ends, the sample value at a sample, and
    slope * (x - xp[j]) + fp[j] in between.
    """
    if x < xp[0]:
        return fp[0]
    if x >= xp[-1]:
        return fp[-1]
    j = bisect.bisect_right(xp, x) - 1
    if xp[j] == x:
        return fp[j]
    return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j]


@dataclass(frozen=True)
class FluxModel:
    """A concave unimodal flux with critical density ``sigma`` and peak ``f_max``."""

    kind: str
    params: Mapping[str, object] = field(repr=False)
    sigma: float
    f_max: float

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def quadratic(coefficient: float = 4.0) -> "FluxModel":
        if coefficient <= 0:
            raise InputError("quadratic coefficient must be positive")
        return FluxModel("quadratic", {"coefficient": float(coefficient)},
                         sigma=0.5, f_max=coefficient / 4.0)

    @staticmethod
    def triangular(sigma: float = 0.5, f_max: float = 1.0) -> "FluxModel":
        if not 0.0 < sigma < 1.0:
            raise InputError("triangular sigma must lie strictly inside (0, 1)")
        if f_max <= 0:
            raise InputError("triangular f_max must be positive")
        return FluxModel("triangular", {"sigma": float(sigma), "f_max": float(f_max)},
                         sigma=float(sigma), f_max=float(f_max))

    @staticmethod
    def tabulated(rho: Iterable[float], flux: Iterable[float]) -> "FluxModel":
        xs = tuple(float(x) for x in rho)
        ys = tuple(float(y) for y in flux)
        if len(xs) != len(ys) or len(xs) < 3:
            raise InputError("tabulated flux needs >= 3 matching samples")
        if xs[0] != 0.0 or xs[-1] != RHO_MAX:
            raise InputError("tabulated rho samples must start at 0 and end at 1")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise InputError("tabulated rho samples must be strictly increasing")
        if ys[0] != 0.0 or ys[-1] != 0.0:
            raise InputError("tabulated flux must vanish at rho = 0 and rho = 1")
        peak = max(range(len(ys)), key=ys.__getitem__)
        if peak == 0 or peak == len(ys) - 1:
            raise InputError("tabulated flux must peak strictly inside (0, 1)")
        if any(ys[i] >= ys[i + 1] for i in range(peak)):
            raise InputError("tabulated flux must be strictly increasing before its peak")
        if any(ys[i] <= ys[i + 1] for i in range(peak, len(ys) - 1)):
            raise InputError("tabulated flux must be strictly decreasing after its peak")
        # each branch's inverse table (flux samples ascending, their densities)
        inverses = {INCREASING: (ys[:peak + 1], xs[:peak + 1]),
                    DECREASING: (ys[peak:][::-1], xs[peak:][::-1])}
        return FluxModel("tabulated", {"rho": xs, "flux": ys, "peak": peak, **inverses},
                         sigma=xs[peak], f_max=ys[peak])

    @staticmethod
    def tabulated_from_csv(path) -> "FluxModel":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["rho", "flux"]:
                raise InputError(f"{path}: expected CSV header 'rho,flux'")
            xs, ys = [], []
            for row in reader:
                if not row:
                    continue
                try:
                    xs.append(float(row[0]))
                    ys.append(float(row[1]))
                except (IndexError, ValueError) as exc:
                    raise InputError(f"{path}: bad sample row {row!r}") from exc
        return FluxModel.tabulated(xs, ys)

    @staticmethod
    def from_json(obj) -> "FluxModel":
        if obj is None:
            return FluxModel.quadratic()
        if not isinstance(obj, Mapping):
            raise InputError("flux description must be an object")
        kind = obj.get("kind")
        params = obj.get("params", {})
        if not isinstance(params, Mapping):
            raise InputError("flux params must be an object")
        if kind == "quadratic":
            return FluxModel.quadratic(params.get("coefficient", 4.0))
        if kind == "triangular":
            return FluxModel.triangular(params.get("sigma", 0.5),
                                        params.get("f_max", 1.0))
        if kind == "tabulated":
            if "csv" in params:
                return FluxModel.tabulated_from_csv(params["csv"])
            try:
                return FluxModel.tabulated(params["rho"], params["flux"])
            except KeyError as exc:
                raise InputError("tabulated flux needs 'rho' and 'flux' arrays") from exc
        raise InputError(f"unknown flux kind {kind!r}")

    def to_json(self) -> dict:
        params = {k: v for k, v in self.params.items()
                  if k not in ("peak", INCREASING, DECREASING)}
        params = {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()}
        return {"kind": self.kind, "params": params}

    # -- evaluation --------------------------------------------------------------

    def value(self, rho):
        """Flux at density ``rho``; accepts scalars or numpy arrays."""
        if np.isscalar(rho):
            return self._value(_check_density(rho))
        arr = np.asarray(rho, dtype=float)
        _check_densities(arr)
        return self._value(np.clip(arr, 0.0, RHO_MAX))

    def _value(self, rho, out=None, work=None):
        """:meth:`value` without the domain check, for densities already in [0, 1].

        A scalar gives a float. An array gives an array, written into ``out`` when
        that is given; ``work``, when given, is a float array of the same shape
        that holds the intermediate values (otherwise one is allocated).
        """
        if rho.__class__ is float or np.isscalar(rho):
            if self.kind == "quadratic":
                return self.params["coefficient"] * rho * (RHO_MAX - rho)
            if self.kind == "triangular":
                s, fm = self.params["sigma"], self.params["f_max"]
                return fm * rho / s if rho <= s else fm * (RHO_MAX - rho) / (RHO_MAX - s)
            return _interp(float(rho), self.params["rho"], self.params["flux"])
        if out is None:
            out = np.empty(np.shape(rho))
        if self.kind == "quadratic":
            np.multiply(self.params["coefficient"], rho, out=out)
            out *= np.subtract(RHO_MAX, rho, out=work)
        elif self.kind == "triangular":
            s, fm = self.params["sigma"], self.params["f_max"]
            np.multiply(fm, rho, out=out)
            out /= s
            congested = np.subtract(RHO_MAX, rho, out=work)
            congested *= fm
            congested /= RHO_MAX - s
            np.copyto(out, congested, where=rho > s)
        else:
            out[...] = np.interp(rho, self.params["rho"], self.params["flux"])
        return out

    __call__ = value

    def max_wave_speed(self) -> float:
        """Upper bound on |f'|, used for CFL time-step control."""
        if self.kind == "quadratic":
            return self.params["coefficient"]
        if self.kind == "triangular":
            s, fm = self.params["sigma"], self.params["f_max"]
            return max(fm / s, fm / (RHO_MAX - s))
        xs = np.asarray(self.params["rho"])
        ys = np.asarray(self.params["flux"])
        return float(np.max(np.abs(np.diff(ys) / np.diff(xs))))

    # -- branch inversion and the mirror map ---------------------------------------

    def invert(self, gamma: float, branch: str) -> float:
        """Density with flux ``gamma`` on the given monotone branch.

        ``branch`` is ``"increasing"`` (solution in [0, sigma]) or ``"decreasing"``
        (solution in [sigma, 1]). Raises InfeasibleFluxError when gamma > f_max.
        """
        if branch not in (INCREASING, DECREASING):
            raise InputError(f"unknown branch {branch!r}")
        if not math.isfinite(gamma) or gamma < -FLUX_SLACK \
                or gamma > self.f_max + FLUX_SLACK:
            raise InfeasibleFluxError(
                f"flux {gamma!r} outside [0, f_max={self.f_max!r}]")
        gamma = 0.0 if gamma < 0.0 else self.f_max if gamma > self.f_max else gamma
        inc = branch == INCREASING
        if self.kind == "quadratic":
            d = math.sqrt(max(0.0, 1.0 - gamma / self.f_max))
            rho = 0.5 * (1.0 - d) if inc else 0.5 * (1.0 + d)
        elif self.kind == "triangular":
            s, fm = self.params["sigma"], self.params["f_max"]
            rho = gamma * s / fm if inc else RHO_MAX - gamma * (RHO_MAX - s) / fm
        else:
            rho = _interp(float(gamma), *self.params[branch])
        lo, hi = (0.0, self.sigma) if inc else (self.sigma, RHO_MAX)
        return lo if rho < lo else hi if rho > hi else rho

    def tau(self, rho: float) -> float:
        """The density on the other branch with the same flux; tau(sigma) = sigma."""
        rho = _check_density(rho)
        if self.kind == "quadratic":
            return RHO_MAX - rho
        if self.kind == "triangular":
            s = self.params["sigma"]
            if rho <= s:
                return RHO_MAX - (RHO_MAX - s) * rho / s
            return s * (RHO_MAX - rho) / (RHO_MAX - s)
        branch = DECREASING if rho <= self.sigma else INCREASING
        return self.invert(self._value(rho), branch)

    # -- demand / supply and admissible boundary traces ----------------------------

    def demand(self, rho0: float) -> FluxInterval:
        """Fluxes an incoming arc with datum ``rho0`` can send into the node."""
        rho0 = _check_density(rho0)
        return FluxInterval(float(self._value(rho0)) if rho0 <= self.sigma else self.f_max)

    def supply(self, rho0: float) -> FluxInterval:
        """Fluxes an outgoing arc with datum ``rho0`` can absorb from the node."""
        rho0 = _check_density(rho0)
        return FluxInterval(self.f_max if rho0 <= self.sigma else float(self._value(rho0)))

    def contains_trace_in(self, rho0: float, rho: float) -> bool:
        """Whether ``rho`` is an admissible node-side trace for an incoming arc.

        Admissible traces generate waves of non-positive speed only. For rho0 <= sigma
        the set is {rho0} together with ]tau(rho0), 1]; the half-open boundary point is
        treated as excluded when within ``BOUNDARY_EPS``. For rho0 >= sigma the set is
        [sigma, 1].
        """
        rho0, rho = _check_density(rho0, "datum"), _check_density(rho, "trace")
        if abs(rho - rho0) <= BOUNDARY_EPS:
            return True
        if rho0 <= self.sigma:
            return rho - self.tau(rho0) > BOUNDARY_EPS
        return rho >= self.sigma - BOUNDARY_EPS

    def contains_trace_out(self, rho0: float, rho: float) -> bool:
        """Mirror of :meth:`contains_trace_in` for outgoing arcs.

        For rho0 >= sigma the set is {rho0} together with [0, tau(rho0)[; otherwise
        it is [0, sigma].
        """
        rho0, rho = _check_density(rho0, "datum"), _check_density(rho, "trace")
        if abs(rho - rho0) <= BOUNDARY_EPS:
            return True
        if rho0 >= self.sigma:
            return self.tau(rho0) - rho > BOUNDARY_EPS
        return rho <= self.sigma + BOUNDARY_EPS


#: the default flux 4*rho*(1-rho), normalized so the peak value is 1 at sigma = 1/2.
QUADRATIC = FluxModel.quadratic()
