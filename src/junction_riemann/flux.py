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
Every public method checks its input and then runs an unchecked kernel, which code
holding values already checked (the densities of a ``RiemannState``) calls directly:
``_value`` on scalars or whole arrays (the Godunov step runs it in place),
``_scalar``, a plain function of one float built once per model that holds each
kind's scalar formula, ``_invert``, ``_tau`` and ``_contains_in``/``_contains_out``.
The density check returns at once for a density in [0, 1], so a checked call costs
little more than the kernel.
Densities within ``DENSITY_SLACK`` of [0, 1] and fluxes within ``FLUX_SLACK`` of their
range are clamped; these and ``BOUNDARY_EPS`` live in :mod:`junction_riemann.tolerances`.
Every number a document or a public ``from_*`` reader brings in, flux parameters and
samples too, passes a gate that raises InputError otherwise: ``_parameter`` (a finite
real number, not a string or a bool), ``_floats`` (a list of those, not a string or a
mapping) or ``_integer`` (an integer, not a bool); an unreadable table is InputError.
"""

from __future__ import annotations

import bisect
import csv
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, InadmissibleFluxError, InfeasibleFluxError, InputError
from .tolerances import BOUNDARY_EPS, DENSITY_SLACK, FLUX_SLACK

#: jam density; densities live in [0, RHO_MAX].
RHO_MAX = 1.0

INCREASING = "increasing"
DECREASING = "decreasing"


@dataclass(frozen=True)
class FluxInterval:
    """The interval [0, sup] of fluxes an arc can send or receive; a negative or NaN
    ``sup`` raises InadmissibleFluxError."""

    sup: float

    def __post_init__(self):
        if not self.sup >= 0.0:  # NaN fails too
            raise InadmissibleFluxError("caps must be nonnegative")

    def contains(self, gamma: float) -> bool:
        return -FLUX_SLACK <= gamma <= self.sup + FLUX_SLACK

    @staticmethod
    def _proved(sup: float) -> "FluxInterval":
        """[0, sup] for a float ``sup`` proved to be >= 0, without the frozen
        dataclass's ``__init__``."""
        interval = object.__new__(FluxInterval)
        interval.__dict__["sup"] = sup
        return interval


def _check_density(rho: float, what: str = "density") -> float:
    if rho.__class__ is float and 0.0 <= rho <= RHO_MAX:  # NaN fails this
        return rho
    if not _real(rho):  # a bool, a string or None
        raise InputError(f"{what} must be a real number, got {rho!r}")
    if rho < -DENSITY_SLACK or rho > RHO_MAX + DENSITY_SLACK or not math.isfinite(rho):
        raise DomainError(f"{what} {rho!r} outside [0, {RHO_MAX}]")
    return min(max(rho, 0.0), RHO_MAX)


def _check_densities(rho: np.ndarray) -> None:
    """Raise DomainError unless every entry lies in [0, 1] within the density slack;
    NaN never does (it propagates through min and max), an empty array always does."""
    if rho.size and not (float(rho.min()) >= -DENSITY_SLACK
                         and float(rho.max()) <= RHO_MAX + DENSITY_SLACK):
        raise DomainError(f"densities outside [0, {RHO_MAX}]")


def _real(value) -> bool:
    """Whether ``value`` is an int or a float, numpy's too, and not a bool."""
    return not isinstance(value, (bool, np.bool_)) \
        and isinstance(value, (int, float, np.integer, np.floating))


def _parameter(value, what: str) -> float:
    """``value`` as a float; InputError unless it is a finite real number (a bool,
    a string, None or an integer beyond the float range is not)."""
    try:
        if _real(value) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise InputError(f"{what} must be a finite number, got {value!r}")


def _floats(values, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats, each item through :func:`_parameter`;
    InputError unless it is an iterable that is not a string or a mapping."""
    isfinite = math.isfinite
    try:
        if not isinstance(values, (str, bytes, Mapping)):
            return tuple([v if v.__class__ is float and isfinite(v)
                          else _parameter(v, what) for v in values])
    except TypeError:  # not iterable; _parameter raises no TypeError
        pass
    raise InputError(f"need a list of {what} values, got {values!r}")


def _integer(value, what: str, error: type = InputError) -> int:
    """``value`` as an int; ``error`` unless it is an integer (a numpy integer is, a
    bool is not)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


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
    params: Mapping[str, object] = field(repr=False, hash=False)
    sigma: float
    f_max: float

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def quadratic(coefficient: float = 4.0) -> "FluxModel":
        coefficient = _parameter(coefficient, "quadratic coefficient")
        if coefficient <= 0:
            raise InputError("quadratic coefficient must be positive")
        return FluxModel("quadratic", {"coefficient": coefficient},
                         sigma=0.5, f_max=coefficient / 4.0)

    @staticmethod
    def triangular(sigma: float = 0.5, f_max: float = 1.0) -> "FluxModel":
        sigma = _parameter(sigma, "triangular sigma")
        f_max = _parameter(f_max, "triangular f_max")
        if not 0.0 < sigma < 1.0:
            raise InputError("triangular sigma must lie strictly inside (0, 1)")
        if f_max <= 0:
            raise InputError("triangular f_max must be positive")
        return FluxModel("triangular", {"sigma": sigma, "f_max": f_max},
                         sigma=sigma, f_max=f_max)

    @staticmethod
    def tabulated(rho: Iterable[float], flux: Iterable[float]) -> "FluxModel":
        xs = _floats(rho, "tabulated rho sample")
        ys = _floats(flux, "tabulated flux sample")
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
        try:
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
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise InputError(f"cannot read flux table {path}: {exc}") from exc
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
                if not isinstance(params["csv"], str):
                    raise InputError(f"tabulated 'csv' must be a file path, "
                                     f"got {params['csv']!r}")
                return FluxModel.tabulated_from_csv(params["csv"])
            return FluxModel.tabulated(params.get("rho"), params.get("flux"))
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
        arr = np.asarray(rho)
        # numpy reads [True, 0.5] as floats: each item of a list is gated too
        if arr.dtype.kind not in "iuf" or arr is not rho and not all(
                map(_real, np.asarray(rho, dtype=object).ravel())):
            raise InputError(f"densities must be real numbers, got {rho!r}")
        arr = np.asarray(arr, dtype=float)
        _check_densities(arr)
        return self._value(np.clip(arr, 0.0, RHO_MAX))

    def _value(self, rho, out=None, work=None):
        """:meth:`value` without the domain check, for densities already in [0, 1].

        A scalar gives a float. An array gives an array, written into ``out`` when
        that is given; ``work``, when given, is a float array of the same shape
        that holds the intermediate values (otherwise one is allocated).
        """
        if rho.__class__ is float or np.isscalar(rho):
            return self._scalar(rho)
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

    @cached_property
    def _scalar(self):
        """f as a plain function of one density in [0, 1], built on first use and
        kept on the (immutable) model; the one place each kind's scalar formula is
        written."""
        if self.kind == "quadratic":
            c = self.params["coefficient"]
            return lambda rho: c * rho * (RHO_MAX - rho)
        if self.kind == "triangular":
            s, fm = self.params["sigma"], self.params["f_max"]
            return lambda rho: fm * rho / s if rho <= s \
                else fm * (RHO_MAX - rho) / (RHO_MAX - s)
        xs, ys = self.params["rho"], self.params["flux"]
        return lambda rho: _interp(float(rho), xs, ys)

    __call__ = value

    def __getstate__(self) -> dict:
        """The fields for pickle and copy, without the cached ``_scalar``, a closure
        that cannot be pickled; a copy builds its own on first use."""
        state = dict(self.__dict__)
        state.pop("_scalar", None)
        return state

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
        if gamma.__class__ is not float and not _real(gamma):
            raise InputError(f"flux must be a real number, got {gamma!r}")
        if not math.isfinite(gamma) or gamma < -FLUX_SLACK \
                or gamma > self.f_max + FLUX_SLACK:
            raise InfeasibleFluxError(
                f"flux {gamma!r} outside [0, f_max={self.f_max!r}]")
        return self._invert(gamma, branch == INCREASING)

    def _invert(self, gamma: float, increasing: bool) -> float:
        """:meth:`invert` for a finite flux within ``FLUX_SLACK`` of [0, f_max],
        on the increasing branch when ``increasing``, else the decreasing one."""
        gamma = 0.0 if gamma < 0.0 else self.f_max if gamma > self.f_max else gamma
        if self.kind == "quadratic":
            d = math.sqrt(max(0.0, 1.0 - gamma / self.f_max))
            rho = 0.5 * (1.0 - d) if increasing else 0.5 * (1.0 + d)
        elif self.kind == "triangular":
            s, fm = self.params["sigma"], self.params["f_max"]
            rho = gamma * s / fm if increasing else RHO_MAX - gamma * (RHO_MAX - s) / fm
        else:
            rho = _interp(float(gamma), *self.params[INCREASING if increasing
                                                     else DECREASING])
        lo, hi = (0.0, self.sigma) if increasing else (self.sigma, RHO_MAX)
        return lo if rho < lo else hi if rho > hi else rho

    def tau(self, rho: float) -> float:
        """The density on the other branch with the same flux; tau(sigma) = sigma."""
        return self._tau(_check_density(rho))

    def _tau(self, rho: float) -> float:
        """:meth:`tau` of a density in [0, 1]."""
        if self.kind == "quadratic":
            return RHO_MAX - rho
        if self.kind == "triangular":
            s = self.params["sigma"]
            if rho <= s:
                return RHO_MAX - (RHO_MAX - s) * rho / s
            return s * (RHO_MAX - rho) / (RHO_MAX - s)
        # f(rho) lies in [0, f_max], where the inverse needs no check
        return self._invert(self._scalar(rho), rho > self.sigma)

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
        return self._contains_in(_check_density(rho0, "datum"),
                                 _check_density(rho, "trace"))

    def _contains_in(self, rho0: float, rho: float) -> bool:
        """:meth:`contains_trace_in` of a datum and a trace in [0, 1]."""
        if abs(rho - rho0) <= BOUNDARY_EPS:
            return True
        if rho0 <= self.sigma:
            return rho - self._tau(rho0) > BOUNDARY_EPS
        return rho >= self.sigma - BOUNDARY_EPS

    def contains_trace_out(self, rho0: float, rho: float) -> bool:
        """Mirror of :meth:`contains_trace_in` for outgoing arcs.

        For rho0 >= sigma the set is {rho0} together with [0, tau(rho0)[; otherwise
        it is [0, sigma].
        """
        return self._contains_out(_check_density(rho0, "datum"),
                                  _check_density(rho, "trace"))

    def _contains_out(self, rho0: float, rho: float) -> bool:
        """:meth:`contains_trace_out` of a datum and a trace in [0, 1]."""
        if abs(rho - rho0) <= BOUNDARY_EPS:
            return True
        if rho0 >= self.sigma:
            return self._tau(rho0) - rho > BOUNDARY_EPS
        return rho <= self.sigma + BOUNDARY_EPS


#: the default flux 4*rho*(1-rho), normalized so the peak value is 1 at sigma = 1/2.
QUADRATIC = FluxModel.quadratic()
