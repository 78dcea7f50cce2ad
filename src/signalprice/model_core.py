"""Shared model inputs: parameter sets, time grids, information modes.

Every type here is immutable.  ``ModelParams`` and ``InformationMode`` check
their domain when built (``dataclasses.replace`` included), so every other
module takes them as valid and never re-checks or mutates them.
``write_csv`` is the one CSV writer of the package.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """A model input violates its domain (named field in the message)."""


@dataclass(frozen=True)
class ModelParams:
    """Market and preference constants.

    mu       drift constant (price units per unit time)
    sigma_y  signal volatility, >= 0 (0 only as a degenerate test case)
    sigma_z  price volatility, > 0
    gamma    absolute risk aversion, > 0
    x0       initial wealth
    y0       initial signal value
    s0       initial price
    t_end    horizon T, > 0

    The single-period model reuses ``sigma_y``/``sigma_z`` as the one-shot
    signal/noise standard deviations; no separate parameter type exists.
    """

    mu: float
    sigma_y: float
    sigma_z: float
    gamma: float
    x0: float
    y0: float
    s0: float
    t_end: float

    def __post_init__(self):
        validate(self)


def validate(params: ModelParams) -> ModelParams:
    """Return ``params`` unchanged if every field is in its domain.

    Raises DomainError naming the first violated field.  Idempotent.
    """
    for name in ("mu", "sigma_y", "sigma_z", "gamma", "x0", "y0", "s0", "t_end"):
        value = getattr(params, name)
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if params.sigma_y < 0.0:
        raise DomainError(f"sigma_y must be >= 0, got {params.sigma_y!r}")
    if params.sigma_z <= 0.0:
        raise DomainError(f"sigma_z must be > 0, got {params.sigma_z!r}")
    if params.gamma <= 0.0:
        raise DomainError(f"gamma must be > 0, got {params.gamma!r}")
    # gamma sigma_z^2 scales every position; squared by multiplication, which
    # gives inf where ** would raise OverflowError
    scale = params.gamma * (params.sigma_z * params.sigma_z)
    if not (math.isfinite(scale) and scale > 0.0):
        raise DomainError(
            f"sigma_z = {params.sigma_z!r} is out of range: gamma * sigma_z**2 = {scale!r} "
            "must be finite and nonzero"
        )
    if params.t_end <= 0.0:
        raise DomainError(f"t_end must be > 0, got {params.t_end!r}")
    return params


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = t_end with t_k = k*dt.

    The last point is pinned to ``t_end`` exactly (linspace endpoint), not
    accumulated by repeated addition.
    """

    t_end: float
    n_steps: int
    t: np.ndarray

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def index_of(self, time: float) -> int:
        """Nearest grid index to ``time``; ties resolve to the earlier point."""
        return int(np.argmin(np.abs(self.t - time)))


def make_grid(t_end: float, n_steps: int) -> TimeGrid:
    """Uniform grid on [0, t_end] with ``n_steps`` steps (n_steps + 1 points)."""
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps!r}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"t_end must be finite and > 0, got {t_end!r}")
    t = np.linspace(0.0, t_end, n_steps + 1)
    t.setflags(write=False)
    return TimeGrid(t_end=float(t_end), n_steps=int(n_steps), t=t)


@dataclass(frozen=True)
class InformationMode:
    """When the investor starts receiving the signal feed.

    ``subscribe_time is None``  -> never subscribes (trades on the filtered
    signal throughout).  ``subscribe_time == 0.0`` -> informed from the start.
    Any other value is a mid-horizon purchase time t* in [0, T].
    """

    subscribe_time: float | None = None

    def __post_init__(self):
        t_star = self.subscribe_time
        if t_star is not None and (not math.isfinite(t_star) or t_star < 0.0):
            raise DomainError(f"subscribe time must be finite and >= 0, got {t_star!r}")


UNINFORMED = InformationMode(None)
INFORMED_FROM_START = InformationMode(0.0)


def subscribe_at(t_star: float) -> InformationMode:
    """Mode that purchases the signal feed at time ``t_star``."""
    return InformationMode(float(t_star))


@dataclass(frozen=True)
class McSettings:
    """Monte-Carlo run size and seed."""

    n_paths: int
    seed: int


# Config file schema: four flat sections, every key required, unknown keys
# rejected.  Values are decimal numbers (paths/steps/seed integral).
_CONFIG_SCHEMA = {
    "model": ("mu", "sigma_y", "sigma_z", "s0", "y0"),
    "investor": ("gamma", "x0"),
    "horizon": ("t_end", "steps"),
    "mc": ("paths", "seed"),
}


def parse_config(text: str) -> tuple[ModelParams, TimeGrid, McSettings]:
    """Parse an INI-style run configuration; see ``_CONFIG_SCHEMA``."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise DomainError(f"malformed config: {exc}") from exc

    sections = set(parser.sections())
    expected = set(_CONFIG_SCHEMA)
    if sections != expected:
        unknown = sorted(sections - expected)
        missing = sorted(expected - sections)
        parts = []
        if unknown:
            parts.append(f"unknown sections {unknown}")
        if missing:
            parts.append(f"missing sections {missing}")
        raise DomainError("config: " + ", ".join(parts))

    values: dict[str, dict[str, float]] = {}
    for section, keys in _CONFIG_SCHEMA.items():
        got = set(parser[section])
        want = set(keys)
        if got != want:
            unknown = sorted(got - want)
            missing = sorted(want - got)
            parts = []
            if unknown:
                parts.append(f"unknown keys {unknown}")
            if missing:
                parts.append(f"missing keys {missing}")
            raise DomainError(f"config [{section}]: " + ", ".join(parts))
        values[section] = {}
        for key in keys:
            raw = parser[section][key]
            try:
                values[section][key] = float(raw)
            except ValueError as exc:
                raise DomainError(
                    f"config [{section}] {key}: not a decimal number: {raw!r}"
                ) from exc

    def as_int(section: str, key: str) -> int:
        v = values[section][key]
        if v != int(v):
            raise DomainError(f"config [{section}] {key}: must be an integer, got {v!r}")
        return int(v)

    params = ModelParams(
        mu=values["model"]["mu"],
        sigma_y=values["model"]["sigma_y"],
        sigma_z=values["model"]["sigma_z"],
        gamma=values["investor"]["gamma"],
        x0=values["investor"]["x0"],
        y0=values["model"]["y0"],
        s0=values["model"]["s0"],
        t_end=values["horizon"]["t_end"],
    )
    grid = make_grid(params.t_end, as_int("horizon", "steps"))
    mc = McSettings(n_paths=as_int("mc", "paths"), seed=as_int("mc", "seed"))
    if mc.n_paths < 1:
        raise DomainError(f"config [mc] paths: must be >= 1, got {mc.n_paths}")
    return params, grid, mc


def load_config(path: str) -> tuple[ModelParams, TimeGrid, McSettings]:
    """Read and parse a run configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def write_csv(path, header: str, columns) -> None:
    """CSV of ``columns`` under a ``header`` line, numbers at 17 significant
    digits (they round-trip); shorter columns end in empty cells."""
    # formatting Python floats column by column is faster than numpy scalars
    # cell by cell, and gives the same text
    cells = [[format(v, ".17g") for v in np.asarray(col).tolist()] for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in itertools.zip_longest(*cells, fillvalue=""):
            fh.write(",".join(row) + "\n")


__all__ = [
    "DomainError",
    "ModelParams",
    "TimeGrid",
    "InformationMode",
    "McSettings",
    "UNINFORMED",
    "INFORMED_FROM_START",
    "subscribe_at",
    "validate",
    "make_grid",
    "parse_config",
    "load_config",
    "write_csv",
]
