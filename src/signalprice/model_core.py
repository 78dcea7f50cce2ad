"""Shared model inputs: parameter sets, time grids, information modes.

Every type here is immutable.  ``ModelParams`` and ``InformationMode`` check
their domain when built (``dataclasses.replace`` included), so every other
module takes them as valid and never re-checks or mutates them.
``ModelParams.check_time`` holds a value function's time t to [0, T].
``write_csv`` is the one CSV writer of the package.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, fields

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

    def check_time(self, t):
        """``t`` as a float array once every time in it lies in [0, t_end];
        otherwise a DomainError naming the first one outside (nan included)."""
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:  # on one time, float comparisons cost a fifth of numpy's
            inside = 0.0 <= float(t) <= self.t_end
        else:  # a nan fails both
            inside = t.size == 0 or (0.0 <= np.min(t) and np.max(t) <= self.t_end)
        if not inside:
            bad = t[~((t >= 0.0) & (t <= self.t_end))].flat[0]
            raise DomainError(f"t must be in [0, t_end] = [0.0, {self.t_end!r}], "
                              f"got {float(bad)!r}")
        return t


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
        """Nearest grid index to ``time``; ties resolve to the earlier point.
        A time not finite or more than dt/2 outside [0, t_end] is an error."""
        if not -0.5 * self.dt <= time <= self.t_end + 0.5 * self.dt:
            raise DomainError(f"time {float(time)!r} is off the grid [0.0, {self.t_end!r}]")
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
_LINE = re.compile(r"\[(.+)\]|([^=:]+)[=:](.*)|")  # [section], key = value, or neither


def _require_names(where: str, kind: str, got, want) -> None:
    """Raise a DomainError listing the unknown and the missing ``kind`` names."""
    unknown = sorted(set(got) - set(want))
    missing = sorted(set(want) - set(got))
    if unknown or missing:
        parts = [f"{label} {kind} {names}"
                 for label, names in (("unknown", unknown), ("missing", missing)) if names]
        raise DomainError(f"{where}: " + ", ".join(parts))


def parse_config(text: str) -> tuple[ModelParams, TimeGrid, McSettings]:
    """Parse a run configuration (``_CONFIG_SCHEMA``) in one pass over its lines:
    ``[section]`` headers, text after the ``]`` ignored; ``key = value`` or
    ``key: value`` lines, split at the first delimiter, key lower-cased; lines
    indented deeper than their key continue its value; blank and ``#``/``;``
    lines skipped; no inline comments."""
    sections: dict[str, dict[str, str]] = {}
    entries = last = indent = None  # the current section, its last key, that key's indent
    for lineno, line in enumerate(text.split("\n"), 1):
        value, depth = line.strip(), len(line) - len(line.lstrip())
        if value[:1] in "#;":  # a comment, or a blank line ("" is in every string)
            continue
        if last is not None and depth > indent:
            entries[last] += "\n" + value
            continue
        (name, key, raw), indent, last = _LINE.match(value).groups(), depth, None
        if name and name not in sections:
            entries = sections[name] = {}
        elif key and entries is not None and (key := key.rstrip().lower()) not in entries:
            entries[key], last = raw.strip(), key
        else:
            problem = ("duplicate section" if name else "not [section] or key = value" if not key
                       else "key outside any section" if entries is None else "duplicate key")
            raise DomainError(f"config line {lineno}: {problem}: {value!r}")

    _require_names("config", "sections", sections, _CONFIG_SCHEMA)
    values: dict[str, float] = {}  # key names are unique across sections
    for section, keys in _CONFIG_SCHEMA.items():
        _require_names(f"config [{section}]", "keys", sections[section], keys)
        for key in keys:
            raw = sections[section][key]
            try:
                values[key] = float(raw)
            except ValueError as exc:
                raise DomainError(
                    f"config [{section}] {key}: not a decimal number: {raw!r}"
                ) from exc

    def as_int(section: str, key: str) -> int:
        try:
            return int(sections[section][key])  # exact, where float rounds above 2**53
        except ValueError:
            v = values[key]
        if not math.isfinite(v) or v != int(v):
            raise DomainError(f"config [{section}] {key}: must be an integer, got {v!r}")
        return int(v)

    params = ModelParams(**{field.name: values[field.name] for field in fields(ModelParams)})
    grid = make_grid(params.t_end, as_int("horizon", "steps"))
    mc = McSettings(n_paths=as_int("mc", "paths"), seed=as_int("mc", "seed"))
    if mc.n_paths < 1:
        raise DomainError(f"config [mc] paths: must be >= 1, got {mc.n_paths}")
    return params, grid, mc


def load_config(path: str) -> tuple[ModelParams, TimeGrid, McSettings]:
    """Read and parse a run configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _format_cells(column) -> list[str]:
    """The cells ``write_csv`` writes for a column of numbers, all formatted
    by one ``%`` at 17 significant digits."""
    values = np.asarray(column).tolist()
    return ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]


def _is_cells(column) -> bool:
    return isinstance(column, list) and bool(column) and type(column[0]) is str


_CSV_ROWS = 4096  # rows formatted and written at a time: the text in memory is one block


def write_csv(path, header: str, columns) -> None:
    """CSV of ``columns`` under a ``header`` line, numbers at 17 significant
    digits (they round-trip); shorter columns end in empty cells.

    A column is numbers, or a list of ``str`` cells that ``_format_cells``
    made, so that a column written to two files is formatted once.  Each
    block of ``_CSV_ROWS`` rows takes the cells of every column's slice,
    formatted there by ``_format_cells`` for a column of numbers."""
    cols = [col if _is_cells(col) else np.asarray(col) for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, max(map(len, cols)), _CSV_ROWS):
            block = [col[start:start + _CSV_ROWS] for col in cols]  # cells stay a list
            cells = [col if type(col) is list else _format_cells(col) for col in block]
            fh.write("\n".join(map(",".join, itertools.zip_longest(*cells, fillvalue=""))) + "\n")


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
