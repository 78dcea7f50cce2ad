"""The run-config reader against a frozen copy of the configparser version it
replaced.

``parse_config`` once read the text through ``configparser.ConfigParser``
and converted every value, integers included, through ``float``.  That
version is kept below verbatim.  On variations of the README's example both
readers must accept the same texts with equal results, and reject the same
texts with ``DomainError``, except for two differences:

- an integer above 2**53 is now read exactly, where ``float`` rounded it;
- a ``[DEFAULT]`` section is now an unknown section, where configparser
  gave its keys to every other section, and so accepted it only when empty.
"""

import configparser
import math
import pathlib
import random
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as hs

from signalprice.model_core import (
    _CONFIG_SCHEMA,
    DomainError,
    McSettings,
    ModelParams,
    TimeGrid,
    _require_names,
    make_grid,
    parse_config,
)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


# --- frozen reader ---

def _frozen_parse_config(text: str) -> tuple[ModelParams, TimeGrid, McSettings]:
    """Parse an INI-style run configuration; see ``_CONFIG_SCHEMA``."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise DomainError(f"malformed config: {exc}") from exc

    _require_names("config", "sections", parser.sections(), _CONFIG_SCHEMA)
    values: dict[str, float] = {}  # key names are unique across sections
    for section, keys in _CONFIG_SCHEMA.items():
        _require_names(f"config [{section}]", "keys", parser[section], keys)
        for key in keys:
            raw = parser[section][key]
            try:
                values[key] = float(raw)
            except ValueError as exc:
                raise DomainError(
                    f"config [{section}] {key}: not a decimal number: {raw!r}"
                ) from exc

    def as_int(section: str, key: str) -> int:
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


# --- the README example ---

def readme_config() -> str:
    return re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]


def test_readme_example_parses():
    # its first header carries a "; comment" after the "]"
    p, grid, mc = parse_config(readme_config())
    assert (p.mu, p.sigma_y, p.sigma_z, p.s0, p.y0) == (0.05, 0.1, 0.05, 10.0, 0.0)
    assert (p.gamma, p.x0, p.t_end) == (0.1, 0.0, 1.0)
    assert grid.n_steps == 1000 and grid.t[-1] == 1.0
    assert mc == McSettings(n_paths=100000, seed=42)


def _readme_sections() -> list[tuple[str, list[tuple[str, str]]]]:
    """The README example as (section, [(key, value)]) in file order."""
    sections = []
    for line in readme_config().splitlines():
        if line.startswith("["):
            sections.append((line[1:line.index("]")], []))
        elif "=" in line:
            key, value = line.split("=")
            sections[-1][1].append((key.strip(), value.strip()))
    return sections


BASE = _readme_sections()


def _outcome(reader, text):
    """What a reader makes of ``text``: its results, or the message it rejects
    it with."""
    try:
        params, grid, mc = reader(text)
    except DomainError as exc:
        return str(exc)
    return params, grid.t.tobytes(), mc


def _assert_readers_agree(text, has_default=False):
    new = _outcome(parse_config, text)
    if has_default:
        assert isinstance(new, str), text
        return
    old = _outcome(_frozen_parse_config, text)
    assert isinstance(new, str) == isinstance(old, str), text
    if not isinstance(new, str):
        params, t, mc = new
        # float rounded config integers above 2**53
        rounded = McSettings(mc.n_paths, int(float(mc.seed)))
        assert old == (params, t, rounded), text
    elif not new.startswith("config line ") and not old.startswith("malformed config: "):
        # the schema checks keep their messages; a value quoted in one lacks
        # the blank lines configparser kept inside it
        assert new == re.sub(r"(\\n)+", r"\\n", old), text


# --- fixed variations ---

@pytest.mark.parametrize("old,new", [
    ("", ""),  # the example itself
    ("\n", "\r\n"),
    ("\n", "\r"),  # one line
    ("mu = 0.05", "MU: 0.05"),
    ("mu = 0.05", "mu\t=\t0.05"),
    ("mu = 0.05", "mu =\n    0.05"),  # value on the next line
    ("mu = 0.05", "mu =\n\n    0.05"),  # ... after a blank line
    ("mu = 0.05", "mu = 0.05\n    0.06"),  # two-line value
    ("steps = 1000", "steps = 1000\n  0"),  # "1000\n0", not 10000
    ("mu = 0.05", "mu = 0.05 ; inline"),
    ("mu = 0.05", "mu = 0.05\n  # indented comment\n; comment"),
    ("mu = 0.05", "  mu = 0.05"),  # deeper than the next key
    ("sigma_y = 0.1", "  sigma_y = 0.1"),  # continues mu
    ("sigma_y = 0.1", "\tsigma_y = 0.1"),
    ("sigma_y = 0.1", "sigma_y\x0c=\x0c0.1"),  # form feeds
    ("[investor]", "  [investor]"),  # continues y0
    ("[investor]", "[investor] trailing ] text"),
    ("[investor]", "[investor]]"),
    ("[investor]", "[Investor]"),
    ("[investor]", "[ investor ]"),
    ("[investor]", "[investor"),
    ("[investor]", "[]"),
    ("[investor]", "[investor]\n[investor]"),
    ("gamma = 0.1", "gamma = 0.1\nGamma = 0.1"),
    ("gamma = 0.1", "gamma = 0.1\nrho = 1"),
    ("gamma = 0.1", "= 0.1"),
    ("gamma = 0.1", "gamma 0.1"),
    ("gamma = 0.1", "gamma: = 0.1"),
    ("gamma = 0.1", "gamma ="),
    ("steps = 1000", "steps = 1e3"),
    ("steps = 1000", "steps = 10.5"),
    ("steps = 1000", "steps = 1_000"),
    ("seed = 42", "seed = +42"),
    ("seed = 42", f"seed = {2**53 + 1}"),
    ("seed = 42", f"seed = {2**64 - 1}"),
    ("[model]", "mu = 0.05\n[model]"),
    ("[model]", "# header comment\n\n[model]"),
    ("seed = 42\n", "seed = 42\n\n[extra]\nfoo = 1\n"),
    ("[mc]\npaths = 100000\nseed = 42\n", ""),
])
def test_readers_agree_on_fixed_variations(old, new):
    text = readme_config()
    assert old in text
    _assert_readers_agree(text.replace(old, new))


def test_default_section_is_unknown():
    text = "[DEFAULT]\n" + readme_config()
    assert _frozen_parse_config(text)[2].seed == 42
    with pytest.raises(DomainError, match=r"unknown sections \['DEFAULT'\]"):
        parse_config(text)


@pytest.mark.parametrize("value,expected", [
    ("1000", 1000), ("1e3", 1000), ("+1000", 1000), ("1_000", 1000), ("1000.0", 1000),
    (str(2**53 + 1), 2**53 + 1), (str(2**64 - 1), 2**64 - 1),
])
def test_config_integers_are_exact(value, expected):
    _, _, mc = parse_config(readme_config().replace("seed = 42", f"seed = {value}"))
    assert mc.seed == expected and type(mc.seed) is int


# --- generated variations ---

_SPACE = ["", " ", " ", "  ", "\t", "\x0c"]
_FILLER = ["", "   ", "# note", "; note", "  # indented", "\t; x = 1"]
_JUNK = ["garbage", "= 5", ": 5", "[]", "[", "]", "mu 1", "key = "]
_INTEGER = {
    "steps": ["1000", "1e3", "10", "1000.0", "10.5", "0", "1_0", "+20"],
    "paths": ["100000", "1e5", "1", "0", "2.5", "-3"],
    "seed": ["42", "4.2e1", "-1", "1.5", None],  # None: any 64-bit seed
}


def config_text(rng: random.Random) -> tuple[str, bool]:
    """A variation of the README example, and whether it has a [DEFAULT]
    section.  Each fault is rare, so that about a quarter of the texts are valid."""
    lines = []

    def rare(one_in=40):
        return rng.random() * one_in < 1.0

    def filler():
        while rare(4):
            lines.append(rng.choice(_FILLER))
        if rare(150):
            lines.append(rng.choice(_JUNK))

    has_default = rare(30)
    if has_default:
        lines += ["[DEFAULT]", *rng.choice([[], ["rho = 1"]])]
    sections = [(name, list(items)) for name, items in BASE if not rare(150)]
    if rare(100):
        sections.append(("extra", [("foo", "1")]))
    if rare(100):
        sections.append(rng.choice(sections or [("mc", [])]))  # a duplicate section
    if rare(150):
        lines.append("mu = 0.05")  # before any section
    filler()
    for name, items in sections:
        after = rng.choice(["", "", "", " ; note", "  # note", " junk", "]"] if rare(4) else [""])
        header = rng.choice([name.upper(), f" {name}"]) if rare(150) else name
        lines.append((" " if rare(30) else "") + f"[{header}]{after}")  # " " may continue a value
        if rare(100):
            items = items + [rng.choice(items or [("rho", "1")])]  # a duplicate key
        if rare(100):
            items = items + [("rho", "1.0")]
        for key, value in items:
            if rare(200):
                continue  # a missing key
            filler()
            if key in _INTEGER and rare(3):
                value = rng.choice(_INTEGER[key]) or str(rng.randrange(2**64))
            if rare(150):
                value += rng.choice([" ; note", " # note"])  # an inline comment
            key = rng.choice([key, key.upper(), key.title()]) if rare(3) else key
            indent = rng.choice([" ", "  ", "\t"]) if rare(20) else ""
            delimiter = rng.choice(_SPACE) + rng.choice("=:") + rng.choice(_SPACE)
            if rare(20):  # the value on an indented line of its own
                lines += [f"{indent}{key}{delimiter}".rstrip(), *[""] * rng.randrange(2),
                          f"{indent}    {value}"]
            elif rare(200):  # a two-line value
                lines += [f"{indent}{key}{delimiter}{value}", f"{indent}  {rng.choice('x0')}"]
            else:
                lines.append(f"{indent}{key}{delimiter}{value}" + rng.choice(_SPACE))
        filler()
    newline = rng.choice(["\n", "\r\n"])
    return newline.join(lines) + rng.choice([newline, ""]), has_default


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(seed=hs.integers(0, 2**64 - 1))
def test_readers_agree_on_generated_variations(seed):
    # hypothesis picks the seed: its own draws favour the ends of a range,
    # which would make every rare fault common
    _assert_readers_agree(*config_text(random.Random(seed)))
