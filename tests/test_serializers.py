"""The text writers and the schedule reader against frozen copies of the
versions they replaced.

``write_csv`` once formatted every cell with ``format`` and joined rows cell
by cell; ``_to_json`` once tested a float after five other types; ``from_csv``
once stripped each line twice.  Those versions are kept below verbatim.  The
CSV writer and the schedule reader must match them exactly.  The JSON writer
must match except on the tokens of two fixes: a whole-number float gains
``.0`` (``0`` -> ``0.0``, ``-0`` -> ``-0.0``) and a string with a control
character is escaped as JSON requires.
"""

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as hs

from signalprice import model_core
from signalprice.model_core import _format_cells, write_csv
from signalprice.cli import _to_json
from signalprice.subscription_timing import RateSchedule, ScheduleDomainError


# --- frozen writers and reader ---

def _frozen_write_csv(path, header: str, columns) -> None:
    """CSV of ``columns`` under a ``header`` line, numbers at 17 significant
    digits (they round-trip); shorter columns end in empty cells."""
    # formatting Python floats column by column is faster than numpy scalars
    # cell by cell, and gives the same text
    cells = [[format(v, ".17g") for v in np.asarray(col).tolist()] for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in itertools.zip_longest(*cells, fillvalue=""):
            fh.write(",".join(row) + "\n")


def _frozen_to_json(obj) -> str:
    """JSON text with floats at 17 significant digits, stable key order.

    JSON has no inf or nan, so non-finite floats are written as null.
    """
    if isinstance(obj, dict):
        items = ", ".join(f'"{k}": {_frozen_to_json(v)}' for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_frozen_to_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _frozen_from_csv(path) -> RateSchedule:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "t,c":
        raise ScheduleDomainError("schedule CSV must start with header 't,c'")
    knots, values = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise ScheduleDomainError(f"schedule CSV row is not two columns: {ln!r}")
        try:
            knots.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise ScheduleDomainError(f"schedule CSV row not numeric: {ln!r}") from exc
    return RateSchedule(np.array(knots), np.array(values))


# --- write_csv ---

SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                  2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1e16, 0.1]
floats = hs.one_of(hs.floats(), hs.sampled_from(SPECIAL_FLOATS))
column = hs.one_of(
    hs.lists(floats, max_size=12),
    hs.lists(hs.integers(-2**64, 2**64), max_size=12),
    hs.lists(hs.one_of(floats, hs.integers(-10**6, 10**6)), max_size=12),
    hs.lists(floats, max_size=12).map(lambda v: np.array(v, dtype=np.float64)),
    hs.lists(hs.one_of(hs.floats(width=32), hs.sampled_from([1e-45, -0.0, 3e38])),
             max_size=12).map(lambda v: np.array(v, dtype=np.float32)),
    hs.lists(hs.integers(-2**63, 2**63 - 1), max_size=12).map(
        lambda v: np.array(v, dtype=np.int64)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=hs.lists(column, min_size=1, max_size=6))
def test_write_csv_matches_frozen_writer(tmp_path, columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    write_csv(tmp_path / "new.csv", header, columns)
    _frozen_write_csv(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=hs.lists(column, min_size=1, max_size=6),
       formatted=hs.lists(hs.booleans(), min_size=6, max_size=6))
def test_write_csv_of_formatted_cells_matches_frozen_writer(tmp_path, columns, formatted):
    # any column may come as the cells _format_cells made of it
    cells = [_format_cells(col) if pick else col for col, pick in zip(columns, formatted)]
    for col in columns:
        assert _format_cells(col) == [format(v, ".17g") for v in np.asarray(col).tolist()]
    header = ",".join(f"c{i}" for i in range(len(columns)))
    write_csv(tmp_path / "new.csv", header, cells)
    _frozen_write_csv(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_pads_short_columns(tmp_path):
    path = tmp_path / "padded.csv"
    write_csv(path, "t,a,b", [[0.0, 0.5, 1.0], [-0.0, math.nan], [1e308]])
    assert path.read_text() == "t,a,b\n0,-0,1e+308\n0.5,nan,\n1,,\n"


@pytest.mark.parametrize("block_rows", [1, 2, 5])
@pytest.mark.parametrize("check", [
    test_write_csv_matches_frozen_writer,
    test_write_csv_of_formatted_cells_matches_frozen_writer,
    test_write_csv_pads_short_columns,
], ids=lambda check: check.__name__.removeprefix("test_write_csv_"))
def test_write_csv_in_small_blocks(tmp_path, monkeypatch, check, block_rows):
    # every generated column crosses block edges and short columns end
    # mid-block, so a row lost, repeated or padded at an edge shows
    monkeypatch.setattr(model_core, "_CSV_ROWS", block_rows)
    check(tmp_path)


def test_write_csv_holds_one_block_of_text(tmp_path):
    # 200,000 rows of 5 columns are 19 MiB of text; only a block of it is held
    columns = list(np.random.default_rng(0).standard_normal((5, 200_000)))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "long.csv", "a,b,c,d,e", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert (tmp_path / "long.csv").read_text().count("\n") == 200_001


# --- _to_json ---

JSON_TOKEN = re.compile(
    r'"(?:\\.|[^"\\])*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|true|false|null|[\[\]{},:]'
)
WHOLE_NUMBER = re.compile(r"-?\d+")

scalars = hs.one_of(
    floats,
    hs.sampled_from([5.0, -3.0, 2.0**53, 1e17, -1e16]),
    hs.integers(-2**70, 2**70),
    hs.booleans(),
    hs.none(),
    hs.text(max_size=8),
    hs.sampled_from(["out\tdir", "a\nb", 'quote"back\\slash', "\x00\x1f\x7f", "ünï"]),
    hs.floats(width=32).map(np.float32),
    floats.map(np.float64),
    hs.integers(-2**63, 2**63 - 1).map(np.int64),
)
keys = hs.from_regex(r"[a-z_]{1,8}", fullmatch=True)  # the program's keys are names
json_objects = hs.recursive(
    scalars,
    lambda kids: hs.one_of(
        hs.lists(kids, max_size=5),
        hs.lists(kids, max_size=5).map(tuple),
        hs.dictionaries(keys, kids, max_size=4),
        hs.lists(floats, max_size=5).map(np.array),
    ),
    max_leaves=24,
)


def _plain(obj):
    """What a JSON reader should get back from ``_to_json(obj)``."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return float(obj) if math.isfinite(obj) else None


def _typed(obj):
    """``obj`` with every number tagged by its type; floats by their bits."""
    if isinstance(obj, dict):
        return {k: _typed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_typed(v) for v in obj]
    if type(obj) is float:
        return ("float", obj.hex())
    return (type(obj).__name__, obj)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(obj=json_objects)
def test_to_json_matches_frozen_writer_but_for_the_fixed_tokens(obj):
    new, old = _to_json(obj), _frozen_to_json(obj)
    new_tokens, old_tokens = JSON_TOKEN.findall(new), JSON_TOKEN.findall(old)
    assert len(new_tokens) == len(old_tokens)
    for was, now in zip(old_tokens, new_tokens):
        if was == now:
            continue
        if was.startswith('"'):  # a string with a control character, now escaped
            assert re.search(r"[\x00-\x1f]", was)
            assert json.loads(now) == json.loads(was, strict=False)
        else:  # a whole-number float, now with a point
            assert WHOLE_NUMBER.fullmatch(was) and now == was + ".0"
    # valid JSON that reads back with every float a float and every int an int
    assert _typed(json.loads(new)) == _typed(_plain(obj))


def test_to_json_whole_number_floats_keep_a_point():
    assert _to_json([0.0, -0.0, 5.0, 1e16, 1e17, 3]) == (
        "[0.0, -0.0, 5.0, 10000000000000000.0, 1e+17, 3]"
    )
    assert math.copysign(1.0, json.loads(_to_json(-0.0))) == -1.0


# --- RateSchedule.from_csv ---

def _outcome(read, path):
    try:
        schedule = read(path)
    except ScheduleDomainError as exc:
        return "error", str(exc)
    return [v.hex() for v in schedule.knots.tolist()], [v.hex() for v in schedule.values.tolist()]


@pytest.mark.parametrize("text", [
    "t,c\r\n0,1.5\r\n1,1.5\r\n",                          # CRLF
    "\n\nt,c\n\n0,1\n   \n\t\n1,2\n\n",                  # blank lines
    " t , c \n  0 ,\t1 \n 0.5 , -0.0 \n1e0,  2.5  \n",    # padded cells
    "t,c\r\n0,1\r\n \r\n1,1",                              # no final newline
    "",                                                     # empty file
    "time,rate\n0,1\n1,1\n",                               # bad header
    "t,c\n0,1,9\n",                                         # three columns
    "t,c\n 0 ; 1 \n",                                       # one column
    "t,c\n0,one\n1,1\n",                                    # not numeric
    "t,c\n0,1\n0.5,\n",                                     # empty cell
    "t,c\n0.5,1\n1,1\n",                                    # does not start at 0
    "t,c\n",                                                # header only
    "t,c\n0,1,9\n1,1,9\n",                                  # every row three columns
    "t,c\n0,1\n1_0,2\n",                                    # underscores: float() only
    "t,c\n0,\u0661\n1,1\n",                                 # non-ASCII digit: float() only
    "t,c\n0,#1\n1,1\n",                                     # not a comment
    "t,c\n0,0x1p-3\n1,1\n",                                 # hex float
    "t,c\n0,infinity\n1,+1\n",                              # spelled-out inf, plus sign
    "t,c\n0,1e-400\n1,1\n",                                 # underflows to 0.0
    "t,c\n0\u00a0,\u00a01\n1,1\n",                          # no-break-space pads
    "t,c\n0\x1c,1\n1,1\n",                                  # separator pad: numpy only
])
def test_from_csv_matches_frozen_reader(tmp_path, text):
    path = tmp_path / "schedule.csv"
    path.write_bytes(text.encode())
    assert _outcome(RateSchedule.from_csv, path) == _outcome(_frozen_from_csv, path)


cells = hs.sampled_from(["0", "0.5", "1", "2.5e-1", "-0.0", "1e400", "nan", "x", "",
                         "1_0", "#1", "\u0661", "0x1p-3", "infinity", "+1", "1e-400"])
pads = hs.sampled_from(["", " ", "\t", "  ", "\u00a0", "\x1c"])
rows = hs.one_of(
    hs.tuples(pads, cells, pads, cells, pads).map(lambda r: f"{r[0]}{r[1]},{r[2]}{r[3]}{r[4]}"),
    hs.sampled_from(["", " ", "\t", "0,1,2", "t,c"]),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=hs.sampled_from(["t,c", " t , c ", "t,c,x", "c,t"]),
       body=hs.lists(rows, max_size=6), newline=hs.sampled_from(["\n", "\r\n"]))
def test_from_csv_matches_frozen_reader_on_generated_files(tmp_path, header, body, newline):
    path = tmp_path / "schedule.csv"
    path.write_bytes(newline.join([header, "0,1", *body]).encode())
    assert _outcome(RateSchedule.from_csv, path) == _outcome(_frozen_from_csv, path)


# --- whole float lists and 1001-row schedules, against the same frozen copies ---

def _frozen_json_list(values) -> str:
    """The frozen writer's list, float by float, with the ``.0`` fix applied."""
    def token(v):
        text = _frozen_to_json(v)
        return text + ".0" if WHOLE_NUMBER.fullmatch(text) else text
    return "[" + ", ".join(token(v) for v in values) + "]"


LIST_SPECIALS = [0.0, -0.0, 1e16, -1e16, 99999999999999984.0, 1e17, 5e-324, -5e-324,
                 math.nan, math.inf, -math.inf, 0.1, 2.5, -3.0, 1e308]


@pytest.mark.parametrize("n", [0, 1, 15, 1001, 5000])
def test_to_json_float_lists_match_the_frozen_writer_float_by_float(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    values[: min(n, len(LIST_SPECIALS))] = LIST_SPECIALS[:n]
    rng.shuffle(values)
    expected = _frozen_json_list(values.tolist())
    assert _to_json(values) == expected                              # float64 array
    assert _to_json(values.tolist()) == expected                     # list of floats
    assert _to_json(tuple(values.tolist())) == expected              # tuple of floats
    assert _to_json(list(values)) == expected                        # list of np.float64
    assert _to_json({"x": values, "n": n}) == f'{{"x": {expected}, "n": {n}}}'


def test_to_json_float_list_one_pass_keeps_every_type_rule():
    # float32 elements and arrays print their float64 value, like the scalar path
    halves = np.array([0.1, -0.0, 3.0, np.inf], dtype=np.float32)
    assert _to_json(halves) == _frozen_json_list(halves.tolist())
    assert _to_json([np.float32(0.1), 2.0]) == _to_json([float(np.float32(0.1)), 2.0])
    # a list with any non-float keeps each element's own type
    assert _to_json([1.0, 2, True, None]) == "[1.0, 2, true, null]"
    assert _to_json(np.array([[1.0, 0.5], [-0.0, np.nan]])) == "[[1.0, 0.5], [-0.0, null]]"
    assert _to_json(np.arange(3)) == "[0, 1, 2]"
    assert _to_json([]) == "[]" and _to_json(np.array([])) == "[]"


def _schedule_text(n):
    t = np.linspace(0.0, 1.0, n)
    return ["t,c"] + [f"{a!r},{b!r}" for a, b in zip(t.tolist(), (0.5 + t).tolist())]


@pytest.mark.parametrize("where", [1, 500, 1001])
@pytest.mark.parametrize("bad", [
    "0.5,0.2,9",        # three columns
    "0.5",              # one column
    "0.5,x",            # not numeric
    "0.5,",             # empty cell
    "0.5;0.2",          # wrong separator
])
def test_from_csv_names_the_frozen_readers_bad_row_in_a_long_file(tmp_path, where, bad):
    lines = _schedule_text(1001)
    lines[where] = bad
    path = tmp_path / "schedule.csv"
    path.write_text("\n".join(lines) + "\n")
    got, frozen = _outcome(RateSchedule.from_csv, path), _outcome(_frozen_from_csv, path)
    assert got[0] == "error" and got == frozen


def test_from_csv_rows_of_three_and_one_cell_do_not_pair_up(tmp_path):
    # together the two rows hold four cells, so only a per-row count finds them
    lines = _schedule_text(1001)
    lines[10], lines[20] = "0.1,1,0.2", "2"
    path = tmp_path / "schedule.csv"
    path.write_text("\n".join(lines) + "\n")
    assert _outcome(RateSchedule.from_csv, path) == (
        "error", "schedule CSV row is not two columns: '0.1,1,0.2'")
    assert _outcome(RateSchedule.from_csv, path) == _outcome(_frozen_from_csv, path)


def _check_read_back(path, knots, rates):
    schedule = RateSchedule(knots, rates)
    schedule.to_csv(path)
    back = RateSchedule.from_csv(path)
    assert [v.hex() for v in back.knots.tolist()] == [v.hex() for v in schedule.knots.tolist()]
    assert [v.hex() for v in back.values.tolist()] == [v.hex() for v in schedule.values.tolist()]
    assert _outcome(RateSchedule.from_csv, path) == _outcome(_frozen_from_csv, path)


@pytest.mark.parametrize("seed", range(20))
def test_from_csv_reads_back_what_to_csv_wrote_bit_for_bit(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 1200))
    steps = rng.random(n - 1) * 10.0 ** rng.integers(-300, 3, n - 1)
    knots = np.concatenate([[0.0], np.cumsum(steps)])
    knots = knots[np.concatenate([[True], np.diff(knots) > 0.0])]  # strictly increasing
    rates = rng.random(knots.size) * 10.0 ** rng.integers(-320, 308, knots.size)
    rates[rng.random(knots.size) < 0.05] = 0.0
    _check_read_back(tmp_path / "schedule.csv", knots, rates)


def test_from_csv_reads_back_a_100001_row_file_bit_for_bit(tmp_path):
    rng = np.random.default_rng(100_001)
    knots = np.concatenate([[0.0], np.cumsum(0.5 + rng.random(100_000))])
    rates = rng.random(knots.size) * 10.0 ** rng.integers(-320, 308, knots.size)
    _check_read_back(tmp_path / "schedule.csv", knots, rates)
