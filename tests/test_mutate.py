"""Site enumeration and mutant application of tools/mutate.py on inline
snippets (no pytest subprocess)."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
_SPEC = importlib.util.spec_from_file_location("mutate", _PATH)
mutate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate)

SNIPPET = textwrap.dedent('''\
    def f(a, b):
        """a + b < 2.0 in a docstring is text."""
        c = (a +  # a comment: b - 1
             b) * 0.5
        label = f"{a - b}" + "x"
        return c <= a / b and a > 0.0 or -1e-3 >= b  # c < b
    ''')


def test_sites_are_the_operators_and_nonzero_floats_outside_text():
    got = [(s.line, s.col, s.old, s.new) for s in mutate.find_sites(SNIPPET, "m.py")]
    assert got == [
        (3, 11, "+", "-"),
        (4, 12, "*", "/"),
        (4, 14, "0.5", "0.75"),
        (5, 23, "+", "-"),  # the f-string field a - b is no site
        (6, 13, "<=", "<"),
        (6, 18, "/", "*"),
        (6, 28, ">", ">="),  # nor is the zero it compares with
        (6, 38, "1e-3", "0.0015"),  # nor the constant's unary minus
        (6, 43, ">=", ">"),
    ]


def test_apply_replaces_one_token_and_keeps_every_other_byte():
    sites = {(s.line, s.old): s for s in mutate.find_sites(SNIPPET, "m.py")}
    mutant = mutate.apply(SNIPPET, sites[(6, "<=")])
    assert mutant == SNIPPET.replace("return c <= a", "return c < a")
    constant = mutate.apply(SNIPPET, sites[(4, "0.5")])
    assert constant == SNIPPET.replace("b) * 0.5", "b) * 0.75")
    compile(mutant, "m.py", "exec")


def test_apply_refuses_a_site_that_is_not_in_the_source():
    site = mutate.Site("m.py", 6, 13, "<=", "<")
    with pytest.raises(ValueError, match="is not at column"):
        mutate.apply(SNIPPET.replace("c <= a", "c == a"), site)


def test_summary_leaves_equivalent_mutants_out_of_the_score():
    mutants = [{"status": "killed", "triage": None}] * 3 + [
        {"status": "survived", "triage": "equivalent: the bound is never reached"},
        {"status": "survived", "triage": "gap: closed by a new test"},
    ]
    assert mutate.summarize(mutants) == {"sampled": 5, "killed": 3, "survived": 2,
                                         "equivalent": 1, "score": 0.75}


def test_the_sample_is_seeded_and_covers_the_package_modules():
    first = mutate.sample_sites(mutate.ROOT, 7, 16)
    assert first == mutate.sample_sites(mutate.ROOT, 7, 16) != mutate.sample_sites(
        mutate.ROOT, 8, 16)
    assert len(set(first)) == 16 and all(s.path in mutate.MODULES for s in first)
