"""The summary rule of tools/ab_pairs.py on synthetic runs (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def _record(pass_s, ops_per_s, digest="d0", failed=0):
    return {"metrics": {"pass_s": pass_s, "ops_per_s": ops_per_s},
            "units": {"pass_s": "s", "ops_per_s": "1/s"},
            "attempted": 100, "failed": failed, "outputs_sha256": digest}


BETTER = {"pass_s": "lower", "ops_per_s": "higher"}


def _runs(parent, change, **change_kw):
    return {"parent": [_record(*v) for v in parent],
            "change": [_record(*v, **change_kw) for v in change]}


class TestSummarize:
    PARENT = [(1.0, 10.0), (1.1, 9.0), (0.9, 11.0), (1.2, 8.0), (1.0, 10.0)]

    def test_clear_gain(self):
        change = [(0.8, 12.0), (0.85, 11.0), (0.75, 13.0), (0.9, 10.5), (0.8, 12.0)]
        got = ab_pairs.summarize(_runs(self.PARENT, change), BETTER)
        m = got["metrics"]["pass_s"]
        assert m["unit"] == "s"
        assert m["parent"] == [1.0, 1.1, 0.9, 1.2, 1.0]
        assert m["parent_q1_median_q3"] == [1.0, 1.0, 1.1]
        assert m["change_q1_median_q3"] == [0.8, 0.8, 0.85]
        assert m["median_change_pct"] == -20.0
        assert m["change_wins"] == "5 of 5"
        assert m["median_gap_exceeds_parent_iqr"] is True  # 0.2 > 1.1 - 1.0
        up = got["metrics"]["ops_per_s"]
        assert up["median_change_pct"] == 20.0
        assert up["change_wins"] == "5 of 5"
        assert up["median_gap_exceeds_parent_iqr"] is True  # 2 > 10 - 9
        assert got["pairs"] == 5
        assert got["operations_failed"] == {"parent": 0, "change": 0}
        assert got["operations_attempted"] == {"parent": 500, "change": 500}
        assert got["outputs_sha256_equal_in_every_pair"] is True
        assert got["outputs_sha256"] == {"parent": ["d0"], "change": ["d0"]}

    def test_gap_inside_the_iqr_and_a_loss(self):
        # pass_s 2 % better in the median, inside the parent's IQR of 0.1;
        # ops_per_s worse, which never counts as a gap beyond the IQR
        change = [(0.98, 9.0), (1.2, 8.0), (0.95, 10.0), (1.3, 7.0), (0.96, 9.0)]
        got = ab_pairs.summarize(_runs(self.PARENT, change), BETTER)
        m = got["metrics"]["pass_s"]
        assert m["median_change_pct"] == -2.0
        assert m["change_wins"] == "2 of 5"
        assert m["median_gap_exceeds_parent_iqr"] is False
        up = got["metrics"]["ops_per_s"]
        assert up["median_change_pct"] == -10.0
        assert up["change_wins"] == "0 of 5"
        assert up["median_gap_exceeds_parent_iqr"] is False

    def test_digests_and_failures(self):
        got = ab_pairs.summarize(_runs(self.PARENT, self.PARENT, digest="d1", failed=2), BETTER)
        assert got["outputs_sha256_equal_in_every_pair"] is False
        assert got["outputs_sha256"] == {"parent": ["d0"], "change": ["d1"]}
        assert got["operations_failed"] == {"parent": 0, "change": 10}
        assert got["metrics"]["pass_s"]["change_wins"] == "0 of 5"  # ties are no win

    def test_quartiles_need_five_pairs(self):
        got = ab_pairs.summarize(_runs(self.PARENT[:4], self.PARENT[:4]), BETTER)
        m = got["metrics"]["pass_s"]
        assert m["parent_q1_median_q3"] is None
        assert m["median_gap_exceeds_parent_iqr"] is None
        assert m["median_change_pct"] == 0.0

    def test_unequal_sides_are_refused(self):
        with pytest.raises(ValueError):
            ab_pairs.summarize(_runs(self.PARENT, self.PARENT[:4]), BETTER)
