"""Rescaling of the end-to-end times by the reference blocks."""

import pytest

import reference
import run

R = run.REFERENCE_S


def block(start, seconds):
    return {"start": start, "end": start + 1, "seconds": seconds}


def test_each_stretch_scales_by_the_blocks_on_either_side():
    child = {"cpu_s": 9.0, "peak_rss_mb": 60.0}
    timings = {
        "reference": [block(0, R), block(2, 3 * R), block(20, 2 * R),
                      block(40, 4 * R), block(60, 9 * R)],
        "setup": [{"block": 0, "seconds": 0.1}, {"block": 1, "seconds": 0.9},
                  {"block": 2, "seconds": 0.5}],
        "passes": [
            {"kind": "plain", "start": 4, "end": 14, "wall_s": 10.0,
             "children": [child]},
            {"kind": "traced", "start": 22, "end": 40, "wall_s": 18.0,
             "children": [child]},
            {"kind": "plain", "start": 41, "end": 59, "wall_s": 18.0,
             "children": [child, dict(child, peak_rss_mb=70.0)]},
        ],
    }
    raw, scaled = run.end_to_end(timings)
    assert raw == {"wall_s": 14.0, "cpu_s": 13.5, "peak_rss_mb": 65.0,
                   "setup_s": 0.5}
    # passes at speeds 2.5 and 6.5: 10 / 2.5 = 4 and 18 / 6.5
    assert scaled["wall_s"] == pytest.approx((4 + 18 / 6.5) / 2)
    assert scaled["cpu_s"] == pytest.approx((9 / 2.5 + 18 / 6.5) / 2)
    # set-up timings over the block just before each: 0.1, 0.3, 0.25
    assert scaled["setup_s"] == pytest.approx(0.25)
    assert scaled["peak_rss_mb"] == 65.0


def test_reference_work_is_fixed():
    assert reference.work() == reference.work() == 207
