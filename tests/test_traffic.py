"""Arrival generators and the sink's per-cycle Cv window."""
import numpy as np
import pytest

from adpsim.core import ArrivalKind, ArrivalModel, ParameterError, substream
from adpsim.traffic import (
    ArrivalTimeline,
    CvWindow,
    cycle_cv,
    generate_arrivals,
    load_timelines,
    save_timelines,
)

CBR5 = ArrivalModel(ArrivalKind.CBR, 5.0)
POISSON5 = ArrivalModel(ArrivalKind.POISSON, 5.0)
BURSTY50 = ArrivalModel(ArrivalKind.BURSTY, 50.0)


def test_cbr_grid_is_exact():
    tl = generate_arrivals(CBR5, horizon_s=50.0)
    assert tl.timestamps_s == tuple(5.0 * k for k in range(1, 11))
    # horizon that is an exact multiple keeps the boundary arrival
    assert len(generate_arrivals(CBR5, horizon_s=25.0)) == 5
    assert len(generate_arrivals(CBR5, horizon_s=24.999)) == 4


def test_cbr_count_limit():
    tl = generate_arrivals(CBR5, count_limit=3)
    assert tl.timestamps_s == (5.0, 10.0, 15.0)
    both = generate_arrivals(CBR5, horizon_s=12.0, count_limit=99)
    assert both.timestamps_s == (5.0, 10.0)
    assert generate_arrivals(CBR5, count_limit=0).timestamps_s == ()


def test_generate_validation():
    with pytest.raises(ParameterError):
        generate_arrivals(CBR5)
    with pytest.raises(ParameterError):
        generate_arrivals(CBR5, horizon_s=0.0)
    with pytest.raises(ParameterError):
        generate_arrivals(CBR5, count_limit=-1)
    with pytest.raises(ParameterError):
        generate_arrivals(POISSON5, horizon_s=10.0)  # no rng


def test_poisson_statistics():
    tl = generate_arrivals(POISSON5, count_limit=4000, rng=substream(3, "a"))
    gaps = np.diff((0.0,) + tl.timestamps_s)
    assert len(tl) == 4000
    assert gaps.mean() == pytest.approx(5.0, rel=0.05)
    assert gaps.std(ddof=1) / gaps.mean() == pytest.approx(1.0, abs=0.05)


def test_poisson_horizon_stops_generation():
    tl = generate_arrivals(POISSON5, horizon_s=100.0, rng=substream(3, "a"))
    assert all(t <= 100.0 for t in tl.timestamps_s)


def test_bursty_is_more_variable_than_poisson():
    tl = generate_arrivals(BURSTY50, count_limit=4000, rng=substream(9, "b"))
    gaps = np.diff((0.0,) + tl.timestamps_s)
    cv = gaps.std(ddof=1) / gaps.mean()
    assert cv > 1.5, f"burst gaps should be heavily overdispersed, cv={cv:.2f}"
    # long-run rate stays near the configured mean (factor and duty cancel)
    assert gaps.mean() == pytest.approx(50.0, rel=0.15)


def test_determinism_per_seed():
    a = generate_arrivals(BURSTY50, count_limit=200, rng=substream(4, "x"))
    b = generate_arrivals(BURSTY50, count_limit=200, rng=substream(4, "x"))
    c = generate_arrivals(BURSTY50, count_limit=200, rng=substream(5, "x"))
    assert a.timestamps_s == b.timestamps_s
    assert a.timestamps_s != c.timestamps_s


def test_timeline_validation():
    with pytest.raises(ParameterError):
        ArrivalTimeline(1, CBR5, (2.0, 2.0))
    with pytest.raises(ParameterError):
        ArrivalTimeline(1, CBR5, (0.0, 2.0))
    # nan compares false both ways, so only a finiteness check catches it;
    # an inf arrival would keep the radio model polling until its event cap
    for bad in ((float("nan"),), (1.0, float("nan"), 3.0), (1.0, float("inf"))):
        with pytest.raises(ParameterError, match="finite"):
            ArrivalTimeline(1, CBR5, bad)


def test_cycle_cv_informative_window():
    window = CvWindow(cycle_duration_s=10.0)
    for t in (2.0, 4.0, 6.0, 8.0):
        window.add(t)
    est = cycle_cv(window)
    assert est is not None
    assert est.cv == 0.0
    assert est.sample_count == 3  # gaps, not observations
    window.clear()
    assert cycle_cv(window) is None
    # gaps 2, 4, 6, 8 by hand with the n-1 divisor: std sqrt(20/3)
    est = cycle_cv(CvWindow(10.0, [0.0, 2.0, 6.0, 12.0, 20.0]))
    assert est.sample_count == 4
    assert est.mean_s == 5.0
    assert est.std_s == pytest.approx(2.581988897471611, abs=1e-12)
    assert est.cv == pytest.approx(0.5163977794943222, abs=1e-12)


def test_cycle_cv_needs_two_gaps():
    assert cycle_cv(CvWindow(10.0, [1.0, 2.0])) is None
    assert cycle_cv(CvWindow(10.0, [1.0])) is None
    # coincident observations give a zero-mean gap sample: uninformative
    assert cycle_cv(CvWindow(10.0, [3.0, 3.0, 3.0])) is None


def test_cycle_cv_orders_observations():
    est = cycle_cv(CvWindow(10.0, [8.0, 2.0, 4.0, 6.0]))
    assert est is not None and est.cv == 0.0


def test_timelines_roundtrip(tmp_path):
    path = tmp_path / "arrivals.csv"
    original = [
        generate_arrivals(POISSON5, count_limit=50, rng=substream(1, n), node_id=n)
        for n in (1, 2, 3)
    ]
    save_timelines(path, original)
    loaded = load_timelines(path, POISSON5)
    assert [tl.node_id for tl in loaded] == [1, 2, 3]
    for a, b in zip(original, loaded):
        assert a.timestamps_s == b.timestamps_s, "repr round-trip must be exact"


def test_load_timelines_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("node,when\n1,2.0\n")
    with pytest.raises(ParameterError):
        load_timelines(path, CBR5)


@pytest.mark.parametrize("row", ["1,soon", "one,2.0", "1,2.0,3.0", "1", "1,nan"])
def test_load_timelines_rejects_bad_rows(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"node_id,timestamp_s\n1,1.0\n{row}\n")
    with pytest.raises(ParameterError):
        load_timelines(path, CBR5)
