"""Measurement record, label, and dataset CSV contract tests."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranguard.kpm import (
    CLASS_ORDER,
    CSV_HEADER,
    FEATURE_NAMES,
    DatasetFormatError,
    KpmSample,
    LabeledSample,
    TrafficCategory,
    TrafficClass,
    category_of,
    class_from_label,
    dataset_rows,
    feature_vector,
    read_dataset,
)
from ranguard.files import write_csv
from file_oracle import write_dataset_whole


def make_sample(**overrides) -> KpmSample:
    base = dict(
        timestamp_ms=1500,
        bs_id=1,
        ue_id=7,
        cqi=12,
        dl_mcs=22,
        ul_mcs=20,
        pusch_sinr_db=17.3,
        pucch_sinr_db=15.9,
        dl_brate_bps=420000.0,
        ul_brate_bps=96000.0,
        ul_pkts_ok=5,
        ul_pkts_nok=0,
    )
    base.update(overrides)
    return KpmSample(**base)


def test_feature_order_is_the_model_contract():
    assert FEATURE_NAMES == (
        "cqi",
        "dl_mcs",
        "ul_mcs",
        "pusch_sinr_db",
        "pucch_sinr_db",
        "dl_brate_bps",
        "ul_brate_bps",
        "ul_pkts_ok",
        "ul_pkts_nok",
        "ul_drop_ratio",
    )
    vec = feature_vector(make_sample())
    assert len(vec) == len(FEATURE_NAMES)
    assert vec[0] == 12.0 and vec[2] == 20.0 and vec[5] == 420000.0


def test_drop_ratio_zero_packets_is_zero():
    # max(1, ok+nok) denominator keeps the idle case well-defined
    assert feature_vector(make_sample(ul_pkts_ok=0, ul_pkts_nok=0))[-1] == 0.0


def test_drop_ratio_plain_fraction():
    assert feature_vector(make_sample(ul_pkts_ok=7, ul_pkts_nok=3))[-1] == pytest.approx(0.3)


def test_drop_ratio_all_failed():
    assert feature_vector(make_sample(ul_pkts_ok=0, ul_pkts_nok=4))[-1] == 1.0


def test_category_split():
    assert category_of(TrafficClass.WEB) is TrafficCategory.BENIGN
    assert category_of(TrafficClass.VOIP) is TrafficCategory.BENIGN
    assert category_of(TrafficClass.DDOS_RIPPER) is TrafficCategory.ATTACK
    assert category_of(TrafficClass.DOS_HULK) is TrafficCategory.ATTACK
    assert category_of(TrafficClass.SLOWLORIS) is TrafficCategory.ATTACK


def test_class_order_puts_benign_first():
    assert CLASS_ORDER[:2] == (TrafficClass.WEB, TrafficClass.VOIP)
    assert len(CLASS_ORDER) == 5


def test_labels_are_lowercase_class_names():
    for cls in TrafficClass:
        assert cls.value == cls.name.lower()
        assert class_from_label(cls.value) is cls


def test_unknown_label_rejected():
    with pytest.raises(ValueError, match="slowpoke"):
        class_from_label("slowpoke")


@pytest.mark.parametrize(
    "field,value",
    [
        ("cqi", 16),
        ("cqi", -1),
        ("dl_mcs", 29),
        ("ul_mcs", -2),
        ("dl_brate_bps", -0.5),
        ("ul_pkts_nok", -1),
        ("timestamp_ms", -10),
    ],
)
def test_out_of_range_fields_rejected(field, value):
    with pytest.raises(ValueError, match=field.split("_")[0]):
        make_sample(**{field: value})


# Every edge of the KPM schema, written out independently of the field table:
# (field, just inside, just outside). A float field's outer edge is infinity.
MAX_FLOAT = sys.float_info.max
BELOW_ZERO = math.nextafter(0.0, -1.0)
EDGES = [
    ("timestamp_ms", 0, -1),
    ("bs_id", 0, -1),
    ("ue_id", 0, -1),
    ("cqi", 0, -1),
    ("cqi", 15, 16),
    ("dl_mcs", 0, -1),
    ("dl_mcs", 28, 29),
    ("ul_mcs", 0, -1),
    ("ul_mcs", 28, 29),
    ("pusch_sinr_db", -MAX_FLOAT, -math.inf),
    ("pusch_sinr_db", MAX_FLOAT, math.inf),
    ("pucch_sinr_db", -MAX_FLOAT, -math.inf),
    ("pucch_sinr_db", MAX_FLOAT, math.inf),
    ("dl_brate_bps", 0.0, BELOW_ZERO),
    ("dl_brate_bps", MAX_FLOAT, math.inf),
    ("ul_brate_bps", 0.0, BELOW_ZERO),
    ("ul_brate_bps", MAX_FLOAT, math.inf),
    ("ul_pkts_ok", 0, -1),
    ("ul_pkts_nok", 0, -1),
]
EDGE_IDS = [f"{name}={outside}" for name, _, outside in EDGES]


def test_edges_cover_every_field():
    assert {name for name, _, _ in EDGES} == set(CSV_HEADER[:-1])


def _dataset_with(tmp_path, field, value) -> Path:
    row = make_sample().to_payload()
    row[field] = value
    path = tmp_path / "edge.csv"
    path.write_text(",".join(CSV_HEADER) + "\n" + ",".join([*map(str, row.values()), "web"]) + "\n")
    return path


# The constructor cases fail if KpmSample.__init__ does not run the generated check.
@pytest.mark.parametrize("field, inside, outside", EDGES, ids=EDGE_IDS)
def test_constructor_edges(field, inside, outside):
    assert getattr(make_sample(**{field: inside}), field) == inside
    with pytest.raises(ValueError, match=field):
        make_sample(**{field: outside})


@pytest.mark.parametrize("field, inside, outside", EDGES, ids=EDGE_IDS)
def test_from_payload_edges(field, inside, outside):
    payload = make_sample().to_payload()
    payload[field] = inside
    assert getattr(KpmSample.from_payload(payload), field) == inside
    payload[field] = outside
    with pytest.raises(ValueError, match=field):
        KpmSample.from_payload(payload)


@pytest.mark.parametrize("field, inside, outside", EDGES, ids=EDGE_IDS)
def test_read_dataset_edges(tmp_path, field, inside, outside):
    [item] = read_dataset(_dataset_with(tmp_path, field, inside))
    assert getattr(item.sample, field) == inside
    with pytest.raises(DatasetFormatError, match=f"line 2: {field}"):
        read_dataset(_dataset_with(tmp_path, field, outside))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["pusch_sinr_db", "pucch_sinr_db", "dl_brate_bps", "ul_brate_bps"])
def test_non_finite_float_fields_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_sample(**{field: value})


def test_payload_round_trip_ignores_transport_keys():
    s = make_sample()
    payload = s.to_payload()
    payload["bus"] = {"in_us": 1, "out_us": 2}
    assert KpmSample.from_payload(payload) == s


BAD_TYPES = [
    ("ue_id", 3.9),  # not UE 3
    ("ul_pkts_ok", 5.0),  # an integral float is still a float
    ("cqi", True),
    ("timestamp_ms", "12"),
    ("dl_brate_bps", False),
    ("pusch_sinr_db", "1.5"),
]
BAD_TYPE_IDS = ["float_ue_id", "integral_float_count", "bool_int", "text_int", "bool_float", "text_float"]


@pytest.mark.parametrize("field, value", BAD_TYPES, ids=BAD_TYPE_IDS)
def test_payload_of_the_wrong_type_is_rejected_not_coerced(field, value):
    payload = make_sample().to_payload()
    payload[field] = value
    with pytest.raises(ValueError, match=f"{field} must be"):
        KpmSample.from_payload(payload)


def test_payload_int_in_a_float_field_is_read_as_float():
    payload = make_sample().to_payload()
    payload["dl_brate_bps"] = 420000
    sample = KpmSample.from_payload(payload)
    assert sample == make_sample() and type(sample.dl_brate_bps) is float


@pytest.mark.parametrize("field", ["ul_pkts_ok", "ul_pkts_nok", "pusch_sinr_db"])
def test_payload_value_past_the_float_range_is_rejected(field):
    # the counters become floats in the feature row, so the boundary refuses what no float holds
    payload = make_sample().to_payload()
    payload[field] = 10**400
    with pytest.raises(ValueError, match="out of range"):
        KpmSample.from_payload(payload)


def test_payload_missing_field():
    payload = make_sample().to_payload()
    del payload["cqi"]
    with pytest.raises(ValueError, match="cqi"):
        KpmSample.from_payload(payload)


def test_csv_header_exact():
    assert ",".join(CSV_HEADER) == (
        "timestamp_ms,bs_id,ue_id,cqi,dl_mcs,ul_mcs,pusch_sinr_db,pucch_sinr_db,"
        "dl_brate_bps,ul_brate_bps,ul_pkts_ok,ul_pkts_nok,label"
    )


sinr = st.floats(min_value=-20.0, max_value=40.0, allow_nan=False)
brate = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)

samples = st.builds(
    KpmSample,
    timestamp_ms=st.integers(min_value=0, max_value=10**9),
    bs_id=st.integers(min_value=0, max_value=99),
    ue_id=st.integers(min_value=0, max_value=99),
    cqi=st.integers(min_value=0, max_value=15),
    dl_mcs=st.integers(min_value=0, max_value=28),
    ul_mcs=st.integers(min_value=0, max_value=28),
    pusch_sinr_db=sinr,
    pucch_sinr_db=sinr,
    dl_brate_bps=brate,
    ul_brate_bps=brate,
    ul_pkts_ok=st.integers(min_value=0, max_value=10**6),
    ul_pkts_nok=st.integers(min_value=0, max_value=10**6),
)

labeled = st.builds(LabeledSample, sample=samples, label=st.sampled_from(list(TrafficClass)))


@settings(max_examples=50, deadline=None)
@given(st.lists(labeled, min_size=1, max_size=40))
def test_dataset_round_trip_is_exact(tmp_path_factory, items):
    # full-precision floats: read(write(x)) == x bit for bit
    folder = tmp_path_factory.mktemp("ds")
    n = write_csv(folder / "data.csv", CSV_HEADER, dataset_rows(iter(items)))  # one pass over the input
    assert n == len(items)
    assert read_dataset(folder / "data.csv") == items
    write_dataset_whole(folder / "whole.csv", items)
    assert (folder / "data.csv").read_bytes() == (folder / "whole.csv").read_bytes()


def test_read_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_dataset(tmp_path / "nope.csv")


def test_read_bad_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        read_dataset(p)


def test_read_error_names_line_and_column(tmp_path):
    p = tmp_path / "x.csv"
    good = ",".join(["100", "1", "7", "12", "22", "20", "17.3", "15.9", "1e5", "9e4", "5", "0", "web"])
    bad = ",".join(["200", "1", "7", "twelve", "22", "20", "17.3", "15.9", "1e5", "9e4", "5", "0", "web"])
    p.write_text(",".join(CSV_HEADER) + "\n" + good + "\n" + bad + "\n")
    with pytest.raises(DatasetFormatError, match=r"line 3.*cqi"):
        read_dataset(p)


def test_read_wrong_column_count(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text(",".join(CSV_HEADER) + "\n1,2,3\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        read_dataset(p)


def test_read_bad_label(tmp_path):
    p = tmp_path / "x.csv"
    row = ",".join(["100", "1", "7", "12", "22", "20", "17.3", "15.9", "1e5", "9e4", "5", "0", "hulk"])
    p.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
    with pytest.raises(DatasetFormatError, match=r"line 2.*label"):
        read_dataset(p)


def test_read_header_only(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        read_dataset(p)
