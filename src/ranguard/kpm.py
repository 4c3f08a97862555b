"""Per-UE KPM measurement records, traffic labels, and the labeled dataset CSV format."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Iterable


class TrafficClass(Enum):
    """Traffic type carried by a UE. Benign classes come first so that
    lowest-index tie-breaking in the classifiers resolves toward benign."""

    WEB = "web"
    VOIP = "voip"
    DDOS_RIPPER = "ddos_ripper"
    DOS_HULK = "dos_hulk"
    SLOWLORIS = "slowloris"


class TrafficCategory(Enum):
    BENIGN = "benign"
    ATTACK = "attack"


# Definition order of TrafficClass is the canonical class-index order used
# everywhere a classifier breaks ties by "lowest class index".
CLASS_ORDER: tuple[TrafficClass, ...] = tuple(TrafficClass)

_CATEGORY: dict[TrafficClass, TrafficCategory] = {
    TrafficClass.WEB: TrafficCategory.BENIGN,
    TrafficClass.VOIP: TrafficCategory.BENIGN,
    TrafficClass.DDOS_RIPPER: TrafficCategory.ATTACK,
    TrafficClass.DOS_HULK: TrafficCategory.ATTACK,
    TrafficClass.SLOWLORIS: TrafficCategory.ATTACK,
}


def category_of(traffic_class: TrafficClass) -> TrafficCategory:
    return _CATEGORY[traffic_class]


def class_from_label(label: str) -> TrafficClass:
    try:
        return TrafficClass(label)
    except ValueError:
        valid = ", ".join(c.value for c in TrafficClass)
        raise ValueError(f"unknown traffic label {label!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class KpmSample:
    """One measurement-period snapshot of a UE's radio and MAC counters.

    timestamp_ms is milliseconds since the scenario epoch in virtual time, or
    since an arbitrary monotonic origin in real time. Rates are averaged over
    the measurement period; packet counters are totals within the period.
    """

    timestamp_ms: int
    bs_id: int
    ue_id: int
    cqi: int  # wideband CQI, 0..15
    dl_mcs: int  # 0..28
    ul_mcs: int  # 0..28
    pusch_sinr_db: float
    pucch_sinr_db: float
    dl_brate_bps: float
    ul_brate_bps: float
    ul_pkts_ok: int
    ul_pkts_nok: int

    def __post_init__(self) -> None:
        for name in ("pusch_sinr_db", "pucch_sinr_db", "dl_brate_bps", "ul_brate_bps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.timestamp_ms < 0:
            raise ValueError(f"timestamp_ms must be >= 0, got {self.timestamp_ms}")
        if self.bs_id < 0 or self.ue_id < 0:
            raise ValueError(f"bs_id and ue_id must be >= 0, got {self.bs_id}, {self.ue_id}")
        if not 0 <= self.cqi <= 15:
            raise ValueError(f"cqi must be in [0, 15], got {self.cqi}")
        if not 0 <= self.dl_mcs <= 28:
            raise ValueError(f"dl_mcs must be in [0, 28], got {self.dl_mcs}")
        if not 0 <= self.ul_mcs <= 28:
            raise ValueError(f"ul_mcs must be in [0, 28], got {self.ul_mcs}")
        if self.dl_brate_bps < 0:
            raise ValueError(f"dl_brate_bps must be >= 0, got {self.dl_brate_bps}")
        if self.ul_brate_bps < 0:
            raise ValueError(f"ul_brate_bps must be >= 0, got {self.ul_brate_bps}")
        if self.ul_pkts_ok < 0:
            raise ValueError(f"ul_pkts_ok must be >= 0, got {self.ul_pkts_ok}")
        if self.ul_pkts_nok < 0:
            raise ValueError(f"ul_pkts_nok must be >= 0, got {self.ul_pkts_nok}")

    @property
    def ul_drop_ratio(self) -> float:
        return self.ul_pkts_nok / max(1, self.ul_pkts_ok + self.ul_pkts_nok)

    def to_payload(self) -> dict:
        """Serializable field dict for databus measurement frames."""
        return {
            "timestamp_ms": self.timestamp_ms,
            "bs_id": self.bs_id,
            "ue_id": self.ue_id,
            "cqi": self.cqi,
            "dl_mcs": self.dl_mcs,
            "ul_mcs": self.ul_mcs,
            "pusch_sinr_db": self.pusch_sinr_db,
            "pucch_sinr_db": self.pucch_sinr_db,
            "dl_brate_bps": self.dl_brate_bps,
            "ul_brate_bps": self.ul_brate_bps,
            "ul_pkts_ok": self.ul_pkts_ok,
            "ul_pkts_nok": self.ul_pkts_nok,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "KpmSample":
        """Sample from a measurement frame's payload. Types are checked, not coerced:
        an integer field takes exactly an int (not a bool), a float field an int or a
        float, so a frame from a broken sender is rejected rather than misread."""
        # Transport layers may attach extra bookkeeping keys; take only ours.
        try:
            ints, floats = _int_values(payload), _float_values(payload)
        except KeyError as exc:
            raise ValueError(f"measurement payload missing field {exc.args[0]!r}") from None
        if not (_INTEGER.issuperset(map(type, ints)) and _NUMBER.issuperset(map(type, floats))):
            for name, value in zip(_INT_COLS + _FLOAT_COLS, ints + floats):
                if name in _INT_COLS and type(value) not in _INTEGER:
                    raise ValueError(f"measurement field {name} must be an int, got {value!r}")
                if type(value) not in _NUMBER:
                    raise ValueError(f"measurement field {name} must be a number, got {value!r}")
        timestamp_ms, bs_id, ue_id, cqi, dl_mcs, ul_mcs, ok, nok = ints
        try:
            pusch, pucch, dl_brate, ul_brate = map(float, floats)
            float(ok), float(nok)  # feature_vector holds the counters as floats
        except OverflowError as exc:  # float(10**400)
            raise ValueError(f"measurement payload value out of range: {exc}") from None
        return cls(timestamp_ms, bs_id, ue_id, cqi, dl_mcs, ul_mcs, pusch, pucch, dl_brate, ul_brate, ok, nok)


FEATURE_NAMES: tuple[str, ...] = (
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

FEATURE_COUNT = len(FEATURE_NAMES)


def feature_vector(sample: KpmSample) -> list[float]:
    """Model input features, in FEATURE_NAMES order."""
    return [
        float(sample.cqi),
        float(sample.dl_mcs),
        float(sample.ul_mcs),
        sample.pusch_sinr_db,
        sample.pucch_sinr_db,
        sample.dl_brate_bps,
        sample.ul_brate_bps,
        float(sample.ul_pkts_ok),
        float(sample.ul_pkts_nok),
        sample.ul_drop_ratio,
    ]


@dataclass(frozen=True)
class LabeledSample:
    sample: KpmSample
    label: TrafficClass


CSV_HEADER: tuple[str, ...] = (
    "timestamp_ms",
    "bs_id",
    "ue_id",
    "cqi",
    "dl_mcs",
    "ul_mcs",
    "pusch_sinr_db",
    "pucch_sinr_db",
    "dl_brate_bps",
    "ul_brate_bps",
    "ul_pkts_ok",
    "ul_pkts_nok",
    "label",
)


class DatasetFormatError(ValueError):
    """Raised on malformed dataset files; names the offending line and column."""


def _row_of(item: LabeledSample) -> list[str]:
    s = item.sample
    # repr() keeps full float precision so read(write(x)) round-trips exactly.
    return [
        str(s.timestamp_ms),
        str(s.bs_id),
        str(s.ue_id),
        str(s.cqi),
        str(s.dl_mcs),
        str(s.ul_mcs),
        repr(s.pusch_sinr_db),
        repr(s.pucch_sinr_db),
        repr(s.dl_brate_bps),
        repr(s.ul_brate_bps),
        str(s.ul_pkts_ok),
        str(s.ul_pkts_nok),
        item.label.value,
    ]


def write_dataset(path: str | Path, items: Iterable[LabeledSample]) -> int:
    """Write labeled samples as CSV. Returns the row count; refuses empty input."""
    rows = [_row_of(item) for item in items]
    if not rows:
        raise ValueError("refusing to write an empty dataset")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    return len(rows)


_INT_COLS = ("timestamp_ms", "bs_id", "ue_id", "cqi", "dl_mcs", "ul_mcs", "ul_pkts_ok", "ul_pkts_nok")
_FLOAT_COLS = ("pusch_sinr_db", "pucch_sinr_db", "dl_brate_bps", "ul_brate_bps")
_int_values, _float_values = itemgetter(*_INT_COLS), itemgetter(*_FLOAT_COLS)
_INTEGER, _NUMBER = {int}, {int, float}  # the exact types from_payload accepts


def read_dataset(path: str | Path) -> list[LabeledSample]:
    """Parse a dataset CSV written by write_dataset. Errors carry line/column context."""
    path = Path(path)
    items: list[LabeledSample] = []
    with path.open("r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file, expected header row") from None
        if tuple(header) != CSV_HEADER:
            raise DatasetFormatError(
                f"{path}: line 1: bad header {header!r}, expected {','.join(CSV_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise DatasetFormatError(
                    f"{path}: line {lineno}: expected {len(CSV_HEADER)} columns, got {len(row)}"
                )
            rec = dict(zip(CSV_HEADER, row))
            values: dict[str, int | float] = {}
            for col in _INT_COLS:
                try:
                    values[col] = int(rec[col])
                except ValueError:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: column {col!r}: not an integer: {rec[col]!r}"
                    ) from None
            for col in _FLOAT_COLS:
                try:
                    values[col] = float(rec[col])
                except ValueError:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: column {col!r}: not a number: {rec[col]!r}"
                    ) from None
            try:
                label = class_from_label(rec["label"])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: column 'label': {exc}") from None
            try:
                sample = KpmSample(**values)  # type: ignore[arg-type]
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from None
            items.append(LabeledSample(sample, label))
    if not items:
        raise DatasetFormatError(f"{path}: no data rows")
    return items
