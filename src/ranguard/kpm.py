"""Per-UE KPM measurement records, traffic labels, and the labeled dataset CSV format."""

from __future__ import annotations

import csv
import math
from dataclasses import field, fields
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .records import define, record


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
ATTACK_CLASSES = tuple(c for c in TrafficClass if _CATEGORY[c] is TrafficCategory.ATTACK)
BENIGN_CLASSES = tuple(c for c in TrafficClass if _CATEGORY[c] is TrafficCategory.BENIGN)


def category_of(traffic_class: TrafficClass) -> TrafficCategory:
    return _CATEGORY[traffic_class]


def class_from_label(label: str) -> TrafficClass:
    try:
        return TrafficClass(label)
    except ValueError:
        valid = ", ".join(c.value for c in TrafficClass)
        raise ValueError(f"unknown traffic label {label!r} (expected one of: {valid})") from None


def _kpm_field(lo: int | None = None, hi: int | None = None, *, feature: bool = True):
    """One row of the KPM field table: an inclusive range (no bound, a lower
    bound, or both) and whether the model sees the field as a feature."""
    return field(metadata={"range": (lo, hi), "feature": feature})


@record
class KpmSample:
    """One measurement-period snapshot of a UE's radio and MAC counters.

    The field list below is the KPM schema, written once: each field's name,
    type and range, and whether the model sees it. Every value is checked
    against its range at construction, and a float must also be finite. The
    payload codec, the dataset CSV columns and the model features are derived
    from this table after the class.

    Rates are averaged over the measurement period; packet counters are totals
    within the period.
    """

    timestamp_ms: int = _kpm_field(0, feature=False)  # from the scenario epoch, or a monotonic origin
    bs_id: int = _kpm_field(0, feature=False)
    ue_id: int = _kpm_field(0, feature=False)
    cqi: int = _kpm_field(0, 15)  # wideband CQI
    dl_mcs: int = _kpm_field(0, 28)
    ul_mcs: int = _kpm_field(0, 28)
    pusch_sinr_db: float = _kpm_field()
    pucch_sinr_db: float = _kpm_field()
    dl_brate_bps: float = _kpm_field(0)
    ul_brate_bps: float = _kpm_field(0)
    ul_pkts_ok: int = _kpm_field(0)
    ul_pkts_nok: int = _kpm_field(0)

    def __post_init__(self) -> None:
        _check(self)

    @property
    def ul_drop_ratio(self) -> float:
        return self.ul_pkts_nok / max(1, self.ul_pkts_ok + self.ul_pkts_nok)


_FIELDS = fields(KpmSample)
_NAMES = tuple(f.name for f in _FIELDS)
_IS_INT = {f.name: f.type == "int" for f in _FIELDS}  # the annotations are strings here

_FIELD_FEATURES = tuple(f.name for f in _FIELDS if f.metadata["feature"])
FEATURE_NAMES: tuple[str, ...] = (*_FIELD_FEATURES, "ul_drop_ratio")
FEATURE_COUNT = len(FEATURE_NAMES)


# The per-frame functions are generated once from the table, in the style of the
# compiled tree vote: a generated line per field costs what a hand-written one
# would, where a loop over the table costs about twice as much a call.


def _fit(name: str, value: int) -> float:
    """value as a float, refused if no float holds it (float(10**400))."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"measurement field {name} is out of range for a float") from None


_GLOBALS = {"_isfinite": math.isfinite, "_fit": _fit}  # of the generated functions


def _check_body() -> list[str]:
    """Each field in turn: finite if a float, then inside its range."""
    body = []
    for f in _FIELDS:
        lo, hi = f.metadata["range"]
        rules = [] if _IS_INT[f.name] else [("_isfinite(v)", "finite")]
        if hi is not None:
            rules.append((f"{lo} <= v <= {hi}", f"in [{lo}, {hi}]"))
        elif lo is not None:
            rules.append((f"{lo} <= v", f">= {lo}"))
        body.append(f"v = s.{f.name}")
        for test, must in rules:
            body.append(f'if not {test}: raise ValueError(f"{f.name} must be {must}, got {{v}}")')
    return body


def _from_payload_body() -> list[str]:
    """Each field looked up (extra transport keys are ignored), then type-checked:
    an int field takes exactly an int, a float field a float or an int."""
    body = ["try:", *(f"    {n} = payload[{n!r}]" for n in _NAMES), "except KeyError as exc:"]
    body.append("    raise ValueError(f'measurement payload missing field {exc.args[0]!r}') from None")
    for f in _FIELDS:
        n = f.name
        refuse = f"raise ValueError(f'measurement field {n} must be %s, got {{{n}!r}}')"
        if _IS_INT[n]:
            body.append(f"if type({n}) is not int: {refuse % 'an int'}")
            # feature_vector holds an int feature as a float; its range check refuses a bounded one
            if f.metadata["feature"] and f.metadata["range"][1] is None:
                body.append(f"_fit({n!r}, {n})")
        else:
            body.append(f"if type({n}) is not float:")
            body.append(f"    if type({n}) is not int: {refuse % 'a number'}")
            body.append(f"    {n} = _fit({n!r}, {n})")
    return body + [f"return cls({', '.join(_NAMES)})"]


_check = define(
    "check", "s", "Raise ValueError naming the first field of s out of range.", _check_body(), _GLOBALS
)

KpmSample.to_payload = define(  # type: ignore[attr-defined]
    "to_payload",
    "self",
    "Serializable field dict for databus measurement frames.",
    ["return {" + ", ".join(f"{n!r}: self.{n}" for n in _NAMES) + "}"],
)

KpmSample.from_payload = classmethod(  # type: ignore[attr-defined]
    define(
        "from_payload",
        "cls, payload",
        "Sample from a measurement frame's payload. Types are checked, not coerced, "
        "so a frame from a broken sender is rejected rather than misread.",
        _from_payload_body(),
        _GLOBALS,
    )
)

# the last feature, ul_drop_ratio, is computed inline as the property computes it
feature_vector = define(
    "feature_vector",
    "sample",
    "Model input features, in FEATURE_NAMES order.",
    [
        "ok, nok = sample.ul_pkts_ok, sample.ul_pkts_nok",
        "return ["
        + ", ".join(f"float(sample.{n})" if _IS_INT[n] else f"sample.{n}" for n in _FIELD_FEATURES)
        + ", nok / max(1, ok + nok)]",
    ],
)


@record
class LabeledSample:
    sample: KpmSample
    label: TrafficClass


CSV_HEADER: tuple[str, ...] = _NAMES + ("label",)


class DatasetFormatError(ValueError):
    """Raised on malformed dataset files; names the offending line and column."""


_values = attrgetter(*_NAMES)


def write_dataset_rows(fh: TextIO, items: Iterable[LabeledSample]) -> int:
    """Write the CSV header, then one row per labeled sample as it is read, to an
    open text file. Returns the row count."""
    count = 0

    def rows() -> Iterator[list[str]]:
        nonlocal count
        # str() of a float is its shortest round-trip repr, so read(write(x)) is exact.
        for count, item in enumerate(items, 1):
            yield [*map(str, _values(item.sample)), item.label.value]

    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    writer.writerows(rows())
    return count


_PARSERS = [(n, int, "an integer") if _IS_INT[n] else (n, float, "a number") for n in _NAMES]


def read_dataset(path: str | Path) -> list[LabeledSample]:
    """Parse a dataset CSV written by write_dataset_rows. Errors carry line/column context."""
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
            values = []
            for (col, parse, kind), text in zip(_PARSERS, row):
                try:
                    values.append(parse(text))
                except ValueError:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: column {col!r}: not {kind}: {text!r}"
                    ) from None
            try:
                label = class_from_label(row[-1])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: column 'label': {exc}") from None
            try:
                sample = KpmSample(*values)
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from None
            items.append(LabeledSample(sample, label))
    if not items:
        raise DatasetFormatError(f"{path}: no data rows")
    return items
