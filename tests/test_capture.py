"""Capture record construction and the append-only record store."""

import json
from pathlib import Path

import pytest

from speedcam.capture import (
    APP_READING_UNIT,
    CaptureRecord,
    RecordStore,
    make_record,
    picture_filename_for,
)
from speedcam.errors import CollisionError, ConfigError, FormatError, RefusedError, StorageError

TIMES = [
    "2016-09-26_09_17_32",
    "2016-09-26_10_05_01",
    "2016-09-26_11_30_59",
    "2016-09-26_12_47_43",
    "2016-09-26_13_00_00",
]


def _img(k=0):
    return b"\xff\xd8 test image " + bytes([k])


def _filled_store(tmp_path, times=TIMES):
    store = RecordStore(tmp_path / "store")
    for k, t in enumerate(times):
        store.append(make_record(173.0 + k, "Main St", t), _img(k))
    return store


# --- record construction ---


def test_make_record_derives_filename():
    rec = make_record(173.0, "Main St", "2016-09-26_09_17_32")
    assert rec.picture_filename == "vehicle_picture_2016-09-26_09_17_32.jpg"
    assert rec.vehicle_speed == 173.0
    assert rec.location == "Main St"
    assert rec.speed_unit == APP_READING_UNIT
    assert rec.id is None


def test_make_record_accepts_empty_location_and_custom_unit():
    rec = make_record(16.6, "", "2016-09-26_09_17_32", speed_unit="km-h")
    assert rec.location == ""
    assert rec.speed_unit == "km-h"


def test_record_rejects_malformed_time():
    for bad in ["2016/09/26_09_17_32", "2016-09-26 09:17:32", "2016-09-26_09_17", ""]:
        with pytest.raises(FormatError):
            make_record(1.0, "x", bad)


def test_record_rejects_mismatched_filename():
    with pytest.raises(FormatError, match="picture_filename"):
        CaptureRecord(1.0, "x", TIMES[0], "vehicle_picture_other.jpg")


def test_record_rejects_non_positive_id():
    with pytest.raises(FormatError):
        CaptureRecord(1.0, "x", TIMES[0], picture_filename_for(TIMES[0]), id=0)


# --- appends and ids ---


def test_append_assigns_consecutive_ids(tmp_path):
    store = RecordStore(tmp_path / "store")
    ids = [store.append(make_record(10.0 * k, "loc", t), _img(k)) for k, t in enumerate(TIMES)]
    assert ids == [1, 2, 3, 4, 5]
    assert [r.id for r in store.list_all()] == [1, 2, 3, 4, 5]


def test_append_continues_from_persisted_high_water_mark(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    (root / "hwm").write_text("45\n")
    store = RecordStore(root)
    ids = [store.append(make_record(1.0, "loc", t), _img()) for t in TIMES]
    assert ids == [46, 47, 48, 49, 50]


def test_append_writes_image_bytes(tmp_path):
    store = RecordStore(tmp_path / "store")
    store.append(make_record(1.0, "loc", TIMES[0]), b"payload-bytes")
    rec = store.list_all()[0]
    assert store.image_path(rec).read_bytes() == b"payload-bytes"
    assert rec.picture_filename in str(store.image_path(rec))


def test_append_rejects_same_second_collision(tmp_path):
    store = RecordStore(tmp_path / "store")
    store.append(make_record(1.0, "loc", TIMES[0]), _img())
    with pytest.raises(CollisionError):
        store.append(make_record(2.0, "elsewhere", TIMES[0]), _img(1))
    assert len(store.list_all()) == 1


def test_append_rejects_preassigned_id(tmp_path):
    store = RecordStore(tmp_path / "store")
    rec = CaptureRecord(1.0, "loc", TIMES[0], picture_filename_for(TIMES[0]), id=7)
    with pytest.raises(ConfigError):
        store.append(rec, _img())


def test_store_round_trips_across_reopen(tmp_path):
    store = _filled_store(tmp_path)
    before = store.list_all()
    again = RecordStore(tmp_path / "store")
    assert again.list_all() == before
    assert again.append(make_record(9.0, "loc", "2016-09-27_00_00_00"), _img(9)) == 6


def test_list_all_returns_snapshot(tmp_path):
    store = _filled_store(tmp_path)
    listed = store.list_all()
    listed.clear()
    assert len(store.list_all()) == 5


# --- search ---


def test_search_by_time_substring(tmp_path):
    store = _filled_store(tmp_path)
    assert len(store.search_by_time("2016-09-26")) == 5
    hits = store.search_by_time("12_47")
    assert [r.capture_time for r in hits] == ["2016-09-26_12_47_43"]
    assert store.search_by_time("") == store.list_all()
    assert store.search_by_time("1999") == []


# --- delete-all ---


def test_delete_all_requires_confirmation(tmp_path):
    store = _filled_store(tmp_path)
    with pytest.raises(RefusedError):
        store.delete_all(False)
    assert len(store.list_all()) == 5
    assert len(list(store.images_dir.iterdir())) == 5


def test_delete_all_removes_records_and_images(tmp_path):
    store = _filled_store(tmp_path)
    assert store.delete_all(True) == 5
    assert store.list_all() == []
    assert list(store.images_dir.iterdir()) == []
    assert (store.directory / "records.log").read_text() == ""


def test_ids_never_recycle_after_delete(tmp_path):
    store = _filled_store(tmp_path)
    store.delete_all(True)
    assert store.append(make_record(1.0, "loc", TIMES[0]), _img()) == 6
    # and across a reopen
    store2 = RecordStore(tmp_path / "store")
    assert store2.append(make_record(1.0, "loc", TIMES[1]), _img(1)) == 7


# --- batch atomicity ---


def test_append_batch_assigns_in_order(tmp_path):
    store = RecordStore(tmp_path / "store")
    items = [(make_record(float(k), "loc", t), _img(k)) for k, t in enumerate(TIMES)]
    assert store.append_batch(items) == [1, 2, 3, 4, 5]


def test_append_batch_rejects_intra_batch_duplicates(tmp_path):
    store = RecordStore(tmp_path / "store")
    items = [
        (make_record(1.0, "loc", TIMES[0]), _img(0)),
        (make_record(2.0, "loc", TIMES[0]), _img(1)),
    ]
    with pytest.raises(CollisionError):
        store.append_batch(items)
    assert store.list_all() == []
    assert list(store.images_dir.iterdir()) == []


def test_append_batch_all_or_nothing_on_collision(tmp_path):
    store = RecordStore(tmp_path / "store")
    store.append(make_record(1.0, "loc", TIMES[2]), _img())
    items = [
        (make_record(2.0, "loc", TIMES[0]), _img(0)),
        (make_record(3.0, "loc", TIMES[2]), _img(1)),  # collides with existing
        (make_record(4.0, "loc", TIMES[4]), _img(2)),
    ]
    with pytest.raises(CollisionError):
        store.append_batch(items)
    assert [r.capture_time for r in store.list_all()] == [TIMES[2]]
    assert [p.name for p in store.images_dir.iterdir()] == [picture_filename_for(TIMES[2])]
    # the store still works afterwards and ids were not consumed
    assert store.append(make_record(5.0, "loc", TIMES[1]), _img(3)) == 2


# --- corrupt state ---


def test_corrupt_log_line_is_reported_with_line_number(tmp_path):
    store = _filled_store(tmp_path)
    log = store.directory / "records.log"
    log.write_text(log.read_text() + "{not json\n")
    with pytest.raises(StorageError, match="records.log:6"):
        RecordStore(tmp_path / "store")


def test_corrupt_log_field_is_an_error(tmp_path):
    store = RecordStore(tmp_path / "store")
    store.append(make_record(1.0, "loc", TIMES[0]), _img())
    log = store.directory / "records.log"
    doc = json.loads(log.read_text())
    # a missing field, a record that is not an object, a speed past float range
    for bad in [
        {k: v for k, v in doc.items() if k != "capture_time"},
        [doc],
        dict(doc, vehicle_speed=10**400),
    ]:
        log.write_text(json.dumps(bad) + "\n")
        with pytest.raises(StorageError, match="records.log:1: bad record"):
            RecordStore(tmp_path / "store")


def test_corrupt_hwm_is_an_error(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    (root / "hwm").write_text("forty-five\n")
    with pytest.raises(StorageError, match="high-water"):
        RecordStore(root)


def test_log_ignores_blank_lines(tmp_path):
    store = _filled_store(tmp_path)
    log = store.directory / "records.log"
    log.write_text(log.read_text() + "\n\n")
    again = RecordStore(tmp_path / "store")
    assert len(again.list_all()) == 5


def _torn_store(tmp_path, cut):
    """Five records, then the first `cut` bytes of a sixth line (cut < 0
    counts from its end): an append interrupted after its high-water mark
    reached 6. Returns the log path and the bytes of the five whole lines."""
    store = _filled_store(tmp_path)
    log = store.directory / "records.log"
    whole = log.read_bytes()
    other = RecordStore(tmp_path / "other")
    other.append(make_record(9.5, "loc", "2016-09-26_23_59_59"), _img(9))
    line = (other.directory / "records.log").read_bytes().replace(b'"id": 1', b'"id": 6')
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    log.write_bytes(whole + line[:cut])
    (store.directory / "hwm").write_text("6\n")
    return log, whole


@pytest.mark.parametrize("cut", [1, 40, -1], ids=["one-byte", "mid-line", "no-newline"])
def test_torn_last_line_is_ignored_on_read(tmp_path, cut):
    # no-newline: a whole record but for its newline, which still counts as torn
    log, whole = _torn_store(tmp_path, cut)
    torn = log.read_bytes()
    store = RecordStore(tmp_path / "store")
    assert [r.id for r in store.list_all()] == [1, 2, 3, 4, 5]
    assert log.read_bytes() == torn  # reading changes nothing


def test_torn_last_line_is_truncated_before_the_next_append(tmp_path):
    log, whole = _torn_store(tmp_path, 40)
    store = RecordStore(tmp_path / "store")
    assert store.append(make_record(1.0, "loc", "2016-09-27_08_00_00"), _img()) == 7
    data = log.read_bytes()
    assert data.startswith(whole)
    assert json.loads(data[len(whole):])["id"] == 7 and data.endswith(b"\n")
    assert [r.id for r in RecordStore(tmp_path / "store").list_all()] == [1, 2, 3, 4, 5, 7]


def test_delete_all_clears_a_torn_last_line(tmp_path):
    log, _ = _torn_store(tmp_path, 40)
    store = RecordStore(tmp_path / "store")
    assert store.delete_all(confirm=True) == 5
    assert store.append(make_record(1.0, "loc", TIMES[0]), _img()) == 7
    assert [json.loads(line)["id"] for line in log.read_text().splitlines()] == [7]


@pytest.mark.parametrize("name", ["records.log", "hwm"])
def test_append_to_a_store_that_turned_unwritable_is_a_storage_error(tmp_path, name):
    store = RecordStore(tmp_path / "store")
    store.append(make_record(1.0, "loc", TIMES[0]), _img())
    target = store.directory / name
    target.unlink()
    target.mkdir()  # the file became a directory after the store opened
    with pytest.raises(StorageError, match=name):
        store.append(make_record(2.0, "loc", TIMES[1]), _img(1))
    assert [r.id for r in store.list_all()] == [1]
    assert not (store.images_dir / picture_filename_for(TIMES[1])).exists()
    target.rmdir()
    assert store.append(make_record(2.0, "loc", TIMES[1]), _img(1)) == 2


def test_a_failed_mark_write_keeps_the_old_mark(tmp_path, monkeypatch):
    store = _filled_store(tmp_path, TIMES[:2])
    store.delete_all(confirm=True)  # the mark alone now keeps ids 1 and 2 used
    write_text = Path.write_text

    def torn(self, *args, **kwargs):
        if self.name.startswith("hwm"):
            self.open("w").close()  # truncated, then the write fails
            raise OSError("disk full")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", torn)
    with pytest.raises(StorageError, match="hwm"):
        store.append(make_record(3.0, "loc", TIMES[2]), _img(2))
    monkeypatch.undo()
    assert sorted(p.name for p in store.directory.iterdir()) == ["hwm", "images", "records.log"]
    again = RecordStore(store.directory)
    assert again.list_all() == []
    assert again.append(make_record(3.0, "loc", TIMES[2]), _img(2)) == 3


def test_delete_all_on_a_store_that_turned_unwritable_is_a_storage_error(tmp_path):
    store = _filled_store(tmp_path)
    log = store.directory / "records.log"
    log.unlink()
    log.mkdir()
    with pytest.raises(StorageError, match="records.log"):
        store.delete_all(confirm=True)
    assert len(store.list_all()) == len(TIMES)
