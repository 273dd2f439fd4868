"""Frame I/O, integral tables, synthetic sequences, sequence persistence."""

import numpy as np
import pytest

from oracles import naive_rect_sum
from speedcam import imaging, mblbp
from speedcam.errors import BoundsError, ConfigError, FormatError, TimeOrderError
from speedcam.imaging import Frame, Rect, round_half_up


def test_round_half_up_ties_go_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3  # banker's rounding would give 2
    assert round_half_up(303.0303) == 303
    assert round_half_up(4.499) == 4
    assert round_half_up(0.0) == 0


def test_frame_accepts_int_arrays_and_freezes_pixels():
    f = Frame(3, 2, [[1, 2, 3], [4, 5, 6]])
    assert f.pixels.dtype == np.uint8
    assert f.pixels.shape == (2, 3)
    with pytest.raises(ValueError):
        f.pixels[0, 0] = 9


def test_frame_rejects_bad_construction():
    with pytest.raises(ConfigError):
        Frame(0, 2, np.zeros((2, 0), np.uint8))
    with pytest.raises(ConfigError):
        Frame(2, 2, np.zeros((2, 3), np.uint8))
    with pytest.raises(ConfigError):
        Frame(2, 2, np.array([[0, 1], [2, 300]]))
    with pytest.raises(ConfigError):
        Frame(2, 2, np.zeros((2, 2), np.uint8), timestamp_ms=-1)


def test_save_pgm_exact_bytes():
    f = Frame(1, 1, np.array([[42]], np.uint8))
    assert imaging.save_pgm(f) == b"P5\n1 1\n255\n*"


def test_pgm_round_trip_random_frames():
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = int(rng.integers(1, 40))
        h = int(rng.integers(1, 40))
        px = rng.integers(0, 256, (h, w), np.uint8)
        loaded = imaging.load_pgm(imaging.save_pgm(Frame(w, h, px)))
        assert (loaded.width, loaded.height) == (w, h)
        assert np.array_equal(loaded.pixels, px)


def test_load_pgm_tolerates_comments_and_whitespace():
    data = b"P5 # binary graymap\n# size next\n 2\t1 # w h\n255\n\x01\x02"
    f = imaging.load_pgm(data)
    assert (f.width, f.height) == (2, 1)
    assert list(f.pixels[0]) == [1, 2]


def test_load_pgm_errors():
    with pytest.raises(FormatError, match="magic"):
        imaging.load_pgm(b"P6\n1 1\n255\nx")
    with pytest.raises(FormatError, match="unsupported maxval"):
        imaging.load_pgm(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FormatError, match="width"):
        imaging.load_pgm(b"P5\n0 1\n255\n")
    with pytest.raises(FormatError, match="truncated pixel data"):
        imaging.load_pgm(b"P5\n4 4\n255\nabc")
    with pytest.raises(FormatError, match="not an integer"):
        imaging.load_pgm(b"P5\nten 1\n255\nx")


def test_rect_sum_matches_naive_on_random_rects():
    rng = np.random.default_rng(11)
    px = rng.integers(0, 256, (37, 53), np.uint8)
    ii = imaging.integral(Frame(53, 37, px))
    for _ in range(200):
        w = int(rng.integers(1, 54))
        h = int(rng.integers(1, 38))
        x = int(rng.integers(0, 54 - w))
        y = int(rng.integers(0, 38 - h))
        assert imaging.rect_sum(ii, Rect(x, y, w, h)) == naive_rect_sum(px, x, y, w, h)


def _python_prefix_sum(px):
    """The (h+1, w+1) prefix table in plain Python integers."""
    h, w = len(px), len(px[0]) if px else 0
    table = [[0] * (w + 1) for _ in range(h + 1)]
    for r in range(h):
        for c in range(w):
            table[r + 1][c + 1] = px[r][c] + table[r][c + 1] + table[r + 1][c] - table[r][c]
    return table


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (19, 31), (40, 9)])
def test_integral_matches_a_python_prefix_sum(shape):
    h, w = shape
    rng = np.random.default_rng(h * 100 + w)
    for px in (rng.integers(0, 256, shape, np.uint8), np.full(shape, 255, np.uint8)):
        ii = imaging.integral(Frame(w, h, px))
        assert ii.dtype == np.int64 and not ii.flags.writeable
        assert ii.tolist() == _python_prefix_sum(px.tolist())


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (19, 31)])
def test_prefix_sums_of_a_stack_equal_each_frames_integral(shape):
    # random frames, an all-255 frame and an all-0 frame on the last axis
    h, w = shape
    rng = np.random.default_rng(h * 100 + w + 1)
    frames = [Frame(w, h, rng.integers(0, 256, shape, np.uint8)) for _ in range(3)]
    frames += [Frame(w, h, np.full(shape, 255, np.uint8)), Frame(w, h, np.zeros(shape, np.uint8))]
    table = imaging.prefix_sums(np.stack([f.pixels for f in frames], axis=-1))
    assert table.shape == (h + 1, w + 1, len(frames))
    assert table.dtype == np.int64 and not table.flags.writeable
    for k, frame in enumerate(frames):
        assert table[..., k].tobytes() == imaging.integral(frame).tobytes()
    # a uint32 table is the int64 one mod 2**32
    narrow = imaging.prefix_sums(np.stack([f.pixels for f in frames], axis=-1), np.uint32)
    assert narrow.dtype == np.uint32 and not narrow.flags.writeable
    assert np.array_equal(narrow, table % 2**32)


def test_rect_sum_bounds_errors():
    ii = imaging.integral(Frame(4, 4, np.ones((4, 4), np.uint8)))
    with pytest.raises(BoundsError):
        imaging.rect_sum(ii, Rect(0, 0, 0, 2))  # zero area
    with pytest.raises(BoundsError):
        imaging.rect_sum(ii, Rect(-1, 0, 2, 2))
    with pytest.raises(BoundsError):
        imaging.rect_sum(ii, Rect(3, 3, 2, 2))  # pokes past the edge
    assert imaging.rect_sum(ii, Rect(0, 0, 4, 4)) == 16


@pytest.mark.parametrize("dtype", [np.uint32, np.int32, np.uint64, np.float64])
def test_the_int64_readers_refuse_another_table(dtype):
    ii = imaging.integral(Frame(4, 4, np.ones((4, 4), np.uint8)))
    other = ii.astype(dtype)
    unit = mblbp.MbLbpFeature(0, 0, 1, 1)
    stage = mblbp.Stage(0.0, (mblbp.WeakClassifier(0, (0,) * 8, 1.0, 1.0),))
    model = mblbp.CascadeModel((unit,), (stage,), 3, 3)
    name = np.dtype(dtype).name
    with pytest.raises(ConfigError, match=f"int64 prefix table, not {name}"):
        imaging.rect_sum(other, Rect(0, 0, 4, 4))
    with pytest.raises(ConfigError, match=name):
        mblbp.lbp_code(other, unit, (0, 0))
    with pytest.raises(ConfigError, match=name):
        mblbp.eval_window(other, model, (0, 0))
    assert imaging.rect_sum(ii, Rect(0, 0, 4, 4)) == 16


def test_synth_sequence_positions_and_timestamps():
    cfg = imaging.SynthConfig(
        frame_w=64,
        frame_h=32,
        patch=Rect(2, 4, 12, 6),
        velocity=(3.0, 1.0),
        n_frames=5,
        frame_interval_ms=1000.0 / 30.0,
        texture_seed=3,
    )
    frames = imaging.synth_sequence(cfg)
    assert [f.timestamp_ms for f in frames] == [0, 33, 67, 100, 133]
    texture = frames[0].pixels[4:10, 2:14]
    for k, frame in enumerate(frames):
        x, y = 2 + 3 * k, 4 + k
        assert np.array_equal(frame.pixels[y : y + 6, x : x + 12], texture)
        mask = np.full((32, 64), True)
        mask[y : y + 6, x : x + 12] = False
        assert (frame.pixels[mask] == cfg.background).all()
    again = imaging.synth_sequence(cfg)
    assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(frames, again))


def test_synth_sequence_rejects_patch_escape():
    cfg = imaging.SynthConfig(
        frame_w=32,
        frame_h=32,
        patch=Rect(20, 4, 10, 6),
        velocity=(5.0, 0.0),
        n_frames=4,
        texture_seed=0,
    )
    with pytest.raises(ConfigError, match="exits frame"):
        imaging.synth_sequence(cfg)


def test_ground_truth_speed_is_euclidean():
    cfg = imaging.SynthConfig(
        frame_w=64, frame_h=64, patch=Rect(0, 0, 6, 6),
        velocity=(3.0, 4.0), n_frames=2, frame_interval_ms=100.0,
    )
    assert cfg.ground_truth_px_s() == pytest.approx(50.0)


def test_sequence_round_trip_with_manifest(tmp_path):
    cfg = imaging.SynthConfig(
        frame_w=24, frame_h=16, patch=Rect(1, 1, 6, 6),
        velocity=(2.0, 1.0), n_frames=4, texture_seed=5,
    )
    frames = imaging.synth_sequence(cfg)
    imaging.write_sequence(tmp_path / "seq", frames)
    loaded = imaging.read_sequence(tmp_path / "seq")
    assert [f.timestamp_ms for f in loaded] == [f.timestamp_ms for f in frames]
    assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(loaded, frames))


def test_sequence_without_manifest_needs_fps(tmp_path):
    d = tmp_path / "seq"
    d.mkdir()
    for k in range(3):
        (d / f"img_{k}.pgm").write_bytes(
            imaging.save_pgm(Frame(2, 2, np.full((2, 2), k, np.uint8)))
        )
    with pytest.raises(ConfigError, match="fps"):
        imaging.read_sequence(d)
    frames = imaging.read_sequence(d, fps=30.0)
    assert [f.timestamp_ms for f in frames] == [0, 33, 67]
    assert frames[2].pixels[0, 0] == 2  # lexicographic order


def test_a_rate_that_gives_two_frames_one_timestamp_is_a_config_error(tmp_path):
    d = tmp_path / "seq"
    d.mkdir()
    for k in range(3):
        (d / f"f{k}.pgm").write_bytes(imaging.save_pgm(Frame(2, 2, np.zeros((2, 2), np.uint8))))
    # 5000 fps: f0 at 0 ms, f1 at round(0.2) = 0 ms
    with pytest.raises(ConfigError, match=r"fps 5000 gives f0\.pgm and f1\.pgm the same"):
        imaging.read_sequence(d, fps=5000)
    # 1000 fps is the fastest rate whose frames all get distinct milliseconds
    assert [f.timestamp_ms for f in imaging.read_sequence(d, fps=1000)] == [0, 1, 2]


def test_sequence_manifest_errors(tmp_path, monkeypatch):
    d = tmp_path / "seq"
    d.mkdir()
    pgm = imaging.save_pgm(Frame(1, 1, np.zeros((1, 1), np.uint8)))
    (d / "a.pgm").write_bytes(pgm)
    (d / "manifest.tsv").write_text("a.pgm\n", encoding="utf-8")
    with pytest.raises(FormatError, match="manifest"):
        imaging.read_sequence(d)
    (d / "manifest.tsv").write_text("a.pgm\tsoon\n", encoding="utf-8")
    with pytest.raises(FormatError, match="not an integer"):
        imaging.read_sequence(d)
    (d / "manifest.tsv").write_text("missing.pgm\t0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="missing.pgm"):
        imaging.read_sequence(d)
    (d / "manifest.tsv").write_text("a.pgm\t5\na.pgm\t5\n", encoding="utf-8")
    with pytest.raises(TimeOrderError):
        imaging.read_sequence(d)
    with pytest.raises(FormatError, match="not found"):
        imaging.read_sequence(tmp_path / "nowhere")
    # each name below exists and decodes, but is not a file of the directory
    for path in [d / "sub" / "x.pgm", tmp_path / "outside" / "x.pgm"]:
        path.parent.mkdir()
        path.write_bytes(pgm)
    decoded = []
    load_pgm = imaging.load_pgm

    def counted(data):
        decoded.append(data)
        return load_pgm(data)

    monkeypatch.setattr(imaging, "load_pgm", counted)
    for name in ["../outside/x.pgm", str(tmp_path / "outside" / "x.pgm"), "sub/x.pgm", ".."]:
        (d / "manifest.tsv").write_text(f"a.pgm\t0\n{name}\t5\n", encoding="utf-8")
        with pytest.raises(FormatError, match="manifest.tsv:2: .*no directory part"):
            imaging.read_sequence(d)
    assert decoded == []  # refused before the first frame was read


def test_draw_rect_outlines_without_mutating():
    base = Frame(8, 8, np.zeros((8, 8), np.uint8))
    out = imaging.draw_rect(base, Rect(2, 1, 4, 3), value=200)
    assert base.pixels.sum() == 0
    assert out.pixels[1, 2:6].tolist() == [200] * 4
    assert out.pixels[3, 2:6].tolist() == [200] * 4
    assert out.pixels[1:4, 2].tolist() == [200] * 3
    assert out.pixels[1:4, 5].tolist() == [200] * 3
    assert out.pixels[2, 3] == 0  # interior untouched
    clipped = imaging.draw_rect(base, Rect(6, 6, 10, 10))
    assert clipped.pixels[7, 7] == 255
