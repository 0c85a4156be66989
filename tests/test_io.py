import json
import re

import numpy as np
import pytest

from streamdec.core import CommitLog, ConfigError, Utterance
from streamdec.io import (
    load_commit_logs,
    load_utterances,
    save_attention_grids,
    save_commit_logs,
    save_eval_summary,
    save_utterances,
)


def frames_json(frames, shape=None) -> str:
    """The JSON of an utterance record's "frames" value: the hex of the
    values' little-endian float64 bytes, under the given shape (default:
    the values' own)."""
    a = np.asarray(frames, dtype="<f8")
    return json.dumps({
        "shape": list(a.shape if shape is None else shape),
        "float64le_hex": a.tobytes().hex(),
    })


F = frames_json([[0.1]])


def write_lines(path, *lines) -> None:
    """A file of the given lines: a str line as UTF-8, a bytes line as is."""
    with open(path, "wb") as fh:
        for line in lines:
            fh.write((line.encode() if isinstance(line, str) else line) + b"\n")


class TestUtteranceFiles:
    def test_round_trip(self, tmp_path, rng):
        edge = np.array([[-0.0, 5e-324], [1.7976931348623157e308,
                                          -1.7976931348623157e308]])
        utts = [
            Utterance("a", rng.normal(size=(7, 3)), ("x", "y")),
            Utterance(
                "b",
                rng.normal(size=(4, 3)),
                ("z",),
                target_tokens=("q", "r"),
                frame_period_sec=0.02,
            ),
            Utterance("c", edge, ("w",)),
        ]
        path = str(tmp_path / "utts.jsonl")
        save_utterances(utts, path)
        back = load_utterances(path)
        assert [u.id for u in back] == ["a", "b", "c"]
        for orig, copy in zip(utts, back):
            assert copy.frames.shape == orig.frames.shape
            assert copy.frames.tobytes() == orig.frames.tobytes()
            assert copy.frames.dtype == np.float64
            assert copy.frames.dtype.isnative
            assert copy.frames.flags.c_contiguous
            assert copy.frames.flags.writeable
            assert copy.reference_tokens == orig.reference_tokens
            assert copy.target_tokens == orig.target_tokens
            assert copy.frame_period_sec == orig.frame_period_sec

    def test_record_is_plain_json_around_the_frames(self, tmp_path):
        utt = Utterance("a", np.array([[1.5, -2.0]]), ("x",), ("y",), 0.02)
        path = str(tmp_path / "utts.jsonl")
        save_utterances([utt], path)
        (line,) = open(path).read().splitlines()
        assert json.loads(line) == {
            "id": "a",
            "frames": json.loads(frames_json([[1.5, -2.0]])),
            "ref": ["x"],
            "tgt": ["y"],
            "frame_period_sec": 0.02,
        }

    def test_bad_json_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(f'{{"id": "a", "frames": {F}, "ref": ["x"], "frame_period_sec": 0.01}}\n')
            fh.write("not json\n")
        with pytest.raises(ConfigError, match=r":2: bad JSON"):
            load_utterances(path)

    @pytest.mark.parametrize("line, why", [
        pytest.param(f'{{"frames": {F}, "ref": ["x"]}}', "missing key 'id'", id="missing-id"),
        pytest.param('{"id": "b", "ref": ["x"]}', "missing key 'frames'", id="missing-frames"),
        pytest.param(f'{{"id": "b", "frames": {F}}}', "missing key 'ref'", id="missing-ref"),
        pytest.param(
            f'{{"id": "b", "frames": {frames_json([0.1, 0.2, 0.3], [2, 2])}, "ref": ["x"]}}',
            "must be a string of 64 hex digits for shape \\[2, 2\\], got 48",
            id="hex-short-for-shape"),
        pytest.param(f'{{"id": "b", "frames": {frames_json([0.1, 0.2])}, "ref": ["x"]}}',
                     "two non-negative integers", id="shape-1d"),
        pytest.param(f'{{"id": "b", "frames": {frames_json([[[0.1]]])}, "ref": ["x"]}}',
                     "two non-negative integers", id="shape-3d"),
        pytest.param(f'{{"id": "b", "frames": {frames_json([[0.1]], [-1, -1])}, "ref": ["x"]}}',
                     "two non-negative integers", id="shape-negative"),
        pytest.param(f'{{"id": "b", "frames": {frames_json([[0.1]], [True, 1])}, "ref": ["x"]}}',
                     "two non-negative integers", id="shape-bool"),
        pytest.param(f'{{"id": "b", "frames": {frames_json([[0.1]], [1.0, 1])}, "ref": ["x"]}}',
                     "two non-negative integers", id="shape-float"),
        pytest.param(f'{{"id": "b", "frames": {frames_json([[np.nan]])}, "ref": ["x"]}}',
                     "finite", id="frames-nan"),
        pytest.param(f'{{"id": "b", "frames": {frames_json([[np.inf]])}, "ref": ["x"]}}',
                     "finite", id="frames-inf"),
        pytest.param(f'{{"id": "b", "frames": {frames_json([[-np.inf]])}, "ref": ["x"]}}',
                     "finite", id="frames-minus-inf"),
        pytest.param(f'{{"id": "b", "frames": {frames_json(np.zeros((0, 3)))}, "ref": ["x"]}}',
                     "at least one frame", id="frames-no-rows"),
        pytest.param(f'{{"id": "b", "frames": {frames_json(np.zeros((2, 0)))}, "ref": ["x"]}}',
                     "at least one frame", id="frames-no-width"),
        pytest.param(
            '{"id": "b", "frames": {"shape": [1, 1], "float64le_hex": "9a9999999999b93"}, "ref": ["x"]}',
            "must be a string of 16 hex digits for shape \\[1, 1\\], got 15", id="hex-15-digits"),
        pytest.param(
            '{"id": "b", "frames": {"shape": [1, 1], "float64le_hex": "9a9999999999b93g"}, "ref": ["x"]}',
            "float64le_hex is not hex: non-hexadecimal number", id="hex-non-digit"),
        pytest.param(
            '{"id": "b", "frames": {"shape": [1, 1], "float64le_hex": "9a99 9999 99b93f"}, "ref": ["x"]}',
            "float64le_hex is not hex: whitespace among the digits", id="hex-whitespace"),
        pytest.param(
            '{"id": "b", "frames": {"shape": [1, 1], "float64le_hex": "9a9999999999b93\u00e9"}, "ref": ["x"]}',
            "float64le_hex is not hex: non-hexadecimal number", id="hex-non-ascii"),
        pytest.param('{"id": "b", "frames": {"shape": [1, 1], "float64le_hex": 7}, "ref": ["x"]}',
                     "must be a string of 16 hex digits for shape \\[1, 1\\], got int",
                     id="hex-number"),
        pytest.param(
            '{"id": "b", "frames": {"shape": [1, 1], "float64le_hex": ["9a9999999999b93f"]}, "ref": ["x"]}',
            "must be a string of 16 hex digits for shape \\[1, 1\\], got list", id="hex-list"),
        pytest.param('{"id": "b", "frames": "9a9999999999b93f", "ref": ["x"]}', "exactly the keys",
                     id="frames-string"),
        pytest.param('{"id": "b", "frames": 0.1, "ref": ["x"]}', "exactly the keys",
                     id="frames-number"),
        pytest.param('{"id": "b", "frames": {"shape": [1, 1]}, "ref": ["x"]}', "exactly the keys",
                     id="frames-no-hex"),
        pytest.param('{"id": "b", "frames": {"shape": [1, 1], "float64le_hex": "9a9999999999b93f", '
                     '"dtype": "f8"}, "ref": ["x"]}', "exactly the keys", id="frames-extra-key"),
        pytest.param('{"id": "b", "frames": [[0.1]], "ref": ["x"]}',
                     "nested lists, .* regenerate the corpus with `streamdec gen-data`",
                     id="frames-nested-lists"),
        pytest.param('{"id": "b", "frames": {"shape": [1, 1], "float64le": "mpmZmZmZuT8="}, "ref": ["x"]}',
                     'base64 \\("float64le"\\), .* regenerate the corpus with `streamdec gen-data`',
                     id="frames-base64"),
        pytest.param('["b", [[0.1]], ["x"]]', "not a JSON object", id="not-an-object"),
        pytest.param(f'{{"id": 7, "frames": {F}, "ref": ["x"]}}', "id must be a string",
                     id="id-not-string"),
        pytest.param(f'{{"id": ["b"], "frames": {F}, "ref": ["x"]}}',
                     "id must be a string, got \\['b'\\]", id="id-list"),
        pytest.param(f'{{"id": "b", "frames": {F}, "ref": "w01 w02"}}',
                     "reference_tokens must be a sequence of strings", id="ref-string"),
        pytest.param(f'{{"id": "b", "frames": {F}, "ref": ["x", 3]}}',
                     "reference_tokens must be a sequence of strings", id="ref-non-string"),
        pytest.param(f'{{"id": "b", "frames": {F}, "ref": ["x"], "tgt": "w01 w02"}}',
                     "target_tokens must be a sequence of strings", id="tgt-string"),
        pytest.param(f'{{"id": "b", "frames": {F}, "ref": ["x"], "frame_period_sec": true}}',
                     "frame_period_sec must be a number, got True", id="period-bool"),
        pytest.param(f'{{"id": "b", "frames": {F}, "ref": ["x"], "frame_period_sec": "0.01"}}',
                     "frame_period_sec must be a number, got '0.01'", id="period-string"),
        pytest.param(f'{{"id": "b", "frames": {F}, "ref": ["x"], "frame_period_sec": 0}}',
                     "frame_period_sec must be a finite number in \\(0, inf\\), got 0",
                     id="period-zero"),
        pytest.param(f'{{"id": "b", "frames": {F}, "ref": ["x"], "frame_period_sec": NaN}}',
                     "frame_period_sec must be a finite number in \\(0, inf\\), got nan",
                     id="period-nan"),
        pytest.param(b"\xff\xfe", "not valid UTF-8", id="not-utf8"),
    ])
    def test_malformed_record_reports_line(self, tmp_path, line, why):
        path = str(tmp_path / "bad.jsonl")
        write_lines(path, f'{{"id": "a", "frames": {F}, "ref": ["x"]}}', line)
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}:2: .*{why}"):
            load_utterances(path)

    def test_loaded_frames_are_native_arrays_of_their_own(self, tmp_path, rng):
        """Frames are read in place from a writable buffer, never copied:
        each must still be a writable native matrix that no other
        utterance's frames alias."""
        path = str(tmp_path / "utts.jsonl")
        save_utterances([Utterance(f"u{i}", rng.normal(size=(5, 2)), ("x",))
                         for i in range(3)], path)
        frames = [u.frames for u in load_utterances(path)]
        for f in frames:
            assert f.dtype == np.float64 and f.dtype.isnative
            assert f.flags.c_contiguous and f.flags.writeable
        for i, f in enumerate(frames):
            for g in frames[i + 1:]:
                assert not np.shares_memory(f, g)
        before = [g.copy() for g in frames[1:]]
        frames[0][:] = 0.0
        for g, want in zip(frames[1:], before):
            np.testing.assert_array_equal(g, want)

    @pytest.mark.parametrize("key", ["ref", "tgt"])
    def test_reserved_token_reports_line(self, tmp_path, key):
        """A transcript holding </s> or <pad> would train them mid-sentence
        and could never be matched by a decode."""
        path = str(tmp_path / "reserved.jsonl")
        write_lines(
            path,
            f'{{"id": "a", "frames": {F}, "ref": ["x"]}}',
            f'{{"id": "b", "frames": {F}, "ref": ["x"], "{key}": ["w01", "</s>", "<pad>"]}}',
        )
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}:2: .*reserved token '</s>'"):
            load_utterances(path)

    def test_repeated_id_reports_both_lines(self, tmp_path):
        """One id names one stream: a log is kept per id, so a second
        record with the id would be scored against the first one's log."""
        path = str(tmp_path / "dup.jsonl")
        with open(path, "w") as fh:
            fh.write(f'{{"id": "a", "frames": {F}, "ref": ["x"]}}\n')
            fh.write(f'{{"id": "b", "frames": {F}, "ref": ["x"]}}\n')
            fh.write("\n")
            fh.write(f'{{"id": "a", "frames": {F}, "ref": ["y"]}}\n')
        with pytest.raises(
            ConfigError,
            match=rf"^{re.escape(path)}:4: utterance id 'a' repeats the one on line 1$",
        ):
            load_utterances(path)


class TestCommitLogFiles:
    def test_round_trip(self, tmp_path):
        log_a = CommitLog()
        log_a.commit(("x", "y"), chunk_index=1, chunk_len_sec=0.5)
        log_a.commit(("z",), chunk_index=3, chunk_len_sec=0.5)
        log_b = CommitLog()
        log_b.commit(("q",), chunk_index=2, chunk_len_sec=0.5)
        log_c = CommitLog()
        log_c.commit(("p", "q"), chunk_index=7, chunk_len_sec=0.1)
        logs = {"utt-a": log_a, "utt-b": log_b, "utt-c": log_c}
        path = str(tmp_path / "logs.jsonl")
        save_commit_logs(logs, path)
        assert load_commit_logs(path) == logs

    def test_file_is_one_json_object_per_line(self, tmp_path):
        log = CommitLog()
        log.commit(("x",), 1, 0.5)
        path = str(tmp_path / "logs.jsonl")
        save_commit_logs({"u": log}, path)
        for line in open(path):
            row = json.loads(line)
            assert set(row) == {"utt", "token", "chunk", "t_out"}


MALFORMED_COMMIT_RECORDS = [
    ('{"utt": "a", "token": "x", "chunk": 1, "t_out": 0.5', "bad JSON"),
    ('["a", "x", 1, 0.5]', "not a JSON object"),
    ('{"token": "x", "chunk": 1, "t_out": 0.5}', "missing key 'utt'"),
    ('{"utt": "a", "chunk": 1, "t_out": 0.5}', "missing key 'token'"),
    ('{"utt": "a", "token": "x", "t_out": 0.5}', "missing key 'chunk'"),
    ('{"utt": "a", "token": "x", "chunk": 1}', "missing key 't_out'"),
    ('{"utt": "a", "token": "x", "chunk": 1, "t_out": "0.5"}', "finite number"),
    ('{"utt": "a", "token": "x", "chunk": 1, "t_out": true}', "finite number"),
    ('{"utt": "a", "token": "x", "chunk": 1, "t_out": NaN}', "finite number"),
    ('{"utt": "a", "token": "x", "chunk": 1, "t_out": Infinity}', "finite number"),
    ('{"utt": ["a"], "token": "x", "chunk": 1, "t_out": 0.5}', "string"),
    ('{"utt": "a", "token": "x", "chunk": "1", "t_out": 0.5}', "integer >= 1"),
    ('{"utt": "a", "token": "x", "chunk": 0, "t_out": 0.5}', "integer >= 1"),
    ('{"utt": "a", "token": "x", "chunk": true, "t_out": 0.5}', "integer >= 1"),
    ('{"utt": "a", "token": "x", "chunk": 1.5, "t_out": 0.5}', "integer >= 1"),
    ('{"utt": "a", "token": 5, "chunk": 1, "t_out": 0.5}', "token must be a string"),
    (b'{"utt": "a", "token": "\xff", "chunk": 1, "t_out": 0.5}', "not valid UTF-8"),
]


def write_commit_log_with(path, line):
    """A commit log whose second line is the given one."""
    write_lines(path, '{"utt": "a", "token": "x", "chunk": 1, "t_out": 0.5}', line)


@pytest.mark.parametrize("line, why", MALFORMED_COMMIT_RECORDS)
def test_malformed_commit_record_reports_line(tmp_path, line, why):
    path = str(tmp_path / "bad.jsonl")
    write_commit_log_with(path, line)
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}:2: .*{why}"):
        load_commit_logs(path)


def test_backwards_chunk_reports_line(tmp_path):
    """Chunk indices may restart per utterance but not go backwards in one."""
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write('{"utt": "a", "token": "x", "chunk": 3, "t_out": 1.5}\n')
        fh.write('{"utt": "b", "token": "y", "chunk": 1, "t_out": 0.5}\n')
        fh.write('{"utt": "a", "token": "z", "chunk": 2, "t_out": 1.0}\n')
    with pytest.raises(
        ConfigError, match=rf"^{re.escape(path)}:3: commit at chunk 2 after chunk 3"
    ):
        load_commit_logs(path)


class TestEvalSummary:
    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "summary.json")
        save_eval_summary({"wer": 0.25, "mean_t_out": 1.5, "n": 3}, path)
        back = json.load(open(path))
        assert back == {"wer": 0.25, "mean_t_out": 1.5, "n": 3}


class TestAttentionGrids:
    def test_archive_round_trip_is_exact(self, tmp_path, rng):
        """Every grid, empty ones of either width included, loads back
        bit for bit under its name."""
        grids = {
            "cross.layer0.head0": rng.random((3, 5)),
            "encoder_self.layer1.head1": rng.random((4, 4)),
            "decoder_self.layer0.head0": np.zeros((0, 4)),
            "decoder_self.layer0.head1": np.zeros((3, 0)),
        }
        path = str(tmp_path / "attn.npz")
        save_attention_grids(grids, path)
        with np.load(path) as back:
            assert sorted(back.files) == sorted(grids)
            for name, g in grids.items():
                assert back[name].dtype == np.float64
                assert back[name].shape == g.shape
                assert back[name].tobytes() == g.tobytes()

    def test_archive_is_written_at_exactly_the_path(self, tmp_path):
        """np.savez given a file name without the suffix would add .npz."""
        path = tmp_path / "attn.grids"
        save_attention_grids({"g": np.eye(2)}, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["attn.grids"]
        with np.load(path) as back:
            np.testing.assert_array_equal(back["g"], np.eye(2))
