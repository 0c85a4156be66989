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


def write_lines(path, *lines) -> None:
    """A file of the given lines: a str line as UTF-8, a bytes line as is."""
    with open(path, "wb") as fh:
        for line in lines:
            fh.write((line.encode() if isinstance(line, str) else line) + b"\n")


def write_archive(path, members) -> None:
    """A corpus file: the .npz archive of the given arrays by member name,
    or, given bytes, those bytes."""
    with open(path, "wb") as fh:
        if isinstance(members, bytes):
            fh.write(members)
        else:
            np.savez(fh, **members)


def corpus(second=None, matrix=((0.1,),), **change):
    """The members of a two-utterance corpus: "a", one frame of 0.1 and
    reference x, then the second record (default "b", reference x) with the
    given frame matrix; each keyword replaces a member, and None drops it."""
    second = {"id": "b", "ref": ["x"]} if second is None else second
    matrix = np.asarray(matrix, dtype=np.float64)
    members = {
        "frames": np.concatenate([[0.1], matrix.ravel()]),
        "shapes": np.array([[1, 1], matrix.shape]),
        "records": np.array(json.dumps([{"id": "a", "ref": ["x"]}, second])),
    }
    members.update(change)
    return {k: v for k, v in members.items() if v is not None}


# A JSONL corpus line of an earlier version, frames as hex
JSONL_LINE = (b'{"id": "a", "frames": {"shape": [1, 1], "float64le_hex": '
              b'"9a9999999999b93f"}, "ref": ["x"]}\n')

STR = np.array("x")  # a 0-d string member


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
        path = str(tmp_path / "utts.npz")
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
        """The archive holds the frames as one flat little-endian float64
        array, their shapes as int64 rows, and everything else as JSON."""
        utts = [Utterance("a", np.array([[1.5, -2.0]]), ("x",), ("y",), 0.02),
                Utterance("b", np.array([[3.0], [4.0], [5.0]]), ("z",))]
        path = str(tmp_path / "utts.npz")
        save_utterances(utts, path)
        with np.load(path) as back:
            assert sorted(back.files) == ["frames", "records", "shapes"]
            assert back["frames"].dtype == np.dtype("<f8")
            assert back["frames"].tolist() == [1.5, -2.0, 3.0, 4.0, 5.0]
            assert back["shapes"].dtype == np.dtype("<i8")
            assert back["shapes"].tolist() == [[1, 2], [3, 1]]
            assert json.loads(back["records"].item()) == [
                {"id": "a", "ref": ["x"], "tgt": ["y"], "frame_period_sec": 0.02},
                {"id": "b", "ref": ["z"], "frame_period_sec": 0.01},
            ]

    def test_bad_json_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        write_archive(path, corpus(records=np.array('[{"id": "a"}, not json')))
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: records are not JSON"):
            load_utterances(path)

    def test_records_not_a_list_refused(self, tmp_path):
        # an object of as many keys as the corpus has utterances
        path = str(tmp_path / "bad.npz")
        write_archive(path, corpus(records=np.array('{"id": "a", "ref": ["x"]}')))
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: records must be "
                                              r"a JSON list of 2 objects"):
            load_utterances(path)

    # Each id names the case of the JSONL spelling that this archive case
    # stands in for: a hex string the wrong length for its shape became a
    # frames array the wrong length for the shapes, a bad "shape" value a
    # bad shapes member or row, a bad "frames" value a bad member, and the
    # spellings of earlier versions are refused as a whole file.
    @pytest.mark.parametrize("members, why", [
        pytest.param(corpus({"ref": ["x"]}), "utterance 1: missing key 'id'", id="missing-id"),
        pytest.param(corpus(frames=None),
                     r"members must be \['frames', 'records', 'shapes'\], "
                     r"got \['records', 'shapes'\]", id="missing-frames"),
        pytest.param(corpus({"id": "b"}), "utterance 1 \\('b'\\): missing key 'ref'",
                     id="missing-ref"),
        pytest.param(corpus(frames=np.array([0.1, 0.2, 0.3]), shapes=np.array([[1, 1], [2, 2]])),
                     "shapes add up to 5 frame values, but frames holds 3",
                     id="hex-short-for-shape"),
        pytest.param(corpus(shapes=np.array([1, 1, 1, 1])),
                     "member shapes must be int64 of rank 2, got int64 of rank 1", id="shape-1d"),
        pytest.param(corpus(shapes=np.array([[1, 1, 1], [1, 1, 1]])),
                     "shapes must be \\(n, 2\\), got \\(2, 3\\)", id="shape-3d"),
        pytest.param(corpus(shapes=np.array([[1, 1], [-1, -1]])),
                     "utterance 1's shape \\[-1, -1\\] is negative", id="shape-negative"),
        pytest.param(corpus(shapes=np.array([[True, True], [True, True]])),
                     "member shapes must be int64 of rank 2, got bool", id="shape-bool"),
        pytest.param(corpus(shapes=np.array([[1.0, 1.0], [1.0, 1.0]])),
                     "member shapes must be int64 of rank 2, got float64", id="shape-float"),
        pytest.param(corpus(matrix=[[np.nan]]), "utterance 1 \\('b'\\): frames must be finite",
                     id="frames-nan"),
        pytest.param(corpus(matrix=[[np.inf]]), "finite", id="frames-inf"),
        pytest.param(corpus(matrix=[[-np.inf]]), "finite", id="frames-minus-inf"),
        pytest.param(corpus(matrix=np.zeros((0, 3))), "at least one frame", id="frames-no-rows"),
        pytest.param(corpus(matrix=np.zeros((2, 0))), "at least one frame", id="frames-no-width"),
        pytest.param(corpus(frames=np.array([0.1, 0.2, 0.3])),
                     "shapes add up to 2 frame values, but frames holds 3", id="hex-15-digits"),
        pytest.param(corpus(frames=np.array([1, 2])),
                     "member frames must be float64 of rank 1, got int64", id="hex-non-digit"),
        pytest.param(corpus(frames=np.array(["0.1", "0.2"])),
                     "member frames must be float64 of rank 1, got <U3", id="hex-whitespace"),
        pytest.param(corpus(frames=np.array([0.1, 0.2], dtype=complex)),
                     "member frames must be float64 of rank 1, got complex128",
                     id="hex-non-ascii"),
        pytest.param(corpus(frames=np.array(0.1)),
                     "member frames must be float64 of rank 1, got float64 of rank 0",
                     id="hex-number"),
        pytest.param(corpus(frames=np.array([[0.1], [0.2]])),
                     "member frames must be float64 of rank 1, got float64 of rank 2",
                     id="hex-list"),
        pytest.param(corpus(records=np.array(["[]", "[]"])),
                     "member records must be str_ of rank 0, got <U2 of rank 1",
                     id="frames-string"),
        pytest.param(corpus(records=np.array(0.1)),
                     "member records must be str_ of rank 0, got float64", id="frames-number"),
        pytest.param(corpus(shapes=None), "members must be .*, got \\['frames', 'records'\\]",
                     id="frames-no-hex"),
        pytest.param(corpus(dtype=STR), "members must be .*, got \\['dtype', 'frames', ",
                     id="frames-extra-key"),
        pytest.param(b'{"id": "a", "frames": [[0.1]], "ref": ["x"]}\n',
                     "is not a numpy .npz archive; .* regenerated with `streamdec gen-data`",
                     id="frames-nested-lists"),
        pytest.param(b'{"id": "a", "frames": {"shape": [1, 1], "float64le": "mpmZmZmZuT8="}, '
                     b'"ref": ["x"]}\n',
                     "is not a numpy .npz archive; .* regenerated with `streamdec gen-data`",
                     id="frames-base64"),
        pytest.param(corpus(["b", ["x"]]), "utterance 1: not a JSON object", id="not-an-object"),
        pytest.param(corpus({"id": 7, "ref": ["x"]}), "utterance 1 \\(7\\): id must be a string",
                     id="id-not-string"),
        pytest.param(corpus({"id": ["b"], "ref": ["x"]}),
                     "id must be a string, got \\['b'\\]", id="id-list"),
        pytest.param(corpus({"id": "b", "ref": "w01 w02"}),
                     "reference_tokens must be a sequence of strings", id="ref-string"),
        pytest.param(corpus({"id": "b", "ref": ["x", 3]}),
                     "reference_tokens must be a sequence of strings", id="ref-non-string"),
        pytest.param(corpus({"id": "b", "ref": ["x"], "tgt": "w01 w02"}),
                     "target_tokens must be a sequence of strings", id="tgt-string"),
        pytest.param(corpus({"id": "b", "ref": ["x"], "frame_period_sec": True}),
                     "frame_period_sec must be a number, got True", id="period-bool"),
        pytest.param(corpus({"id": "b", "ref": ["x"], "frame_period_sec": "0.01"}),
                     "frame_period_sec must be a number, got '0.01'", id="period-string"),
        pytest.param(corpus({"id": "b", "ref": ["x"], "frame_period_sec": 0}),
                     "frame_period_sec must be a finite number in \\(0, inf\\), got 0",
                     id="period-zero"),
        pytest.param(corpus({"id": "b", "ref": ["x"], "frame_period_sec": float("nan")}),
                     "frame_period_sec must be a finite number in \\(0, inf\\), got nan",
                     id="period-nan"),
        pytest.param(corpus(records=np.array(b"\xff\xfe")),
                     "member records must be str_ of rank 0, got \\|S2", id="not-utf8"),
    ])
    def test_malformed_record_reports_line(self, tmp_path, members, why):
        path = str(tmp_path / "bad.npz")
        write_archive(path, members)
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}:? .*{why}"):
            load_utterances(path)

    def test_loaded_frames_are_native_arrays_of_their_own(self, tmp_path, rng):
        """Frames are slices of one array read from the archive: each must
        still be a writable native matrix that no other utterance's frames
        alias."""
        path = str(tmp_path / "utts.npz")
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
        path = str(tmp_path / "reserved.npz")
        write_archive(path, corpus({"id": "b", "ref": ["x"], key: ["w01", "</s>", "<pad>"]}))
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: utterance 1 \('b'\): "
                                              rf".*reserved token '</s>'"):
            load_utterances(path)

    def test_repeated_id_reports_both_lines(self, tmp_path):
        """One id names one stream: a log is kept per id, so a second
        record with the id would be scored against the first one's log."""
        path = str(tmp_path / "dup.npz")
        records = [{"id": "a", "ref": ["x"]}, {"id": "b", "ref": ["x"]}, {"id": "a", "ref": ["y"]}]
        write_archive(path, {"frames": np.array([0.1, 0.2, 0.3]),
                             "shapes": np.ones((3, 2), dtype=np.int64),
                             "records": np.array(json.dumps(records))})
        with pytest.raises(
            ConfigError,
            match=rf"^{re.escape(path)}: utterance 2 \('a'\): repeats the id of utterance 0$",
        ):
            load_utterances(path)


class TestBadUtteranceArchives:
    """Whatever is wrong with a corpus file, loading it is a ConfigError
    that names the file, never a crash in the zip or .npy reader."""

    @pytest.fixture
    def good(self, tmp_path, rng):
        path = tmp_path / "good.npz"
        save_utterances([
            Utterance("a", rng.normal(size=(3, 2)), ("x", "y")),
            Utterance("b", rng.normal(size=(2, 2)), ("z",), ("q",)),
        ], str(path))
        return path.read_bytes()

    def refused(self, path, data, why=""):
        write_archive(path, data)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}.*{why}"):
            load_utterances(str(path))

    def test_every_cut_is_refused(self, tmp_path, good):
        for cut in range(len(good)):
            self.refused(tmp_path / "cut.npz", good[:cut])

    def test_flipped_bytes_load_or_are_refused(self, tmp_path, good):
        path = tmp_path / "flipped.npz"
        loaded = 0
        for at in range(len(good)):
            data = bytearray(good)
            data[at] ^= 0xFF
            write_archive(path, bytes(data))
            try:
                load_utterances(str(path))
                loaded += 1  # a byte no check reads, such as a file date
            except ConfigError as e:
                assert str(e).startswith(str(path)), e
        assert 0 < loaded < len(good) // 2

    @pytest.mark.parametrize("extra", [b"\0", b"x" * 100, b"PK\x05\x06"])
    def test_bytes_after_the_end_record_are_refused(self, tmp_path, good, extra):
        """np.load alone would read this file."""
        self.refused(tmp_path / "long.npz", good + extra, "bytes after its end")

    def test_zero_byte_file_is_refused(self, tmp_path):
        self.refused(tmp_path / "empty.npz", b"", "is not a numpy .npz archive")

    def test_jsonl_corpus_is_refused_with_advice(self, tmp_path):
        self.refused(tmp_path / "old.jsonl", JSONL_LINE,
                     "is not a numpy .npz archive; a JSONL corpus of an earlier version "
                     "must be regenerated with `streamdec gen-data`$")

    def test_float32_frames_are_refused(self, tmp_path):
        self.refused(tmp_path / "f32.npz", corpus(frames=np.array([0.1, 0.2], np.float32)),
                     "member frames must be float64 of rank 1, got float32")

    def test_object_members_are_refused_not_unpickled(self, tmp_path):
        self.refused(tmp_path / "obj.npz", corpus(shapes=np.array([[1, 1], [1, 1]], object)),
                     "Object arrays cannot be loaded when allow_pickle=False")

    def test_no_utterances_load_as_none(self, tmp_path):
        path = str(tmp_path / "none.npz")
        save_utterances([], path)
        assert load_utterances(path) == []

    def test_written_at_exactly_the_path_and_read_by_content(self, tmp_path, rng):
        """np.savez given a file name without the suffix would add .npz;
        the suffix of a corpus's name means nothing to its reader."""
        path = tmp_path / "corpus.jsonl"
        save_utterances([Utterance("a", rng.normal(size=(2, 2)), ("x",))], str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]
        assert [u.id for u in load_utterances(str(path))] == ["a"]

    def test_written_bytes_depend_only_on_the_utterances(self, tmp_path, rng):
        utts = [Utterance("a", rng.normal(size=(2, 2)), ("x",))]
        save_utterances(utts, str(tmp_path / "one.npz"))
        save_utterances(utts, str(tmp_path / "two.npz"))
        assert (tmp_path / "one.npz").read_bytes() == (tmp_path / "two.npz").read_bytes()


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

    def test_blank_lines_skipped(self, tmp_path):
        log = CommitLog()
        log.commit(("x", "y"), chunk_index=1, chunk_len_sec=0.5)
        path = str(tmp_path / "logs.jsonl")
        save_commit_logs({"u": log}, path)
        first, second = open(path).read().splitlines()
        write_lines(path, "", first, "  ", second, "")
        assert load_commit_logs(path) == {"u": log}

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
