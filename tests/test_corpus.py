import hashlib
import json
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from polycap import corpus
from polycap.corpus import (
    AEMB_MAGIC,
    CorpusIndex,
    EmbeddingFormatError,
    EmbeddingSequence,
    clip_ids,
    clip_path,
    compute_stats,
    jsonl_objects,
    load_embedding,
    load_manifests,
    read_clips,
    read_text,
    sample_caption,
    write_embedding,
)
from polycap.errors import ValidationError
from polycap.text import Language


def make_seq(audio_id="clip", frames=31, dim=768, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingSequence(audio_id=audio_id, data=rng.normal(size=(frames, dim)).astype(np.float32))


class TestEmbeddingFormat:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        seq = make_seq(frames=5, dim=12)
        path = tmp_path / "clip.aemb"
        write_embedding(path, seq)
        loaded = load_embedding(path)
        assert loaded.audio_id == "clip"
        assert loaded.data.dtype == np.float32
        assert np.array_equal(loaded.data, seq.data)
        # a second write of the loaded data is byte-identical
        write_embedding(tmp_path / "again.aemb", loaded)
        assert (tmp_path / "again.aemb").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("frames, dim", [(1, 1), (3, 5), (31, 768)])
    def test_bytes_match_a_struct_oracle(self, tmp_path, frames, dim):
        # the header, then each frame's values as little-endian float32,
        # from a float64 or non-contiguous source as from a float32 one
        data = np.random.default_rng(frames).normal(size=(dim, frames)).T
        path = tmp_path / "clip.aemb"
        write_embedding(path, EmbeddingSequence("clip", data))
        values = [float(v) for v in data.astype(np.float32).ravel()]
        want = AEMB_MAGIC + struct.pack("<III", 1, dim, frames) + struct.pack(f"<{frames * dim}f", *values)
        assert path.read_bytes() == want
        assert list(tmp_path.iterdir()) == [path]

    def test_rewrite_replaces_the_previous_file_whole(self, tmp_path):
        path = tmp_path / "clip.aemb"
        write_embedding(path, make_seq(frames=9, dim=4, seed=1))
        write_embedding(path, make_seq(frames=2, dim=4, seed=2))
        assert np.array_equal(load_embedding(path).data, make_seq(frames=2, dim=4, seed=2).data)
        assert list(tmp_path.iterdir()) == [path]

    def test_production_scale_shape(self, tmp_path):
        path = tmp_path / "clip.aemb"
        write_embedding(path, make_seq(frames=31, dim=768))
        assert load_embedding(path).data.shape == (31, 768)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.aemb"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(EmbeddingFormatError, match=r"bad magic b'NOPE', expected b'AEMB'"):
            load_embedding(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.aemb"
        path.write_bytes(AEMB_MAGIC + struct.pack("<III", 9, 2, 2) + b"\0" * 16)
        with pytest.raises(EmbeddingFormatError, match="unsupported version 9"):
            load_embedding(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.aemb"
        write_embedding(path, make_seq(frames=4, dim=4))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(EmbeddingFormatError, match="payload length mismatch, header implies 64 bytes, found 61"):
            load_embedding(path)

    def test_trailing_bytes_are_a_length_mismatch(self, tmp_path):
        path = tmp_path / "long.aemb"
        write_embedding(path, make_seq(frames=4, dim=4))
        path.write_bytes(path.read_bytes() + b"\0" * 5)
        with pytest.raises(EmbeddingFormatError, match="header implies 64 bytes, found more than 64$"):
            load_embedding(path)

    def test_payload_larger_than_a_read_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus, "READ_CHUNK", 7)
        seq = make_seq(frames=3, dim=5)
        write_embedding(tmp_path / "clip.aemb", seq)
        digest = hashlib.sha256()
        assert np.array_equal(load_embedding(tmp_path / "clip.aemb", digest).data, seq.data)
        assert digest.hexdigest() == hashlib.sha256((tmp_path / "clip.aemb").read_bytes()).hexdigest()

    def test_a_fifo_is_read_to_its_end_and_hashed(self, tmp_path):
        seq = make_seq(frames=3, dim=4)
        write_embedding(tmp_path / "src.aemb", seq)
        raw = (tmp_path / "src.aemb").read_bytes()
        os.mkfifo(tmp_path / "clip.aemb")
        writer = threading.Thread(target=(tmp_path / "clip.aemb").write_bytes, args=(raw,), daemon=True)
        writer.start()
        digest = hashlib.sha256()
        try:
            loaded = load_embedding(tmp_path / "clip.aemb", digest)
        finally:
            writer.join(timeout=10)
        assert loaded.audio_id == "clip" and np.array_equal(loaded.data, seq.data)
        assert digest.hexdigest() == hashlib.sha256(raw).hexdigest()

    def test_zero_shape_header(self, tmp_path):
        path = tmp_path / "zero.aemb"
        path.write_bytes(AEMB_MAGIC + struct.pack("<III", 1, 0, 3))
        with pytest.raises(EmbeddingFormatError, match="invalid shape 3x0 in header"):
            load_embedding(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "short.aemb"
        path.write_bytes(b"AEM")
        with pytest.raises(EmbeddingFormatError, match="file shorter than the 16-byte AEMB header"):
            load_embedding(path)

    def test_nan_payload(self, tmp_path):
        data = np.zeros((2, 2), dtype=np.float32)
        path = tmp_path / "nan.aemb"
        write_embedding(path, EmbeddingSequence("x", np.ones((2, 2), dtype=np.float32)))
        data[1, 1] = np.nan
        raw = AEMB_MAGIC + struct.pack("<III", 1, 2, 2) + data.astype("<f4").tobytes()
        path.write_bytes(raw)
        with pytest.raises(EmbeddingFormatError, match="embedding contains non-finite values"):
            load_embedding(path)

    def test_constructor_rejects_empty(self):
        with pytest.raises(ValidationError):
            EmbeddingSequence("x", np.zeros((0, 4), dtype=np.float32))

    def test_constructor_rejects_a_1d_array(self):
        with pytest.raises(ValidationError, match="^x: embedding data must be 2-D$"):
            EmbeddingSequence("x", np.zeros(4, dtype=np.float32))


class TestReadEmbeddings:
    def test_arrays_and_problems_by_audio_id(self, tmp_path):
        ok = make_seq("ok", frames=3, dim=4)
        write_embedding(tmp_path / "ok.aemb", ok)
        write_embedding(tmp_path / "short.aemb", make_seq("short", frames=3, dim=4))
        (tmp_path / "short.aemb").write_bytes((tmp_path / "short.aemb").read_bytes()[:-1])
        (tmp_path / "dir.aemb").mkdir()
        problems = {}
        embeddings = dict(read_clips(tmp_path, ["ok", "gone", "short", "dir", "nul\0id"], problems))
        assert list(embeddings) == ["ok"]
        assert np.array_equal(embeddings["ok"], ok.data)
        assert problems["gone"] == "missing embedding file gone.aemb"
        assert problems["nul\0id"] == "missing embedding file nul\0id.aemb"
        # a path that exists keeps the reader's own message, which names it
        assert problems["short"] == f"{tmp_path / 'short.aemb'}: payload length mismatch, header implies 48 bytes, found 47"
        assert problems["dir"].startswith(f"{tmp_path / 'dir.aemb'}: cannot read embedding file")
        assert list(problems) == ["gone", "short", "dir", "nul\0id"]

    def test_digests_hash_the_bytes_of_each_clip_read(self, tmp_path):
        for i, audio_id in enumerate(("b", "a", "c")):
            write_embedding(clip_path(tmp_path, audio_id), make_seq(audio_id, frames=2 + i, dim=3, seed=i))
        digests = {"kept.aemb": "left as it was"}
        problems = {}
        embeddings = dict(read_clips(tmp_path, ["b", "a", "c"], problems, digests))
        assert problems == {} and list(embeddings) == ["b", "a", "c"]
        assert digests.pop("kept.aemb") == "left as it was"
        assert {name: d.hexdigest() for name, d in digests.items()} == {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.glob("*.aemb"))
        }

    def test_width_other_than_d_in_is_a_problem_only_given_d_in(self, tmp_path):
        write_embedding(clip_path(tmp_path, "a"), make_seq("a", frames=2, dim=3))
        write_embedding(clip_path(tmp_path, "b"), make_seq("b", frames=2, dim=4))
        problems = {}
        embeddings = dict(read_clips(tmp_path, ["a", "b"], problems, d_in=4))
        assert list(embeddings) == ["b"]
        assert problems == {"a": "embedding dim 3 does not match model d_in 4"}
        problems = {}
        assert [audio_id for audio_id, _ in read_clips(tmp_path, ["a", "b"], problems)] == ["a", "b"]
        assert problems == {}

    def test_clip_read_twice_is_hashed_once(self, tmp_path):
        # train and val splits may share a clip: its digest is of one read, not two fed to one hash
        write_embedding(clip_path(tmp_path, "a"), make_seq("a", frames=2, dim=3))
        digests = {}
        for _ in range(2):
            assert [audio_id for audio_id, _ in read_clips(tmp_path, ["a"], {}, digests)] == ["a"]
        assert digests["a.aemb"].hexdigest() == hashlib.sha256(clip_path(tmp_path, "a").read_bytes()).hexdigest()

    def test_clip_ids_are_the_sorted_stems_their_paths_name(self, tmp_path):
        for audio_id in ("b", "a.x", "c"):
            write_embedding(clip_path(tmp_path, audio_id), make_seq(audio_id, frames=2, dim=3))
        (tmp_path / "notes.txt").write_text("not a clip")
        assert clip_ids(tmp_path) == ["a.x", "b", "c"]
        assert [clip_path(tmp_path, a).name for a in clip_ids(tmp_path)] == ["a.x.aemb", "b.aemb", "c.aemb"]


class TestSampleCaption:
    def test_single_caption_any_seed(self):
        for seed in range(5):
            assert sample_caption(("only one",), np.random.default_rng(seed)) == "only one"

    def test_uniform_over_five(self):
        captions = tuple(f"cap{i}" for i in range(5))
        rng = np.random.default_rng(123)
        draws = [sample_caption(captions, rng) for _ in range(5000)]
        counts = np.array([draws.count(c) for c in captions])
        freqs = counts / 5000
        assert np.all(np.abs(freqs - 0.2) <= 0.02)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_deterministic_under_seed(self):
        captions = tuple(f"c{i}" for i in range(5))
        a = [sample_caption(captions, np.random.default_rng(7)) for _ in range(50)]
        b = [sample_caption(captions, np.random.default_rng(7)) for _ in range(50)]
        assert a == b


def write_manifest(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


class TestManifest:
    def test_load_groups_by_split(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(
            path,
            [
                {"audio_id": "a", "split": "train", "captions": {"en": ["a dog"], "fr": ["un chien"]}},
                {"audio_id": "b", "split": "train", "captions": {"en": ["a cat"]}},
                {"audio_id": "c", "split": "test", "captions": {"en": ["rain"]}},
            ],
        )
        manifests = load_manifests(path)
        assert set(manifests) == {"train", "test"}
        assert manifests["train"] == {
            "a": {Language.EN: ("a dog",), Language.FR: ("un chien",)},
            "b": {Language.EN: ("a cat",)},
        }
        assert list(manifests["train"]) == ["a", "b"]

    def test_duplicate_audio_id_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(
            path,
            [
                {"audio_id": "a", "split": "train", "captions": {"en": ["x"]}},
                {"audio_id": "a", "split": "train", "captions": {"en": ["y"]}},
            ],
        )
        with pytest.raises(ValidationError, match="failed validation") as err:
            load_manifests(path)
        assert any("duplicate" in item for item in err.value.items)

    def test_duplicate_audio_id_names_the_first_line(self, tmp_path):
        # each repeat names its own line and the line of the first record; the
        # same id in another split is no repeat
        path = tmp_path / "m.jsonl"
        write_manifest(
            path,
            [
                {"audio_id": "a", "split": "train", "captions": {"en": ["x"]}},
                {"audio_id": "b", "split": "train", "captions": {"en": ["y"]}},
                {"audio_id": "a", "split": "test", "captions": {"en": ["z"]}},
                {"audio_id": "a", "split": "train", "captions": {"en": ["w"]}},
                {"audio_id": "b", "split": "train", "captions": {"en": ["v"]}},
            ],
        )
        with pytest.raises(ValidationError) as err:
            load_manifests(path)
        assert err.value.items == [
            "line 4: duplicate audio_id 'a' in split 'train' repeats line 1",
            "line 5: duplicate audio_id 'b' in split 'train' repeats line 2",
        ]

    def test_unknown_language_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(path, [{"audio_id": "a", "split": "train", "captions": {"it": ["ciao"]}}])
        with pytest.raises(ValidationError) as err:
            load_manifests(path)
        assert err.value.items == ["line 1: unknown language code 'it' (known: en, fr, es, de)"]

    def test_repeated_languages_are_itemized_per_line(self, tmp_path):
        # codes are read as `Language.parse` reads them: a record once kept
        # only the last of its lists for one language
        path = tmp_path / "m.jsonl"
        write_manifest(
            path,
            [
                {"audio_id": "a", "split": "train", "captions": {"en": ["x"], "EN": ["y"], " en ": ["z"]}},
                {"audio_id": "b", "split": "train", "captions": {"xx": ["x"], "fr": ["y"], "FR": ["z"]}},
                {"audio_id": "c", "split": "train", "captions": {"en": ["x"], "fr": ["y"]}},
            ],
        )
        with pytest.raises(ValidationError, match="failed validation") as err:
            load_manifests(path)
        assert err.value.items == [
            "line 1: captions: 'en' is listed 3 times",
            "line 2: unknown language code 'xx' (known: en, fr, es, de)",
            "line 2: captions: 'fr' is listed 2 times",
        ]

    def test_bad_split_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(path, [{"audio_id": "a", "split": "dev", "captions": {"en": ["x"]}}])
        with pytest.raises(ValidationError):
            load_manifests(path)

    def test_empty_caption_lists_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(
            path,
            [
                {"audio_id": "a", "split": "train", "captions": {"en": []}},
                {"audio_id": "b", "split": "train", "captions": {}},
                {"audio_id": "c", "split": "train", "captions": {"en": ["x"]}},
            ],
        )
        with pytest.raises(ValidationError, match="failed validation") as err:
            load_manifests(path)
        assert err.value.items == [
            "line 1: captions[en] must be a non-empty list of strings",
            "line 2: captions must be a non-empty object",
        ]


class TestReadText:
    def test_text_and_digest_of_the_bytes_read(self, tmp_path):
        # newlines as Path.read_text gives them; the digest is of the raw bytes
        path = tmp_path / "m.jsonl"
        path.write_bytes("a\r\nb\rc\n\u00e9\u2028d".encode("utf-8"))
        digest = hashlib.sha256()
        assert read_text(path, "manifest", digest) == path.read_text(encoding="utf-8")
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("raw", [None, b"\xff\xfe"])
    def test_missing_or_undecodable_file_is_a_validation_error(self, tmp_path, raw):
        path = tmp_path / "m.jsonl"
        if raw is not None:
            path.write_bytes(raw)
        with pytest.raises(ValidationError, match="cannot read manifest"):
            read_text(path, "manifest", hashlib.sha256())

    def test_nul_byte_in_path_is_a_validation_error(self, tmp_path):
        # opening such a path raises ValueError, not OSError
        with pytest.raises(ValidationError, match="cannot read manifest"):
            read_text(tmp_path / "m\0.jsonl", "manifest", hashlib.sha256())


class TestJsonlObjects:
    # line breaks to str.splitlines that json.dumps(ensure_ascii=False) writes raw
    RAW_BREAKS = "\u2028\u2029\x85"

    @settings(max_examples=200, derandomize=True)
    @given(
        st.lists(
            st.dictionaries(
                st.text(alphabet=st.one_of(st.characters(), st.sampled_from(RAW_BREAKS)), max_size=8),
                st.text(alphabet=st.one_of(st.characters(), st.sampled_from(RAW_BREAKS + "\r\n")), max_size=12),
                max_size=3,
            ),
            max_size=5,
        )
    )
    def test_records_round_trip_one_per_line(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
        text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        path.write_bytes(text.encode("utf-8"))
        problems = []
        assert list(jsonl_objects(path, "records", problems)) == list(enumerate(records, start=1))
        assert problems == []


class TestComputeStats:
    def captions(self):
        return {
            "a": {Language.EN: ("a b c", "a b")},
            "b": {Language.EN: ("a b",), Language.FR: ("le chat",)},
        }

    def test_hand_counts(self):
        entries = {"a": {Language.EN: ("a b c", "a b")}}
        stats_ = compute_stats(entries, Language.EN, "train")
        assert stats_["avg_sentence_length"] == pytest.approx(2.5)
        assert stats_["word_types"] == 3

    def test_empty_language_gives_zeros(self):
        stats_ = compute_stats(self.captions(), Language.DE, "train")
        assert stats_["avg_sentence_length"] == 0.0
        assert stats_["word_types"] == 0

    def test_duplicate_caption_text_keeps_types(self):
        entries = {
            "a": {Language.EN: ("a b", "a b")},
            "b": {Language.EN: ("a b",)},
        }
        assert compute_stats(entries, Language.EN, "train")["word_types"] == 2

    def test_permutation_invariant(self):
        entries = {
            "a": {Language.EN: ("x y", "z")},
            "b": {Language.EN: ("w",)},
        }
        reordered = {k: entries[k] for k in reversed(list(entries))}
        s1 = compute_stats(entries, Language.EN, "train")
        s2 = compute_stats(reordered, Language.EN, "train")
        assert (s1["avg_sentence_length"], s1["word_types"]) == (s2["avg_sentence_length"], s2["word_types"])


class TestCorpusIndex:
    def test_missing_embedding_is_itemized(self, tmp_path):
        manifest_path = tmp_path / "m.jsonl"
        write_manifest(
            manifest_path,
            [
                {"audio_id": "a", "split": "train", "captions": {"en": ["x"]}},
                {"audio_id": "b", "split": "train", "captions": {"en": ["y"]}},
            ],
        )
        emb_dir = tmp_path / "emb"
        emb_dir.mkdir()
        write_embedding(emb_dir / "a.aemb", make_seq("a", frames=3, dim=4))
        with pytest.raises(ValidationError) as err:
            CorpusIndex.from_paths(manifest_path, emb_dir, "train", [Language.EN])
        assert any(item.startswith("b:") for item in err.value.items)

    def test_missing_declared_language_is_itemized(self, tmp_path):
        manifest_path = tmp_path / "m.jsonl"
        write_manifest(manifest_path, [{"audio_id": "a", "split": "train", "captions": {"en": ["x"]}}])
        emb_dir = tmp_path / "emb"
        emb_dir.mkdir()
        write_embedding(emb_dir / "a.aemb", make_seq("a", frames=3, dim=4))
        with pytest.raises(ValidationError) as err:
            CorpusIndex.from_paths(manifest_path, emb_dir, "train", [Language.EN, Language.FR])
        assert any("no fr captions" in item for item in err.value.items)

    def test_repeated_language_is_itemized(self, tmp_path):
        manifest_path = tmp_path / "m.jsonl"
        write_manifest(manifest_path, [{"audio_id": "a", "split": "train", "captions": {"en": ["x"]}}])
        emb_dir = tmp_path / "emb"
        emb_dir.mkdir()
        write_embedding(emb_dir / "a.aemb", make_seq("a", frames=3, dim=4))
        with pytest.raises(ValidationError) as err:
            CorpusIndex.from_paths(manifest_path, emb_dir, "train", [Language.EN, Language.EN])
        assert err.value.items == ["'en' is listed 2 times"]

    def test_inconsistent_widths_are_one_item_after_the_clip_problems(self, tmp_path):
        manifest_path = tmp_path / "m.jsonl"
        write_manifest(manifest_path, [
            {"audio_id": a, "split": "train", "captions": {"en": ["x"]}} for a in ("a", "b", "c")
        ])
        emb_dir = tmp_path / "emb"
        emb_dir.mkdir()
        write_embedding(emb_dir / "a.aemb", make_seq("a", frames=3, dim=4))
        write_embedding(emb_dir / "b.aemb", make_seq("b", frames=3, dim=5))
        with pytest.raises(ValidationError) as err:
            CorpusIndex.from_paths(manifest_path, emb_dir, "train", [Language.EN])
        assert err.value.items == ["c: missing embedding file c.aemb", "inconsistent embedding dims: [4, 5]"]

    def test_valid_corpus_loads(self, tmp_path):
        manifest_path = tmp_path / "m.jsonl"
        write_manifest(
            manifest_path,
            [{"audio_id": "a", "split": "train", "captions": {"en": ["x"], "fr": ["y"]}}],
        )
        emb_dir = tmp_path / "emb"
        emb_dir.mkdir()
        write_embedding(emb_dir / "a.aemb", make_seq("a", frames=3, dim=4))
        index = CorpusIndex.from_paths(manifest_path, emb_dir, "train", [Language.EN, Language.FR])
        assert index.audio_ids == ("a",)
