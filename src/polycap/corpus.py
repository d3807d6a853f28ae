"""Embedding-file and caption-manifest ingestion.

Two external formats live here:

* AEMB embedding files: magic ``AEMB``, u32 version=1, u32 dim, u32 frames,
  then frames*dim little-endian float32 values, row-major by frame.
* Caption manifests: JSON Lines, one object per audio,
  ``{"audio_id": ..., "split": ..., "captions": {"en": [...], ...}}``.

Loading is read-only; a loaded split is plain data, `Captions`; all
randomness is driven by caller-owned numpy Generators.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from polycap.errors import ValidationError
from polycap.files import atomic_write, parse_json
from polycap.text import Language, repeated_languages, tokenize

AEMB_MAGIC = b"AEMB"
AEMB_VERSION = 1

SPLITS = ("train", "val", "test")

# A split: per audio id, each language's non-empty tuple of captions (`load_manifests` rejects an empty list)
Captions = dict[str, dict[Language, tuple[str, ...]]]


class EmbeddingFormatError(ValidationError):
    """A malformed or unreadable AEMB file; the message names the path and
    the reason."""


@dataclass(frozen=True)
class EmbeddingSequence:
    """A precomputed audio-embedding matrix, frames x dim, float32."""

    audio_id: str
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ValidationError(f"{self.audio_id}: embedding data must be 2-D")
        if self.frames < 1 or self.dim < 1:
            raise ValidationError(f"{self.audio_id}: empty embedding matrix")

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def write_embedding(path: str | Path, seq: EmbeddingSequence) -> None:
    """Serialize an embedding sequence to the AEMB binary format."""
    data = np.ascontiguousarray(seq.data, dtype="<f4")
    with atomic_write(path, binary=True) as f:
        f.write(AEMB_MAGIC + struct.pack("<III", AEMB_VERSION, seq.dim, seq.frames))
        f.write(memoryview(data).cast("B"))


# Bytes asked of one read: a header's claimed size is not allocated before
# the file has shown that many bytes.
READ_CHUNK = 1 << 24


def _read_at_most(f, n: int) -> bytes:
    """Up to `n` bytes of `f`, fewer only at end of file."""
    chunks = []
    while n > 0 and (chunk := f.read(min(n, READ_CHUNK))):
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _header_shape(path: Path, header: bytes) -> tuple[int, int]:
    """(frames, dim) of a valid AEMB header read from `path`."""
    if len(header) < 16:
        raise EmbeddingFormatError(f"{path}: file shorter than the 16-byte AEMB header")
    if header[:4] != AEMB_MAGIC:
        raise EmbeddingFormatError(f"{path}: bad magic {header[:4]!r}, expected {AEMB_MAGIC!r}")
    version, dim, frames = struct.unpack("<III", header[4:16])
    if version != AEMB_VERSION:
        raise EmbeddingFormatError(f"{path}: unsupported version {version}")
    if dim < 1 or frames < 1:
        raise EmbeddingFormatError(f"{path}: invalid shape {frames}x{dim} in header")
    return frames, dim


def load_embedding(path: str | Path, digest=None) -> EmbeddingSequence:
    """Parse an AEMB file bit-exactly, validating header and payload; the
    sequence is named by the file's stem. It reads the 16-byte header, then
    the 4*dim*frames payload bytes the header implies, then one byte to find
    end of file, so a file that never ends (a link to `/dev/zero`, say) is
    refused, not read whole. `digest`, a hashlib object, is fed the bytes
    read, as `load_checkpoint` does."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            header = f.read(16)
            frames, dim = _header_shape(path, header)
            expected = 4 * dim * frames
            payload = _read_at_most(f, expected)
            extra = f.read(1)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise EmbeddingFormatError(f"{path}: cannot read embedding file ({reason})") from exc
    if digest is not None:
        digest.update(header)
        digest.update(payload)
        digest.update(extra)
    if len(payload) != expected or extra:
        found = len(payload) if len(payload) < expected else f"more than {expected}"
        raise EmbeddingFormatError(f"{path}: payload length mismatch, header implies {expected} bytes, found {found}")
    data = np.frombuffer(payload, dtype="<f4").reshape(frames, dim)
    if not np.isfinite(data).all():
        raise EmbeddingFormatError(f"{path}: embedding contains non-finite values")
    return EmbeddingSequence(audio_id=path.stem, data=data)


def clip_name(audio_id: str) -> str:
    """The name of an audio's AEMB file: `<audio_id>.aemb`."""
    return f"{audio_id}.aemb"


def clip_path(embeddings_dir: str | Path, audio_id: str) -> Path:
    """An audio's AEMB file in `embeddings_dir`."""
    return Path(embeddings_dir) / clip_name(audio_id)


def clip_ids(embeddings_dir: str | Path) -> list[str]:
    """The audio id of every AEMB file in `embeddings_dir`, sorted."""
    return sorted(p.stem for p in Path(embeddings_dir).glob(clip_name("*")))


def read_clip(
    embeddings_dir: str | Path, audio_id: str, digests: dict | None = None, d_in: int | None = None
) -> np.ndarray:
    """An audio's (frames, dim) matrix from its `clip_path`: the one judge of a clip. A file that is
    absent or cannot be read as AEMB, or, given `d_in`, a clip of another width is a ValidationError
    whose message is the clip's report item. `digests`, if given, gains a SHA-256 of the bytes read,
    by `clip_name`."""
    path = clip_path(embeddings_dir, audio_id)
    digest = None
    if digests is not None:  # a fresh hash: train and val splits may share a clip
        digest = digests[path.name] = hashlib.sha256()
    try:
        data = load_embedding(path, digest).data
    except EmbeddingFormatError as exc:
        raise ValidationError(exc.message if path.exists() else f"missing embedding file {path.name}") from exc
    if d_in is not None and data.shape[1] != d_in:
        raise ValidationError(f"embedding dim {data.shape[1]} does not match model d_in {d_in}")
    return data


def read_clips(
    embeddings_dir: str | Path, audio_ids: Iterable[str], problems: dict,
    digests: dict | None = None, d_in: int | None = None,
) -> Iterator[tuple[str, np.ndarray]]:
    """(audio id, matrix) of each clip `read_clip` accepts, one at a time, so a caller keeps only
    what it needs; `problems` gains the report item of each clip it refused, by audio id."""
    for audio_id in audio_ids:
        try:
            clip = read_clip(embeddings_dir, audio_id, digests, d_in)
        except ValidationError as exc:
            problems[audio_id] = exc.message
        else:
            yield audio_id, clip


def read_split(
    split: str, captions: Captions, embeddings_dir: str | Path, languages: Sequence[Language],
    digests: dict | None = None, d_in: int | None = None,
) -> Iterator[tuple[str, np.ndarray]]:
    """The clips of a split by `read_clips`; once the last is read, the split is validated (`_check_split`)."""
    widths, problems = set(), {}
    for audio_id, clip in read_clips(embeddings_dir, captions, problems, digests, d_in):
        widths.add(clip.shape[1])
        yield audio_id, clip
    _check_split(split, captions, widths, languages, problems)


def sample_caption(captions: tuple[str, ...], rng: np.random.Generator) -> str:
    """Draw one caption uniformly at random; a single caption draws nothing."""
    if len(captions) == 1:
        return captions[0]
    return captions[int(rng.integers(len(captions)))]


def read_text(path: str | Path, what: str, digest=None) -> str:
    """A UTF-8 input file's text, newlines as `Path.read_text` gives them, its bytes fed to
    `digest`, a hashlib object, if given; a missing or undecodable file is a ValidationError."""
    try:
        raw = Path(path).read_bytes()
        text = raw.decode("utf-8")
    except (OSError, ValueError) as exc:  # ValueError: undecodable, or a NUL byte in the path
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    if digest is not None:
        digest.update(raw)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def jsonl_objects(path: Path, what: str, problems: list[str], digest=None) -> Iterator[tuple[int, dict]]:
    """(line number, object) of each non-blank line of a JSON-Lines file read by `read_text`, split at "\n"
    alone (a JSON string may hold U+2028 raw); a line that is no JSON object, or repeats a key, is in `problems`."""
    for lineno, line in enumerate(read_text(path, what, digest).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, repeated = parse_json(line)
        except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
            problems.append(f"line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})")
            continue
        problems.extend(f"line {lineno}: {item}" for item in repeated)
        if not isinstance(obj, dict):
            problems.append(f"line {lineno}: not a JSON object")
        elif not repeated:
            yield lineno, obj


def load_manifests(path: str | Path, digest=None) -> dict[str, Captions]:
    """Read a JSON-Lines manifest, its bytes fed to `digest`, into the captions of each split.

    Fails fast on duplicate audio ids within a split, unknown languages,
    unknown splits and empty caption lists.
    """
    path = Path(path)
    per_split: dict[str, Captions] = {}
    first_line: dict[tuple[str, str], int] = {}
    problems: list[str] = []
    for lineno, obj in jsonl_objects(path, "manifest", problems, digest):
        audio_id = obj.get("audio_id")
        split = obj.get("split")
        captions = obj.get("captions")
        if not isinstance(audio_id, str) or not audio_id:
            problems.append(f"line {lineno}: missing audio_id")
            continue
        if split not in SPLITS:
            problems.append(f"line {lineno}: unknown split {split!r}")
            continue
        if not isinstance(captions, dict) or not captions:
            problems.append(f"line {lineno}: captions must be a non-empty object")
            continue
        entry: dict[Language, tuple[str, ...]] = {}
        for code, caps in captions.items():
            try:
                lang = Language.parse(code)
            except ValidationError:
                problems.append(f"line {lineno}: unknown language {code!r}")
                continue
            if not isinstance(caps, list) or not caps or not all(isinstance(c, str) and c for c in caps):
                problems.append(f"line {lineno}: captions[{code}] must be a non-empty list of strings")
                continue
            entry[lang] = tuple(caps)
        first = first_line.setdefault((split, audio_id), lineno)
        if first != lineno:
            problems.append(
                f"line {lineno}: duplicate audio_id {audio_id!r} in split {split!r} repeats line {first}"
            )
            continue
        if entry:
            per_split.setdefault(split, {})[audio_id] = entry
    if problems:
        raise ValidationError(f"manifest {path} failed validation", items=problems)
    return per_split


def select_split(manifests: Mapping[str, Captions], split: str, source: str | Path) -> Captions:
    """The captions of one split; a split absent from `source` is an error."""
    if split not in manifests:
        raise ValidationError(f"split {split!r} not present in {source}")
    return manifests[split]


def load_split(path: str | Path, split: str, digest=None) -> Captions:
    """The captions of one split of the file at `path` (hashed into `digest`, see `read_text`)."""
    return select_split(load_manifests(path, digest), split, path)


def compute_stats(captions: Captions, language: Language, split: str) -> dict:
    """One `stats.json` row, Table-1 style, over the captions of `split`: `language`
    (its code), `split`, `avg_sentence_length` (mean caption length in tokens),
    `word_types` (unique tokens) and `n_captions`."""
    lengths: list[int] = []
    types: set[str] = set()
    for caps in captions.values():
        for caption in caps.get(language, ()):
            toks = tokenize(caption)
            lengths.append(len(toks))
            types.update(toks)
    return {
        "language": language.value,
        "split": split,
        "avg_sentence_length": float(np.mean(lengths)) if lengths else 0.0,
        "word_types": len(types),
        "n_captions": len(lengths),
    }


@dataclass(frozen=True)
class CorpusIndex:
    """A split's captions plus in-memory embeddings, validated by `from_manifest`."""

    captions: Captions = field(repr=False)
    embeddings: dict[str, np.ndarray] = field(repr=False)
    languages: tuple[Language, ...]

    @property
    def audio_ids(self) -> tuple[str, ...]:
        return tuple(self.captions)

    @classmethod
    def from_paths(
        cls,
        manifest_path: str | Path,
        embeddings_dir: str | Path,
        split: str,
        languages: Sequence[Language],
    ) -> "CorpusIndex":
        return cls.from_manifest(split, load_split(manifest_path, split), embeddings_dir, languages)

    @classmethod
    def from_manifest(
        cls,
        split: str,
        captions: Captions,
        embeddings_dir: str | Path,
        languages: Sequence[Language],
        digests: dict | None = None,
        d_in: int | None = None,
    ) -> "CorpusIndex":
        """An index over an already loaded split, reading (and hashing) its embeddings by `read_split`."""
        embeddings = dict(read_split(split, captions, embeddings_dir, languages, digests, d_in))
        return cls(captions=captions, embeddings=embeddings, languages=tuple(languages))


def _check_split(
    split: str, captions: Captions, widths: set[int], languages: Sequence[Language], clip_problems: Mapping[str, str]
) -> None:
    """Raise one itemized ValidationError for every problem of a split: each
    audio's clip problem (from `read_clip`), each missing caption language,
    no declared or repeated languages and inconsistent clip widths."""
    problems = repeated_languages(languages) if languages else ["a corpus index needs at least one declared language"]
    for audio_id, caps in captions.items():
        if audio_id in clip_problems:
            problems.append(f"{audio_id}: {clip_problems[audio_id]}")
        for lang in languages:
            if lang not in caps:
                problems.append(f"{audio_id}: no {lang.value} captions")
    if len(widths) > 1:
        problems.append(f"inconsistent embedding dims: {sorted(widths)}")
    if problems:
        raise ValidationError(f"corpus validation failed for split {split!r}", items=problems)
