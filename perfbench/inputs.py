"""Deterministic benchmark inputs: vocabularies, clips, captions and files.

Everything the program reads is generated here from the workload seed, so the
same seed gives byte-identical inputs. Vocabularies and model weights do not
depend on the seed; clips, captions and candidates do.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polycap import corpus
from polycap.model import ModelConfig
from polycap.text import SPECIAL_TOKENS, Language, Vocabulary, load_stopwords

LANGUAGES = (Language.EN, Language.FR, Language.ES, Language.DE)
MODEL_SEED = 0  # the checkpoint is fixed; only the data follows --seed
ZIPF = 1.0  # word-rank exponent; the stopwords lead each list, so they come out most frequent


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark mode (paper default or tiny smoke)."""

    model: ModelConfig
    vocab_sizes: dict  # Language -> size including the four specials
    frames: int
    short_frames: tuple[int, int]  # inclusive range for the shorter minority
    short_share: float  # share of clips that are shorter (frame masks run)
    words: tuple[int, int]  # inclusive caption length range
    train_clips: int
    batch_size: int
    beam_size: int
    max_len: int
    caption_clips: int
    eval_clips: int
    refs_per_clip: int
    oracle_items: int  # CIDEr-D items per language checked against the oracle
    setup_repeats: int = 5

    def describe(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "vocab_sizes": {l.value: v for l, v in self.vocab_sizes.items()},
            "frames": self.frames,
            "short_frames": list(self.short_frames),
            "short_share": self.short_share,
            "caption_words": list(self.words),
            "train_clips": self.train_clips,
            "batch_size": self.batch_size,
            "beam_size": self.beam_size,
            "max_len": self.max_len,
            "caption_clips": self.caption_clips,
            "eval_clips": self.eval_clips,
            "refs_per_clip": self.refs_per_clip,
            "oracle_items": self.oracle_items,
            "setup_repeats": self.setup_repeats,
        }


# The paper default: ModelConfig() and the `polycap params` vocabulary sizes.
DEFAULT = Scale(
    model=ModelConfig(),
    vocab_sizes={Language.EN: 4861, Language.FR: 5797, Language.ES: 5889, Language.DE: 9391},
    frames=31,
    short_frames=(20, 30),
    short_share=0.25,
    words=(6, 14),
    train_clips=32,
    batch_size=32,
    beam_size=4,
    max_len=20,
    caption_clips=4,
    eval_clips=200,
    refs_per_clip=5,
    oracle_items=6,
)

SMOKE = Scale(
    model=ModelConfig(d_in=16, d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=16),
    vocab_sizes={Language.EN: 80, Language.FR: 90, Language.ES: 90, Language.DE: 90},
    frames=8,
    short_frames=(5, 7),
    short_share=0.25,
    words=(3, 6),
    train_clips=8,
    batch_size=4,
    beam_size=2,
    max_len=5,
    caption_clips=2,
    eval_clips=6,
    refs_per_clip=5,
    oracle_items=3,
    setup_repeats=2,
)


def vocabularies(scale: Scale) -> dict[Language, Vocabulary]:
    """Per-language vocabularies: specials, the packaged stopwords (most
    frequent), then synthetic words up to the configured size."""
    out = {}
    for lang in LANGUAGES:
        stop = sorted(load_stopwords(lang).words)
        n_words = scale.vocab_sizes[lang] - len(SPECIAL_TOKENS) - len(stop)
        if n_words < 1:
            raise ValueError(f"vocabulary size for {lang.value} leaves no room past the stopwords")
        words = stop + [f"{lang.value}{i:05d}" for i in range(n_words)]
        out[lang] = Vocabulary.from_tokens([*SPECIAL_TOKENS, *words])
    return out


class Generator:
    """Seeded source of clips and captions over fixed vocabularies."""

    def __init__(self, scale: Scale, seed: int, vocabs: dict[Language, Vocabulary]):
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        self.words = {lang: v.tokens[len(SPECIAL_TOKENS) :] for lang, v in vocabs.items()}
        self.cdf = {}
        for lang, words in self.words.items():
            p = np.cumsum(1.0 / np.arange(1, len(words) + 1) ** ZIPF)
            self.cdf[lang] = p / p[-1]

    def _draw(self, lang: Language, k: int) -> list[str]:
        picks = np.searchsorted(self.cdf[lang], self.rng.random(k), side="right")
        return [self.words[lang][min(i, len(self.words[lang]) - 1)] for i in picks]

    def clips(self, n: int) -> list[np.ndarray]:
        """n float32 (frames, d_in) clips; a fixed share of them is shorter."""
        s = self.scale
        n_short = int(round(n * s.short_share))
        short = set(self.rng.choice(n, size=n_short, replace=False).tolist()) if n_short else set()
        out = []
        for i in range(n):
            frames = int(self.rng.integers(s.short_frames[0], s.short_frames[1] + 1)) if i in short else s.frames
            out.append(self.rng.standard_normal((frames, s.model.d_in)).astype(np.float32))
        return out

    def caption(self, lang: Language, longest: bool = False) -> str:
        lo, hi = self.scale.words
        k = hi if longest else int(self.rng.integers(lo, hi + 1))
        return " ".join(self._draw(lang, k))

    def candidate(self, lang: Language, reference: str) -> str:
        """A system output derived from a reference: some words swapped or dropped."""
        out = []
        for word in reference.split():
            r = self.rng.random()
            if r < 0.15:
                continue
            if r < 0.4:
                word = self._draw(lang, 1)[0]
            out.append(word)
        return " ".join(out or reference.split()[:1])


def write_clips(directory: Path, ids: list[str], clips: list[np.ndarray]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for audio_id, data in zip(ids, clips):
        corpus.write_embedding(directory / f"{audio_id}.aemb", corpus.EmbeddingSequence(audio_id, data))


def write_manifest(path: Path, split: str, captions: dict[str, dict[Language, list[str]]]) -> None:
    lines = [
        json.dumps(
            {"audio_id": a, "split": split, "captions": {l.value: c for l, c in caps.items()}},
            ensure_ascii=False,
            sort_keys=True,
        )
        for a, caps in captions.items()
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def digest_files(paths: list[Path]) -> str:
    """SHA-256 over the sorted (name, content) pairs of the generated files."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode("utf-8"))
        h.update(p.read_bytes())
    return h.hexdigest()
