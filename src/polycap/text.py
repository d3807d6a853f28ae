"""Language registry, tokenization, vocabularies and stopword lists.

All four target languages share one tokenizer: lowercase, Unicode-aware,
punctuation stripped except intra-word hyphens, apostrophes split (so French
elisions like "l'eau" become two tokens). Vocabularies are word-level with
four special tokens pinned to ids 0..3.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Iterable, Sequence

from polycap.errors import ValidationError

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"
SPECIAL_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)


class Language(str, Enum):
    """The four supported caption languages; member order is head order."""

    EN = "en"
    FR = "fr"
    ES = "es"
    DE = "de"

    @classmethod
    def parse(cls, code: str) -> "Language":
        lang = _BY_CODE.get(code.strip().lower())
        if lang is None:
            raise ValidationError(f"unknown language code {code!r} (known: {', '.join(_BY_CODE)})")
        return lang


_BY_CODE = {lang.value: lang for lang in Language}


def repeated_languages(languages: Sequence[Language]) -> list[str]:
    """One report item per language listed more than once."""
    counts = Counter(languages)
    return [f"{lang.value!r} is listed {n} times" for lang, n in counts.items() if n > 1]


# Word tokens: runs of word characters, optionally joined by internal hyphens.
_TOKEN_RE = re.compile(r"\w+(?:-\w+)*", re.UNICODE)
_APOSTROPHES = "'’ʼ"  # each splits a word; U+02BC is a letter, so `\w` alone would keep it


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens: the matches of `_TOKEN_RE` once
    each apostrophe is a space, so punctuation is stripped and intra-word
    hyphens are kept. No token spans whitespace, and a word of `isalnum`
    characters (each a `\\w` but `_`) is one whole token, so only the other
    words reach the regex. Empty input gives an empty list.
    """
    lowered = text.lower()
    for ch in _APOSTROPHES:
        if ch in lowered:
            lowered = lowered.replace(ch, " ")
    tokens = []
    for word in lowered.split():
        if word.isalnum():
            tokens.append(word)
        else:
            tokens += _TOKEN_RE.findall(word)
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """Dense token <-> id map with specials pinned at ids 0..3; `index` is
    derived from `tokens`."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False)

    pad_id = 0
    bos_id = 1
    eos_id = 2
    unk_id = 3

    def __post_init__(self):
        not_str = [f"token {i}: {t!r}" for i, t in enumerate(self.tokens) if not isinstance(t, str)]
        if not_str:
            raise ValidationError("vocabulary tokens must be strings", items=not_str)
        if tuple(self.tokens[:4]) != SPECIAL_TOKENS:
            raise ValidationError("vocabulary must start with PAD/BOS/EOS/UNK specials")
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tokens)})
        if len(self.index) != len(self.tokens):
            raise ValidationError("vocabulary contains duplicate tokens")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def word_ids(self) -> range:
        """Ids of ordinary word tokens (everything past the specials)."""
        return range(4, len(self.tokens))

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        return cls(tuple(tokens))

    def encode(self, caption: Sequence[str]) -> list[int]:
        """Map tokens to ids, wrap with BOS..EOS; unknown tokens become UNK."""
        ids = [self.index.get(tok, self.unk_id) for tok in caption]
        return [self.bos_id, *ids, self.eos_id]

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Inverse of encode for in-vocabulary tokens; specials are stripped."""
        return [self.tokens[i] for i in ids if i not in range(len(SPECIAL_TOKENS))]

    def to_doc(self) -> dict:
        """The vocabulary's JSON document: its tokens and special ids."""
        return {
            "tokens": list(self.tokens),
            "specials": {"pad": self.pad_id, "bos": self.bos_id, "eos": self.eos_id, "unk": self.unk_id},
        }

    @classmethod
    def from_doc(cls, doc) -> "Vocabulary":
        """The vocabulary a parsed JSON document (see `to_doc`) describes."""
        try:
            tokens = doc["tokens"]
            specials = doc["specials"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed vocabulary JSON: {exc}") from exc
        expected = {"pad": 0, "bos": 1, "eos": 2, "unk": 3}
        if specials != expected:
            raise ValidationError(f"vocabulary specials must be {expected}, got {specials}")
        return cls.from_tokens(tokens)


def build_vocabulary(corpus: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Build a vocabulary from tokenized captions.

    Keeps every token with corpus frequency >= min_count, ordered by frequency
    descending then lexicographically, after the four specials. Deterministic
    for a given (corpus, min_count).
    """
    if min_count < 1:
        raise ValidationError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    for caption in corpus:
        counts.update(caption)
    # a stable sort by count keeps equal counts in the token order of the first sort
    kept = sorted(sorted(tok for tok, c in counts.items() if c >= min_count), key=counts.__getitem__, reverse=True)
    return Vocabulary.from_tokens([*SPECIAL_TOKENS, *kept])


@dataclass(frozen=True)
class StopwordList:
    """Per-language set of lowercase stopwords, exempt from the no-repeat rule."""

    language: Language
    words: frozenset[str]

    def __post_init__(self):
        if not self.words:
            raise ValidationError(f"stopword list for {self.language.value} is empty")
        bad = [w for w in self.words if w != w.lower()]
        if bad:
            raise ValidationError(f"stopwords must be lowercase: {bad[:5]}")


def load_stopwords(language: Language) -> StopwordList:
    """Load the packaged stopword list for one language (one word per line)."""
    ref = resources.files("polycap").joinpath(f"data/stopwords/{language.value}.txt")
    words = frozenset(
        line.strip() for line in ref.read_text(encoding="utf-8").splitlines() if line.strip()
    )
    return StopwordList(language=language, words=words)
