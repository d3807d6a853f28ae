import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from polycap.corpus import CorpusIndex
from polycap.decoding import DecodeConfig, DecodeResult, grouped_beam_search
from polycap.model import ModelConfig, MultilingualModel
from polycap.text import SPECIAL_TOKENS, Language, Vocabulary, build_vocabulary, tokenize


def word_vocab(words: list[str]) -> Vocabulary:
    return Vocabulary.from_tokens([*SPECIAL_TOKENS, *words])


def tiny_model_config(**overrides) -> ModelConfig:
    base = dict(
        d_in=6,
        d_model=8,
        n_layers=1,
        n_heads=2,
        d_ff=16,
        trunk_dropout=0.0,
        frontend_dropout=0.0,
        max_len=10,
    )
    base.update(overrides)
    return ModelConfig(**base)


def documented_meta(model: MultilingualModel) -> dict:
    """A model's checkpoint meta block as the README documents it."""
    specials = {"pad": 0, "bos": 1, "eos": 2, "unk": 3}
    vocabs = {lang.value: {"tokens": list(model.vocab(lang).tokens), "specials": specials} for lang in model.languages}
    return {"model_config": model.config.to_dict(), "languages": [lang.value for lang in model.languages], "vocabs": vocabs}


def splice_meta(raw: bytes, meta_bytes: bytes) -> bytes:
    """Checkpoint bytes `raw` with their JSON meta block replaced by
    `meta_bytes`: the version kept, the meta length set, and in version 2
    the zero padding after the tensor count refitted, so every record stays
    at a multiple of 8."""
    version, meta_len = struct.unpack_from("<II", raw, 4)
    align = 8 if version == 2 else 1
    count_end = 16 + meta_len
    records = raw[count_end + -count_end % align :]
    head = raw[:4] + struct.pack("<II", version, len(meta_bytes)) + meta_bytes + raw[count_end - 4 : count_end]
    return head + bytes(-len(head) % align) + records


def synthetic_caption(lang: Language, i: int) -> str:
    """Four distinct tokens, one unique marker per item, vocab <= 20 with specials."""
    fills = [f"{lang.value}f{j}" for j in range(6)]
    return " ".join([f"{lang.value}m{i}", fills[i % 6], fills[(i + 2) % 6], fills[(i + 4) % 6]])


def synthetic_corpus(
    languages: list[Language],
    n_items: int = 10,
    n_frames: int = 8,
    d_in: int = 16,
    seed: int = 42,
) -> tuple[CorpusIndex, dict[Language, Vocabulary]]:
    rng = np.random.default_rng(seed)
    entries = {}
    embeddings = {}
    for i in range(n_items):
        audio_id = f"clip{i:02d}"
        embeddings[audio_id] = rng.normal(size=(n_frames, d_in))
        entries[audio_id] = {lang: (synthetic_caption(lang, i),) for lang in languages}
    index = CorpusIndex(
        captions=entries,
        embeddings=embeddings,
        languages=tuple(languages),
    )
    vocabs = {
        lang: build_vocabulary([tokenize(synthetic_caption(lang, i)) for i in range(n_items)])
        for lang in languages
    }
    return index, vocabs


def beam_search(step_fn, vocab: Vocabulary, stopwords, cfg: DecodeConfig) -> DecodeResult:
    """One search: the one-group `grouped_beam_search` under a step_fn that
    maps a (k, t) prefix matrix to (k, vocab) log-probability rows."""
    return grouped_beam_search(lambda prefixes, _: [step_fn(prefixes[0])], [vocab], [stopwords], cfg)[0]


def run_epoch_pairs(trainer, epoch: int = 0):
    """`trainer.run_epoch(epoch)` and the (audio_id, language code) pair of
    every example in the batches it trained on, one per visit."""
    pairs = []
    train_batch = trainer._train_batch

    def spy(language, audio_ids, lr):
        pairs.extend((a, language.value) for a in audio_ids)
        return train_batch(language, audio_ids, lr)

    trainer._train_batch = spy
    try:
        return trainer.run_epoch(epoch), pairs
    finally:
        del trainer._train_batch


@pytest.fixture
def en_vocab() -> Vocabulary:
    return word_vocab([f"w{i}" for i in range(7)])  # size 11


@pytest.fixture
def tiny_model(en_vocab) -> MultilingualModel:
    return MultilingualModel(tiny_model_config(), {Language.EN: en_vocab}, seed=3)
