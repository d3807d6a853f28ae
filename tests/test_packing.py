"""The packed train step: with `lengths`, every row-wise layer runs on the
live target positions only. It must match the padded computation
(`lengths=None`) under the same dropout draws, up to summation order."""

import numpy as np
import pytest

from conftest import tiny_model_config, word_vocab
from oracles import finite_difference_grads, relative_error
from polycap.autodiff import Tensor
from polycap.errors import ValidationError
from polycap.model import MixupDraw, MultilingualModel, live_positions
from polycap.text import Language
from polycap.training import loss_lengths, smoothed_cross_entropy

VOCAB = word_vocab([f"w{i}" for i in range(9)])  # 13 ids: pad 0, bos 1, eos 2, unk 3
MIXUPS = {"none": None, "lambda_0": 0.0, "lambda_1": 1.0, "lambda_drawn": "drawn"}
TOL = 1e-12


def batch_of(rng, n_words, frames=5, d_in=6):
    """Decoder inputs, targets, audio and frame mask of captions of n_words
    random words each, padded to the longest; the audio has padded frames."""
    b, t = len(n_words), max(n_words) + 1
    ids = np.zeros((b, t + 1), dtype=np.int64)
    for i, n in enumerate(n_words):
        ids[i, : n + 2] = [1, *rng.integers(4, VOCAB.size, size=n), 2]
    audio = rng.normal(size=(b, frames, d_in))
    frame_mask = np.ones((b, frames), dtype=bool)
    frame_mask[1, 2:] = False
    frame_mask[-1, 3:] = False
    return ids[:, :-1], ids[:, 1:], audio, frame_mask


def random_batch(rng, b=6, t=7):
    """A batch of b random-length captions, one of which fills the width t."""
    n_words = rng.integers(0, t, size=b)
    n_words[rng.integers(b)] = t - 1
    return batch_of(rng, n_words)


def draw(rng, name: str, b: int) -> MixupDraw | None:
    lam = MIXUPS[name]
    if lam is None:
        return None
    return MixupDraw(lam=float(rng.beta(0.4, 0.4)) if lam == "drawn" else lam, partner=rng.permutation(b))


def make_model(seed: int = 5) -> MultilingualModel:
    cfg = tiny_model_config(n_layers=2, trunk_dropout=0.3, frontend_dropout=0.2)
    return MultilingualModel(cfg, {Language.EN: VOCAB}, seed=seed)


def train_step(model, batch, mixup, lengths, dropout_seed):
    """Training-mode loss and every parameter's gradient."""
    dec_in, targets, audio, frame_mask = batch
    logits = model.forward(
        audio, dec_in, Language.EN, frame_mask=frame_mask,
        rng=np.random.default_rng(dropout_seed), mixup=mixup, lengths=lengths,
    )  # fmt: skip
    loss = smoothed_cross_entropy(logits, targets, 0.1, VOCAB.pad_id, mixup, lengths)
    params = model.named_parameters()
    for p in params.values():
        p.grad = None
    loss.backward()
    return loss.item(), {name: p.grad for name, p in params.items()}


class TestPackedEqualsPadded:
    @pytest.mark.parametrize("trial", range(4))
    @pytest.mark.parametrize("mixup_name", sorted(MIXUPS))
    def test_loss_and_gradients(self, mixup_name, trial):
        rng = np.random.default_rng(100 + trial)
        model = make_model()
        batch = random_batch(rng)
        mixup = draw(rng, mixup_name, len(batch[0]))
        lengths = loss_lengths(batch[1], VOCAB.pad_id, mixup)
        assert lengths.sum() < batch[1].size  # some positions are dead
        padded_loss, padded = train_step(model, batch, mixup, None, dropout_seed=trial)
        packed_loss, packed = train_step(model, batch, mixup, lengths, dropout_seed=trial)

        assert abs(packed_loss - padded_loss) <= TOL * abs(padded_loss)
        for name, want in padded.items():
            got = packed[name]
            if name.endswith("wk.bias"):
                # softmax is shift-invariant, so the key bias gets a zero
                # gradient in exact arithmetic: both paths hold rounding
                # noise, bounded by the layer's largest gradient entry
                layer = name[: -len("wk.bias")]
                scale = max(np.abs(g).max() for n, g in padded.items() if n.startswith(layer))
            else:
                scale = np.abs(want).max()
            assert np.abs(got - want).max() <= TOL * scale, name

    def test_eval_logits_are_the_live_rows_of_the_padded_logits(self):
        rng = np.random.default_rng(7)
        model = make_model()
        dec_in, targets, audio, frame_mask = random_batch(rng)
        lengths = loss_lengths(targets, VOCAB.pad_id)
        padded = model.forward(audio, dec_in, Language.EN, frame_mask=frame_mask).data
        packed = model.forward(audio, dec_in, Language.EN, frame_mask=frame_mask, lengths=lengths).data
        live = live_positions(lengths, dec_in.shape[1])
        assert packed.shape == (lengths.sum(), VOCAB.size)
        assert np.abs(packed - padded[live]).max() <= TOL * np.abs(padded).max()

    def test_packed_path_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        cfg = tiny_model_config(trunk_dropout=0.3, frontend_dropout=0.2)
        model = MultilingualModel(cfg, {Language.EN: VOCAB}, seed=2)
        batch = batch_of(rng, [1, 2, 0, 4])
        mixup = MixupDraw(lam=0.37, partner=np.array([1, 0, 2, 3]))
        lengths = loss_lengths(batch[1], VOCAB.pad_id, mixup)
        assert lengths.tolist() == [3, 3, 1, 5]

        def loss_value():
            dec_in, targets, audio, frame_mask = batch
            logits = model.forward(
                audio, dec_in, Language.EN, frame_mask=frame_mask,
                rng=np.random.default_rng(4), mixup=mixup, lengths=lengths,
            )  # fmt: skip
            return smoothed_cross_entropy(logits, targets, 0.1, VOCAB.pad_id, mixup, lengths)

        params = model.named_parameters()
        loss_value().backward()
        analytic = {n: p.grad.copy() for n, p in params.items()}
        numeric = finite_difference_grads(lambda: loss_value().item(), params)
        worst = {n: relative_error(analytic[n], numeric[n]) for n in params}
        offenders = {n: e for n, e in worst.items() if e >= 1e-4}
        assert not offenders, offenders


class TestLossLengths:
    TARGETS = np.array([[5, 6, 2, 0, 0], [7, 2, 0, 0, 0], [4, 5, 6, 7, 2]])

    def test_without_mixup_each_row_reaches_its_own_targets(self):
        assert loss_lengths(self.TARGETS, 0).tolist() == [3, 2, 5]

    @pytest.mark.parametrize(
        "lam, want", [(1.0, [3, 2, 5]), (0.0, [2, 5, 3]), (0.5, [3, 5, 5])], ids=["lambda_1", "lambda_0", "mixed"]
    )
    def test_mixup_reaches_the_sets_with_nonzero_share(self, lam, want):
        mixup = MixupDraw(lam=lam, partner=np.array([1, 2, 0]))
        assert loss_lengths(self.TARGETS, 0, mixup).tolist() == want

    def test_lengths_that_drop_a_weighted_target_are_rejected(self):
        logits = Tensor(np.zeros((8, VOCAB.size)))
        with pytest.raises(ValidationError, match="leave out target positions"):
            smoothed_cross_entropy(logits, self.TARGETS, 0.1, 0, lengths=np.array([3, 1, 4]))


class TestLivePositions:
    def test_prefix_mask(self):
        assert live_positions(np.array([2, 0, 3]), 3).tolist() == [
            [True, True, False], [False, False, False], [True, True, True],
        ]  # fmt: skip

    @pytest.mark.parametrize(
        "lengths", [np.array([4, 1]), np.array([-1, 2]), np.array([[1, 2]]), np.array([1.0, 2.0])],
        ids=["too_long", "negative", "two_d", "float"],
    )  # fmt: skip
    def test_bad_lengths_are_validation_errors(self, lengths):
        with pytest.raises(ValidationError):
            live_positions(lengths, 3)

    def test_forward_rejects_lengths_for_another_batch_size(self):
        model = make_model()
        with pytest.raises(ValidationError, match="lengths for a batch"):
            model.forward(np.zeros((2, 3, 6)), np.ones((2, 4), dtype=np.int64), Language.EN, lengths=np.array([4]))
