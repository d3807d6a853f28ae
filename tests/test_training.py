import gc
import json
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

import oracles
from conftest import run_epoch_pairs, synthetic_corpus, tiny_model_config
from polycap import training
from polycap.autodiff import Tensor
from polycap.errors import RuntimeFailure, ValidationError, config_from_json
from polycap.model import MixupDraw, ModelConfig, MultilingualModel
from polycap.corpus import CorpusIndex
from polycap.text import Language, tokenize
from polycap.training import (
    ADAM_BLOCK,
    AdamW,
    SpecAugmentConfig,
    TrainConfig,
    Trainer,
    cosine_lr,
    draw_mixup,
    smoothed_cross_entropy,
    spec_mask,
)


class TestSmoothedCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        # logits putting ~all mass on the target; eps=0
        targets = np.array([[1, 2]])
        logits_data = np.full((1, 2, 4), -1e9)
        logits_data[0, 0, 1] = 0.0
        logits_data[0, 1, 2] = 0.0
        loss = smoothed_cross_entropy(Tensor(logits_data), targets, 0.0, pad_id=0)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
    def test_uniform_logits_give_log_vocab(self, eps):
        vocab = 7
        logits = Tensor(np.zeros((2, 3, vocab)))
        targets = np.array([[1, 2, 3], [4, 5, 6]])
        loss = smoothed_cross_entropy(logits, targets, eps, pad_id=0)
        assert loss.item() == pytest.approx(math.log(vocab), rel=1e-12)

    def test_hand_computed_value(self):
        # frozen from an independent by-hand computation: two positions,
        # rows [[2,0,-1,.5],[.5,1.5,-.5,0]], targets [1,2], eps=0.1, V=4
        logits = Tensor(np.array([[[2.0, 0.0, -1.0, 0.5], [0.5, 1.5, -0.5, 0.0]]]))
        targets = np.array([[1, 2]])
        loss = smoothed_cross_entropy(logits, targets, 0.1, pad_id=0)
        assert loss.item() == pytest.approx(2.3608446528318643, rel=1e-12)

    def test_pad_positions_excluded(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(1, 3, 5))
        with_pad = smoothed_cross_entropy(Tensor(data), np.array([[2, 3, 0]]), 0.1, pad_id=0)
        trimmed = smoothed_cross_entropy(Tensor(data[:, :2]), np.array([[2, 3]]), 0.1, pad_id=0)
        assert with_pad.item() == pytest.approx(trimmed.item(), rel=1e-12)

    def test_all_pad_batch_errors(self):
        with pytest.raises(ValidationError):
            smoothed_cross_entropy(Tensor(np.zeros((1, 2, 4))), np.zeros((1, 2), dtype=int), 0.1, 0)

    @pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5])
    def test_eps_outside_0_1_errors(self, eps):
        with pytest.raises(ValidationError, match=rf"^eps={eps} outside \[0, 1\)$"):
            smoothed_cross_entropy(Tensor(np.zeros((1, 2, 4))), np.array([[1, 2]]), eps, pad_id=0)


    @staticmethod
    def _value_and_grad(loss_fn, data):
        logits = Tensor(data, requires_grad=True)
        loss = loss_fn(logits)
        loss.backward()
        return loss.item(), logits.grad

    @pytest.mark.parametrize(
        "partner", [np.array([2, 0, 3, 1]), np.array([1, 1, 0, 2])], ids=["permutation", "repeated_row"]
    )
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_single_call_mixup_equals_two_calls(self, partner, lam):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(4, 5, 9)) * 2.0
        # rows differ in length, so a repeated row changes the non-pad count
        targets = np.array([[3, 4, 5, 6, 0], [7, 0, 0, 0, 0], [1, 2, 3, 0, 0], [8, 8, 2, 5, 1]])
        draw = MixupDraw(lam=lam, partner=partner)
        one_value, one_grad = self._value_and_grad(
            lambda logits: smoothed_cross_entropy(logits, targets, 0.1, pad_id=0, mixup=draw), data
        )
        own_value, own_grad = self._value_and_grad(
            lambda logits: smoothed_cross_entropy(logits, targets, 0.1, pad_id=0), data
        )
        partner_value, partner_grad = self._value_and_grad(
            lambda logits: smoothed_cross_entropy(logits, targets[partner], 0.1, pad_id=0), data
        )
        two_value = own_value * lam + partner_value * (1.0 - lam)
        two_grad = own_grad * lam + partner_grad * (1.0 - lam)
        assert abs(one_value - two_value) <= 1e-12
        assert np.max(np.abs(one_grad - two_grad)) <= 1e-12

    def test_mixup_lambda_one_is_the_plain_loss_bit_for_bit(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(3, 4, 6))
        targets = np.array([[1, 2, 3, 0], [4, 5, 0, 0], [2, 2, 1, 5]])
        draw = MixupDraw(lam=1.0, partner=np.array([2, 0, 1]))
        plain = self._value_and_grad(lambda l: smoothed_cross_entropy(l, targets, 0.1, 0), data)
        mixed = self._value_and_grad(lambda l: smoothed_cross_entropy(l, targets, 0.1, 0, mixup=draw), data)
        assert plain[0] == mixed[0]
        assert np.array_equal(plain[1], mixed[1])

    # name -> (logits shape, eps, mixup lambda or None)
    REFERENCE_CASES = {
        "plain": ((3, 4, 9), 0.1, None),
        "pad_positions": ((3, 5, 7), 0.2, None),
        "mixup_with_pads": ((3, 5, 7), 0.1, 0.3),
        "eps_zero": ((3, 4, 6), 0.0, 0.6),
        "two_word_vocab": ((3, 4, 2), 0.1, 0.4),
    }

    @staticmethod
    def _reference_case(name):
        shape, eps, lam = TestSmoothedCrossEntropy.REFERENCE_CASES[name]
        rng = np.random.default_rng(13)
        data = rng.normal(size=shape) * 3.0
        targets = rng.integers(1, shape[-1], size=shape[:-1])
        if name != "plain":
            targets[0, 2:] = 0  # pad positions, id 0
            targets[2, -1] = 0
        partner = np.array([2, 0, 1])
        draw = None if lam is None else MixupDraw(lam=lam, partner=partner)
        return data, targets, eps, draw

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_equals_composed_reference(self, name):
        # one node against sum(coef * log_softmax(z)) over a dense coefficient array
        data, targets, eps, draw = self._reference_case(name)
        value, grad = self._value_and_grad(
            lambda logits: smoothed_cross_entropy(logits, targets, eps, pad_id=0, mixup=draw), data
        )
        mix = {} if draw is None else {"lam": draw.lam, "partner": draw.partner}
        want_value, want_grad = oracles.composed_smoothed_cross_entropy(data, targets, eps, 0, **mix)
        assert abs(value - want_value) <= 1e-12
        assert np.max(np.abs(grad - want_grad)) <= 1e-12

    @pytest.mark.parametrize("name", ["mixup_with_pads", "two_word_vocab"])
    def test_finite_differences(self, name):
        data, targets, eps, draw = self._reference_case(name)
        logits = Tensor(data, requires_grad=True)

        def loss():
            return smoothed_cross_entropy(logits, targets, eps, pad_id=0, mixup=draw)

        loss().backward()
        numeric = oracles.finite_difference_grads(lambda: loss().item(), {"z": logits})["z"]
        # the loss is a mean, so entries are small: bound the absolute error,
        # which central differences leave near 1e-11 here
        assert np.max(np.abs(logits.grad - numeric)) <= 1e-9
        assert np.max(np.abs(logits.grad)) > 1e-3

    def test_one_node(self):
        logits = Tensor(np.zeros((2, 3, 5)), requires_grad=True)
        loss = smoothed_cross_entropy(logits, np.array([[1, 2, 0], [3, 4, 4]]), 0.1, pad_id=0)
        assert loss._parents == (logits,)


class TestMixup:
    def test_half_mix_of_constants(self, tiny_model):
        # zeros mixed half and half with twos is ones; equal token rows mix to themselves
        audio = np.stack([np.zeros((3, 6)), np.full((3, 6), 2.0)])
        ids = np.array([[1, 4, 5], [1, 4, 5]])
        mixed = tiny_model.forward(
            audio, ids, Language.EN, mixup=MixupDraw(lam=0.5, partner=np.array([1, 0]))
        ).data
        plain = tiny_model.forward(np.ones((2, 3, 6)), ids, Language.EN).data
        assert np.array_equal(mixed, plain)

    def test_beta_draw_statistics(self):
        rng = np.random.default_rng(777)
        draws = [draw_mixup(4, 0.4, rng).lam for _ in range(10_000)]
        assert np.mean(draws) == pytest.approx(0.5, abs=0.02)
        assert all(0.0 <= l <= 1.0 for l in draws)

    def test_partner_is_permutation(self):
        rng = np.random.default_rng(3)
        draw = draw_mixup(16, 0.4, rng)
        assert sorted(draw.partner) == list(range(16))


class _ForcedMaxRng:
    """Generator stub: integers(low, high) always returns high-1."""

    def integers(self, low, high):
        return high - 1


class TestSpecMask:
    def test_zero_masks_is_identity(self):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(2, 5, 8))
        cfg = SpecAugmentConfig(n_time_masks=0, max_time_width=0, n_channel_masks=0, max_channel_width=0)
        out = spec_mask(batch, np.array([5, 5]), cfg, rng)
        assert np.array_equal(out, batch)

    def test_forced_full_extent_zeroes_everything(self):
        batch = np.ones((1, 4, 6))
        cfg = SpecAugmentConfig(n_time_masks=1, max_time_width=4, n_channel_masks=1, max_channel_width=6)
        out = spec_mask(batch, np.array([4]), cfg, _ForcedMaxRng())
        assert np.array_equal(out, np.zeros_like(batch))

    def test_input_not_mutated(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(2, 6, 4))
        snapshot = batch.copy()
        spec_mask(batch, np.array([6, 6]), SpecAugmentConfig(1, 3, 1, 2), rng)
        assert np.array_equal(batch, snapshot)

    @staticmethod
    def _cover_probability(length: int, max_width: int) -> np.ndarray:
        """Exact P(cell masked by one mask) per cell, width ~ U{0..max_width}."""
        p = np.zeros(length)
        for w in range(0, max_width + 1):
            starts = length - w + 1
            for cell in range(length):
                covering = sum(1 for s in range(starts) if s <= cell < s + w)
                p[cell] += covering / starts / (max_width + 1)
        return p

    def test_masked_fraction_matches_exact_expectation(self):
        frames, channels = 12, 10
        cfg = SpecAugmentConfig(n_time_masks=2, max_time_width=4, n_channel_masks=1, max_channel_width=3)
        pt = self._cover_probability(frames, cfg.max_time_width)
        pc = self._cover_probability(channels, cfg.max_channel_width)
        p_time = 1.0 - (1.0 - pt) ** cfg.n_time_masks
        p_chan = 1.0 - (1.0 - pc) ** cfg.n_channel_masks
        expected = float(np.mean(1.0 - np.outer(1.0 - p_time, 1.0 - p_chan)))

        rng = np.random.default_rng(2024)
        batch = np.ones((1, frames, channels))
        total = 0.0
        n_draws = 10_000
        for _ in range(n_draws):
            out = spec_mask(batch, np.array([frames]), cfg, rng)
            total += np.mean(out == 0.0)
        assert total / n_draws == pytest.approx(expected, abs=0.01)


class TestCosineLr:
    def test_initial_value(self):
        assert cosine_lr(0, 100, 5e-4) == pytest.approx(5e-4)

    def test_final_value_zero(self):
        assert cosine_lr(100, 100, 5e-4) == pytest.approx(0.0, abs=1e-20)

    def test_midpoint_half(self):
        assert cosine_lr(50, 100, 5e-4) == pytest.approx(2.5e-4)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            cosine_lr(101, 100, 5e-4)


class TestAdamW:
    def test_decoupled_decay_shrinks_zero_grad_params(self):
        p = Tensor(np.full(4, 2.0), requires_grad=True)
        p.grad = np.zeros(4)
        opt = AdamW()
        opt.step({"w.weight": p}, lr=0.1, weight_decay=2.0, decay_names=frozenset({"w.weight"}))
        # zero gradient: the only movement is the decay term, factor (1 - lr*wd)
        assert np.allclose(p.data, 2.0 * (1 - 0.1 * 2.0))

    def test_no_decay_group_untouched_at_zero_grad(self):
        p = Tensor(np.full(3, 1.5), requires_grad=True)
        p.grad = np.zeros(3)
        AdamW().step({"b.bias": p}, lr=0.1, weight_decay=2.0, decay_names=frozenset())
        assert np.array_equal(p.data, np.full(3, 1.5))

    def test_descends_a_quadratic(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = AdamW()
        for _ in range(300):
            p.grad = 2.0 * p.data  # d/dp p^2
            opt.step({"p": p}, lr=0.05, weight_decay=0.0, decay_names=frozenset())
        assert abs(p.data[0]) < 1e-2

    def test_per_parameter_step_counts(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW()
        a.grad = np.array([0.1])
        opt.step({"a": a}, lr=0.01, weight_decay=0.0, decay_names=frozenset())
        b.grad = np.array([0.1])
        opt.step({"a": a, "b": b}, lr=0.01, weight_decay=0.0, decay_names=frozenset())
        assert opt.state["a"]["t"] == 2
        assert opt.state["b"]["t"] == 1

    def test_matches_textbook_update_bitwise_with_idle_head(self):
        # sizes on both sides of the block boundaries: one element, exactly
        # one block, one block plus one, several blocks plus a remainder
        rng = np.random.default_rng(0)
        b1, b2, eps, lr, wd = 0.8, 0.99, 1e-6, 0.05, 0.3
        shapes = {
            "trunk.weight": (3, 4),
            "trunk.bias": (3, 4),
            "trunk.gain": (1,),
            "trunk.ff.weight": (ADAM_BLOCK // 4, 4),
            "trunk.ff.bias": (ADAM_BLOCK + 1,),
            "heads.en.weight": (3, ADAM_BLOCK + 5),
            "heads.en.bias": (1,),
            "heads.fr.weight": (3, 4),
            "heads.fr.bias": (2, ADAM_BLOCK + 1),
        }
        decay = frozenset({"trunk.weight", "trunk.ff.weight", "heads.en.weight", "heads.fr.weight"})
        params = {n: Tensor(rng.normal(size=shape), requires_grad=True) for n, shape in shapes.items()}
        ref = {n: {"p": p.data.copy(), "m": 0.0, "v": 0.0, "t": 0} for n, p in params.items()}
        opt = AdamW(betas=(b1, b2), eps=eps)
        for step, head in enumerate(("en", "en", "fr", "en", "en")):
            stepped = {n: p for n, p in params.items() if not n.startswith("heads.") or f".{head}." in n}
            idle = {
                n: (st["t"], st["m"].copy(), st["v"].copy())
                for n, st in opt.state.items()
                if n not in stepped
            }
            for name, p in stepped.items():
                p.grad = rng.normal(size=p.shape) * (step + 1)
                r = ref[name]
                r["t"] += 1
                r["m"] = b1 * r["m"] + (1.0 - b1) * p.grad
                r["v"] = b2 * r["v"] + (1.0 - b2) * p.grad * p.grad
                m_hat = r["m"] / (1.0 - b1 ** r["t"])
                v_hat = r["v"] / (1.0 - b2 ** r["t"])
                r["p"] = r["p"] - lr * m_hat / (np.sqrt(v_hat) + eps)
                if name in decay:
                    r["p"] = r["p"] - lr * wd * r["p"]
            opt.step(stepped, lr=lr, weight_decay=wd, decay_names=decay)
            for name, p in params.items():
                assert np.array_equal(p.data, ref[name]["p"]), (step, name)
            for name, (t, m, v) in idle.items():
                st = opt.state[name]
                assert st["t"] == t, (step, name)
                assert np.array_equal(st["m"], m) and np.array_equal(st["v"], v), (step, name)
        assert opt.state["heads.fr.weight"]["t"] == 1
        assert opt.state["heads.en.weight"]["t"] == 4

    def test_seen_names_keep_their_state(self, monkeypatch):
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        p.grad = np.full((2, 3), 0.5)
        opt = AdamW()
        opt.step({"w": p}, lr=0.1, weight_decay=0.0, decay_names=frozenset())
        st = opt.state["w"]
        m, v = st["m"], st["v"]
        calls = []
        real_zeros_like = np.zeros_like
        monkeypatch.setattr(np, "zeros_like", lambda *a, **k: calls.append(a) or real_zeros_like(*a, **k))
        opt.step({"w": p}, lr=0.1, weight_decay=0.0, decay_names=frozenset())
        assert calls == []
        assert opt.state["w"] is st and st["m"] is m and st["v"] is v
        assert st["t"] == 2


def make_trainer(languages, tcfg=None, n_items=6, seed=0, model_seed=1):
    index, vocabs = synthetic_corpus(languages, n_items=n_items, seed=seed)
    cfg = tiny_model_config(d_in=16, d_model=16, n_heads=2, d_ff=24, max_len=8)
    model = MultilingualModel(cfg, vocabs, seed=model_seed)
    tcfg = tcfg or TrainConfig(
        epochs=4, lr0=1e-3, weight_decay=0.0, label_smoothing_eps=0.0,
        mixup_alpha=0.0, specaug=None, batch_size=2, seed=5,
    )
    return Trainer(model, index, tcfg), index


class TestEpochLoop:
    def test_multilingual_epoch_exact_pair_coverage(self):
        languages = list(Language)
        trainer, index = make_trainer(languages, n_items=6)
        metrics, pairs = run_epoch_pairs(trainer)
        assert metrics["n_examples"] == 6 * 4
        expected = Counter((a, l.value) for a in index.audio_ids for l in languages)
        assert Counter(pairs) == expected

    def test_fit_keeps_the_counts_but_no_per_pair_record(self):
        # a per-pair list would be about 13 MB an epoch at AudioCaps size,
        # kept for every epoch of a fit; each epoch's record holds counts only
        trainer, _ = make_trainer(list(Language), n_items=6)
        history = trainer.fit()
        assert len(history) == trainer.cfg.epochs
        for metrics in history:
            lists = [key for key, value in metrics.items() if isinstance(value, (list, tuple))]
            assert lists == []
            assert metrics["n_examples"] == 6 * 4
            assert metrics["per_language"] == {l.value: 6 for l in Language}

    def test_each_metrics_line_is_the_epoch_record(self, tmp_path):
        trainer, _ = make_trainer([Language.EN, Language.FR], n_items=4)
        path = tmp_path / "metrics.jsonl"
        history = trainer.fit(path)
        keys = {"epoch", "lr", "train_loss", "val_loss", "seconds", "n_examples", "n_updates", "per_language"}
        assert all(set(record) == keys for record in history)
        assert [record["epoch"] for record in history] == list(range(trainer.cfg.epochs))
        assert [json.loads(line) for line in path.read_text().splitlines()] == history

    def test_single_language_reduces_to_monolingual(self):
        trainer, index = make_trainer([Language.EN], n_items=6)
        metrics = trainer.run_epoch(0)
        assert metrics["n_examples"] == 6
        assert set(metrics["per_language"]) == {"en"}

    def test_batch_size_one_updates_equal_pairs(self):
        tcfg = TrainConfig(
            epochs=2, lr0=1e-3, weight_decay=0.0, label_smoothing_eps=0.0,
            mixup_alpha=0.0, specaug=None, batch_size=1, seed=5,
        )
        trainer, _ = make_trainer(list(Language), tcfg=tcfg, n_items=5)
        metrics = trainer.run_epoch(0)
        assert metrics["n_updates"] == 20
        assert metrics["n_examples"] == 20

    def test_bitwise_determinism_same_seed(self):
        def run():
            trainer, _ = make_trainer(list(Language), n_items=4, seed=3, model_seed=2)
            trainer.fit()
            return {n: p.data.copy() for n, p in trainer.model.named_parameters().items()}

        a, b = run(), run()
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_full_recipe_runs(self):
        # mixup + specaug + label smoothing + dropout all on
        tcfg = TrainConfig(
            epochs=2, lr0=5e-4, weight_decay=2.0, label_smoothing_eps=0.1,
            mixup_alpha=0.4, specaug=SpecAugmentConfig(1, 2, 1, 4), batch_size=3, seed=9,
        )
        index, vocabs = synthetic_corpus([Language.EN, Language.FR], n_items=6)
        cfg = tiny_model_config(d_in=16, d_model=16, n_heads=2, d_ff=24, max_len=8,
                                trunk_dropout=0.1, frontend_dropout=0.2)
        model = MultilingualModel(cfg, vocabs, seed=1)
        history = Trainer(model, index, tcfg).fit()
        assert len(history) == 2
        assert all(np.isfinite(m["train_loss"]) for m in history)

    def test_missing_language_head_rejected(self):
        index, vocabs = synthetic_corpus([Language.EN, Language.FR], n_items=4)
        cfg = tiny_model_config(d_in=16)
        model = MultilingualModel(cfg, {Language.EN: vocabs[Language.EN]}, seed=0)
        with pytest.raises(ValidationError):
            Trainer(model, index, TrainConfig(epochs=1, specaug=None, mixup_alpha=0.0))


class TestGraphSize:
    def test_one_train_step_builds_a_pinned_graph(self, monkeypatch):
        # the tensors one update's loss reaches, 9 + 41 per decoder layer
        # (255 at the default 6 layers): 4 + 15 per layer nodes (the loss,
        # the classifier, the token node, the front-end node and each
        # layer's) and 5 + 26 per layer parameters of the trunk and one
        # language head. Dropout and mixup are on; dropout and the
        # activations add no node of their own, and a primitive composed
        # again from elementwise nodes grows this
        sizes = []
        backward = Tensor.backward

        def counting_backward(loss):
            seen, stack = {id(loss)}, [loss]
            while stack:
                for parent in stack.pop()._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            sizes.append(len(seen))
            backward(loss)

        monkeypatch.setattr(Tensor, "backward", counting_backward)
        index, vocabs = synthetic_corpus([Language.EN], n_items=4)
        for n_layers in (1, 2):
            cfg = tiny_model_config(d_in=16, n_layers=n_layers, trunk_dropout=0.1, frontend_dropout=0.2)
            model = MultilingualModel(cfg, vocabs, seed=1)
            trainer = Trainer(model, index, TrainConfig(epochs=1, mixup_alpha=0.4, batch_size=4, seed=2))
            trainer._train_batch(Language.EN, list(index.audio_ids), 1e-3)
        assert sizes == [9 + 41 * 1, 9 + 41 * 2]

    def test_one_train_step_stays_under_a_pinned_memory_peak(self):
        # the memory twin of the pinned node count: the tracemalloc peak of
        # a steady-state step (moments already made) of a two-layer model,
        # 16 clips of 5 positions, d_ff 512, dropout on. 3.14 MB when each
        # node keeps only what its backward reads and the walk frees a node
        # before its backward runs; 5.06 MB when the GELU node kept its
        # input and erf term and attention its padded q, k and v
        index, vocabs = synthetic_corpus([Language.EN], n_items=16)
        cfg = tiny_model_config(d_in=16, d_model=32, n_heads=4, d_ff=512, n_layers=2,
                                trunk_dropout=0.1, frontend_dropout=0.2)
        trainer = Trainer(MultilingualModel(cfg, vocabs, seed=1), index, TrainConfig(batch_size=16, seed=2))
        ids = list(index.audio_ids)
        trainer._train_batch(Language.EN, ids, 1e-3)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            trainer._train_batch(Language.EN, ids, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 3_300_000


class TestStepMemory:
    # tracemalloc peaks of one train step, per phase, over the traced memory
    # at the step's start, in bytes; the same within a few hundred bytes at
    # OPENBLAS_NUM_THREADS 1 and 2. The garbage collector runs before each
    # reading, so no interpreter free list of an earlier phase counts. The
    # optimizer's is mostly AdamW.step's fixed block scratch, about 557 KB.
    # A change that moves a pin updates it here and says why in CHANGES.md
    PINS = {"forward": 333_780, "backward": 372_380, "optimizer": 810_390}

    def test_each_phase_of_a_train_step_stays_at_its_pinned_peak(self, monkeypatch):
        # tracing starts before the model is built: else the fresh weight
        # arrays AdamW.step writes read as about 230 KB retained, the arrays
        # they replace never having been traced
        tracemalloc.start()
        try:
            index, vocabs = synthetic_corpus([Language.EN, Language.FR], n_items=8, n_frames=6, d_in=16)
            cfg = ModelConfig(d_in=16, d_model=32, n_layers=2, n_heads=4, d_ff=64, max_len=20)
            model = MultilingualModel(cfg, vocabs, seed=1)
            trainer = Trainer(model, index, TrainConfig(epochs=2, batch_size=4, seed=0))
            lr = trainer.cfg.lr0
            for language, audio_ids in trainer._make_batches(index):  # every head has stepped: its moments exist
                trainer._train_batch(language, audio_ids, lr)
            phases = {"forward": [], "backward": [], "optimizer": [], "retained": []}
            start = 0

            def peak_of_phase():
                gc.collect()
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                return peak - start

            backward, step = Tensor.backward, training.AdamW.step

            def traced_backward(loss):
                phases["forward"].append(peak_of_phase())
                backward(loss)

            def traced_step(*args):
                phases["backward"].append(peak_of_phase())
                step(*args)
                phases["optimizer"].append(peak_of_phase())

            monkeypatch.setattr(Tensor, "backward", traced_backward)
            monkeypatch.setattr(training.AdamW, "step", traced_step)
            for language, audio_ids in trainer._make_batches(index)[:3]:
                gc.collect()
                start, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                trainer._train_batch(language, audio_ids, lr)
                gc.collect()
                phases["retained"].append(tracemalloc.get_traced_memory()[0] - start)
        finally:
            tracemalloc.stop()
        for phase, pin in self.PINS.items():
            assert all(abs(peak - pin) <= 1024 for peak in phases[phase]), (phase, phases[phase])
        assert all(retained <= 1024 for retained in phases["retained"]), phases["retained"]


class TestNonFiniteLoss:
    def test_inf_weights_raise_before_any_update(self):
        trainer, index = make_trainer([Language.EN, Language.FR], n_items=4)
        params = trainer.model.named_parameters()
        params["frontend.weight"].data[0, 0] = np.inf
        before = {n: p.data.copy() for n, p in params.items()}
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(RuntimeFailure) as info:
            trainer.run_epoch(3)
        err = info.value
        assert err.exit_code == 3
        assert "epoch 3, batch 0" in err.message
        (item,) = err.items
        assert (item["epoch"], item["batch_index"]) == (3, 0)
        assert item["language"] in ("en", "fr") and f"'{item['language']}'" in err.message
        assert len(item["audio_ids"]) == 2 and set(item["audio_ids"]) <= set(index.audio_ids)
        for name, p in trainer.model.named_parameters().items():
            assert np.array_equal(p.data, before[name]), name
        assert trainer.optimizer.state == {}

    def test_overflowing_update_names_its_own_batch(self):
        # lr0 1e300 with decay overflows the weights on batch 0's update; the
        # error once came from batch 1's NaN loss, naming the wrong batch
        tcfg = TrainConfig(
            epochs=2, lr0=1e300, weight_decay=2.0, label_smoothing_eps=0.0,
            mixup_alpha=0.0, specaug=None, batch_size=1, seed=5,
        )
        trainer, index = make_trainer([Language.EN, Language.FR], tcfg=tcfg, n_items=3)
        names = set(trainer.model.named_parameters())
        with np.errstate(all="ignore"), pytest.raises(RuntimeFailure) as info:
            trainer.run_epoch(0)
        err = info.value
        assert err.exit_code == 3
        (item,) = err.items
        assert (item["epoch"], item["batch_index"]) == (0, 0)
        assert item["parameter"] in names and len(item["audio_ids"]) == 1
        assert err.message == (
            f"non-finite update of {item['parameter']!r} at epoch 0, batch 0, language {item['language']!r}"
        )
        # the failing parameter keeps its old weights; those updated before it were checked
        for name, p in trainer.model.named_parameters().items():
            assert np.isfinite(p.data).all() and p.grad is None, name


class TestGradientLifetime:
    def test_no_gradient_outlives_a_step_or_a_fit(self):
        trainer, index = make_trainer([Language.EN, Language.FR], n_items=4)
        trainer._train_batch(Language.FR, list(index.audio_ids)[:2], 1e-3)
        assert all(p.grad is None for p in trainer.model.named_parameters().values())
        trainer.fit()
        assert all(p.grad is None for p in trainer.model.named_parameters().values())

    def test_logits_are_freed_before_the_head_backward_runs(self, monkeypatch):
        # the logits and their gradient are the largest arrays of a step;
        # neither the step nor the graph walk may hold the logits while the
        # classifier's backward makes its gradients
        trainer, index = make_trainer([Language.EN], n_items=4)
        classifier = trainer.model.head(Language.EN).classifier
        forward, accumulate = MultilingualModel.forward, Tensor._accumulate
        logits_alive, alive_at_head = [], []

        def forward_watching_logits(model, *args, **kwargs):
            logits = forward(model, *args, **kwargs)
            logits_alive.append(weakref.finalize(logits.data, lambda: None))
            return logits

        def accumulate_watching_head(tensor, grad):
            if tensor is classifier.weight or tensor is classifier.bias:
                alive_at_head.append(logits_alive[0].alive)
            accumulate(tensor, grad)

        monkeypatch.setattr(MultilingualModel, "forward", forward_watching_logits)
        monkeypatch.setattr(Tensor, "_accumulate", accumulate_watching_head)
        trainer._train_batch(Language.EN, list(index.audio_ids), 1e-3)
        assert alive_at_head == [False, False]

    def test_a_stale_gradient_does_not_leak_into_the_step(self):
        def step(stale: bool):
            trainer, index = make_trainer([Language.EN], n_items=4)
            params = trainer.model.named_parameters()
            if stale:
                for p in params.values():
                    p.grad = np.ones_like(p.data)
            trainer._train_batch(Language.EN, list(index.audio_ids), 1e-3)
            return {n: p.data.copy() for n, p in params.items()}

        clean, stale = step(False), step(True)
        for name in clean:
            assert np.array_equal(clean[name], stale[name]), name

    def test_full_recipe_fit_matches_textbook_adamw_bitwise(self):
        # dropout, mixup, SpecAugment, decay and a validation split over 3
        # epochs: the blocked AdamW against whole-array textbook formulas
        def fit(optimizer_cls):
            index, vocabs = synthetic_corpus([Language.EN, Language.FR], n_items=6)
            val_index, _ = synthetic_corpus([Language.EN, Language.FR], n_items=3, seed=9)
            cfg = tiny_model_config(d_in=16, d_model=16, n_heads=2, d_ff=24, max_len=8,
                                    trunk_dropout=0.1, frontend_dropout=0.2)
            model = MultilingualModel(cfg, vocabs, seed=1)
            tcfg = TrainConfig(
                epochs=3, lr0=5e-3, weight_decay=2.0, label_smoothing_eps=0.1, mixup_alpha=0.4,
                specaug=SpecAugmentConfig(1, 2, 1, 4), batch_size=3, seed=9,
            )
            trainer = Trainer(model, index, tcfg, val_corpus=val_index)
            trainer.optimizer = optimizer_cls(betas=tcfg.adam_betas, eps=tcfg.adam_eps)
            history = trainer.fit()
            losses = [(m["train_loss"], m["val_loss"]) for m in history]
            return losses, {n: p.data for n, p in model.named_parameters().items()}

        losses, weights = fit(AdamW)
        want_losses, want_weights = fit(oracles.TextbookAdamW)
        assert losses == want_losses
        assert set(weights) == set(want_weights)
        for name, w in weights.items():
            assert w.tobytes() == want_weights[name].tobytes(), name


class TestRecipeIdentities:
    def test_mixup_lambda_one_equals_plain_run_step_for_step(self, monkeypatch):
        # the mixup run draws its partners from the mixup stream as usual, but lambda is 1
        monkeypatch.setattr(
            training, "draw_mixup", lambda n, alpha, rng: MixupDraw(lam=1.0, partner=rng.permutation(n))
        )

        def run(mixup_on: bool):
            base = dict(
                epochs=3, lr0=1e-3, weight_decay=0.5, label_smoothing_eps=0.0,
                specaug=None, batch_size=3, seed=21,
            )
            tcfg = TrainConfig(mixup_alpha=0.4 if mixup_on else 0.0, **base)
            index, vocabs = synthetic_corpus([Language.EN, Language.FR], n_items=6, seed=8)
            cfg = tiny_model_config(d_in=16, d_model=16, n_heads=2, d_ff=24, max_len=8)
            model = MultilingualModel(cfg, vocabs, seed=4)
            trainer = Trainer(model, index, tcfg)
            snapshots = []
            for epoch in range(tcfg.epochs):
                trainer.run_epoch(epoch)
                snapshots.append({n: p.data.copy() for n, p in model.named_parameters().items()})
            return snapshots

        plain, mixed = run(False), run(True)
        for step, (a, b) in enumerate(zip(plain, mixed)):
            for name in a:
                assert np.array_equal(a[name], b[name]), f"epoch {step}: {name} diverged"

    def test_loss_monotonicity_smoke(self):
        # 10-item synthetic corpus, vocab 20: loss collapses under training
        index, vocabs = synthetic_corpus([Language.EN], n_items=10, seed=1)
        cfg = tiny_model_config(d_in=16, d_model=24, n_heads=4, d_ff=48, max_len=8)
        model = MultilingualModel(cfg, vocabs, seed=2)
        tcfg = TrainConfig(
            epochs=200, lr0=2e-3, weight_decay=0.0, label_smoothing_eps=0.0,
            mixup_alpha=0.0, specaug=None, batch_size=5, seed=3,
        )
        history = Trainer(model, index, tcfg).fit()
        assert history[-1]["train_loss"] < 0.1 * history[0]["train_loss"]


class TestValidationLoss:
    def test_val_loss_logged_and_deterministic(self):
        languages = [Language.EN]
        train_index, vocabs = synthetic_corpus(languages, n_items=5, seed=0)
        val_index, _ = synthetic_corpus(languages, n_items=4, seed=9)
        cfg = tiny_model_config(d_in=16, d_model=16, n_heads=2, d_ff=24, max_len=8)
        model = MultilingualModel(cfg, vocabs, seed=0)
        tcfg = TrainConfig(epochs=2, lr0=1e-3, weight_decay=0.0, specaug=None,
                           mixup_alpha=0.0, batch_size=5, seed=1)
        trainer = Trainer(model, train_index, tcfg, val_corpus=val_index)
        history = trainer.fit()
        assert all(m["val_loss"] is not None and np.isfinite(m["val_loss"]) for m in history)
        assert trainer.evaluate_loss(val_index) == pytest.approx(trainer.evaluate_loss(val_index))


    def test_equals_first_caption_losses_composed_by_hand_bit_for_bit(self):
        # ragged clips and captions, a caption past max_len, unknown words and
        # a second caption that must not be read; 5 clips in chunks of 2
        languages = [Language.EN, Language.FR]
        train_index, vocabs = synthetic_corpus(languages, n_items=4, seed=0)
        rng = np.random.default_rng(3)
        frames = [8, 5, 7, 3, 6]
        words = [2, 4, 7, 3, 5]
        entries = {
            f"v{i}": {
                lang: (" ".join(f"{lang.value}f{(i + j) % 7}" for j in range(n)), f"{lang.value}m0")
                for lang in languages
            }
            for i, n in enumerate(words)
        }
        val_index = CorpusIndex(
            captions=entries,
            embeddings={f"v{i}": rng.normal(size=(n, 16)) for i, n in enumerate(frames)},
            languages=tuple(languages),
        )
        cfg = tiny_model_config(d_in=16, d_model=16, n_heads=2, d_ff=24, max_len=6)
        model = MultilingualModel(cfg, vocabs, seed=0)
        # mixup, SpecAugment and dropout are on in training; validation uses none
        tcfg = TrainConfig(epochs=1, label_smoothing_eps=0.1, batch_size=2, seed=1)
        trainer = Trainer(model, train_index, tcfg)

        losses = []
        for lang in languages:
            vocab = vocabs[lang]
            for start in range(0, len(frames), 2):
                chunk = list(val_index.audio_ids)[start : start + 2]
                seqs = [
                    vocab.encode(tokenize(val_index.captions[a][lang][0])[: cfg.max_len - 1])
                    for a in chunk
                ]
                width = max(len(q) for q in seqs)
                ids = np.array([q + [vocab.pad_id] * (width - len(q)) for q in seqs])
                n_frames = max(val_index.embeddings[a].shape[0] for a in chunk)
                audio = np.zeros((len(chunk), n_frames, 16))
                for row, a in enumerate(chunk):
                    audio[row, : val_index.embeddings[a].shape[0]] = val_index.embeddings[a]
                frame_mask = np.arange(n_frames) < np.array([[val_index.embeddings[a].shape[0]] for a in chunk])
                lengths = np.array([len(q) - 1 for q in seqs])
                logits = model.forward(audio, ids[:, :-1], lang, frame_mask=frame_mask, lengths=lengths)
                losses.append(smoothed_cross_entropy(logits, ids[:, 1:], 0.1, vocab.pad_id, lengths=lengths).item())
        assert len(losses) == 6
        assert trainer.evaluate_loss(val_index) == float(np.mean(losses))


# each config dataclass is read from its JSON object by `config_from_json`,
# the one reader of `train --config`, `params --config` and a checkpoint's
# model config


@pytest.mark.parametrize("doc", ["x", 5, None, ["epochs"]], ids=["string", "int", "null", "list"])
@pytest.mark.parametrize("config_cls", [ModelConfig, TrainConfig], ids=["model", "train"])
def test_config_from_non_object_is_validation_error(config_cls, doc):
    with pytest.raises(ValidationError) as info:
        config_from_json(config_cls, doc, "bad config")
    assert info.value.items == [f"expected an object, got {type(doc).__name__}"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", 2.5),
        ("epochs", True),
        ("batch_size", 2.5),
        ("batch_size", 0),
        ("adam_betas", [0.9, 0.99, 0.5]),
        ("adam_betas", [0.9, 1.0]),
        ("adam_betas", [0.9, "0.99"]),
        ("adam_betas", 5),  # once a raw TypeError inside the message's list(betas)
        ("seed", 1.5),
        ("seed", -1),
        ("weight_decay", "x"),
        ("weight_decay", -1),
        ("adam_eps", "x"),
        ("adam_eps", 0.0),
        ("lr0", math.nan),
        ("lr0", math.inf),
        ("label_smoothing_eps", "x"),
        ("mixup_alpha", -0.5),
    ],
)
def test_train_config_field_types_are_checked(field, value):
    with pytest.raises(ValidationError) as info:
        config_from_json(TrainConfig, {field: value}, "bad config")
    assert info.value.exit_code == 2
    assert [item.split("=")[0] for item in info.value.items] == [field]


def test_specaug_fields_are_checked():
    with pytest.raises(ValidationError) as info:
        config_from_json(TrainConfig, {"specaug": {"n_time_masks": 2.5, "max_time_width": -1}}, "bad config")
    assert info.value.items == [
        "specaug.n_time_masks=2.5 must be an integer >= 0",
        "specaug.max_time_width=-1 must be an integer >= 0",
    ]


def test_every_bad_train_field_is_listed_in_one_error():
    doc = {"lr0": math.nan, "weight_decay": "x", "specaug": {"max_channel_width": True}}
    with pytest.raises(ValidationError) as info:
        config_from_json(TrainConfig, doc, "bad config")
    assert [item.split("=")[0] for item in info.value.items] == [
        "lr0", "weight_decay", "specaug.max_channel_width"
    ]


def test_valid_optional_fields_are_accepted():
    cfg = config_from_json(TrainConfig, {"specaug": None, "weight_decay": 0}, "bad config")
    assert cfg.specaug is None
    assert config_from_json(TrainConfig, {}, "bad config").specaug == SpecAugmentConfig()
    assert config_from_json(TrainConfig, {"adam_betas": [0.8, 0.9]}, "bad config").adam_betas == (0.8, 0.9)


def test_mixup_lambda_is_no_field():
    # a fixed lambda was once a config field that only tests set
    with pytest.raises(ValidationError) as info:
        config_from_json(TrainConfig, {"mixup_lambda": 0.3}, "bad config")
    assert info.value.items == ["unknown key 'mixup_lambda'"]


@pytest.mark.parametrize("specaug", ["x", [1]], ids=["string", "list"])
def test_a_nested_config_that_is_no_object_is_an_item(specaug):
    # once a raw TypeError's text as the message, `SpecAugmentConfig(**specaug)`
    with pytest.raises(ValidationError) as info:
        config_from_json(TrainConfig, {"specaug": specaug}, "bad config")
    assert info.value.items == ["'specaug' must be an object"]


def test_shape_problems_are_reported_before_any_value():
    # a bad value is a class's own report, made only once the document's shape is sound
    with pytest.raises(ValidationError) as info:
        config_from_json(TrainConfig, {"epochs": 0, "specaug": {"n_time_masks": -1, "width": 2}}, "bad config")
    assert (info.value.message, info.value.items) == ("bad config", ["unknown key 'specaug.width'"])
