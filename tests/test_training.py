import contextlib
import math
import multiprocessing
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from streamdec import autodiff, training, transformer
from streamdec.core import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    ConfigError,
    ContractViolation,
    Utterance,
    Vocab,
)
from streamdec.data import (
    SyntheticTaskSpec,
    gen_dataset,
    make_partial_pair,
    task_vocab,
)
from streamdec.io import load_model
from streamdec.model import SyntheticAlignedModel
from streamdec.training import (
    ADAPT_LR_FACTOR,
    LABEL_SMOOTHING,
    PARTIAL_RATIOS,
    Adam,
    TrainConfig,
    adapt,
    batch_loss_and_grads,
    lr_at,
    make_batch,
    token_error_rate,
    train,
    write_curve,
)
from streamdec.transformer import (
    BIDIRECTIONAL,
    UNIDIRECTIONAL,
    TinyTransformer,
    TransformerConfig,
)

from .oracles import normalize_fresh, padded_training_logits

FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


@pytest.fixture(scope="module")
def tiny_world():
    spec = SyntheticTaskSpec(
        vocab_size=8, min_tokens=2, max_tokens=3, min_frames_per_token=6,
        max_frames_per_token=8, frame_dim=4, noise_std=0.05, world_seed=2,
    )
    data = gen_dataset(spec, 24, seed=31)
    vocab = task_vocab(spec)
    cfg = TransformerConfig(
        frame_dim=4, vocab_size=len(vocab), d_model=8, heads=2, ff_dim=12,
        enc_layers=1, dec_layers=1, mode=UNIDIRECTIONAL, init_seed=7,
    )
    return spec, data, vocab, cfg


def small_train_cfg(**kw):
    base = dict(
        learning_rate=3e-3, warmup_steps=4, total_steps=8, batch_size=4,
        seed=0, eval_every=4,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestConfigs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_learning_rate_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(learning_rate=bad)

    def test_train_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(total_steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(warmup_steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError, match="eval_every"):
            TrainConfig(eval_every=0)

    @pytest.mark.parametrize("field, value, match", [
        ("batch_size", 2.5, "must be an integer"),
        ("total_steps", True, "must be an integer"),
        ("seed", 1.5, "must be an integer"),
        ("seed", -1, "seed must be >= 0"),
        ("learning_rate", "1", "must be a number"),
    ])
    def test_ill_typed_config(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            TrainConfig(**{field: value})


class TestSchedule:
    def test_peak_at_warmup_boundary(self):
        cfg = TrainConfig(learning_rate=1e-3, warmup_steps=100)
        assert lr_at(100, cfg) == pytest.approx(1e-3)

    def test_linear_ramp(self):
        cfg = TrainConfig(learning_rate=1e-3, warmup_steps=100)
        assert lr_at(50, cfg) == pytest.approx(5e-4)
        assert lr_at(1, cfg) == pytest.approx(1e-5)

    def test_inverse_sqrt_decay(self):
        cfg = TrainConfig(learning_rate=1e-3, warmup_steps=100)
        assert lr_at(400, cfg) == pytest.approx(5e-4)
        assert lr_at(10_000, cfg) == pytest.approx(1e-4)

    def test_step_clamped_to_one(self):
        cfg = TrainConfig(learning_rate=1e-3, warmup_steps=100)
        assert lr_at(0, cfg) == lr_at(1, cfg)


class TestAdam:
    def test_first_step_hand_computed(self):
        p = {"w": np.array([2.0])}
        opt = Adam(p)
        g = np.array([0.5])
        opt.step({"w": g}, lr=0.1)
        # bias-corrected m-hat = g, v-hat = g^2, update = lr * g / (|g| + eps)
        expected = 2.0 - 0.1 * 0.5 / (0.5 + 1e-9)
        assert p["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_two_steps_match_reference_recursion(self):
        p = {"w": np.array([1.0, -3.0])}
        opt = Adam(p)
        grads = [np.array([0.4, -0.2]), np.array([-0.1, 0.3])]
        lrs = [0.05, 0.02]
        ref = np.array([1.0, -3.0])
        m = np.zeros(2)
        v = np.zeros(2)
        b1, b2, eps = 0.9, 0.98, 1e-9
        for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            ref = ref - lr * mh / (np.sqrt(vh) + eps)
            opt.step({"w": grads[t - 1]}, lr=lrs[t - 1])
        np.testing.assert_allclose(p["w"], ref, atol=1e-12)

    def test_missing_gradient_leaves_param(self):
        p = {"w": np.array([1.0]), "b": np.array([2.0])}
        opt = Adam(p)
        opt.step({"w": np.array([1.0])}, lr=0.1)
        assert p["b"][0] == 2.0


class TestMakeBatch:
    def test_shapes_and_masks(self):
        vocab = Vocab.build(["a", "b", "c"])
        pairs = [
            (np.ones((5, 2)), ("a", "b")),
            (np.ones((3, 2)), ("c",)),
        ]
        batch = make_batch(pairs, vocab, frame_dim=2)
        assert batch["frames"].shape == (2, 5, 2)
        np.testing.assert_array_equal(batch["frame_mask"][1], [1, 1, 1, 0, 0])
        # decoder input row: bos then ids, padded; labels shift left onto eos
        a, b, c = vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("c")
        np.testing.assert_array_equal(
            batch["dec_in"][0], [BOS_ID, a, b]
        )
        np.testing.assert_array_equal(
            batch["labels"][0], [a, b, EOS_ID]
        )
        np.testing.assert_array_equal(
            batch["dec_in"][1], [BOS_ID, c, PAD_ID]
        )
        np.testing.assert_array_equal(
            batch["labels"][1], [c, EOS_ID, PAD_ID]
        )
        np.testing.assert_array_equal(batch["label_mask"][0], [1, 1, 1])
        np.testing.assert_array_equal(batch["label_mask"][1], [1, 1, 0])

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            make_batch([], Vocab.build(["a"]), 2)

    def test_zero_frame_pair_rejected(self):
        vocab = Vocab.build(["a"])
        with pytest.raises(ConfigError):
            make_batch([(np.zeros((0, 2)), ("a",))], vocab, 2)

    def test_frame_width_mismatch_rejected(self):
        vocab = Vocab.build(["a"])
        pairs = [(np.ones((5, 2)), ("a",)), (np.ones((4, 3)), ("a",))]
        with pytest.raises(ConfigError, match=r"pair 1 .*\(4, 3\).*\(4, 2\)"):
            make_batch(pairs, vocab, 2)


class TestGradients:
    def test_loss_gradient_matches_finite_difference(self, tiny_world, rng):
        _, data, vocab, cfg = tiny_world
        model = TinyTransformer(cfg, vocab)
        pairs = [
            (u.frames, u.reference_tokens) for u in data[:3]
        ]
        batch = make_batch(pairs, vocab, cfg.frame_dim)
        _, grads = batch_loss_and_grads(cfg, model.params, batch, 0.1)

        def loss_of(params):
            return batch_loss_and_grads(cfg, params, batch, 0.1)[0]

        names = list(grads)
        for name in [names[0], names[len(names) // 2], names[-1]]:
            flat = model.params[name].reshape(-1)
            idx = int(rng.integers(flat.size))
            scale = max(abs(flat[idx]), 0.1)
            h = 1e-4 * scale
            plus = {k: v.copy() for k, v in model.params.items()}
            plus[name].reshape(-1)[idx] += h
            minus = {k: v.copy() for k, v in model.params.items()}
            minus[name].reshape(-1)[idx] -= h
            fd = (loss_of(plus) - loss_of(minus)) / (2 * h)
            an = grads[name].reshape(-1)[idx]
            assert an == pytest.approx(fd, rel=1e-3, abs=1e-7), name

    @pytest.mark.parametrize("name", [
        "enc0_ln1_g", "enc1_ln1_b", "enc1_ln2_g", "enc0_ln2_b",
        "dec1_ln1_g", "dec0_ln1_b", "dec0_ln2_g", "dec1_ln2_b",
        "dec1_ln3_g", "dec0_ln3_b", "enc_lnf_g", "enc_lnf_b", "dec_lnf_g",
        "dec_lnf_b", "enc1_wq", "dec1_bsq", "dec1_ck", "dec0_bcv",
    ])
    def test_folded_params_match_finite_difference(self, tiny_world, name):
        # layer-norm gains and biases, the query projections and the cross
        # keys and values of two decoder layers reach the loss only through
        # the weight set fold derives; every gain is moved off 1 and every
        # bias off 0, so no fold is the identity
        _, data, vocab, cfg = tiny_world
        cfg = replace(cfg, enc_layers=2, dec_layers=2)
        rng = np.random.default_rng(sum(map(ord, name)))
        base = {
            k: v + rng.normal(scale=0.2, size=v.shape) if v.ndim == 1 else v
            for k, v in TinyTransformer(cfg, vocab).params.items()
        }
        batch = _ragged_batch(data, vocab, cfg.frame_dim)
        _, grads = batch_loss_and_grads(cfg, base, batch, 0.1)

        def loss_of(idx, delta):
            params = {k: v.copy() for k, v in base.items()}
            params[name].reshape(-1)[idx] += delta
            return batch_loss_and_grads(cfg, params, batch, 0.1)[0]

        for idx in rng.choice(base[name].size, size=2, replace=False):
            h = 1e-4 * max(abs(base[name].reshape(-1)[idx]), 0.1)
            fd = (loss_of(idx, h) - loss_of(idx, -h)) / (2 * h)
            an = grads[name].reshape(-1)[idx]
            assert an == pytest.approx(fd, rel=1e-3, abs=1e-7), (name, idx)


def _ragged_batch(data, vocab, frame_dim):
    """Full utterances plus proportional truncations, as adapt mixes them."""
    pairs = [(u.frames, u.reference_tokens) for u in data[:3]]
    pairs += [make_partial_pair(u, p) for u, p in zip(data[3:6], (0.1, 0.25, 0.4))]
    return make_batch(pairs, vocab, frame_dim)


class TestLengthAwareGraph:
    """The training graph's encoder runs on each row's real frames only; its
    loss and gradients must equal the padded graph's, whose -1e9 attention
    masks keep the padded frames out."""

    @pytest.fixture(params=["micro", "bidi.bin", "causal.bin"])
    def model_and_data(self, request, tiny_world):
        _, data, vocab, cfg = tiny_world
        if request.param == "micro":
            return TinyTransformer(cfg, vocab), data
        model = load_model(str(FIXTURES / request.param))
        spec = SyntheticTaskSpec()  # the task both fixtures were trained on
        assert model.vocab == task_vocab(spec)
        return model, gen_dataset(spec, 6, seed=77)

    def test_loss_and_grads_match_padded_oracle(self, model_and_data, monkeypatch):
        model, data = model_and_data
        batch = _ragged_batch(data, model.vocab, model.cfg.frame_dim)
        lengths = batch["frame_mask"].sum(axis=1)
        assert len(set(lengths)) == len(lengths)  # really ragged
        loss, grads = batch_loss_and_grads(model.cfg, model.params, batch, 0.1)
        monkeypatch.setattr(transformer, "training_logits", padded_training_logits)
        want_loss, want = batch_loss_and_grads(model.cfg, model.params, batch, 0.1)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert sorted(grads) == sorted(want)
        for name, g in grads.items():
            np.testing.assert_allclose(
                g, want[name], rtol=1e-10, atol=1e-14, err_msg=name
            )

    def test_padded_frame_values_do_not_reach_gradients(self, model_and_data):
        model, data = model_and_data
        batch = _ragged_batch(data, model.vocab, model.cfg.frame_dim)
        loss, grads = batch_loss_and_grads(model.cfg, model.params, batch, 0.1)
        poisoned = dict(batch, frames=batch["frames"].copy())
        poisoned["frames"][batch["frame_mask"] == 0] = np.nan
        got_loss, got = batch_loss_and_grads(model.cfg, model.params, poisoned, 0.1)
        assert got_loss == loss
        assert sorted(got) == sorted(grads)
        for name, g in got.items():
            assert np.isfinite(g).all(), name
            assert np.array_equal(g, grads[name]), name


def _two_cpus(monkeypatch, n: int = 2) -> None:
    monkeypatch.setattr(training, "_usable_cpus", lambda: n)


class TestShardedStep:
    """A step's batch runs as two shards, the second in a worker process
    when two CPUs are usable; the numbers must not depend on which."""

    @pytest.mark.parametrize("worker", [False, True], ids=["here", "worker"])
    @pytest.mark.parametrize("b_sz", [1, 2, 3, 16])
    @pytest.mark.parametrize("mode", [UNIDIRECTIONAL, BIDIRECTIONAL])
    def test_equals_one_graph(self, tiny_world, monkeypatch, mode, b_sz, worker):
        _, data, vocab, cfg = tiny_world
        cfg = replace(cfg, mode=mode)
        # full utterances and proportional truncations, alternating, so
        # both shards hold ragged frames and ragged labels
        pairs = [
            (u.frames, u.reference_tokens) if i % 2 == 0
            else make_partial_pair(u, 0.1 + 0.3 * i / b_sz)
            for i, u in enumerate(data[:b_sz])
        ]
        batch = make_batch(pairs, vocab, cfg.frame_dim)
        params = TinyTransformer(cfg, vocab).params
        pt = transformer.leaf_tensors(params)
        want_loss = transformer.training_loss(cfg, pt, batch, 0.1)
        want_loss = want_loss * (1.0 / max(batch["label_mask"].sum(), 1.0))
        want_loss.backward()
        _two_cpus(monkeypatch)
        with training._shard_worker() if worker else contextlib.nullcontext():
            loss, grads = batch_loss_and_grads(cfg, params, batch, 0.1)
        assert loss == pytest.approx(float(want_loss.data), rel=1e-12, abs=0)
        assert sorted(grads) == sorted(pt)
        for name, g in grads.items():
            np.testing.assert_allclose(
                g, pt[name].grad, rtol=1e-10, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("loop", ["train", "adapt"])
    def test_curve_bit_identical_on_one_cpu_or_two(
        self, tiny_world, monkeypatch, loop
    ):
        _, data, vocab, cfg = tiny_world
        blas = training._openblas()
        step = Adam.step
        children = []  # live child processes at each step

        def step_spy(self, grads, lr):
            children.append(len(multiprocessing.active_children()))
            step(self, grads, lr)

        monkeypatch.setattr(Adam, "step", step_spy)
        runs = []
        # one CPU; two; two with a BLAS whose threads cannot be reached
        for cpus, reach in ((1, blas), (2, blas), (2, None)):
            _two_cpus(monkeypatch, cpus)
            monkeypatch.setattr(training, "_openblas", lambda: reach)
            model = TinyTransformer(cfg, vocab)
            if loop == "train":
                runs.append(train(model, data, small_train_cfg()))
            else:
                runs.append(adapt(model, data[6:], small_train_cfg(), data[:4]))
            assert multiprocessing.active_children() == []  # the worker is joined
        (one, one_curve), *others = runs
        for other, other_curve in others:
            assert other_curve == one_curve
            for k in one.params:
                assert other.params[k].tobytes() == one.params[k].tobytes(), k
        # no worker on one CPU, one worker for the whole loop on two, and
        # none when the BLAS pool could not be held to one thread
        assert children == [0] * 8 + [1 if blas else 0] * 8 + [0] * 8

    def test_blas_held_to_one_thread_for_the_loop(self, tiny_world, monkeypatch):
        blas = training._openblas()
        if blas is None:
            pytest.skip("this numpy has no bundled OpenBLAS to ask")
        get, put = blas
        _, data, vocab, cfg = tiny_world
        step = Adam.step
        threads = []  # the calling process's BLAS threads at each step

        def step_spy(self, grads, lr):
            threads.append(get())
            step(self, grads, lr)

        monkeypatch.setattr(Adam, "step", step_spy)
        _two_cpus(monkeypatch)
        was = get()
        put(2)
        try:
            train(TinyTransformer(cfg, vocab), data, small_train_cfg())
            assert threads == [1] * 8
            assert get() == 2  # restored when the loop ends
        finally:
            put(was)

    def test_worker_error_reaches_caller(self, tiny_world, monkeypatch):
        # a label id past the vocabulary in the second shard only
        _, data, vocab, cfg = tiny_world
        batch = make_batch(
            [(u.frames, u.reference_tokens) for u in data[:4]], vocab, cfg.frame_dim)
        batch["labels"][3, 0] = 99
        params = TinyTransformer(cfg, vocab).params
        errors = []
        for cpus in (1, 2):
            _two_cpus(monkeypatch, cpus)
            with training._shard_worker():
                with pytest.raises(IndexError, match="index 99 is out of bounds") as e:
                    batch_loss_and_grads(cfg, params, batch, 0.1)
                # the pipe stays in step: the next call is answered
                good = dict(batch, labels=np.minimum(batch["labels"], 5))
                loss, _ = batch_loss_and_grads(cfg, params, good, 0.1)
            errors.append(str(e.value))
            assert math.isfinite(loss)
            # the report names the failing frame, from either process
            report = "".join(traceback.format_exception(e.value))
            assert "in _shard_loss_and_grads" in report
        assert errors[0] == errors[1]

    def test_bad_frame_mask_named_by_its_batch_row(self, tiny_world):
        _, data, vocab, cfg = tiny_world
        batch = make_batch(
            [(u.frames, u.reference_tokens) for u in data[:4]], vocab, cfg.frame_dim)
        batch["frame_mask"][3, 1] = 0.0  # a gap in the second shard's last row
        params = TinyTransformer(cfg, vocab).params
        with pytest.raises(ContractViolation, match="frame_mask row 3 is not"):
            batch_loss_and_grads(cfg, params, batch, 0.1)

    def test_worker_exits_on_close(self, monkeypatch):
        _two_cpus(monkeypatch)
        with training._shard_worker():
            (proc,) = multiprocessing.active_children()
        assert not proc.is_alive()
        assert proc.exitcode == 0  # it left its loop; it was not terminated

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("ending", ["returns", "raises", "diverges"])
    def test_no_process_outlives_train(self, tiny_world, monkeypatch, ending):
        _, data, vocab, cfg = tiny_world
        params = TinyTransformer(cfg, vocab).params
        if ending == "raises":  # make_batch refuses a frame width in the loop
            data = [data[0], data[1], replace(data[2], frames=data[2].frames[:, :3])]
        if ending == "diverges":
            k = sorted(params)[0]
            params = {**params, k: np.full_like(params[k], np.inf)}
        _two_cpus(monkeypatch)
        model = TinyTransformer(cfg, vocab, params)
        tcfg = small_train_cfg(total_steps=4, batch_size=2)
        if ending == "returns":
            train(model, data, tcfg)
        else:
            error, match = {"raises": (ConfigError, "frames of shape"),
                            "diverges": (RuntimeError, "diverged")}[ending]
            with pytest.raises(error, match=match):
                train(model, data, tcfg)
        assert multiprocessing.active_children() == []


class TestTrain:
    def test_in_place_normalize_trains_bit_identically(self, tiny_world, monkeypatch):
        # the buffer-reusing normalize runs the fresh-array formula's
        # operations in its order, so a seeded run keeps every bit
        _, data, vocab, cfg = tiny_world
        got, got_curve = train(TinyTransformer(cfg, vocab), data, small_train_cfg())
        monkeypatch.setattr(autodiff, "normalize", normalize_fresh)
        want, want_curve = train(TinyTransformer(cfg, vocab), data, small_train_cfg())
        assert got_curve == want_curve
        for k in want.params:
            assert got.params[k].tobytes() == want.params[k].tobytes(), k

    def test_loss_decreases_and_input_untouched(self, tiny_world):
        _, data, vocab, cfg = tiny_world
        model = TinyTransformer(cfg, vocab)
        before = {k: v.copy() for k, v in model.params.items()}
        trained, curve = train(model, data, small_train_cfg(total_steps=30))
        assert len(curve) == 30
        first = np.mean([l for _, l, _ in curve[:5]])
        last = np.mean([l for _, l, _ in curve[-5:]])
        assert last < first
        for k in before:
            np.testing.assert_array_equal(model.params[k], before[k])
        assert any(
            np.any(trained.params[k] != before[k]) for k in before
        )

    def test_seeded_runs_identical(self, tiny_world):
        _, data, vocab, cfg = tiny_world
        a, ca = train(TinyTransformer(cfg, vocab), data, small_train_cfg())
        b, cb = train(TinyTransformer(cfg, vocab), data, small_train_cfg())
        assert ca == cb
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_different_seed_differs(self, tiny_world):
        _, data, vocab, cfg = tiny_world
        a, _ = train(TinyTransformer(cfg, vocab), data, small_train_cfg())
        b, _ = train(
            TinyTransformer(cfg, vocab), data, small_train_cfg(seed=9)
        )
        assert any(np.any(a.params[k] != b.params[k]) for k in a.params)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_raises(self, tiny_world):
        _, data, vocab, cfg = tiny_world
        params = TinyTransformer(cfg, vocab).params
        k = sorted(params)[0]
        model = TinyTransformer(
            cfg, vocab, {**params, k: np.full_like(params[k], np.inf)})
        with pytest.raises(RuntimeError):
            train(model, data, small_train_cfg(total_steps=2))

    def test_empty_dataset_rejected(self, tiny_world):
        _, _, vocab, cfg = tiny_world
        with pytest.raises(ConfigError):
            train(TinyTransformer(cfg, vocab), [], small_train_cfg())


class TestTokenErrorRate:
    def test_oracle_model_scores_zero(self, stable_model, small_corpus):
        assert token_error_rate(stable_model, small_corpus[:4]) == 0.0

    def test_oracle_scores_zero_above_eight_tokens_per_second(self):
        """A translation task at about 14 tokens/s: the decode's length cap
        must not cut the exact oracle's output short."""
        spec = SyntheticTaskSpec(
            vocab_size=8, min_tokens=2, max_tokens=3, min_frames_per_token=6,
            max_frames_per_token=8, frame_dim=4, translation=True,
        )
        data = gen_dataset(spec, 16, 5)
        oracle = SyntheticAlignedModel.from_task(
            spec, 16, 5, instability_frames=0
        )
        assert token_error_rate(oracle, data) == 0.0

    def test_untrained_model_scores_high(self, tiny_world):
        _, data, vocab, cfg = tiny_world
        model = TinyTransformer(cfg, vocab)
        assert token_error_rate(model, data[:4]) > 0.2


class TestAdapt:
    def test_never_worse_than_start_on_dev(self, tiny_world):
        _, data, vocab, cfg = tiny_world
        model = TinyTransformer(cfg, vocab)
        dev = data[:6]
        pre = token_error_rate(model, dev)
        adapted, curve = adapt(
            model, data[6:], small_train_cfg(eval_every=2), dev
        )
        assert len(curve) == 8
        assert token_error_rate(adapted, dev) <= pre

    def test_dev_ter_is_of_that_steps_params(self, monkeypatch):
        """Each dev error rate adapt measures is that of a model built fresh
        from the parameters after that step, on a weight set derived from
        them, not a stale one."""
        model = load_model(str(FIXTURES / "bidi.bin"))
        cfg, vocab = model.cfg, model.vocab
        data = gen_dataset(SyntheticTaskSpec(), 14, seed=77)
        after = {0: dict(model.params)}  # step -> the parameters after it
        seen = []  # (evaluated model, its measured error rate)
        step, ter = Adam.step, training.token_error_rate

        def step_spy(self, grads, lr):
            step(self, grads, lr)
            after[self.t] = {k: v.copy() for k, v in self.params.items()}

        def ter_spy(m, utts):
            seen.append((m, ter(m, utts)))
            return seen[-1][1]

        monkeypatch.setattr(Adam, "step", step_spy)
        monkeypatch.setattr(training, "token_error_rate", ter_spy)
        dev = data[:6]
        # a rate high enough that the dev error rate moves between checks
        tcfg = small_train_cfg(learning_rate=0.03, total_steps=6, eval_every=2)
        adapt(model, data[6:], tcfg, dev)
        assert len(seen) == 4
        for s, (m, got) in zip((0, 2, 4, 6), seen):
            for k, v in after[s].items():
                np.testing.assert_array_equal(m.params[k], v)
            want = transformer.fold(cfg, after[s])
            for name, parts in want.items():
                for a, b in zip(*(x if isinstance(x, tuple) else (x,)
                                  for x in (parts, m.weights[name]))):
                    np.testing.assert_array_equal(a, b, err_msg=name)
            assert got == ter(TinyTransformer(cfg, vocab, after[s]), dev)
        assert len({got for _, got in seen}) == 4

    def test_learning_rate_scaled(self, tiny_world):
        _, data, vocab, cfg = tiny_world
        model = TinyTransformer(cfg, vocab)
        tcfg = small_train_cfg(total_steps=4)
        _, curve = adapt(model, data[6:], tcfg, data[:4])
        for step, _, lr in curve:
            assert lr == pytest.approx(lr_at(step, tcfg) * ADAPT_LR_FACTOR)

    def test_seeded_adapt_identical(self, tiny_world):
        _, data, vocab, cfg = tiny_world
        model = TinyTransformer(cfg, vocab)
        a, _ = adapt(model, data[6:], small_train_cfg(), data[:4])
        b, _ = adapt(model, data[6:], small_train_cfg(), data[:4])
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_requires_dev_and_data(self, tiny_world):
        _, data, vocab, cfg = tiny_world
        model = TinyTransformer(cfg, vocab)
        with pytest.raises(ConfigError):
            adapt(model, [], small_train_cfg(), data[:4])
        with pytest.raises(ConfigError):
            adapt(model, data, small_train_cfg(), [])


class TestRecipe:
    """The adaptation recipe is constants that both loops read."""

    def test_values_are_the_readmes(self):
        assert LABEL_SMOOTHING == 0.1
        assert PARTIAL_RATIOS == (0.1, 0.4)
        assert ADAPT_LR_FACTOR == 0.25

    @pytest.mark.parametrize("loop", ["train", "adapt"])
    def test_every_step_smooths_by_the_constant(self, tiny_world, monkeypatch, loop):
        _, data, vocab, cfg = tiny_world
        seen = []
        grads = training.batch_loss_and_grads

        def spy(model_cfg, params, batch, label_smoothing):
            seen.append(label_smoothing)
            return grads(model_cfg, params, batch, label_smoothing)

        monkeypatch.setattr(training, "batch_loss_and_grads", spy)
        model = TinyTransformer(cfg, vocab)
        if loop == "train":
            train(model, data, small_train_cfg())
        else:
            adapt(model, data[6:], small_train_cfg(), data[:4])
        assert seen == [LABEL_SMOOTHING] * 8

    def test_adapt_draws_ratios_from_the_range(self, tiny_world, monkeypatch):
        _, data, vocab, cfg = tiny_world
        ratios = []
        cut = training.make_partial_pair

        def spy(utt, p):
            ratios.append(p)
            return cut(utt, p)

        monkeypatch.setattr(training, "make_partial_pair", spy)
        adapt(TinyTransformer(cfg, vocab), data[6:], small_train_cfg(), data[:4])
        low, high = PARTIAL_RATIOS
        # 2 partial pairs per step of a batch of 4, each its own draw
        assert len(ratios) == 2 * 8
        assert all(low <= p <= high for p in ratios)
        assert len(set(ratios)) == len(ratios)


@pytest.fixture(scope="module")
def translation_world():
    spec = SyntheticTaskSpec(
        vocab_size=8, min_tokens=2, max_tokens=3, min_frames_per_token=6,
        max_frames_per_token=8, frame_dim=4, noise_std=0.05, world_seed=2,
        translation=True,
    )
    data = gen_dataset(spec, 16, seed=33)
    vocab = task_vocab(spec)
    cfg = TransformerConfig(
        frame_dim=4, vocab_size=len(vocab), d_model=8, heads=2, ff_dim=12,
        enc_layers=1, dec_layers=1, mode=UNIDIRECTIONAL, init_seed=7,
    )
    return spec, data, vocab, cfg


class TestTranslation:
    """Train, adapt and scoring read each utterance's target side."""

    def test_oracle_scores_zero(self):
        # the default frames per token keep the tokens under the beam's
        # tokens-per-second cap, so the oracle's offline decode is exact
        spec = SyntheticTaskSpec(translation=True)
        data = gen_dataset(spec, 6, seed=33)
        oracle = SyntheticAlignedModel.from_task(spec, 6, seed=33)
        assert token_error_rate(oracle, data) == 0.0

    def test_train_and_adapt_batch_target_tokens(
        self, translation_world, monkeypatch
    ):
        _, data, vocab, cfg = translation_world
        seen: list[tuple[str, ...]] = []
        make = training.make_batch

        def spy(pairs, *args):
            seen.extend(toks for _, toks in pairs)
            return make(pairs, *args)

        monkeypatch.setattr(training, "make_batch", spy)
        model, curve = train(TinyTransformer(cfg, vocab), data, small_train_cfg())
        assert len(curve) == 8
        adapted, curve = adapt(model, data[4:], small_train_cfg(), data[:4])
        assert len(curve) == 8
        assert all(math.isfinite(loss) for _, loss, _ in curve)
        assert 0.0 <= token_error_rate(adapted, data[:4]) <= 1.0
        targets = {u.target_tokens for u in data}
        # 8 full pairs per train step, 2 full and 2 partial per adapt step
        assert len(seen) == 8 * 4 + 8 * 4
        assert all(t in targets for t in seen[:32])
        assert all(tok.startswith("v") for t in seen for tok in t)


class TestCurveFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        write_curve([(1, 2.5, 1e-4), (2, 2.25, 2e-4)], path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "step,loss,lr"
        step, loss, lr = lines[1].split(",")
        assert int(step) == 1
        assert float(loss) == pytest.approx(2.5)
        assert float(lr) == pytest.approx(1e-4)
