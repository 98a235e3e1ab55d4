import numpy as np
import pytest

from rirkit.gan import (
    Critic,
    Generator,
    TrainConfig,
    TrainingDivergedError,
    clip_weights,
    critic_loss,
    generator_loss,
    load_checkpoint,
    sample_latent,
    save_checkpoint,
    train,
)
import rirkit.gan.training as train_mod


class TestLatent:
    def test_seeded_determinism(self):
        a = sample_latent(np.random.default_rng(5))
        b = sample_latent(np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (100,)

    def test_support(self):
        z = sample_latent(np.random.default_rng(0), n=200)
        assert z.shape == (200, 100)
        assert np.all(z >= -1.0) and np.all(z <= 1.0)

    def test_per_dimension_mean(self):
        z = sample_latent(np.random.default_rng(1), n=10000)
        means = z.mean(axis=0)
        assert np.all(np.abs(means) < 0.05)  # 3 sigma for Uniform[-1,1], n=1e4

    def test_gaussian_option(self):
        z = sample_latent(np.random.default_rng(2), n=5000, dist="gaussian")
        assert abs(z.std() - 1.0) < 0.05
        with pytest.raises(ValueError):
            sample_latent(np.random.default_rng(0), dist="cauchy")


class TestForward:
    def test_generator_output_contract(self):
        for d in (1, 2, 4):
            gen = Generator(d=d, rng=np.random.default_rng(d))
            out = gen.forward(sample_latent(np.random.default_rng(0), n=2))
            assert out.shape == (2, 16384)
            assert np.all(np.abs(out) < 1.0)

    def test_generator_deterministic(self):
        gen = Generator(d=1, rng=np.random.default_rng(3))
        z = sample_latent(np.random.default_rng(4))
        np.testing.assert_array_equal(gen.forward(z), gen.forward(z))

    def test_generator_sensitive_to_latent(self):
        gen = Generator(d=1, rng=np.random.default_rng(3))
        z = sample_latent(np.random.default_rng(4))
        z2 = z.copy()
        z2[17] += 0.25
        assert np.max(np.abs(gen.forward(z) - gen.forward(z2))) > 0

    def test_critic_seeded_repeatable(self):
        crit = Critic(d=1, rng=np.random.default_rng(5))
        x = np.random.default_rng(6).uniform(-1, 1, (2, 16384)).astype(np.float32)
        s1 = crit.forward(x, rng=np.random.default_rng(7))
        s2 = crit.forward(x, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(s1, s2)

    def test_critic_eval_mode_no_shuffle(self):
        crit = Critic(d=1, shuffle_radius=2, rng=np.random.default_rng(5))
        x = np.random.default_rng(6).uniform(-1, 1, (1, 16384)).astype(np.float32)
        np.testing.assert_array_equal(crit.forward(x), crit.forward(x))

    def test_critic_zero_head_scores_zero(self):
        crit = Critic(d=1, rng=np.random.default_rng(8))
        for layer, _, arr in crit.named_params():
            if layer == "dense":
                arr[...] = 0
        x = np.random.default_rng(9).uniform(-1, 1, (3, 16384)).astype(np.float32)
        np.testing.assert_array_equal(crit.forward(x), np.zeros(3, dtype=np.float32))

    def test_critic_length_check(self):
        crit = Critic(d=1, rng=np.random.default_rng(5))
        with pytest.raises(ValueError):
            crit.forward(np.zeros((1, 100), dtype=np.float32))


class TestLosses:
    def test_critic_loss_values(self):
        assert critic_loss([1.0, 1.0], [0.0, 0.0]) == -1.0
        assert critic_loss([0.5, 1.5], [0.5, 1.5]) == 0.0
        assert critic_loss([2.0], [5.0]) == 3.0

    def test_generator_loss_values(self):
        assert generator_loss([0.0, 0.0]) == 0.0
        assert generator_loss([1.0, 3.0]) == -2.0

    def test_loss_identities(self):
        rng = np.random.default_rng(0)
        real = rng.normal(size=8)
        fake = rng.normal(size=8)
        # generator loss plus the critic's fake term cancel
        assert generator_loss(fake) + (critic_loss(real, fake) + real.mean()) == pytest.approx(0)
        # antisymmetry
        assert critic_loss(real, fake) == pytest.approx(-critic_loss(fake, real))

    def test_empty_batches_rejected(self):
        with pytest.raises(ValueError):
            critic_loss([], [1.0])
        with pytest.raises(ValueError):
            generator_loss([])


class TestClip:
    def test_clamps(self):
        crit = Critic(d=1, rng=np.random.default_rng(1))
        w = next(arr for layer, pname, arr in crit.named_params()
                 if (layer, pname) == ("conv1", "W"))
        w[...] = np.linspace(-0.5, 0.5, 25).reshape(25, 1, 1)
        clip_weights(crit, 0.01)
        for arr in crit.param_arrays():
            assert np.max(np.abs(arr)) <= 0.01

    def test_no_op_within_bound_and_idempotent(self):
        crit = Critic(d=1, rng=np.random.default_rng(2))
        clip_weights(crit, 0.01)
        snap = [a.copy() for a in crit.param_arrays()]
        clip_weights(crit, 0.01)
        for a, b in zip(crit.param_arrays(), snap):
            np.testing.assert_array_equal(a, b)

    def test_example_values(self):
        w = np.float32([-0.5, 0.005, 0.2])
        np.testing.assert_allclose(np.clip(w, -0.01, 0.01), [-0.01, 0.005, 0.01])


def tiny_dataset(n=8, seed=0):
    rng = np.random.default_rng(seed)
    fs, length = 16000, 16384
    t = np.arange(length)
    out = []
    for t60 in np.linspace(0.2, 0.8, n):
        h = rng.standard_normal(length) * 10.0 ** (-3.0 * t / (fs * t60))
        h[0] = 1.0
        out.append(h / np.max(np.abs(h)))
    return np.stack(out).astype(np.float32)


class TestTrainLoop:
    def test_critic_update_accounting(self, monkeypatch):
        cfg = TrainConfig(steps=10, batch_size=2, n_critic=5, d=1, rng_seed=0,
                          checkpoint_every=0)
        clips = []
        monkeypatch.setattr(train_mod, "clip_weights",
                            lambda net, c: clips.append(c) or clip_weights(net, c))
        res = train(tiny_dataset(), cfg)
        assert len(clips) == 50
        assert len(res.log) == 10
        assert [r.step for r in res.log] == list(range(1, 11))

    def test_seeded_training_bit_reproducible(self):
        cfg = TrainConfig(steps=3, batch_size=2, d=1, rng_seed=7, checkpoint_every=0)
        data = tiny_dataset()
        r1 = train(data, cfg)
        r2 = train(data, cfg)
        for a, b in zip(r1.model.generator.param_arrays(),
                        r2.model.generator.param_arrays()):
            assert np.array_equal(a, b)
        for a, b in zip(r1.model.critic.param_arrays(),
                        r2.model.critic.param_arrays()):
            assert np.array_equal(a, b)
        assert [r.wasserstein_estimate for r in r1.log] == \
               [r.wasserstein_estimate for r in r2.log]

    def test_clip_enforced_after_training(self):
        cfg = TrainConfig(steps=2, batch_size=2, d=1, rng_seed=1, checkpoint_every=0)
        res = train(tiny_dataset(), cfg)
        for arr in res.model.critic.param_arrays():
            assert np.max(np.abs(arr)) <= cfg.clip_c

    def test_generator_output_in_range_during_training(self):
        cfg = TrainConfig(steps=5, batch_size=2, d=1, rng_seed=2, checkpoint_every=0)
        res = train(tiny_dataset(), cfg)
        out = res.model.generator.forward(
            sample_latent(np.random.default_rng(0), n=4))
        assert out.shape == (4, 16384)
        assert np.all(np.abs(out) < 1.0)

    def test_divergence_aborts_with_step(self, monkeypatch):
        def bad_loss(real, fake):
            return float("nan")

        monkeypatch.setattr(train_mod, "critic_loss", bad_loss)
        cfg = TrainConfig(steps=2, batch_size=2, d=1, rng_seed=0, checkpoint_every=0)
        with pytest.raises(TrainingDivergedError) as err:
            train(tiny_dataset(), cfg)
        assert err.value.step == 1

    def test_log_csv_and_checkpoints(self, tmp_path):
        cfg = TrainConfig(steps=4, batch_size=2, d=1, rng_seed=3, checkpoint_every=2)
        train(tiny_dataset(), cfg, out_dir=tmp_path)
        log = (tmp_path / "training_log.csv").read_text().splitlines()
        assert log[0] == "step,critic_loss,generator_loss,wasserstein_estimate"
        assert len(log) == 5
        assert (tmp_path / "checkpoint_000002.gan").exists()
        assert (tmp_path / "checkpoint_000004.gan").exists()
        assert (tmp_path / "checkpoint_final.gan").exists()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(steps=1, clip_c=0.0)
        with pytest.raises(ValueError):
            TrainConfig(steps=1, n_critic=0)
        with pytest.raises(ValueError):
            TrainConfig(steps=1, shuffle_radius=-1)
        with pytest.raises(ValueError):
            TrainConfig(steps=1, learning_rate=float("nan"))

    @pytest.mark.parametrize("field, value", [
        ("steps", 1.5), ("steps", True), ("batch_size", "8"), ("n_critic", 5.0),
        ("d", None), ("rng_seed", 0.5), ("shuffle_radius", False),
        ("checkpoint_every", 1e2), ("learning_rate", "5e-5"), ("clip_c", True),
        ("clip_c", None),
    ])
    def test_config_rejects_mistyped_fields(self, field, value):
        with pytest.raises(TypeError, match=rf"^{field} must be"):
            TrainConfig(**{"steps": 1, field: value})

    def test_config_accepts_numpy_scalars(self):
        cfg = TrainConfig(steps=np.int64(2), learning_rate=np.float32(1e-4), clip_c=1)
        assert cfg.steps == 2


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(steps=2, batch_size=2, d=2, rng_seed=9, checkpoint_every=0)
        res = train(tiny_dataset(), cfg)
        path = tmp_path / "model.gan"
        save_checkpoint(res.model, path)
        loaded = load_checkpoint(path)
        assert loaded.d == 2 and loaded.step == 2 and loaded.seed == 9
        for a, b in zip(res.model.generator.param_arrays(),
                        loaded.generator.param_arrays()):
            np.testing.assert_array_equal(a, b)
        z = sample_latent(np.random.default_rng(1), n=2)
        np.testing.assert_array_equal(res.model.generator.forward(z),
                                      loaded.generator.forward(z))

    def test_magic_bytes(self, tmp_path):
        cfg = TrainConfig(steps=1, batch_size=2, d=1, rng_seed=0, checkpoint_every=0)
        res = train(tiny_dataset(), cfg)
        path = tmp_path / "m.gan"
        save_checkpoint(res.model, path)
        assert path.read_bytes()[:7] == b"IRGAN01"

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.gan"
        p.write_bytes(b"definitely not a checkpoint")
        from rirkit.gan import CheckpointError
        with pytest.raises(CheckpointError):
            load_checkpoint(p)
