"""The benchmark's tracer patches rirkit functions by name; a rename would
silently drop their per-layer metrics. Install it, build both nets, and check
that every target was found and that uninstall restores the originals."""

import importlib.util
from pathlib import Path

import numpy as np

import rirkit.acoustics as acoustics
import rirkit.audio as audio
import rirkit.augment as augment
import rirkit.corpus as corpus
import rirkit.gan.checkpoint as checkpoint
import rirkit.gan.nets as nets
import rirkit.gan.training as training
import rirkit.sampler as sampler
from rirkit.gan.layers import Conv1d, ConvTranspose1d

from conftest import exp_decay, exp_decay_rir

OWNERS = (acoustics, audio, augment, corpus, checkpoint, nets, training, sampler,
          nets.Generator, nets.Critic, training.RMSProp)


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_exist_and_uninstall_restores():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.active = True
        gen, crit = nets.Generator(1), nets.Critic(1)
        assert tracer.problems == []
        convs = [layer for net in (gen, crit) for layer in net._stack
                 if isinstance(layer, (Conv1d, ConvTranspose1d))]
        assert len(convs) == 10
        assert all("forward" in vars(c) and "backward" in vars(c) for c in convs)
        scores = crit.forward(gen.forward(np.zeros((1, nets.LATENT_DIM))))
        crit.backward(np.ones_like(scores))
        names = {span[0] for span in tracer.spans}
        assert {"gan.generator.forward", "gan.generator.tconv5.fwd",
                "gan.critic.conv1.fwd", "gan.critic.conv1.bwd",
                "gan.critic.backward"} <= names
    finally:
        tracer.uninstall()
    for owner, snapshot in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == snapshot.keys(), owner
        assert all(now[k] is v for k, v in snapshot.items()), owner


def test_analyze_traces_one_decay_curve():
    """One sampler.analyze call builds one decay curve and hands it to the
    four estimators, each of which the tracer sees as a child span."""
    rir = exp_decay_rir(0.5)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.active = True
        sampler.analyze(rir)
    finally:
        tracer.uninstall()
    assert tracer.problems == []
    names = [span[0] for span in tracer.spans]
    assert names.count("acoustics.analyze") == 1
    top = names.index("acoustics.analyze")
    children = sorted(span[0] for span in tracer.spans if span[3] == top)
    assert children == sorted(names[:top] + names[top + 1:])
    assert children == ["acoustics.cte", "acoustics.drr", "acoustics.edc",
                        "acoustics.edt", "acoustics.t60"]


class _DecayGenerator:
    """Maps each latent row to an exponential decay, T60 = 0.5 + 2 mean(z) s."""

    def forward(self, z):
        return np.stack([exp_decay(0.5 + 2.0 * row.mean()) for row in z]).astype(np.float32)


class _DecayModel:
    generator = _DecayGenerator()


def test_generate_traces_one_latent_draw_per_try():
    """The benchmark counts generate's tries by its gan.sample_latent spans,
    so each try, accepted or rejected, must draw its own latent."""
    hists = sampler.build_histograms(
        [sampler.analyze(exp_decay_rir(t)) for t in np.linspace(0.45, 0.7, 8)])
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.active = True
        _, report = sampler.generate_constrained(
            _DecayModel(), hists, 3, sampler.SamplerConfig(relax_prob=0.0, rng_seed=1))
    finally:
        tracer.uninstall()
    assert tracer.problems == []
    assert report.tries > report.accepted == 3
    names = [span[0] for span in tracer.spans]
    assert names.count("gan.sample_latent") == report.tries


def test_train_traces_one_step_span_per_generator_step():
    """The benchmark closes a gan.training.step span at each LogRow that
    train() makes and counts critic updates by gan.training.clip spans. A
    lookup that bound the patched names early would record neither."""
    cfg = training.TrainConfig(steps=3, batch_size=2, n_critic=2, d=1,
                               checkpoint_every=0)
    data = np.stack([exp_decay(t) for t in (0.3, 0.5, 0.7)])
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.mark_boundary()
        training.train(data, cfg)
    finally:
        tracer.uninstall()
    assert tracer.problems == []
    steps = [i for i, span in enumerate(tracer.spans) if span[0] == "gan.training.step"]
    assert len(steps) == cfg.steps
    for i in steps:
        clips = [s for s in tracer.spans if s[0] == "gan.training.clip" and s[3] == i]
        assert len(clips) == cfg.n_critic
