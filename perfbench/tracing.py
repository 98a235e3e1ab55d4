"""In-memory span tracer for the benchmark's traced runs.

While installed, the tracer swaps module and class attributes of rirkit for
timing wrappers around its public functions and methods; nothing under
``src/`` is edited. Each span records its name, start, end, parent span,
phase ("setup", "warmup" or "loop") and item id (the generator step, sampler try or
utterance it belongs to). Spans stay in memory until ``write_spans`` runs at
the end of the benchmark.

Convolution layers also accumulate FLOPs and bytes computed from the shapes
of each call, so the traced run can report achieved GFLOP/s per layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from collections import defaultdict

_CLOCK = time.perf_counter


def conv_counts(kernel: int, x_shape, y_shape, backward: bool, param_grads: bool):
    """FLOPs and compulsory float32 bytes of one Conv1d/ConvTranspose1d call,
    computed from shapes. ``x_shape``/``y_shape`` are the layer's forward
    input and output shapes, (batch, time, channels).

    A multiply-add counts as 2 FLOPs. Forward reads input and weights and
    writes output. Backward reads the output gradient and weights and writes
    the input gradient; with parameter gradients it also reads the input and
    writes the weight gradient. Temporaries such as im2col buffers are not
    counted, so the figures do not change when the implementation does.
    """
    b, t_in, c_in = x_shape
    _, t_out, c_out = y_shape
    # the kernel is applied once per output step of a strided convolution
    # and once per input step of a transposed one
    macs = b * min(t_in, t_out) * c_in * c_out * kernel
    x_n, y_n, w_n = b * t_in * c_in, b * t_out * c_out, kernel * c_in * c_out
    if not backward:
        return 2 * macs, 4 * (x_n + w_n + y_n)
    if param_grads:
        return 4 * macs, 4 * (y_n + w_n + x_n + x_n + w_n)
    return 2 * macs, 4 * (y_n + w_n + x_n)


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase, item]
        self.kernels: dict[str, list[float]] = defaultdict(lambda: [0, 0, 0.0])
        self.counters: dict[tuple[str, str], float] = defaultdict(float)  # (phase, name)
        self.phase = "setup"
        self.item = -1
        self.active = False
        # load_wav calls on these paths open a new utterance (augment)
        self.utterance_paths: set[str] = set()
        self._next_item = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.problems: list[str] = []  # trace targets that could not be patched
        self._boundary: float | None = None

    # ------------------------------------------------------------ recording

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _CLOCK(), 0.0, parent, self.phase, self.item])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        t = _CLOCK()
        self.spans[idx][2] = t
        self._stack.pop()
        return t - self.spans[idx][1]

    def start_loop(self) -> None:
        self.phase = "loop"
        self.item = 0
        self._next_item = 0
        self._boundary = None

    def mark_boundary(self) -> None:
        """Open a generator-step interval (called as a train() chunk starts)."""
        self._boundary = _CLOCK()

    def _retro_span(self, name: str, start: float, end: float) -> None:
        """Record [start, end] after the fact and adopt every span that
        started inside it under the same parent. Spans are stored in start
        order, so the scan stops at the first earlier span."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, start, end, parent, self.phase, self.item])
        for j in range(idx - 1, -1, -1):
            s = self.spans[j]
            if s[1] < start:
                break
            if s[3] == parent:
                s[3] = idx

    def _new_item(self) -> None:
        self.item = self._next_item
        self._next_item += 1

    # ------------------------------------------------------------ patching

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            if name is None:
                result = fn(*args, **kwargs)
                dt = 0.0
            else:
                idx = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = self.end(idx)
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        return traced

    def _patch(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace owner.attr by a traced wrapper until uninstall(). A missing
        target is recorded in ``problems``, which makes the run incorrect:
        its metrics would otherwise read 0, as if the layer had become free.
        A method a class inherits is patched on that class and removed again
        by uninstall()."""
        original = getattr(owner, attr, None)
        if original is None:
            self.problems.append(f"trace target {getattr(owner, '__name__', owner)}.{attr} "
                                 "is missing")
            return
        own = attr in vars(owner)
        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, self._wrap(name, original, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def install(self) -> None:
        """Patch every layer boundary the per-layer metrics read. The
        wrappers record nothing until ``active`` is set."""
        import rirkit.acoustics as acoustics
        import rirkit.audio as audio
        import rirkit.augment as augment
        import rirkit.corpus as corpus
        import rirkit.gan.checkpoint as checkpoint
        import rirkit.gan.nets as nets
        import rirkit.gan.training as training
        import rirkit.sampler as sampler

        for owner, attr, name in (
            (acoustics, "energy_decay_curve", "acoustics.edc"),
            (acoustics, "estimate_t60", "acoustics.t60"),
            (acoustics, "estimate_edt", "acoustics.edt"),
            (acoustics, "estimate_drr", "acoustics.drr"),
            (acoustics, "estimate_cte", "acoustics.cte"),
            (sampler, "analyze", "acoustics.analyze"),
            (training, "sample_latent", "gan.sample_latent"),
            (training, "clip_weights", "gan.training.clip"),
            (training.RMSProp, "step", "gan.training.rmsprop"),
            (checkpoint, "load_checkpoint", "gan.checkpoint.load"),
            (audio, "resample", "audio.resample"),
            (audio, "to_rir", "audio.to_rir"),
            (augment, "resample", "audio.resample"),
            (augment, "convolve", "audio.convolve"),
            (augment, "mix", "augment.mix"),
            (augment, "looped_noise", "augment.looped_noise"),
            (augment, "compute_alpha", "augment.compute_alpha"),
            (corpus, "read_pool_csv", "corpus.read_pool_csv"),
        ):
            self._patch(owner, attr, name)

        def count_bytes(key, path_arg):
            def after(args, kwargs, result, dt):
                self.counters[(self.phase, key)] += os.path.getsize(args[path_arg])
            return after

        def save_wav_done(args, kwargs, result, dt):
            count_bytes("audio.save_wav_bytes", 1)(args, kwargs, result, dt)
            if self.phase == "loop" and self._boundary is not None:
                self._retro_span("augment.utt", self._boundary, _CLOCK())
                self._boundary = None

        def utterance_start(args):
            if self.phase == "loop" and str(args[0]) in self.utterance_paths:
                self._new_item()
                self._boundary = _CLOCK()

        for owner in (audio, augment):
            self._patch(owner, "load_wav", "audio.load_wav", utterance_start,
                        count_bytes("audio.load_wav_bytes", 0))
        self._patch(audio, "save_wav", "audio.save_wav",
                    after=count_bytes("audio.save_wav_bytes", 1))
        self._patch(augment, "save_wav", "audio.save_wav", after=save_wav_done)
        self._patch(training, "save_checkpoint", "gan.checkpoint.save",
                    after=count_bytes("gan.checkpoint.save_bytes", 1))

        def count_relaxed(args, kwargs, result, dt):
            self.counters[(self.phase, "sampler.relaxed")] += bool(getattr(result, "relaxed", False))

        self._patch(sampler, "accept", "sampler.accept", after=count_relaxed)

        # each sampler try starts with one latent draw
        self._patch(nets, "sample_latent", "gan.sample_latent",
                    before=lambda args: self._new_item() if self.phase == "loop" else None)

        def step_done(args, kwargs, result, dt):
            # train() appends one log row as each generator step ends
            now = _CLOCK()
            start = self._boundary if self._boundary is not None else now
            self._retro_span("gan.training.step", start, now)
            self.item += 1
            self._boundary = now

        self._patch(training, "LogRow", None, after=step_done)

        for cls, role in ((nets.Generator, "generator"), (nets.Critic, "critic")):
            self._patch(cls, "forward", f"gan.{role}.forward")
            self._patch(cls, "backward", f"gan.{role}.backward")
            self._patch(cls, "__init__", None,
                        after=lambda args, kwargs, result, dt, role=role:
                        self._wrap_layers(args[0], role))

    def _wrap_layers(self, net, role: str) -> None:
        """Give every layer of a freshly built net its own fwd/bwd spans."""
        from rirkit.gan import layers as L

        names = {L.Dense: "dense", L.PhaseShuffle: "phase_shuffle",
                 L.LeakyReLU: "leaky_relu", L.ReLU: "act", L.Tanh: "act"}
        stack = next((v for v in vars(net).values() if isinstance(v, list) and v
                      and all(isinstance(x, L.Layer) for x in v)), [])
        convs = 0
        for layer in stack:
            kind = type(layer)
            if kind in (L.Conv1d, L.ConvTranspose1d):
                convs += 1
                base = f"gan.{role}.{'conv' if kind is L.Conv1d else 'tconv'}{convs}"
                layer.forward = self._wrap(base + ".fwd", layer.forward,
                                           after=self._conv_hook(layer, base, False))
                layer.backward = self._wrap(base + ".bwd", layer.backward,
                                            after=self._conv_hook(layer, base, True))
            elif kind in names:
                base = f"gan.{role}.{names[kind]}"
                layer.forward = self._wrap(base + ".fwd", layer.forward)
                layer.backward = self._wrap(base + ".bwd", layer.backward)
        if convs == 0:
            self.problems.append(f"no convolution layers found in the {role}")

    def _conv_hook(self, layer, base: str, backward: bool):
        key = base + (".bwd" if backward else ".fwd")

        def after(args, kwargs, result, dt):
            if self.phase != "loop":
                return
            if backward:
                grads = kwargs.get("param_grads", args[1] if len(args) > 1 else True)
                counts = conv_counts(layer.kernel, result.shape, args[0].shape,
                                     True, bool(grads))
            else:
                counts = conv_counts(layer.kernel, args[0].shape, result.shape,
                                     False, False)
            acc = self.kernels[key]
            acc[0] += counts[0]
            acc[1] += counts[1]
            acc[2] += dt

        return after

    # ------------------------------------------------------------ summaries

    def totals(self) -> dict[tuple[str, str], list[float]]:
        """(name, phase) -> [calls, inclusive seconds, self seconds]. Self
        time is a span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, s in enumerate(self.spans):
            acc = out[(s[0], s[4])]
            dur = s[2] - s[1]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child_time[i]
        return out

    def durations(self, name: str, phase: str = "loop") -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4] == phase]

    def write_spans(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                    "parent": s[3], "phase": s[4], "item": s[5]}) + "\n")
