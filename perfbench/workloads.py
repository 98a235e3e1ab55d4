"""The three benchmark workloads.

Each workload has three parts:

* ``synthesize`` builds its inputs from the workload seed. It runs in a child
  process (see synth.py), so neither its time nor its memory is counted.
* ``setup`` is the program's one-off cost before the loop, made of the same
  public calls, in the same order, as the matching ``rirkit`` subcommand.
* ``run_chunk`` is one closed-loop unit of work, and ``check_chunk`` checks
  its outputs afterwards, outside the timed region. The runner may replace
  the state by a fresh ``setup`` between chunks, so what the checks carry
  from chunk to chunk lives in a separate ``memo`` dict.

All paths are relative to the checkout root, so manifests and digests do not
depend on where the checkout lives.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rirkit import acoustics, audio, augment, corpus, sampler
from rirkit.gan import checkpoint as gan_checkpoint
from rirkit.gan import nets, training

F32_EPS = float(np.finfo(np.float32).eps)


@dataclass
class ChunkCheck:
    """What one checked chunk contributes to the run's totals."""

    ops: float = 0.0  # units of the throughput metric
    items: int = 0  # generator steps, sampler tries or utterances
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def noise_carrier_rir(t60: float, n: int, rate: int, rng: np.random.Generator) -> np.ndarray:
    """Exponentially decaying Gaussian noise with a direct-path spike, the
    synthetic RIR family of the acceptance fixtures."""
    env = 10.0 ** (-3.0 * np.arange(n) / (rate * t60))
    h = rng.standard_normal(n) * env
    h[0] = 1.0
    return (h / np.max(np.abs(h))).astype(np.float32)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1))


# ---------------------------------------------------------------- train-d4

class TrainD4:
    """WGAN training at d=4, batch 8, n_critic=5, shuffle radius 2 (the
    tier-1 configuration). A chunk is one ``train`` call of STEPS generator
    steps from the seeded initialisation, so every chunk of a run must write
    a byte-identical final checkpoint."""

    name = "train-d4"
    alias = ("train.steps_per_s", "1/s")
    POOL = 64
    STEPS = 4
    CONFIG = {"steps": STEPS, "batch_size": 8, "d": 4, "n_critic": 5,
              "shuffle_radius": 2, "checkpoint_every": 2}

    def synthesize(self, seed: int, indir: Path) -> None:
        rng = np.random.default_rng([seed, 0])
        (indir / "pool").mkdir(parents=True)
        rows = []
        for i, t60 in enumerate(rng.permutation(np.linspace(0.2, 0.8, self.POOL))):
            path = indir / "pool" / f"rir_{i:03d}.wav"
            samples = noise_carrier_rir(float(t60), audio.RIR_LENGTH, audio.RIR_RATE, rng)
            audio.save_wav(audio.AudioBuffer(samples, audio.RIR_RATE), path)
            rows.append(f"rir_{i:03d},OTHER,{path}")
        (indir / "pool.csv").write_text(
            f"# synthetic noise-carrier pool, seed={seed}\nid,source,path\n"
            + "\n".join(rows) + "\n")
        _write_json(indir / "train.json", dict(self.CONFIG, pool=str(indir / "pool.csv")))

    def setup(self, seed: int, indir: Path):
        cfg = json.loads((indir / "train.json").read_text())
        pool = corpus.read_pool_csv(cfg.pop("pool"))
        cfg["rng_seed"] = seed
        config = training.TrainConfig(**cfg)
        dataset = [audio.to_rir(audio.load_wav(e.path)) for e in pool.entries]
        return {"config": config, "dataset": dataset}

    def run_chunk(self, state, index: int, outdir: Path, tracer):
        if tracer.active:
            tracer.mark_boundary()
        return training.train(state["dataset"], state["config"], out_dir=outdir)

    def check_chunk(self, state, memo, index: int, result, outdir: Path) -> ChunkCheck:
        steps = state["config"].steps
        c = ChunkCheck(attempted=steps)
        if isinstance(result, Exception):
            c.failed, c.problems = steps, [repr(result)]
            return c
        rows = (outdir / "training_log.csv").read_text().splitlines()[1:]
        good = 0
        for i, line in enumerate(rows, start=1):
            fields = line.split(",")
            if int(fields[0]) == i and all(np.isfinite(float(v)) for v in fields[1:]):
                good += 1
        if len(rows) != steps or good != steps:
            c.problems.append(f"{good}/{steps} finite log rows, {len(rows)} rows")
        final = outdir / "checkpoint_final.gan"
        loaded = gan_checkpoint.load_checkpoint(final)
        for role in ("generator", "critic"):
            mine = getattr(result.model, role).named_params()
            theirs = getattr(loaded, role).named_params()
            if len(mine) != len(theirs) or not all(
                    a[:2] == b[:2] and a[2].dtype == b[2].dtype
                    and np.array_equal(a[2], b[2]) for a, b in zip(mine, theirs)):
                c.problems.append(f"{role} tensors differ after reload")
                good = 0
        c.digest = sha256_files([final])
        if memo.setdefault("first", c.digest) != c.digest:
            c.problems.append("checkpoint differs from the run's first chunk")
            good = 0
        c.failed = steps - good
        c.ops = c.items = len(result.log)
        return c


# ---------------------------------------------------------------- generate

class Generate:
    """Histogram-constrained generation from a seeded, untrained model.

    The histograms come from ``analyze`` on REFS outputs of the same
    generator, drawn from a latent stream the sampler never uses. REFS sets
    the accept ratio; it is chosen so the ratio stays steady across seeds
    (see README.md). A chunk is one ``generate_constrained`` call for N
    RIRs with its own sampler seed, followed by the CLI's WAV and report
    writes."""

    alias = ("generate.accepted_per_s", "1/s")

    def __init__(self, name: str, d: int, refs: int, n: int):
        self.name, self.d, self.refs, self.n = name, d, refs, n

    def synthesize(self, seed: int, indir: Path) -> None:
        indir.mkdir(parents=True)
        rng = np.random.default_rng([seed, 0])
        gen = nets.Generator(self.d, rng=rng)
        model = nets.GanModel(gen, nets.Critic(self.d, rng=rng), self.d, 0, seed)
        gan_checkpoint.save_checkpoint(model, indir / "model.gan")
        zrng = np.random.default_rng([seed, 1])
        params = []
        while len(params) < self.refs:
            for wave in gen.forward(nets.sample_latent(zrng, 8)):
                try:
                    params.append(acoustics.analyze(audio.Rir.from_samples(wave)))
                except ValueError:  # EstimationError included: not a usable reference
                    continue
        config = sampler.SamplerConfig()
        sampler.save_histograms(sampler.build_histograms(params[: self.refs], config),
                                indir / "hists.json")
        _write_json(indir / "sampler.json", {
            "bins_per_param": config.bins_per_param, "relax_prob": config.relax_prob,
            "max_tries_per_sample": config.max_tries_per_sample})

    def setup(self, seed: int, indir: Path):
        model = gan_checkpoint.load_checkpoint(indir / "model.gan")
        hists = sampler.load_histograms(indir / "hists.json")
        cfg = json.loads((indir / "sampler.json").read_text())
        return {"model": model, "hists": hists, "cfg": cfg, "seed": seed}

    def run_chunk(self, state, index: int, outdir: Path, tracer):
        chunk_seed = int(np.random.SeedSequence([state["seed"], index]).generate_state(1)[0])
        config = sampler.SamplerConfig(**state["cfg"], rng_seed=chunk_seed)
        outdir.mkdir(parents=True, exist_ok=True)
        try:
            rirs, report = sampler.generate_constrained(
                state["model"], state["hists"], self.n, config)
        except sampler.GenerationStalledError as exc:
            exc.report.to_csv(outdir / "generation_report.csv")
            return exc
        for i, rir in enumerate(rirs):
            audio.save_wav(rir.as_buffer(), outdir / f"rir_{i:04d}.wav")
        report.to_csv(outdir / "generation_report.csv")
        return report

    def check_chunk(self, state, memo, index: int, report, outdir: Path) -> ChunkCheck:
        c = ChunkCheck(attempted=self.n)
        if isinstance(report, Exception):
            c.failed, c.problems = self.n, [repr(report)]
            c.items = getattr(getattr(report, "report", None), "tries", 0)
            return c
        hists = state["hists"]
        paths = sorted(outdir.glob("rir_*.wav"))
        if len(paths) != self.n or report.accepted != self.n:
            c.problems.append(f"{len(paths)} WAVs, {report.accepted} accepted, "
                              f"{self.n} requested")
        good = 0
        for p in paths:
            buf = audio.load_wav(p)
            peak = float(np.max(np.abs(buf.samples)))
            try:
                params = acoustics.analyze(audio.Rir.from_samples(buf.samples))
            except ValueError as exc:
                c.problems.append(f"{p.name}: {exc}")
                continue
            far = [name for name in sampler.PARAM_NAMES
                   if hists[name].distance_to_support(getattr(params, name))
                   > hists[name].bin_width]
            if abs(peak - 1.0) > 1e-6 or far:
                c.problems.append(f"{p.name}: peak {peak}, outside support on {far}")
                continue
            good += 1
        c.failed = self.n - min(good, self.n)
        c.ops = report.accepted - c.failed
        c.items = report.tries
        c.digest = sha256_files(paths)
        c.extra = {"tries": report.tries, "accepted": report.accepted,
                   **{f"rejections.{k}": v for k, v in report.rejections_by_param.items()}}
        return c


# ---------------------------------------------------------------- augment

class Augment:
    """Far-field augmentation with threads=1.

    Speech-like 16 kHz utterances (log-normal durations, median 8 s, 2-30 s),
    100 RIRs at 48 kHz and 1.5 s (so ``to_rir`` resamples them) and 20 noises
    of 5-30 s. A chunk is one ``augment_corpus`` call over the next CHUNK
    manifest rows; its RIR and noise caches start cold and then mostly hit.
    """

    name = "augment"
    alias = ("augment.audio_s_per_s", "s/s")
    CLEAN_FILES = 64
    DURATION_SIGMA = 0.55  # log-normal around 8 s; the outer quantiles land near 2 s and 30 s
    MANIFEST_ROWS = 8192
    CHUNK = 128
    RIRS = 100
    NOISES = 20
    RATE = audio.RIR_RATE
    RIR_RATE_IN = 48000

    def synthesize(self, seed: int, indir: Path) -> None:
        from scipy.special import ndtri

        rng = np.random.default_rng([seed, 0])
        for sub in ("clean", "rirs", "noise"):
            (indir / sub).mkdir(parents=True)
        # durations sit at evenly spaced quantiles of the log-normal, in one
        # fixed order, so every seed has the same duration mix and meets its
        # longest utterance at the same point, which sets peak memory; the seed
        # decides the signals and every draw made from them
        q = (np.arange(self.CLEAN_FILES) + 0.5) / self.CLEAN_FILES
        durations = np.clip(8.0 * np.exp(self.DURATION_SIGMA * ndtri(q)), 2.0, 30.0)
        clean = []
        for i, dur in enumerate(np.random.default_rng(0).permutation(durations)):
            path = indir / "clean" / f"c{i:03d}.wav"
            audio.save_wav(audio.AudioBuffer(_speech_like(float(dur), self.RATE, rng),
                                             self.RATE), path)
            clean.append(str(path))
        rows = [f"u{j:05d},{clean[j % len(clean)]}" for j in range(self.MANIFEST_ROWS)]
        (indir / "clean.csv").write_text("utt_id,path\n" + "\n".join(rows) + "\n")

        n_rir = int(1.5 * self.RIR_RATE_IN)
        rir_rows = []
        for i, t60 in enumerate(rng.permutation(np.linspace(0.2, 0.8, self.RIRS))):
            path = indir / "rirs" / f"r{i:03d}.wav"
            h = noise_carrier_rir(float(t60), n_rir, self.RIR_RATE_IN, rng)
            audio.save_wav(audio.AudioBuffer(h, self.RIR_RATE_IN), path)
            rir_rows.append(f"r{i:03d},OTHER,{path}")
        (indir / "rirs.csv").write_text("id,source,path\n" + "\n".join(rir_rows) + "\n")

        noise_rows = []
        for i, dur in enumerate(rng.permutation(np.linspace(5.0, 30.0, self.NOISES))):
            path = indir / "noise" / f"n{i:02d}.wav"
            audio.save_wav(audio.AudioBuffer(_colored_noise(float(dur), self.RATE, rng),
                                             self.RATE), path)
            noise_rows.append(f"n{i:02d},OTHER,{path}")
        (indir / "noise.csv").write_text("id,source,path\n" + "\n".join(noise_rows) + "\n")
        _write_json(indir / "spec.json", {"snr_range": [5.0, 20.0], "snr_in_db": True})

    def setup(self, seed: int, indir: Path):
        spec_dict = json.loads((indir / "spec.json").read_text())
        spec_dict["snr_range"] = tuple(spec_dict["snr_range"])
        spec_dict["rng_seed"] = seed
        spec = augment.AugmentSpec(**spec_dict)
        manifest = augment.read_clean_manifest(indir / "clean.csv")
        rirs = corpus.read_pool_csv(indir / "rirs.csv")
        noise = corpus.read_pool_csv(indir / "noise.csv")
        return {"spec": spec, "manifest": manifest, "rirs": rirs, "noise": noise}

    def utterance_paths(self, state) -> set[str]:
        return {path for _, path in state["manifest"]}

    def chunk_rows(self, state, index: int):
        rows = state["manifest"]
        start = (index * self.CHUNK) % len(rows)
        return (rows + rows)[start : start + self.CHUNK]

    def run_chunk(self, state, index: int, outdir: Path, tracer):
        return augment.augment_corpus(self.chunk_rows(state, index), state["rirs"],
                                      state["noise"], state["spec"], outdir, threads=1)

    def check_chunk(self, state, memo, index: int, result, outdir: Path) -> ChunkCheck:
        c = ChunkCheck(attempted=self.CHUNK, items=self.CHUNK)
        if isinstance(result, Exception):
            c.failed, c.problems = self.CHUNK, [repr(result)]
            return c
        records, failures = result
        c.problems += [f"{u}: {e}" for u, e in failures]
        manifest = outdir / "manifest.jsonl"
        on_disk = {r.utt_id: r for r in augment.read_manifest(manifest)}
        wanted = dict(self.chunk_rows(state, index))
        clean_len = memo.setdefault("clean_len", {})
        # only the first good output's samples are kept, for the re-mix check,
        # so the checks add one utterance to peak memory, not a whole chunk
        good, first_out = [], None
        for utt_id, clean_path in wanted.items():
            rec = on_disk.get(utt_id)
            if rec is None or rec.clean_path != clean_path:
                c.problems.append(f"{utt_id}: no manifest record")
                continue
            out = audio.load_wav(rec.out_path)
            if clean_path not in clean_len:
                clean_len[clean_path] = len(audio.load_wav(clean_path))
            n_clean = clean_len[clean_path]
            if len(out) != n_clean:
                c.problems.append(f"{utt_id}: {len(out)} samples out, {n_clean} clean")
                continue
            good.append((rec, len(out) / out.sample_rate))
            if first_out is None:
                first_out = out
            out = None
        if good and not self._remix_matches(state, good[0][0], first_out):
            c.problems.append(f"{good[0][0].utt_id}: re-mix differs from its WAV")
            good = good[1:]
        c.failed = self.CHUNK - len(good)
        c.ops = sum(seconds for _, seconds in good)
        c.digest = sha256_files([manifest] + [rec.out_path for rec, _ in good])
        return c

    def _remix_matches(self, state, rec, out) -> bool:
        """Re-mix one utterance from its recorded k, alpha and rescale."""
        rir_path = next(e.path for e in state["rirs"].entries if e.id == rec.rir_id)
        noise_path = next(e.path for e in state["noise"].entries if e.id == rec.noise_id)
        snr = 10.0 ** (rec.snr / 10.0) if state["spec"].snr_in_db else rec.snr
        mixed, again = augment.mix(audio.load_wav(rec.clean_path),
                                   audio.to_rir(audio.load_wav(rir_path)),
                                   audio.load_wav(noise_path), snr, rec.k,
                                   alpha_override=rec.alpha)
        tol = 4 * F32_EPS * max(1.0, float(np.max(np.abs(out.samples))))
        return (abs(again.rescale - rec.rescale) <= 1e-6 * rec.rescale
                and float(np.max(np.abs(mixed.samples - out.samples))) <= tol)


def _speech_like(dur: float, rate: int, rng: np.random.Generator) -> np.ndarray:
    """Voiced buzz through two formant resonators plus breath noise, gated
    by a ~4 Hz syllable envelope with pauses."""
    from scipy.signal import lfilter

    n = int(dur * rate)
    t = np.arange(n) / rate
    f0 = rng.uniform(90, 220) * (1 + 0.15 * np.sin(2 * np.pi * rng.uniform(0.2, 0.6) * t))
    phase = np.cumsum(f0) / rate
    buzz = 2.0 * (phase % 1.0) - 1.0
    sig = 0.7 * buzz + 0.3 * rng.standard_normal(n)
    for formant in (rng.uniform(500, 800), rng.uniform(1100, 1800)):
        r = 0.97
        a = [1.0, -2 * r * np.cos(2 * np.pi * formant / rate), r * r]
        sig = lfilter([1.0 - r], a, sig)
    syll = np.maximum(0.0, np.sin(2 * np.pi * rng.uniform(3.0, 5.0) * t + rng.uniform(0, 6.3)))
    gate = np.repeat(rng.random(int(dur * 2) + 1) > 0.2, rate // 2)[:n]
    sig = sig * syll * gate
    return (0.5 * sig / max(np.max(np.abs(sig)), 1e-9)).astype(np.float32)


def _colored_noise(dur: float, rate: int, rng: np.random.Generator) -> np.ndarray:
    """Low-passed Gaussian noise with a mains hum, the kind of steady
    environmental noise far-field corpora loop under speech."""
    from scipy.signal import lfilter

    n = int(dur * rate)
    pole = rng.uniform(0.8, 0.98)
    sig = lfilter([1.0 - pole], [1.0, -pole], rng.standard_normal(n))
    sig += 0.05 * np.sin(2 * np.pi * 50.0 * np.arange(n) / rate)
    return (0.3 * sig / np.max(np.abs(sig))).astype(np.float32)


# generate-d4 (the same generation from a d=4 model) is left out: its ~3 ms
# set-up doubles in length with the machine's phase, which can last longer
# than a run, so its setup_s moved by more than any bound between two sets
# of runs of the same code (see README.md)
WORKLOADS = {w.name: w for w in (
    TrainD4(),
    Generate("generate-d64", d=64, refs=128, n=2),
    Augment(),
)}
