"""rirkit imports scipy only when it resamples or convolves.

Each case runs in a fresh interpreter: this test process has scipy loaded
already (test_audio imports scipy.signal for its reference filters).
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rirkit

SRC = str(Path(rirkit.__file__).resolve().parent.parent)
SCIPY = ("scipy.signal", "scipy.fft")


def _run_fresh(body: str, tmp_path) -> None:
    """Run body in a fresh interpreter that has imported nothing of rirkit, in tmp_path."""
    script = "import sys\nsys.path.insert(0, %r)\n" % SRC
    proc = subprocess.run([sys.executable, "-c", script + textwrap.dedent(body)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _run(body: str, tmp_path) -> None:
    """Run body after `import rirkit, rirkit.cli` in a fresh interpreter, in tmp_path."""
    _run_fresh("import rirkit, rirkit.cli\n" + textwrap.dedent(body), tmp_path)


def test_analyze_train_generate_at_16k_never_import_scipy(tmp_path):
    _run(f"""
        import json
        import numpy as np
        from rirkit.audio import AudioBuffer, save_wav
        from rirkit.cli import main

        rng = np.random.default_rng(0)
        decay = 10.0 ** (-3.0 * np.arange(16384) / (16000 * 0.4))
        rows = []
        for i in range(4):
            h = rng.standard_normal(16384) * decay
            h[0] = 1.0
            save_wav(AudioBuffer((h / np.abs(h).max()).astype(np.float32), 16000),
                     f"rir_{{i}}.wav")
            rows.append(f"r{{i}},S,rir_{{i}}.wav")
        open("pool.csv", "w").write("\\n".join(rows) + "\\n")
        json.dump({{"pool": "pool.csv", "steps": 1, "d": 1, "batch_size": 2,
                    "n_critic": 1, "checkpoint_every": 0}}, open("train.json", "w"))
        json.dump({{"max_tries_per_sample": 20}}, open("sampler.json", "w"))

        assert main(["analyze", "rir_0.wav", "rir_1.wav", "rir_2.wav", "rir_3.wav",
                     "--hist", "hists.json"]) == 0
        assert main(["--out-dir", "run", "train", "--config", "train.json"]) == 0
        # a 1-step model rarely meets the histograms: a stall (exit 2) has
        # still loaded the model and run and analysed every try
        assert main(["--out-dir", "gen", "generate", "--model", "run/checkpoint_final.gan",
                     "--hist", "hists.json", "-n", "1", "--config", "sampler.json"]) in (0, 2)
        assert "tries" in open("gen/generation_report.csv").read()
        loaded = [name for name in {SCIPY!r} if name in sys.modules]
        assert not loaded, loaded
    """, tmp_path)


@pytest.mark.parametrize("call, module", [
    ("audio.resample(audio.AudioBuffer(np.ones(480, np.float32), 48000))",
     "scipy.signal"),
    ("audio.convolve(audio.AudioBuffer(np.ones(8, np.float32), 16000),"
     " audio.AudioBuffer(np.ones(4, np.float32), 16000))", "scipy.fft"),
])
def test_resample_and_convolve_import_scipy(tmp_path, call, module):
    _run(f"""
        import numpy as np
        from rirkit import audio

        assert {module!r} not in sys.modules
        {call}
        assert {module!r} in sys.modules
    """, tmp_path)


def test_audio_imports_no_other_rirkit_module(tmp_path):
    # the package exports only __version__, so importing one module loads no other
    _run_fresh("""
        import rirkit.audio

        loaded = sorted(m for m in sys.modules if m.startswith("rirkit"))
        assert loaded == ["rirkit", "rirkit.audio"], loaded
        assert not hasattr(sys.modules["rirkit"], "load_wav")
    """, tmp_path)


def test_gan_checkpoint_loads_no_net_or_training_module(tmp_path):
    # rirkit.gan re-exports nothing, so the checkpoint module loads only what it
    # imports itself; load_checkpoint imports the nets when it runs
    _run_fresh("""
        import types
        import rirkit.gan.checkpoint

        loaded = sorted(m for m in sys.modules if m.startswith("rirkit"))
        assert loaded == ["rirkit", "rirkit._fields", "rirkit.gan",
                          "rirkit.gan.checkpoint"], loaded
        import rirkit.gan.layers, rirkit.gan.nets, rirkit.gan.training

        public = [name for name, value in vars(rirkit.gan).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)]
        assert not public, public
    """, tmp_path)
