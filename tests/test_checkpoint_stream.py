"""A checkpoint load streams: it reads one weight blob at a time into the
model it builds, so its allocations peak at the model plus one blob, not at
the model plus the whole file."""

import tracemalloc

import numpy as np

from rirkit.gan import Critic, GanModel, Generator, load_checkpoint, save_checkpoint


def test_load_peaks_at_model_plus_largest_tensor(tmp_path):
    model = GanModel(Generator(8, rng=np.random.default_rng(1)),
                     Critic(8, rng=np.random.default_rng(2)), d=8, step=5, seed=6)
    path = tmp_path / "model.gan"
    save_checkpoint(model, path)
    arrays = model.generator.param_arrays() + model.critic.param_arrays()
    model_bytes = sum(a.nbytes for a in arrays)  # 3.0 MB at d=8
    largest = max(a.nbytes for a in arrays)  # 0.8 MB: the dense and outer conv weights
    load_checkpoint(path)  # imports and one-time caches stay outside the trace
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding the whole file would add its size, about model_bytes
    assert peak <= model_bytes + largest + 256 * 1024
    for a, b in zip(arrays, loaded.generator.param_arrays() + loaded.critic.param_arrays()):
        np.testing.assert_array_equal(a, b)
