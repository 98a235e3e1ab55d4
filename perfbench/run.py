"""rirkit benchmark: one closed-loop client, one thread, one workload per run.

Usage (from the checkout root):

    python3 perfbench/run.py --workload train-d4 --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json
with tracing off. With ``--trace 1`` it measures half of ``--seconds``
untraced and half traced, and reports the per-layer metrics, including the
trace overhead. Either way it checks every output, writes a results file
under ``.perfbench_runs/results/`` and prints one JSON object as the last
line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import _bootstrap

RUNS_DIR = Path(".perfbench_runs")
SETUP_POINTS = 7  # set-up is timed at least at this many points spread over the loop
SETUP_SHARE = 0.1  # and between chunks whenever it has had less than this share of the loop's time
SYNTH_TIMEOUT_S = 120


@dataclass
class LoopResult:
    busy_s: float = 0.0  # timed work only; checks run outside it
    chunk_s: list[float] = field(default_factory=list)
    chunk_ops: list[float] = field(default_factory=list)
    ops: float = 0.0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)
    setup_times: list[float] = field(default_factory=list)


def run_loop(wl, lanes, seconds: float, workdir: Path, tracer, setup=None) -> list[LoopResult]:
    """Run chunk 0, 1, 2, ... until ``seconds`` of timed work is done.

    ``lanes`` is a list of (state, traced) pairs. Every lane runs every chunk
    index, in alternating order, so a traced and an untraced lane do the same
    work under the same machine conditions and must write the same outputs.
    Chunk 0 warms the process and is checked but not timed. Each chunk's
    outputs are checked, hashed and deleted outside the timed region.

    With ``setup`` (a function returning a fresh state and appending its
    time to a list), the single lane's state is rebuilt by it at SETUP_POINTS
    points spread evenly over the timed work, and, between chunks, whenever
    set-up has so far taken less than SETUP_SHARE of the timed work. A short
    set-up is thus timed a few times after every chunk, so its times are
    spread over the same stretch of machine time as the loop's.
    """
    states = [state for state, _ in lanes]
    memos = [{} for _ in lanes]  # what a lane's checks keep between chunks
    results = [LoopResult() for _ in lanes]
    outdir = workdir / "out"
    index = points = 0
    tracer.phase = "warmup"
    while sum(r.busy_s for r in results) < seconds:
        if index == 1:
            tracer.start_loop()
        while setup is not None:
            loop = results[0]
            if loop.busy_s >= seconds * points / SETUP_POINTS:
                points += 1
            elif sum(loop.setup_times) >= SETUP_SHARE * loop.busy_s:
                break
            states[0] = None  # free the old state, as a fresh process would not have it
            states[0] = setup(loop.setup_times)
        order = range(len(lanes)) if index % 2 == 0 else reversed(range(len(lanes)))
        digests = set()
        for k in order:
            res = results[k]
            tracer.active = lanes[k][1]
            t0 = time.perf_counter()
            try:
                out = wl.run_chunk(states[k], index, outdir, tracer)
            except Exception as exc:  # a failing chunk counts as failed work, not a crash
                traceback.print_exc(file=sys.stderr)
                out = exc
            dt = time.perf_counter() - t0
            tracer.active = False
            check = wl.check_chunk(states[k], memos[k], index, out, outdir)
            out = None
            shutil.rmtree(outdir, ignore_errors=True)
            digests.add(check.digest)
            res.attempted += check.attempted
            res.failed += check.failed
            res.problems += check.problems[: 10 - len(res.problems)]
            if index == 0:
                res.digest = check.digest
                continue
            res.busy_s += dt
            res.chunk_s.append(dt)
            res.chunk_ops.append(check.ops)
            res.ops += check.ops
            res.items += check.items
            for key, v in check.extra.items():
                res.extra[key] = res.extra.get(key, 0) + v
        if len(digests) > 1:
            results[-1].problems.append(f"chunk {index}: traced and untraced outputs differ")
        index += 1
    return results


def loop_rate(loop: LoopResult) -> float:
    """Work per second of timed work. The machine's speed drifts in phases
    of tens of seconds; the total over the whole loop averages over them,
    where a median of shorter slices would jump from one phase to the next."""
    return loop.ops / loop.busy_s


def timed_setup(wl, seed: int, indir: Path, times: list[float]):
    """Run the workload's set-up once, append its time to ``times`` and
    return its state."""
    t0 = time.perf_counter()
    state = wl.setup(seed, indir)
    times.append(time.perf_counter() - t0)
    return state


def quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def tree_digest(root: Path) -> str:
    """sha256 over the paths and bytes of every .py file under ``root``."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    sha = "unknown"  # an exported checkout has no .git
    if (_bootstrap.ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "source_digest": tree_digest(_bootstrap.SRC),
        "bench_digest": tree_digest(Path(__file__).parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in _bootstrap.THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
        "seed": seed,
    }


# ---------------------------------------------------------------- metrics

def end_to_end(loop: LoopResult, rss_mb: float) -> dict[str, float]:
    return {
        "throughput": loop_rate(loop),
        # the median of set-ups spread over the whole loop; it ignores the
        # process's cold first set-up and the odd stall
        "setup_s": statistics.median(loop.setup_times),
        "peak_rss_mb": rss_mb,
        "success_rate": 1.0 - loop.failed / max(loop.attempted, 1),
    }


def per_layer(tracer, loop: LoopResult, untraced: LoopResult) -> dict[str, float]:
    """Per-layer metrics of the traced loop. Loop spans are divided by the
    loop's items (steps, tries or utterances); spans that only occur during
    the traced set-up are reported per set-up."""
    totals = tracer.totals()
    items = max(loop.items, 1)
    counters = tracer.counters

    def per_item(name: str, col: int = 1) -> float:
        if (name, "loop") in totals:
            return totals[(name, "loop")][col] / items
        if (name, "setup") in totals:
            return totals[(name, "setup")][col]
        return 0.0

    def calls(name: str) -> float:
        return totals.get((name, "loop"), [0])[0]

    def count_per(key: str) -> float:
        if ("loop", key) in counters:
            return counters[("loop", key)] / items
        return counters.get(("setup", key), 0.0)

    m: dict[str, float] = {}
    layers = {"critic": [f"conv{i}" for i in range(1, 6)] + ["dense", "phase_shuffle", "leaky_relu"],
              "generator": [f"tconv{i}" for i in range(1, 6)] + ["dense", "act"]}
    for role, names in layers.items():
        for name in names:
            for d in ("fwd", "bwd"):
                m[f"gan.{role}.{name}.{d}_s"] = per_item(f"gan.{role}.{name}.{d}")
        for d in ("forward", "backward"):
            m[f"gan.{role}.{d}_s"] = per_item(f"gan.{role}.{d}")
    steps = tracer.durations("gan.training.step")
    m["gan.training.step_s.p50"] = quantile(steps, 0.5)
    m["gan.training.step_s.p90"] = quantile(steps, 0.9)
    m["gan.training.rmsprop_s"] = per_item("gan.training.rmsprop")
    m["gan.training.clip_s"] = per_item("gan.training.clip")
    m["gan.training.sample_latent_s"] = per_item("gan.sample_latent")
    m["gan.training.self_s"] = per_item("gan.training.step", col=2)
    m["gan.checkpoint.save_s"] = per_item("gan.checkpoint.save")
    m["gan.checkpoint.save_bytes"] = count_per("gan.checkpoint.save_bytes")
    m["gan.checkpoint.load_s"] = per_item("gan.checkpoint.load")

    for short, span in (("analyze", "analyze"), ("edc", "edc"), ("t60", "t60"),
                        ("edt", "edt"), ("drr", "drr"), ("cte", "cte")):
        m[f"acoustics.{short}_s"] = per_item(f"acoustics.{span}")
    m["acoustics.edc_calls"] = calls("acoustics.edc") / items

    # counts per generate_constrained call (one chunk), so that they do not
    # grow with the length of the run or the speed of the machine
    tries, accepted = loop.extra.get("tries", 0), loop.extra.get("accepted", 0)
    calls_n = max(len(loop.chunk_s), 1)
    m["sampler.tries"] = tries / calls_n
    m["sampler.accepted"] = accepted / calls_n
    m["sampler.relaxed"] = counters.get(("loop", "sampler.relaxed"), 0.0) / calls_n
    m["sampler.accept_ratio"] = accepted / tries if tries else 0.0
    m["sampler.tries_per_s"] = tries / loop.busy_s if tries else 0.0
    m["sampler.accept_s"] = per_item("sampler.accept")
    for p in ("t60", "drr", "edt", "cte", "invalid"):
        m[f"sampler.rejections.{p}"] = loop.extra.get(f"rejections.{p}", 0) / tries if tries else 0.0

    for name in ("load_wav", "resample", "to_rir", "convolve", "save_wav"):
        m[f"audio.{name}_s"] = per_item(f"audio.{name}")
    m["audio.load_wav_bytes"] = count_per("audio.load_wav_bytes")
    m["audio.save_wav_bytes"] = count_per("audio.save_wav_bytes")

    utts = tracer.durations("augment.utt")
    m["augment.utt_s.p50"] = quantile(utts, 0.5)
    m["augment.utt_s.p90"] = quantile(utts, 0.9)
    for name in ("mix", "looped_noise", "compute_alpha"):
        m[f"augment.{name}_s"] = per_item(f"augment.{name}")
    if utts:
        # augment loads a RIR (through to_rir) or a noise only on a cache miss
        rir_loads = calls("audio.to_rir")
        noise_loads = calls("audio.load_wav") - rir_loads - len(utts)
        m["augment.rir_loads"] = rir_loads / len(utts)
        m["augment.noise_loads"] = noise_loads / len(utts)
        m["augment.cache_hit_ratio"] = 1.0 - (rir_loads + noise_loads) / (2 * len(utts))
    else:
        m["augment.rir_loads"] = m["augment.noise_loads"] = m["augment.cache_hit_ratio"] = 0.0
    m["corpus.read_pool_csv_s"] = per_item("corpus.read_pool_csv")

    m["trace_overhead_ratio"] = (untraced.items / untraced.busy_s) / (loop.items / loop.busy_s)

    for role, names in (("critic", [f"conv{i}" for i in range(1, 6)]),
                        ("generator", [f"tconv{i}" for i in range(1, 6)])):
        for name in names:
            fwd = tracer.kernels.get(f"gan.{role}.{name}.fwd", [0, 0, 0.0])
            bwd = tracer.kernels.get(f"gan.{role}.{name}.bwd", [0, 0, 0.0])
            base = f"kernel.{role}.{name}"
            m[f"{base}.flop_computed"] = (fwd[0] + bwd[0]) / items
            m[f"{base}.bytes_computed"] = (fwd[1] + bwd[1]) / items
            m[f"{base}.fwd_gflops"] = fwd[0] / fwd[2] / 1e9 if fwd[2] else 0.0
            m[f"{base}.bwd_gflops"] = bwd[0] / bwd[2] / 1e9 if bwd[2] else 0.0
    return m


# ---------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(workloads, args) -> int:
    """Run every workload in its own process, one after the other; exit 1
    if any run fails or reports incorrect outputs."""
    bad = []
    for name in workloads:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
        except (IndexError, ValueError, KeyError):  # no result line
            ok = False
        if not ok:
            bad.append(name)
    if bad:
        print(f"run.py: failed or incorrect: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _bootstrap.enter_checkout():
        print("run.py: no rirkit sources under src/; run from a rirkit checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    workdir = RUNS_DIR / f"{wl.name}-seed{args.seed}"
    indir = workdir / "in"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer()
    try:
        subprocess.run([sys.executable, str(Path(__file__).with_name("synth.py")),
                        wl.name, str(args.seed), str(indir)],
                       check=True, timeout=SYNTH_TIMEOUT_S)
        if args.trace == 0:
            def setup(times):
                return timed_setup(wl, args.seed, indir, times)

            loops = run_loop(wl, [(None, False)], args.seconds, workdir, tracer, setup)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(loops[0], rss_mb)
            specs = spec["end_to_end"]
        else:
            plain = wl.setup(args.seed, indir)
            tracer.install()
            try:
                tracer.active, tracer.phase = True, "setup"
                state = wl.setup(args.seed, indir)
                tracer.utterance_paths = getattr(wl, "utterance_paths", lambda s: set())(state)
                loops = run_loop(wl, [(plain, False), (state, True)], args.seconds,
                                 workdir, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, loops[1], loops[0])
            specs = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    problems = tracer.problems + [p for lp in loops for p in lp.problems]
    correct = failed == 0 and not problems
    out = {name["name"]: {"value": metrics[name["name"]], "unit": name["unit"]}
           for name in specs}

    alias, alias_unit = wl.alias
    main_loop = loops[-1] if args.trace else loops[0]
    named_metrics = {alias: {"value": loop_rate(main_loop), "unit": alias_unit},
                     "error_rate": {"value": failed / attempted, "unit": "ratio"}}
    summary = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "output_digest": loops[0].digest,
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems,
        "named_metrics": named_metrics,
        "loop": [{"busy_s": lp.busy_s, "chunks": len(lp.chunk_s), "chunk_s": lp.chunk_s,
                  "chunk_ops": lp.chunk_ops, "ops": lp.ops, "items": lp.items, **lp.extra}
                 for lp in loops],
        "setup_times_s": loops[0].setup_times,
        "metrics": out,
    }
    results = RUNS_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (results / f"{stem}.json").write_text(json.dumps(summary, indent=1))
    if args.trace:
        tracer.write_spans(results / f"{stem}-spans.jsonl.gz")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{'correct' if correct else 'INCORRECT'}, {failed}/{attempted} failed, "
          f"digest {loops[0].digest[:16]}")
    for p in problems:
        print(f"  problem: {p}")
    for name, v in (named_metrics | out).items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
