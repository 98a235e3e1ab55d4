"""Command-line interface.

Subcommands: analyze, train, generate, augment, split, compose, validate.
Global flags --seed / --out-dir / --threads sit before the subcommand;
--seed overrides any rng_seed found in a JSON config file. Exit codes: 0 on
success, 1 when some items (RIRs, utterances, pool entries) failed, 2 on bad
input (a missing or malformed file, config or argument) or when training
diverges or generation stalls, reported as one `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import acoustics, augment, corpus, sampler
from ._fields import check_count, parse_json, read_text
from .audio import load_rir, save_wav
from .gan.checkpoint import load_checkpoint
from .gan.training import TrainConfig, TrainingDivergedError, train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rirkit",
        description="Room impulse response analysis, GAN synthesis, and "
                    "far-field speech augmentation.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the rng seed from configs (>= 0)")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for output artifacts")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for parallelizable commands (>= 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="estimate T60/DRR/EDT/CTE from RIR WAVs")
    p.add_argument("rirs", nargs="+", type=Path)
    p.add_argument("--csv", type=Path, help="write parameter rows to this CSV")
    p.add_argument("--hist", type=Path, help="write parameter histograms (JSON)")
    p.add_argument("--bins", type=int, default=30, help="histogram bins per parameter")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("train", help="train the RIR GAN on a pool of WAVs")
    p.add_argument("--config", type=Path, required=True, help="JSON train config")
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser("generate", help="generate histogram-constrained RIRs")
    p.add_argument("--model", type=Path, required=True, help="checkpoint file")
    p.add_argument("--hist", type=Path, required=True, help="histogram JSON")
    p.add_argument("-n", type=int, required=True, help="number of RIRs")
    p.add_argument("--config", type=Path, help="JSON sampler config")
    p.set_defaults(run=_cmd_generate)

    p = sub.add_parser("augment", help="synthesize far-field speech")
    p.add_argument("--clean", type=Path, required=True, help="CSV utt_id,path")
    p.add_argument("--rirs", type=Path, required=True, help="RIR pool CSV")
    p.add_argument("--noise", type=Path, required=True, help="noise pool CSV")
    p.add_argument("--spec", type=Path, help="JSON augment spec")
    p.set_defaults(run=_cmd_augment)

    p = sub.add_parser("split", help="split a pool into train/dev/test")
    p.add_argument("--pool", type=Path, required=True)
    p.add_argument("--sizes", type=str, required=True, help="a,b,c")
    p.set_defaults(run=_cmd_split)

    p = sub.add_parser("compose", help="subsample and concatenate pools into composed.csv")
    p.add_argument("--pool", action="append", required=True, metavar="CSV:COUNT",
                   help="pool file and entry count, repeatable")
    p.set_defaults(run=_cmd_compose)

    p = sub.add_parser("validate", help="check a pool for missing or bad files")
    p.add_argument("--pool", type=Path, required=True)
    p.set_defaults(run=_cmd_validate)
    return parser


def _load_json(path: Path | None) -> dict:
    cfg = parse_json(read_text(path), path) if path is not None else {}
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def _from_config(cls, cfg: dict, path: Path | None, seed: int | None):
    """cls(**cfg), with --seed (when given) overriding rng_seed; an unknown key,
    a mistyped value or one out of its range is reported as bad input naming
    the config file, when there is one."""
    if seed is not None:
        cfg = {**cfg, "rng_seed": seed}
    try:
        return cls(**cfg)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}" if path else str(exc)) from exc


def _cmd_analyze(args) -> int:
    if args.hist:  # refused before any RIR is read
        check_count("--bins", args.bins, 2)
    rows, failures = [], []
    for path in args.rirs:  # per-RIR isolation; each failure names its file once
        named = ""  # load_rir's errors already name the file
        try:
            rir = load_rir(path)
            named = f"{path}: "
            rows.append((path.stem, acoustics.analyze(rir)))
        except (OSError, ValueError) as exc:
            failures.append(f"{named}{exc}")
    for rid, p in rows:
        print(f"{rid}: t60={p.t60:.3f}s drr={p.drr:.2f}dB edt={p.edt:.3f}s "
              f"cte={p.cte:.2f}dB")
    for message in failures:
        print(f"failed {message}", file=sys.stderr)
    if args.csv:
        acoustics.write_params_csv(args.csv, rows)
        print(f"wrote {args.csv}")
    if args.hist:
        cfg = sampler.SamplerConfig(bins_per_param=args.bins)
        hists = sampler.build_histograms([p for _, p in rows], cfg)
        sampler.save_histograms(hists, args.hist)
        print(f"wrote {args.hist}")
    return 1 if failures else 0


def _cmd_train(args) -> int:
    cfg = _load_json(args.config)
    if "pool" not in cfg:
        raise ValueError(f"{args.config}: train config needs a pool")
    pool_path = cfg.pop("pool")
    if not isinstance(pool_path, str) or not pool_path:
        raise ValueError(f"{args.config}: pool must be a non-empty string, got {pool_path!r}")
    pool = corpus.read_pool_csv(pool_path)
    if not pool.entries:
        raise ValueError(f"{pool_path}: pool has no entries")
    config = _from_config(TrainConfig, cfg, args.config, args.seed)
    dataset = [load_rir(e.path) for e in pool.entries]
    state = train(dataset, config, out_dir=args.out_dir)
    last = state.log[-1]
    print(f"trained {config.steps} generator steps "
          f"({config.steps * config.n_critic} critic updates); final wasserstein "
          f"estimate {last.wasserstein_estimate:.4f}")
    print(f"wrote {args.out_dir / 'checkpoint_final.gan'} and training_log.csv")
    return 0


def _cmd_generate(args) -> int:
    if args.n < 1:  # refused before any file is read
        raise ValueError(f"-n must be >= 1, got {args.n}")
    # the small inputs first, so a bad one is refused before the model is read;
    # generation never runs the critic, so its blobs are skipped
    hists = sampler.load_histograms(args.hist)
    config = _from_config(sampler.SamplerConfig, _load_json(args.config), args.config,
                          args.seed)
    model = load_checkpoint(args.model, critic=False)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        rirs, report = sampler.generate_constrained(model, hists, args.n, config)
    except sampler.GenerationStalledError as exc:
        print(f"error: {exc}", file=sys.stderr)
        exc.report.to_csv(args.out_dir / "generation_report.csv")
        return 2
    for i, rir in enumerate(rirs):
        save_wav(rir, args.out_dir / f"rir_{i:04d}.wav")
    report.to_csv(args.out_dir / "generation_report.csv")
    print(f"generated {len(rirs)} RIRs in {report.tries} tries "
          f"({report.rejected} rejections); wrote {args.out_dir}")
    return 0


def _cmd_augment(args) -> int:
    spec = _from_config(augment.AugmentSpec, _load_json(args.spec), args.spec, args.seed)
    manifest = augment.read_clean_manifest(args.clean)
    rirs = corpus.read_pool_csv(args.rirs)
    noise = corpus.read_pool_csv(args.noise)
    records, failures = augment.augment_corpus(
        manifest, rirs, noise, spec, args.out_dir, threads=args.threads
    )
    print(f"augmented {len(records)}/{len(manifest)} utterances -> "
          f"{args.out_dir / 'manifest.jsonl'}")
    for utt_id, err in failures:
        print(f"failed {utt_id}: {err}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_split(args) -> int:
    pool = corpus.read_pool_csv(args.pool)
    sizes = args.sizes.split(",")
    if len(sizes) != 3 or not all(s.strip().isdecimal() for s in sizes):
        raise ValueError(f"--sizes needs three comma-separated counts, got {args.sizes!r}")
    sizes = tuple(int(s) for s in sizes)
    seed = args.seed if args.seed is not None else 0
    parts = corpus.split(pool, sizes, seed)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in zip(("train", "dev", "test"), parts):
        out = args.out_dir / f"{name}.csv"
        corpus.write_pool_csv(part, out, provenance={"seed": seed,
                                                     "sizes": args.sizes,
                                                     "part": name})
        print(f"wrote {out} ({len(part)} entries)")
    return 0


def _cmd_compose(args) -> int:
    parts = []
    for item in args.pool:
        path, _, count = item.rpartition(":")
        if not path or not count.strip().isdecimal():
            raise ValueError(f"--pool needs CSV:COUNT, got {item!r}")
        pool, count = corpus.read_pool_csv(path), int(count)
        if count > len(pool):
            raise ValueError(f"{path}: requested {count} entries from a pool of {len(pool)}")
        parts.append((pool, count))
    seed = args.seed if args.seed is not None else 0
    composed = corpus.compose_pool(parts, rng_seed=seed)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "composed.csv"
    corpus.write_pool_csv(composed, out, provenance={"seed": seed})
    counts = ", ".join(f"{k}:{v}" for k, v in sorted(composed.source_counts().items()))
    print(f"wrote {out} ({len(composed)} entries; {counts})")
    return 0


def _cmd_validate(args) -> int:
    pool = corpus.read_pool_csv(args.pool)
    findings = corpus.validate_pool(pool, threads=args.threads)
    counts = ", ".join(f"{k}:{v}" for k, v in sorted(pool.source_counts().items()))
    print(f"checked {len(pool)} entries ({counts})")
    for rid, problem in findings:
        print(f"  {rid}: {problem}")
    print(f"{len(findings)} problem(s)" if findings else "OK")
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.run(args)
    except (OSError, ValueError, TrainingDivergedError, MemoryError) as exc:
        # bad input, a diverged run, or no memory (numpy's text names the size)
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
