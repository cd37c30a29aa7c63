"""Command-line interface: per-stage subcommands plus the full pipeline.

Every subcommand runs the pipeline with only its own stage on and writes a
checksummed report bundle into ``--out``, which must not exist yet.

Exit codes: 0 success, 1 usage or configuration error (including a setting
that makes training diverge), 2 data error (missing or malformed input,
unknown relation), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

from .embedding import EmbeddingTable
from .errors import ConfigError, DataError
from .graph import FORMATS
from .report import ANALYSIS_STAGES, PipelineConfig, ReportBundle, read_config, run_pipeline

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# argparse dest -> config field it overrides; a flag left unset keeps the
# config's value.
FLAG_FIELDS = {
    "input": "input",
    "format": "format",
    "seed": "seed",
    "out": "out",
    "exclude": "exclude_relations",
    "sample": "sample_size",
    "dim": "train.dimension",
    "epochs": "train.epochs",
    "lr": "train.learning_rate",
    "margin": "train.margin",
    "negatives": "train.negatives",
    "batch_size": "train.batch_size",
    "bins": "validate.bins",
    "definitions": "relsim.definitions_path",
    "relations": "cluster.relations",
    "k": "cluster.k",
    "k_range": "cluster.k_range",
    "exemplars": "cluster.exemplars_per_cluster",
    "relation": "negation.relation",
    "negation_relation": "negation.negation_relation",
    "folds": "negation.folds",
    "classifier": "negation.classifier",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise ConfigError(message)


def _k_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects LO:HI, got {text!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON pipeline config; flags override it")
    parser.add_argument("--input", help="edge list file")
    parser.add_argument("--format", choices=FORMATS, help="edge list format")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output directory; must not exist")


def build_parser() -> _Parser:
    parser = _Parser(prog="kgstruct", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="ingest and emit graph statistics")
    _add_common(p_stats)
    p_stats.add_argument("--exclude", action="append", default=None, metavar="RELATION")
    p_stats.add_argument("--sample", type=int, default=None, metavar="N")

    p_train = sub.add_parser("train", help="train and save translational embeddings")
    _add_common(p_train)
    p_train.add_argument("--dim", type=int, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--lr", type=float, default=None)
    p_train.add_argument("--margin", type=float, default=None)
    p_train.add_argument("--negatives", type=int, default=None)
    p_train.add_argument("--batch-size", type=int, default=None)

    p_val = sub.add_parser("validate", help="similarity-list validation per relation")
    _add_common(p_val)
    p_val.add_argument("--table", help="reuse a saved embedding table")
    p_val.add_argument("--bins", type=int, default=None)

    p_rel = sub.add_parser("relsim", help="relation similarity matrices and tables")
    _add_common(p_rel)
    p_rel.add_argument("--table", help="reuse a saved embedding table")
    p_rel.add_argument("--definitions", help="JSON relation->definition corpus")

    p_clu = sub.add_parser("cluster", help="k-means substructure study of relations")
    _add_common(p_clu)
    p_clu.add_argument("--table", help="reuse a saved embedding table")
    p_clu.add_argument(
        "--relation", action="append", default=None, metavar="NAME", dest="relations"
    )
    p_clu.add_argument("--k", type=int, default=None)
    p_clu.add_argument("--k-range", type=_k_range, default=None, metavar="LO:HI")
    p_clu.add_argument("--exemplars", type=int, default=None)

    p_neg = sub.add_parser("negation", help="relation/negation pair study")
    _add_common(p_neg)
    p_neg.add_argument("--table", help="reuse a saved embedding table")
    p_neg.add_argument("--relation", default=None)
    p_neg.add_argument("--negation-relation", default=None)
    p_neg.add_argument("--folds", type=int, default=None)
    p_neg.add_argument("--classifier", choices=("linear", "forest", "both"), default=None)

    p_run = sub.add_parser("run", help="full pipeline with manifest bundle")
    _add_common(p_run)

    return parser


def _apply_flags(data: dict, args) -> dict:
    """``data`` with each flag that is set written into its field, for the loader to check."""
    for dest, path in FLAG_FIELDS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        section, _, name = path.rpartition(".")
        node = data
        if section:
            if data.get(section) is None:
                data[section] = {}
            node = data[section]
        if isinstance(node, dict):  # else the loader names the malformed block
            node[name] = value
    return data


def _load_config(args) -> PipelineConfig:
    if args.config:
        data = read_config(args.config)
    elif args.input:
        data = {}
    else:
        raise ConfigError("either --config or --input is required")
    config = PipelineConfig.from_json_dict(_apply_flags(data, args))
    if args.command == "run":
        return config
    # a per-stage subcommand runs its own stage only
    stages = {
        stage: replace(getattr(config, stage), enabled=stage == args.command)
        for stage in ANALYSIS_STAGES
    }
    if args.command == "stats":
        stages["train"] = None
    elif args.command == "train":
        stages["train"] = config.resolved().train
    return replace(config, **stages)


def _summary(bundle: ReportBundle) -> list[str]:
    """One line group per stage that ran, read from the manifest notes and the bundle."""
    notes = bundle.manifest["notes"]
    stats = json.loads((bundle.out_dir / "stats.json").read_text(encoding="utf-8"))
    lines = [
        f"{stats['triples']} triples, {stats['entities']} entities, "
        f"{len(stats['per_relation'])} relations"
    ]
    if "train" in notes:
        note = notes["train"]
        lines.append(
            f"loss {note['first_epoch_loss']} -> {note['final_epoch_loss']}, "
            f"test hits@10 {note.get('test_hits_at_10')}"
        )
    validation = bundle.out_dir / "validation.json"
    if validation.exists():
        records = json.loads(validation.read_text(encoding="utf-8"))
        usable = [r for r in records if r.get("spearman_abs") is not None]
        if usable:
            worst = min(usable, key=lambda r: r["spearman_abs"])
            lines.append(
                f"validated {len(usable)} relations; weakest |rho| = "
                f"{worst['spearman_abs']:.3f} ({worst['relation']})"
            )
    lines += [
        f"{relation}: {info['points']} points, k={info['k']}, inertia={info['inertia']:.3f}"
        for relation, info in notes.get("cluster", {}).items()
    ]
    lines += [
        f"{cv['classifier']} mean accuracy {cv['mean_accuracy']:.3f} "
        f"(baseline {cv['baseline_accuracy']:.3f})"
        for cv in notes.get("negation", {}).get("cross_validation", [])
    ]
    return lines


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args)
        table_path = getattr(args, "table", None)
        table = EmbeddingTable.load(table_path) if table_path else None
        bundle = run_pipeline(config, table)
        for line in _summary(bundle):
            print(f"{args.command}: {line}")
        print(f"{args.command}: wrote {len(bundle.manifest['files'])} files -> {bundle.out_dir}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort exit code mapping
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())
