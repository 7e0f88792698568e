"""Command-line interface.

Subcommands: preprocess, train-decoder, train-filler, index, retrieve,
describe, fill, evaluate, eval-recall. Exit codes: 0 success, 1 usage error,
2 data/config error or a computation that overflowed to a non-finite value
(such as a checkpoint with huge weights), 3 missing artifact. Logs are
line-delimited JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import MISSING, fields

from artdesc import __version__
from artdesc.corpus import (
    ATTRIBUTE_TYPES,
    Gazetteer,
    PaintingRecord,
    SentenceEntry,
    TopicLabel,
    load_corpus,
    mask_sentence,
    sentence_from_surfaces,
    split_sentences,
    tag_entities,
    tokenize,
)
from artdesc.corpus.corpusio import (
    RECORD_TYPES,
    SENTENCE_TYPES,
    check_object,
    read_json,
    read_jsonl,
    save_corpus,
)
from artdesc.corpus.vocab import build_vocab
from artdesc.decoder import (
    VARIANTS,
    DecoderConfig,
    TrainConfig,
    save_decoder_checkpoint,
    train_decoder,
)
from artdesc.errors import ArtdescError, ConfigError, DataError, MissingArtifactError
from artdesc.filler import (
    FillerConfig,
    build_filler_vocab,
    extract_candidates,
    fill_slots,
    load_filler_checkpoint,
    save_filler_checkpoint,
    train_filler,
)
from artdesc.numcore.checkpoint import atomic_write
from artdesc.pipeline import Pipeline, PipelineConfig, render_evaluation, report_to_json
from artdesc.retriever import (
    EMPTY_QUERY,
    TfIdfIndex,
    build_query,
    eval_recall,
    load_annotations,
    load_blocklist,
    read_articles_dir,
    read_articles_jsonl,
    read_word_list,
)

logger = logging.getLogger("artdesc")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MISSING = 3


# the attributes every LogRecord has; any other attribute came in through extra=
_RECORD_ATTRS = frozenset(vars(logging.makeLogRecord({}))) | {"message", "asctime"}
# the line breaks of str.splitlines that json.dumps leaves unescaped
_LINE_BREAKS = str.maketrans({"\x85": "\\u0085", "\u2028": "\\u2028", "\u2029": "\\u2029"})


class _JsonLineFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        payload.update((key, value) for key, value in vars(record).items()
                       if key not in _RECORD_ATTRS)
        return json.dumps(payload, ensure_ascii=False, default=str).translate(_LINE_BREAKS)


def _setup_logging(verbose: bool) -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLineFormatter())
    root = logging.getLogger()
    root.handlers[:] = [handler]
    root.setLevel(logging.DEBUG if verbose else logging.INFO)
    logging.captureWarnings(True)  # numpy's overflow warnings become JSON lines too


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _path(value: str) -> str:
    """The type of every path flag: "" (the working directory) is refused."""
    if not value:
        raise argparse.ArgumentTypeError("the path must not be empty")
    return value


def _add_setting_flags(parser: argparse.ArgumentParser, *classes: type) -> None:
    """One flag per field with a default of each config dataclass, such as
    ``--hidden-size`` for ``hidden_size``, that takes the type of the
    default (an ``int | None`` field's flag takes an int)."""
    for cls in classes:
        for field in fields(cls):
            if field.default is not MISSING:
                parser.add_argument(f"--{field.name.replace('_', '-')}",
                                    type=type(field.default), default=field.default)


def _settings(cls: type, args) -> dict:
    """The values of the flags named after the fields of ``cls``."""
    return {field.name: getattr(args, field.name) for field in fields(cls)
            if hasattr(args, field.name)}


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_preprocess(args) -> int:
    gazetteer = Gazetteer.from_file(args.gazetteer)
    records = []
    for lineno, raw in read_jsonl(args.input, required=("id",),
                                  types={**RECORD_TYPES, "comment": str}):
        try:
            if "sentences" in raw:
                specs = [check_object(s, f"sentence {i}", ("text",), SENTENCE_TYPES)
                         for i, s in enumerate(raw["sentences"])]
            else:
                specs = [{"text": text} for text in split_sentences(raw.get("comment", ""))]
            sentences = []
            for spec in specs:
                text, topic = spec["text"], spec.get("topic")
                if len(tokenize(text)) < args.min_sentence_tokens:
                    logger.info("dropped short sentence", extra={"record": raw["id"],
                                                                 "text": text})
                    continue
                label = TopicLabel.CONTEXT if topic is None else TopicLabel.from_name(topic)
                masked, values = mask_sentence(text, tag_entities(text, gazetteer), label)
                sentences.append(SentenceEntry(text, masked, values, topic is not None))
            records.append(PaintingRecord(
                id=raw["id"],
                sentences=sentences,
                attributes=raw.get("attributes", {}),
                objects=raw.get("objects", []),
                reference=raw.get("reference", raw.get("comment", "")),
            ))
        except DataError as exc:
            raise DataError(f"{args.input}:{lineno}: {exc}") from None
    save_corpus(args.out, records)
    logger.info("preprocessed", extra={"records": len(records), "out": args.out})
    return EXIT_OK


def cmd_train_decoder(args) -> int:
    records = load_corpus(args.corpus, args.features_dir)  # every record with its grid
    masked = [e.masked for r in records for e in r.sentences]
    vocab = build_vocab(masked, min_freq=args.min_freq)  # refuses an empty corpus
    config = DecoderConfig(vocab_size=len(vocab), feature_dim=records[0].features.feature_dim,
                           **_settings(DecoderConfig, args))
    start = time.perf_counter()
    ckpt = train_decoder(records, vocab, config, TrainConfig(**_settings(TrainConfig, args)))
    save_decoder_checkpoint(args.out, ckpt)
    logger.info("trained decoder", extra={"variant": args.variant, "out": args.out,
                                          "seconds": time.perf_counter() - start})
    return EXIT_OK


def cmd_train_filler(args) -> int:
    records = load_corpus(args.corpus)
    vocab = build_filler_vocab(records, min_freq=args.min_freq)
    config = FillerConfig(vocab_size=len(vocab), **_settings(FillerConfig, args))
    start = time.perf_counter()
    ckpt = train_filler(records, vocab, config, **_settings(TrainConfig, args))
    save_filler_checkpoint(args.out, ckpt)
    logger.info("trained filler", extra={"out": args.out, "seconds": time.perf_counter() - start})
    return EXIT_OK


def cmd_index(args) -> int:
    if args.knowledge_dir:
        articles = read_articles_dir(args.knowledge_dir)
    else:
        articles = read_articles_jsonl(args.knowledge_file)
    stopwords = read_word_list(args.stoplist) if args.stoplist else None
    index = TfIdfIndex.build(articles, stopwords)
    index.save(args.out)
    logger.info("indexed", extra={"articles": index.n_docs, "terms": len(index.terms),
                                  "out": args.out})
    return EXIT_OK


def cmd_retrieve(args) -> int:
    index = TfIdfIndex.load(args.index)
    if args.query is not None:
        query = args.query
    else:
        meta = read_json(args.meta, types={"attributes": dict[str, str], "objects": list[str]})
        # a key the corpus would refuse is refused here too, not dropped from the query
        attributes = check_object(meta.get("attributes", {}), f"{args.meta} attributes",
                                  types=dict.fromkeys(ATTRIBUTE_TYPES, str), closed=True)
        query = build_query(attributes, meta.get("objects", []), load_blocklist(args.blocklist))
    for article_id, score in index.rank(query, k=args.k):
        print(json.dumps({"article_id": article_id, "score": score}))
    return EXIT_OK


def cmd_describe(args) -> int:
    topics = (TopicLabel.from_name(args.topic),) if args.topic else tuple(TopicLabel)
    pipeline = Pipeline(PipelineConfig.from_file(args.config))
    if args.painting_id:
        records = [pipeline.record_by_id(args.painting_id)]
    else:
        records = pipeline.records
    # one report line at a time, so one painting's grid is resident at a time
    lines = (report_to_json(pipeline.describe(record, topics)) + "\n" for record in records)
    if args.out:
        atomic_write(args.out, (line.encode("utf-8") for line in lines))
        logger.info("wrote reports", extra={"reports": len(records), "out": args.out})
    else:
        sys.stdout.writelines(lines)
    return EXIT_OK


def cmd_fill(args) -> int:
    """Fill slots in masked sentences using articles and attributes."""
    ckpt = load_filler_checkpoint(args.ckpt)
    gazetteer = Gazetteer.from_file(args.gazetteer)
    masked_spec = read_json(args.masked, many=True, required=("tokens",),
                            types={"tokens": list[str], "topic": str | None})
    masked = []
    for i, item in enumerate(masked_spec):
        try:
            topic = TopicLabel.from_name(item["topic"]) if item.get("topic") else TopicLabel.CONTEXT
            masked.append(sentence_from_surfaces(item["tokens"], topic))
        except DataError as exc:
            raise DataError(f"{args.masked} item {i}: {exc}") from None
    bodies = [a.body for a in read_articles_jsonl(args.articles)] if args.articles else []
    attributes = read_json(args.attrs) if args.attrs else {}
    check_object(attributes, args.attrs, types=dict.fromkeys(attributes, str))
    check_object(attributes, args.attrs, types=dict.fromkeys(ATTRIBUTE_TYPES, str), closed=True)
    candidates = extract_candidates(bodies, attributes, gazetteer)
    result = fill_slots(masked, candidates, ckpt)
    print(json.dumps({
        "description": " ".join(result.rendered_tokens),
        "tokens": result.tokens,
        "slots": [
            {"position": d.position, "type": d.entity_type, "chosen": d.chosen,
             "score": d.score, "n_compatible": d.n_compatible}
            for d in result.decisions
        ],
    }, ensure_ascii=False))
    return EXIT_OK


# what evaluate reads of a describe report
REPORT_TYPES = {"painting_id": str, "description_tokens": list[str], "slots": list[dict],
                "sentences": dict, "inputs_digest": str}
TOPIC_NAMES = [topic.name.lower() for topic in TopicLabel]


def cmd_evaluate(args) -> int:
    pipeline = Pipeline(PipelineConfig.from_file(args.config))
    reports = []
    for lineno, report in read_jsonl(args.reports, tuple(REPORT_TYPES), REPORT_TYPES):
        where = f"{args.reports}:{lineno}"
        check_object(report["sentences"], f"{where} sentences",
                     types=dict.fromkeys(TOPIC_NAMES, list[str]), closed=True)
        for i, slot in enumerate(report["slots"]):
            check_object(slot, f"{where} slots[{i}]", ("chosen",), {"chosen": str | None})
        reports.append(report)
    report = pipeline.evaluate(reports)
    if args.out:
        atomic_write(args.out, [(report_to_json(report) + "\n").encode("utf-8")])
    print(render_evaluation(report))
    return EXIT_OK


def cmd_eval_recall(args) -> int:
    try:
        ks = tuple(int(k) for k in args.ks.split(","))
    except ValueError:
        ks = ()
    if not ks or min(ks) < 1:
        raise DataError(f"--ks must be comma-separated positive integers, got {args.ks!r}")
    index = TfIdfIndex.load(args.index)
    records = load_corpus(args.corpus)
    annotations = load_annotations(args.annotations)
    blocklist = load_blocklist(args.blocklist)
    rankings = {}
    for record in records:
        query = build_query(record.attributes, record.objects, blocklist)
        if not query:
            logger.warning(EMPTY_QUERY, extra={"painting": record.id})
        ranked = index.rank(query, k=max(ks))
        rankings[record.id] = [article_id for article_id, _ in ranked]
    report = eval_recall(rankings, annotations, ks)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="artdesc",
                     description="Multi-topic painting description pipeline.")
    parser.add_argument("--version", action="version", version=f"artdesc {__version__}")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="raw comments -> masked corpus JSONL")
    p.add_argument("--input", type=_path, required=True)
    p.add_argument("--gazetteer", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    p.add_argument("--min-sentence-tokens", type=int, default=1)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train-decoder", help="train a masked-sentence decoder")
    p.add_argument("--corpus", type=_path, required=True)
    p.add_argument("--features-dir", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="parallel")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--min-freq", type=int, default=1)
    _add_setting_flags(p, DecoderConfig, TrainConfig)
    p.set_defaults(func=cmd_train_decoder)

    p = sub.add_parser("train-filler", help="train the slot filler")
    p.add_argument("--corpus", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--min-freq", type=int, default=1)
    _add_setting_flags(p, FillerConfig, TrainConfig)
    p.set_defaults(func=cmd_train_filler)

    p = sub.add_parser("index", help="build the TF-IDF knowledge index")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--knowledge-dir", type=_path)
    group.add_argument("--knowledge-file", type=_path)
    p.add_argument("--out", type=_path, required=True)
    p.add_argument("--stoplist", type=_path)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("retrieve", help="rank articles for a query")
    p.add_argument("--index", type=_path, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query")
    group.add_argument("--meta", type=_path, help="JSON file with attributes/objects")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--blocklist", type=_path)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("describe", help="run the full pipeline for paintings")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--painting-id")
    p.add_argument("--topic", choices=TOPIC_NAMES,
                   help="generate only this topic's sentence")
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("fill", help="fill slots in masked sentences")
    p.add_argument("--masked", type=_path, required=True,
                   help="JSON list of {tokens, topic} masked sentences")
    p.add_argument("--ckpt", type=_path, required=True)
    p.add_argument("--gazetteer", type=_path, required=True)
    p.add_argument("--articles", type=_path, help="JSONL of knowledge articles")
    p.add_argument("--attrs", type=_path, help="JSON attributes map")
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("evaluate", help="score describe reports against references")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--reports", type=_path, required=True)
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("eval-recall", help="R@k of the retriever against annotations")
    p.add_argument("--index", type=_path, required=True)
    p.add_argument("--corpus", type=_path, required=True)
    p.add_argument("--annotations", type=_path, required=True)
    p.add_argument("--ks", default="1,5,10")
    p.add_argument("--blocklist", type=_path)
    p.set_defaults(func=cmd_eval_recall)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _setup_logging(args.verbose)
    try:
        return args.func(args)
    except MissingArtifactError as exc:
        logger.error("missing artifact: %s", exc)
        return EXIT_MISSING
    # a path that names a directory where a file belongs, or the reverse, is a config error
    except (DataError, ConfigError, IsADirectoryError, NotADirectoryError) as exc:
        logger.error("data error: %s", exc)
        return EXIT_DATA
    except ArtdescError as exc:
        logger.error("%s", exc)
        return EXIT_DATA
    except FloatingPointError as exc:
        logger.error("numeric error: %s", exc)
        return EXIT_DATA
    except FileNotFoundError as exc:
        logger.error("missing file: %s", exc)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
