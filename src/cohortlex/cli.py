"""Command-line pipeline: ingest, trace, compare, pairs, continuum, simfit.

Emits plot-ready tables, no plots. All numeric output is printed with 6
decimal places, in CSV (default) or JSON carrying identical values. Every
run is deterministic given its flags; simfit's randomness flows from
--seed, which defaults to 0 rather than entropy.

A command runs with the cyclic garbage collector paused (`gc.disable`),
and `main` restores the collector's prior state when the command ends:
the commands build many long-lived objects and leave almost no cyclic
garbage, so full collections would only rescan them. The pause is
process-wide, so other threads of an embedding caller run without
cyclic collection for the duration of that call. Library functions
never touch the collector.

Exit codes:
    0  requested computation completed
    1  input errors: unreadable files, lexicon parse or validation
       failures, bad parameter values
    2  lookup and usage errors: unknown word, bad command line
    3  domain errors: impossible continuation, degenerate identification
       curve, singular design, non-nested fits
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import sys
from pathlib import Path

from .analysis import (
    ComparisonRecord,
    bonferroni_alpha,
    build_trace_set,
    model_recovery,
    write_dataset,
    NestingError,
    SingularDesignError,
)
from .cohort import CohortTrie, ImpossibleContinuationError, build_trie
from .continuum import (
    ContinuumPoint, DegenerateCurveError, read_identification_curves, resample_continuum,
)
from .lexicon import LexiconError, parse_lexicon
from .metrics import (
    TRACE_FIELDS,
    AcousticEvidence,
    MetricTrace,
    UndefinedCorrelationError,
    metric_trace,
    model_correlation,
    model_divergence_ranking,
)
from .stimuli import WordPair, find_word_pairs

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_LOOKUP = 2
EXIT_DOMAIN = 3

_QUANTITIES = ("surprisal", "entropy")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _json_cell(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.6f}")
    return value


# Cell types `csv.writer` already writes as `_csv_cell` would: str as is,
# int through str, None as an empty cell.
_PLAIN_CSV_TYPES = frozenset((str, int, type(None)))
# Rows converted per block: converting the whole table at once would hold
# every cell's text in memory next to the rows and the output buffer.
_CSV_BLOCK_ROWS = 1024


def _csv_column(cells):
    if set(map(type, cells)) <= _PLAIN_CSV_TYPES:
        return cells
    return [_csv_cell(cell) for cell in cells]


def write_records(rows, fieldnames, out_path: str | None, fmt: str) -> None:
    """Serialize rows (a list of tuples in `fieldnames` order) as CSV rows or
    a JSON array.

    A field a row does not have is an explicit None: an empty CSV cell,
    a JSON null. Floats are rounded to 6 decimals in both formats, so the
    two carry identical values field for field. A CSV cell holding a
    comma or a quote is quoted, so every row keeps one cell per field.
    CSV cells are converted a column at a time, in blocks of rows.
    """
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fieldnames)
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            writer.writerows(zip(*(_csv_column(column) for column in zip(*block))))
        text = buffer.getvalue()
    elif fmt == "json":
        payload = [dict(zip(fieldnames, map(_json_cell, row))) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _parse_pair(raw: str) -> tuple[str, str]:
    parts = [p.strip().upper() for p in raw.split(",")]
    if len(parts) != 2 or not all(parts) or parts[0] == parts[1]:
        raise ValueError(f"--pair needs two distinct phonemes like B,P, got {raw!r}")
    return parts[0], parts[1]


def _parse_betas(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"--betas needs two comma-separated numbers, got {raw!r}")
    return float(parts[0]), float(parts[1])


def _traces_for_pair(
    trie: CohortTrie, pair: tuple[str, str], p_a: float
) -> list[MetricTrace]:
    """build_trace_set over one onset pair at one evidence level, warning
    once for each word whose committed path dies (and so has no trace).
    Raises ValueError when no word is left to trace."""

    def warn_skip(entry, _p_a):
        _warn(f"{entry.orthography}: committed path leaves the lexicon, skipped")

    traces = build_trace_set(
        trie, ambiguities=(p_a,), pairs=(pair,), min_length=1, on_skip=warn_skip
    )
    if not traces:
        raise ValueError(f"no traceable word starts with {pair[0]} or {pair[1]}")
    return traces


def cmd_ingest_check(args) -> int:
    lexicon = parse_lexicon(args.lexicon, smoothing=args.smoothing)
    fieldnames = ("n_entries", "inventory_size", "total_frequency", "frequency_unit")
    row = (
        len(lexicon),
        len(lexicon.inventory),
        float(lexicon.total_frequency),
        lexicon.frequency_unit,
    )
    write_records([row], fieldnames, args.out, args.format)
    return EXIT_OK


def cmd_trace(args) -> int:
    lexicon = parse_lexicon(args.lexicon, smoothing=args.smoothing)
    trie = build_trie(lexicon)
    pair = _parse_pair(args.pair)
    if args.all:
        traces = _traces_for_pair(trie, pair, args.p_a)
    else:
        entries = lexicon.lookup(args.word)
        if not entries:
            raise KeyError(f"word {args.word!r} not in lexicon")
        evidence = AcousticEvidence(pair[0], pair[1], args.p_a)
        traces = [metric_trace(trie, entry, evidence) for entry in entries]
    with_word = args.all or len(traces) > 1
    fieldnames = (("word",) if with_word else ()) + TRACE_FIELDS
    rows = [
        ((trace.word.orthography,) if with_word else ()) + point
        for trace in traces
        for point in trace.points
    ]
    write_records(rows, fieldnames, args.out, args.format)
    return EXIT_OK


def cmd_compare(args) -> int:
    lexicon = parse_lexicon(args.lexicon, smoothing=args.smoothing)
    trie = build_trie(lexicon)
    pair = _parse_pair(args.pair)
    traces = _traces_for_pair(trie, pair, args.p_a)
    if len(traces) < 3:
        _warn(f"only {len(traces)} traceable words; correlations need 3")
    max_position = max(len(t.points) for t in traces)
    fieldnames = ("kind", "position", "quantity", "n", "word", "rank", "value")
    rows = []
    for position in range(1, max_position + 1):
        n_here = sum(1 for t in traces if t.point_at(position) is not None)
        for quantity in _QUANTITIES:
            if n_here < 3:
                _warn(
                    f"position {position}: only {n_here} traces, correlation skipped"
                )
            else:
                try:
                    r = model_correlation(traces, position, quantity)
                except UndefinedCorrelationError:
                    _warn(
                        f"position {position}: constant {quantity} values, "
                        "correlation skipped"
                    )
                else:
                    rows.append(
                        ("correlation", position, quantity, n_here, None, None, r)
                    )
            ranking = model_divergence_ranking(traces, position, quantity)
            for rank, (entry, gap) in enumerate(ranking[: args.top_k], start=1):
                rows.append(
                    ("divergence", position, quantity, None, entry.orthography, rank, gap)
                )
    write_records(rows, fieldnames, args.out, args.format)
    return EXIT_OK


def cmd_pairs(args) -> int:
    lexicon = parse_lexicon(args.lexicon, smoothing=args.smoothing)
    pairs = find_word_pairs(
        lexicon, args.min_shared, require_divergence=not args.keep_undiverged
    )
    write_records(pairs, WordPair._fields, args.out, args.format)
    return EXIT_OK


def cmd_continuum(args) -> int:
    curves = read_identification_curves(args.curve)
    fieldnames = ("item", *ContinuumPoint._fields, "midpoint", "slope")
    rows = []
    for item in sorted(curves):
        continuum = resample_continuum(curves[item], mode=args.mode)
        rows.extend(
            (item, *point, continuum.midpoint, continuum.slope)
            for point in continuum.points
        )
    write_records(rows, fieldnames, args.out, args.format)
    return EXIT_OK


def cmd_simfit(args) -> int:
    lexicon = parse_lexicon(args.lexicon, smoothing=args.smoothing)
    trie = build_trie(lexicon)
    skipped = []
    traces = build_trace_set(trie, on_skip=lambda *attempt: skipped.append(attempt))
    if skipped:
        attempted = len(traces) + len(skipped)
        _warn(
            f"{len(skipped)} of {attempted} word/ambiguity traces skipped "
            "(impossible continuation)"
        )
    if not traces:
        raise ValueError("no traceable voicing-onset words in the lexicon")
    betas = _parse_betas(args.betas)

    def write_first(sim, dataset):
        if sim == 0:
            write_dataset(dataset, args.data_out)

    summary = model_recovery(
        traces,
        position=args.position,
        generator=args.generator,
        betas=betas,
        noise_sd=args.noise,
        n_subjects=args.subjects,
        subject_sd=args.subject_sd,
        trials_per_subject=args.trials,
        n_sims=args.sims,
        alpha=args.alpha,
        seed=args.seed,
        df=args.df,
        on_dataset=write_first if args.data_out else None,
    )
    fieldnames = ("kind", *ComparisonRecord._fields, "rate")
    rows = [("sim", *rec, None) for rec in summary.records]
    for model, rate in (
        ("acoustic", summary.acoustic_detection_rate),
        ("switch", summary.switch_detection_rate),
    ):
        rows.append(("summary", None, model, None, None, None, None, None, rate))
    write_records(rows, fieldnames, args.out, args.format)
    print(
        f"generator={summary.generator} sims={summary.n_sims} "
        f"alpha={summary.alpha:.6f} "
        f"bonferroni_alpha={bonferroni_alpha(summary.alpha):.6f}",
        file=sys.stderr,
    )
    print(
        f"detection rates: acoustic={summary.acoustic_detection_rate:.6f} "
        f"switch={summary.switch_detection_rate:.6f} "
        f"generating={summary.generating_detection_rate:.6f}",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohortlex",
        description="Cohort activation metrics, stimulus search, and model comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="output file (default: stdout)")
    output.add_argument("--format", choices=("csv", "json"), default="csv")

    lex = argparse.ArgumentParser(add_help=False)
    lex.add_argument("--lexicon", required=True, help="lexicon TSV path")
    lex.add_argument(
        "--smoothing", type=float, default=0.0,
        help="additive frequency smoothing constant (default 0)",
    )

    p = sub.add_parser(
        "ingest-check", parents=[lex, output],
        help="parse and validate a lexicon, print a summary",
    )
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser(
        "trace", parents=[lex, output],
        help="per-phoneme metric trace for one word (or all onset-pair words)",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="orthographic word to trace")
    group.add_argument(
        "--all", action="store_true",
        help="trace every word whose onset is in --pair",
    )
    p.add_argument("--pair", required=True, help="onset candidates, e.g. B,P")
    p.add_argument("--p-a", type=float, default=0.75, dest="p_a",
                   help="evidence weight for the first --pair onset; with --all, "
                   "for each word's own onset (default 0.75)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "compare", parents=[lex, output],
        help="per-position correlation between the two models plus outliers",
    )
    p.add_argument("--pair", required=True, help="onset candidates, e.g. B,P")
    p.add_argument("--p-a", type=float, default=0.75, dest="p_a",
                   help="evidence weight for each word's own onset (default 0.75)")
    p.add_argument("--top-k", type=int, default=5,
                   help="divergence-ranking cutoff per position (default 5)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "pairs", parents=[lex, output],
        help="voicing-contrast word pairs sharing post-onset phonemes",
    )
    p.add_argument("--min-shared", type=int, default=2,
                   help="minimum shared post-onset phonemes (default 2)")
    p.add_argument("--keep-undiverged", action="store_true",
                   help="keep pairs that never diverge (prefix embeddings)")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser(
        "continuum", parents=[output],
        help="resample 11-step identification curves to the 5-step design",
    )
    p.add_argument("--in", required=True, dest="curve",
                   help="identification-curve CSV")
    p.add_argument("--mode", choices=("raw", "fitted"), default="raw",
                   help="match targets against raw proportions or the fitted curve")
    p.set_defaults(func=cmd_continuum)

    p = sub.add_parser(
        "simfit", parents=[lex, output],
        help="simulate datasets from one model and score recovery by nested LRTs",
    )
    p.add_argument("--generator", choices=("acoustic", "switch"), default="acoustic")
    p.add_argument("--betas", default="1,1",
                   help="surprisal,entropy effect sizes (default 1,1)")
    p.add_argument("--noise", type=float, default=0.5,
                   help="residual noise SD (default 0.5)")
    p.add_argument("--subjects", type=int, default=10)
    p.add_argument("--subject-sd", type=float, default=1.0, dest="subject_sd",
                   help="between-subject intercept SD (default 1)")
    p.add_argument("--trials", type=int, default=500,
                   help="trials per subject (default 500)")
    p.add_argument("--sims", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--position", type=int, default=2,
                   help="phoneme position the responses are generated from")
    p.add_argument("--df", type=int, default=None,
                   help="LRT degrees of freedom override")
    p.add_argument("--data-out", default=None,
                   help="also write the first simulated dataset as CSV")
    p.set_defaults(func=cmd_simfit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0.0 < getattr(args, "alpha", 0.05) < 1.0:
        print("error: alpha must be in (0, 1)", file=sys.stderr)
        return EXIT_INPUT
    if not 0.0 <= getattr(args, "p_a", 0.5) <= 1.0:
        print("error: --p-a must be in [0, 1]", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "top_k", 0) < 0:
        print("error: --top-k must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "df", None) is not None and args.df < 0:
        print("error: --df must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (
        ImpossibleContinuationError,
        DegenerateCurveError,
        SingularDesignError,
        NestingError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except LookupError as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_LOOKUP
    except (LexiconError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
