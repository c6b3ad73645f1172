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
    0  requested computation completed, or stdout closed by its reader
    1  input errors: unreadable files, lexicon parse or validation
       failures, bad parameter values, sizes too large to allocate
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
import os
import sys
from pathlib import Path

from .analysis import (
    ComparisonRecord,
    bonferroni_alpha,
    build_trace_set,
    model_recovery,
    simulate_dataset,
    write_dataset,
    NestingError,
    SingularDesignError,
)
from .cohort import CohortTrie, ImpossibleContinuationError, build_trie
from .continuum import (
    ContinuumPoint, DegenerateCurveError, read_identification_curves, resample_continua,
)
from .lexicon import LexiconError, parse_lexicon
from .metrics import (
    AcousticEvidence,
    MetricPoint,
    MetricTrace,
    UndefinedCorrelationError,
    metric_trace,
    model_correlation,
    model_divergence_ranking,
)
from .stimuli import WordPair, _pair_columns

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


# Cell types both formats already write as the cell functions would:
# str as is, int as digits, None as an empty cell or null.
_PLAIN_TYPES = frozenset((str, int, type(None)))
# Rows converted and written per block: converting the whole table at
# once would hold every cell's text in memory next to the columns.
_BLOCK_ROWS = 1024


def _blocks(columns, fieldnames, fmt):
    """The table's text a block of rows at a time: the CSV header, then
    each block; or each block of the JSON array, then its closing."""
    cell = _csv_cell if fmt == "csv" else _json_cell
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if fmt == "csv":
        writer.writerow(fieldnames)
        yield buffer.getvalue()
    n_rows = len(columns[0])
    for lo in range(0, n_rows, _BLOCK_ROWS):
        block = [column[lo:lo + _BLOCK_ROWS] for column in columns]
        rows = zip(*(
            cells if set(map(type, cells)) <= _PLAIN_TYPES else list(map(cell, cells))
            for cells in block
        ))
        if fmt == "csv":
            buffer.seek(0)
            buffer.truncate()
            writer.writerows(rows)
            yield buffer.getvalue()
        else:
            # the block's objects as `json.dumps` indents them in the
            # whole array, without the array's brackets
            text = json.dumps([dict(zip(fieldnames, row)) for row in rows], indent=2)
            yield ("[\n" if lo == 0 else ",\n") + text[2:-2]
    if fmt == "json":
        yield "\n]\n" if n_rows else "[]\n"


def write_records(columns, fieldnames, out_path: str | None, fmt: str) -> None:
    """Serialize a table, one column per field in `fieldnames` order, as
    CSV rows or a JSON array, to `out_path` or else stdout.

    Each column is a sequence (a list, a tuple or a numpy object array)
    of str, int, float, bool or None cells, all of one length. None is an
    empty CSV cell, a JSON null. Floats are rounded to 6 decimals in both
    formats, so the two carry identical values field for field. A CSV
    cell holding a comma or a quote is quoted, so every row keeps one
    cell per field. Both formats are converted and written a block of
    rows at a time, so the whole text is never held; a column's block of
    str, int and None cells only is passed on unconverted.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    chunks = _blocks(columns, fieldnames, fmt)
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with Path(out_path).open("w", encoding="utf-8") as handle:
            handle.writelines(chunks)


def _parse_pair(raw: str) -> tuple[str, str]:
    parts = [p.strip().upper() for p in raw.split(",")]
    if len(parts) != 2 or not all(parts) or parts[0] == parts[1]:
        raise ValueError(f"--pair needs two distinct phonemes like B,P, got {raw!r}")
    return parts[0], parts[1]


def _parse_betas(raw: str) -> tuple[float, float]:
    try:
        surprisal, entropy = map(float, raw.split(","))
    except ValueError:
        raise ValueError(
            f"--betas needs two comma-separated numbers, got {raw!r}"
        ) from None
    if not all(abs(beta) < float("inf") for beta in (surprisal, entropy)):
        raise ValueError("--betas must be finite")
    return surprisal, entropy


def _traces_for_pair(
    trie: CohortTrie, pair: tuple[str, str], p_a: float
) -> list[MetricTrace]:
    """build_trace_set over one onset pair at one evidence level, warning
    once for each word whose committed path dies (and so has no trace).
    Raises ValueError when no word is left to trace."""

    def warn_skip(entry, _p_a):
        _warn(f"{entry.orthography}: committed path leaves the lexicon, skipped")

    traces = build_trace_set(trie, ambiguities=(p_a,), pairs=(pair,), on_skip=warn_skip)
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
    write_records([[cell] for cell in row], fieldnames, args.out, args.format)
    return EXIT_OK


def cmd_trace(args) -> int:
    pair = _parse_pair(args.pair)
    lexicon = parse_lexicon(args.lexicon, smoothing=args.smoothing)
    trie = build_trie(lexicon)
    if args.all:
        traces = _traces_for_pair(trie, pair, args.p_a)
    else:
        entries = lexicon.lookup(args.word)
        if not entries:
            raise KeyError(f"word {args.word!r} not in lexicon")
        evidence = AcousticEvidence(pair[0], pair[1], args.p_a)
        traceable = [entry for entry in entries if entry.onset in pair]
        if traceable:
            for entry in entries:
                if entry.onset not in pair:
                    _warn(
                        f"{entry.orthography} /{' '.join(entry.pron)}/: "
                        "onset is not in --pair, skipped"
                    )
        else:
            traceable = entries[:1]  # whose trace raises metric_trace's onset error
        traces = [metric_trace(trie, entry, evidence) for entry in traceable]
    with_word = args.all or len(traces) > 1
    fieldnames = (("word",) if with_word else ()) + MetricPoint._fields
    rows = [
        ((trace.word.orthography,) if with_word else ()) + point
        for trace in traces
        for point in trace.points
    ]
    write_records(list(zip(*rows)), fieldnames, args.out, args.format)
    return EXIT_OK


def cmd_compare(args) -> int:
    pair = _parse_pair(args.pair)
    lexicon = parse_lexicon(args.lexicon, smoothing=args.smoothing)
    trie = build_trie(lexicon)
    traces = _traces_for_pair(trie, pair, args.p_a)
    if len(traces) < 3:
        _warn(f"only {len(traces)} traceable words; correlations need 3")
    max_position = max(len(t.points) for t in traces)
    fieldnames = ("kind", "position", "quantity", "n", "word", "rank", "value")
    rows = []
    for position in range(1, max_position + 1):
        n_here = sum(1 for t in traces if t.point_at(position) is not None)
        if n_here < 3:
            _warn(f"position {position}: only {n_here} traces, correlation skipped")
        for quantity in _QUANTITIES:
            if n_here >= 3:
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
    columns = list(zip(*rows)) or [()] * len(fieldnames)  # no rows: a header or []
    write_records(columns, fieldnames, args.out, args.format)
    return EXIT_OK


def cmd_pairs(args) -> int:
    lexicon = parse_lexicon(args.lexicon, smoothing=args.smoothing)
    # The search's columns go to the writer: no `WordPair` is built.
    columns = _pair_columns(lexicon, args.min_shared, require_divergence=not args.keep_undiverged)
    write_records(columns, WordPair._fields, args.out, args.format)
    return EXIT_OK


def cmd_continuum(args) -> int:
    curves = read_identification_curves(args.curve)
    fieldnames = ("item", *ContinuumPoint._fields, "midpoint", "slope")
    items = sorted(curves)
    continua = resample_continua([curves[item] for item in items], mode=args.mode)
    rows = [
        (item, *point, continuum.midpoint, continuum.slope)
        for item, continuum in zip(items, continua)
        for point in continuum.points
    ]
    write_records(list(zip(*rows)), fieldnames, args.out, args.format)
    return EXIT_OK


def cmd_simfit(args) -> int:
    betas = _parse_betas(args.betas)
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
    )
    if args.data_out:
        # simulation 0's draw: model_recovery's first round uses this seed
        write_dataset(simulate_dataset(
            traces, args.position, args.generator, betas, args.noise,
            args.subjects, args.subject_sd, args.trials, args.seed,
        ), args.data_out)
    fieldnames = ("kind", *ComparisonRecord._fields, "rate")
    rows = [("sim", *rec, None) for rec in summary.records]
    for model, rate in (
        ("acoustic", summary.acoustic_detection_rate),
        ("switch", summary.switch_detection_rate),
    ):
        rows.append(("summary", None, model, None, None, None, None, None, rate))
    write_records(list(zip(*rows)), fieldnames, args.out, args.format)
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
        print("error: --alpha must be in (0, 1)", file=sys.stderr)
        return EXIT_INPUT
    if not 0.0 <= getattr(args, "p_a", 0.5) <= 1.0:
        print("error: --p-a must be in [0, 1]", file=sys.stderr)
        return EXIT_INPUT
    for dest, flag, least in (
        ("top_k", "--top-k", 0),
        ("df", "--df", 0),
        ("seed", "--seed", 0),
        ("sims", "--sims", 1),
        ("subjects", "--subjects", 2),
        ("trials", "--trials", 1),
        ("position", "--position", 1),
        ("min_shared", "--min-shared", 1),
    ):
        # None: the command has no such flag, or --df is unset
        value = getattr(args, dest, None)
        if value is not None and value < least:
            print(f"error: {flag} must be >= {least}", file=sys.stderr)
            return EXIT_INPUT
    for dest, flag in (("noise", "--noise"), ("subject_sd", "--subject-sd")):
        if not 0.0 <= getattr(args, dest, 0.0) < float("inf"):
            print(f"error: {flag} must be finite and >= 0", file=sys.stderr)
            return EXIT_INPUT
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        # flushed here, so a reader that leaves early is met below and not
        # at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`cohortlex pairs ... | head`): stop
        # quietly, with stdout on devnull so the flush at exit succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
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
    except (LexiconError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
