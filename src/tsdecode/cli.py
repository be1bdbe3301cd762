"""Command-line front end: gen, suggest, eval, sweep-pt, sweep-ratio.

Exit codes: 0 success, 1 runtime/I-O error, 2 usage or configuration error,
including a malformed task, result or model spec file, and a vocabulary
size outside [3, ``core.MAX_VOCAB_SIZE``] = [3, 1048576] in a model spec's
``vocab_size``, a config's ``vocab_size`` or ``gen --vocab-size``.
Flags override config-file values. Per-task decode failures are recorded as
error rows in the output, not process failures.

Each ``main`` call builds a parser holding only the subcommand that its
first argument names (``build_parser(command)``), and the parser of all
five only for ``-h``, no argument or an unknown command; help, usage lines,
errors and exit codes read the same either way. Building and parsing took
1.0-1.2 ms per command with all five subcommands and 0.30-0.48 ms with one
(CPU, minimum of 15 runs on a 2-vCPU x86-64 host, Python 3.11; see
``BENCH_19.json``), and a file-based pipeline runs four commands per task.
A parser built once per process would leave only the parse (35-85 us), but
it is a process-wide cache: a benchmark's later passes would be warm while
no command got faster. A fixed-width help formatter saves only 20-90 us
more. Neither is used.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .core import (
    MalformedLine,
    ResultRow,
    TsError,
    TsTask,
    read_results_jsonl,
    read_tasks_jsonl,
    write_results_jsonl,
    write_tasks_jsonl,
)
from .decode import PsgdParams
# bench/tracer.py patches cli.decode_task by name, so it stays imported.
from .harness import (
    GenConfig,
    SweepConfig,
    decode_task,
    eval_record,
    gen_config_from_dict,
    gen_dataset,
    result_rows,
    run_pt_sweep,
    run_ratio_sweep,
    split_by_ratio,
    sweep_config_from_dict,
)
from .lm import InvalidModelSpec, SequenceModel, load_model_spec, model_from_spec, save_model_spec
from .metrics import BenchRow, EmptyCorpus, EvalRecord, aggregate, write_metrics_csv
from .scoring import SCORING_MODES

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class UnknownTaskId(TsError):
    """A result row references a task id absent from the task file."""


class ConfigError(Exception):
    """Bad configuration or unusable input path."""


_CONFIG_KEYS = frozenset(f.name for cls in (GenConfig, SweepConfig) for f in fields(cls))


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, ValueError) as exc:  # a JSONDecodeError or UnicodeDecodeError is a ValueError
        raise ConfigError(f"cannot read JSON config {path}: {exc}") from exc
    if not isinstance(d, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return d


def _require_file(path: str, what: str) -> None:
    if not Path(path).is_file():
        raise ConfigError(f"{what} not found: {path}")


def _floats(text: str) -> tuple[float, ...]:
    """The value of a comma-separated number flag; a usage error names it."""
    try:
        return tuple(float(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _ints(text: str) -> tuple[int, ...]:
    """The value of a comma-separated integer flag; a usage error names it."""
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _gen_config_from(d: dict) -> GenConfig:
    """The GenConfig of a resolved config; ConfigError if it is invalid, has
    an unknown key, or its ``vocab_size`` differs from its model spec's."""
    unknown = sorted(set(d) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    spec = d.get("model_spec")
    spec_size = spec.get("vocab_size") if isinstance(spec, dict) else None
    if spec_size is not None and d.get("vocab_size", spec_size) != spec_size:
        raise ConfigError(
            f"vocab_size {d['vocab_size']} differs from model_spec vocab_size {spec_size}"
        )
    try:
        return gen_config_from_dict(d)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _gen_config(args) -> GenConfig:
    d = _load_json(args.config) if args.config else {}
    if args.vocab_size is not None:
        d["vocab_size"] = args.vocab_size
    if args.n_tasks is not None:
        d["n_tasks"] = args.n_tasks
    if args.seed is not None:
        d["seed"] = args.seed
    if args.mask_ratios is not None:
        d["mask_ratio_list"] = list(args.mask_ratios)
    if args.source_len_range is not None:
        d["source_len_range"] = list(args.source_len_range)
    if args.constraint_source is not None:
        d["constraint_source"] = args.constraint_source
    return _gen_config_from(d)


def _psgd_params(args) -> PsgdParams:
    """The decoder flags of ``suggest``; a value out of range is a usage
    error for both decoders."""
    for flag, value, least in (
        ("--beam-width", args.beam_width, 1),
        ("--pt", args.pt, 0),
        ("--max-span-len", args.max_span_len, 1),
    ):
        if value is not None and value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    return PsgdParams(
        beam_width=args.beam_width,
        patience=args.pt,
        max_span_len=args.max_span_len,
        scoring=args.scoring,
        include_eos_in_len=args.include_eos_in_len,
    )


def cmd_gen(args) -> int:
    cfg = _gen_config(args)
    model = model_from_spec(cfg.resolved_model_spec())
    tasks = gen_dataset(cfg, model)
    write_tasks_jsonl(args.out, tasks)
    if args.model_spec:
        save_model_spec(args.model_spec, model)
    print(f"wrote {len(tasks)} tasks to {args.out}")
    return EXIT_OK


def cmd_suggest(args) -> int:
    params = _psgd_params(args)
    _require_file(args.tasks, "task file")
    _require_file(args.model_spec, "model spec")
    model = load_model_spec(args.model_spec)
    tasks = read_tasks_jsonl(args.tasks)
    rows = result_rows(model, tasks, args.decoder, args.decoder, params)
    write_results_jsonl(args.out, rows)
    print(f"wrote {len(rows)} results to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _require_file(args.tasks, "task file")
    _require_file(args.results, "result file")
    tasks = {t.task_id: t for t in read_tasks_jsonl(args.tasks)}
    results = read_results_jsonl(args.results)
    records: list[EvalRecord] = []
    for row in results:
        task = tasks.get(row.task_id)
        if task is None:
            raise UnknownTaskId(f"result references unknown task id {row.task_id!r}")
        record = eval_record(task, row)
        if record is not None:
            records.append(record)
    if not records:
        errors = sum(row.error is not None for row in results)
        raise EmptyCorpus(f"no result row to score: {errors} of {len(results)} rows hold an error")
    write_metrics_csv(args.out, aggregate(records))
    print(f"wrote metrics to {args.out}")
    return EXIT_OK


def _sweep_common(args) -> tuple[SweepConfig, list[TsTask], SequenceModel]:
    d = _load_json(args.config)
    gen_cfg = _gen_config_from(d)
    try:
        sweep_cfg = sweep_config_from_dict(d)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if args.command == "sweep-pt" and "psgd" not in sweep_cfg.decoders:
        raise ConfigError(f"sweep-pt decodes with psgd, but decoders is {list(sweep_cfg.decoders)}")
    # One model for gen and the sweep: the sweep decodes the sources whose
    # references gen drew, from the same rows.
    model = model_from_spec(gen_cfg.resolved_model_spec())
    return sweep_cfg, gen_dataset(gen_cfg, model), model


def _write_sweep(args, sweep_cfg: SweepConfig, bench: list[BenchRow], rows: list[ResultRow]) -> int:
    """Write the metrics CSV and, with ``--results-out``, the result rows."""
    out = args.out or sweep_cfg.output_path
    write_metrics_csv(out, bench)
    if args.results_out:
        write_results_jsonl(args.results_out, rows)
    print(f"wrote metrics to {out}")
    return EXIT_OK


def cmd_sweep_pt(args) -> int:
    sweep_cfg, tasks, model = _sweep_common(args)
    bench, rows = run_pt_sweep(tasks, model, sweep_cfg.pt_values, sweep_cfg.beam_width)
    return _write_sweep(args, sweep_cfg, bench, rows)


def cmd_sweep_ratio(args) -> int:
    sweep_cfg, tasks, model = _sweep_common(args)
    params = PsgdParams(beam_width=sweep_cfg.beam_width, patience=sweep_cfg.pt_values[0])
    bench, rows = run_ratio_sweep(split_by_ratio(tasks), model, sweep_cfg.decoders, params)
    return _write_sweep(args, sweep_cfg, bench, rows)


_SWEEP_ARGS = (
    ("--config", {"required": True, "help": "combined Gen/Sweep config JSON"}),
    ("--out", {"help": "output metrics CSV (overrides config)"}),
    ("--results-out", {"help": "also write per-task result JSONL"}),
)

# Each subcommand as (help, handler, arguments), an argument being the flag
# and its add_argument keywords; build_parser builds parsers from these.
_COMMANDS = {
    "gen": ("generate a synthetic task file and model spec", cmd_gen, (
        ("--config", {"help": "GenConfig JSON file"}),
        ("--vocab-size", {"type": int}),
        ("--n-tasks", {"type": int}),
        ("--seed", {"type": int}),
        ("--mask-ratios", {"type": _floats, "help": "comma-separated ratios in (0,1)"}),
        ("--source-len-range", {"type": _ints, "help": "min,max source length"}),
        ("--constraint-source", {"choices": ["gold_reference", "machine_translation"]}),
        ("--out", {"required": True, "help": "output task JSONL"}),
        ("--model-spec", {"help": "output model spec JSON"}),
    )),
    "suggest": ("decode suggestions for a task file", cmd_suggest, (
        ("--tasks", {"required": True}),
        ("--model-spec", {"required": True}),
        ("--decoder", {"choices": ["psgd", "dba"], "default": "psgd"}),
        ("--beam-width", {"type": int, "default": 5}),
        ("--pt", {"type": int, "default": 5, "help": "early-stopping patience"}),
        ("--max-span-len", {
            "type": int, "default": None,
            "help": "span length cap (DBA: sentence length cap of prefix + suffix + this)",
        }),
        ("--scoring", {"choices": list(SCORING_MODES), "default": "mean_logprob"}),
        ("--include-eos-in-len", {"action": "store_true"}),
        ("--out", {"required": True, "help": "output result JSONL"}),
    )),
    "eval": ("score results against gold tasks", cmd_eval, (
        ("--tasks", {"required": True}),
        ("--results", {"required": True}),
        ("--out", {"required": True, "help": "output metrics CSV"}),
    )),
    "sweep-pt": ("run the sweep pt protocol", cmd_sweep_pt, _SWEEP_ARGS),
    "sweep-ratio": ("run the sweep ratio protocol", cmd_sweep_ratio, _SWEEP_ARGS),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's argument parser. With ``command`` a subcommand name it holds
    that subcommand alone, and its usage line and messages read as the full
    parser's; otherwise it holds all five."""
    parser = argparse.ArgumentParser(
        prog="tsdecode",
        description="Span-infill decoding benchmark harness on synthetic sequence models.",
    )
    names = (command,) if command in _COMMANDS else tuple(_COMMANDS)
    # A one-command parser still names all five in its usage line.
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None,
    )
    for name in names:
        help_text, handler, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MalformedLine, InvalidModelSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TsError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
