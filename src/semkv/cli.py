"""Command-line entry points.

Subcommands: gen, compress, eval, contrib, pca, all. `_FLAGS` is the one
home of every flag's spelling but contrib's own: each command's parser,
its -h and its "does not read" errors are built from it. Shared flags can
also come from a JSON config file (--config); explicit flags win over the
file. Failures print one machine-readable JSON object on stderr and exit
nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import sys

from .allocator import BudgetPlan, check_plans, policy_kind
from .contribution import verify_bound_suite
from .errors import CacheConsistencyError, ParameterError, PlanFormatError, SemkvError
from .harness import (
    RunConfig,
    RunResult,
    bound_suite,
    build_eval_report,
    decode_count,
    export_pca_csv,
    export_report,
    open_source,
    run_steps,
    score_plans,
    start_run,
)
from .trace import SyntheticProfile, SyntheticSource, write_trace


def _parse_shape(text: str) -> tuple[int, int, int, int]:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4:
        raise ParameterError(f"--shape wants R,n,N,d, got {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def _split_multi(values, cast):
    out = []
    for v in values:
        try:
            out.extend(cast(p) for p in str(v).split(",") if p)
        except ValueError as exc:
            raise ParameterError(f"bad value {v!r}: {exc}") from exc
    return out


def _number(value, what: str, integral: bool = True):
    """A config file's `value` for `what`, which must be an int or, unless
    `integral`, a float; returned unchanged."""
    kinds = (int,) if integral else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integral else "a number"
        raise ParameterError(f"config {what} must be {kind}, got {value!r}")
    return value


def _of_type(kind: type, name: str):
    """A config file check that `value` is a `kind` (a `name`), returned unchanged."""

    def check(value, what: str):
        if not isinstance(value, kind):
            raise ParameterError(f"config {what} must be {name}, got {value!r}")
        return value

    return check


_text = _of_type(str, "a string")
_list = _of_type(list, "a list")
_object = _of_type(dict, "an object")


def _file_shape(value, what: str) -> tuple[int, int, int, int]:
    shape = tuple(_number(v, what) for v in _list(value, what))
    if len(shape) != 4:
        raise ParameterError(f"config {what} wants [R, n, N, d], got {value!r}")
    return shape  # type: ignore[return-value]


_RUN = ("compress", "eval", "pca", "all")  # the commands that read a trace
_DRAWN = ("gen", "compress", "pca", "all")  # the commands that can draw a trace

# Every flag of every command but contrib, keyed by argparse dest: a config
# flag's dest is the name of the `RunConfig` or `SyntheticProfile` field it
# sets. Each entry is (flag, the commands that parse it, argparse keywords).
# A command's -h lists its flags, and a "does not read" error names them,
# in this order.
_FLAGS = {
    "config": ("--config", ("gen", *_RUN), dict(help="JSON config file; flags override it")),
    "trace_path": ("--trace", _RUN, dict(help="input .tkv trace file")),
    "policies": ("--policy", _RUN, dict(action="append", help="policy name (repeatable)")),
    "budget_ratios": ("--budget", _RUN, dict(action="append", help="budget ratio (repeatable)")),
    "beta": ("--beta", _RUN, dict(type=float, help="bottom-layer heterogeneous fraction")),
    "top_m": ("--m-top", _RUN, dict(type=int, help="top-layer heterogeneous count")),
    "top_t": ("--top-t", _RUN, dict(type=int, help="top-t keys for semantic vectors")),
    "kernel": ("--kernel", _RUN, dict(type=int, help="pooling kernel (odd)")),
    "sinks": ("--sinks", _RUN, dict(type=int, help="sink tokens retained")),
    "recents": ("--recents", _RUN, dict(type=int, help="recent tokens retained")),
    "decode_queries": ("--decode-queries", _RUN, dict(type=int)),
    "seed": ("--seed", ("gen", *_RUN), dict(type=int)),
    "window_len": ("--window", _RUN, dict(type=int, help="observation window length")),
    "kind": (
        "--profile", _DRAWN, dict(choices=SyntheticProfile._KINDS, help="synthetic trace recipe")
    ),
    "shape": ("--shape", _DRAWN, dict(help="R,n,N,d for synthetic traces")),
    "planted": ("--planted", _DRAWN, dict(type=int, help="planted heads per layer")),
    "spread": ("--spread", _DRAWN, dict(type=float, help="clustered-heads noise level")),
    "needle_position": ("--needle-pos", _DRAWN, dict(type=int)),
    "needle_strength": ("--needle-strength", _DRAWN, dict(type=float)),
    "tail_len": ("--tail", _DRAWN, dict(type=int, help="aligned tail rows for planted-needle")),
    "plans": (
        "--plans", ("eval",), dict(action="append", required=True, help="plans JSON (repeatable)")
    ),
    "contrib_trials": ("--contrib-trials", ("all",), dict(type=int)),
    "out": ("--out", ("gen", *_RUN), dict(help="output file or directory")),
}

# The flags that only shape a synthetic trace, by dest.
_SYNTHETIC = {"shape", *(f.name for f in dataclasses.fields(SyntheticProfile))} - {"seed"}

# The run flags each command never reads, by dest. Each one parses but is
# hidden from the command's -h, and given on its command line it fails
# instead of being ignored; a shared config file may still hold its key.
_UNREAD = {
    "compress": ("decode_queries",),
    "eval": ("policies", "budget_ratios", "beta", "top_m", "top_t", "kernel", "sinks", "recents"),
    "pca": ("policies", "budget_ratios", "kernel", "sinks", "recents", "decode_queries"),
}


def _add_flags(parser: argparse.ArgumentParser, command: str, **overrides) -> None:
    """`command`'s flags from `_FLAGS`, each with its table keywords and
    then those `overrides` gives its dest; one it never reads has no help."""
    for dest, (flag, commands, keywords) in _FLAGS.items():
        if command in commands:
            hidden = {"help": argparse.SUPPRESS} if dest in _UNREAD.get(command, ()) else {}
            parser.add_argument(
                flag, dest=dest, **{**keywords, **hidden, **overrides.get(dest, {})}
            )


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise `ParameterError`, which `main`
    reports like any other failure; its subcommands' parsers are one too."""

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semkv",
        description="Head-aware KV-cache compression engine over attention traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic .tkv trace")
    _add_flags(p_gen, "gen", out=dict(required=True, help="destination .tkv path"))
    _add_flags(sub.add_parser("compress", help="plan budgets and report memory"), "compress")
    _add_flags(sub.add_parser("eval", help="fidelity of saved plans against a trace"), "eval")

    p_contrib = sub.add_parser("contrib", help="head-removal contribution bound suite")
    p_contrib.add_argument("--seed", type=int, default=42)
    p_contrib.add_argument("--trials", type=int, default=1000)
    p_contrib.add_argument("--heads", type=int, default=8)
    p_contrib.add_argument("--dim", type=int, default=16)
    p_contrib.add_argument("--out-dim", type=int, default=32)
    p_contrib.add_argument("--out", help="output file or directory")

    _add_flags(sub.add_parser("pca", help="2-D semantic-vector coordinates per head"), "pca")
    _add_flags(sub.add_parser("all", help="full pipeline: plans, memory, fidelity, pca"), "all")
    return parser


# Each config field's (parse its flag's value, check its config file value),
# for the fields that are not plain numbers; a dataclass is a nested object
# whose own fields are merged the same way.
_FIELDS = {
    "trace_path": (str, _text),
    "profile": SyntheticProfile,
    "kind": (str, _text),
    "shape": (_parse_shape, _file_shape),
    "policies": (
        lambda texts: tuple(map(policy_kind, _split_multi(texts, str))),
        lambda value, what: tuple(map(policy_kind, _list(value, what))),
    ),
    "budget_ratios": (
        lambda texts: tuple(_split_multi(texts, float)),
        lambda value, what: tuple(float(_number(v, what, False)) for v in _list(value, what)),
    ),
}


def _number_entry(f: dataclasses.Field):
    """A number field's table entry: argparse has typed the flag, and
    the file value is integral unless the field is a float."""
    integral = f.type not in (float, "float")
    return (lambda value: value), (lambda value, what: _number(value, what, integral))


def _merged(cls, args, file_values: dict, prefix: str = ""):
    """An instance of dataclass `cls`, or None when a field without a
    default is set by neither source.

    Each field's config file value is checked, even when its flag (the
    argparse dest of the field's name) is given; then the flag wins. A
    nested dataclass field is merged the same way from its file object.
    """
    fields = dataclasses.fields(cls)
    unknown = sorted(set(file_values) - {f.name for f in fields})
    if unknown:
        raise ParameterError(f"config: unknown key(s) {', '.join(prefix + k for k in unknown)}")
    values = {}
    for f in fields:
        what, entry = prefix + f.name, _FIELDS.get(f.name)
        file_value, flag_value = file_values.get(f.name), getattr(args, f.name, None)
        if dataclasses.is_dataclass(entry):
            nested = {} if file_value is None else _object(file_value, what)
            values[f.name] = _merged(entry, args, nested, what + ".")
            continue
        parse, check = entry or _number_entry(f)
        if file_value is not None:
            values[f.name] = check(file_value, what)
        if flag_value is not None:
            values[f.name] = parse(flag_value)
    if any(f.name not in values for f in fields if f.default is dataclasses.MISSING):
        return None
    return cls(**values)


def _given(args, dests) -> str:
    """The flags of `dests` given on the command line, in `_FLAGS` order."""
    return ", ".join(
        flag for dest, (flag, _, _) in _FLAGS.items()
        if dest in dests and getattr(args, dest, None) is not None
    )


def _check_unread_flags(args, cfg: RunConfig) -> None:
    unread = set(_UNREAD.get(args.command, ()))
    if cfg.trace_path is not None and args.command != "gen":
        if args.command in ("compress", "eval", "pca"):
            unread.add("seed")  # seeds only a synthetic trace
        if args.command in _DRAWN:
            unread |= _SYNTHETIC
    elif cfg.profile is not None:  # a drawn trace reads only its own profile kind's flags
        kinds, kind = SyntheticProfile._KINDS, cfg.profile.kind
        other = _given(args, set().union(*kinds.values()) - set(kinds[kind]))
        if other:
            raise ParameterError(f"profile {kind} does not read {other}")
    if args.command == "eval" and cfg.decode_queries is not None:
        unread.add("window_len")  # only sets the default decode rows
    given = _given(args, unread)
    if given:
        raise ParameterError(f"{args.command} does not read {given}")


def _config_from(args) -> RunConfig:
    """The command's `RunConfig`, its config file merged with its flags;
    a flag the command never reads fails (`_check_unread_flags`)."""
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as f:
            file_cfg = _object(json.load(f), args.config)
    cfg = _merged(RunConfig, args, file_cfg)
    _check_unread_flags(args, cfg)
    return cfg


def _outdir(args) -> str:
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


class _Outputs:
    """A command's output files, written in `out` under temporary names and
    renamed into place together once the command succeeds.

    Every final name is checked before the first rename: a directory there
    fails the command. A rename that still fails undoes the ones before it
    and puts back each file they replaced, which waits under a backup name
    until every rename is done. On any failure the staged files are
    removed, so a failed run leaves `out` as it found it.
    """

    def __init__(self, out: str):
        self.out = out
        self._staged: dict[str, str] = {}

    def path(self, name: str) -> str:
        """Where to write the output `name`: its temporary file. When `out`
        is not a directory, the error names the output, not that file."""
        final = os.path.join(self.out, name)
        if not os.path.isdir(self.out):
            code = errno.ENOTDIR if os.path.exists(self.out) else errno.ENOENT
            raise OSError(code, os.strerror(code), final)
        self._staged[final] = os.path.join(self.out, f".{name}.partial")
        return self._staged[final]

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._discard()
            return
        try:
            self._commit()
        except OSError:
            self._discard()
            raise

    def _discard(self) -> None:
        for temporary in self._staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)

    def _commit(self) -> None:
        for final in self._staged:
            if os.path.isdir(final):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), final)
        done = []  # (final, its backup or None), in rename order
        try:
            for final, temporary in self._staged.items():
                backup = f"{temporary}.old" if os.path.lexists(final) else None
                if backup:
                    os.replace(final, backup)
                done.append((final, backup))
                os.replace(temporary, final)
        except OSError:
            for final, backup in reversed(done):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(final)
                if backup:
                    os.replace(backup, final)
            raise
        for _, backup in done:
            if backup:
                os.remove(backup)


def _plan_filenames(cells) -> dict:
    """Each cell's plans file name, `plans_{policy}_{ratio:g}.json`. Two
    budgets that print alike would share one file, so they fail."""
    names, ratios = {}, {}
    for policy, ratio in cells:
        name = names[(policy, ratio)] = f"plans_{policy}_{ratio:g}.json"
        other = ratios.setdefault(name, ratio)
        if other != ratio:
            raise ParameterError(
                f"budgets {other!r} and {ratio!r} would share the plans file {name}"
            )
    return names


def _write_json(path: str, payload: dict) -> None:
    # compact, one line: json.dumps runs the C encoder, json.dump(indent=...) does not
    with open(path, "w") as f:
        f.write(json.dumps(payload) + "\n")


def _cmd_gen(args) -> int:
    cfg = _config_from(args)
    if cfg.profile is None or cfg.shape is None:
        raise ParameterError("gen needs --profile and --shape")
    out, name = os.path.split(args.out)
    if not name or os.path.isdir(args.out):
        raise ParameterError(f"gen --out {args.out} is a directory, not a trace file")
    source = SyntheticSource(cfg.profile, cfg.shape)
    with _Outputs(out or ".") as outputs:
        written = write_trace(source, outputs.path(name))
    print(f"wrote {args.out} ({written} bytes)")
    return 0


class _PlansFiles:
    """One plans file per cell, each appended one layer's plan at a time.

    A finished file holds exactly `json.dumps(payload) + "\n"` of the whole
    payload: its head up to the opening of the `layers` list, each layer's
    plan, then the list's and object's closing brackets.
    """

    def __init__(self, files: contextlib.ExitStack, outputs: _Outputs, header, names: dict):
        self._files = {}
        for (policy, ratio), name in names.items():
            f = self._files[(policy, ratio)] = files.enter_context(open(outputs.path(name), "w"))
            payload = {
                "policy": policy,
                "budget_ratio": ratio,
                "trace": header.dims,
                "layers": [],
            }
            # the payload ends with its empty layer list, "[]}"
            f.write(json.dumps(payload)[:-2])
        self._separator = ""

    def add(self, plans: dict) -> None:
        for cell, plan in plans.items():
            self._files[cell].write(self._separator + json.dumps(plan.to_json_dict()))
        self._separator = ", "

    def finish(self) -> None:
        for f in self._files.values():
            f.write("]}\n")


def _infeasible_note(result, listed_in: str) -> str:
    n = len(result.infeasible)
    return f"; {n} infeasible cell(s) listed in {listed_in}" if n else ""


def _run_and_write_plans(cfg, result: RunResult, names, layers, outputs, files) -> None:
    """`run_steps` of the started `result` over `layers`, each layer's plans
    appended to the cells' plans files (`names`) before the next layer is read."""
    plans_files = _PlansFiles(files, outputs, result.header, names)
    for plans in run_steps(cfg, result, layers):
        plans_files.add(plans)
    plans_files.finish()


def _cmd_compress(args) -> int:
    cfg = _config_from(args)
    with open_source(cfg) as source:
        result = start_run(cfg, source.header, score=False)
        names = _plan_filenames(result.facts)
        out = _outdir(args)
        with _Outputs(out) as outputs, contextlib.ExitStack() as files:
            _run_and_write_plans(cfg, result, names, source.layers(), outputs, files)
            memory_rows = [
                {
                    "policy": policy,
                    "budget_ratio": ratio,
                    **result.memory((policy, ratio))._asdict(),
                }
                for policy, ratio in sorted(result.facts)
            ]
            payload = {"memory": memory_rows}
            if result.infeasible:
                payload["infeasible"] = result.infeasible
            _write_json(outputs.path("memory.json"), payload)
    print(f"wrote {len(memory_rows)} plan file(s) and memory.json to {out}"
          + _infeasible_note(result, "memory.json"))
    return 0


def _read_plans(path: str, header) -> tuple[str, float, list[BudgetPlan]]:
    """A plans file's policy, budget ratio and plans, checked against the
    trace `header`: a file that is not a plans file, has a key a plans file
    does not, or whose layers do not all name its policy, raises
    PlanFormatError; plans that do not fit the trace raise
    CacheConsistencyError."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    try:
        policy, ratio, layers = payload["policy"], payload["budget_ratio"], payload["layers"]
        dims = payload["trace"]
    except (KeyError, TypeError) as exc:
        raise PlanFormatError(f"{path}: not a plans file ({exc!r})") from exc
    unknown = sorted(set(payload) - {"policy", "budget_ratio", "trace", "layers"})
    if unknown:
        raise PlanFormatError(f"{path}: unknown key(s) {', '.join(unknown)}")
    if isinstance(ratio, bool) or not isinstance(ratio, (int, float)) or not 0 < ratio <= 1:
        raise PlanFormatError(f"{path}: budget_ratio must be a number in (0, 1], got {ratio!r}")
    if not isinstance(layers, list):
        raise PlanFormatError(f"{path}: layers must be a list, got {type(layers).__name__}")
    if dims != header.dims:
        raise CacheConsistencyError(f"{path}: plans for trace {dims}, not {header.dims}")
    plans = [BudgetPlan.from_json_dict(d) for d in layers]
    for plan in plans:
        if plan.policy.value != policy:
            raise PlanFormatError(
                f"{path}: layer {plan.layer} has policy {plan.policy.value!r}, file has {policy!r}"
            )
    return policy, ratio, check_plans(header, plans)


def _cmd_eval(args) -> int:
    cfg = _config_from(args)
    with open_source(cfg) as source:
        header = source.header
        plan_sets = [_read_plans(path, header) for path in args.plans]
        reports = score_plans(
            source.layers(), [plans for _, _, plans in plan_sets], decode_count(cfg, header)
        )
    fidelity_rows = [
        {"plans": os.path.basename(path), "policy": policy, "budget_ratio": ratio,
         **fid.to_json_dict()}
        for path, (policy, ratio, _), fid in zip(args.plans, plan_sets, reports)
    ]
    out = _outdir(args)
    with _Outputs(out) as outputs:
        _write_json(outputs.path("fidelity.json"), {"fidelity": fidelity_rows})
    print(f"wrote fidelity.json to {out}")
    return 0


def _cmd_contrib(args) -> int:
    report = verify_bound_suite(args.seed, args.trials, args.heads, args.dim, args.out_dim)
    payload = dataclasses.asdict(report)
    if not args.out:
        print(json.dumps(payload, indent=2))
        return 0
    path = args.out
    if os.path.isdir(path) or not path.endswith(".json"):
        os.makedirs(path, exist_ok=True)
        path = os.path.join(path, "contribution.json")
    out, name = os.path.split(path)
    with _Outputs(out or ".") as outputs:
        _write_json(outputs.path(name), payload)
    print(f"wrote {path}")
    return 0


def _cmd_pca(args) -> int:
    cfg = _config_from(args)
    with open_source(cfg) as source:
        result = start_run(cfg, source.header, plan=False, score=False)
        for _ in run_steps(cfg, result, source.layers()):
            pass
        report = build_eval_report(cfg, result)
    out = _outdir(args)
    with _Outputs(out) as outputs:
        export_pca_csv(report, outputs.path("pca.csv"))
    print(f"wrote {os.path.join(out, 'pca.csv')}")
    return 0


def _cmd_all(args) -> int:
    cfg = _config_from(args)
    with open_source(cfg) as source:
        result = start_run(cfg, source.header)
        names = _plan_filenames(result.facts)
        out = _outdir(args)
        with _Outputs(out) as outputs:
            with contextlib.ExitStack() as files:
                if cfg.trace_path is None:
                    # a drawn trace is saved, and its layers mapped from there
                    saved = files.enter_context(open(outputs.path("trace.tkv"), "w+b"))
                    layers = source._drawn_into(saved)
                else:
                    layers = source.layers()
                _run_and_write_plans(cfg, result, names, layers, outputs, files)
            report = build_eval_report(cfg, result, bound_suite(cfg))
            export_report(report, "json", outputs.path("report.json"))
            export_report(report, "csv", outputs.path("report.csv"))
            export_pca_csv(report, outputs.path("pca.csv"))
    print(f"wrote report.json, report.csv, pca.csv and plans to {out}"
          + _infeasible_note(result, "report.json"))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "compress": _cmd_compress,
    "eval": _cmd_eval,
    "contrib": _cmd_contrib,
    "pca": _cmd_pca,
    "all": _cmd_all,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (SemkvError, OSError, MemoryError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
