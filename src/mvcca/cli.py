"""Batch front door: the subcommands of ``COMMANDS``.

Every subcommand reads a flat key=value config file, its only source of
settings, checks it against the known keys and the value rules of
``_CASTERS`` and ``_name``, writes its outputs plus a fully resolved
config echo into the output directory, and exits 0 on success.  A
failure exits by its class (see :mod:`.errors`): 2 on a ``ConfigError``,
4 on an ``InputError`` or ``OSError``, 3 on a ``NumericError``.  Any
other exception is a bug and propagates.  With fixed seeds every
subcommand is byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import re
import sys
import typing
from pathlib import Path

import numpy as np

from . import retrieval, synth
from .errors import ConfigError, InputError, NumericError
from .linalg import (load_dense_csv, load_matrix_market, parse_float,
                     parse_int, row_count, save_dense_csv, save_matrix_market)
from .regularizers import Regularizer
from .solver import SolverConfig, Trace, ideal_correlation, run_pdd

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _bool(text: str) -> bool:
    """``true`` or ``false``, the spellings the echo writes."""
    if text not in ("true", "false"):
        raise ValueError(f"{text!r} is not true or false")
    return text == "true"


def _name(text: str) -> str:
    """A file name that lands in ``--out``: not empty, no ``/``."""
    if not text or "/" in text:
        raise ValueError(f"{text!r} is not a file name in --out")
    return text


# config keys whose names differ from their dataclass fields'
_RENAMED = {(Regularizer, "lam"): "lambda",
            (retrieval.HashSpec, "seed"): "hash_seed"}


def _keys(prefix: str, cls) -> list[tuple[str, dataclasses.Field]]:
    """The config key of each dataclass field, with the field."""
    return [(f"{prefix}.{_RENAMED.get((cls, f.name), f.name)}", f)
            for f in dataclasses.fields(cls)]


# the caster of each annotated field type
_CASTERS = {bool: _bool, int: parse_int, float: parse_float, str: str}


def _field_keys(prefix: str, cls) -> dict[str, tuple]:
    """One key per dataclass field, cast by the caster of its annotated
    type; the field's default is the key's."""
    hints = typing.get_type_hints(cls)
    return {key: (_CASTERS[hints[f.name]], f.default)
            for key, f in _keys(prefix, cls)}


# key -> (caster, default); a MISSING default means the key must be given
_BASE_KEYS = {
    **_field_keys("solver", SolverConfig),
    **_field_keys("reg", Regularizer),
    **_field_keys("synth", synth.SynthSpec),
    **_field_keys("retrieval", retrieval.HashSpec),
    "io.data_dir": (str, ""),
    "io.run_dir": (str, ""),
    "io.views": (str, ""),
    "io.factors": (str, ""),
    "io.text": (str, ""),
    "io.name": (_name, "hashed"),
}

# a view index, in per-view keys and numbered file names: ASCII digits
# without a leading zero
_INDEX = "(0|[1-9][0-9]*)"
# reg.<i>.<name> overrides reg.<name> for view i; _regularizers checks i
_PER_VIEW_REG = re.compile(rf"^reg\.{_INDEX}\.(\w+)$")


class RunConfig:
    """Resolved flat key-value map with typed access."""

    def __init__(self, raw: dict[str, str]):
        self.values: dict[str, object] = {}
        for key, text in raw.items():
            match = _PER_VIEW_REG.match(key)
            base = f"reg.{match.group(2)}" if match else key
            if base not in _BASE_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            caster = _BASE_KEYS[base][0]
            try:
                self.values[key] = caster(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc

    def get(self, key: str):
        if key in self.values:
            return self.values[key]
        default = _BASE_KEYS[key][1]
        if default is dataclasses.MISSING:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def resolved(self, prefixes: tuple[str, ...]) -> dict[str, object]:
        """Every key under ``prefixes``: given ones as cast, the others
        at their defaults."""
        out = {key: default for key, (_, default) in _BASE_KEYS.items()
               if default is not dataclasses.MISSING}
        out.update(self.values)
        return {k: v for k, v in out.items() if k.startswith(prefixes)}


def parse_config(path: Path) -> RunConfig:
    text = _read_input(path, "config file", Path.read_text, "utf-8")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return RunConfig(raw)


def _echo_config(path: Path, resolved: dict[str, object]) -> None:
    lines = [f"{k} = {fmt_value(v)}" for k, v in sorted(resolved.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _regularizers(cfg: RunConfig, n_views: int) -> list[Regularizer]:
    """One penalty per view; a ``reg.<i>.*`` key overrides its ``reg.*``
    key.  Each value is checked on its own, so an error names its key."""
    def checked(key: str, name: str):
        value = cfg.get(key)
        try:
            Regularizer(**{name: value})
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        return value

    # an index past the last view names no view; its key would be ignored
    indices = {str(i) for i in range(n_views)}
    for key in cfg.values:
        match = _PER_VIEW_REG.match(key)
        if match and match.group(1) not in indices:
            raise ConfigError(f"{key}: no view {match.group(1)!r}, the "
                              f"views are 0 to {n_views - 1}")
    base = {f.name: checked(key, f.name)
            for key, f in _keys("reg", Regularizer)}
    regs = []
    for i in range(n_views):
        kwargs = dict(base)
        for key, f in _keys(f"reg.{i}", Regularizer):
            if key in cfg.values:
                kwargs[f.name] = checked(key, f.name)
        regs.append(Regularizer(**kwargs))
    return regs


def _numbered(directory: Path, stem: str, suffix: str) -> dict[int, Path]:
    """Index -> path of each ``<stem><index><suffix>`` in ``directory``;
    a name whose index breaks the ``_INDEX`` rule is no numbered file."""
    found = {}
    for p in directory.glob(f"{stem}*{suffix}"):
        m = re.fullmatch(re.escape(stem) + _INDEX + re.escape(suffix),
                         p.name)
        if m:
            found[int(m.group(1))] = p
    return found


def _numbered_files(directory: Path, stem: str, suffix: str,
                    what: str) -> list[Path]:
    """``<stem>0<suffix>`` ... ``<stem><n-1><suffix>`` in ``directory``.

    A gap would renumber the later files, so it raises an InputError
    naming the first missing file."""
    found = _numbered(directory, stem, suffix)
    missing = sorted(set(range(len(found))) - set(found))
    if missing:
        raise InputError(f"{what} not found: "
                         f"{directory / f'{stem}{missing[0]}{suffix}'}")
    return [found[i] for i in range(len(found))]


def _drop_numbered_from(directory: Path, stem: str, suffix: str,
                        count: int) -> None:
    """Remove the numbered files at index ``count`` and past it, so an
    earlier, larger run leaves none that would be read with the new set."""
    for index, p in _numbered(directory, stem, suffix).items():
        if index >= count:
            p.unlink()


def _path_list(cfg: RunConfig, key: str) -> list[Path]:
    """The comma-separated paths of ``key``, blank items skipped."""
    return [Path(p.strip()) for p in cfg.get(key).split(",") if p.strip()]


def _view_paths(cfg: RunConfig) -> list[Path]:
    if cfg.get("io.views"):
        paths = _path_list(cfg, "io.views")
    elif cfg.get("io.data_dir"):
        data_dir = Path(cfg.get("io.data_dir"))
        if not data_dir.is_dir():
            raise InputError(f"data directory not found: {data_dir}")
        paths = _numbered_files(data_dir, "view_", ".mtx", "view file")
    else:
        raise ConfigError("need io.views or io.data_dir")
    if not paths:
        raise InputError("no view files found")
    return paths


def _read_input(path: Path, what: str, reader, *args):
    """Read one input file; a missing or malformed file is an InputError."""
    if not path.is_file():
        raise InputError(f"{what} not found: {path}")
    try:
        return reader(path, *args)
    except ValueError as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc


def _load_views(cfg: RunConfig):
    return [_read_input(p, "view file", load_matrix_market)
            for p in _view_paths(cfg)]


def _load_factors(paths: list[Path], views) -> list[np.ndarray]:
    """One factor per view: a row per view column, the first one's width."""
    factors = [_read_input(p, "factor file", load_dense_csv) for p in paths]
    for p, f, view in zip(paths, factors, views):
        expected = (view.shape[1], factors[0].shape[1])
        if f.shape != expected:
            raise InputError(f"{p} is {f.shape[0]} x {f.shape[1]}, "
                             f"expected {expected[0]} x {expected[1]}")
    return factors


def _read_index_sets(path: Path, n_cols: int):
    """Signal and outlier column indices, each a column of every view
    (0 to n_cols - 1) and listed once across the two lines; the signal
    line is not empty and any later line is blank."""
    lines = path.read_text(encoding="ascii").splitlines()
    extra = [n for n, line in enumerate(lines[2:], 3) if line.strip()]
    if extra:
        raise ValueError(f"line {extra[0]} follows the signal and outlier "
                         "lines")
    while len(lines) < 2:
        lines.append("")
    try:
        signal, outlier = ([parse_int(t) for t in line.split()]
                           for line in lines[:2])
    except ValueError as exc:
        raise ValueError(f"column index {exc}") from None
    if not signal:
        raise ValueError("no signal column index")
    # checked as Python ints: an index past int64 would overflow the array
    outside = [i for i in signal + outlier if not 0 <= i < n_cols]
    if outside:
        raise ValueError(f"column index {outside[0]} outside 0..{n_cols - 1}")
    values, counts = np.unique(signal + outlier, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"column index {values[counts > 1][0]} listed "
                         "more than once")
    return (np.array(signal, dtype=np.int64),
            np.array(outlier, dtype=np.int64))


def _from_keys(cls, prefix: str, cfg: RunConfig):
    """Build a config dataclass from its ``<prefix>.*`` keys."""
    kwargs = {f.name: cfg.get(key) for key, f in _keys(prefix, cls)}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_synth(cfg: RunConfig, out_dir: Path) -> None:
    spec = _from_keys(synth.SynthSpec, "synth", cfg)
    generate = (synth.gen_with_outliers if spec.outliers
                else synth.gen_shared_factor)
    try:
        views = generate(spec)
    except ConfigError as exc:
        # a spec no draw can meet always misses on its density; the
        # generator may have failed on a fill derived from it
        raise ConfigError(
            f"synth.density = {spec.density:g}: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    _drop_numbered_from(out_dir, "view_", ".mtx", len(views))
    for i, view in enumerate(views):
        save_matrix_market(out_dir / f"view_{i}.mtx", view)
    # the signal columns 0 to features - 1, then the outlier columns
    columns = [str(i) for i in range(spec.features + spec.outliers)]
    (out_dir / "index_sets.txt").write_text(
        " ".join(columns[:spec.features]) + "\n"
        + " ".join(columns[spec.features:]) + "\n", encoding="ascii")


def cmd_solve(cfg: RunConfig, out_dir: Path) -> None:
    views = _load_views(cfg)
    config = _from_keys(SolverConfig, "solver", cfg)
    regs = _regularizers(cfg, len(views))
    state, trace = run_pdd(views, config, regs)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem in ("Q_", "G_"):
        _drop_numbered_from(out_dir, stem, ".csv", len(views))
    for i in range(len(views)):
        save_dense_csv(out_dir / f"Q_{i}.csv", state.q[i])
        save_dense_csv(out_dir / f"G_{i}.csv", state.g[i])
    trace.to_csv(out_dir / "trace.csv")


def cmd_metrics(cfg: RunConfig, out_dir: Path) -> None:
    if not cfg.get("io.run_dir"):
        raise ConfigError("metrics needs io.run_dir")
    run_dir = Path(cfg.get("io.run_dir"))
    views = _load_views(cfg)
    # a lone view or differing row counts fail whatever the run dir holds
    row_count(views)
    # the trace is scored against the ideal of the run's view count
    paths = _numbered_files(run_dir, "Q_", ".csv", "factor file")
    if len(paths) != len(views):
        raise InputError(f"run dir {run_dir} holds {len(paths)} factors "
                         f"Q_<i>.csv, expected one per view ({len(views)})")
    factors = _load_factors(paths, views)
    if not cfg.get("io.data_dir"):
        raise ConfigError("metrics needs io.data_dir for index_sets.txt")
    signal, outlier = _read_input(
        Path(cfg.get("io.data_dir")) / "index_sets.txt", "index set file",
        _read_index_sets, min(v.shape[1] for v in views))
    trace = _read_input(run_dir / "trace.csv", "trace file", Trace.from_csv,
                        ideal_correlation(factors[0].shape[1], len(views)))

    _, percent = synth.total_correlation(views, factors)
    m1 = synth.metric1(views, factors, signal)
    m2 = "" if outlier.size == 0 else fmt_value(
        synth.metric2(factors, outlier))
    t95 = synth.time_to_fraction(trace, 0.95)
    t95_text = "inf" if t95 is None else fmt_value(t95)

    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / "report.csv"
    report.write_text(
        "total_corr_percent,metric1,metric2,time95\n"
        f"{fmt_value(percent)},{fmt_value(m1)},{m2},{t95_text}\n",
        encoding="ascii")


def cmd_eval_retrieval(cfg: RunConfig, out_dir: Path) -> None:
    views = _load_views(cfg)
    if not cfg.get("io.factors"):
        raise ConfigError("eval-retrieval needs io.factors")
    factor_paths = _path_list(cfg, "io.factors")
    if len(factor_paths) != len(views):
        raise ConfigError("io.factors count must match view count")
    factors = _load_factors(factor_paths, views)
    result = retrieval.evaluate_pairs(views, factors)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["query_view,gallery_view,aroc,nn_freq"]
    for p in result.pairs:
        lines.append(f"{p.query_view},{p.gallery_view},"
                     f"{fmt_value(p.aroc)},{fmt_value(p.nn_freq)}")
    lines.append(f"avg,avg,{fmt_value(result.mean_aroc)},"
                 f"{fmt_value(result.mean_nn_freq)}")
    (out_dir / "pairs.csv").write_text("\n".join(lines) + "\n",
                                       encoding="ascii")


def cmd_hash(cfg: RunConfig, out_dir: Path) -> None:
    if not cfg.get("io.text"):
        raise ConfigError("hash needs io.text")
    spec = _from_keys(retrieval.HashSpec, "retrieval", cfg)
    path = Path(cfg.get("io.text"))
    text = _read_input(path, "text file", Path.read_text, "utf-8")
    docs = [line.split() for line in text.splitlines()]
    if not docs:
        raise InputError(f"empty corpus: {path}")
    view = retrieval.hash_corpus(docs, spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix_market(out_dir / f"{cfg.get('io.name')}.mtx", view)


# command -> (its function, its echo file, the key prefixes it echoes)
COMMANDS = {
    "synth": (cmd_synth, "spec.cfg", ("synth.",)),
    "solve": (cmd_solve, "resolved.cfg", ("solver.", "reg.", "io.")),
    "metrics": (cmd_metrics, "resolved.cfg", ("io.",)),
    "eval-retrieval": (cmd_eval_retrieval, "resolved.cfg",
                       ("io.", "retrieval.")),
    "hash": (cmd_hash, "resolved.cfg", ("io.", "retrieval.")),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="mvcca", allow_abbrev=False,
        description="structured multiview CCA: generate, solve, evaluate")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="key=value file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--verbose", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # the package logger gets a stderr handler of its own for this call,
    # so --verbose acts whatever logging a host program or an earlier
    # call set up, and the root logger is left alone
    log = logging.getLogger(__package__)
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(handler)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)


def _run(args) -> int:
    try:
        cfg = parse_config(Path(args.config))
        run, echo, prefixes = COMMANDS[args.command]
        out_dir = Path(args.out)
        run(cfg, out_dir)
        _echo_config(out_dir / echo, cfg.resolved(prefixes))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
