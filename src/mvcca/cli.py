"""Batch front door: synth | solve | metrics | eval-retrieval | hash.

Every subcommand reads a flat key=value config file, validates it
against the known key set, writes its outputs plus a fully resolved
config echo into the output directory, and exits 0 on success, 2 on
config errors, 3 on numeric failures, 4 on I/O failures.  With a fixed
seed every subcommand is byte-for-byte reproducible.
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
from scipy.sparse.linalg import ArpackError

from . import retrieval, synth
from .linalg import (load_dense_csv, load_matrix_market, save_dense_csv,
                     save_matrix_market)
from .regularizers import Regularizer
from .solver import (SolverConfig, StepSizeError, Trace, run_pdd,
                     validate_dimensions)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(Exception):
    pass


class InputError(Exception):
    """Missing or unreadable input files."""


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _field_keys(prefix: str, cls) -> dict[str, tuple]:
    """One key per dataclass field, cast by its annotated type.

    ``X | None`` fields cast as X; the field's default is the key's.
    """
    hints = typing.get_type_hints(cls)
    keys = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        caster = next((t for t in typing.get_args(hint)
                       if t is not type(None)), hint)
        keys[f"{prefix}.{f.name}"] = (_bool if caster is bool else caster,
                                      f.default)
    return keys


# key -> (caster, default); a MISSING default means the key must be
# given, a None default means unset
_BASE_KEYS = {
    **_field_keys("solver", SolverConfig),
    "reg.kind": (str, "none"),
    "reg.lambda": (float, 0.0),
    "reg.mu": (float, 0.0),
    **_field_keys("synth", synth.SynthSpec),
    "retrieval.bits": (int, 19),
    "retrieval.hash_seed": (int, 0),
    "io.data_dir": (str, ""),
    "io.run_dir": (str, ""),
    "io.views": (str, ""),
    "io.factors": (str, ""),
    "io.text": (str, ""),
    "io.name": (str, "hashed"),
}

_PER_VIEW_REG = re.compile(r"^reg\.(\d+)\.(kind|lambda|mu)$")


class RunConfig:
    """Resolved flat key-value map with typed access."""

    def __init__(self, raw: dict[str, str]):
        self.values: dict[str, object] = {}
        for key, text in raw.items():
            match = _PER_VIEW_REG.match(key)
            if match:
                caster = str if match.group(2) == "kind" else float
            elif key in _BASE_KEYS:
                caster = _BASE_KEYS[key][0]
            else:
                raise ConfigError(f"unknown config key {key!r}")
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

    def set(self, key: str, value) -> None:
        self.values[key] = value

    def resolved(self, prefixes: tuple[str, ...]) -> dict[str, object]:
        out = {}
        for key, (_, default) in _BASE_KEYS.items():
            if key.startswith(prefixes):
                value = self.values.get(key, default)
                if value is not None and value is not dataclasses.MISSING:
                    out[key] = value
        for key, val in self.values.items():
            if _PER_VIEW_REG.match(key) and key.startswith(prefixes):
                out[key] = val
        return out


def parse_config(path: Path) -> RunConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from exc
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
    try:
        base = Regularizer(kind=cfg.get("reg.kind"),
                           lam=cfg.get("reg.lambda"),
                           mu=cfg.get("reg.mu"))
        return [Regularizer(kind=cfg.values.get(f"reg.{i}.kind", base.kind),
                            lam=cfg.values.get(f"reg.{i}.lambda", base.lam),
                            mu=cfg.values.get(f"reg.{i}.mu", base.mu))
                for i in range(n_views)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _view_paths(cfg: RunConfig) -> list[Path]:
    if cfg.get("io.views"):
        paths = [Path(p.strip()) for p in str(cfg.get("io.views")).split(",")
                 if p.strip()]
    elif cfg.get("io.data_dir"):
        data_dir = Path(str(cfg.get("io.data_dir")))
        if not data_dir.is_dir():
            raise InputError(f"data directory not found: {data_dir}")
        found = {}
        for p in data_dir.glob("view_*.mtx"):
            m = re.fullmatch(r"view_(\d+)\.mtx", p.name)
            if m:
                found[int(m.group(1))] = p
        paths = [found[i] for i in sorted(found)]
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


def _write_index_sets(path: Path, signal, outlier) -> None:
    lines = [" ".join(str(int(i)) for i in signal),
             " ".join(str(int(i)) for i in outlier)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _read_index_sets(path: Path):
    lines = path.read_text(encoding="ascii").splitlines()
    while len(lines) < 2:
        lines.append("")
    signal = np.array([int(t) for t in lines[0].split()], dtype=np.int64)
    outlier = np.array([int(t) for t in lines[1].split()], dtype=np.int64)
    return signal, outlier


def _from_keys(cls, prefix: str, cfg: RunConfig):
    """Build a config dataclass from its ``<prefix>.<field>`` keys."""
    kwargs = {f.name: cfg.get(f"{prefix}.{f.name}")
              for f in dataclasses.fields(cls)}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_synth(cfg: RunConfig, out_dir: Path) -> None:
    spec = _from_keys(synth.SynthSpec, "synth", cfg)
    if spec.outliers > 0:
        views, idx = synth.gen_with_outliers(spec)
        signal, outlier = idx.signal, idx.outlier
    else:
        views = synth.gen_shared_factor(spec)
        signal = np.arange(spec.features)
        outlier = np.array([], dtype=np.int64)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, view in enumerate(views):
        save_matrix_market(out_dir / f"view_{i}.mtx", view)
    _write_index_sets(out_dir / "index_sets.txt", signal, outlier)
    _echo_config(out_dir / "spec.cfg", cfg.resolved(("synth.",)))


def cmd_solve(cfg: RunConfig, out_dir: Path) -> None:
    views = _load_views(cfg)
    config = _from_keys(SolverConfig, "solver", cfg)
    regs = _regularizers(cfg, len(views))
    validate_dimensions(views, config.k)
    state, trace = run_pdd(views, config, regs)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(len(views)):
        save_dense_csv(out_dir / f"Q_{i}.csv", state.q[i])
        save_dense_csv(out_dir / f"G_{i}.csv", state.g[i])
    trace.to_csv(out_dir / "trace.csv")
    _echo_config(out_dir / "resolved.cfg",
                 cfg.resolved(("solver.", "reg.", "io.")))


def cmd_metrics(cfg: RunConfig, out_dir: Path) -> None:
    if not cfg.get("io.run_dir"):
        raise ConfigError("metrics needs io.run_dir")
    run_dir = Path(str(cfg.get("io.run_dir")))
    views = _load_views(cfg)
    factors = _load_factors(
        [run_dir / f"Q_{i}.csv" for i in range(len(views))], views)
    signal, outlier = _read_input(_index_sets_path(cfg), "index set file",
                                  _read_index_sets)
    k = factors[0].shape[1]
    ideal = k * len(views) * (len(views) - 1)
    trace = _read_input(run_dir / "trace.csv", "trace file", Trace.from_csv,
                        ideal)

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
    _echo_config(out_dir / "resolved.cfg", cfg.resolved(("io.",)))


def _index_sets_path(cfg: RunConfig) -> Path:
    if cfg.get("io.data_dir"):
        return Path(str(cfg.get("io.data_dir"))) / "index_sets.txt"
    raise ConfigError("metrics needs io.data_dir for index_sets.txt")


def cmd_eval_retrieval(cfg: RunConfig, out_dir: Path) -> None:
    views = _load_views(cfg)
    if not cfg.get("io.factors"):
        raise ConfigError("eval-retrieval needs io.factors")
    factor_paths = [Path(p.strip())
                    for p in str(cfg.get("io.factors")).split(",") if p.strip()]
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
    _echo_config(out_dir / "resolved.cfg", cfg.resolved(("io.", "retrieval.")))


def cmd_hash(cfg: RunConfig, out_dir: Path) -> None:
    if not cfg.get("io.text"):
        raise ConfigError("hash needs io.text")
    text = _read_input(Path(str(cfg.get("io.text"))), "text file",
                       Path.read_text, "utf-8")
    spec = retrieval.HashSpec(bits=cfg.get("retrieval.bits"),
                              seed=cfg.get("retrieval.hash_seed"))
    docs = [line.split() for line in text.splitlines()]
    view = retrieval.hash_corpus(docs, spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix_market(out_dir / f"{cfg.get('io.name')}.mtx", view)
    _echo_config(out_dir / "resolved.cfg",
                 cfg.resolved(("io.", "retrieval.")))


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="mvcca",
        description="structured multiview CCA: generate, solve, evaluate")
    parser.add_argument("command",
                        choices=["synth", "solve", "metrics",
                                 "eval-retrieval", "hash"])
    parser.add_argument("--config", required=True, help="key=value file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override solver.seed and synth.seed")
    parser.add_argument("--verbose", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = parse_config(Path(args.config))
        if args.seed is not None:
            cfg.set("solver.seed", args.seed)
            cfg.set("synth.seed", args.seed)
        out_dir = Path(args.out)
        if args.command == "synth":
            cmd_synth(cfg, out_dir)
        elif args.command == "solve":
            cmd_solve(cfg, out_dir)
        elif args.command == "metrics":
            cmd_metrics(cfg, out_dir)
        elif args.command == "eval-retrieval":
            cmd_eval_retrieval(cfg, out_dir)
        else:
            cmd_hash(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, StepSizeError, FloatingPointError,
            ArpackError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
