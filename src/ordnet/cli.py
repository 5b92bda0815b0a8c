"""Command-line front end: configuration, file formats and the batch commands.

Commands
  simulate    write benchmark datasets (per-level CSVs, manifest, truth JSON)
  select-nu0  per-level spike line search, report as JSON
  fit         joint or single-network fits from a manifest, report as JSON
  evaluate    edge-recovery metrics of a fit against a truth file, CSV rows
  rank        coefficient-driven node ranking and top-k subnetworks

Configuration is a plain-text file of ``key = value`` lines ('#' comments);
unknown keys are rejected.  Exit codes: 0 success, 2 configuration error,
3 data/file error, 4 numerical failure.

Importing this module loads NumPy, ``ordnet.core`` and ``ordnet.metrics``
only, so ``--help``, ``evaluate`` and ``rank`` never load SciPy.  ``simulate``
imports ``ordnet.simulate`` (and with it ``scipy.linalg``) when it starts;
``select-nu0`` and ``fit`` import ``ordnet.engine``, ``.baseline`` and
``.selection``.  It takes these SciPy-backed names from the package, which
declares each once, in its ``_LAZY`` table.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from . import _SOURCE
from .core import DataError, GroupedDataset, NumericalError, parallel_map
from .metrics import evaluate_fit, rank_nodes_by_beta, top_k_edge_subnetworks

if TYPE_CHECKING:
    from .simulate import SimulationTruth

SCHEMA_VERSION = "1.0"

# The names that need SciPy resolve through the package's ``_LAZY`` table
# (``ordnet._SOURCE``), with ``engine_fit`` for ``ordnet.fit``.
# ``__getattr__`` resolves each on first access and keeps it as a module
# attribute; a command fetches them with ``_late`` when it runs, so that a
# name set on this module (a test's spy, the benchmark's tracer) is the one
# it calls.
def __getattr__(name: str):
    target = "fit" if name == "engine_fit" else name
    if target not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(__package__), target)
    globals()[name] = value
    return value


def _late(*names: str) -> list:
    """The named module attributes, looked up on this module now."""
    module = sys.modules[__name__]
    return [getattr(module, name) for name in names]


class ConfigError(ValueError):
    """The run configuration is malformed or incomplete."""


_INT_KEYS = {
    "p", "n_base_edges", "n_appearing", "n_disappearing", "n_per_group",
    "seed", "max_iter", "min_iter", "threads", "replicates",
}
_FLOAT_KEYS = {
    "partial_corr_magnitude", "jitter_margin", "nu1", "lambda_diag", "n0",
    "t0_sq", "alpha_sigma", "beta_sigma", "gamma_ebic", "elbo_rel_tol",
    "expected_edges", "sd_edges",
}
_STR_KEYS = {"method"}
_LIST_KEYS = {"levels", "nu0_grid", "nu0"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _LIST_KEYS


def _parse_value(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key == "levels":
            return tuple(int(part) for part in raw.split(","))
        if key == "nu0_grid":
            return tuple(float(part) for part in raw.split(","))
        if key == "nu0":
            if ":" in raw:
                pairs = [part.split(":", 1) for part in raw.split(",")]
                values = {int(a): float(v) for a, v in pairs}
                if len(values) < len(pairs):
                    raise ConfigError(f"duplicate level in '{key}': {raw!r}")
                return values
            return float(raw)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"cannot parse value for '{key}': {raw!r}")
    return raw


def _read_text(path: str, error: type[Exception] = DataError) -> str:
    """The text of a UTF-8 file, every line ending read as ``\\n``.  A byte
    that is not UTF-8 raises ``error`` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc})")


def _read_lines(path: str, error: type[Exception] = DataError) -> Iterator[str]:
    """The lines of ``_read_text(path, error)``, without their line endings;
    an empty file has one empty line."""
    return iter(_read_text(path, error).split("\n"))


def parse_config(path: str) -> dict[str, object]:
    """Read a key=value configuration file, rejecting unknown keys."""
    if not os.path.isfile(path):
        raise ConfigError(f"configuration file not found: {path}")
    config: dict[str, object] = {}
    for lineno, line in enumerate(_read_lines(path, ConfigError), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key '{key}'")
        if key in config:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        config[key] = _parse_value(key, raw)
    if config.get("threads", 1) < 1:
        raise ConfigError("threads must be at least 1")
    if config.get("replicates", 1) < 1:
        raise ConfigError("replicates must be at least 1")
    method = config.get("method", "joint")
    if method not in ("joint", "ssl"):
        raise ConfigError(f"method must be 'joint' or 'ssl', got {method!r}")
    return config


_SIMULATION_KEYS = (
    "p", "levels", "n_base_edges", "n_appearing", "n_disappearing", "n_per_group",
    "partial_corr_magnitude", "jitter_margin", "seed",
)
_CONTROL_KEYS = ("max_iter", "elbo_rel_tol", "min_iter")
_PRIOR_KEYS = ("n0", "t0_sq", "expected_edges", "sd_edges")
_HYPER_KEYS = ("nu1", "lambda_diag", "alpha_sigma", "beta_sigma")


def _configured(build, cfg: Mapping[str, object], keys: Sequence[str], **given):
    """``build(**given, **settings)`` with the settings of ``keys`` that ``cfg`` sets.

    Unset keys take ``build``'s own defaults.  This is the one place where
    a rejected setting becomes a configuration error (exit 2).
    """
    try:
        return build(**given, **{key: cfg[key] for key in keys if key in cfg})
    except DataError as exc:
        raise ConfigError(f"invalid configuration: {exc}")


def _resolve_nu0(
    cfg: Mapping[str, object], levels: Sequence[int], report_path: str | None
) -> dict[int, float]:
    if report_path is not None:
        if "nu0" in cfg:
            raise ConfigError("set 'nu0' in the configuration or pass --nu0-report, not both")
        doc = read_json(report_path, expected_kind="nu0_selection", fields=("selected",))
        selected = _field(
            doc, report_path, "selected", lambda v: {int(a): float(x) for a, x in v.items()}
        )
    elif "nu0" in cfg:
        value = cfg["nu0"]
        if isinstance(value, dict):
            selected = dict(value)
        else:
            selected = {int(a): float(value) for a in levels}
    else:
        raise ConfigError("set 'nu0' in the configuration or pass --nu0-report")
    missing = [a for a in levels if int(a) not in selected]
    if missing:
        raise ConfigError(f"no nu0 value for levels {missing}")
    return selected


# ---------------------------------------------------------------------------
# File formats


def _format_float(value: float) -> str:
    return repr(float(value))


def write_data_csv(path: str, data: np.ndarray, names: Sequence[str]) -> None:
    """One header row, then each row's values as ``_format_float`` writes
    them: ``repr`` of the row's Python floats."""
    data = np.asarray(data, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in data.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def read_data_csv(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    if not os.path.isfile(path):
        raise DataError(f"data file not found: {path}")
    lines = _read_lines(path)
    header = next(lines).strip()
    if not header:
        raise DataError(f"{path}: missing header row")
    names = tuple(part.strip() for part in header.split(","))
    seen = set()
    for column, name in enumerate(names, start=1):
        if not name:
            raise DataError(f"{path}: empty column name in column {column} of the header")
        if name in seen:
            raise DataError(f"{path}: duplicate column name '{name}' in the header")
        seen.add(name)
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise DataError(
                f"{path}:{lineno}: expected {len(names)} columns, got {len(parts)}"
            )
        try:
            values = [float(part) for part in parts]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric value")
        if not all(map(math.isfinite, values)):
            col = next(k for k, value in enumerate(values) if not math.isfinite(value))
            raise DataError(
                f"{path}:{lineno}: non-finite value {values[col]} "
                f"in column '{names[col]}'"
            )
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return names, np.array(rows)


def write_manifest(path: str, entries: Sequence[tuple[str, int, int]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("file,level,n\n")
        for name, level, n in entries:
            fh.write(f"{name},{level},{n}\n")


def read_manifest(path: str) -> list[tuple[str, int, int]]:
    if not os.path.isfile(path):
        raise DataError(f"manifest not found: {path}")
    lines = _read_lines(path)
    if next(lines).strip() != "file,level,n":
        raise DataError(f"{path}: manifest header must be 'file,level,n'")
    entries = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns")
        try:
            entries.append((parts[0], int(parts[1]), int(parts[2])))
        except ValueError:
            raise DataError(f"{path}:{lineno}: level and n must be integers")
    if not entries:
        raise DataError(f"{path}: empty manifest")
    return entries


def load_grouped_dataset(manifest_path: str) -> GroupedDataset:
    """Assemble the per-level data matrices referenced by a manifest."""
    entries = read_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    levels, matrices = [], []
    names_seen: dict[tuple[str, ...], str] = {}
    for name, level, n in entries:
        file_path = name if os.path.isabs(name) else os.path.join(base, name)
        names, data = read_data_csv(file_path)
        if data.shape[0] != n:
            raise DataError(
                f"{file_path}: manifest says {n} samples but the file has {data.shape[0]}"
            )
        names_seen[names] = file_path
        if len(names_seen) > 1:
            files = " vs ".join(sorted(names_seen.values()))
            raise DataError(f"variable names differ across levels: {files}")
        levels.append(level)
        matrices.append(data)
    variable_names = next(iter(names_seen))
    try:
        return GroupedDataset(
            levels=tuple(levels), data=tuple(matrices), variable_names=variable_names
        )
    except DataError as exc:
        raise DataError(f"{manifest_path}: {exc}")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)


def _float_matrix_json(matrix: np.ndarray) -> str:
    """``json.dumps(matrix.tolist(), separators=(",", ":"))`` for a finite
    float64 matrix, with ``float.__repr__`` called once per distinct value.

    Values are told apart by their bits, so -0.0 keeps its own text; a
    symmetric matrix costs about half its entries, a constant one a single
    call.
    """
    bits, index = np.unique(np.ascontiguousarray(matrix).view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    cells = texts[index.reshape(matrix.shape)].tolist()
    return "[" + ",".join(["[" + ",".join(row) + "]" for row in cells]) + "]"


def _json_chunks(value):
    """``value`` encoded as ``json.dump(value, fh, sort_keys=True,
    separators=(",", ":"), default=np.ndarray.tolist)`` writes it, in pieces.

    Dicts, and lists that hold a dict, are walked here, and a finite float64
    matrix is formatted by ``_float_matrix_json``; every other value (any
    other array, a list, a number, a string) is encoded whole by the C
    encoder, which ``json.dump`` itself never uses, an array as its
    ``tolist()``.  So a matrix costs one call, and no string of the whole
    document is built.  Keys are sorted and converted as ``json.dump`` does:
    a number, bool or None key becomes its JSON text.
    """
    if isinstance(value, dict):
        yield "{"
        for index, (key, item) in enumerate(sorted(value.items())):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                key = _ENCODER.encode(key)
            yield ("," if index else "") + _ENCODER.encode(key) + ":"
            yield from _json_chunks(item)
        yield "}"
    elif isinstance(value, (list, tuple)) and any(isinstance(item, dict) for item in value):
        yield "["
        for index, item in enumerate(value):
            if index:
                yield ","
            yield from _json_chunks(item)
        yield "]"
    elif (
        isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 2
        and np.isfinite(value).all()
    ):
        yield _float_matrix_json(value)
    else:
        yield _ENCODER.encode(value)


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_json_chunks(doc))
        fh.write("\n")


_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match
_STRUCTURE = '[]{}"'


def _skip_container(text: str, start: int) -> int:
    """The end of the array or object that opens at ``text[start]``.

    Only its structure is checked: each next ``[ ] { } "`` is found with
    ``str.find``, brackets must nest, and strings are skipped with
    ``scanstring``.  Numbers, literals, commas and colons are never read.
    """
    size = len(text)

    def find(char: str, pos: int) -> int:
        at = text.find(char, pos)
        return size if at < 0 else at

    ahead = [find(char, start) for char in _STRUCTURE]
    closers = []
    while True:
        at = min(ahead)
        if at == size:
            raise json.JSONDecodeError("Unterminated array or object starting at", text, start)
        char = text[at]
        end = at + 1
        if char == '"':
            end = json.decoder.scanstring(text, end)[1]
        elif char in "[{":
            closers.append("]" if char == "[" else "}")
        elif closers.pop() != char:
            raise json.JSONDecodeError("Mismatched closing bracket", text, at)
        elif not closers:
            return end
        for k, next_at in enumerate(ahead):
            if next_at < end:
                ahead[k] = find(_STRUCTURE[k], end)


def _decode_top_level(text: str, wanted: set[str] | None):
    """The JSON value of ``text``, an object decoded only in its ``wanted`` keys.

    Each member of a top-level object whose key is in ``wanted`` (every key
    when it is None) is decoded as ``json.loads`` decodes it, the last of
    duplicate keys winning.  Any other array or object is skipped by
    ``_skip_container``; any other scalar is decoded and dropped.  A value
    that is not an object is decoded whole.  Raises ``json.JSONDecodeError``.
    """
    pos = _SPACE(text, 0).end()
    if not text.startswith("{", pos):
        doc, end = _DECODER.raw_decode(text, pos)
    else:
        doc = {}
        pos = _SPACE(text, pos + 1).end()
        end = pos + 1 if text.startswith("}", pos) else None
        while end is None:
            if not text.startswith('"', pos):
                raise json.JSONDecodeError(
                    "Expecting property name enclosed in double quotes", text, pos
                )
            key, pos = json.decoder.scanstring(text, pos + 1)
            pos = _SPACE(text, pos).end()
            if not text.startswith(":", pos):
                raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
            pos = _SPACE(text, pos + 1).end()
            if wanted is None or key in wanted:
                value, pos = _DECODER.raw_decode(text, pos)
                doc[key] = value
            elif text.startswith(("[", "{"), pos):
                pos = _skip_container(text, pos)
            else:
                pos = _DECODER.raw_decode(text, pos)[1]
            pos = _SPACE(text, pos).end()
            if text.startswith("}", pos):
                end = pos + 1
            elif text.startswith(",", pos):
                pos = _SPACE(text, pos + 1).end()
            else:
                raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
    if _SPACE(text, end).end() != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return doc


def read_json(path: str, expected_kind: str, fields: Sequence[str] | None = None) -> dict:
    """The JSON document in ``path``, checked to be an ``expected_kind`` document.

    Only the top-level ``fields`` are decoded, with ``schema_version`` and
    ``kind``; with ``fields`` None, every one is.  Other arrays and objects
    are checked for their brackets and strings only, so a reader pays for
    the fields it uses and not for the whole file.
    """
    if not os.path.isfile(path):
        raise DataError(f"file not found: {path}")
    text = _read_text(path)
    wanted = None if fields is None else {"schema_version", "kind", *fields}
    try:
        doc = _decode_top_level(text, wanted)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if not isinstance(version, str):
        raise DataError(f"{path}: missing schema_version field")
    major = version.split(".", 1)[0]
    if major != SCHEMA_VERSION.split(".", 1)[0]:
        raise DataError(f"{path}: unsupported schema major version {version!r}")
    kind = doc.get("kind")
    if kind != expected_kind:
        raise DataError(f"{path}: expected a {expected_kind!r} document, got {kind!r}")
    return doc


def truth_to_json(truth: SimulationTruth) -> dict:
    def edge_list(edges):
        return [[int(i), int(j)] for i, j in sorted(edges)]

    partial = {}
    for level in truth.levels:
        rho = truth.partial_corr[level]
        partial[str(level)] = [
            [int(i), int(j), float(rho[i, j])] for i, j in sorted(truth.adjacency[level])
        ]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "truth",
        "p": truth.p,
        "levels": list(truth.levels),
        "appearing": edge_list(truth.appearing),
        "disappearing": edge_list(truth.disappearing),
        "stable": edge_list(truth.stable),
        "adjacency": {str(a): edge_list(truth.adjacency[a]) for a in truth.levels},
        "partial_correlations": partial,
    }


def _matrix(doc_value) -> np.ndarray:
    matrix = np.array(doc_value, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    non_finite = np.argwhere(~np.isfinite(matrix))
    if non_finite.size:
        i, j = non_finite[0]
        raise ValueError(f"non-finite entry {matrix[i, j]} at row {i}, column {j}")
    return matrix


def _names(doc_value) -> list[str]:
    if not isinstance(doc_value, list) or not all(isinstance(v, str) for v in doc_value):
        raise ValueError("expected a list of strings")
    return doc_value


def _field(doc: dict, path: str, key: str, convert):
    """``convert(doc[key])``; a missing or malformed field is a data error."""
    if key not in doc:
        raise DataError(f"{path}: missing field '{key}'")
    try:
        return convert(doc[key])
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed field '{key}' ({exc})")


# ---------------------------------------------------------------------------
# Commands


def _check_output_dir(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise DataError(f"output directory does not exist: {parent}")


def cmd_simulate(cfg: Mapping[str, object], out_dir: str) -> int:
    SimulationConfig, simulate_experiment = _late("SimulationConfig", "simulate_experiment")
    sim = _configured(SimulationConfig, cfg, _SIMULATION_KEYS)
    replicates = int(cfg.get("replicates", 1))
    os.makedirs(out_dir, exist_ok=True)
    for rep in range(replicates):
        target = out_dir if replicates == 1 else os.path.join(out_dir, f"rep{rep:03d}")
        os.makedirs(target, exist_ok=True)
        rep_config = dataclasses.replace(sim, seed=sim.seed + rep)
        dataset, truth = simulate_experiment(rep_config)
        entries = []
        for level, matrix in zip(dataset.levels, dataset.data):
            name = f"data_level_{level}.csv"
            write_data_csv(os.path.join(target, name), matrix, dataset.variable_names)
            entries.append((name, level, matrix.shape[0]))
        write_manifest(os.path.join(target, "manifest.csv"), entries)
        write_json(os.path.join(target, "truth.json"), truth_to_json(truth))
        print(
            f"wrote {len(entries)} data files, manifest.csv and truth.json to {target} "
            f"(seed {rep_config.seed})"
        )
    return 0


def cmd_select_nu0(cfg: Mapping[str, object], manifest: str, out: str) -> int:
    FitControls, Hyperparameters, Nu0SearchConfig, intercept_prior, line_search_nu0 = _late(
        "FitControls", "Hyperparameters", "Nu0SearchConfig", "intercept_prior",
        "line_search_nu0",
    )
    _check_output_dir(out)
    dataset = load_grouped_dataset(manifest).prepare()
    nu1 = cfg.get("nu1", Hyperparameters.nu1)
    if "nu0_grid" in cfg:
        search = _configured(Nu0SearchConfig, cfg, ("gamma_ebic",), grid=cfg["nu0_grid"])
    else:
        search = _configured(Nu0SearchConfig.for_slab, cfg, ("gamma_ebic",), nu1=nu1)
    n0, t0_sq = _configured(intercept_prior, cfg, _PRIOR_KEYS, p=dataset.p)
    result = _configured(
        line_search_nu0, cfg, ("lambda_diag",),
        data=dataset,
        nu1=nu1,
        config=search,
        n0=n0,
        t0_sq=t0_sq,
        controls=_configured(FitControls, cfg, _CONTROL_KEYS),
        workers=int(cfg.get("threads", 1)),
    )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "nu0_selection",
        "nu1": nu1,
        "gamma_ebic": search.gamma_ebic,
        "grid": list(result.grid),
        "levels": [
            {
                "level": a,
                "ebic": [None if math.isnan(v) else v for v in result.ebic[a]],
                "failures": list(result.failures[a]),
                "selected_nu0": result.selected[a],
            }
            for a in dataset.levels
        ],
        "selected": {str(a): result.selected[a] for a in dataset.levels},
    }
    write_json(out, doc)
    for a in dataset.levels:
        print(f"level {a}: selected nu0 = {result.selected[a]:g}")
    return 0


def cmd_fit(
    cfg: Mapping[str, object], manifest: str, out: str, method: str | None, nu0_report: str | None
) -> int:
    FitControls, Hyperparameters, intercept_prior, engine_fit, fit_ssl = _late(
        "FitControls", "Hyperparameters", "intercept_prior", "engine_fit", "fit_ssl"
    )
    _check_output_dir(out)
    method = method if method is not None else str(cfg.get("method", "joint"))
    dataset = load_grouped_dataset(manifest).prepare()
    nu0 = _resolve_nu0(cfg, dataset.levels, nu0_report)
    n0, t0_sq = _configured(intercept_prior, cfg, _PRIOR_KEYS, p=dataset.p)
    hyper = _configured(Hyperparameters, cfg, _HYPER_KEYS, nu0=nu0, n0=n0, t0_sq=t0_sq)
    controls = _configured(FitControls, cfg, _CONTROL_KEYS)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "fit",
        "method": method,
        "p": dataset.p,
        "levels": list(dataset.levels),
        "n": {str(a): int(n) for a, n in zip(dataset.levels, dataset.group_sizes)},
        "variable_names": list(dataset.variable_names or ()),
        "hyperparameters": {
            **dataclasses.asdict(hyper),
            "nu0": {str(a): hyper.nu0_for(a) for a in dataset.levels},
        },
    }
    if method == "joint":
        report = engine_fit(dataset, hyper, controls)
        state = report.final_state
        doc.update(
            {
                "converged": report.converged,
                "iterations": report.iterations,
                "elbo_trace": list(report.elbo_trace),
                "ppi": {str(a): state.ppi[a] for a in dataset.levels},
                "omega": {str(a): state.omega[a] for a in dataset.levels},
                "zeta_mean": state.zeta_mean,
                "beta_mean": state.beta_mean,
                "beta_var": state.beta_var,
                "sigma_shape": state.sigma_shape,
                "sigma_rate": state.sigma_rate,
            }
        )
        print(
            f"joint fit: converged={report.converged} after {report.iterations} iterations"
        )
    else:
        settings = (hyper.nu1, hyper.lambda_diag, hyper.n0, hyper.t0_sq, controls)
        tasks = [(dataset.group(a), nu0[a], *settings) for a in dataset.levels]
        threads = int(cfg.get("threads", 1))
        fits = dict(zip(dataset.levels, parallel_map(fit_ssl, tasks, threads)))
        doc.update(
            {
                "converged": {str(a): fits[a].converged for a in dataset.levels},
                "iterations": {str(a): fits[a].iterations for a in dataset.levels},
                "elbo_trace": {str(a): list(fits[a].elbo_trace) for a in dataset.levels},
                "ppi": {str(a): fits[a].ppi for a in dataset.levels},
                "omega": {str(a): fits[a].omega for a in dataset.levels},
                "zeta_mean": {str(a): fits[a].state.zeta_mean for a in dataset.levels},
            }
        )
        for a, fit in fits.items():
            print(f"level {a}: converged={fit.converged} after {fit.iterations} iterations")
    write_json(out, doc)
    print(f"wrote {out}")
    return 0


METRICS_HEADER = "replicate,method,level,auc,precision,recall"


def _metrics_start(path: str, append: bool) -> tuple[str, str]:
    """The mode to open a metrics table in, and the text to write before its rows.

    Without ``append``, or with a missing or empty file, the table starts
    afresh with its header.  Any other file must begin with the header; the
    rows follow a line break if its last line lacks one.
    """
    if append and os.path.isfile(path):
        with open(path, "rb") as fh:
            first = fh.readline()
            if first:
                if first.rstrip(b"\r\n") != METRICS_HEADER.encode():
                    raise DataError(
                        f"{path}: cannot append metrics rows, the first line is not "
                        f"the header '{METRICS_HEADER}'"
                    )
                fh.seek(-1, os.SEEK_END)
                return "a", "" if fh.read(1) == b"\n" else "\n"
    return "w", METRICS_HEADER + "\n"


def cmd_evaluate(
    fit_path: str,
    truth_path: str,
    out_csv: str,
    replicate: int,
    threshold: float,
    append: bool,
) -> int:
    fit_doc = read_json(fit_path, expected_kind="fit", fields=("levels", "p", "ppi", "method"))
    truth_doc = read_json(truth_path, expected_kind="truth", fields=("levels", "p", "adjacency"))
    _check_output_dir(out_csv)
    mode, preamble = _metrics_start(out_csv, append)
    fit_levels = _field(fit_doc, fit_path, "levels", lambda v: [int(a) for a in v])
    truth_levels = _field(truth_doc, truth_path, "levels", lambda v: [int(a) for a in v])
    if set(fit_levels) != set(truth_levels):
        raise DataError(
            f"levels differ between {fit_path} ({fit_levels}) and {truth_path} ({truth_levels})"
        )
    p = _field(truth_doc, truth_path, "p", int)
    if "p" in fit_doc and _field(fit_doc, fit_path, "p", int) != p:
        raise DataError(f"p differs between {fit_path} ({fit_doc['p']}) and {truth_path} ({p})")
    ppi = _field(fit_doc, fit_path, "ppi", lambda v: {int(a): _matrix(m) for a, m in v.items()})
    if sorted(ppi) != sorted(fit_levels):
        raise DataError(
            f"{fit_path}: 'ppi' has levels {sorted(ppi)}, the document has {sorted(fit_levels)}"
        )
    for level, matrix in ppi.items():
        if matrix.shape != (p, p):
            raise DataError(
                f"{fit_path}: 'ppi' at level {level} is {matrix.shape[0]} x "
                f"{matrix.shape[1]}, expected {p} x {p}"
            )
    adjacency = _field(
        truth_doc, truth_path, "adjacency",
        lambda v: {int(a): [(int(i), int(j)) for i, j in pairs] for a, pairs in v.items()},
    )
    if sorted(adjacency) != sorted(truth_levels):
        raise DataError(
            f"{truth_path}: 'adjacency' has levels {sorted(adjacency)}, "
            f"the document has {sorted(truth_levels)}"
        )
    # The ppi matrices are finite and p x p and the threshold lies in [0, 1],
    # so what evaluate_fit can still refuse is the truth's edges.
    try:
        report = evaluate_fit(ppi, adjacency, threshold)
    except DataError as exc:
        raise DataError(f"{truth_path}: {exc}")
    method = _field(fit_doc, fit_path, "method", str)
    with open(out_csv, mode, encoding="utf-8", newline="") as fh:
        fh.write(preamble)
        for level in sorted(report.per_level):
            row = report.per_level[level]
            fh.write(
                f"{replicate},{method},{level},"
                f"{_format_float(row['auc'])},{_format_float(row['precision'])},"
                f"{_format_float(row['recall'])}\n"
            )
    for level in sorted(report.per_level):
        row = report.per_level[level]
        print(
            f"level {level}: auc={row['auc']:.4f} precision={row['precision']:.4f} "
            f"recall={row['recall']:.4f}"
        )
    return 0


def cmd_rank(fit_path: str, k: int, out_prefix: str) -> int:
    fit_doc = read_json(fit_path, expected_kind="fit", fields=("beta_mean", "p", "variable_names"))
    _check_output_dir(out_prefix + "_nodes.csv")
    if "beta_mean" not in fit_doc:
        raise DataError(
            "this fit has no covariate coefficients (single-network method); "
            "fit the joint model, or compute slopes from the per-level precision "
            "estimates with ols_beta_proxy"
        )
    beta = _field(fit_doc, fit_path, "beta_mean", _matrix)
    p = beta.shape[0]
    if "p" in fit_doc and _field(fit_doc, fit_path, "p", int) != p:
        raise DataError(
            f"{fit_path}: 'beta_mean' is {p} x {p}, expected {fit_doc['p']} x {fit_doc['p']}"
        )
    names = []
    if "variable_names" in fit_doc:
        names = _field(fit_doc, fit_path, "variable_names", _names)
    if names and len(names) != p:
        raise DataError(
            f"{fit_path}: 'variable_names' has {len(names)} names for {p} nodes in 'beta_mean'"
        )
    names = names or [f"var{i + 1:04d}" for i in range(p)]
    positive, negative = top_k_edge_subnetworks(beta, k)
    ranking = rank_nodes_by_beta(beta, positive | negative)
    nodes_path = out_prefix + "_nodes.csv"
    with open(nodes_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("rank,node,name,score\n")
        for rank, (node, score) in enumerate(ranking, start=1):
            fh.write(f"{rank},{node},{names[node]},{_format_float(score)}\n")
    for label, edges, sign in (("positive", positive, -1.0), ("negative", negative, 1.0)):
        path = f"{out_prefix}_{label}_edges.csv"
        ordered = sorted(edges, key=lambda e: (sign * beta[e], e))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("node_i,node_j,name_i,name_j,beta\n")
            for i, j in ordered:
                fh.write(f"{i},{j},{names[i]},{names[j]},{_format_float(beta[i, j])}\n")
    print(
        f"wrote {nodes_path} and {len(positive)} positive / {len(negative)} negative "
        "subnetwork edges"
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordnet",
        description="Covariate-linked Gaussian graphical model estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write benchmark datasets")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=lambda a: cmd_simulate(parse_config(a.config), a.out_dir))

    sel = sub.add_parser("select-nu0", help="spike line search per level")
    sel.add_argument("--config", required=True)
    sel.add_argument("--manifest", required=True)
    sel.add_argument("--out", required=True)
    sel.set_defaults(
        func=lambda a: cmd_select_nu0(parse_config(a.config), a.manifest, a.out)
    )

    fit_p = sub.add_parser("fit", help="fit the joint or single-network model")
    fit_p.add_argument("--config", required=True)
    fit_p.add_argument("--manifest", required=True)
    fit_p.add_argument("--out", required=True)
    fit_p.add_argument("--method", choices=("joint", "ssl"))
    fit_p.add_argument("--nu0-report")
    fit_p.set_defaults(
        func=lambda a: cmd_fit(
            parse_config(a.config), a.manifest, a.out, a.method, a.nu0_report
        )
    )

    ev = sub.add_parser("evaluate", help="edge-recovery metrics against a truth file")
    ev.add_argument("--fit", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--replicate", type=int, default=0)
    ev.add_argument("--threshold", type=_probability, default=0.5)
    ev.add_argument("--append", action="store_true")
    ev.set_defaults(
        func=lambda a: cmd_evaluate(
            a.fit, a.truth, a.out, a.replicate, a.threshold, a.append
        )
    )

    rank = sub.add_parser("rank", help="node ranking and top-k subnetworks")
    rank.add_argument("--fit", required=True)
    rank.add_argument("--k", type=_non_negative_int, default=50)
    rank.add_argument("--out-prefix", required=True)
    rank.set_defaults(func=lambda a: cmd_rank(a.fit, a.k, a.out_prefix))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
