"""Experiment driver: configs in, deterministic CSV plus JSON report out.

A config names a generator, a list of solver specs, and a trial count.  Every
trial gets its own generator stream derived from (seed, "trial", index), so
reports are reproducible run to run; wall-clock numbers go to the JSON report
only, never to the CSV, and diff_reports ignores them.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from .core import LayeredHypergraph, check_integer, read_file
from .errors import HyperindError, InvalidArguments, OutOfDomain, SchemaError
from .rng import spawn_key, stream
from .schedule import reference_bound
from .solvers import GENERATORS as _INSTANCE_GENERATORS
from .solvers import SOLVERS, Entry, checked_params

SCHEMA_VERSION = 1

_GENERATORS = {
    **_INSTANCE_GENERATORS,
    "file": Entry(lambda params, rng: (read_file(params["path"]), {}), ("path",)),
}
GENERATORS = tuple(_GENERATORS)
ALGORITHMS = tuple(SOLVERS)

_CSV_COLUMNS = (
    "trial",
    "algorithm",
    "n",
    "k",
    "size",
    "verified",
    "reference",
    "ratio",
    "reference_kind",
)


@dataclass
class ExperimentConfig:
    name: str
    seed: int
    trials: int
    generator: str
    generator_params: dict
    algorithms: list[dict] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InvalidArguments(f"config must be an object, got {data!r}")
        required = {"name", "seed", "trials", "generator", "algorithms"}
        missing = required - set(data)
        if missing:
            raise InvalidArguments(f"config is missing {sorted(missing)}")
        unknown = set(data) - required - {"generator_params"}
        if unknown:
            raise InvalidArguments(f"config has unknown keys {sorted(unknown)}")
        check_integer("seed", data["seed"])
        check_integer("trials", data["trials"], least=1)
        specs = data["algorithms"]
        if not isinstance(specs, list) or not all(isinstance(a, dict) for a in specs):
            raise InvalidArguments(f"algorithms must be a list of objects, got {specs!r}")
        cfg = cls(
            name=str(data["name"]),
            seed=data["seed"],
            trials=data["trials"],
            generator=str(data["generator"]),
            generator_params=data.get("generator_params", {}),
            algorithms=specs,
        )
        if not cfg.name or Path(cfg.name).name != cfg.name or "\0" in cfg.name:
            raise InvalidArguments(f"name must be a plain file name, got {cfg.name!r}")
        if cfg.generator not in GENERATORS:
            raise InvalidArguments(
                f"unknown generator {cfg.generator!r}; choose from {GENERATORS}"
            )
        _generator_params(cfg)
        for spec in cfg.algorithms:
            if "algorithm" not in spec:
                raise InvalidArguments(f"algorithm spec {spec} lacks 'algorithm'")
            if set(spec) - {"algorithm", "params"}:
                raise InvalidArguments(f"algorithm spec {spec} has keys other than 'algorithm' and 'params'")
            if spec["algorithm"] not in ALGORITHMS:
                raise InvalidArguments(
                    f"unknown algorithm {spec['algorithm']!r}; "
                    f"choose from {ALGORITHMS}"
                )
            _solver_params(spec)
        return cfg

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(_load_json(path))


def _load_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path} does not hold a JSON object")
    return data


def _generator_params(cfg: ExperimentConfig) -> dict:
    return checked_params(_GENERATORS, cfg.generator, cfg.generator_params)


def _solver_params(spec: dict) -> dict:
    return checked_params(SOLVERS, spec["algorithm"], spec.get("params", {}))


def _generate(cfg: ExperimentConfig, trial: int) -> LayeredHypergraph:
    rng = stream(cfg.seed, "trial", trial)
    return _GENERATORS[cfg.generator].run(_generator_params(cfg), rng)[0]


def _average_degree(H: LayeredHypergraph) -> tuple[int, float]:
    sizes = H.layer_sizes()
    active = [i for i, c in sizes.items() if c > 0]
    if not active or H.n == 0:
        return H.k, 0.0
    k = max(active)
    return k, k * H.num_edges() / H.n


def _reference_for(algorithm: str, H: LayeredHypergraph, params: dict) -> tuple[float, str]:
    kind = SOLVERS[algorithm].reference
    k, d_avg = _average_degree(H)
    try:
        if kind == "main":
            T = float(params.get("T") or params.get("t") or 0.0)
            if T <= 1.0:
                raise OutOfDomain(f"reference 'main' needs T > 1, got {T}")
            return reference_bound(H.n, T, k, "main"), kind
        # pipelines are parameterized by their degree bound d, the baselines
        # by the observed average degree
        d = float(params["d"]) if "d" in params else d_avg
        if d <= 0:
            raise OutOfDomain("degree parameter is zero")
        return reference_bound(H.n, d, k, kind), kind
    except OutOfDomain:
        return float(H.n), "trivial"


def _run_trial(cfg: ExperimentConfig, trial: int) -> tuple[list[dict], list[dict]]:
    H = _generate(cfg, trial)
    rows: list[dict] = []
    runtimes: list[dict] = []
    for spec in cfg.algorithms:
        algorithm = spec["algorithm"]
        params = _solver_params(spec)
        seed = spawn_key(cfg.seed, "trial", trial, "algo", algorithm)
        started = time.perf_counter()
        try:
            cert = SOLVERS[algorithm].run(H, params, seed)
        except HyperindError as exc:
            raise type(exc)(f"trial {trial}, {algorithm}: {exc}") from exc
        elapsed = time.perf_counter() - started
        reference, kind = _reference_for(algorithm, H, params)
        size = len(cert.independent_set)
        ratio = size / reference if reference > 0 else math.inf
        rows.append(
            {
                "trial": trial,
                "algorithm": algorithm,
                "n": H.n,
                "k": H.k,
                "size": size,
                "verified": cert.verified,
                "reference": round(reference, 6),
                "ratio": round(ratio, 6),
                "reference_kind": kind,
            }
        )
        runtimes.append(
            {"trial": trial, "algorithm": algorithm, "seconds": elapsed}
        )
    return rows, runtimes


def _aggregate(rows: list[dict]) -> dict:
    byalgo: dict[str, list[dict]] = {}
    for row in rows:
        byalgo.setdefault(row["algorithm"], []).append(row)
    out = {}
    for algorithm in sorted(byalgo):
        ratios = sorted(r["ratio"] for r in byalgo[algorithm])
        sizes = sorted(r["size"] for r in byalgo[algorithm])
        mid = len(ratios) // 2
        median = (
            ratios[mid]
            if len(ratios) % 2
            else (ratios[mid - 1] + ratios[mid]) / 2
        )
        out[algorithm] = {
            "runs": len(ratios),
            "min_ratio": ratios[0],
            "median_ratio": round(median, 6),
            "mean_ratio": round(sum(ratios) / len(ratios), 6),
            "min_size": sizes[0],
            "max_size": sizes[-1],
            "all_verified": all(r["verified"] for r in byalgo[algorithm]),
        }
    return out


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Run all trials, write <name>.csv and <name>.json under out_dir, and
    return the report dict.

    The CSV is deterministic for a fixed config; runtimes live only in the
    JSON report.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = [_run_trial(cfg, trial) for trial in range(cfg.trials)]

    rows = [row for trial_rows, _ in results for row in trial_rows]
    runtimes = [rt for _, trial_rts in results for rt in trial_rts]
    rows.sort(key=lambda r: (r["trial"], r["algorithm"]))
    runtimes.sort(key=lambda r: (r["trial"], r["algorithm"]))

    csv_path = out / f"{cfg.name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in _CSV_COLUMNS])

    report = {
        "schema_version": SCHEMA_VERSION,
        "name": cfg.name,
        "config": {
            "seed": cfg.seed,
            "trials": cfg.trials,
            "generator": cfg.generator,
            "generator_params": cfg.generator_params,
            "algorithms": cfg.algorithms,
        },
        "rows": rows,
        "aggregates": _aggregate(rows),
        "runtimes": runtimes,
    }
    json_path = out / f"{cfg.name}.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


# "threads" is the worker count of reports written by the former thread pool
_VOLATILE_KEYS = ("runtimes", "seconds", "threads")


def diff_reports(a: dict | str | Path, b: dict | str | Path) -> list[str]:
    """Field-by-field comparison of two reports, ignoring runtime data.

    Returns human-readable difference lines; empty means the reports agree.
    Raises SchemaError when the schema versions differ.
    """
    ra, rb = (_load_json(x) if isinstance(x, (str, Path)) else x for x in (a, b))
    va, vb = ra.get("schema_version"), rb.get("schema_version")
    if va != vb:
        raise SchemaError(f"schema versions differ: {va} vs {vb}")

    diffs: list[str] = []

    def walk(pa, pb, path):
        if any(part in _VOLATILE_KEYS for part in path.split(".") if part):
            return
        if isinstance(pa, dict) and isinstance(pb, dict):
            for key in sorted(set(pa) | set(pb)):
                if key in _VOLATILE_KEYS:
                    continue
                sub = f"{path}.{key}" if path else key
                if key not in pa:
                    diffs.append(f"{sub}: missing on the left")
                elif key not in pb:
                    diffs.append(f"{sub}: missing on the right")
                else:
                    walk(pa[key], pb[key], sub)
        elif isinstance(pa, list) and isinstance(pb, list):
            if len(pa) != len(pb):
                diffs.append(f"{path}: list lengths {len(pa)} vs {len(pb)}")
                return
            for i, (xa, xb) in enumerate(zip(pa, pb)):
                walk(xa, xb, f"{path}[{i}]")
        else:
            if pa != pb:
                diffs.append(f"{path}: {pa!r} vs {pb!r}")

    walk(ra, rb, "")
    return diffs
