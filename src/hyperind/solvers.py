"""The solver and generator tables behind ``hyperind solve``, ``hyperind gen``
and the experiment harness.

``SOLVERS`` maps a solver name to its runner ``(H, params, seed) ->
RunCertificate``, the params it requires and the closed-form reference its
reports compare against.  ``GENERATORS`` maps an instance kind to its runner
``(params, rng) -> (H, info)``, and each entry the params it requires and the
optional ones it takes.  Params are plain dicts that ``checked_params``
converts and validates first, with the same rules for command-line flags and
experiment configs; a param set to None counts as unset, and a name the entry
does not take is refused, except among command-line flags, whose parser holds
the flags of every entry.  The runners look the algorithms up as module
globals at call time.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple

from .algorithms import (
    PipelineConfig,
    RunCertificate,
    akpss_run,
    greedy_set,
    pipeline_degree_gap,
    pipeline_graded_caps,
    pipeline_kminus2,
    spencer_set,
)
from .errors import InvalidArguments
from .generators import (
    gen_disjoint_cliques,
    gen_girth5,
    gen_gnp,
    gen_layered_bouquet,
)
from .rng import stream
from .schedule import build_schedule


class Entry(NamedTuple):
    run: Callable
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    reference: str = ""  # solvers only: the reference_bound kind


def _int(value) -> int:
    # strict: 10.5, True and "10" are not integers
    if type(value) is not int:
        raise TypeError
    return value


def _number(value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError
    return value


def _int_map(value) -> dict[int, int]:
    if isinstance(value, str):  # a command-line flag's JSON text
        value = json.loads(value)
    # JSON object keys are strings, so keys go through int()
    return {int(i): _int(c) for i, c in value.items()}


_INT = (_int, "an integer")
_NUMBER = (_number, "a finite number")
_INT_MAP = (_int_map, 'a JSON object of integers such as {"2": 10}')

# param name -> (converter, what it must be); other params pass unchanged
_PARAMS = {
    "n": _INT,
    "k": _INT,
    "s": _INT,
    "p": _NUMBER,
    "t": _NUMBER,
    "counts": _INT_MAP,
    "vertex_caps": _INT_MAP,
    "samples": _INT,
    "retries": _INT,
    "case": _INT,
    "T": _NUMBER,
    "d": _NUMBER,
    "epsilon": _NUMBER,
    "path": (str, "a string"),  # read_file takes an int as a file descriptor
}


def _spell(name: str, flags: bool) -> str:
    return "--" + name.replace("_", "-") if flags else repr(name)


def checked_params(
    table: dict[str, Entry], name: str, params, flags: bool = False
) -> dict:
    """Converted copy of params for entry ``name`` of ``table``.

    Raises InvalidArguments when params is not a dict, names a param the
    entry does not take, a value has the wrong type, or a required param is
    unset.  flags=True reads command-line flags: it skips the flags of other
    entries and names params the way the command line spells them.
    """
    if not isinstance(params, dict):
        raise InvalidArguments(f"params of {name} must be an object, got {params!r}")
    takes = table[name].required + table[name].optional
    out = {}
    for key, value in params.items():
        if key not in takes:
            if flags:
                continue
            raise InvalidArguments(f"{name} takes no param {key!r}; it takes {list(takes)}")
        if value is None:
            continue
        if key in _PARAMS:
            convert, kind = _PARAMS[key]
            try:
                value = convert(value)
            except (AttributeError, TypeError, ValueError):
                raise InvalidArguments(
                    f"{_spell(key, flags)} must be {kind}, got {value!r}"
                ) from None
        out[key] = value
    missing = [key for key in table[name].required if key not in out]
    if missing:
        raise InvalidArguments(
            f"{name} needs " + " and ".join(_spell(key, flags) for key in missing)
        )
    return out


# -- solvers -----------------------------------------------------------------


def _greedy(H, params, seed):
    picked = greedy_set(H, rng=stream(seed), order=params.get("order", "mindegree"))
    return RunCertificate("greedy", picked, verified=H.is_independent(picked)[0])


def _spencer(H, params, seed):
    picked = spencer_set(H, stream(seed), samples=params.get("samples", 20))
    return RunCertificate("spencer", picked, verified=H.is_independent(picked)[0])


def _akpss(H, params, seed):
    sched = build_schedule(H.n, params["T"], H.k, strict=params.get("strict", False))
    return akpss_run(
        H,
        sched,
        seed,
        retries_per_round=params.get("retries", 16),
        check_input=not params.get("trust_preconditions", False),
    )


def _pipeline_config(params) -> PipelineConfig:
    return PipelineConfig(
        retries=params.get("retries", 16),
        trust_preconditions=params.get("trust_preconditions", False),
        strict_schedule=params.get("strict", False),
    )


def _pkm2(H, params, seed):
    return pipeline_kminus2(H, params["d"], seed, _pipeline_config(params))


def _appA(H, params, seed):
    return pipeline_degree_gap(
        H,
        params["d"],
        params.get("case", 1),
        seed,
        epsilon=params.get("epsilon"),
        config=_pipeline_config(params),
    )


def _appB(H, params, seed):
    return pipeline_graded_caps(
        H, params["t"], seed, params["epsilon"], _pipeline_config(params)
    )


# the optional params of the rounds and of the three reductions
_ROUNDS = ("retries", "trust_preconditions", "strict")

SOLVERS = {
    "greedy": Entry(_greedy, (), ("order",), "spencer"),
    "spencer": Entry(_spencer, (), ("samples",), "spencer"),
    "akpss": Entry(_akpss, ("T",), _ROUNDS, "main"),
    "pkm2": Entry(_pkm2, ("d",), _ROUNDS, "loglog"),
    "appA": Entry(_appA, ("d",), ("case", "epsilon", *_ROUNDS), "log"),
    "appB": Entry(_appB, ("t", "epsilon"), _ROUNDS, "main"),
}


# -- generators --------------------------------------------------------------


def _gnp(params, rng):
    return gen_gnp(params["n"], params["k"], params["p"], rng), {}


def _girth5(params, rng):
    return gen_girth5(params["n"], params["k"], params["t"], rng)


def _cliques(params, rng):
    return gen_disjoint_cliques(params["n"], params["k"], params["s"])


def _bouquet(params, rng):
    return gen_layered_bouquet(
        params["n"],
        params["k"],
        params["counts"],
        rng,
        vertex_caps=params.get("vertex_caps"),
    )


GENERATORS = {
    "gnp": Entry(_gnp, ("n", "k", "p")),
    "girth5": Entry(_girth5, ("n", "k", "t")),
    "cliques": Entry(_cliques, ("n", "k", "s")),
    "bouquet": Entry(_bouquet, ("n", "k", "counts"), ("vertex_caps",)),
}
