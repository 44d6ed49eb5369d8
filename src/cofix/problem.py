"""Problem files: a JSON encoding of a space, mappings, and coefficients.

A problem document has the shape

    {
      "space": {"flavor": "finite_explicit", "table": [[0.0, 1.0], [1.0, 0.0]]},
      "mappings": {"arity": 2,
                   "S": {"type": "table", "table": [0, 0]},
                   "T": {"type": "table", "table": [0, 0]}},
      "coefficients": {"alpha": 0, "beta": 0, "gamma": 0.5, "delta": 0, "L": 0},
      "pair_source": "exhaustive",
      "solver": {"x0": 1, "tol": 1e-12, "max_iters": 500},
      "metadata": {}
    }

Euclidean spaces use {"flavor": "euclidean_affine", "dimension": m} and
affine mappings {"type": "affine", "matrix": [[...]], "offset": [...]}
with finite entries; their pair_source must be an object {"samples",
"seed", "box"}.  The "solver" and "metadata" blocks are optional.  Anything
structurally wrong raises SchemaError, which the command line reports as
exit code 2, and so does a fractional integer such as ``2.5`` (``2.0``
reads as 2).  A boolean or a string is never a number: ``true``, ``false``
or ``"0.5"`` as a scalar, or anywhere in a table, a mapping table, a
matrix, an offset or an ``x0`` list, is a schema error too, and so is a
``max_iters`` below 1.  :class:`Problem` holds these rules itself.

A "solver" ``tol`` follows the one tolerance rule, :meth:`MetricSpace.slack`:
it must be finite and non-negative, and Euclidean spaces add their rounding
to it.  The space block has no tolerance and no completeness flag; an old
``"eq_tol"`` or ``"complete"`` key is ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .contraction import (
    EXHAUSTIVE,
    AffineMapping,
    Arity,
    Coefficients,
    MappingSet,
    PairSource,
    SampledPairs,
    TableMapping,
)
from .errors import CofixError, SchemaError
from .metric_core import Flavor, MetricSpace
from .records import int_arg
from .solver import MAX_ITERS


@dataclass(frozen=True)
class Problem:
    """A fully specified instance ready for checking or solving.

    Built, it holds the rules a document is read by: the mappings fit the
    space, ``x0`` is a canonical point or None, ``tol`` a float per
    :meth:`MetricSpace.slack` or None, and ``max_iters`` an int of at least
    1.  A broken rule raises DomainError; numpy scalars become Python ones.
    """

    space: MetricSpace
    maps: MappingSet
    coefficients: Coefficients
    pair_source: PairSource = EXHAUSTIVE
    x0: Optional[object] = None
    tol: Optional[float] = None
    max_iters: int = MAX_ITERS
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        space = self.space
        self.maps.validate(space)
        if self.x0 is not None:
            object.__setattr__(self, "x0", space.canonicalize(space.materialize(self.x0)))
        if self.tol is not None:
            object.__setattr__(self, "tol", space.slack(self.tol))
        object.__setattr__(self, "max_iters", int_arg("max_iters", self.max_iters, 1))

    def start_point(self):
        return self.space.default_point() if self.x0 is None else self.space.materialize(self.x0)


def _require(doc: dict, key: str, context: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{context} must be an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{context} is missing required key {key!r}")
    return doc[key]


def _numbers(value, name: str):
    """``value`` as given; SchemaError if it is a string, or a boolean or a string sits at any depth of its nested lists."""
    level = [value] if isinstance(value, str) else value if isinstance(value, (list, tuple)) else []
    while level:
        kinds = set(map(type, level))
        for kind, what in ((bool, "a boolean"), (str, "a string")):
            if kind in kinds:
                raise SchemaError(f"{name} holds {what}, which is not a number")
        # one level down; a level without lists, such as a table row's entries, is the last
        nested = (v for v in level if type(v) in (list, tuple)) if kinds & {list, tuple} else ()
        level = list(chain.from_iterable(nested))
    return value


def _converted(make, value, name: str):
    """``make(value)`` for the number array ``name``, held to :func:`_numbers`; SchemaError naming it if an integer overflows."""
    try:
        return make(_numbers(value, name))
    except OverflowError as exc:
        raise SchemaError(f"{name} holds an integer out of range: {exc}") from None


def _space_from_dict(doc: dict) -> MetricSpace:
    flavor = _require(doc, "flavor", "space")
    try:
        flavor = Flavor(flavor)
    except ValueError:
        raise SchemaError(f"unknown space flavor {flavor!r}") from None
    if flavor == Flavor.FINITE_EXPLICIT:
        return _converted(MetricSpace.finite, _require(doc, "table", "space"), "space table")
    return MetricSpace.euclidean(int_arg("dimension", _require(doc, "dimension", "space")))


def _space_to_dict(space: MetricSpace) -> dict:
    if space.is_finite:
        return {"flavor": space.flavor.value, "table": space.table.tolist()}
    return {"flavor": space.flavor.value, "dimension": space.dimension}


def _mapping_from_dict(doc: dict, label: str):
    where = f"mapping {label}"
    kind = _require(doc, "type", where)
    if kind == "table":
        return _converted(TableMapping, _require(doc, "table", where), f"{where} table")
    if kind == "affine":
        floats = partial(np.array, dtype=float)
        return AffineMapping(*(_converted(floats, _require(doc, key, where), f"{where} {key}") for key in ("matrix", "offset")))
    raise SchemaError(f"{where} has unknown type {kind!r}")


def _mapping_to_dict(m) -> dict:
    if isinstance(m, TableMapping):
        return {"type": "table", "table": m.table.tolist()}
    return {"type": "affine", "matrix": m.matrix.tolist(), "offset": m.offset.tolist()}


def _maps_from_dict(doc: dict) -> MappingSet:
    arity = Arity(int_arg("arity", _require(doc, "arity", "mappings")))
    # an arity-k problem takes the first k of S, T, f, g
    labels = ("S", "T", "f", "g")[:arity]
    return MappingSet(arity=arity, **{k: _mapping_from_dict(_require(doc, k, "mappings"), k) for k in labels})


def _pair_source_from_dict(doc) -> PairSource:
    if doc is None or doc == EXHAUSTIVE:
        return EXHAUSTIVE
    if isinstance(doc, dict):
        return SampledPairs.from_dict(doc)
    raise SchemaError(f"pair_source must be {EXHAUSTIVE!r} or an object, got {doc!r}")


def load_problem(source: Union[str, Path, dict]) -> Problem:
    """Parse a problem document from a path, JSON text, or parsed dict.

    Every malformed input surfaces as SchemaError: JSON syntax problems,
    missing keys, and values the constructors reject (a non-square table,
    an out-of-range coefficient, a mapping that does not fit the space).
    """
    if isinstance(source, (str, Path)):
        try:
            path = Path(source)
            is_file = path.is_file()
        except (OSError, ValueError):
            # not usable as a path (JSON text can exceed the filename limit)
            is_file = False
        try:
            text = path.read_text() if is_file else str(source)
            doc = json.loads(text)
        except (OSError, ValueError) as exc:
            raise SchemaError(f"cannot parse problem document: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SchemaError(f"problem document must be an object, got {type(doc).__name__}")

    try:
        space = _space_from_dict(_require(doc, "space", "problem"))
        maps = _maps_from_dict(_require(doc, "mappings", "problem"))
        coefficients = Coefficients.from_dict(_require(doc, "coefficients", "problem"))
        pair_source = _pair_source_from_dict(doc.get("pair_source"))
        solver = doc.get("solver") or {}
        if not isinstance(solver, dict):
            raise SchemaError("solver block must be an object")
        problem = Problem(
            space=space,
            maps=maps,
            coefficients=coefficients,
            pair_source=pair_source,
            x0=_numbers(solver.get("x0"), "solver x0"),
            tol=solver.get("tol"),
            max_iters=solver.get("max_iters", MAX_ITERS),
            metadata=doc.get("metadata") or {},
        )
    except SchemaError:
        raise
    except (CofixError, ValueError, TypeError, KeyError, OverflowError) as exc:
        raise SchemaError(f"invalid problem document: {exc}") from exc
    return problem


def problem_to_dict(problem: Problem) -> dict:
    """Serialize a problem back into its JSON document form."""
    mappings = {"arity": int(problem.maps.arity)}
    for label, m in problem.maps.items():
        mappings[label] = _mapping_to_dict(m)
    doc = {
        "space": _space_to_dict(problem.space),
        "mappings": mappings,
        "coefficients": problem.coefficients.to_dict(),
        "pair_source": EXHAUSTIVE
        if problem.pair_source == EXHAUSTIVE or problem.pair_source is None
        else problem.pair_source.to_dict(),
        "solver": {
            "x0": problem.x0,
            "tol": problem.tol,
            "max_iters": problem.max_iters,
        },
        "metadata": problem.metadata,
    }
    return doc


def as_problem(instance) -> Problem:
    """Wrap a generated instance as a problem document, oracle data in metadata."""
    metadata = {
        "recipe": instance.recipe.to_dict(),
        "oracle": instance.oracle.to_dict(),
    }
    if instance.anchor is not None:
        metadata["anchor"] = instance.anchor
        metadata["phi"] = instance.phi
    return Problem(
        space=instance.space,
        maps=instance.maps,
        coefficients=instance.coefficients,
        pair_source=EXHAUSTIVE,
        metadata=metadata,
    )
