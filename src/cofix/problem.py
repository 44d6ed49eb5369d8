"""Problem files: a JSON encoding of a space, mappings, and coefficients.

A problem document has the shape

    {
      "space": {"flavor": "finite_explicit", "table": [[0.0, 1.0], [1.0, 0.0]]},
      "mappings": {"arity": 2,
                   "S": {"type": "table", "table": [0, 0]},
                   "T": {"type": "table", "table": [0, 0]}},
      "coefficients": {"alpha": 0, "beta": 0, "gamma": 0.5, "delta": 0, "L": 0},
      "pair_source": "exhaustive",
      "solver": {"x0": 1, "tol": 1e-12, "max_iters": 10000},
      "metadata": {}
    }

Euclidean spaces use {"flavor": "euclidean_affine", "dimension": m} and
affine mappings {"type": "affine", "matrix": [[...]], "offset": [...]};
their pair_source must be an object {"samples", "seed", "box"}.  The
"solver" and "metadata" blocks are optional.  Anything structurally wrong
raises SchemaError, which the command line reports as exit code 2, and so
does a fractional integer such as ``2.5`` (``2.0`` reads as 2).

A "solver" ``tol`` follows the one tolerance rule, :meth:`MetricSpace.slack`:
it must be finite and non-negative, and Euclidean spaces add their rounding
to it.  The space block has no tolerance and no completeness flag; an old
``"eq_tol"`` or ``"complete"`` key is ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    validate_coefficients,
)
from .errors import CofixError, SchemaError
from .metric_core import Flavor, MetricSpace
from .records import as_int


@dataclass(frozen=True)
class Problem:
    """A fully specified instance ready for checking or solving."""

    space: MetricSpace
    maps: MappingSet
    coefficients: Coefficients
    pair_source: PairSource = EXHAUSTIVE
    x0: Optional[object] = None
    tol: Optional[float] = None
    max_iters: int = 10000
    metadata: dict = field(default_factory=dict)

    def start_point(self):
        return self.space.default_point() if self.x0 is None else self.space.materialize(self.x0)


def _require(doc: dict, key: str, context: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{context} must be an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{context} is missing required key {key!r}")
    return doc[key]


def _space_from_dict(doc: dict) -> MetricSpace:
    flavor = _require(doc, "flavor", "space")
    try:
        flavor = Flavor(flavor)
    except ValueError:
        raise SchemaError(f"unknown space flavor {flavor!r}") from None
    if flavor == Flavor.FINITE_EXPLICIT:
        table = _require(doc, "table", "space")
        return MetricSpace.finite(np.array(table, dtype=float))
    return MetricSpace.euclidean(as_int(_require(doc, "dimension", "space")))


def _space_to_dict(space: MetricSpace) -> dict:
    if space.is_finite:
        return {"flavor": space.flavor.value, "table": space.table.tolist()}
    return {"flavor": space.flavor.value, "dimension": space.dimension}


def _mapping_from_dict(doc: dict, label: str):
    kind = _require(doc, "type", f"mapping {label}")
    if kind == "table":
        return TableMapping(np.array(_require(doc, "table", f"mapping {label}")))
    if kind == "affine":
        return AffineMapping(
            np.array(_require(doc, "matrix", f"mapping {label}"), dtype=float),
            np.array(_require(doc, "offset", f"mapping {label}"), dtype=float),
        )
    raise SchemaError(f"mapping {label} has unknown type {kind!r}")


def _mapping_to_dict(m) -> dict:
    if isinstance(m, TableMapping):
        return {"type": "table", "table": m.table.tolist()}
    return {"type": "affine", "matrix": m.matrix.tolist(), "offset": m.offset.tolist()}


def _maps_from_dict(doc: dict) -> MappingSet:
    arity = Arity(as_int(_require(doc, "arity", "mappings")))
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
        maps.validate(space)
        coefficients = validate_coefficients(
            Coefficients.from_dict(_require(doc, "coefficients", "problem"))
        )
        pair_source = _pair_source_from_dict(doc.get("pair_source"))
        solver = doc.get("solver") or {}
        if not isinstance(solver, dict):
            raise SchemaError("solver block must be an object")
        x0 = solver.get("x0")
        if x0 is not None:
            x0 = space.canonicalize(space.materialize(x0))
        problem = Problem(
            space=space,
            maps=maps,
            coefficients=coefficients,
            pair_source=pair_source,
            x0=x0,
            tol=space.slack(solver["tol"]) if solver.get("tol") is not None else None,
            max_iters=as_int(solver.get("max_iters", 10000)),
            metadata=doc.get("metadata") or {},
        )
    except SchemaError:
        raise
    except (CofixError, ValueError, TypeError, KeyError) as exc:
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
