"""Reference copy of the record-by-record archive reader, frozen as it was
before the reader checked archives by columns.

Each line is decoded, checked and built into a :class:`SearchRecord` on its
own; the multipliers of the records read are then checked as one stack per
rank.  The package's reader must name the same line with the same message,
and otherwise return the same records.  Do not edit it to follow the
package.  One rule was added later, as the package's reader gained it: a
witness b must be of its record's algebra, checked after b is parsed.  The
witness is read by the frozen element reader of ``element_reference``.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict

import numpy as np

from element_reference import element_from_json
from symcone.algebra import descriptor_from_spec
from symcone.search import PROBLEMS, VERDICTS, SearchRecord
from symcone.transforms import MultiplierError, multiplier_stack

# the types json decodes a number to; bool, an int subclass, is left out
_JSON_NUMBERS = frozenset((float, int))


def record_from_json(obj: dict) -> SearchRecord:
    if not isinstance(obj, dict):
        raise ValueError(f"a record must be a JSON object, got {type(obj).__name__}")
    spec, verdict = obj["descriptor"], obj["verdict"]
    problem = obj.get("problem", "general")
    if not all(type(v) is str for v in (spec, verdict, problem)):
        raise ValueError(f"descriptor, verdict and problem must be strings, "
                         f"got {spec!r}, {verdict!r}, {problem!r}")
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; known: {PROBLEMS}")
    if verdict not in VERDICTS:
        raise ValueError(f"unknown verdict {verdict!r}; known: {VERDICTS}")
    descriptor_from_spec(spec)  # reject an unparseable spec here
    family, seed, A, margin = obj["family"], obj.get("seed"), obj["A"], obj["margin"]
    if type(family) not in (str, type(None)) or type(seed) not in (int, type(None)):
        raise ValueError(f"family must be a string or null and seed an integer or "
                         f"null (not a bool), got {family!r}, {seed!r}")
    if not (type(A) is list and all(type(row) is list and _JSON_NUMBERS.issuperset(
            map(type, row)) for row in A)):
        raise ValueError("multiplier A must be a JSON array of arrays of numbers")
    if type(margin) not in _JSON_NUMBERS or not math.isfinite(margin):
        raise ValueError(f"margin must be a finite JSON number, got {margin!r}")
    entries, b = np.asarray(A, dtype=np.float64), element_from_json(obj["b"])
    if b.descriptor != descriptor_from_spec(spec):
        raise ValueError(f"witness of {b.descriptor} in a record of {spec}")
    return SearchRecord(
        family=family,
        descriptor=spec,
        seed=seed,
        entries=entries,
        b_witness=b,
        margin=float(margin),
        verdict=verdict,
        problem=problem,
    )


def read_archive(path) -> list:
    """Records of a JSON-lines archive; a malformed line raises ValueError
    naming its line number, the first of several."""
    out, lines = [], []
    error = None  # (line number, message) of the first line that fails to parse
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(record_from_json(json.loads(line)))
            except KeyError as exc:
                error = lineno, f"archive record lacks the field {exc}"
                break
            except (TypeError, ValueError, OverflowError, RecursionError) as exc:
                error = lineno, f"malformed archive record ({exc})"
                break
            lines.append(lineno)
    by_rank = defaultdict(list)
    for i, rec in enumerate(out):
        by_rank[descriptor_from_spec(rec.descriptor).rank].append(i)
    for rank, idx in by_rank.items():
        try:
            E = multiplier_stack([out[i].entries for i in idx], rank)
        except MultiplierError as exc:
            lineno = lines[idx[exc.index]]
            if error is None or lineno < error[0]:
                error = lineno, f"malformed archive record ({exc})"
            continue
        for i, entries in zip(idx, E):
            out[i].entries = entries
    if error is not None:
        raise ValueError(f"{path}, line {error[0]}: {error[1]}")
    return out
