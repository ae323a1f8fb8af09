"""Problem-file validation: the direct validator against jsonschema.

jsonschema is a test dependency only; here it is the oracle for the
messages and JSON paths that ``parse_problem`` reports.
"""

import copy
import json
import random

import pytest
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from fde import EXAMPLE_IDS, emit_example
from fde.catalog import _JSON_TYPES, PROBLEM_SCHEMA, _schema_error

ORACLE = validator_for(PROBLEM_SCHEMA)(PROBLEM_SCHEMA)
SUPPORTED = {"type", "required", "properties", "items", "minimum", "enum",
             "minItems"}
DELETE = object()
FILLS = ("x", True, None, 1.5, 0, -1, [], {}, 2.0)


def _paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutations(doc, path):
    """``path`` deleted (object members only), then set to each fill value."""
    if path and isinstance(_at(doc, path[:-1]), dict):
        yield DELETE
    yield from FILLS


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, path, value):
    if not path:
        return copy.deepcopy(value)
    out = copy.deepcopy(doc)
    parent = _at(out, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return out


def _oracle(doc):
    best = best_match(ORACLE.iter_errors(doc))
    return None if best is None else (best.message, best.json_path)


def _shallowest(doc):
    errors = list(ORACLE.iter_errors(doc))
    depth = min(len(e.path) for e in errors)
    return {(e.message, e.json_path) for e in errors if len(e.path) == depth}


def _document(example_id):
    return json.loads(json.dumps(emit_example(example_id)))


def test_schema_uses_only_supported_keywords():
    # the validator ignores any other keyword and knows only the types in
    # its table, so a schema edit that needs more must extend it first
    def subschemas(schema):
        yield schema
        for sub in schema.get("properties", {}).values():
            yield from subschemas(sub)
        if "items" in schema:
            yield from subschemas(schema["items"])
    schemas = list(subschemas(PROBLEM_SCHEMA))
    assert {key for s in schemas for key in s} <= SUPPORTED
    types = set()
    for s in schemas:
        rule = s.get("type", [])
        types.update([rule] if isinstance(rule, str) else rule)
    assert types <= set(_JSON_TYPES)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_single_fault_errors_match_jsonschema(example_id):
    doc = _document(example_id)
    assert _schema_error(doc) is None and _oracle(doc) is None
    checked = 0
    for path in list(_paths(doc)):
        for value in _mutations(doc, path):
            bad = _mutate(doc, path, value)
            assert _schema_error(bad) == _oracle(bad), (path, value)
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_three_fault_verdicts_match_jsonschema(example_id):
    rng = random.Random(EXAMPLE_IDS.index(example_id))
    base = _document(example_id)
    for _ in range(100):
        doc = base
        for _ in range(3):
            path = rng.choice(list(_paths(doc)))
            doc = _mutate(doc, path, rng.choice(list(_mutations(doc, path))))
        ours = _schema_error(doc)
        assert (ours is None) == (_oracle(doc) is None), doc
        if ours is not None:
            assert ours in _shallowest(doc), doc

