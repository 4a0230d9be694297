"""The package's schema checker against jsonschema, the reference implementation.

The CLI checks configs with ``glsreg.schema.find_error``; jsonschema is only
a test dependency.  Both must give the same verdict on every document: the
sample configs, the rejected configs of the CLI tests, hand-made schemas for
each keyword, and a generated corpus of mutated configs.
"""

import copy
import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from glsreg.schema import KEYWORDS, find_error
from test_reports_cli import REJECTED_CONFIGS

SCHEMA = json.loads(resources.files("glsreg").joinpath("experiment_config.schema.json").read_text())
REFERENCE = jsonschema.Draft202012Validator(SCHEMA)
SAMPLES = {path.stem: json.loads(path.read_text()) for path in sorted(Path("configs").glob("*.json"))}


def agrees(instance, schema=SCHEMA) -> bool:
    return (find_error(instance, schema) is None) == jsonschema.Draft202012Validator(schema).is_valid(instance)


class TestAgreesWithReference:
    def test_samples_exist(self):
        assert len(SAMPLES) >= 7

    @pytest.mark.parametrize("name", SAMPLES)
    def test_sample_config_is_valid(self, name):
        assert REFERENCE.is_valid(SAMPLES[name])
        assert find_error(SAMPLES[name], SCHEMA) is None

    @pytest.mark.parametrize("name", REJECTED_CONFIGS)
    def test_rejected_config(self, name):
        assert agrees(REJECTED_CONFIGS[name])


# each keyword on its own, at the edges JSON Schema fixes: bool vs number, 1 vs 1.0, -0.0
KEYWORD_CASES = [
    ({"type": "number"}, [True, 1, 1.5, -0.0, "1", None]),
    ({"type": "integer"}, [False, 3, 3.0, 3.5, 2**64, -0.0]),
    ({"type": "object"}, [{}, [], "x"]),
    ({"type": "array"}, [[], {}, 1]),
    ({"type": "string"}, ["a", 1, None]),
    ({"type": "boolean"}, [True, 0, "true"]),
    ({"type": "null"}, [None, 0, False]),
    ({"const": 1}, [1, 1.0, True, "1", [1]]),
    ({"const": [1, {"a": 0}]}, [[1.0, {"a": -0.0}], [True, {"a": 0}], [1, {"a": 0, "b": 1}]]),
    ({"enum": ["a", 0]}, ["a", 0, 0.0, False, None]),
    ({"properties": {"a": {"type": "integer"}}, "required": ["b"]}, [{"b": 1}, {"a": 1.5, "b": 1}, {"a": 1}, 7]),
    ({"properties": {"a": True, "b": False}, "additionalProperties": False}, [{"a": 1}, {"b": 1}, {"c": 1}, []]),
    ({"additionalProperties": {"type": "string"}}, [{"a": "x"}, {"a": 1}]),
    ({"$defs": {"n": {"minimum": 1}}, "items": {"$ref": "#/$defs/n"}}, [[1, 2], [0], [], "x"]),
    ({"prefixItems": [{"type": "number"}], "items": {"type": "string"}}, [[1, "a"], ["a"], [1, 2]]),
    ({"minItems": 2, "maxItems": 2}, [[1], [1, 2], [1, 2, 3], {"a": 1}]),
    ({"uniqueItems": True}, [[1, 1.0], [1, True], [[0], [-0.0]], [{"a": 1}, {"a": 2}], "aa"]),
    ({"minimum": 0, "maximum": 18446744073709551615}, [-0.0, -1, 2**64 - 1, 2**64, 1.8446744073709552e19, True]),
    ({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, [0, 0.5, 1, -0.0, "0.5"]),
    ({"oneOf": [{"required": ["a"]}, {"required": ["b"]}]}, [{"a": 1}, {"a": 1, "b": 1}, {}, 3]),
    ({"oneOf": [{"type": "integer"}, {"minimum": 2}]}, [1, 2, 2.5, 0.5, "x"]),
    ({"not": {"required": ["a"]}}, [{"a": 1}, {}, 1]),
    (True, [1, {}]),
    (False, [1, {}]),
]


@pytest.mark.parametrize(
    "schema, instance",
    [(schema, instance) for schema, instances in KEYWORD_CASES for instance in instances],
)
def test_keyword_agrees_with_reference(schema, instance):
    assert agrees(instance, schema)


def test_keyword_cases_cover_every_keyword():
    used = set()
    for schema, _ in KEYWORD_CASES:
        used |= set(_keywords(schema))
    assert KEYWORDS - {"$schema", "$id", "title", "description"} <= used


@pytest.mark.parametrize(
    "schema, words", [({"pattern": "^y$"}, "'pattern' is not implemented"), ({"$ref": "other.json#/a"}, "local")]
)
def test_unsupported_schema_raises(schema, words):
    with pytest.raises(ValueError, match=words):
        find_error("x", schema)


def _keywords(schema):
    """Every keyword in ``schema`` and its subschemas."""
    if isinstance(schema, bool):
        return
    for key, arg in schema.items():
        yield key
        if key in ("properties", "$defs"):
            subs = list(arg.values())
        elif key in ("prefixItems", "oneOf"):
            subs = arg
        elif key in ("items", "additionalProperties", "not"):
            subs = [arg]
        else:
            subs = []
        for sub in subs:
            yield from _keywords(sub)


def test_packaged_schema_uses_only_implemented_keywords():
    used = set(_keywords(SCHEMA))
    assert "oneOf" in used and "$ref" in used  # the walk reached the branches
    assert used <= KEYWORDS, sorted(used - KEYWORDS)


def test_every_implemented_keyword_is_used_by_the_packaged_schema():
    # the checker implements the schema's keywords, not JSON Schema's: a keyword nothing uses is dead code
    unused = KEYWORDS - set(_keywords(SCHEMA))
    assert not unused, sorted(unused)


# ---------------------------------------------------------------------------
# mutated configs

ODD_VALUES = [True, False, None, 0, 1, 1.0, -0.0, -1, 0.5, 2.5, 2**64, 2**64 - 1, "x", "natural", [], {}, [1.0]]
EXTRA_KEYS = ["colour", "form", "kind", "alpha", "eps", "seed", "n_last", "points", "schema_version", "pair"]


def _slots(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _slots(value, (*path, key))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _slots(value, (*path, index))


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(list(SAMPLES.values()))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_slots(cfg))))
        parent = cfg
        for part in path[:-1]:
            parent = parent[part]
        target = parent[path[-1]] if path else cfg
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        odd = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        if op == "replace" and path:
            parent[path[-1]] = odd
        elif op == "delete" and path:
            del parent[path[-1]]
        elif isinstance(target, dict):
            target[draw(st.sampled_from(EXTRA_KEYS))] = odd
        elif isinstance(target, list):
            target.append(odd)
    return cfg


@settings(max_examples=400, deadline=None)
@given(mutated_configs())
def test_mutated_config_agrees_with_reference(cfg):
    assert agrees(cfg)


# ---------------------------------------------------------------------------
# what the error names

NORM = SAMPLES["norm_natural"]
BOUND = SAMPLES["bound_geometric"]
REPORTED = {
    "unknown-psi-form": ({**NORM, "psi": {"form": "mystery"}}, ("psi", "form"), "'mystery' is not one of"),
    "psi-field-out-of-range": ({**NORM, "psi": {"form": "power_root", "m": -1.0}}, ("psi", "m"), "-1.0"),
    "psi-field-missing": ({**NORM, "psi": {"form": "power_root"}}, ("psi",), "'m' is a required property"),
    "unknown-moments-kind": ({**NORM, "moments": {"kind": "bogus"}}, ("moments", "kind"), "'bogus'"),
    "unknown-top-level-key": ({**NORM, "colour": "blue"}, ("colour",), "not allowed"),
    "schema-version-true": ({**NORM, "schema_version": True}, ("schema_version",), "1 was expected"),
    "unknown-check": ({**SAMPLES["verify_fast"], "checks": ["nope"]}, ("checks", 0), "'nope' is not one of"),
    "seed-past-u64": ({**SAMPLES["verify_fast"], "seed": 2**64}, ("seed",), "maximum"),
    "missing-command-field": ({"schema_version": 1, "command": "simulate"}, (), "'model' is a required property"),
    # of the two power_log spellings, the one the sequence comes closest to names the error
    "sequence-spelling-mixed": (
        {**BOUND, "pair": {**BOUND["pair"], "beta": {"form": "power_log", "theta": 0.5, "m": 7.0}}},
        ("pair", "beta", "m"),
        "additional properties are not allowed",
    ),
    "sequence-rate-missing": (
        {**BOUND, "pair": {**BOUND["pair"], "eps": {"form": "power_log", "m": 1.0}}},
        ("pair", "eps"),
        "'alpha' is a required property",
    ),
}


@pytest.mark.parametrize("name", REPORTED)
def test_error_points_at_deepest_offending_field(name):
    cfg, path, words = REPORTED[name]
    assert not REFERENCE.is_valid(cfg)
    where, message = find_error(cfg, SCHEMA)
    assert where == path
    assert words in message
