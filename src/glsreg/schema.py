"""The JSON Schema (2020-12) keywords that experiment_config.schema.json uses.

``find_error(instance, schema)`` checks a whole JSON document against a
schema written with the keywords in ``KEYWORDS`` and returns the error to
report as (instance path, message), or None when the document is valid.  A
keyword outside that set raises ValueError instead of being skipped, so a
schema edit cannot outgrow the checker unnoticed.

The rules are JSON Schema's: a keyword constrains only instances of its own
type; booleans are not numbers; a float with an integral value is an
integer; const, enum and uniqueItems count 1 and 1.0 as equal and True and 1
as different.  ``$ref`` resolves a JSON pointer into the root schema.

The deepest error (longest instance path) is reported, the first found among
equals.  A oneOf that no branch passes contributes the errors of every
branch whose discriminator (a const or enum on a direct property) matches
and that has the fewest errors among those.  When no branch's discriminator
matches, its one error names that property and the values the branches
accept.
"""

from __future__ import annotations

__all__ = ["find_error"]


def find_error(instance, schema: dict) -> tuple[tuple, str] | None:
    """(instance path, message) of the error to report, or None when ``instance`` is valid.

    The path holds the property names and array indices leading to the
    offending value; it is empty for the document itself.
    """
    errors = _errors(instance, schema, (), schema)
    if not errors:
        return None
    path, message, _ = max(errors, key=lambda error: len(error[0]))
    return path, message


def _errors(value, schema, path: tuple, root: dict) -> list[tuple]:
    """Every (path, message, keyword) error of ``value`` under ``schema``."""
    if schema is True:
        return []
    if schema is False:
        return [(path, f"{value!r} is not allowed here", "false")]
    found = []
    for key, arg in schema.items():
        if key not in _CHECKS:
            raise ValueError(f"schema keyword {key!r} is not implemented")
        check = _CHECKS[key]
        if check is not None:
            found.extend(check(value, arg, path, schema, root))
    return found


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _equal(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if _is_number(a) and _is_number(b):
        return a == b
    return type(a) is type(b) and a == b


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _type(value, arg, path, schema, root):
    if not _TYPES[arg](value):
        yield path, f"{value!r} is not of type {arg!r}", "type"


def _const(value, arg, path, schema, root):
    if not _equal(value, arg):
        yield path, f"{arg!r} was expected", "const"


def _enum(value, arg, path, schema, root):
    if not any(_equal(value, each) for each in arg):
        yield path, f"{value!r} is not one of {arg!r}", "enum"


def _properties(value, arg, path, schema, root):
    if isinstance(value, dict):
        for name, sub in arg.items():
            if name in value:
                yield from _errors(value[name], sub, (*path, name), root)


def _required(value, arg, path, schema, root):
    if isinstance(value, dict):
        for name in arg:
            if name not in value:
                yield path, f"{name!r} is a required property", "required"


def _additional_properties(value, arg, path, schema, root):
    if isinstance(value, dict):
        known = schema.get("properties", {})
        for name in value:
            if name not in known:
                if arg is False:
                    yield (*path, name), "additional properties are not allowed", "additionalProperties"
                else:
                    yield from _errors(value[name], arg, (*path, name), root)


def _ref(value, arg, path, schema, root):
    if not arg.startswith("#/"):
        raise ValueError(f"only local $ref is supported, got {arg!r}")
    target = root
    for part in arg[2:].split("/"):
        target = target[part]
    yield from _errors(value, target, path, root)


def _prefix_items(value, arg, path, schema, root):
    if isinstance(value, list):
        for index, (item, sub) in enumerate(zip(value, arg)):
            yield from _errors(item, sub, (*path, index), root)


def _items(value, arg, path, schema, root):
    if isinstance(value, list):
        for index in range(len(schema.get("prefixItems", ())), len(value)):
            yield from _errors(value[index], arg, (*path, index), root)


def _min_items(value, arg, path, schema, root):
    if isinstance(value, list) and len(value) < arg:
        yield path, f"{value!r} has fewer than {arg} items", "minItems"


def _max_items(value, arg, path, schema, root):
    if isinstance(value, list) and len(value) > arg:
        yield path, f"{value!r} has more than {arg} items", "maxItems"


def _unique_items(value, arg, path, schema, root):
    if arg and isinstance(value, list):
        if any(_equal(a, b) for i, a in enumerate(value) for b in value[i + 1 :]):
            yield path, f"{value!r} has non-unique elements", "uniqueItems"


def _limit(keyword: str, breaks, words: str):
    def check(value, arg, path, schema, root):
        if _is_number(value) and breaks(value, arg):
            yield path, f"{value!r} is {words} {arg!r}", keyword

    return check


def _one_of(value, arg, path, schema, root):
    outcomes = [_errors(value, sub, path, root) for sub in arg]
    passed = sum(not errors for errors in outcomes)
    if passed > 1:
        yield path, f"{value!r} is valid under more than one of the given schemas", "oneOf"
    elif passed == 0:
        yield from _closest(value, arg, outcomes, path)


def _not(value, arg, path, schema, root):
    if not _errors(value, arg, path, root):
        yield path, f"{value!r} should not be valid under {arg!r}", "not"


def _closest(value, branches, outcomes, path):
    """Errors of the failed branches whose discriminator matches ``value``."""

    def misses(errors):
        return [e for e in errors if e[2] in ("const", "enum") and len(e[0]) == len(path) + 1]

    near = [errors for errors in outcomes if not misses(errors)]
    if near:
        fewest = min(map(len, near))  # the branch the document comes closest to, e.g. its spelling of a sequence
        for errors in near:
            if len(errors) == fewest:
                yield from errors
        return
    where = misses(outcomes[0])[0][0]
    key = where[-1]
    accepted = []
    for branch in branches:
        spec = branch.get("properties", {}).get(key, {})
        accepted.extend([spec["const"]] if "const" in spec else spec.get("enum", []))
    yield where, f"{value[key]!r} is not one of {accepted!r}", "enum"


# keyword -> check(value, arg, path, schema, root) yielding errors; None marks an annotation
_CHECKS = {
    "$schema": None,
    "$id": None,
    "$defs": None,
    "title": None,
    "description": None,
    "$ref": _ref,
    "type": _type,
    "const": _const,
    "enum": _enum,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "prefixItems": _prefix_items,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "uniqueItems": _unique_items,
    "minimum": _limit("minimum", lambda v, m: v < m, "less than the minimum of"),
    "maximum": _limit("maximum", lambda v, m: v > m, "greater than the maximum of"),
    "exclusiveMinimum": _limit("exclusiveMinimum", lambda v, m: v <= m, "less than or equal to the minimum of"),
    "exclusiveMaximum": _limit("exclusiveMaximum", lambda v, m: v >= m, "greater than or equal to the maximum of"),
    "oneOf": _one_of,
    "not": _not,
}
KEYWORDS = frozenset(_CHECKS)
