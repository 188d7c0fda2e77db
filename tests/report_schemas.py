"""JSON Schemas of the four ``vbcast`` reports, one per command.

``REPORT_SCHEMAS[command]`` holds exactly the fields that command's report
writes, each required; the tests validate reports against it with
``jsonschema``.  The report's ``schema`` field must equal ``cli.SCHEMA``.
"""

from vbcast.cli import SCHEMA

_BOOL = {"type": "boolean"}
_INT = {"type": "integer"}
_NUM = {"type": "number"}
_STR = {"type": "string"}
_NUMBERS = {"type": "object", "additionalProperties": _NUM}
_NUMBER_LIST = {"type": "array", "items": _NUM}


def _record(**fields) -> dict:
    """JSON Schema of an object that holds exactly ``fields``, each required."""
    return {"type": "object", "properties": fields, "required": list(fields), "additionalProperties": False}


_OPERATOR = _record(rows=_INT, cols=_INT, re={"type": "array"}, im={"type": "array"})
_META = dict(
    schema={"const": SCHEMA}, version=_STR, command=_STR, dim=_INT, seed=_INT, tolerances=_NUMBERS, timestamp=_STR
)

REPORT_SCHEMAS = {
    "verify": _record(
        **_META,
        target=_STR,
        **{"pass": _BOOL},
        checks={
            "type": "array",
            "items": _record(name=_STR, **{"pass": _BOOL}, skipped={"type": "null"}, values=_NUMBERS),
        },
    ),
    "diamond": _record(
        **_META,
        target=_STR,
        value=_NUM,
        lower_bound=_NUM,
        upper_bound=_NUM,
        gap=_NUM,
        iterations=_INT,
        converged=_BOOL,
        witness=_record(re=_NUMBER_LIST, im=_NUMBER_LIST),
    ),
    "sample": _record(**_META, object=_STR, observable=_STR, n=_INT, result=_NUMBERS),
    "dump": _record(
        **_META,
        object=_STR,
        supermap=_record(d_in=_INT, d_out=_INT, choi=_OPERATOR),
        jamiolkowski=_OPERATOR,
        eigenvalues=_NUMBER_LIST,
    ),
}
