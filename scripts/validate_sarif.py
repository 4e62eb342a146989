#!/usr/bin/env python3
"""Validate otcheck's SARIF output against the SARIF 2.1.0 shape.

Two modes:

    validate_sarif.py report.sarif
        Validate an existing SARIF file.

    validate_sarif.py --otcheck BIN --root DIR
        Run `BIN --root DIR --sarif-out TMP` (the otcheck exit status
        is ignored — findings are fine, we are testing the
        serialisation) and validate what it wrote.

Validation is a JSON-Schema check of the SARIF 2.1.0 core the GitHub
code-scanning ingester relies on, embedded below so the test runs
offline, plus two semantic checks the schema cannot express: every
result's ruleId must be declared by the driver, and its ruleIndex
must point at that declaration.  Exits nonzero on any violation.
"""

import argparse
import json
import subprocess
import sys
import tempfile

# The load-bearing core of the SARIF 2.1.0 schema (embedded so no
# network is needed): document, run, tool, rule and result shapes,
# with the fields GitHub code scanning requires.
SARIF_CORE_SCHEMA = {
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "$schema": {"type": "string", "pattern": "sarif"},
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name", "rules"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message",
                                         "locations"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer",
                                    "minimum": 0,
                                },
                                "level": {
                                    "enum": ["none", "note", "warning",
                                             "error"],
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"},
                                    },
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": [
                                                    "artifactLocation",
                                                    "region",
                                                ],
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "required": ["uri"],
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "required": [
                                                            "startLine",
                                                        ],
                                                        "properties": {
                                                            "startLine": {
                                                                "type":
                                                                "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def fail(msg):
    print(f"validate_sarif: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(doc):
    import jsonschema

    jsonschema.validate(doc, SARIF_CORE_SCHEMA)

    for run in doc["runs"]:
        rules = run["tool"]["driver"]["rules"]
        ids = [r["id"] for r in rules]
        if len(set(ids)) != len(ids):
            fail("duplicate rule ids in driver.rules")
        for res in run["results"]:
            rid = res["ruleId"]
            if rid not in ids:
                fail(f"result ruleId {rid!r} not declared by the driver")
            idx = res.get("ruleIndex")
            if idx is not None and (idx >= len(ids) or ids[idx] != rid):
                fail(f"ruleIndex {idx} does not point at {rid!r}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("sarif", nargs="?", help="SARIF file to validate")
    ap.add_argument("--otcheck", help="otcheck binary to run first")
    ap.add_argument("--root", help="tree to run otcheck over")
    args = ap.parse_args()

    if args.otcheck:
        if not args.root:
            fail("--otcheck requires --root")
        out = tempfile.NamedTemporaryFile(suffix=".sarif", delete=False)
        out.close()
        proc = subprocess.run(
            [args.otcheck, "--root", args.root, "--sarif-out", out.name],
            stdout=subprocess.DEVNULL)
        if proc.returncode not in (0, 1):
            fail(f"otcheck exited {proc.returncode} (usage/IO error)")
        path = out.name
    elif args.sarif:
        path = args.sarif
    else:
        fail("need a SARIF file or --otcheck/--root")

    with open(path, "rb") as f:
        doc = json.load(f)
    validate(doc)
    nresults = sum(len(run["results"]) for run in doc["runs"])
    print(f"validate_sarif: OK ({path}, {nresults} result(s))")


if __name__ == "__main__":
    main()
