#!/usr/bin/env python3
"""Fail if a shipped crate declares a `pub fn` that takes a `&Relation`.

Every shipped consumer reads a relation through its `AnalysisCtx`
(`chunks()` and the views built from it). Only the relation substrate
(`crates/relation`), the generators (`crates/datagen`) and the dev-only
oracles (`crates/oracles`) may take a `&Relation`, plus two items:

* `AnalysisCtx::of`, the bridge from a relation to a context;
* `PartitionResult::partition_relation`, which keeps the parent's value
  ids (`Relation::select`) where `AnalysisCtx::select_rows` re-interns
  them.

A signature may span several lines; `&RelationChunk` and other types
whose name merely starts with `Relation` do not count.

Usage: scripts/relation_gate.py [REPO_ROOT]
Prints each offending `file:line: fn name` and exits 1 if there is one.
"""

import pathlib
import re
import sys

EXEMPT_CRATES = {"relation", "datagen", "oracles"}
ALLOWED = {("context", "of"), ("summaries", "partition_relation")}

PUB_FN = re.compile(r"\bpub\s+(?:const\s+|unsafe\s+)*fn\s+(\w+)")
TAKES_RELATION = re.compile(r"&\s*(?:'\w+\s+)?(?:mut\s+)?(?:[\w:]+::)?Relation\b")


def params(src, start):
    """The text between the parentheses of the parameter list that
    follows `start` (balanced, so `impl Fn(..)` parameters are kept)."""
    open_at = src.index("(", start)
    depth = 0
    for i in range(open_at, len(src)):
        if src[i] == "(":
            depth += 1
        elif src[i] == ")":
            depth -= 1
            if depth == 0:
                return src[open_at + 1 : i]
    return src[open_at + 1 :]


def offenders(root):
    for path in sorted(root.glob("crates/*/src/**/*.rs")):
        krate = path.relative_to(root).parts[1]
        if krate in EXEMPT_CRATES:
            continue
        # Comment lines (doc examples included) are not declarations.
        lines = path.read_text(encoding="utf-8").split("\n")
        code = "\n".join("" if l.lstrip().startswith("//") else l for l in lines)
        for m in PUB_FN.finditer(code):
            name = m.group(1)
            if (krate, name) in ALLOWED:
                continue
            if TAKES_RELATION.search(params(code, m.end())):
                line = code.count("\n", 0, m.start()) + 1
                yield f"{path.relative_to(root)}:{line}: fn {name}"


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    found = list(offenders(root))
    for f in found:
        print(f)
    if found:
        print(
            "a shipped crate takes a `&Relation`: take `&AnalysisCtx`, or move the "
            "item to the dev-only dbmine-oracles",
            file=sys.stderr,
        )
        sys.exit(1)


if __name__ == "__main__":
    main()
