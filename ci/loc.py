#!/usr/bin/env python3
"""Count the non-test lines of the workspace's Rust sources.

Usage: python3 ci/loc.py [REPO_ROOT]

Counts the lines of every `.rs` file under `crates/*/src` and
`shims/*/src` that are neither blank nor `//` comments (`///` and `//!`
included), leaving out

  * each item marked `#[cfg(test)]`: the attribute, any attributes after
    it and the item itself, up to its `;` or the `}` that closes its first
    `{` (braces in strings, chars and comments do not count), and
  * each file that only a `#[cfg(test)] mod name;` declares (`name.rs` or
    `name/mod.rs`), with everything under `name/`.

Prints one line per package (its directory) and the total. This is the
one definition of "non-test lines" that CHANGES.md figures use; it is a
measurement, not a gate.
"""

import pathlib
import re
import sys

CFG_TEST = "#[cfg(test)]"
RAW_STRING = re.compile(r'b?r(#*)"')
MOD_DECL = re.compile(r"\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+([A-Za-z_][A-Za-z0-9_]*)\s*;")


def skip_literal(text, i):
    """If a string, char or comment starts at `i`, return the index just
    past it; otherwise return `i`."""
    if text.startswith("//", i):
        end = text.find("\n", i)
        return len(text) if end < 0 else end
    if text.startswith("/*", i):
        depth, j = 1, i + 2
        while j < len(text) and depth:
            if text.startswith("/*", j):
                depth, j = depth + 1, j + 2
            elif text.startswith("*/", j):
                depth, j = depth - 1, j + 2
            else:
                j += 1
        return j
    raw = text[i] in "br" and RAW_STRING.match(text, i)
    if raw and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
        close = '"' + raw.group(1)
        end = text.find(close, i + raw.end())
        return len(text) if end < 0 else end + len(close)
    if text[i] == '"':
        j = i + 1
        while j < len(text) and text[j] != '"':
            j += 2 if text[j] == "\\" else 1
        return j + 1
    if text[i] == "'":
        if text.startswith("\\", i + 1):
            return text.find("'", i + 3) + 1
        if i + 2 < len(text) and text[i + 2] == "'":
            return i + 3
    return i


def test_spans(text):
    """Yield `(start, end)` offsets of each `#[cfg(test)]` item."""
    i = 0
    while i < len(text):
        j = skip_literal(text, i)
        if j != i:
            i = j
            continue
        if not text.startswith(CFG_TEST, i):
            i += 1
            continue
        start, i = i, i + len(CFG_TEST)
        depth, opened = 0, False
        while i < len(text):
            j = skip_literal(text, i)
            if j != i:
                i = j
                continue
            c = text[i]
            i += 1
            if c in "([{":
                depth += 1
                opened = opened or c == "{"
            elif c in ")]}":
                depth -= 1
                if c == "}" and depth == 0:
                    break
            elif c == ";" and depth == 0 and not opened:
                break
        yield start, i


def module_dir(path):
    if path.name in ("lib.rs", "main.rs", "mod.rs") or path.parent.name == "bin":
        return path.parent
    return path.parent / path.stem


def count_package(src):
    files = sorted(src.rglob("*.rs"))
    excluded = set()
    parsed = {}
    for path in files:
        text = path.read_text()
        spans = list(test_spans(text))
        parsed[path] = (text, spans)
        for start, end in spans:
            decl = MOD_DECL.match(text[start + len(CFG_TEST) : end].split("]")[-1])
            if decl:
                base = module_dir(path) / decl.group(1)
                excluded.add(base.with_suffix(".rs"))
                excluded.update(base.rglob("*.rs"))
    total = 0
    for path in files:
        if path in excluded:
            continue
        text, spans = parsed[path]
        in_test = [False] * (text.count("\n") + 1)
        for start, end in spans:
            for line in range(text.count("\n", 0, start), text.count("\n", 0, end) + 1):
                in_test[line] = True
        for n, line in enumerate(text.split("\n")):
            stripped = line.strip()
            if stripped and not stripped.startswith("//") and not in_test[n]:
                total += 1
    return total


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    grand = 0
    for src in sorted(root.glob("crates/*/src")) + sorted(root.glob("shims/*/src")):
        n = count_package(src)
        grand += n
        print(f"{src.parent.relative_to(root)}\t{n}")
    print(f"total\t{grand}")


if __name__ == "__main__":
    main()
