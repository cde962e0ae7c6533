"""Counts the lines of the four kernel crates' sources, split into test and
non-test lines.

Usage: python3 scripts/count_lines.py [checkout root]   (default: this checkout)

Every line bar in ROADMAP.md is read with this script.

A line is a test line when it lies in an item that carries `#[cfg(test)]`
(from the attribute to the item's closing brace, or its `;`), or in a file
that is test code as a whole: its inner attribute is `#![cfg(test)]`, or
its module is declared `#[cfg(test)] mod name;` beside it. Every other
line -- code, doc comments, blank lines -- is a non-test line.
"""

import pathlib
import re
import sys

CRATES = ["sparse", "core", "krylov", "dist"]


def test_modules(text):
    """Names of the out-of-line modules a file declares under `#[cfg(test)]`."""
    return set(re.findall(r"#\[cfg\(test\)\]\s*(?:pub(?:\(crate\))? )?mod (\w+);", text))


def split(text, whole_file_test):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if whole_file_test or any(l.strip() == "#![cfg(test)]" for l in lines):
        return 0, len(lines)
    test = 0
    i = 0
    while i < len(lines):
        if lines[i].strip() != "#[cfg(test)]":
            i += 1
            continue
        # The attributed item runs to the brace that closes its first `{`,
        # or to its `;` when a `;` comes first.
        start, depth, opened = i, 0, False
        while i < len(lines):
            code = re.sub(r"//.*", "", lines[i])
            code = re.sub(r"'(\\.|[^'\\])'", "", code)
            for ch in code:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
            if (opened and depth == 0) or (not opened and code.rstrip().endswith(";")):
                break
            i += 1
        test += i - start + 1
        i += 1
    return len(lines) - test, test


def main():
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(__file__).resolve().parent.parent
    total_non, total_test = 0, 0
    for crate in CRATES:
        non, test = 0, 0
        files = sorted((root / "crates" / crate / "src").rglob("*.rs"))
        gated = set()
        for f in files:
            gated |= {f.parent / f"{m}.rs" for m in test_modules(f.read_text())}
        for f in files:
            n, t = split(f.read_text(), f in gated)
            non += n
            test += t
        print(f"{crate:7} non-test {non:6}  test {test:6}  all {non + test:6}")
        total_non += non
        total_test += test
    print(f"{'total':7} non-test {total_non:6}  test {total_test:6}  all {total_non + total_test:6}")


if __name__ == "__main__":
    main()
