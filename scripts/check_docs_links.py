#!/usr/bin/env python3
"""Fail on dead relative links in README.md and docs/**.md.

Scans inline markdown links [text](target); external schemes and pure
anchors are skipped, #fragments are stripped before checking that the target
exists relative to the file containing the link. Run from anywhere; exits
non-zero listing every dead link. CI runs this as the docs link-check step,
and ctest runs it as the `check_docs_links` test.
"""
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP = ("http://", "https://", "mailto:", "#")


def links_of(md: pathlib.Path):
    text = md.read_text(encoding="utf-8")
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP):
            continue
        line = text.count("\n", 0, match.start()) + 1
        yield line, target


def main() -> int:
    files = [REPO / "README.md"] + sorted((REPO / "docs").glob("**/*.md"))
    dead = []
    for md in files:
        if not md.exists():
            dead.append(f"{md.relative_to(REPO)}: file missing")
            continue
        for line, target in links_of(md):
            path = (md.parent / target.split("#", 1)[0]).resolve()
            if not path.exists():
                dead.append(f"{md.relative_to(REPO)}:{line}: dead link {target}")
    if dead:
        print("dead relative links:", file=sys.stderr)
        for d in dead:
            print(f"  {d}", file=sys.stderr)
        return 1
    print(f"checked {len(files)} files, all relative links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
