#!/usr/bin/env python3
"""Fail when a documented transcript drifts from the golden it is pinned to.

A Markdown line that says a transcript is pinned and names a golden file --
"pinned ... `tests/golden/<name>.txt`" -- introduces the next fenced code
block.  That block must equal the golden file byte for byte (ignoring one
trailing newline); the golden itself is held to the live program by the
`example_golden_*` ctest cases, so the docs cannot silently go stale.

Registered as the ctest case `docs_transcripts` and in the CI `docs` job.

  tools/check_transcripts.py                    # default set, repo-root cwd
  tools/check_transcripts.py docs/SERVER.md     # explicit files
"""

import glob
import re
import sys

PIN = re.compile(r"pinned.*`(tests/golden/[\w.-]+\.txt)`")
FENCE = re.compile(r"^\s*```")

DEFAULT_DOCS = ["README.md", "docs/*.md"]


def pinned_blocks(lines):
    """Yield (intro line number, golden path, block text or None)."""
    i = 0
    while i < len(lines):
        match = PIN.search(lines[i])
        if not match or FENCE.match(lines[i]):
            i += 1
            continue
        intro = i + 1
        j = i + 1
        while j < len(lines) and not FENCE.match(lines[j]):
            j += 1
        if j == len(lines):
            yield intro, match.group(1), None
            return
        k = j + 1
        while k < len(lines) and not FENCE.match(lines[k]):
            k += 1
        yield intro, match.group(1), "\n".join(lines[j + 1:k])
        i = k + 1


def check(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    errors = []
    for intro, golden, block in pinned_blocks(lines):
        where = f"{path}:{intro}"
        if block is None:
            errors.append(f"{where}: pinned to {golden} but no fenced block "
                          "follows")
            continue
        try:
            with open(golden, encoding="utf-8") as f:
                expected = f.read()
        except OSError as e:
            errors.append(f"{where}: cannot read {golden}: {e.strerror}")
            continue
        if expected.endswith("\n"):
            expected = expected[:-1]
        if block == expected:
            continue
        got, want = block.split("\n"), expected.split("\n")
        for n, (a, b) in enumerate(zip(got, want)):
            if a != b:
                errors.append(f"{where}: differs from {golden} at block line "
                              f"{n + 1}: doc {a!r}, golden {b!r}")
                break
        else:
            errors.append(f"{where}: differs from {golden}: doc block has "
                          f"{len(got)} lines, golden {len(want)}")
    return errors


def main(argv):
    paths = argv[1:] or sorted(p for pattern in DEFAULT_DOCS
                               for p in glob.glob(pattern))
    errors = [e for p in paths for e in check(p)]
    for e in errors:
        print(e)
    print(f"check_transcripts: {len(paths)} files, {len(errors)} stale "
          "pinned transcripts")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
