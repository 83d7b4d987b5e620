"""Comment/string-aware lexing layer for erapid_analyze.py.

Every rule sees C++ through this module: raw lines for reporting, "code
lines" with comments and string/char literals blanked out for rule
matching, and in-place suppression comments:

    // erapid-analyze: allow(<rule>[, <rule>...])       -- this line and the next
    // erapid-analyze: allow-file(<rule>[, <rule>...])  -- the whole file
"""

from __future__ import annotations

import re
from pathlib import Path

HEADER_SUFFIXES = (".hpp", ".h")
SOURCE_SUFFIXES = (".cpp", ".cc", ".cxx")
CXX_SUFFIXES = HEADER_SUFFIXES + SOURCE_SUFFIXES


def strip_comments_and_strings(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Blanks out string/char literals, // and /* */ comments (tracking block
    state across lines) so rules never fire inside them."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is a line comment
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(quote)
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


_RULE_LIST = r"([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)"
SUPPRESS_LINE_RE = re.compile(rf"//\s*erapid-analyze:\s*allow\({_RULE_LIST}\)")
SUPPRESS_FILE_RE = re.compile(rf"//\s*erapid-analyze:\s*allow-file\({_RULE_LIST}\)")


class SourceFile:
    """One lexed C++ file: raw lines, comment/string-stripped code lines,
    and the suppressions it declares."""

    def __init__(self, path: Path, text: str):
        self.path = path
        self.raw_lines = text.splitlines()
        self.code_lines: list[str] = []
        # rule -> line numbers it is suppressed on; "*" key never used.
        self.suppressed: dict[str, set[int]] = {}
        self.file_suppressed: set[str] = set()
        in_block = False
        for lineno, raw in enumerate(self.raw_lines, 1):
            for m in SUPPRESS_LINE_RE.finditer(raw):
                for rule in re.split(r"\s*,\s*", m.group(1)):
                    # A suppression covers its own line and the next line
                    # (so a comment line above the flagged code works).
                    self.suppressed.setdefault(rule, set()).update((lineno, lineno + 1))
            for m in SUPPRESS_FILE_RE.finditer(raw):
                for rule in re.split(r"\s*,\s*", m.group(1)):
                    self.file_suppressed.add(rule)
            code, in_block = strip_comments_and_strings(raw, in_block)
            self.code_lines.append(code)

    @property
    def is_header(self) -> bool:
        return self.path.suffix in HEADER_SUFFIXES

    def raw(self, lineno: int) -> str:
        return self.raw_lines[lineno - 1] if 0 < lineno <= len(self.raw_lines) else ""

    def is_suppressed(self, rule: str, lineno: int) -> bool:
        if rule in self.file_suppressed:
            return True
        return lineno in self.suppressed.get(rule, ())

    @classmethod
    def read(cls, path: Path) -> "SourceFile":
        return cls(path, path.read_text(encoding="utf-8", errors="replace"))
