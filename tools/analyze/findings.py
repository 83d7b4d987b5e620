"""Finding model and rule registry shared by every erapid_analyze pass."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Rule:
    id: str
    family: str          # contract | units | det | hygiene
    level: str           # SARIF level: "warning" | "note"
    short: str           # one-line description (SARIF shortDescription)
    fixable: bool = False


RULES: dict[str, Rule] = {r.id: r for r in (
    Rule("contract-coverage", "contract", "note",
         "Public mutating method in a contracted module with no "
         "ERAPID_REQUIRE/ERAPID_EXPECT/ERAPID_INVARIANT in its body"),
    Rule("unit-mix", "units", "warning",
         "Arithmetic or comparison mixing identifiers from different unit "
         "domains (cycles / ns / ps / mW / Gb/s) without a conversion"),
    Rule("unit-param", "units", "warning",
         "Call passes a unit-suffixed identifier to a parameter declared "
         "with a different unit suffix"),
    Rule("unordered-container", "det", "warning",
         "Declaration, use or header include of a std::unordered_* "
         "container; iteration order is nondeterministic"),
    Rule("iter-unordered", "det", "warning",
         "Range-for over an unordered container; iteration order is "
         "nondeterministic and will leak into output"),
    Rule("nondet-source", "det", "warning",
         "Wall-clock or environmental entropy (rand, random_device, time, "
         "clock, std::chrono clocks) in model code"),
    Rule("pointer-order", "det", "warning",
         "Raw pointer values used as an ordering key: pointer-keyed ordered "
         "container or std::less, or a comparator lambda comparing two "
         "pointers; heap addresses vary run to run"),
    Rule("uninit-member", "det", "warning",
         "Scalar struct member in a header without a default initializer"),
    Rule("enum-switch-default", "det", "warning",
         "Enum-class switch with no default: and no trailing "
         "ERAPID_UNREACHABLE; an unmodeled value falls through silently"),
    Rule("float-accum", "det", "warning",
         "32-bit float accumulator in a reduction loop; rounding makes the "
         "sum order-sensitive — accumulate in double"),
    Rule("pragma-once", "hygiene", "warning",
         "Header without #pragma once", fixable=True),
    Rule("include-cycle", "hygiene", "warning",
         "Cycle in the quoted-include graph"),
    Rule("std-include", "hygiene", "warning",
         "Header uses a std:: symbol without directly including the "
         "standard header that provides it"),
)}

FAMILIES = tuple(sorted({r.family for r in RULES.values()}))


@dataclass
class Finding:
    rule: str
    path: Path
    line: int
    message: str
    snippet: str = ""
    # Extra stable token folded into the fingerprint (e.g. Class::method for
    # contract-coverage) so findings survive unrelated line drift.
    anchor: str = ""
    baselined: bool = field(default=False, compare=False)

    def rel(self, root: Path) -> str:
        try:
            return self.path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return self.path.as_posix()

    def fingerprint(self, root: Path) -> str:
        basis = self.anchor if self.anchor else " ".join(self.snippet.split())
        digest = hashlib.sha256(
            f"{self.rule}|{self.rel(root)}|{basis}".encode()).hexdigest()[:16]
        return digest

    def as_dict(self, root: Path) -> dict:
        return {
            "rule": self.rule,
            "file": self.rel(root),
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet.strip(),
            "fingerprint": self.fingerprint(root),
            "baselined": self.baselined,
        }

    def render(self, root: Path) -> str:
        mark = " [baselined]" if self.baselined else ""
        return (f"{self.rel(root)}:{self.line}: [{self.rule}]{mark} {self.message}\n"
                f"    {self.snippet.strip()}")
