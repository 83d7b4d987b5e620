#!/usr/bin/env python3
"""erapid-analyze — project-wide static-analysis suite for the E-RAPID
simulator.

erapid-analyze is the project gate: it lexes every translation unit once
(comment/string-aware), builds a per-file declaration index and the
project include graph, and runs four rule families over them:

  contract   contract-coverage   public mutating methods in the contracted
                                 modules (src/{des,reconfig,optical,power,
                                 fault}) must carry an ERAPID_REQUIRE /
                                 ERAPID_EXPECT / ERAPID_INVARIANT; coverage
                                 is ratcheted per module via the baseline.
  units      unit-mix            raw arithmetic mixing cycle / ns / ps /
                                 mW / Gb/s suffixed identifiers.
             unit-param          unit-suffixed argument passed to a
                                 parameter of a different unit domain.
  det        unordered-container std::unordered_* declared, used or included.
             iter-unordered      range-for over an unordered container.
             nondet-source       wall-clock / environmental entropy.
             pointer-order       raw pointer values as an ordering key.
             uninit-member       scalar struct member with no initializer.
             enum-switch-default enum-class switch that falls through
                                 silently on an unmodeled value.
             float-accum         float accumulator in a reduction loop.
  hygiene    pragma-once         missing #pragma once (fixable, --fix).
             include-cycle       cycle in the quoted-include graph.
             std-include         header uses a std:: symbol without
                                 directly including its standard header.

Suppressions:

    // erapid-analyze: allow(<rule>[, <rule>...])       line + next line
    // erapid-analyze: allow-file(<rule>[, <rule>...])  whole file

Baseline gating: findings whose fingerprint is recorded in the committed
baseline (tools/analyze/baseline.json) report as [baselined] and do not
fail the gate; anything new fails. --update-baseline re-records the
baseline (refusing to lower a contract-coverage ratchet).

Exit status: 0 clean (or fully baselined), 1 findings / ratchet violation,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import rules_contract  # noqa: E402
import rules_det  # noqa: E402
import rules_hygiene  # noqa: E402
import rules_units  # noqa: E402
from baseline import Baseline  # noqa: E402
from cpp_lexer import CXX_SUFFIXES, SourceFile  # noqa: E402
from decl_index import FileIndex, build_index  # noqa: E402
from findings import FAMILIES, Finding, RULES  # noqa: E402
from sarif import write_sarif  # noqa: E402


def collect_files(roots: list[Path]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root.resolve())
        else:
            files.extend(p.resolve() for p in sorted(root.rglob("*"))
                         if p.suffix in CXX_SUFFIXES)
    # De-duplicate while preserving first-seen order.
    seen: set[Path] = set()
    out = []
    for f in files:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def build_indexes(files: list[Path]) -> dict[Path, FileIndex]:
    indexes: dict[Path, FileIndex] = {}
    for path in files:
        try:
            sf = SourceFile.read(path)
        except OSError as e:
            print(f"erapid-analyze: cannot read {path}: {e}", file=sys.stderr)
            continue
        indexes[path] = build_index(sf)
    return indexes


def resolve_rules(spec: str) -> tuple[set[str] | None, str | None]:
    """Expands a comma list of rule ids and/or family names. Returns
    (rules, error)."""
    requested = [r.strip() for r in spec.split(",")]
    requested = [r for r in requested if r]
    if not requested:
        return None, "empty rule selection (use --list-rules to see rule names)"
    rules: set[str] = set()
    for item in requested:
        if item in RULES:
            rules.add(item)
        elif item in FAMILIES:
            rules.update(r.id for r in RULES.values() if r.family == item)
        else:
            return None, f"unknown rule or family: {item!r}"
    return rules, None


def analyze(indexes: dict[Path, FileIndex], root: Path, rules: set[str],
            contract_modules: tuple[str, ...], include_roots: list[Path],
            ) -> tuple[list[Finding], dict[str, rules_contract.ModuleCoverage]]:
    findings: list[Finding] = []
    coverage: dict[str, rules_contract.ModuleCoverage] = {}
    if "contract-coverage" in rules:
        contract_findings, coverage = rules_contract.run(indexes, root, contract_modules)
        findings.extend(contract_findings)
    if rules & {"unit-mix", "unit-param"}:
        findings.extend(rules_units.run(indexes, root))
    if any(RULES[r].family == "det" for r in rules):
        findings.extend(rules_det.run(indexes, root))
    if rules & {"pragma-once", "include-cycle", "std-include"}:
        findings.extend(rules_hygiene.run(indexes, root, include_roots))
    findings = [f for f in findings if f.rule in rules]
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings, coverage


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="erapid_analyze.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories to analyze")
    ap.add_argument("--root", type=Path, default=Path.cwd(),
                    help="project root for relative paths/fingerprints (default: cwd)")
    ap.add_argument("--rules", default=",".join(sorted(RULES)),
                    help="comma-separated rule ids and/or families (default: all)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule table and exit")
    ap.add_argument("--json", metavar="FILE", help="write a machine-readable report")
    ap.add_argument("--sarif", metavar="FILE", help="write a SARIF 2.1.0 report")
    ap.add_argument("--baseline", metavar="FILE", type=Path,
                    help="baseline file for gating (tools/analyze/baseline.json)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="re-record the baseline from this run's findings")
    ap.add_argument("--fix", action="store_true",
                    help="auto-fix mechanical findings (pragma-once) in place")
    ap.add_argument("--contract-modules",
                    default=",".join(rules_contract.DEFAULT_MODULES),
                    help="path components treated as contracted modules")
    args = ap.parse_args(argv)

    if args.list_rules:
        width = max(len(r) for r in RULES)
        for rid in sorted(RULES):
            r = RULES[rid]
            fixable = " [fixable]" if r.fixable else ""
            print(f"{rid:<{width}}  ({r.family}){fixable}  {r.short}")
        return 0

    if not args.paths:
        print("erapid-analyze: no paths given", file=sys.stderr)
        return 2
    rules, err = resolve_rules(args.rules)
    if err:
        print(f"erapid-analyze: {err}", file=sys.stderr)
        return 2
    contract_modules = tuple(m.strip() for m in args.contract_modules.split(",") if m.strip())

    root = args.root.resolve()
    scan_roots = [Path(p) for p in args.paths]
    files = collect_files(scan_roots)
    indexes = build_indexes(files)
    include_roots = [p.resolve() for p in scan_roots if p.is_dir()]
    include_roots += [root / "src", root]

    if args.fix:
        fixed = 0
        for path in sorted(indexes):
            idx = indexes[path]
            if idx.sf.is_header and "pragma-once" in rules \
                    and rules_hygiene.pragma_once_finding(idx, path) is not None:
                if rules_hygiene.fix_pragma_once(path, idx):
                    print(f"fixed: {path}: inserted #pragma once")
                    fixed += 1
                    indexes[path] = build_index(SourceFile.read(path))
        if fixed:
            print(f"erapid-analyze: fixed {fixed} file(s)")

    findings, coverage = analyze(indexes, root, rules, contract_modules, include_roots)

    base = Baseline.empty()
    if args.baseline and args.baseline.exists():
        try:
            base = Baseline.load(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"erapid-analyze: bad baseline: {e}", file=sys.stderr)
            return 2
    base.apply(findings, root)

    if args.update_baseline:
        if not args.baseline:
            print("erapid-analyze: --update-baseline requires --baseline", file=sys.stderr)
            return 2
        errors = base.update(findings, coverage, root, args.baseline)
        if errors:
            for e in errors:
                print(f"erapid-analyze: {e}", file=sys.stderr)
            return 1
        print(f"erapid-analyze: baseline updated ({len(findings)} finding(s) recorded)")
        return 0

    ratchet_errors = base.ratchet_violations(coverage) if "contract-coverage" in rules else []

    for f in findings:
        print(f.render(root))
    if coverage:
        print("contract coverage (public mutating methods with contracts):")
        for module in sorted(coverage):
            c = coverage[module]
            print(f"  {module:<10} {c.contracted}/{c.considered}  ({c.ratio:.1%})")
    for e in ratchet_errors:
        print(f"erapid-analyze: RATCHET: {e}", file=sys.stderr)

    if args.json:
        report = {
            "tool": "erapid-analyze",
            "rules": sorted(rules),
            "finding_count": len(findings),
            "new_finding_count": sum(1 for f in findings if not f.baselined),
            "findings": [f.as_dict(root) for f in findings],
            "contract_coverage": {
                m: {"contracted": c.contracted, "considered": c.considered,
                    "ratio": c.ratio, "uncontracted": c.uncontracted}
                for m, c in sorted(coverage.items())
            },
            "ratchet_violations": ratchet_errors,
        }
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if args.sarif:
        write_sarif(findings, root, Path(args.sarif))

    new = [f for f in findings if not f.baselined]
    if new or ratchet_errors:
        print(f"erapid-analyze: {len(new)} new finding(s), "
              f"{len(findings) - len(new)} baselined, "
              f"{len(ratchet_errors)} ratchet violation(s)", file=sys.stderr)
        return 1
    if findings:
        print(f"erapid-analyze: clean ({len(findings)} baselined finding(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
