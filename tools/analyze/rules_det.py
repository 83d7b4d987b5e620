"""Determinism rules — the classic discrete-event-simulation hazards that
break same-seed byte-identical runs.

  unordered-container  declaration/use (or header include) of
                       std::unordered_{map,set,multimap,multiset}.
                       Iteration order is libstdc++-internal, and runs
                       diverge the moment anyone iterates.

  iter-unordered       range-for over a container this file declared as
                       std::unordered_* (directly or through a using-alias):
                       the iteration site itself, which is where the
                       nondeterminism actually escapes into output.

  nondet-source        wall-clock / environmental entropy in model code:
                       std::rand, srand, std::random_device, time(),
                       gettimeofday, clock(), std::chrono::{system,steady,
                       high_resolution}_clock. Model code draws randomness
                       only from the seeded erapid::util RNG and reads time
                       only from des::Engine::now().

  pointer-order        pointer values used as ordering keys: an ordered
                       associative container or std::less keyed by a raw
                       pointer (directly or through a using-alias), or a
                       comparator lambda that orders two raw pointers by
                       value. Heap addresses differ run to run (ASLR).

  uninit-member        scalar (arithmetic / pointer) struct member without
                       a default initializer in a header. An uninitialized
                       config/message field reads stack garbage, and the
                       nondeterminism shows up far downstream.

  enum-switch-default  a switch over scoped enumerators with neither a
                       `default:` label nor an ERAPID_UNREACHABLE right
                       after the switch: an unmodeled (e.g. message-carried)
                       value must fail loudly, not fall through silently.

  float-accum          a 32-bit float accumulator updated with += (or
                       ``x = x + ...``) inside a for/while loop. Float
                       rounding makes the reduction order-sensitive;
                       accumulate in double and narrow at the edge.
"""

from __future__ import annotations

import re
from pathlib import Path

from decl_index import FileIndex
from findings import Finding

RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*?:\s*([^)]+)\)")
LOOP_HEADER_RE = re.compile(r"\b(?:for|while)\s*\(")
ACCUM_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\+=")
SELF_ADD_RE = re.compile(r"\b([A-Za-z_]\w*)\s*=\s*\1\s*\+")

UNORDERED_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b")
UNORDERED_HEADER_RE = re.compile(r"<unordered_(?:map|set)>")

NONDET_SOURCE_RES = (
    re.compile(r"\bstd::rand\b|(?<![\w:])s?rand\s*\("),
    re.compile(r"\bstd::random_device\b|(?<![\w:])random_device\b"),
    re.compile(r"(?<![\w:.])time\s*\(|\bstd::time\b"),
    re.compile(r"\bgettimeofday\b"),
    re.compile(r"(?<![\w:.])clock\s*\(\s*\)"),
    re.compile(r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b"),
)

# std::map/std::set/std::less whose key type is a raw pointer:
#   std::map<Foo*, ...>, std::set<const Bar *>, std::less<T*>
PTR_KEY_RE = re.compile(
    r"\bstd::(?:map|set|multimap|multiset|less)\s*<\s*(?:const\s+)?[\w:]+\s*\*")
# A comparator lambda over two raw pointers: [...](T* a, T* b) { ... a < b ... }
PTR_CMP_LAMBDA_RE = re.compile(
    r"\[[^\]]*\]\s*\(\s*(?:const\s+)?[\w:]+\s*\*\s*(\w+)\s*,"
    r"\s*(?:const\s+)?[\w:]+\s*\*\s*(\w+)\s*\)")

# Scalar member declarations that need an initializer, e.g.
#   double x;   std::uint32_t n;   bool b;   Cycle when;   Foo* p;
SCALAR_TYPES = (
    r"bool|char|short|int|long|float|double|(?:un)?signed(?:\s+\w+)*|std::size_t|"
    r"std::u?int(?:8|16|32|64)_t|size_t|u?int(?:8|16|32|64)_t|"
    r"Cycle|CycleDelta|PacketSeq"
)
UNINIT_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?(?:" + SCALAR_TYPES
    + r")\s+\w+(?:\s*,\s*\w+)*\s*;\s*(?:///?.*)?$")
UNINIT_PTR_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?[\w:]+(?:\s*<[^;=]*>)?\s*\*\s*\w+\s*;\s*(?:///?.*)?$")
AGGREGATE_HEAD_RE = re.compile(r"(?:template\s*<[^>]*>\s*)?(?:struct|class)\s+\w+")

SWITCH_RE = re.compile(r"(?<!\w)switch\s*\(")
CASE_SCOPED_RE = re.compile(r"\bcase\s+[\w:]+::\w+\s*:")
DEFAULT_RE = re.compile(r"(?<!\w)default\s*:")
UNREACHABLE_AFTER_RE = re.compile(r"ERAPID_UNREACHABLE|__builtin_unreachable|std::unreachable")

UNORDERED_MSG = ("unordered container; iteration order is nondeterministic — "
                 "use std::map/std::set or an index-keyed vector")
NONDET_MSG = ("wall-clock / environmental entropy in model code — draw "
              "randomness from the seeded RNG and time from Engine::now()")
PTR_KEY_MSG = ("ordered container/comparator keyed by a raw pointer — "
               "heap addresses vary run to run; key by a stable id")
PTR_CMP_MSG = ("comparator orders raw pointer values — compare a stable "
               "field (id, key) instead")
UNINIT_MSG = ("scalar member without a default initializer — a default-"
              "constructed instance reads garbage; add `= 0` / `{}` / `= nullptr`")
SWITCH_MSG = ("enum-class switch with no `default:` and no trailing "
              "ERAPID_UNREACHABLE — an unmodeled value falls through silently")


def _base_ident(expr: str) -> str | None:
    """Base identifier of a range expression: `m`, `foo.bar()` -> bar,
    `*p` -> p."""
    idents = re.findall(r"[A-Za-z_]\w*", expr)
    return idents[-1] if idents else None


def _line_hazards(code: str) -> list[tuple[str, str]]:
    """(rule, message) for the single-line hazards on one code line."""
    if "#include" in code:
        if UNORDERED_RE.search(code) or UNORDERED_HEADER_RE.search(code):
            return [("unordered-container", "unordered container header included; "
                     "iteration order is nondeterministic — use std::map/std::set "
                     "or an index-keyed vector")]
        return []
    out = []
    if UNORDERED_RE.search(code):
        out.append(("unordered-container", UNORDERED_MSG))
    if any(rx.search(code) for rx in NONDET_SOURCE_RES):
        out.append(("nondet-source", NONDET_MSG))
    if PTR_KEY_RE.search(code):
        out.append(("pointer-order", PTR_KEY_MSG))
    else:
        m = PTR_CMP_LAMBDA_RE.search(code)
        if m:
            a, b = map(re.escape, m.groups())
            if re.search(rf"\b{a}\s*<\s*{b}\b|\b{b}\s*<\s*{a}\b", code[m.end():]):
                out.append(("pointer-order", PTR_CMP_MSG))
    return out


def _uninit_member_lines(code_lines: list[str]) -> list[int]:
    """Lines declaring a scalar member with no initializer directly inside
    a struct body (class bodies are exempt: a constructor owns them)."""
    out = []
    depth = 0
    struct_depths: list[int] = []
    # Set once a struct/class head is seen: True for struct, False for
    # class; cleared by the body's '{' or a forward declaration's ';'.
    pending_struct: bool | None = None
    for lineno, code in enumerate(code_lines, 1):
        stripped = code.strip()
        head = AGGREGATE_HEAD_RE.match(stripped)
        decl = stripped.split("{")[0]
        if head and ";" not in decl:
            pending_struct = stripped.startswith("struct") or "struct " in decl
        if struct_depths and depth == struct_depths[-1] and not head \
                and (UNINIT_MEMBER_RE.match(code) or UNINIT_PTR_MEMBER_RE.match(code)) \
                and not any(k in code for k in ("static", "constexpr", "using")):
            out.append(lineno)
        for ch in code:
            if ch == "{":
                depth += 1
                if pending_struct is not None:
                    if pending_struct:
                        struct_depths.append(depth)
                    pending_struct = None
            elif ch == "}":
                if struct_depths and depth == struct_depths[-1]:
                    struct_depths.pop()
                depth -= 1
        if pending_struct is not None and ";" in code:
            pending_struct = None
    return out


def _silent_switch_lines(code_lines: list[str]) -> list[int]:
    """Lines opening an enum-class switch with no `default:` and no
    ERAPID_UNREACHABLE within two lines after its closing brace (the form
    that keeps -Wswitch exhaustiveness and still fails loudly)."""
    out = []
    n = len(code_lines)
    for lineno, code in enumerate(code_lines, 1):
        m = SWITCH_RE.search(code)
        if not m:
            continue
        # Body: from the first '{' at or after `switch` to its match.
        depth = 0
        started = False
        end_line = None
        body: list[str] = []
        i, col = lineno - 1, m.start()
        while i < n and end_line is None:
            line = code_lines[i]
            for ch in line[col:]:
                if ch == "{":
                    depth += 1
                    started = True
                elif ch == "}":
                    depth -= 1
                    if started and depth == 0:
                        end_line = i
                        break
            if end_line is None:
                body.append(line)
                i, col = i + 1, 0
        if end_line is None:
            continue
        body_text = "\n".join(body[1:] + [code_lines[end_line]])
        if not CASE_SCOPED_RE.search(body_text) or DEFAULT_RE.search(body_text):
            continue
        if UNREACHABLE_AFTER_RE.search("\n".join(code_lines[end_line:end_line + 3])):
            continue
        out.append(lineno)
    return out


def run_file(idx: FileIndex, path: Path) -> list[Finding]:
    out: list[Finding] = []
    sf = idx.sf

    def emit(rule: str, lineno: int, message: str) -> None:
        if not sf.is_suppressed(rule, lineno):
            out.append(Finding(rule=rule, path=path, line=lineno,
                                message=message, snippet=sf.raw(lineno)))

    # Loop-context tracking for float-accum: a stack of open braces, each
    # flagged if it opened a for/while body.
    brace_is_loop: list[bool] = []
    pending_loop = False

    for lineno, code in enumerate(sf.code_lines, 1):
        for rule, message in _line_hazards(code):
            emit(rule, lineno, message)

        if LOOP_HEADER_RE.search(code):
            pending_loop = True

        m = RANGE_FOR_RE.search(code)
        if m:
            base = _base_ident(m.group(1))
            if base and (base in idx.unordered_names or base + "_" in idx.unordered_names):
                emit("iter-unordered", lineno,
                     f"range-for over unordered container `{base}` — iteration "
                     "order is nondeterministic; use std::map/std::set or "
                     "iterate a sorted index")

        in_loop = any(brace_is_loop) or pending_loop
        if in_loop and idx.float_names:
            for rx in (ACCUM_RE, SELF_ADD_RE):
                am = rx.search(code)
                if am and am.group(1) in idx.float_names:
                    emit("float-accum", lineno,
                         f"float accumulator `{am.group(1)}` in a loop — 32-bit "
                         "rounding makes the reduction order-sensitive; "
                         "accumulate in double")
                    break

        for ch in code:
            if ch == "{":
                brace_is_loop.append(pending_loop)
                pending_loop = False
            elif ch == "}":
                if brace_is_loop:
                    brace_is_loop.pop()
        if pending_loop and ";" in code and "{" not in code:
            pending_loop = False  # single-statement loop body

    if sf.is_header:
        for lineno in _uninit_member_lines(sf.code_lines):
            emit("uninit-member", lineno, UNINIT_MSG)
    for lineno in _silent_switch_lines(sf.code_lines):
        emit("enum-switch-default", lineno, SWITCH_MSG)
    return out


def run(indexes: dict[Path, FileIndex], root: Path) -> list[Finding]:
    del root
    out: list[Finding] = []
    for path in sorted(indexes):
        out.extend(run_file(indexes[path], path))
    return out
