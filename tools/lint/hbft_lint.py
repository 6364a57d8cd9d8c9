#!/usr/bin/env python3
"""hbft_lint: repo-specific static analysis for the hbft tree.

The whole reproduction rests on two invariants the compiler cannot see:

  * Deterministic replay. The paper's HA protocol — and our same-seed fleet
    fingerprints — only work if no wall-clock, ambient randomness, or
    address-ordered state leaks into the simulation. Anything inside src/
    that consults the host (time, rand, pointer ordering, hash-table
    iteration order) silently breaks lockstep.

  * Snapshot completeness. PR 5's live state transfer silently corrupts a
    rejoined backup if a later PR adds a mutable member that `Snapshotable`
    never serializes. The same holds for the wire codecs: a Serialize whose
    Deserialize reads a different field sequence misparses canonically-valid
    bytes.

This tool turns both into build-time failures. Three checks:

  1. determinism  — ban nondeterminism sources in src/:
       wall-clock           system/steady/high_resolution clock, time(),
                            gettimeofday, clock_gettime, localtime, ...
       ambient-rand         rand()/srand(), std::random_device,
                            std::default_random_engine, /dev/urandom
       unordered-container  declaring std::unordered_* (iteration order is
                            address-seeded; declare std::map/std::set, or
                            suppress as lookup-only)
       unordered-iteration  iterating a container the file declared
                            unordered (fires even under a suppressed
                            declaration: lookup-only means lookup only)
       pointer-keyed        std::map/std::set keyed on a pointer type, or
                            std::hash over a pointer (address order leaks
                            into iteration/comparison)
       thread-id            std::this_thread::get_id (a scheduling-dependent
                            value; nothing deterministic may branch on it)
       thread-spawn         std::thread/std::jthread creation outside the
                            fleet's WorkerPool (fleet/worker_pool.*, which
                            carries a reasoned allow-file) — parallelism in
                            src/ goes through the pool's static sharding +
                            round barrier or not at all
                            (std::thread::hardware_concurrency is a plain
                            host query and does not trip the rule)
       detached-thread      .detach() — a detached thread outlives every
                            barrier and cannot be joined deterministically
       thread-state         thread_local declarations; additionally flags a
                            thread_local name referenced inside a
                            Capture*/Restore*/Serialize/Deserialize body
                            (per-thread state must never feed snapshots or
                            fingerprints; the logging capture sink carries
                            the one reasoned allow)

  2. snapshot completeness (snapshot-field) — for every class implementing
     `Snapshotable` (or declaring the CaptureState/RestoreState pair), diff
     its non-static data members against the identifiers referenced by its
     Capture*/Restore* methods (including same-class helpers they call,
     transitively). A member that appears in neither is state the snapshot
     forgets — exactly the live-transfer corruption class. Members of
     class-local structs named by a member's type are expanded one level, so
     deleting a single `w.U32(state_.reg_x)` write is caught even though
     `state_` itself is still referenced.

  3. codec symmetry (codec-symmetry) — for paired Serialize/Deserialize and
     Capture<X>/Restore<X> functions, flatten each body into its sequence of
     fixed-width reads/writes (U8/U32/U64/blob/nested-codec calls) and
     require the two sequences to match element for element. Loops and
     branches flatten identically when the codec is symmetric; a skipped,
     reordered, or wrong-width field is a first-divergence error.

Suppressions (each requires a reason):

    // hbft-lint: allow(<rule>) — <reason>         same line or line above
    // hbft-lint: allow-file(<rule>) — <reason>    whole file
    // hbft-lint: derived-state — <reason>         member is rebuilt, not
                                                   serialized (caches etc.)

The analyzer is a dependency-free C++ tokenizer (this file).

Usage:
    tools/lint/hbft_lint.py [--root DIR] [paths...]     # default: src
    tools/lint/hbft_lint.py --list-rules
Exit status: 0 clean, 1 violations, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

RULES = {
    "wall-clock": "host wall-clock source inside the deterministic tree",
    "ambient-rand": "ambient (non-seeded) randomness source",
    "unordered-container": "std::unordered_* declared (address-seeded iteration order)",
    "unordered-iteration": "iteration over an unordered container",
    "pointer-keyed": "container keyed or hashed by pointer value (address order)",
    "thread-id": "std::this_thread::get_id (scheduling-dependent value)",
    "thread-spawn": "thread creation outside the fleet worker pool",
    "detached-thread": "detached thread (outlives every deterministic barrier)",
    "thread-state": "thread_local state (must never feed snapshots/fingerprints)",
    "snapshot-field": "data member never touched by Capture*/Restore* methods",
    "codec-symmetry": "Serialize/Deserialize (or Capture/Restore) field sequences differ",
    "bad-suppression": "malformed hbft-lint annotation",
}

# Files/directories (relative to the scan root) that legitimately touch the
# wall clock: the realtime pacing layer and the socket frontend run at wall
# pace by design. They still carry explicit allow() annotations; this list
# only documents the intent in one place for `--list-rules` readers.
WALL_CLOCK_LAYERS = ("sim/realtime_pump", "serve/")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Lexing: blank comments and literals in place (offsets and line numbers are
# preserved), keep the comment text separately for annotation lookup.
# ---------------------------------------------------------------------------

def blank_span(chars, start, end):
    for i in range(start, end):
        if chars[i] != "\n":
            chars[i] = " "


def lex(text):
    """Returns (code, comments) where `code` is `text` with comments and
    string/char literal contents replaced by spaces, and `comments` maps
    line number -> concatenated comment text on that line."""
    chars = list(text)
    comments = {}
    i, n, line = 0, len(text), 1

    def note_comment(s, e, at_line):
        body = text[s:e]
        for off, part in enumerate(body.split("\n")):
            if part.strip():
                comments.setdefault(at_line + off, []).append(part)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            note_comment(i, j, line)
            blank_span(chars, i, j)
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            note_comment(i, j, line)
            line += text.count("\n", i, j)
            blank_span(chars, i, j)
            i = j
        elif c == '"':
            # Raw string?
            if i >= 1 and text[i - 1] == "R":
                m = re.match(r'R"([^(]*)\(', text[i - 1:])
                if m:
                    delim = ")" + m.group(1) + '"'
                    j = text.find(delim, i + 1)
                    j = n if j == -1 else j + len(delim)
                    line += text.count("\n", i, j)
                    blank_span(chars, i + 1, j - 1)
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            blank_span(chars, i + 1, j - 1)
            i = j
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            blank_span(chars, i + 1, j - 1)
            i = j
        else:
            i += 1
    return "".join(chars), {ln: " ".join(parts) for ln, parts in comments.items()}


SUPPRESS_RE = re.compile(r"hbft-lint:\s*(allow|allow-file)\(([a-z-]+)\)\s*(.*)")
DERIVED_RE = re.compile(r"hbft-lint:\s*derived-state\b\s*(.*)")


class Suppressions:
    """Parses hbft-lint annotations out of a file's comments."""

    def __init__(self, path, comments, violations):
        self.line_rules = {}   # line -> set of rules allowed on that line
        self.file_rules = set()
        self.derived_lines = set()
        self.comment_lines = set(comments)
        for line, comment in sorted(comments.items()):
            for m in SUPPRESS_RE.finditer(comment):
                kind, rule, reason = m.group(1), m.group(2), m.group(3)
                if rule not in RULES:
                    violations.append(Violation(
                        path, line, "bad-suppression",
                        f"allow() names unknown rule '{rule}'"))
                    continue
                if not re.search(r"[—:-]\s*\S", reason):
                    violations.append(Violation(
                        path, line, "bad-suppression",
                        f"allow({rule}) must carry a reason: "
                        f"// hbft-lint: {kind}({rule}) — <why>"))
                    continue
                if kind == "allow-file":
                    self.file_rules.add(rule)
                else:
                    self.line_rules.setdefault(line, set()).add(rule)
            m = DERIVED_RE.search(comment)
            if m:
                self.derived_lines.add(line)

    def _covering(self, line):
        """The annotation scope for `line`: the line itself plus the
        contiguous block of comment-bearing lines immediately above it."""
        yield line
        above = line - 1
        while above in self.comment_lines:
            yield above
            above -= 1

    def allows(self, rule, line):
        if rule in self.file_rules:
            return True
        return any(rule in self.line_rules.get(at, ()) for at in self._covering(line))

    def derived(self, line):
        return any(at in self.derived_lines for at in self._covering(line))


def line_of(code, offset):
    return code.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# Check 1: determinism.
# ---------------------------------------------------------------------------

# (rule, regex, human message). Patterns run over comment/string-blanked code.
_CALL_GUARD = r"(?<![\w.:>])"  # not a member/qualified/suffixed name
DETERMINISM_PATTERNS = [
    ("wall-clock", re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "std::chrono wall clock"),
    # Bare time()/clock() calls: only in expression context (preceded by an
    # operator, delimiter, or `return`), so methods *named* clock()/time()
    # don't trip the rule at their declaration site.
    ("wall-clock", re.compile(r"(?:[=(,{;!&|+\-*/%<?]\s*|(?<!-)>\s*|(?<!:):\s*|\breturn\s+)"
                              r"(?:std\s*::\s*)?(time|clock)\s*\(\s*(?:nullptr|NULL|0)?\s*\)"),
     "C wall clock call"),
    ("wall-clock", re.compile(r"\b(?:gettimeofday|clock_gettime|timespec_get|localtime|localtime_r|gmtime|gmtime_r|mktime|ftime)\b"),
     "POSIX wall clock"),
    ("ambient-rand", re.compile(_CALL_GUARD + r"(?:rand|srand|random|srandom|drand48|lrand48|mrand48)\s*\("),
     "libc random source"),
    ("ambient-rand", re.compile(r"\b(?:random_device|default_random_engine)\b"),
     "non-seeded std random source"),
    ("ambient-rand", re.compile(r"/dev/u?random"),
     "kernel random source"),
    ("unordered-container", re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
     "address-seeded container"),
    ("pointer-keyed", re.compile(r"\bstd::(?:map|set|multimap|multiset)\s*<\s*[\w:]+(?:\s*<[^<>]*>)?\s*\*"),
     "pointer-keyed ordered container"),
    ("pointer-keyed", re.compile(r"\bstd::hash\s*<[^>]*\*\s*>"),
     "pointer-value hashing"),
    ("thread-id", re.compile(r"\bthis_thread\s*::\s*get_id\b"),
     "scheduling-dependent thread id"),
    # std::thread::hardware_concurrency is a plain host-capability query
    # (bench metadata) and std::thread::id a value type, not creation: the
    # lookahead exempts both.
    ("thread-spawn",
     re.compile(r"\bstd\s*::\s*(?:jthread\b|"
                r"thread\b(?!\s*::\s*(?:hardware_concurrency|id)\b))"),
     "thread creation outside fleet/worker_pool"),
    ("detached-thread", re.compile(r"\.\s*detach\s*\(\s*\)"),
     "detached thread"),
    ("thread-state", re.compile(r"\bthread_local\b"),
     "thread_local state"),
]

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")


def find_unordered_names(code):
    """Identifiers declared with an unordered container type in this file."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        # Skip the template argument list, then take the next identifier.
        i, depth = m.end() - 1, 0
        n = len(code)
        while i < n:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = code[i + 1:i + 200]
        dm = re.match(r"\s*[&*]*\s*>?\s*([A-Za-z_]\w*)", tail)
        if dm and dm.group(1) not in ("const",):
            names.add(dm.group(1))
    return names


def check_determinism(path, code, suppress, violations, raw_text):
    for lineno, _ in enumerate(code.split("\n"), start=1):
        pass  # (line splitting only needed per-match below)
    for rule, pattern, message in DETERMINISM_PATTERNS:
        scan_text = raw_text if "/dev/u" in pattern.pattern else code
        for m in pattern.finditer(scan_text):
            line = line_of(scan_text, m.start())
            # #include <unordered_map> is only a capability, not a use.
            line_text = scan_text.split("\n")[line - 1]
            if line_text.lstrip().startswith("#include"):
                continue
            if suppress.allows(rule, line):
                continue
            violations.append(Violation(
                path, line, rule, f"{message}: `{m.group(0).strip()}`"))

    # Iteration over containers this file declared unordered.
    for name in find_unordered_names(code):
        it_re = re.compile(
            r"for\s*\([^;()]*:\s*(?:\w+(?:\.|->))*" + re.escape(name) + r"\s*\)"
            r"|\b" + re.escape(name) + r"\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\(")
        for m in it_re.finditer(code):
            line = line_of(code, m.start())
            if suppress.allows("unordered-iteration", line):
                continue
            violations.append(Violation(
                path, line, "unordered-iteration",
                f"iteration over unordered container `{name}` "
                "(order is address-seeded; use an ordered container or "
                "sort a copy by a deterministic key)"))


THREAD_LOCAL_NAME_RE = re.compile(
    r"\bthread_local\b[^;={]*?([A-Za-z_]\w*)\s*(?:\{[^}]*\}|=[^;]*)?;")
CODEC_FN_HEAD_RE = re.compile(
    r"\b((?:Capture|Restore|Serialize|Deserialize)\w*)\s*\(")


def check_thread_state_codec(path, code, suppress, violations):
    """thread_local names referenced inside Capture*/Restore*/Serialize/
    Deserialize bodies: per-thread state leaking into Snapshotable bytes or
    fingerprint folds. Flagged even when the declaration itself carries an
    allow(thread-state) — the allow covers the variable's existence, not its
    reachability from snapshot/codec paths."""
    names = {m.group(1) for m in THREAD_LOCAL_NAME_RE.finditer(code)}
    if not names:
        return
    for m in CODEC_FN_HEAD_RE.finditer(code):
        # Locate the body's opening brace; a `;` first means a declaration.
        brace = code.find("{", m.end())
        semi = code.find(";", m.end())
        if brace == -1 or (semi != -1 and semi < brace):
            continue
        body_end = match_brace(code, brace)
        for name in names:
            for ref in re.finditer(r"\b" + re.escape(name) + r"\b",
                                   code[brace:body_end]):
                line = line_of(code, brace + ref.start())
                if suppress.allows("thread-state", line):
                    continue
                violations.append(Violation(
                    path, line, "thread-state",
                    f"thread_local `{name}` referenced inside "
                    f"snapshot/codec function `{m.group(1)}`"))


# ---------------------------------------------------------------------------
# C++ structure extraction: classes, members, and function bodies — enough
# for checks 2 and 3, no more. Token-level, heuristic, calibrated against
# this repo's (Google-style) code.
# ---------------------------------------------------------------------------

IDENT_RE = re.compile(r"[A-Za-z_]\w*")

STATEMENT_SKIP_KEYWORDS = (
    "public", "private", "protected", "using", "typedef", "friend",
    "static", "template", "enum", "return", "if", "for", "while", "switch",
    "case", "explicit", "operator", "virtual ~", "~",
)


def match_brace(code, open_idx):
    """Index just past the brace matching code[open_idx] == '{'."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def mask_angle_spans(stmt):
    """Blanks out template argument lists (top-level <...> pairs)."""
    out = list(stmt)
    depth, start = 0, -1
    for i, c in enumerate(stmt):
        if c == "<":
            if depth == 0:
                start = i
            depth += 1
        elif c == ">":
            if depth > 0:
                depth -= 1
                if depth == 0 and start >= 0:
                    for j in range(start, i + 1):
                        out[j] = " "
                    start = -1
        elif c in ";{}" and depth > 0:
            # operator< or a stray comparison: give up on this span.
            depth, start = 0, -1
    return "".join(out)


class ClassInfo:
    def __init__(self, name, path, body_start, body_end):
        self.name = name
        self.path = path
        self.body_start = body_start
        self.body_end = body_end
        self.bases = []
        self.members = []        # (name, type_token, line)
        self.nested = {}         # struct name -> [(member, type, line)]
        self.method_names = set()


def parse_members(code, body_start, body_end, cls, path, nested_into=None):
    """Walks a class body at depth 1, collecting data members and nested
    struct definitions. `nested_into` redirects members into a nested map."""
    members = nested_into if nested_into is not None else cls.members
    i = body_start
    stmt_start = i
    stmt = []
    brace_spans = []  # (start, end) of skipped {...} spans in this statement

    def flush(end_idx):
        nonlocal stmt, brace_spans, stmt_start
        raw = "".join(stmt)
        text = raw.strip()
        spans = brace_spans
        stmt, brace_spans = [], []
        start_idx = stmt_start
        stmt_start = end_idx
        if not text:
            return
        # Attribute the statement to its first non-whitespace character, not
        # to stmt_start (which sits just past the previous statement's `;`,
        # i.e. usually on the previous line).
        start_idx += len(raw) - len(raw.lstrip())
        process_statement(text, spans, start_idx, end_idx)

    def process_statement(text, spans, start_idx, end_idx):
        line = line_of(code, start_idx)
        first = IDENT_RE.match(text)
        first_word = first.group(0) if first else ""
        # Nested type definition: recurse into the first skipped brace span
        # when the statement is `struct Name {...}` / `class Name {...}`.
        if first_word in ("struct", "class", "union") and spans:
            m = re.match(r"(?:struct|class|union)\s+([A-Za-z_]\w*)", text)
            if m and nested_into is None:
                nested = []
                parse_members(code, spans[0][0] + 1, spans[0][1] - 1, cls,
                              path, nested_into=nested)
                cls.nested[m.group(1)] = nested
            return
        if first_word in ("struct", "class", "union", "enum"):
            return
        for kw in STATEMENT_SKIP_KEYWORDS:
            if text == kw or text.startswith(kw + " ") or text.startswith(kw + ":"):
                return
        if not text:
            return
        masked = mask_angle_spans(text)
        # Anything with a parameter list is a function; a trailing {} span
        # right after the declarator is a brace initializer, which is fine.
        # An `=` ahead of the list makes it an initializer, unless `operator`
        # comes first (`operator=`, `operator==`).
        paren = masked.find("(")
        eq = masked.find("=")
        if paren != -1 and (eq == -1 or paren < eq or
                            re.search(r"\boperator\b", masked[:paren])):
            m = re.search(r"([A-Za-z_]\w*)\s*\($", masked[:paren + 1])
            if m:
                cls.method_names.add(m.group(1))
            return
        # Data member: name is the last identifier before `;`/`=`/init.
        decl = masked
        if eq != -1:
            decl = decl[:eq]
        decl = re.sub(r"\[[^\]]*\]", "", decl)       # arrays
        decl = decl.split(":")[0] if re.search(r"[A-Za-z_]\w*\s*:\s*\d", decl) else decl
        idents = IDENT_RE.findall(decl)
        idents = [w for w in idents if w not in ("const", "constexpr", "mutable",
                                                 "volatile", "std", "inline")]
        if len(idents) < 2:
            return  # Need at least a type and a name.
        name, type_token = idents[-1], idents[-2]
        members.append((name, type_token, line))

    while i < body_end:
        c = code[i]
        if c == "{":
            end = match_brace(code, i)
            brace_spans.append((i, end))
            i = end
            # An inline function definition ends at its closing brace with no
            # `;` — flush so the next member doesn't merge into it. A brace
            # initializer or nested type body has no parameter list yet.
            stmt_text = mask_angle_spans("".join(stmt))
            first = IDENT_RE.match(stmt_text.strip())
            if "(" in stmt_text and (not first or
                                     first.group(0) not in ("struct", "class",
                                                            "union", "enum")):
                m = re.search(r"([A-Za-z_]\w*)\s*\(", stmt_text)
                if m:
                    cls.method_names.add(m.group(1))
                stmt, brace_spans = [], []
                stmt_start = i
        elif c == ";":
            flush(i)
            i += 1
            stmt_start = i
        elif c == ":" and code[i - 6:i + 1].strip() in ("public:", "private:", "protected:"):
            stmt, brace_spans = [], []
            i += 1
            stmt_start = i
        else:
            stmt.append(c)
            i += 1


CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?([:{;])")


def parse_classes(path, code):
    """Finds class/struct definitions with bodies."""
    classes = []
    for m in CLASS_RE.finditer(code):
        kind, name, delim = m.group(1), m.group(2), m.group(3)
        if delim == ";":
            continue  # forward declaration
        # Reject `enum class` / `enum struct`.
        prefix = code[max(0, m.start() - 8):m.start()]
        if re.search(r"enum\s*$", prefix):
            continue
        i = m.end() - 1
        bases = []
        if delim == ":":
            brace = code.find("{", i)
            if brace == -1:
                continue
            bases = IDENT_RE.findall(code[i:brace])
            bases = [b for b in bases if b not in ("public", "private",
                                                   "protected", "virtual", "std")]
            i = brace
        body_end = match_brace(code, i)
        cls = ClassInfo(name, path, i + 1, body_end - 1)
        cls.bases = bases
        parse_members(code, cls.body_start, cls.body_end, cls, path)
        classes.append(cls)
    return classes


FUNC_NAME_RE = re.compile(
    r"\b(?:([A-Za-z_]\w*)\s*::\s*)?"
    r"((?:Capture|Restore)\w*|Serialize\w*|Deserialize\w*|Snapshot\w*|"
    r"Encode\w*|Decode\w*)\s*\(")


def extract_function_bodies(path, code):
    """Maps (class_or_None, function_name) -> list of (body_code, body_offset,
    param_names). Covers out-of-line `Cls::Name(...) {...}`, free functions,
    and inline method definitions (class attribution for inline bodies is
    resolved by the caller via class body spans)."""
    out = {}
    for m in FUNC_NAME_RE.finditer(code):
        cls, name = m.group(1), m.group(2)
        # Find the closing paren of the parameter list.
        i, depth = m.end() - 1, 0
        n = len(code)
        while i < n:
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        params = code[m.end():i]
        j = i + 1
        # Skip const / noexcept / override / trailing return / init list.
        while j < n and code[j] not in "{;":
            j += 1
        if j >= n or code[j] == ";":
            continue  # declaration only
        body_end = match_brace(code, j)
        param_names = IDENT_RE.findall(mask_angle_spans(params))
        out.setdefault((cls, name), []).append((code[j:body_end], j, param_names))
    return out


# ---------------------------------------------------------------------------
# Check 3: codec symmetry.
# ---------------------------------------------------------------------------

WIDTH_OPS = {
    "U8": "8", "Bool": "8", "GetU8": "8", "PutU8": "8", "push_back": "8",
    "U16": "16", "GetU16": "16", "PutU16": "16",
    "U32": "32", "GetU32": "32", "PutU32": "32",
    "U64": "64", "I64": "64", "GetU64": "64", "PutU64": "64",
    "GetI64": "64", "PutI64": "64",
    "Blob": "blob",
    "GetBytes": "bytes", "PutBytes": "bytes", "insert": "bytes", "assign": "bytes",
    "WriteSnapshotHeader": "header", "ReadSnapshotHeader": "header",
}

CODEC_PREFIXES = ("Capture", "Restore", "Serialize", "Deserialize",
                  "Encode", "Decode", "Write", "Read", "Put", "Get")


def strip_codec_prefix(name):
    for p in CODEC_PREFIXES:
        if name.startswith(p) and len(name) > len(p):
            return name[len(p):]
    return name


CALL_RE = re.compile(r"((?:[A-Za-z_]\w*(?:\.|->|::))*)([A-Za-z_]\w*)\s*\(")
# A locally constructed writer or reader: `SnapshotWriter w(&buf)`.
LOCAL_STREAM_RE = re.compile(r"\b\w*(?:Writer|Reader)\s+([A-Za-z_]\w*)\s*\(")
BYTE_INDEX_RE = re.compile(r"\b(?:bytes|data|buf)\s*\[\s*(\d+|[A-Za-z_]\w*)\s*\]")

# Control flow and cast-ish names that CALL_RE matches but are not calls.
NOT_CALLS = {"if", "for", "while", "switch", "return", "sizeof", "catch",
             "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
             "alignof", "decltype", "assert", "HBFT_CHECK", "HBFT_CHECK_EQ",
             "HBFT_CHECK_LT", "HBFT_CHECK_LE", "HBFT_CHECK_GT", "HBFT_CHECK_GE"}


def codec_sequence(body, body_offset, code, stream_names):
    """Flattens a codec body into [(token, line)], consuming call-argument
    spans so nested mentions don't double-count."""
    seq = []
    i, n = 0, len(body)
    seen_indices = set()
    # Track locally-declared byte-output vectors (writer side).
    out_vecs = set(re.findall(r"std::vector<uint8_t>\s+([A-Za-z_]\w*)", body))
    out_vecs.update({"out", "out_"})
    # Declaring a local writer or reader is not a codec step, whatever its
    # constructor argument is named.
    stream_decls = {m.start(1) for m in LOCAL_STREAM_RE.finditer(body)}
    while i < n:
        cm = CALL_RE.match(body, i)
        if not cm:
            bm = BYTE_INDEX_RE.match(body, i)
            if bm:
                idx = bm.group(1)
                if idx not in seen_indices:
                    seen_indices.add(idx)
                    seq.append(("8", line_of(code, body_offset + bm.start())))
                i = bm.end()
                continue
            i += 1
            continue
        receiver, name = cm.group(1), cm.group(2)
        if name in NOT_CALLS:
            # Keyword, not a call: keep scanning inside its parens.
            i = cm.end()
            continue
        line = line_of(code, body_offset + cm.start(2))
        # Find the call's argument span.
        j, depth = cm.end() - 1, 0
        while j < n:
            if body[j] == "(":
                depth += 1
            elif body[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        args = body[cm.end():j]
        recv_root = re.split(r"\.|->|::", receiver.rstrip(".->:"))[0] if receiver else ""

        if cm.start(2) in stream_decls:
            i = j + 1
            continue
        if name in ("push_back", "insert"):
            if recv_root in out_vecs:
                seq.append((WIDTH_OPS[name], line))
            i = j + 1
            continue
        if name == "assign":
            if re.search(r"\b(?:bytes|data|buf)\b", args):
                seq.append(("bytes", line))
            i = j + 1
            continue
        if name in WIDTH_OPS:
            seq.append((WIDTH_OPS[name], line))
            i = j + 1
            continue
        # Nested codec: any call that threads the writer/reader through.
        arg_idents = set(IDENT_RE.findall(args))
        if arg_idents & stream_names:
            token = "nest:" + (recv_root + ":" if recv_root else "") + strip_codec_prefix(name)
            seq.append((token, line))
            i = j + 1
            continue
        # Plain call: don't consume args (they may contain codec ops, e.g.
        # HBFT_CHECK(r.U32(&x))).
        i = cm.end()
    return seq


def tokens_match(wt, rt):
    """Width tokens must be equal. Nested-codec tokens must agree on the
    codec suffix; the receivers must also agree when both are member-style
    names (trailing underscore) — parameter/local receivers (e.g. `source` /
    `target` in the whole-object snapshot helpers) are naming, not shape."""
    if wt == rt:
        return True
    if not (wt.startswith("nest:") and rt.startswith("nest:")):
        return False
    wparts, rparts = wt.split(":"), rt.split(":")
    if wparts[-1] != rparts[-1]:
        return False
    wrecv = wparts[1] if len(wparts) == 3 else ""
    rrecv = rparts[1] if len(rparts) == 3 else ""
    if wrecv.endswith("_") and rrecv.endswith("_") and wrecv != rrecv:
        return False
    return True


STREAM_PARAM_TYPES = re.compile(
    r"(SnapshotWriter|SnapshotReader)\s*&\s*([A-Za-z_]\w*)")


def stream_names_of(params_text, body):
    names = set(m.group(2) for m in STREAM_PARAM_TYPES.finditer(params_text))
    # Locally-constructed writers/readers too.
    names.update(LOCAL_STREAM_RE.findall(body))
    names.update({"w", "r", "reader", "writer", "out"})
    return names


CODEC_PAIR_PREFIXES = [
    ("Serialize", "Deserialize"),
    ("Capture", "Restore"),
    ("Encode", "Decode"),
]


def pair_name(name):
    """Returns the partner function name for a codec-side function."""
    for a, b in CODEC_PAIR_PREFIXES:
        if name.startswith(a):
            return b + name[len(a):]
        if name.startswith(b):
            return a + name[len(b):]
    return None


def check_codec_symmetry(path, code, suppress, violations):
    funcs = extract_function_bodies(path, code)
    checked = set()
    for (cls, name), defs in funcs.items():
        for a, b in CODEC_PAIR_PREFIXES:
            if not name.startswith(a):
                continue
            partner = b + name[len(a):]
            pkey = (cls, partner)
            if pkey not in funcs:
                continue
            key = (cls, name, partner)
            if key in checked:
                continue
            checked.add(key)
            if len(defs) != 1 or len(funcs[pkey]) != 1:
                continue  # Overloads: ambiguous, skip.
            wbody, woff, wparams = defs[0]
            rbody, roff, rparams = funcs[pkey][0]
            wseq = codec_sequence(wbody, woff, code,
                                  stream_names_of(" ".join(wparams), wbody))
            rseq = codec_sequence(rbody, roff, code,
                                  stream_names_of(" ".join(rparams), rbody))
            wline = line_of(code, woff)
            if suppress.allows("codec-symmetry", wline) or \
               suppress.allows("codec-symmetry", line_of(code, roff)):
                continue
            qual = f"{cls}::" if cls else ""
            for k in range(max(len(wseq), len(rseq))):
                wt = wseq[k] if k < len(wseq) else None
                rt = rseq[k] if k < len(rseq) else None
                if wt is None:
                    violations.append(Violation(
                        path, rt[1], "codec-symmetry",
                        f"{qual}{partner} reads field #{k + 1} ({rt[0]}) that "
                        f"{qual}{name} never writes"))
                    break
                if rt is None:
                    violations.append(Violation(
                        path, wt[1], "codec-symmetry",
                        f"{qual}{name} writes field #{k + 1} ({wt[0]}) that "
                        f"{qual}{partner} never reads"))
                    break
                if not tokens_match(wt[0], rt[0]):
                    violations.append(Violation(
                        path, wt[1], "codec-symmetry",
                        f"{qual}{name}/{partner} diverge at field #{k + 1}: "
                        f"writes {wt[0]} (line {wt[1]}) but reads {rt[0]} "
                        f"(line {rt[1]})"))
                    break


# ---------------------------------------------------------------------------
# Check 2: snapshot completeness. Cross-file: class declarations usually live
# in headers, Capture/Restore bodies in the matching .cpp.
# ---------------------------------------------------------------------------

SNAPSHOT_BASE = "Snapshotable"


def snapshotable_closure(classes_by_name):
    snap = {SNAPSHOT_BASE}
    changed = True
    while changed:
        changed = False
        for cls in classes_by_name.values():
            if cls.name in snap:
                continue
            if any(b in snap for b in cls.bases):
                snap.add(cls.name)
                changed = True
    snap.discard(SNAPSHOT_BASE)
    return snap


def check_snapshot_completeness(files, violations):
    """files: list of (path, code, suppress). Builds a global class index and
    a global Capture*/Restore* body index, then diffs members per class."""
    classes_by_name = {}
    class_files = {}
    for path, code, suppress in files:
        for cls in parse_classes(path, code):
            # First definition wins; redefinitions across files would be ODR
            # violations anyway.
            if cls.name not in classes_by_name:
                classes_by_name[cls.name] = cls
                class_files[cls.name] = (path, code, suppress)

    # (class, func) -> set of identifiers in the body; and called names.
    bodies = {}
    for path, code, _ in files:
        for (cls, name), defs in extract_function_bodies(path, code).items():
            for body, off, _params in defs:
                owner = cls
                if owner is None:
                    # Inline method: attribute by enclosing class body span.
                    for cname, c in classes_by_name.items():
                        p, ccode, _s = class_files[cname]
                        if p == path and c.body_start <= off < c.body_end:
                            owner = cname
                            break
                if owner is None:
                    continue
                key = (owner, name)
                idents = set(IDENT_RE.findall(body))
                bodies.setdefault(key, set()).update(idents)

    snapshot_classes = snapshotable_closure(classes_by_name)
    for cname, cls in classes_by_name.items():
        entry_methods = [m for m in cls.method_names
                         if m.startswith("Capture") or m.startswith("Restore")]
        has_pair = ("CaptureState" in cls.method_names and
                    "RestoreState" in cls.method_names)
        if cname not in snapshot_classes and not has_pair:
            continue
        if not entry_methods:
            continue
        path, code, suppress = class_files[cname]
        # Transitive closure over same-class helpers called from the
        # Capture*/Restore* entry points.
        reached = set()
        frontier = list(entry_methods)
        touched = set()
        while frontier:
            fn = frontier.pop()
            if fn in reached:
                continue
            reached.add(fn)
            idents = bodies.get((cname, fn))
            if idents is None:
                continue
            touched |= idents
            for callee in idents & cls.method_names:
                if callee not in reached:
                    frontier.append(callee)
        # Inherited capture also counts: a derived class whose CaptureState
        # calls Base::CaptureState covers members via the base's methods —
        # but members live per class here, so nothing extra to do.
        if not (touched - {"w", "r"}):
            continue  # No body found anywhere (e.g. pure interface).
        for member, type_token, line in cls.members:
            if suppress.derived(line) or suppress.allows("snapshot-field", line):
                continue
            if member in touched:
                # One-level expansion: if the member's type is a class-local
                # struct, each of its fields must be touched too.
                for fname, _ft, _fl in cls.nested.get(type_token, []):
                    if fname not in touched:
                        violations.append(Violation(
                            path, line, "snapshot-field",
                            f"{cname}::{member}.{fname} ({type_token}) is never "
                            f"touched by {cname}'s Capture*/Restore* methods — "
                            "serialize it or annotate the member "
                            "`// hbft-lint: derived-state — <why>`"))
                continue
            violations.append(Violation(
                path, line, "snapshot-field",
                f"{cname}::{member} is never touched by {cname}'s "
                "Capture*/Restore* methods — serialize it or annotate "
                "`// hbft-lint: derived-state — <why>`"))


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def collect_files(root, paths):
    files = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isdir(full):
            for dirpath, _dirs, names in os.walk(full):
                for name in sorted(names):
                    if name.endswith((".cpp", ".hpp", ".cc", ".h")):
                        files.append(os.path.join(dirpath, name))
        elif os.path.isfile(full):
            files.append(full)
        else:
            raise FileNotFoundError(full)
    return sorted(set(files))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels above this script)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:22s} {desc}")
        print("\nwall-clock layers (annotated in-tree): " +
              ", ".join(WALL_CLOCK_LAYERS))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    paths = args.paths or ["src"]
    try:
        file_list = collect_files(root, paths)
    except FileNotFoundError as e:
        sys.stderr.write(f"hbft_lint: no such path: {e}\n")
        return 2

    violations = []
    lexed = []
    for path in file_list:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
        code, comments = lex(raw)
        suppress = Suppressions(path, comments, violations)
        lexed.append((path, code, suppress))
        check_determinism(path, code, suppress, violations, raw)
        check_thread_state_codec(path, code, suppress, violations)
        check_codec_symmetry(path, code, suppress, violations)
    check_snapshot_completeness(lexed, violations)

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    for v in violations:
        rel = os.path.relpath(v.path, root)
        print(f"{rel}:{v.line}: [{v.rule}] {v.message}")
    if violations:
        print(f"\nhbft_lint: {len(violations)} violation(s) in "
              f"{len(file_list)} file(s)")
        return 1
    print(f"hbft_lint: clean ({len(file_list)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
