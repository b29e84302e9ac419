#!/usr/bin/env python3
"""Name-level reachability census of `pub` items (EXPERIMENTS.md, "Reachability census").

For every `pub` fn / struct / enum / trait / type / const / static / mod
declared under any `crates/*/src`, find each other mention of its name
as a whole word in any `.rs` file of the repository (`target/`, `vendor/`
excluded; `benchmark/src`, examples, binaries, benches and integration
tests included) and print the items whose only mentions are in their own
file's `#[cfg(test)]` region. Comment lines (doc examples included) and
`pub use` re-exports are not callers. A `pub mod` is reached through the
items it re-exports rather than by name, so it is live when any item
declared in its file is.

A name-level census over-approximates reachability: a method called
`len` is "called" wherever any `len` is. It cannot miss an unreachable
free item with a distinctive name, which is what it is for.

Two more checks look inside types, where a name needs a context to count:

* `--fields`: a `pub` field of a `pub struct` under `crates/*/src` that is
  read nowhere outside its own file's tests. A read is `.name` that is not
  a method call or the target of a plain `=`, or the name inside a
  `Struct { .. }` pattern (one followed by `=`, `=>`, `|` or `in`).
* `--variants`: a variant of a `pub enum` under `crates/*/src` that is
  constructed nowhere outside its own file's tests. A construction is `Enum::Variant` (`Self::Variant` in its
  own file, the bare name where `Enum::*` is imported) that is not a `use`
  path, not compared with `==` / `!=`, not inside `matches!`, and not a
  pattern: after its payload comes none of `=>`, `=`, `|` or a match
  guard's `if`, and it is not the body of an arm that matched the same
  variant (`V { a } => V { a: a * 2 }` maps a value, it makes none). A
  construction inside an `impl From<_> for Enum` counts —
  whether any `?` converts through that impl is the compiler's call.
  `--tests-only` adds the variants that only test code elsewhere (test
  regions and `tests/` directories) or only a `From` impl constructs.

    python3 scripts/census.py            # items with no caller
    python3 scripts/census.py --tests-only  # + items only test code elsewhere mentions
    python3 scripts/census.py --own-only    # + items only their own file mentions
    python3 scripts/census.py --all         # every item with its counts
    python3 scripts/census.py --fields      # pub fields nothing outside their own tests reads
    python3 scripts/census.py --fields --tests-only    # + fields only test code reads
    python3 scripts/census.py --variants    # variants nothing outside their own tests constructs
    python3 scripts/census.py --variants --tests-only  # + variants only tests or a From impl construct
    python3 scripts/census.py --lines       # non-test lines per crate, no census

`--lines` counts, for every `.rs` file under a crate's `src/`, the lines
above its first column-0 `#[cfg(test)]` — the figure CHANGES.md quotes
per PR.
"""
import glob
import os
import re
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
SCOPE = sorted(glob.glob(os.path.join(ROOT, "crates", "*", "src")))
SKIP_DIRS = {"target", "vendor", ".git", ".bench_build", "out"}
DECL = re.compile(
    r"^\s*pub\s+(?:unsafe\s+)?(?:const\s+)?(?:fn|struct|enum|trait|type|const|static|mod)\s+([A-Za-z_][A-Za-z0-9_]*)"
)


def rust_files(top):
    if os.path.isfile(top):
        yield top
        return
    for base, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
        for f in sorted(files):
            if f.endswith(".rs"):
                yield os.path.join(base, f)


def load(path):
    """(line, is_test) for each code line; comment lines are dropped."""
    out, in_test = [], False
    with open(path, encoding="utf-8") as fh:
        for no, line in enumerate(fh, 1):
            if line.startswith("#[cfg(test)]"):
                in_test = True
            stripped = line.lstrip()
            if stripped.startswith("//") or stripped.startswith("pub use "):
                continue
            out.append((no, line, in_test))
    return out


def source(path):
    """(code, test_at) for a whole file: `//` comments blanked with
    offsets kept, and the offset where its test code starts (0 for a file
    under a `tests/` directory)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    code = re.sub(r"//[^\n]*", lambda m: " " * len(m.group()), text)
    if "/tests/" in "/" + os.path.relpath(path, ROOT).replace(os.sep, "/"):
        return code, 0
    m = re.search(r"^#\[cfg\(test\)\]", code, re.M)
    return code, m.start() if m else len(code)


def close_of(code, at):
    """The offset just past the bracket group opening at `code[at]`."""
    depth = 0
    for i in range(at, len(code)):
        if code[i] in "([{":
            depth += 1
        elif code[i] in ")]}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def members(code, lo, hi, member):
    """(line, name) of every comma-separated member of the braced body
    `code[lo:hi]` whose text `member` matches (group 1 is the name)."""
    depth, start = 0, lo
    for i in range(lo, hi + 1):
        c = code[i] if i < hi else ","
        depth += c in "([{"
        depth -= c in ")]}"
        if c == "," and depth == 0:
            m = member.match(code, start, i)
            if m:
                yield code.count("\n", 0, m.start(1)) + 1, m.group(1)
            start = i + 1


def declarations(kind, sources):
    """(rel, code, type, body start, body end) of every `pub struct` /
    `pub enum` with a braced body declared above its file's tests in
    `crates/*/src`."""
    decl = re.compile(r"^[ \t]*pub[ \t]+" + kind + r"[ \t]+(\w+)[^{;(]*\{", re.M)
    for scope in SCOPE:
        for path in rust_files(scope):
            rel = os.path.relpath(path, ROOT)
            code, test_at = sources[rel]
            for m in decl.finditer(code, 0, test_at):
                end = close_of(code, m.end() - 1)
                yield rel, code, m.group(1), m.end(), end - 1


def past_payload(code, at):
    """The offset after the optional payload group at or after `at`."""
    at = len(code) - len(code[at:].lstrip())
    return close_of(code, at) if at < len(code) and code[at] in "({" else at


def pattern_follows(code, at):
    """Whether what follows `code[at:]` — after an optional payload group
    and closing parentheses — makes the text before it a pattern."""
    rest = code[past_payload(code, at):].lstrip(" \t\n)")
    return bool(re.match(r"=>|=(?!=)|\|(?!\|)|if\b|in\b", rest))


def arm_body(code, at):
    """When the pattern ending at `at` opens a match arm, the span of the
    arm's body; else an empty span."""
    arrow = code.find("=>", at)
    if arrow < 0 or ";" in code[at:arrow]:
        return 0, 0
    lo = len(code) - len(code[arrow + 2:].lstrip())
    if code.startswith("{", lo):
        return lo, close_of(code, lo)
    depth = 0
    for i in range(lo, len(code)):
        depth += code[i] in "([{"
        depth -= code[i] in ")]}"
        if depth < 0 or (depth == 0 and code[i] == ","):
            return lo, i
    return lo, len(code)


def in_matches(code, at):
    """Whether `code[at]` sits inside a `matches!(..)` invocation."""
    depth = 0
    for i in range(at - 1, max(at - 600, 0) - 1, -1):
        if code[i] in ")]}":
            depth += 1
        elif code[i] in "([{":
            if depth == 0:
                return code[i] == "(" and code[:i].rstrip().endswith("matches!")
            depth -= 1
    return False


def fields(sources, tests_only):
    rows = []
    field = re.compile(r"\s*(?:#\[[^\]]*\]\s*)*pub\s+(\w+)\s*:")
    for rel, code, struct, lo, hi in declarations("struct", sources):
        for no, name in members(code, lo, hi, field):
            access = re.compile(r"\.\s*" + name + r"\b(?!\s*(?:\(|::<|=(?![=>])))")
            shape = re.compile(r"\b" + struct + r"\s*\{")
            word = re.compile(r"\b" + name + r"\b")
            reads, live = 0, 0
            for other, (text, test_at) in sources.items():
                if name not in text:
                    continue
                hits = [a.start() for a in access.finditer(text)]
                for pat in shape.finditer(text):
                    end = close_of(text, pat.end() - 1)
                    if word.search(text, pat.end(), end) and pattern_follows(text, end):
                        hits.append(pat.start())
                for at in hits:
                    if other == rel and at >= test_at:
                        continue
                    reads += 1
                    live += at < test_at
            if reads == 0:
                rows.append((rel, no, f"{struct}::{name}", "read nowhere outside its own tests"))
            elif tests_only and live == 0:
                rows.append((rel, no, f"{struct}::{name}", "read only by tests"))
    flagged = sum(1 for row in rows if "nowhere" in row[3])
    for rel, no, name, why in rows:
        print(f"{rel}:{no} {name}  {why}")
    print(f"pub struct fields in scope: {flagged} read nowhere outside their own file's tests")
    return 1 if flagged else 0


def variants(sources, tests_only):
    rows = []
    variant = re.compile(r"\s*(?:#\[[^\]]*\]\s*)*([A-Z]\w*)")
    for rel, code, enum, lo, hi in declarations("enum", sources):
        for no, name in members(code, lo, hi, variant):
            made, live, via_from = 0, 0, 0
            for other, (text, test_at) in sources.items():
                if name not in text:
                    continue
                spellings = enum + "::" + name
                if other == rel:
                    spellings = f"(?:{enum}|Self)::{name}"
                if re.search(r"\buse\b[^;]*\b" + enum + r"::\*", text):
                    spellings = f"(?:(?:{enum}|Self)::)?{name}"
                froms = [
                    (m.end(), close_of(text, m.end() - 1))
                    for m in re.finditer(r"impl\s+From<[^{]*>\s+for\s+" + enum + r"\s*\{", text)
                ]
                rebuilds = []
                for hit in re.finditer(r"(?<![\w:])" + spellings + r"\b", text):
                    at = hit.start()
                    if other == rel and at >= test_at:
                        continue
                    line = text[text.rfind("\n", 0, at) + 1:at]
                    if pattern_follows(text, hit.end()):
                        rebuilds.append(arm_body(text, past_payload(text, hit.end())))
                        continue
                    if (
                        re.match(r"\s*(pub\s+)?use\b", line)
                        or text[max(at - 64, 0):at].rstrip().endswith(("==", "!="))
                        or in_matches(text, at)
                        or any(a_lo <= at < a_hi for a_lo, a_hi in rebuilds)
                    ):
                        continue
                    made += 1
                    if at < test_at:
                        live += 1
                        via_from += any(f_lo <= at < f_hi for f_lo, f_hi in froms)
            if made == 0:
                rows.append((rel, no, f"{enum}::{name}", "constructed nowhere outside its own tests"))
            elif tests_only and live == 0:
                rows.append((rel, no, f"{enum}::{name}", "constructed only by tests"))
            elif tests_only and live == via_from:
                rows.append((rel, no, f"{enum}::{name}", "constructed only by a From impl"))
    flagged = sum(1 for row in rows if "nowhere" in row[3])
    for rel, no, name, why in rows:
        print(f"{rel}:{no} {name}  {why}")
    print(f"pub enum variants in scope: {flagged} constructed nowhere outside their own file's tests")
    return 1 if flagged else 0


def line_counts():
    total = 0
    for scope in SCOPE:
        n = 0
        for path in rust_files(scope):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("#[cfg(test)]"):
                        break
                    n += 1
        print(f"{os.path.relpath(scope, ROOT)} {n}")
        total += n
    print(f"total {total}")
    return 0


def main():
    if "--lines" in sys.argv[1:]:
        return line_counts()
    show_all = "--all" in sys.argv[1:]
    tests_only = "--tests-only" in sys.argv[1:]
    own_only = "--own-only" in sys.argv[1:]
    if "--fields" in sys.argv[1:] or "--variants" in sys.argv[1:]:
        sources = {os.path.relpath(p, ROOT): source(p) for p in rust_files(ROOT)}
        check = fields if "--fields" in sys.argv[1:] else variants
        return check(sources, tests_only)
    corpus = {os.path.relpath(p, ROOT): load(p) for p in rust_files(ROOT)}
    rows, mods = [], set()
    for scope in SCOPE:
        for path in rust_files(os.path.join(ROOT, scope)):
            rel = os.path.relpath(path, ROOT)
            for no, line, in_test in corpus[rel]:
                m = DECL.match(line)
                if not m or in_test:
                    continue
                name = m.group(1)
                if re.match(r"\s*pub\s+mod\b", line):
                    mods.add((rel, no))
                word = re.compile(r"\b" + re.escape(name) + r"\b")
                own, own_tests, elsewhere, live = 0, 0, {}, 0
                for other, lines in corpus.items():
                    for ono, oline, otest in lines:
                        if (other == rel and ono == no) or not word.search(oline):
                            continue
                        if other != rel:
                            elsewhere[other] = elsewhere.get(other, 0) + 1
                            live += not (otest or "tests/" in other)
                        elif otest:
                            own_tests += 1
                        else:
                            own += 1
                rows.append((rel, no, name, own, own_tests, elsewhere, live))
    # A module's own file: `<dir>/<name>.rs` or `<dir>/<name>/mod.rs`.
    called = {rel for rel, _, _, own, _, elsewhere, _ in rows if own or elsewhere}
    flagged = 0
    for rel, no, name, own, own_tests, elsewhere, live in rows:
        dead = own == 0 and not elsewhere
        if dead and (rel, no) in mods:
            base = os.path.join(os.path.dirname(rel), name)
            dead = not ({base + ".rs", os.path.join(base, "mod.rs")} & called)
        flagged += dead
        if dead or show_all or (tests_only and own == 0 and live == 0) or (own_only and not elsewhere):
            where = ", ".join(f"{k}:{v}" for k, v in sorted(elsewhere.items())[:4])
            more = "" if len(elsewhere) <= 4 else f", +{len(elsewhere) - 4} files"
            print(f"{rel}:{no} {name}  own={own} own_tests={own_tests} elsewhere=[{where}{more}]")
    print(f"{len(rows)} pub items in scope, {flagged} with no caller outside their own file's tests")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
