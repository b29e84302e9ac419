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

    python3 scripts/census.py            # items with no caller
    python3 scripts/census.py --tests-only  # + items only test code elsewhere mentions
    python3 scripts/census.py --own-only    # + items only their own file mentions
    python3 scripts/census.py --all         # every item with its counts
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
