#!/usr/bin/env python3
"""coverage_check: fail when a function in src/ never runs.

Reads gcov's JSON records for every .gcda file under a `--coverage` build
tree (after the tests and examples have run in it), merges the records of
every translation unit, then

  * prints the line coverage of src/: lines run over lines instrumented;
  * lists each function defined in src/ that ran in no translation unit,
    unless scripts/coverage_allow.txt names it with a reason;
  * lists each allowlist entry whose function now runs or no longer
    exists, so the list only shrinks.

Lambdas count toward line coverage only: a completion callback whose
error branch never fires is an untested line, not a function without a
caller.

Usage (an unoptimised build: at -O2 GCC inlines small functions into
their callers before it instruments them, so their own counts read 0):

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
          -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j && ctest --test-dir build-cov -j
    python3 scripts/coverage_check.py build-cov

Allowlist lines read `<path> <function> -- <reason>`, where <function> is
the qualified name without its parameter list (overloads share an
entry). Exit status 0 means every never-run function is allowlisted and
no entry is stale.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "scripts" / "coverage_allow.txt"
QUALIFIERS = (" const", " volatile", " &&", " &", " noexcept")


def function_key(name: str) -> str:
    """`R ns::C::f<T>(int) const` -> `ns::C::f`: one key per function,
    whatever its overload or template instantiation."""
    name = re.sub(r"\[abi:\w+\]", "", name.strip())
    changed = True
    while changed:
        changed = False
        for q in QUALIFIERS:
            if name.endswith(q):
                name = name[: -len(q)].rstrip()
                changed = True
    name = strip_group(name, "(", ")")
    # A template's return type precedes its name: keep what follows the
    # last space outside brackets.
    depth, cut = 0, 0
    for i, ch in enumerate(name):
        depth += {"(": 1, "<": 1, ")": -1, ">": -1}.get(ch, 0)
        if ch == " " and depth == 0:
            cut = i + 1
    return strip_group(name[cut:], "<", ">")


def strip_group(name: str, open_: str, close: str) -> str:
    """Drop one trailing balanced open_...close group, if any."""
    if not name.endswith(close):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        depth += {close: 1, open_: -1}.get(name[i], 0)
        if depth == 0:
            return name[:i]
    return name


def demangle(names: set[str]) -> dict[str, str]:
    """Names gcov left mangled, through c++filt when it is installed."""
    if not names or not shutil.which("c++filt"):
        return {}
    order = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(order), text=True,
                         capture_output=True, check=True).stdout.splitlines()
    return dict(zip(order, out))


def gcov_records(build: Path):
    """Yield gcov's per-translation-unit JSON documents."""
    gcdas = sorted(str(p) for p in build.rglob("*.gcda"))
    if not gcdas:
        sys.exit(f"coverage_check: no .gcda files under {build}; build with "
                 "--coverage and run the tests first")
    out = subprocess.run(["gcov", "--json-format", "--stdout", *gcdas],
                         cwd=build, capture_output=True, text=True,
                         check=True).stdout
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(out) and out[pos].isspace():
            pos += 1
        if pos >= len(out):
            return
        doc, pos = decoder.raw_decode(out, pos)
        yield doc


def source_path(doc: dict, entry: dict):
    """Repo-relative path of a record's file when it lies under src/."""
    p = Path(entry["file"])
    if not p.is_absolute():
        p = Path(doc.get("current_working_directory", ".")) / p
    try:
        rel = p.resolve().relative_to(ROOT)
    except ValueError:
        return None
    return str(rel) if rel.parts[0] == "src" else None


def read_allowlist() -> dict[tuple[str, str], int]:
    allowed: dict[tuple[str, str], int] = {}
    for n, raw in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entry, sep, reason = line.partition(" -- ")
        parts = entry.split(maxsplit=1)
        if not sep or not reason.strip() or len(parts) != 2:
            sys.exit(f"coverage_check: {ALLOWLIST.name}:{n}: expected "
                     "'<path> <function> -- <reason>'")
        allowed[(parts[0], parts[1].strip())] = n
    return allowed


def main() -> int:
    build = Path(sys.argv[1] if len(sys.argv) > 1 else "build").resolve()
    lines: dict[tuple[str, int], int] = {}
    functions: list[tuple[str, str, int]] = []
    for doc in gcov_records(build):
        for entry in doc.get("files", []):
            path = source_path(doc, entry)
            if path is None:
                continue
            for ln in entry.get("lines", []):
                key = (path, ln["line_number"])
                lines[key] = lines.get(key, 0) + ln["count"]
            for fn in entry.get("functions", []):
                name = fn.get("demangled_name") or fn["name"]
                functions.append((path, name, fn["execution_count"]))

    plain = demangle({n for _, n, _ in functions if n.startswith("_Z")})
    runs: dict[tuple[str, str], int] = {}
    for path, name, count in functions:
        name = plain.get(name, name)
        if "{lambda(" in name:
            continue
        key = (path, function_key(name))
        runs[key] = runs.get(key, 0) + count

    run_lines = sum(1 for c in lines.values() if c > 0)
    print(f"coverage_check: src/ line coverage {run_lines}/{len(lines)} = "
          f"{100.0 * run_lines / max(len(lines), 1):.1f}%")

    allowed = read_allowlist()
    never = sorted(k for k, c in runs.items() if c == 0)
    failures = [f"{p}: {f} never runs (add a caller, delete it, or list it "
                f"in {ALLOWLIST.name} with a reason)"
                for p, f in never if (p, f) not in allowed]
    for (p, f), n in sorted(allowed.items(), key=lambda kv: kv[1]):
        if runs.get((p, f), 0) > 0:
            failures.append(f"{ALLOWLIST.name}:{n}: {f} now runs; "
                            "remove the entry")
        elif (p, f) not in runs:
            failures.append(f"{ALLOWLIST.name}:{n}: no function {f} in {p}; "
                            "remove the entry")
    print(f"coverage_check: {len(runs)} src/ functions, {len(never)} never "
          f"run, {sum(1 for k in never if k in allowed)} of them allowlisted")
    for f in failures:
        print(f)
    print(f"coverage_check: {len(failures)} finding(s)")
    return min(len(failures), 125)


if __name__ == "__main__":
    sys.exit(main())
