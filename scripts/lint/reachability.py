#!/usr/bin/env python3
"""reachability.py: every out-of-line src/ function has a caller outside tests.

Usage: reachability.py [BUILD_DIR] [--self-test]

Code whose only caller is its own test is deleted or given a real caller.
This checker (stdlib only, same dependency posture as gt_lint.py and
include_graph.py) makes that a CI-gated contract:

  1. read the global text (`T`) symbols of every src/ library,
     BUILD_DIR/src/*/libgridtrust_*.a;
  2. read every symbol the roots define: each executable under BUILD_DIR
     outside its tests/ tree, perfbench_driver included;
  3. report each library function that no root defines, demangled, unless
     reachability_allowlist.txt (next to this script) names it;
  4. report each allowlist entry that a root now defines, or that no
     library defines any more: a stale entry, like a stale gt-lint
     baseline line.

Linked is taken as reached, so the comparison only means something in a
tree where the linker drops what nothing references and nothing is
inlined away.  Configure BUILD_DIR (default build-reach) and perfbench
inside it like this; the script checks both CMakeCache.txt files:

  cmake -B build-reach -G Ninja -DCMAKE_BUILD_TYPE=Debug \\
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \\
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build build-reach --target gridtrust_lab <bench/ and examples/
    binaries, named after their .cpp files>
  cmake -S perfbench -B build-reach/perfbench <the same three -D flags>
  cmake --build build-reach/perfbench --target perfbench_driver

Header-inline and template code is not counted: it is emitted as weak
symbols where it is used, not as `T` symbols of a library.

Exit codes: 0 clean, 1 unreached functions or stale allowlist entries,
2 usage or build-tree error.
"""
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
ALLOWLIST = Path(__file__).resolve().parent / "reachability_allowlist.txt"
DEFAULT_BUILD_DIR = REPO_ROOT / "build-reach"
# Roots whose absence means the tree was built incompletely.
REQUIRED_ROOTS = ("gridtrust_lab", "perfbench/perfbench_driver")
ELF_MAGIC = b"\x7fELF"


class TreeError(Exception):
    """The build tree cannot support the check (exit 2)."""


def parse_nm(text, types=None):
    """Defined symbol names in `nm --defined-only` output (archive member
    headers skipped); only those of the given type letters when `types`."""
    names = set()
    for line in text.splitlines():
        fields = line.split()
        if len(fields) != 3 or len(fields[1]) != 1:
            continue
        if types is None or fields[1] in types:
            names.add(fields[2])
    return names


def parse_allowlist(text):
    """{demangled name: reason}.  Each entry is `<name> # <reason>`; lines
    starting with '#' are comments.  Raises ValueError on an entry without
    a reason or a repeated entry."""
    entries = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        name, reason = name.strip(), reason.strip()
        if not reason:
            raise ValueError(f"line {number}: '{name}' has no reason")
        if name in entries:
            raise ValueError(f"line {number}: '{name}' is listed twice")
        entries[name] = reason
    return entries


def check_cache(text, where):
    """Raises TreeError unless a CMakeCache.txt configures the flags."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and ":" in key:
            values[key.split(":", 1)[0]] = value
    problems = []
    if values.get("CMAKE_BUILD_TYPE") != "Debug":
        problems.append("CMAKE_BUILD_TYPE=Debug")
    cxx = values.get("CMAKE_CXX_FLAGS", "").split()
    for flag in ("-O0", "-ffunction-sections"):
        if flag not in cxx:
            problems.append(f"{flag} in CMAKE_CXX_FLAGS")
    if "--gc-sections" not in values.get("CMAKE_EXE_LINKER_FLAGS", ""):
        problems.append("-Wl,--gc-sections in CMAKE_EXE_LINKER_FLAGS")
    if problems:
        raise TreeError(f"{where} lacks {', '.join(problems)}")


def demangle(names):
    """{mangled: demangled}, through one c++filt call."""
    ordered = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(ordered), text=True,
                         capture_output=True, check=True).stdout
    return dict(zip(ordered, out.splitlines()))


def analyze(libraries, roots, allowlist):
    """Pure core.  `libraries` maps a library name to its nm text, `roots`
    maps a root name to its nm text, `allowlist` maps demangled names to
    reasons.  Returns (functions, unreached, reached_stale, missing_stale):
    the count of demangled library functions, then sorted lists of
    (name, library) and names."""
    owner = {}
    for library, text in libraries.items():
        for symbol in parse_nm(text, types="T"):
            owner[symbol] = library
    defined = set()
    for text in roots.values():
        defined |= parse_nm(text)
    names = demangle(owner)
    # Constructors and destructors have several mangled variants that
    # demangle alike; a function is reached when any variant is linked.
    reached = {}
    for symbol, name in names.items():
        reached[name] = reached.get(name, False) or symbol in defined
    library_of = {names[symbol]: owner[symbol] for symbol in owner}
    unreached = sorted((name, library_of[name]) for name, hit in
                       reached.items() if not hit and name not in allowlist)
    reached_stale = sorted(n for n in allowlist if reached.get(n, False))
    missing_stale = sorted(n for n in allowlist if n not in reached)
    return len(reached), unreached, reached_stale, missing_stale


def nm(path):
    return subprocess.run(["nm", "--defined-only", str(path)], text=True,
                          capture_output=True, check=True).stdout


def find_roots(build_dir):
    """Executables under build_dir outside its tests/ tree and CMake's own
    scratch directories, keyed by their path relative to build_dir."""
    roots = {}
    for dirpath, dirnames, filenames in os.walk(build_dir):
        here = Path(dirpath)
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in ("CMakeFiles", "Testing")
            and not (here == build_dir and d == "tests"))
        for filename in filenames:
            path = here / filename
            if not os.access(path, os.X_OK) or path.is_symlink():
                continue
            with open(path, "rb") as handle:
                if handle.read(4) != ELF_MAGIC:
                    continue
            roots[path.relative_to(build_dir).as_posix()] = path
    return roots


def run(build_dir):
    build_dir = build_dir.resolve()
    for cache, where in ((build_dir / "CMakeCache.txt", "the build tree"),
                         (build_dir / "perfbench" / "CMakeCache.txt",
                          "the perfbench tree")):
        if not cache.is_file():
            raise TreeError(f"no {cache}; configure it as the docstring "
                            f"shows")
        check_cache(cache.read_text(encoding="utf-8"), where)
    libraries = sorted(build_dir.glob("src/*/libgridtrust_*.a"))
    if not libraries:
        raise TreeError(f"no src/*/libgridtrust_*.a under {build_dir}")
    roots = find_roots(build_dir)
    missing = [r for r in REQUIRED_ROOTS if r not in roots]
    if missing:
        raise TreeError(f"missing root(s) {', '.join(missing)}; build every "
                        f"executable outside tests/ first")
    allowlist = parse_allowlist(ALLOWLIST.read_text(encoding="utf-8"))
    print(f"reachability: {len(roots)} roots: {', '.join(sorted(roots))}")
    functions, unreached, reached_stale, missing_stale = analyze(
        {lib.name: nm(lib) for lib in libraries},
        {name: nm(path) for name, path in roots.items()}, allowlist)
    for name, library in unreached:
        print(f"reachability: unreached: {name} ({library})")
    for name in reached_stale:
        print(f"reachability: stale allowlist entry, now reached: {name}")
    for name in missing_stale:
        print(f"reachability: stale allowlist entry, no longer defined: "
              f"{name}")
    failures = len(unreached) + len(reached_stale) + len(missing_stale)
    status = "FAIL" if failures else "OK"
    print(f"reachability: {status} — {functions} functions in "
          f"{len(libraries)} libraries, {len(allowlist)} allowlisted, "
          f"{len(unreached)} unreached, "
          f"{len(reached_stale) + len(missing_stale)} stale")
    if unreached:
        print("reachability: delete each unreached function, give it a "
              "caller outside tests/, or (test oracles and hooks only) "
              f"list it with a reason in {ALLOWLIST.relative_to(REPO_ROOT)}")
    return 1 if failures else 0


# Canned `nm --defined-only` output for the self-test: a library with a
# reached function, an unreached one, a test oracle, a constructor in two
# variants (only one linked), an inline (W) and a local (t) function.
SELF_TEST_LIBRARY = """
a.cpp.o:
0000000000000000 T _ZN2gt4usedEv
0000000000000000 T _ZN2gt6unusedEv
0000000000000000 T _ZN2gt6oracleEv
0000000000000000 W _ZN2gt6inlineEv
0000000000000000 t _ZN2gt12_GLOBAL__N_15localEv

b.cpp.o:
0000000000000000 T _ZN2gt3BoxC1Ev
0000000000000000 T _ZN2gt3BoxC2Ev
"""
SELF_TEST_ROOT = """
0000000000001000 T main
0000000000001100 T _ZN2gt4usedEv
0000000000001200 T _ZN2gt3BoxC2Ev
0000000000001300 W _ZN2gt6inlineEv
"""
SELF_TEST_CACHE = """
CMAKE_BUILD_TYPE:STRING=Debug
CMAKE_CXX_FLAGS:STRING=-O0 -ffunction-sections
CMAKE_EXE_LINKER_FLAGS:STRING=-Wl,--gc-sections
"""


def self_test():
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")
        else:
            print(f"self-test: PASS {label}")

    libraries = {"libgt.a": SELF_TEST_LIBRARY}
    roots = {"app": SELF_TEST_ROOT}
    oracle = parse_allowlist("# comment\ngt::oracle() # a test oracle\n")
    expect("clean allowlist leaves the one unreached function",
           analyze(libraries, roots, oracle),
           (4, [("gt::unused()", "libgt.a")], [], []))
    expect("an unlisted oracle is reported",
           analyze(libraries, roots, {})[1],
           [("gt::oracle()", "libgt.a"), ("gt::unused()", "libgt.a")])
    stale = dict(oracle, **{"gt::used()": "x", "gt::gone()": "y"})
    expect("stale entries: reached, and no longer defined",
           analyze(libraries, roots, stale)[2:],
           (["gt::used()"], ["gt::gone()"]))
    for text, label in (("gt::oracle()\n", "an entry without a reason"),
                        ("gt::a() # x\ngt::a() # y\n", "a repeated entry")):
        try:
            parse_allowlist(text)
            failures.append(f"{label} was accepted")
        except ValueError:
            print(f"self-test: PASS {label} is rejected")
    try:
        check_cache(SELF_TEST_CACHE, "canned")
        print("self-test: PASS the documented flags are accepted")
    except TreeError as error:
        failures.append(f"documented flags rejected: {error}")
    try:
        check_cache(SELF_TEST_CACHE.replace("Debug", "Release"), "canned")
        failures.append("a Release tree was accepted")
    except TreeError:
        print("self-test: PASS a Release tree is rejected")
    for failure in failures:
        print(f"self-test: FAIL {failure}")
    print(f"self-test: {'FAIL' if failures else 'OK'}")
    return 1 if failures else 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print(__doc__.split("\n\n", 2)[1], file=sys.stderr)
        return 2
    build_dir = Path(argv[0]) if argv else DEFAULT_BUILD_DIR
    try:
        return run(build_dir)
    except (TreeError, ValueError, subprocess.CalledProcessError,
            OSError) as error:
        print(f"reachability: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
