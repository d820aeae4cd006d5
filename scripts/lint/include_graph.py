#!/usr/bin/env python3
"""include_graph.py: layering-DAG checker for the gridtrust source tree.

Usage: include_graph.py [--root DIR] [--layers FILE]
                        [--dot FILE] [--check-dot FILE]
                        [--self-test] [--list-layers]

The des/trust -> grid -> sched -> chaos/econ -> sim -> lab layering that
keeps the toolkit composable (and keeps CMake link lines acyclic) used to
be enforced by nothing but convention.  This checker (stdlib-only, same
dependency posture as gt_lint.py) makes it a CI-gated contract:

  1. parse every quoted #include under src/,
  2. collapse file -> file edges to the module graph (one module per
     top-level directory, mirroring the one CMake library per directory),
  3. verify every observed edge against the declared layering DAG, failing
     on unknown modules, forbidden (upward or undeclared cross) edges,
     includes of nonexistent project files, and cycles — cycle detection
     runs on the *observed* graph, so even a mistakenly-lax declaration
     cannot hide one,
  4. optionally render the observed graph as deterministic DOT
     (docs/include-graph.dot is the committed render; --check-dot fails
     when it drifts from the live tree).

The declared layering lives in DEFAULT_LAYERS below (one `module: deps`
line per module); --layers points at an alternative declaration, which is
how the --self-test fixtures under tests/lint/include_graph/ exercise the
clean / cycle / forbidden-edge verdicts.

Exit codes: 0 clean, 1 violations/drift, 2 usage or internal error.
"""
import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SOURCE_GLOBS = ("*.hpp", "*.cpp", "*.h", "*.cc")
QUOTED_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

# The declared layering contract.  A module may include only itself and the
# modules listed after its colon; the list is kept tight (principled
# layers, not the transitive closure of whatever compiles today).
DEFAULT_LAYERS = """
# Foundation: no dependencies / leaf utilities.
common:
obs: common
sfi: common
net: common

# Simulation kernel and the paper's model layers.
des: common obs
trust: common obs
grid: common obs trust
sched: common obs grid trust
workload: common obs grid sched trust

# Adversary and economy models.
chaos: common obs des sched trust workload
econ: common obs grid sched trust

# The scenario/experiment layer composes every model layer and runs the
# closed-loop campaigns.
sim: common obs des net trust grid sched workload chaos econ

# The sweep engine and CLI sit on top of everything.
lab: common obs sched sim chaos econ
"""


class LayerSpec:
    """Parsed layering declaration: allowed deps per module."""

    def __init__(self, allowed, order):
        self.allowed = allowed  # module -> set of allowed dep modules
        self.order = order      # declaration order, for ranks and DOT


def parse_layers(text):
    allowed, order = {}, []
    logical = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if logical and logical[-1].endswith("\\"):
            logical[-1] = logical[-1][:-1] + line.strip()
        else:
            logical.append(line.strip())
    for line in logical:
        name, sep, deps = line.partition(":")
        if not sep:
            raise ValueError(f"bad layer line (missing ':'): {line!r}")
        name = name.strip()
        if name in allowed:
            raise ValueError(f"module declared twice: {name}")
        allowed[name] = set(deps.split())
        order.append(name)
    for name, deps in allowed.items():
        unknown = deps - set(allowed)
        if unknown:
            raise ValueError(
                f"module {name} allows undeclared deps: {sorted(unknown)}")
    return LayerSpec(allowed, order)


def module_of(rel_path):
    """Maps a src-relative path ('module/file.hpp') to its module name."""
    return rel_path.split("/", 1)[0]


def collect_edges(root):
    """Returns (edges, errors): module -> {dep module -> sorted example
    includes} for every quoted include under `root`, plus hard errors for
    includes whose target file does not exist."""
    edges = {}
    errors = []
    for glob in SOURCE_GLOBS:
        for path in sorted(root.rglob(glob)):
            rel = path.relative_to(root).as_posix()
            module = module_of(rel)
            for target in QUOTED_INCLUDE.findall(
                    path.read_text(encoding="utf-8", errors="replace")):
                if not (root / target).exists():
                    errors.append(
                        f"{rel}: quoted include of nonexistent project "
                        f"file \"{target}\"")
                    continue
                dep = module_of(target)
                if dep == module:
                    continue
                examples = edges.setdefault(module, {}).setdefault(dep, [])
                if len(examples) < 3:
                    examples.append(f"{rel} -> {target}")
    return edges, errors


def find_cycle(edges):
    """Returns one cycle as a module list (closed: first == last), or None.
    Iterative DFS with an explicit stack, deterministic order."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {m: WHITE for m in edges}
    for dep_map in edges.values():
        for dep in dep_map:
            color.setdefault(dep, WHITE)
    parent = {}
    for start in sorted(color):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(sorted(edges.get(start, {}))))]
        color[start] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if color[child] == GREY:
                    cycle = [child, node]
                    walk = node
                    while walk != child:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()
                    return cycle
                if color[child] == WHITE:
                    color[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(sorted(edges.get(child, {})))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def layer_ranks(spec):
    """Longest-path rank of each module in the declared DAG (common = 0);
    used only for the DOT render's rank grouping."""
    ranks = {}

    def rank(module):
        if module not in ranks:
            deps = spec.allowed[module]
            ranks[module] = 0 if not deps else 1 + max(rank(d) for d in deps)
        return ranks[module]

    for module in spec.order:
        rank(module)
    return ranks


def render_dot(edges, spec):
    """Deterministic DOT render of the observed module graph, grouped by
    declared layer rank.  Regenerate the committed copy with:
      python3 scripts/lint/include_graph.py --dot docs/include-graph.dot
    """
    ranks = layer_ranks(spec)
    present = sorted(set(edges) | {d for deps in edges.values() for d in deps})
    lines = [
        "// Module include graph, generated by scripts/lint/include_graph.py",
        "// (checked against the live tree by CI; do not edit by hand).",
        "digraph gridtrust_modules {",
        "  rankdir=BT;",
        "  node [shape=box, fontname=\"Helvetica\", fontsize=11];",
    ]
    by_rank = {}
    for module in present:
        by_rank.setdefault(ranks.get(module, 0), []).append(module)
    for rank_value in sorted(by_rank):
        members = " ".join(f'"{m}";' for m in sorted(by_rank[rank_value]))
        lines.append(f"  {{ rank=same; {members} }}")
    for module in present:
        for dep in sorted(edges.get(module, {})):
            lines.append(f'  "{module}" -> "{dep}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_tree(root, spec, out=sys.stdout):
    """Runs every check; returns (violations, edges)."""
    edges, errors = collect_edges(root)
    violations = list(errors)
    for module in sorted(edges):
        if module not in spec.allowed:
            violations.append(
                f"module '{module}' (under {root}) is not declared in the "
                "layering; add it to the layer spec")
            continue
        for dep in sorted(edges[module]):
            if dep in spec.allowed.get(module, set()):
                continue
            if module in spec.allowed.get(dep, set()):
                kind = (f"upward edge: '{dep}' is declared above "
                        f"'{module}' in the layering")
            else:
                kind = "cross edge not in the declared layering"
            examples = "; ".join(edges[module][dep])
            violations.append(
                f"forbidden include edge {module} -> {dep} ({kind}); "
                f"e.g. {examples}")
    cycle = find_cycle(edges)
    if cycle is not None:
        violations.append(
            "include cycle between modules: " + " -> ".join(cycle))
    for violation in violations:
        print(f"include-graph: {violation}", file=out)
    return violations, edges


# --------------------------------------------------------------------------
# Self-test over tests/lint/include_graph fixtures
# --------------------------------------------------------------------------

def self_test(fixtures_dir):
    """Each fixture directory holds layers.txt + src/; expect.txt names the
    verdict: 'clean', or one substring the failure output must contain."""
    fixtures = sorted(p for p in Path(fixtures_dir).iterdir() if p.is_dir())
    if not fixtures:
        print(f"self-test: no fixtures under {fixtures_dir}", file=sys.stderr)
        return 2
    failures = 0
    for fixture in fixtures:
        spec = parse_layers((fixture / "layers.txt").read_text())
        expect = (fixture / "expect.txt").read_text().strip()
        import io
        captured = io.StringIO()
        violations, edges = check_tree(fixture / "src", spec, out=captured)
        if expect == "clean":
            ok = not violations
            detail = f"{len(violations)} unexpected violation(s)"
        else:
            ok = any(expect in v for v in violations)
            detail = f"no violation matching {expect!r}"
        if ok:
            print(f"self-test: PASS {fixture.name} "
                  f"({len(violations)} violation(s))")
        else:
            failures += 1
            print(f"self-test: FAIL {fixture.name}: {detail}")
            print(captured.getvalue(), end="")
        if expect == "clean":
            # DOT round-trip on the clean fixture: a faithful render must
            # match itself and detect any drift.
            dot = render_dot(edges, spec)
            if dot == render_dot(edges, spec) and '"app"' in dot:
                print(f"self-test: PASS {fixture.name} dot render stable")
            else:
                failures += 1
                print(f"self-test: FAIL {fixture.name} dot render unstable")
    print(f"self-test: {'FAIL' if failures else 'OK'} "
          f"({len(fixtures)} fixtures, {failures} failure(s))")
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="layering-DAG checker for quoted includes under src/")
    parser.add_argument("--root", type=Path, default=REPO_ROOT / "src",
                        help="source root to scan (default: src/)")
    parser.add_argument("--layers", type=Path,
                        help="layering declaration file (default: built-in)")
    parser.add_argument("--dot", type=Path,
                        help="write the DOT render of the observed graph")
    parser.add_argument("--check-dot", type=Path,
                        help="fail if FILE differs from the live DOT render")
    parser.add_argument("--self-test", action="store_true",
                        help="check the fixtures under tests/lint/")
    parser.add_argument("--fixtures", type=Path,
                        default=REPO_ROOT / "tests" / "lint" / "include_graph",
                        help="fixture directory for --self-test")
    parser.add_argument("--list-layers", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(args.fixtures)

    layers_text = (args.layers.read_text(encoding="utf-8")
                   if args.layers else DEFAULT_LAYERS)
    try:
        spec = parse_layers(layers_text)
    except ValueError as error:
        print(f"include-graph: bad layer declaration: {error}",
              file=sys.stderr)
        return 2

    if args.list_layers:
        for module in spec.order:
            print(f"{module}: {' '.join(sorted(spec.allowed[module]))}")
        return 0

    if not args.root.is_dir():
        print(f"include-graph: no such directory: {args.root}",
              file=sys.stderr)
        return 2

    violations, edges = check_tree(args.root, spec)
    dot = render_dot(edges, spec)
    if args.dot:
        args.dot.write_text(dot, encoding="utf-8")
        print(f"include-graph: wrote {args.dot}")
    if args.check_dot:
        committed = (args.check_dot.read_text(encoding="utf-8")
                     if args.check_dot.exists() else "")
        if committed != dot:
            violations.append("committed DOT render is stale")
            print(
                f"include-graph: {args.check_dot} is stale — regenerate "
                f"with: python3 scripts/lint/include_graph.py --dot "
                f"{args.check_dot}")
    status = "FAIL" if violations else "OK"
    modules = sorted(set(edges) | {d for m in edges.values() for d in m})
    print(f"include-graph: {status} — {len(modules)} modules, "
          f"{sum(len(d) for d in edges.values())} edges, "
          f"{len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
