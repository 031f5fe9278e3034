"""Every public symbol under ``src/repro`` must have a user outside ``tests/``.

The module-level guard (``test_orphan_modules.py``) cannot see a dead
function inside a live module.  This guard covers every public top-level
function and class of the package, and every public method and property
of those classes.

**What counts as a user.**  A reference by bare name -- an ``ast.Name``,
an ``ast.Attribute``'s attribute, an imported name or its alias, or a
string constant that is a single identifier (``getattr``, ``setattr``,
argparse ``dest``) -- in code under ``src/``, ``examples/``,
``benchmarks/`` or ``perfbench/``, outside any ``tests`` directory.
Package ``__init__`` files are not users: a re-export serves nobody.
Matching is by name, not by type, so ``x.run`` keeps every method named
``run`` alive; the guard finds dead names, not dead overloads.

**Cascades.**  A reference made inside the body of a symbol counts only
if that symbol is itself live, and never for the symbol itself.  A class
used only by a dead function is therefore dead too.  A method of a dead
class is reported through its class.  Allow-listed symbols are not live:
what only they reach needs its own entry.

**The allow-list.**  A symbol without a user may instead have an entry in
``ALLOWED``, with a one-line reason.  Only four kinds of entry belong
there, one section each:

(a) test oracles: tests use them to check *other* code;
(b) correctness checks kept for callers to run;
(c) read halves of formats that CI reads back;
(d) test hooks that reset process state between tests.

A symbol whose only tests test the symbol itself is deleted, with those
tests, not allow-listed.  An entry whose symbol is gone, or that now has
a non-test user, fails the guard too, so the list cannot go stale.
"""

import ast
import pathlib

from tests.test_orphan_modules import ROOT, user_files

PACKAGE = ROOT / "src" / "repro"

ALLOWED = {
    # (a) test oracles
    "repro.burgers.exact.exact_solution": "pointwise solution the kernel, heat-app and "
    "exact_on_region tests compare against",
    "repro.burgers.phi.phi_naive": "textbook phi the stable phi is checked against where finite",
    "repro.core.grid.Grid.cell_center": "pointwise cell centres the phi-table path of "
    "exact_on_region is checked against",
    "repro.core.grid.Grid.face_neighbors": "neighbour list the taskgraph and loadbalancer "
    "tests derive expected messages from",
    "repro.core.patch.Patch.face_region": "interior face slab the grid and DW tests check "
    "ghost regions and set_region against",
    "repro.core.patch.Region.intersect": "overlap the grid tests use to check that patches "
    "partition the grid",
    "repro.des.resources.Store.try_get": "used by tests/sunway/cpe_detail.py, the oracle "
    "for CoreRates.cluster_kernel_time",
    "repro.sunway.athread.CompletionFlag.reached": "used by tests/sunway/cpe_detail.py, the "
    "oracle for CoreRates.cluster_kernel_time",
    # (b) correctness checks
    "repro.core.taskgraph.TaskGraph.validate_acyclic": "cycle check for hand-built graphs; "
    "running it on every compile would cost 1-2 % of compile time",
    # (c) read halves of formats CI reads back (the telemetry job's ledger.jsonl)
    "repro.telemetry.ledger.RunLedger.read": "the CI telemetry job reads ledger.jsonl back",
    "repro.telemetry.ledger.LedgerStep.from_dict": "RunLedger.read's per-step parser",
    "repro.telemetry.ledger.RunLedger.total_wall": "the CI telemetry job checks the ledger "
    "it read back",
    # (d) test hooks
    "repro.harness.runner.clear_cache": "drops the process-wide experiment memo between tests",
}


def is_public(name: str) -> bool:
    return not name.startswith("_")


def qualname(path: pathlib.Path, *names: str) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join((*parts, *names))


def covered(path: pathlib.Path, tree: ast.Module):
    """``(qualified name, bare name, class qualified name or None, node)``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or not is_public(node.name):
            continue
        yield qualname(path, node.name), node.name, None, node
        if isinstance(node, ast.ClassDef):
            owner = qualname(path, node.name)
            for item in node.body:
                if isinstance(item, defs[:2]) and is_public(item.name):
                    yield qualname(path, node.name, item.name), item.name, owner, item


def referenced_names(node: ast.AST):
    """Bare names that ``node`` itself refers to (children not included)."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield alias.name.rpartition(".")[2]
            if alias.asname:
                yield alias.asname
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.isidentifier():
            yield node.value


def references(tree: ast.Module, owners: dict):
    """``(name, owner)`` per reference; ``owner`` is the innermost covered
    symbol whose body holds it, or None for code outside every one."""

    def walk(node, owner):
        owner = owners.get(node, owner)
        for name in referenced_names(node):
            yield name, owner
        for child in ast.iter_child_nodes(node):
            yield from walk(child, owner)

    yield from walk(tree, None)


def scan():
    """The covered symbols and the references made from non-test code."""
    symbols = {}  # qualified name -> (bare name, class or None, "file:line")
    owners_by_file = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {}
        for qual, name, cls, node in covered(path, tree):
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            symbols[qual] = (name, cls, where)
            owners[node] = qual
        owners_by_file[path] = (tree, owners)
    refs = {}  # bare name -> set of owners (None = unowned code)
    for path in user_files():
        tree, owners = owners_by_file.get(path) or (ast.parse(path.read_text()), {})
        for name, owner in references(tree, owners):
            refs.setdefault(name, set()).add(owner)
    return symbols, refs


def live_symbols(symbols: dict, refs: dict) -> set:
    """The least fixed point: a symbol is live when a live or unowned piece
    of code other than itself names it (and, for a method, its class is
    live)."""
    live = set()
    changed = True
    while changed:
        changed = False
        for qual, (name, cls, _) in symbols.items():
            if qual in live or (cls is not None and cls not in live):
                continue
            users = refs.get(name, ())
            if any(u is None or (u in live and u != qual) for u in users):
                live.add(qual)
                changed = True
    return live


def test_every_public_symbol_has_a_user_or_a_reason():
    symbols, refs = scan()
    live = live_symbols(symbols, refs)
    dead = {
        qual
        for qual, (_, cls, _) in symbols.items()
        if qual not in live and (cls is None or cls in live)
    }
    orphans = sorted(dead - set(ALLOWED), key=lambda q: symbols[q][2])
    gone = sorted(q for q in ALLOWED if q not in symbols)
    used = sorted(q for q in ALLOWED if q in live)
    lines = [f"{symbols[q][2]} {q}" for q in orphans]
    lines += [f"allow-list entry for a missing symbol: {q}" for q in gone]
    lines += [f"allow-list entry for a symbol with a user: {symbols[q][2]} {q}" for q in used]
    assert not lines, "public symbols with no user outside tests/:\n" + "\n".join(lines)
