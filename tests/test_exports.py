"""Package surface: every exported name exists, every src name has a caller."""
import ast
from collections import Counter
from pathlib import Path

import entrobound


def test_every_exported_name_resolves():
    missing = [name for name in entrobound.__all__ if not hasattr(entrobound, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(entrobound.__all__) == len(set(entrobound.__all__))


def test_gibbs_family_distance_stays_in_its_module():
    # No preset covers it; it is kept only as a known-bad mixing witness.
    import entrobound.gibbs

    assert "gibbs_family_distance" not in entrobound.__all__
    assert not hasattr(entrobound, "gibbs_family_distance")
    assert callable(entrobound.gibbs.gibbs_family_distance)


SRC = Path(entrobound.__file__).resolve().parent

# The names in src/entrobound that nothing else in src/ refers to, each
# kept for its reason.  Every name perfbench/tracing.py wraps by getattr
# stays in its module, among them channels.mutual_information,
# bounds.max_entropy_with_tail and gibbs' DensityMatrix and
# von_neumann_entropy; it needs an entry here only where src/ does not
# use it, and tests/test_perfbench_tracer.py checks the wraps install.
UNCALLED = {
    "afw.afw_decompose": "the paper's purified mixing decomposition (ROADMAP items 4-5)",
    "channels.apply_local": "a channel on one factor, the paper's local application",
    "channels.output_holevo": "the Holevo quantity of a channel output, the paper's application",
    "channels.channel_zoo": "perfbench/test_smoke.py checks channel_mi on the zoo",
    "channels.mutual_information": "perfbench/tracing.py wraps channels.mutual_information",
    "cli._Parser.error": "argparse calls it on a usage error",
    "ensembles.qc_state": "acceptance criterion 1 reads the Holevo quantity off the qc state",
    "ensembles.split_ensemble": "acceptance criterion 6 checks splitting invariance with it",
    "ensembles.transport_distance": "acceptance criterion 6 checks the transport metric with it",
    "gibbs.gibbs_state": "acceptance criterion 1 checks the Gibbs-family distance against it",
    "gibbs.oscillator_entropy_cap": "acceptance criterion 2 caps the oscillator envelope with it",
    "gibbs.gibbs_family_distance": "the known-bad mixing witness of ROADMAP item 2(e)",
    "operators.fidelity": "test_afw's oracle for the optimal purification overlap",
    "serialization.encode_ensemble": "it writes the documented Ensemble JSON",
}


def _references(node) -> Counter:
    """Every name a node loads or reads as an attribute, by count."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def _uncalled(src: Path) -> set:
    """Qualified names in src that no code in src/ but their own refers to.

    Top-level functions and classes, the public methods of those
    classes, and module-level imports the importing module never uses;
    __init__.py neither counts as a caller nor is checked.
    """
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    found = set()
    for module, tree in trees.items():
        own = _references(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                names = [a.asname or a.name.split(".")[0] for a in node.names]
                found.update(f"{module}.{name}" for name in names if own[name] == 0)
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            for qual, d in defs:
                name = qual.rsplit(".", 1)[-1]
                if total[name] - _references(d)[name] <= 0:
                    found.add(f"{module}.{qual}")
    return found


def test_every_src_name_has_a_caller_or_a_reason():
    uncalled = _uncalled(SRC)
    assert sorted(uncalled - UNCALLED.keys()) == []
    # An entry whose name gained a caller, or is gone, leaves the list.
    assert sorted(UNCALLED.keys() - uncalled) == []
