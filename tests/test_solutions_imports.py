"""The solution primitives have one home, ``functions/solutions.py``:
no module reaches them through ``pipelines/kg_query.py``, where they
used to live."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
MOVED = {"Solutions", "compact", "_compact", "_reblock", "solution_join",
         "_solution_join"}


def _kg_query_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.endswith("kg_query")):
            for alias in node.names:
                if alias.name in MOVED or alias.name == "*":
                    yield f"{path.relative_to(ROOT)}:{node.lineno} " \
                          f"{alias.name}"


def test_solution_primitives_imported_from_their_module():
    files = [p for d in ("cmc_knowledge_graph_text2ttl_ray", "tests",
                         "kgbench")
             for p in (ROOT / d).rglob("*.py")]
    files += list(ROOT.glob("*.py"))
    assert len(files) > 50
    bad = [hit for p in files for hit in _kg_query_imports(p)]
    assert not bad, bad
