"""Checks on the package's structure: one text codec, no private imports,
input layouts and model fields known only to the modules that read them, one
owner each of id alignment and manifest paths, one caller of the model sniff,
and no scipy."""

import ast
import os
import pathlib
import subprocess
import sys

import metaembed
from metaembed.modelio import FIELDS

PACKAGE = pathlib.Path(metaembed.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _open_mode(call: ast.Call):
    """The mode argument of an ``open`` call: a string, None when absent, ... when not a literal."""
    node = call.args[1] if len(call.args) > 1 else None
    for kw in call.keywords:
        if kw.arg == "mode":
            node = kw.value
    if node is None:
        return None
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ...


def text_opens(tree):
    """Line numbers of calls to builtin or ``io.open`` that may open a file in text mode."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open" or (
            isinstance(f, ast.Attribute) and f.attr == "open"
            and isinstance(f.value, ast.Name) and f.value.id == "io"
        ):
            mode = _open_mode(node)
            if not isinstance(mode, str) or "b" not in mode:
                lines.append(node.lineno)
        elif isinstance(f, ast.Attribute) and f.attr in ("read_text", "write_text"):
            lines.append(node.lineno)
    return lines


def private_imports(tree):
    """``_name`` imported from another module of the package, as (line, module, name)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "metaembed"
            for alias in node.names if internal else ():
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append((node.lineno, node.module, alias.name))
    return sorted(found)


# what cli.py reaches only through store.load_table and datasets.load_dataset, the hash it takes
# from their digests, and the feature matrix it leaves unbuilt: probes gather every split from the table
CLI_FORBIDDEN = frozenset({"read_lines", "sniff_table_kind", "load_sequence_table", "pair_feature_matrix",
                           "file_digest"})


def imported_packages(tree) -> set:
    """The top-level package of every absolute import in a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def names_used(tree) -> set:
    """Every name a module imports, reads or reaches as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def literal_lines(tree, text: str) -> list:
    """Line numbers of string literals (docstrings and f-string parts too) containing *text*."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value)


def offenders(check, modules) -> dict:
    return {p.name: found for p in modules if (found := check(parsed(p)))}


def test_package_modules_found():
    assert {"textio.py", "store.py", "cli.py"} <= {p.name for p in MODULES}


def test_no_private_names_imported_across_modules():
    assert offenders(private_imports, MODULES) == {}


def test_only_textio_opens_text_files():
    assert offenders(text_opens, [p for p in MODULES if p.name != "textio.py"]) == {}


def users_of(name: str) -> set:
    """The modules other than textio that import or name *name*."""
    return {p.stem for p in MODULES if p.name != "textio.py" and name in names_used(parsed(p))}


def test_one_reader_of_rows():
    # every file is read through Lines, and tables and models are parsed through read_rows
    assert users_of("Lines") == {"store", "modelio", "datasets"}
    assert users_of("read_rows") == {"store", "modelio"}
    textio = parsed(PACKAGE / "textio.py")
    assert "read_lines" not in {node.name for node in ast.walk(textio) if isinstance(node, ast.FunctionDef)}


def test_cli_reads_inputs_only_through_load_table_and_load_dataset():
    assert names_used(parsed(PACKAGE / "cli.py")) & CLI_FORBIDDEN == set()


def test_no_module_imports_scipy():
    tree = ast.parse("import numpy as np, scipy.linalg\nfrom scipy import linalg\nfrom .linalg import x\n")
    assert imported_packages(tree) == {"numpy", "scipy"}
    assert offenders(lambda tree: imported_packages(tree) & {"scipy"}, MODULES) == {}


def test_only_datasets_knows_the_official_header():
    others = [p for p in MODULES if p.name != "datasets.py"]
    assert offenders(lambda tree: literal_lines(tree, "pair_ID"), others) == {}


def test_only_store_refuses_disjoint_tables():
    assert set(offenders(lambda tree: literal_lines(tree, "no shared ids"), MODULES)) == {"store.py"}


def function_lines(tree, function: str) -> set:
    """The line numbers of the function *function*."""
    return {ln for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == function
            for ln in range(node.lineno, node.end_lineno + 1)}


def lines_outside(tree, text: str, function: str) -> list:
    """Lines of code literals containing *text* outside the function *function*; the module docstring
    does not count."""
    inside = function_lines(tree, function)
    docstring = tree.body[0].lineno if ast.get_docstring(tree) is not None else None
    return [ln for ln in literal_lines(tree, text) if ln not in inside and ln != docstring]


def test_cli_names_manifest_paths_only_in_the_manifest_writer():
    tree = parsed(PACKAGE / "cli.py")
    assert literal_lines(tree, ".manifest.json") != []
    assert lines_outside(tree, ".manifest.json", "_write_manifest") == []


def field_lists(tree) -> list:
    """Lines of list or tuple literals that list a model kind's hyperparameter field names in order, as
    strings (``("dims", "tau")``) or as the first items of pairs (``[("dims", dims), ("tau", tau)]``)."""
    kinds = set(FIELDS.values())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.List, ast.Tuple)):
            firsts = [e.elts[0] if isinstance(e, ast.Tuple) and e.elts else e for e in node.elts]
            if tuple(n.value for n in firsts if isinstance(n, ast.Constant) and isinstance(n.value, str)) in kinds:
                found.add(node.lineno)
    return sorted(found)


def test_only_modelio_lists_a_model_kinds_fields():
    assert set(offenders(field_lists, MODULES)) == {"modelio.py"}
    tree = ast.parse(
        '_FIELDS = ("n", "dims", "proj", "att", "enc", "seed", "classes")\n'
        'write_model(p, "GCCA", [("dims", d), ("tau", t)], b)\n'
        'read_model(p, ("SVDMETA",), ["dims"])\n'
        'mf.one("tau", float)\n'
        'write_model(p, "GCCA", [dims, tau], [("mean0", m), ("proj0", p)])\n'
    )
    assert field_lists(tree) == [1, 2, 3]


def calls_outside(tree, name: str, function: str) -> list:
    """Lines of calls to *name* outside the function *function*."""
    inside = function_lines(tree, function)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == name and node.lineno not in inside)


def test_cli_sniffs_a_model_kind_only_in_info():
    # apply and eval read a model once, its kind checked inside the read; info sniffs first, so that it
    # never decodes a whole table only to learn that it is not a model
    tree = parsed(PACKAGE / "cli.py")
    assert "sniff_model_kind" in names_used(tree)
    assert calls_outside(tree, "sniff_model_kind", "cmd_info") == []
    assert calls_outside(ast.parse("def cmd_info(p):\n    sniff_model_kind(p)\n"
                                   "def _load_model(p):\n    sniff_model_kind(p)\n"),
                         "sniff_model_kind", "cmd_info") == [4]


def test_guard_catches_what_it_forbids():
    tree = ast.parse(
        "from .store import _fmt\n"
        "from metaembed.modelio import _x, ok\n"
        "open(p)\n"
        "open(p, 'w', encoding='utf-8')\n"
        "open(p, mode=m)\n"
        "io.open(p, 'r')\n"
        "open(p, 'rb')\n"
        "path.write_text(s)\n"
    )
    assert private_imports(tree) == [(1, "store", "_fmt"), (2, "metaembed.modelio", "_x")]
    assert text_opens(tree) == [3, 4, 5, 6, 8]
    tree = ast.parse(
        "from .textio import read_lines as rl\n"
        "import metaembed.store.sniff_table_kind\n"
        "store.load_sequence_table(p)\n"
        "h = f'{x} pair_ID'\n"
        "'doc: pair_ID'\n"
    )
    assert {"read_lines", "sniff_table_kind", "load_sequence_table"} <= names_used(tree)
    assert literal_lines(tree, "pair_ID") == [4, 5]
    tree = ast.parse(
        "'writes x.manifest.json'\n"
        "def _write_manifest(out):\n"
        "    return f'{out}.manifest.json'\n"
        "def cmd(out):\n"
        "    return f'{out}.manifest.json'\n"
    )
    assert lines_outside(tree, ".manifest.json", "_write_manifest") == [5]


def run_fresh(code: str) -> list:
    """The stdout lines of *code* run in a new interpreter that imports the package from source."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    return done.stdout.splitlines()


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, metaembed.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_fresh(code) == ["[]"]


def test_gcca_fit_and_a_failing_cholesky_leave_scipy_unloaded():
    code = """
import sys
import numpy as np
from metaembed.ensembles import fit_gcca
from metaembed.errors import NotPositiveDefiniteError
from metaembed.linalg import cholesky
rng = np.random.default_rng(0)
print(fit_gcca([rng.normal(size=(9, 3)), rng.normal(size=(9, 2))], 2).dim)
try:
    cholesky(np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
except NotPositiveDefiniteError as exc:
    print(exc.pivot_index, exc.pivot_value)
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    assert run_fresh(code) == ["2", "1 0.0", "[]"]


def test_commands_import_only_the_layers_they_run():
    code = """
import contextlib, io, os, sys, tempfile
import numpy as np
from metaembed import cli
from metaembed.store import EmbeddingTable, save_vector_table
os.chdir(tempfile.mkdtemp())
rng = np.random.default_rng(0)
for k in range(2):
    save_vector_table(f"t{k}.vec", EmbeddingTable([f"s{i}" for i in range(9)], rng.normal(size=(9, 3))))
commands = [["combine", "--method", "con", "--inputs", "t0.vec", "t1.vec", "--out", "c.vec"], ["info", "c.vec"]]
for method in ("svd", "gcca"):
    commands += [["fit", "--method", method, "--inputs", "t0.vec", "t1.vec", "--d", "2", "--out", method],
                 ["apply", method, "--inputs", "t0.vec", "t1.vec", "--out", method + ".vec"], ["info", method]]
with open("pairs.tsv", "w") as f:
    f.write("s1\\ts2\\t1.5\\t-\\t-\\ns3\\ts4\\t3\\t-\\t-\\ns5\\ts6\\t4\\t-\\t-\\n")
layers, loaded = ("dynamic", "lstm", "probes", "evaluation"), []
for batch in (commands, [["eval", "sts", "--inputs", "svd.vec", "--dataset", "pairs.tsv"]]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in batch]
    loaded.append((codes, sorted(m for m in sys.modules if m.split(".")[-1] in layers)))
print(loaded)
"""
    assert run_fresh(code) == [str([([0] * 8, []), ([0], ["metaembed.evaluation"])])]
