import ast
from pathlib import Path

import catcorr

# (importing module, sibling) -> private names it may import; a new private
# coupling between modules has to be added here on purpose
ALLOWED_PRIVATE_IMPORTS = {
    ("cli", "states"): {"_bloch"},
    ("correlations", "states"): {"_bloch", "_where"},
    ("dephasing", "states"): {"_where"},
}


def test_private_imports_between_modules_are_the_allowed_ones():
    found = {}
    for path in sorted(Path(catcorr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                private = {alias.name for alias in node.names if alias.name.startswith("_")}
                if private:
                    found.setdefault((path.stem, node.module), set()).update(private)
    assert found == ALLOWED_PRIVATE_IMPORTS


def test_oracle_imports_nothing_but_states_and_errors():
    # the Gram route and the measurement search check the closed forms, so
    # they share no code with correlations or dephasing; the Gram route forms
    # its own traced-out product and normalization, so of states it reads no
    # closed-route input
    tree = ast.parse((Path(catcorr.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert {node.module for node in imports} == {"states", "errors"}
    assert {alias.name for node in imports if node.module == "states"
            for alias in node.names} == {"PAULI_PRODUCTS", "SuperpositionSpec", "check_density"}
