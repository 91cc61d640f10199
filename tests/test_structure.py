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

# the package's public names; a new export has to be added here on purpose
PUBLIC_NAMES = {
    "BlochForm", "Branch", "CatcorrError", "CorrelationReport", "DephasingParams",
    "DivergentNormalizationError", "DomainError", "Family", "FamilyParams",
    "InvalidDensityError", "PairInputs", "Parity", "SuperpositionSpec",
    "UnsupportedOverlapError", "WEYL_HEISENBERG",
    "apply_dephasing", "bloch_compose", "bloch_decompose", "branch_and_discord",
    "check_density", "concurrence_mixed", "discord_by_measurement_search",
    "discord_trajectory", "geometric_discord_numeric", "k_matrix", "kraus_ops",
    "mixed_discord_closed", "overlap", "pair_density_from_overlaps", "pair_k_spectrum",
    "reduced_pair_density", "su11", "su2", "sudden_death_time", "werner_limit_discord",
    "werner_limit_k_eigenvalues",
}


def test_public_names_are_the_listed_ones():
    assert len(catcorr.__all__) == len(set(catcorr.__all__))
    assert set(catcorr.__all__) == PUBLIC_NAMES
    assert all(hasattr(catcorr, name) for name in catcorr.__all__)


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
