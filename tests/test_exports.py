"""Every exported name of the package and its modules resolves, lazily.

The package root loads a name's submodule on first use, and each entry
point imports only the modules it runs: the bundled-table loaders and
``group`` never load numpy, nor ``scores`` or ``tasks``, which import it.
The import checks below run in a fresh interpreter, so modules other tests
loaded do not hide a regression.
"""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mtl_affinity

MODULES = ["mtl_affinity"] + [f"mtl_affinity.{info.name}"
                              for info in pkgutil.iter_modules(mtl_affinity.__path__)]
SRC = Path(mtl_affinity.__file__).resolve().parent.parent
TRAINING_STACK = ["experiment", "models", "autodiff"]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} has no __all__"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_package_names_are_their_submodules_objects():
    submodules = [importlib.import_module(name) for name in MODULES[1:]]
    for name in mtl_affinity.__all__:
        if name == "__version__":
            continue
        owners = [m for m in submodules if name in m.__all__]
        assert len(owners) == 1, f"{name} is exported by {[m.__name__ for m in owners]}"
        assert getattr(mtl_affinity, name) is getattr(owners[0], name), name


def test_dir_lists_every_exported_name():
    assert set(mtl_affinity.__all__) <= set(dir(mtl_affinity))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from mtl_affinity import *", namespace)
    for name in mtl_affinity.__all__:
        assert namespace[name] is getattr(mtl_affinity, name), name


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="'mtl_affinity' has no attribute 'nope'"):
        mtl_affinity.nope
    with pytest.raises(ImportError, match="nope"):
        exec("from mtl_affinity import nope", {})


def test_from_package_import_submodule_returns_the_module():
    namespace: dict = {}
    exec("from mtl_affinity import experiment", namespace)
    assert namespace["experiment"] is importlib.import_module("mtl_affinity.experiment")


def loaded_modules(code: str, block_numpy: bool = False) -> set[str]:
    """The modules that ``code`` leaves loaded in a fresh interpreter.

    With ``block_numpy``, any import of numpy in the child raises, so code
    that needs it fails instead of loading it.
    """
    block = "sys.modules['numpy'] = None\n" if block_numpy else ""
    child = (f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{block}{code}\n"
             "print(json.dumps(sorted(name for name, module in sys.modules.items()\n"
             "                        if module is not None)))")
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


def loaded_submodules(code: str) -> set[str]:
    """The package submodules that ``code`` leaves loaded in a fresh interpreter."""
    return {name.split(".", 1)[1] for name in loaded_modules(code)
            if name.startswith("mtl_affinity.")}


BUNDLED_LOADS = ("from mtl_affinity import paper_data\n"
                 "paper_data.load_gain()\npaper_data.load_all_affinities()\n"
                 "paper_data.load_expected_level1()\npaper_data.load_expected_level2()\n"
                 "paper_data.load_expected_level3()")


def test_package_import_loads_no_submodule():
    assert loaded_submodules("import mtl_affinity") == set()


def test_bundled_tables_load_only_what_they_read():
    loaded = loaded_submodules(BUNDLED_LOADS)
    assert "paper_data" in loaded
    assert not loaded & {*TRAINING_STACK, "grouping", "seeding"}


def test_experiment_import_loads_no_grouping_tables_or_cli():
    loaded = loaded_submodules("import mtl_affinity.experiment")
    assert "models" in loaded
    assert not loaded & {"grouping", "paper_data", "cli"}


def test_cli_import_loads_only_what_the_parser_needs():
    loaded = loaded_submodules("import mtl_affinity.cli")
    assert not loaded & {*TRAINING_STACK, "grouping", "paper_data"}


GROUP = "from mtl_affinity.cli import main\nassert main({argv!r}) == 0"


def entry_point_code(case: str, tmp_path) -> str:
    """The child code of one numpy-free entry point; ``group_gain`` reads a CSV in ``tmp_path``."""
    gain = tmp_path / "gain.csv"
    gain.write_text("with,a,b,c\na,,1.5,-2.0\nb,3.0,,0.5\nc,-1.0,2.5,\n")
    return {"bundled_loads": BUNDLED_LOADS,
            "cli_import": "import mtl_affinity.cli",
            "group_gain": GROUP.format(argv=["group", "--gain", str(gain), "--budget", "6"]),
            "group_bundled": GROUP.format(argv=["group", "--budget", "7.5"])}[case]


@pytest.mark.parametrize("block_numpy", [False, True], ids=["numpy_free", "numpy_blocked"])
@pytest.mark.parametrize("case", ["bundled_loads", "cli_import", "group_gain", "group_bundled"])
def test_tables_and_group_never_import_numpy(case, block_numpy, tmp_path):
    # Blocked, a hidden import of numpy fails the child instead of loading it.
    assert "numpy" not in loaded_modules(entry_point_code(case, tmp_path),
                                         block_numpy=block_numpy)


@pytest.mark.parametrize("case", ["bundled_loads", "group_gain"])
def test_tables_and_group_load_neither_scores_nor_tasks(case, tmp_path):
    # The kind table and assemble_matrix live in evaluation, the taxonomy
    # parser in matrices, so the table path stays off the numpy modules.
    assert not loaded_submodules(entry_point_code(case, tmp_path)) & {"scores", "tasks"}
