"""Start-up fence: heavy modules stay off the import graph that needs none.

Each check imports in a fresh interpreter, since this test process has
long since loaded everything.  Every ``repro`` package resolves its public
names lazily (PEP 562), so the public surface is tested here too.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(probe: str) -> str:
    """The last line ``probe`` prints, run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.splitlines()[-1]


def _loaded_after(statement: str, module: str) -> bool:
    """Whether ``module`` is in ``sys.modules`` after ``statement`` runs in a
    fresh interpreter."""
    return _run(f"import sys\n{statement}\nprint({module!r} in sys.modules)") == "True"


def _cli(*argv: str) -> str:
    """A statement that runs one ``repro`` command in-process."""
    return (
        "from repro.cli import main\n"
        "try:\n"
        f"    main({list(argv)!r})\n"
        "except SystemExit:\n"  # --help exits from argparse
        "    pass"
    )


@pytest.mark.parametrize(
    "statement, module",
    [
        ("import repro.cli", "scipy"),
        ("import repro", "numpy"),
        ("import repro.obs", "numpy"),
        ("import repro.gpusim", "concurrent.futures.process"),
        ("import repro.cli", "numpy"),
        pytest.param(_cli("--help"), "numpy", id="repro --help-numpy"),
        pytest.param(_cli("info"), "numpy", id="repro info-numpy"),
        pytest.param(
            _cli("plan", "--network", "lenet"),
            "concurrent.futures",
            id="repro plan --network lenet-concurrent.futures",
        ),
        pytest.param(
            _cli("sweep", "--layer", "CV7"),
            "concurrent.futures.process",
            id="repro sweep-concurrent.futures.process",
        ),
    ],
)
def test_import_does_not_load(statement, module):
    assert not _loaded_after(statement, module)


def _modules(package: str) -> list[str]:
    """Every module of ``package`` under ``src``, its subpackages included."""
    return sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in SRC.joinpath(*package.split(".")).rglob("*.py")
    )


def test_every_module_imports_first():
    """Each module imports with no other ``repro`` module loaded, so no
    import cycle hides behind the order another module's imports run in."""
    probe = (
        "import importlib, json, sys\n"
        "failures = []\n"
        f"for name in {_modules('repro')!r}:\n"
        "    for key in [k for k in sys.modules if k.split('.')[0] == 'repro']:\n"
        "        del sys.modules[key]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception as exc:\n"
        "        failures.append(f'{name}: {type(exc).__name__}: {exc}')\n"
        "print(json.dumps(failures))"
    )
    assert json.loads(_run(probe)) == []


def test_numeric_fft_conv_loads_scipy_on_first_call():
    """The one SciPy user imports it when called (and the probe can say yes)."""
    run_fft = (
        "import numpy as np\n"
        "from repro.layers import ConvSpec\n"
        "from repro.layers.conv import conv_fft\n"
        "spec = ConvSpec(n=1, ci=1, h=4, w=4, co=1, fh=3, fw=3)\n"
        "conv_fft(np.ones((1, 1, 4, 4)), np.ones((1, 1, 3, 3)), spec)"
    )
    assert _loaded_after(run_fft, "scipy")


@pytest.mark.parametrize("user_value, expected", [(None, "1"), ("3", "3")])
def test_cli_caps_openblas_threads_unless_the_user_chose(user_value, expected):
    """NumPy, loaded after a CLI command starts, sees one OpenBLAS thread by
    default and the user's count when one is set; importing the CLI alone
    leaves the environment as it was."""
    chosen = (
        f"os.environ['OPENBLAS_NUM_THREADS'] = {user_value!r}"
        if user_value
        else "os.environ.pop('OPENBLAS_NUM_THREADS', None)"
    )
    probe = (
        f"import os, sys\n{chosen}\n"
        "import repro.cli\n"
        f"assert os.environ.get('OPENBLAS_NUM_THREADS') == {user_value!r}\n"
        "repro.cli.main(['info'])\n"
        "assert 'numpy' not in sys.modules\n"
        "import numpy\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])"
    )
    assert _run(probe) == expected


def _module_level_imports(name: str) -> set[str]:
    """The ``repro`` modules that importing ``name`` runs directly: its
    module-level imports outside ``if TYPE_CHECKING:``, and the packages
    on the way to each."""
    path = SRC.joinpath(*name.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    targets: set[str] = set()
    statements = list(ast.parse(path.read_text()).body)
    while statements:
        node = statements.pop()
        if isinstance(node, ast.If) and "TYPE_CHECKING" not in ast.unparse(node.test):
            statements += node.body + node.orelse
        elif isinstance(node, ast.Try):
            statements += node.body + node.orelse + node.finalbody
            statements += [s for handler in node.handlers for s in handler.body]
        elif isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")[: package.count(".") + 2 - node.level]
                module = ".".join(parts + [module] if module else parts)
            targets.add(module)
            targets.update(f"{module}.{alias.name}" for alias in node.names)
    runs: set[str] = set()
    for target in targets:
        parts = target.split(".")
        runs.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return (runs & set(_modules("repro"))) - {name}


def test_module_imports_are_acyclic():
    """No chain of module-level imports leads from a module back to itself."""
    graph = {name: _module_level_imports(name) for name in _modules("repro")}
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        if name in path:
            cycle = path[path.index(name):] + (name,)
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if name not in done:
            for target in sorted(graph[name]):
                visit(target, path + (name,))
            done.add(name)

    for name in graph:
        visit(name, ())


SUBPACKAGES = (
    "analysis", "core", "framework", "gpusim", "ir", "layers", "networks", "tensors",
    "analysis.dataflow", "analysis.rules", "baselines", "data", "extensions", "obs",
)


def _public_names():
    yield from (pytest.param(repro, name, id=name) for name in repro.__all__)
    for sub in SUBPACKAGES:
        module = importlib.import_module(f"repro.{sub}")
        for name in module.__all__:
            yield pytest.param(module, name, id=f"{sub}.{name}")


def _defining_module(package, name: str):
    """The module that binds ``name`` itself, following lazy re-exports."""
    for submodule, names in getattr(package, "_EXPORTS", {}).items():
        if name in names:
            module = importlib.import_module(f".{submodule}", package.__name__)
            return _defining_module(module, name)
    return package


@pytest.mark.parametrize("module, name", _public_names())
def test_public_name_resolves(module, name):
    """A public name is its defining module's object, also once every
    submodule is imported (a submodule named like the name would rebind
    the package attribute to itself)."""
    for submodule in _modules(module.__name__):
        importlib.import_module(submodule)
    assert getattr(module, name) is vars(_defining_module(module, name))[name]
    assert name in dir(module)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro, "no_such_name")
