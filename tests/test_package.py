"""The package that imports nothing, the OpenBLAS spin timeout the CLI sets
before numpy loads, the import-time heap the CLI alone freezes against
garbage collection, importing with collection off, the CLI's import that
loads no dataclass, and the names no package module defines any more,
the moved ones being test oracles in tests/oracles.py.
Each test but the last runs a fresh interpreter whose environment holds
neither OpenBLAS timeout variable unless the test presets one."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hybridconsensus
import oracles

SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT_VARS = ("OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")

# records OPENBLAS_THREAD_TIMEOUT as it stands when numpy is first imported
NUMPY_IMPORT_SPY = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, Spy())
"""


def run_python(code: str, **preset: str) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k not in TIMEOUT_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(preset)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_loads_no_numpy_and_leaves_environ_alone():
    out = run_python(
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import hybridconsensus\n"
        "print('numpy' in sys.modules, dict(os.environ) == before, hybridconsensus.__version__)\n"
    )
    assert out == ["False", "True", "0.1.0"]


def test_cli_sets_timeout_before_numpy_loads():
    out = run_python(
        NUMPY_IMPORT_SPY
        + "import hybridconsensus.cli\n"
        + "print(seen, os.environ['OPENBLAS_THREAD_TIMEOUT'], 'GOTO_THREAD_TIMEOUT' in os.environ)\n"
    )
    assert out == ["['20']", "20", "False"]


@pytest.mark.parametrize("var", TIMEOUT_VARS)
def test_user_timeout_is_kept(var):
    out = run_python(
        "import os\n"
        "import hybridconsensus.cli\n"
        f"print(*(os.environ.get(v) for v in {TIMEOUT_VARS!r}))\n",
        **{var: "28"},
    )
    assert out == ["28" if v == var else "None" for v in TIMEOUT_VARS]


def test_cli_import_freezes_the_import_time_heap():
    out = run_python(
        "import gc, numpy\n"
        "n = len(gc.get_objects())\n"
        "import hybridconsensus.cli\n"
        "print(gc.get_freeze_count() >= n)\n"
    )
    assert out == ["True"]


@pytest.mark.parametrize("was_on", [True, False])
def test_cli_import_keeps_the_callers_collector_setting(was_on):
    # the CLI imports with collection off, then freezes the heap and restores the setting
    out = run_python(
        "import gc\n"
        f"{'gc.enable()' if was_on else 'gc.disable()'}\n"
        "import hybridconsensus.cli\n"
        "print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )
    assert out == [str(was_on), "True"]


def test_library_import_freezes_nothing():
    out = run_python(
        "import gc, hybridconsensus.analysis\n"
        "print(gc.get_freeze_count())\n"
    )
    assert out == ["0"]


def test_no_record_is_a_dataclass():
    # the records' generated methods took 6-10 ms of every CLI import; the CLI's
    # import loads no `dataclasses`, which is checked before the probe loads it
    out = run_python(
        "import sys\n"
        "import hybridconsensus.cli\n"
        "print('dataclasses' in sys.modules)\n"
        "import dataclasses\n"
        "print(*sorted(f'{name}.{c.__name__}' for name, module in list(sys.modules.items())\n"
        "              if name.startswith('hybridconsensus') for c in vars(module).values()\n"
        "              if isinstance(c, type) and c.__module__ == name\n"
        "              and dataclasses.is_dataclass(c)))\n"
    )
    assert out == ["False"]  # and no class name


# test oracles, not package API: the tests hold them in tests/oracles.py
MOVED = (
    "continuous_interpolant", "gossip_pair_matrix", "has_spanning_tree", "iteration_matrix",
    "nonconsensus_witness", "sia_limit", "simulate_gossip",
)
# cases 1 and 2 share one builder, one bound and one gain function: `case_matrix`,
# `bound` and `gains` take the case; case 3's matrix is `case_matrix` too, the
# measured disagreement is computed by `verify_run` alone, the
# `StochasticMatrix` constructor checks every matrix it builds, `run` writes
# both its files through `write_replacing`, `verdict_json` takes the verdict, and
# the loaded config is a namespace over the `KEYS` table; the case-3 pair gains
# have one test reference, `oracles.pair_gains_at`; the edge-list round trip is
# `test_edge_form_matches_dense_formula`'s, which writes its own lines
REMOVED = (
    "ExperimentConfig", "bound_case1", "bound_case2", "bound_case3", "case1_matrix",
    "case2_gain", "case2_matrix", "check_stochastic", "disagreement", "gossip_expected_matrix",
    "gossip_interpolant", "verdict_report", "write_edge_list", "write_trajectory_csv",
    "write_verdict_json",
)


def test_no_module_defines_a_moved_or_removed_name():
    modules = [hybridconsensus] + [
        importlib.import_module(f"hybridconsensus.{info.name}")
        for info in pkgutil.iter_modules(hybridconsensus.__path__) if info.name != "__main__"
    ]
    assert len(modules) == 10
    defined = {name for module in modules for name in vars(module)}
    assert not defined & set(MOVED + REMOVED)
    assert set(MOVED) <= set(vars(oracles)) and not set(REMOVED) & set(vars(oracles))
