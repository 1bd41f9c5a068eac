"""What each command loads, and the lazy package namespace."""

import importlib
import json
import subprocess
import sys

import pytest

import starmetric
from starmetric import S4, X4
from starmetric.fileio import space_to_json_text
from helpers import scale

# every name the package exported before its namespace became lazy, by the
# submodule that defined it
EXPORTED = {
    "decision": (
        "CenterWitness", "DiagnosisReport", "ForbiddenWitness", "Verdict", "diagnose",
        "dplus_space", "embeds_in_dplus", "find_center", "forbidden_scan", "shift", "unshift",
    ),
    "diametrical": (
        "FourPointClass", "MultipartiteSignature", "SimpleGraph", "classify_four_point",
        "diametrical_graph", "graph_to_dot", "multipartite_signature",
    ),
    "errors": (
        "CenterViolationError", "DegenerateLabelingError", "InternalCheckError",
        "InvalidSpaceError", "NotCompleteMultipartiteError", "NotUltrametricError",
        "SizeCapError", "StarmetricError",
    ),
    "lab": (
        "CONJECTURE_IDS", "ConjectureReport", "GeneratorSpec", "check_equidistant",
        "check_k112_conjecture", "check_k13_conjecture", "enumerate_ultrametrics",
        "run_campaign", "sample_dendrogram",
    ),
    "models": ("E4", "MODELS", "S4", "W4", "X4", "Y4", "Z4", "equidistant"),
    "rationals": ("format_rational", "parse_rational"),
    "similarity": (
        "QuadModel", "WeakSimilarityWitness", "are_isometric", "classify_forbidden",
        "model_match", "weakly_similar",
    ),
    "spaces": (
        "FiniteMetricSpace", "Spectrum", "UltraDiagnosis", "Violation", "adjoin_near",
        "min_pair", "min_positive_distance", "rank_matrix", "restrict", "spectrum",
        "swap_isometry", "validate",
    ),
    "stars": (
        "LabeledStarGraph", "LabeledTree", "degenerate_edge", "star_center",
        "star_from_center", "star_metric", "star_to_dot", "tree_metric", "tree_to_dot",
    ),
}
NAMES = {name for names in EXPORTED.values() for name in names}

# runs ``python -m starmetric`` on the given arguments, then writes the
# modules the run added to sys.modules, as a JSON list, to the first argument
LOADED_BY = """
import json, runpy, sys
out, args = sys.argv[1], sys.argv[2:]
before = set(sys.modules)
sys.argv = ["starmetric", *args]
try:
    runpy.run_module("starmetric", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
finally:
    with open(out, "w") as f:
        json.dump(sorted(set(sys.modules) - before), f)
"""

POOL_MODULES = ("multiprocessing", "concurrent.futures.process")
# dataclasses imports inspect, and each frozen dataclass compiles generated code
CODEGEN_MODULES = ("dataclasses", "inspect")
LAB_COMMANDS = ("gen", "conjecture")


def run_python(*argv):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    paths = {}
    for name, space in (("S4", S4), ("X4", X4), ("S4x2", scale(S4, 2))):
        paths[name] = str(tmp / f"{name}.json")
        with open(paths[name], "w") as f:
            f.write(space_to_json_text(space))
    campaign = ("--n", "4", "--alphabet", "1,2", "--mode", "sample", "--count", "5")
    return tmp, {
        "validate": ("validate", paths["S4"]),
        "diagnose": ("diagnose", "--dot", paths["S4"]),
        "star": ("star", paths["S4"]),
        "scan": ("scan", paths["X4"]),
        "shift": ("shift", paths["S4"], "--delta", "1/2"),
        "weaksim": ("weaksim", paths["S4"], paths["S4x2"]),
        "dplus": ("dplus", "1,2"),
        "gen": ("gen", *campaign),
        "conjecture": ("conjecture", "--which", "k13", *campaign, "--jobs", "1"),
    }


class TestCommandImports:
    @pytest.fixture(scope="class")
    def loaded(self, commands):
        tmp, argvs = commands
        modules = {}
        for name, argv in argvs.items():
            out = tmp / f"{name}.modules.json"
            result = run_python("-c", LOADED_BY, str(out), *argv)
            assert result.returncode in (0, 1), (name, result.stderr)
            with open(out) as f:
                modules[name] = json.load(f)
        return modules

    def test_the_diff_sees_the_commands_own_modules(self, loaded):
        for name, modules in loaded.items():
            assert "starmetric.cli" in modules, name

    def test_no_command_loads_the_process_pool(self, loaded):
        for name, modules in loaded.items():
            pool = [m for m in modules if m.startswith(POOL_MODULES)]
            assert pool == [], (name, pool)

    def test_no_command_loads_dataclasses_or_inspect(self, loaded):
        for name, modules in loaded.items():
            codegen = [m for m in modules if m in CODEGEN_MODULES]
            assert codegen == [], (name, codegen)

    def test_only_gen_and_conjecture_load_the_lab(self, loaded):
        assert sorted(n for n, modules in loaded.items() if "starmetric.lab" in modules) == sorted(
            LAB_COMMANDS
        )


class TestNamespace:
    def test_every_exported_name_is_its_modules_object(self):
        for module, names in EXPORTED.items():
            home = importlib.import_module(f"starmetric.{module}")
            for name in names:
                assert getattr(starmetric, name) is getattr(home, name), name

    def test_conjecture_ids_are_one_object(self):
        assert starmetric.lab.CONJECTURE_IDS is starmetric.models.CONJECTURE_IDS

    def test_dir_and_all_list_every_export(self):
        assert NAMES | set(EXPORTED) == set(starmetric.__all__)
        assert len(starmetric.__all__) == len(set(starmetric.__all__))
        assert NAMES | set(EXPORTED) <= set(dir(starmetric))

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from starmetric import *", namespace)
        for name in NAMES:
            assert namespace[name] is getattr(starmetric, name), name
        for module in EXPORTED:
            assert namespace[module] is sys.modules[f"starmetric.{module}"], module

    def test_unknown_attribute_raises_the_standard_error(self):
        with pytest.raises(AttributeError, match=r"^module 'starmetric' has no attribute 'nope'$"):
            starmetric.nope
        assert not hasattr(starmetric, "nope")

    def test_bare_import_loads_no_submodule_and_reaches_each_on_use(self):
        script = (
            "import sys, starmetric\n"
            "assert [m for m in sys.modules if m.startswith('starmetric.')] == []\n"
            "assert starmetric.lab.run_campaign is starmetric.run_campaign\n"
            "assert starmetric.spaces.validate is starmetric.validate\n"
            "print(starmetric.lab.__name__)\n"
        )
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "starmetric.lab\n"
