"""Import costs and the package's public names.

Each subcommand must load only the kslab modules its route runs, the
analytic subcommands must run without importing numpy or orjson (which
only the dense-state reader loads), the
assignment checks without importing numpy.random, and the lazily
resolved package must export exactly the names it always has.  The
identity check's memory is measured against its module's import alone,
and the dense-state check's against the matrix it checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import kslab
from kslab.experiment import required_words

# Runs ``kslab.cli.main`` on the JSON argument list (none: import only)
# and reports its exit code and whether numpy and orjson were imported.
_PROBE = """
import contextlib, io, json, sys
import kslab.cli
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = kslab.cli.main(argv)
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "orjson": "orjson" in sys.modules}))
"""

# Runs ``kslab.cli.main`` on the JSON argument list (none: build the
# parser only) and reports its exit code and the sorted kslab modules,
# and numpy and orjson, loaded by then.
_FOOTPRINT_PROBE = """
import contextlib, io, json, sys
import kslab.cli
argv = json.loads(sys.argv[1])
code = None
with contextlib.redirect_stdout(io.StringIO()):
    if argv:
        code = kslab.cli.main(argv)
    else:
        kslab.cli.build_parser()
loaded = sorted(m for m in sys.modules if m in ("numpy", "orjson") or m.split(".")[0] == "kslab")
print(json.dumps({"code": code, "modules": loaded}))
"""

# Runs a statement with stdout discarded and reports whether numpy and
# numpy.random were imported.
_MODULE_PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps({name: name in sys.modules for name in ("numpy", "numpy.random")}))
"""

# Runs each statement in a child of this standard-library-only launcher
# and prints each child's max-RSS.  A child's max-RSS starts from the
# high-water mark of the process that spawned it, so a launcher far
# smaller than its children keeps the test process's own memory out of
# the figures.
_RSS_LAUNCHER = """
import json, os, sys
peaks = []
for statement in sys.argv[1:]:
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", statement], os.environ)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{statement!r} failed")
    peaks.append(usage.ru_maxrss)
print(json.dumps(peaks))
"""

PUBLIC_NAMES = [
    "Assignment", "BoundReport", "ContradictionCertificate", "DenseState", "ENUMERATION_CAP", "FiniteHVModel", "GhzSuperposition",
    "HvknReport", "IdentityReport", "InequalityReport", "LambdaIndex",
    "PauliString", "ProductState", "VerificationError", "WernerState",
    "apply_spectrally", "bell_fidelity", "bruteforce_report",
    "build_model", "check_D", "check_FUNC", "check_JD", "check_PROD",
    "check_indicator_pullback", "check_measure_lemma", "commutes",
    "decide_violation", "evaluate_experiment", "expectation", "f_value",
    "g_value", "ghz_certificate", "halfgroup_sums",
    "indicator_matrix", "ingest_correlators", "lambda_element",
    "multipartite_bound", "multipartite_report",
    "parse_state_spec", "pauli_mul", "peres_mermin_certificate", "pi_vector",
    "random_commuting_family", "random_density", "random_measure_space",
    "read_dense_state", "required_words", "run_fine_suite", "scan",
    "scan_to_csv", "scan_to_json", "spectrum_subsets",
    "to_density_matrix", "two_partite_report", "verify_hvkn",
    "verify_sum_identities", "write_dense_state",
]


def probe(argv: list[str], env: dict[str, str], script: str = _PROBE) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture
def input_files(tmp_path) -> dict[str, str]:
    multi = tmp_path / "multi.csv"
    multi.write_text(
        "word,value,sigma\n"
        + "".join(f"{w},0.25,0.01\n" for w in required_words("multipartite", 5)),
        encoding="utf-8",
    )
    two = tmp_path / "two.csv"
    two.write_text("word,value,sigma\nXX,0.5,0.02\nYY,0.5,0.02\nZZ,-0.5,0.02\n",
                   encoding="utf-8")
    dense = tmp_path / "dense.txt"
    dense.write_text(
        "2\n" + "".join(" ".join("0.25,0" if i == j else "0,0" for j in range(4)) + "\n"
                        for i in range(4)),
        encoding="utf-8",
    )
    return {"multi": str(multi), "two": str(two), "dense": str(dense)}


NUMPY_FREE = {
    "import": [],
    "scan": ["scan", "--from", "2", "--to", "12", "--format", "json"],
    "ghz": ["violate", "--state", "ghz:n=24,alpha=0.6,beta=0.8"],
    "product": ["violate", "--state", "product:+-+-+-"],
    "bound": ["bound", "--n", "6"],
    "check-multi": ["check", "--file", "{multi}", "--kind", "multi"],
    "check-two": ["check", "--file", "{two}", "--kind", "two"],
    "werner": ["violate", "--state", "werner:lambda=0.5"],
    "product-two": ["violate", "--state", "product:+-"],
    "ghz-two": ["violate", "--state", "ghz:n=2,alpha=0.6,beta=0.8"],
    "certificates": ["verify", "--suite", "certificates"],
    "identities": ["verify", "--suite", "identities"],
    "group": ["group", "--n", "2"],
}


@pytest.mark.parametrize("job", sorted(NUMPY_FREE))
def test_analytic_jobs_do_not_import_numpy(job, kslab_env, input_files):
    argv = [arg.format(**input_files) for arg in NUMPY_FREE[job]]
    outcome = probe(argv, kslab_env)
    assert outcome == {"code": 0 if argv else None, "numpy": False, "orjson": False}


@pytest.mark.parametrize(
    "argv",
    [["bound", "--n", "4", "--bruteforce"], ["verify", "--suite", "hvkn"]],
)
def test_array_jobs_do_import_numpy(argv, kslab_env):
    # the probe sees numpy when a job does load it
    assert probe(argv, kslab_env) == {"code": 0, "numpy": True, "orjson": False}


def test_parser_loads_no_handler_module(kslab_env):
    assert probe([], kslab_env, _FOOTPRINT_PROBE) == {
        "code": None, "modules": ["kslab", "kslab.cli", "kslab.errors"],
    }


# (arguments, modules the job must load, modules it must not load)
FOOTPRINTS = {
    "group": (["group", "--n", "3"], {"kslab.pauli"},
              {"kslab.experiment", "kslab.inequalities", "kslab.states", "numpy", "orjson"}),
    "bound-bruteforce": (["bound", "--n", "4", "--bruteforce"], {"kslab.hv_oracle"},
                         {"kslab.states", "kslab.fine_model", "kslab.experiment"}),
    "check-multi": (["check", "--file", "{multi}", "--kind", "multi"], {"kslab.experiment"},
                    {"kslab.hv_oracle", "kslab.fine_model", "kslab.certificates",
                     "kslab.states", "numpy", "orjson"}),
    "check-two": (["check", "--file", "{two}", "--kind", "two"], {"kslab.experiment"},
                  {"kslab.hv_oracle", "kslab.fine_model", "kslab.certificates",
                   "kslab.states", "numpy", "orjson"}),
    "certificates": (["verify", "--suite", "certificates"], {"kslab.certificates"},
                     {"kslab.hv_oracle", "numpy", "orjson"}),
    "identities": (["verify", "--suite", "identities"], {"kslab.pauli"},
                   {"kslab.hv_oracle", "kslab.states", "numpy", "orjson"}),
    "violate-dense": (["violate", "--state", "dense:@{dense}"], {"kslab.states", "orjson"},
                      {"kslab.hv_oracle", "kslab.fine_model", "kslab.experiment"}),
    "verify-hvkn": (["verify", "--suite", "hvkn"], {"kslab.hv_oracle"},
                    {"kslab.inequalities", "kslab.states", "kslab.fine_model",
                     "kslab.experiment"}),
}


@pytest.mark.parametrize("job", sorted(FOOTPRINTS))
def test_each_job_loads_only_its_route(job, kslab_env, input_files):
    argv, loaded, absent = FOOTPRINTS[job]
    outcome = probe([arg.format(**input_files) for arg in argv], kslab_env, _FOOTPRINT_PROBE)
    assert outcome["code"] == 0
    assert loaded <= set(outcome["modules"])
    assert not absent & set(outcome["modules"])


NUMPY_RANDOM_FREE = {
    "verify_hvkn": "from kslab.hv_oracle import verify_hvkn\nassert verify_hvkn(12).ok",
    "bound-bruteforce": (
        "import kslab.cli\nassert kslab.cli.main(['bound', '--n', '10', '--bruteforce']) == 0"
    ),
    "verify-hvkn": "import kslab.cli\nassert kslab.cli.main(['verify', '--suite', 'hvkn']) == 0",
}


@pytest.mark.parametrize("job", sorted(NUMPY_RANDOM_FREE))
def test_assignment_checks_do_not_import_numpy_random(job, kslab_env):
    result = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, NUMPY_RANDOM_FREE[job]],
        capture_output=True, text=True, env=kslab_env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"numpy": True, "numpy.random": False}


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_identity_check_adds_little_memory_to_its_import(kslab_env):
    result = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, "pass", "import kslab.hv_oracle",
         "import kslab.hv_oracle\nassert kslab.hv_oracle.verify_hvkn(12).ok"],
        capture_output=True, text=True, env=kslab_env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    bare, import_only, checked = json.loads(result.stdout)
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss unit, in bytes
    assert import_only > bare  # the launcher's memory sets neither figure
    assert (checked - import_only) * scale < 4 << 20


# Builds the n = 10 state (I + J/dim)/(dim + 1), J all ones, in place,
# so that the matrix is the largest array the statement holds.
_DENSE10 = """
import numpy as np
from kslab.states import _check_density
dim = 1 << 10
rho = np.full((dim, dim), 1 / (dim * (dim + 1)), dtype=complex)
rho.flat[:: dim + 1] += 1 / (dim + 1)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_density_check_adds_less_than_the_matrix_to_memory(kslab_env):
    # one BLAS thread, so that per-thread BLAS buffers stay out of the figure
    env = dict(kslab_env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, "pass", _DENSE10, _DENSE10 + "_check_density(rho)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    bare, built, checked = json.loads(result.stdout)
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss unit, in bytes
    assert built > bare
    # the factor's panels hold about half the matrix; eigvalsh took a whole copy
    assert (checked - built) * scale < 0.75 * (16 << 20)


def test_bare_package_import_loads_submodules_on_access(kslab_env):
    code = (
        "import sys, kslab\n"
        "before = sorted(m for m in sys.modules if m.startswith('kslab.'))\n"
        "mid = 'numpy' in sys.modules\n"
        "kslab.hv_oracle.verify_hvkn\n"
        "print(before, mid, 'numpy' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=kslab_env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "False", "True"]


def test_public_names_are_unchanged():
    assert sorted(kslab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(kslab, name) is not None
    assert set(PUBLIC_NAMES) <= set(dir(kslab))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from kslab import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["pauli_mul"] is kslab.pauli.pauli_mul


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kslab.no_such_name  # noqa: B018
