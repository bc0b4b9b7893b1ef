"""Guards for the tooling around the package: import cost, the bench tracer,
the bench's library pass and the README's library and command-line examples."""

import ast
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*args: str, env=None, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args``, importing the package from src/.

    Its environment is ``env``, or this process's environment by default.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True, **kwargs
    )


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from src/."""
    return _run("-c", code)


_SCIPY_LOADED = "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
_HELP_RUN = (
    "import runpy, sys\n"
    "sys.argv = ['entrocal', '--help']\n"
    "try:\n"
    "    runpy.run_module('entrocal.cli', run_name='__main__')\n"
    "except SystemExit:\n"
    "    pass\n"
)


def test_no_command_loads_scipy(tmp_path):
    # scipy is a test-only oracle: importing scipy.special alone costs about
    # 0.3 s of start-up, and the simulator's inverse normal CDF is a numpy port.
    assert _run_python(f"import sys, entrocal; {_SCIPY_LOADED}").stdout == "False\n"
    assert _run_python(_HELP_RUN + _SCIPY_LOADED).stdout.endswith("False\n")
    gaussian = tmp_path / "g.json"
    gaussian.write_text('[{"mean": [0.0], "covariance": [[1.0]], "truth": [0.5]}]')
    out = tmp_path / "s.csv"
    commands = [
        ["evaluate", "--input", str(ROOT / "tests" / "data" / "sample_predictions.csv")],
        ["gaussian", "--input", str(gaussian)],
        ["curve", "--grid", "11", "--output", str(tmp_path / "c.svg")],
        ["simulate", "--n", "50", "--seed", "1", "--output", str(tmp_path / "s0.csv")],
        ["simulate", "--n", "1000", "--seed", "7", "--noise-sigma", "0.5",
         "--include-true", "--output", str(out)],
        ["suite", "--sigmas", "0,0.5,2", "--n", "200", "--seed", "1",
         "--out-dir", str(tmp_path / "suite")],
    ]
    for argv in commands:
        code = f"import sys; from entrocal.cli import main; main({argv!r}); {_SCIPY_LOADED}"
        assert _run_python(code).stdout.endswith("False\n"), argv[0]

    # These bytes were pinned while the simulator drew its noise through
    # scipy.special.ndtri: the port keeps the PCG64 draw order and the bits.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c732d39462d3ee11cc5c99311e21122aae1cff937dba5c605a9c5d17792fd92b"
    )


def test_only_gaussian_loads_the_gaussian_reader(tmp_path):
    # The Gaussian JSON readers live in a module of their own that the gaussian
    # command alone imports, so --help and every other command never compile them.
    loaded = "print('entrocal._gaussian_io' in sys.modules)"
    gaussian = tmp_path / "g.json"
    gaussian.write_text('[{"mean": [0.0], "covariance": [[1.0]], "truth": [0.5]}]')
    others = [
        ["evaluate", "--input", str(ROOT / "tests" / "data" / "sample_predictions.csv")],
        ["simulate", "--n", "50", "--seed", "1", "--output", str(tmp_path / "s.csv")],
        ["suite", "--sigmas", "0,0.5", "--n", "200", "--seed", "1",
         "--out-dir", str(tmp_path / "suite")],
        ["curve", "--grid", "11", "--output", str(tmp_path / "c.svg")],
    ]
    runs = "".join(f"assert main({argv!r}) == 0\n" for argv in others)
    assert _run_python(f"{_HELP_RUN}from entrocal.cli import main\n{runs}{loaded}"
                       ).stdout.endswith("False\n")
    argv = ["gaussian", "--input", str(gaussian)]
    code = f"import sys; from entrocal.cli import main; assert main({argv!r}) == 0; {loaded}"
    assert _run_python(code).stdout.endswith("True\n")


def test_help_and_flag_errors_load_no_numpy():
    # argparse judges these before main binds a command's library names, so they
    # load neither numpy nor a library module. A value error, such as --bins 0,
    # comes later: the library type that holds the value judges it.
    runs = [["--help"], ["evaluate", "--input", "x", "--bogus"], ["evaluate"],
            ["simulate", "--n", "1.5", "--output", "s.csv"], ["nosuch"]]
    runs += [[command, "--help"] for command in ("evaluate", "simulate", "suite", "gaussian",
                                                 "curve")]
    loaded = "print('numpy' in sys.modules, sorted(m for m in sys.modules if 'entrocal' in m))"
    for argv in runs:
        code = (f"import sys\nfrom entrocal.cli import main\ntry:\n    main({argv!r})\n"
                f"except SystemExit as exc:\n    print(exc.code)\n{loaded}")
        *_, exit_code, modules = _run_python(code).stdout.splitlines()
        assert exit_code == ("0" if "--help" in argv else "1"), argv
        assert modules == "False ['entrocal', 'entrocal.cli']", argv


def test_commands_load_only_the_modules_they_run(tmp_path):
    gaussian = tmp_path / "g.json"
    gaussian.write_text('[{"mean": [0.0], "covariance": [[1.0]], "truth": [0.5]}]')
    runs = [
        (["evaluate", "--input", str(ROOT / "tests" / "data" / "sample_predictions.csv"),
          "--plots-dir", str(tmp_path / "plots")], {"entrocal.gaussian", "entrocal.simulation"}),
        (["curve", "--grid", "11", "--output", str(tmp_path / "c.svg")],
         {"entrocal.gaussian", "entrocal.simulation"}),
        (["gaussian", "--input", str(gaussian)], {"entrocal.binning", "entrocal.metrics",
                                                  "entrocal.report_io", "entrocal.simulation"}),
    ]
    for argv, absent in runs:
        code = f"import sys\nfrom entrocal.cli import main\nassert main({argv!r}) == 0\n"
        loaded = _run_python(code + "print(*sys.modules)").stdout.split()
        assert "entrocal.cli" in loaded and not absent & set(loaded), argv[0]


def test_commands_that_draw_no_seed_load_no_openssl(tmp_path):
    # secrets imports hmac, whose _hashlib maps OpenSSL's libcrypto: about
    # 3.5 MiB of peak memory. Temp-file names come from os.urandom, and only an
    # interactive seed draw imports secrets. simulate and suite still load
    # _hashlib, through numpy's SeedSequence, so they are not checked here.
    loaded = "print('_hashlib' in sys.modules)"
    assert _run_python(f"import sys, entrocal; {loaded}").stdout == "False\n"
    assert _run_python(_HELP_RUN + loaded).stdout.endswith("False\n")
    gaussian = tmp_path / "g.json"
    gaussian.write_text('[{"mean": [0.0], "covariance": [[1.0]], "truth": [0.5]}]')
    commands = [
        ["evaluate", "--input", str(ROOT / "tests" / "data" / "sample_predictions.csv"),
         "--plots-dir", str(tmp_path / "plots")],
        ["gaussian", "--input", str(gaussian)],
        ["curve", "--grid", "11", "--output", str(tmp_path / "c.svg")],
    ]
    for argv in commands:
        code = f"import sys; from entrocal.cli import main; main({argv!r}); {loaded}"
        assert _run_python(code).stdout.endswith("False\n"), argv[0]
    assert (tmp_path / "c.svg").is_file() and any((tmp_path / "plots").iterdir())


def _env_blas_threads(value) -> dict:
    """This environment with OPENBLAS_NUM_THREADS set to ``value``, or removed if None.

    The test session may have set it already: importing entrocal.cli before
    numpy does.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    return env


def test_import_entrocal_loads_no_numpy_until_a_name_is_used():
    code = (
        "import sys, entrocal\n"
        "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('entrocal')))\n"
        "entrocal.Dataset\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _run_python(code).stdout == "False ['entrocal']\nTrue\n"


def test_cli_import_runs_numpy_on_one_blas_thread_unless_set(tmp_path):
    # Importing the command sets the variable, and numpy reads it when a command
    # loads numpy, so the threads are counted once gaussian has run.
    gaussian = tmp_path / "g.json"
    gaussian.write_text('[{"mean": [0.0], "covariance": [[1.0]], "truth": [0.5]}]')
    code = (
        "import os, sys\n"
        "from entrocal.cli import main\n"
        f"assert main(['gaussian', '--input', {str(gaussian)!r}]) == 0 and 'numpy' in sys.modules\n"
        "tasks = '/proc/self/task'\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], "
        "len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)\n"
    )
    assert _run("-c", code, env=_env_blas_threads(None)).stdout.splitlines()[-1] == "1 1"
    # A caller's own setting wins.
    assert _run("-c", code, env=_env_blas_threads("3")).stdout.splitlines()[-1].split()[0] == "3"
    # A library caller that loaded numpy first keeps its environment.
    first = "import numpy, os, entrocal.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _run("-c", first, env=_env_blas_threads(None)).stdout == "None\n"


def test_star_import_and_dir_give_the_package_names():
    code = (
        "import entrocal\n"
        "names = {}\n"
        "exec('from entrocal import *', names)\n"
        "del names['__builtins__']\n"
        "print(sorted(names) == sorted(entrocal.__all__), len(entrocal.__all__),\n"
        "      set(entrocal.__all__) <= set(dir(entrocal)))\n"
    )
    assert _run_python(code).stdout == "True 41 True\n"


def test_unknown_package_name_is_an_attribute_error():
    import entrocal

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(entrocal, "no_such_name")


def test_gaussian_output_does_not_depend_on_blas_threads(tmp_path):
    # d = 3 factors by LAPACK, the only BLAS or LAPACK call a command makes.
    rng = np.random.default_rng(23)
    n, d = 2000, 3
    a = rng.normal(size=(n, d, d))
    covs = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(d)
    means = rng.normal(0.0, 10.0, (n, d))
    truths = means + rng.normal(size=(n, d))
    path = tmp_path / "g3.json"
    path.write_text(json.dumps([
        {"mean": m, "covariance": c, "truth": t}
        for m, c, t in zip(means.tolist(), covs.tolist(), truths.tolist())
    ]))
    outs = {
        _run("-m", "entrocal.cli", "gaussian", "--input", str(path),
             env=_env_blas_threads(threads)).stdout
        for threads in ("1", "2", None)
    }
    assert len(outs) == 1 and '"d": 3' in outs.pop()


def test_csv_kernel_tables_are_built_on_first_read_or_write(tmp_path):
    # The float kernels' lookup and power tables cost start-up time that only
    # a CSV read or write, or a Gaussian JSON read, needs, so neither the
    # import nor --help builds them.
    built = "import sys; print('entrocal._floattext' in sys.modules)"
    assert _run_python(f"import entrocal; {built}").stdout == "False\n"
    assert _run_python(f"{_HELP_RUN}{built}").stdout.splitlines()[-1] == "False"
    write = "import io, entrocal as e; e.write_dataset_csv(e.Dataset([0.5], [1]), io.StringIO())"
    assert _run_python(f"{write}; {built}").stdout == "True\n"
    read = "import io, entrocal as e; e.load_csv(io.BytesIO(b'prob,label\\n0.5,1\\n'))"
    assert _run_python(f"{read}; {built}").stdout == "True\n"
    gaussian = tmp_path / "g.json"
    gaussian.write_text('[{"mean": [0.0], "covariance": [[1.0]], "truth": [0.5]}]')
    argv = ["gaussian", "--input", str(gaussian)]
    run = _run_python(f"from entrocal.cli import main; main({argv!r}); {built}")
    assert run.stdout.splitlines()[-1] == "True"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    _run_python(code)


def test_readme_command_examples_parse():
    from entrocal.cli import build_parser

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("entrocal ")]
    parsed = [build_parser().parse_args(argv) for argv in commands]
    subcommands = {"evaluate", "simulate", "suite", "gaussian", "curve"}
    assert {args.command for args in parsed} == subcommands


def _tracer_targets() -> tuple:
    """bench/tracer.py's ``WRAPPED``, parsed, not imported, so nothing is written under bench/."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    )


def test_bench_tracer_targets_resolve():
    # The traced benchmark run replaces these names where callers look them
    # up; a rename in the package would silently drop its spans.
    table = _tracer_targets()
    assert table
    for module, attr, _ in table:
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr}"
        )


def test_unused_imports_are_only_tracer_targets():
    # A name the package imports unused (noqa: F401) is there for the tracer alone:
    # a WRAPPED target of its module, imported once and used nowhere else there. So
    # these imports are exactly the ones that timers inside the package would delete.
    targets = {(module, attr) for module, attr, _ in _tracer_targets()}
    unused = []
    for path in sorted((ROOT / "src" / "entrocal").glob("*.py")):
        module = "entrocal" if path.stem == "__init__" else f"entrocal.{path.stem}"
        lines = path.read_text(encoding="utf-8").splitlines()
        tree = ast.parse("\n".join(lines))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        imported = [alias.asname or alias.name for node in imports for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in imports:
            if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                for name in (alias.asname or alias.name for alias in node.names):
                    unused.append(f"{module}.{name}")
                    assert (module, name) in targets, unused[-1]
                    assert imported.count(name) == 1 and name not in used, unused[-1]
    assert unused
    # cli.py imports no library name: each one in its table is used by a command or is
    # there for the tracer alone, and each name the tracer wraps in cli is in the table.
    from entrocal import cli

    tree = ast.parse((ROOT / "src" / "entrocal" / "cli.py").read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    wrapped = {attr for module, attr in targets if module == "entrocal.cli"}
    assert all(name in used or name in wrapped for name in cli._LIBRARY)
    assert wrapped <= set(cli._LIBRARY), sorted(wrapped - set(cli._LIBRARY))
    assert all(getattr(cli, name) for name in cli._LIBRARY)


def test_cli_usage_errors_judge_only_flags_seeds_and_paths():
    # The CLI judges flag syntax, its own memory cap on --bins, seeds and output
    # paths; every value rule belongs to the library type that holds the value,
    # whose ValueError _from_flags turns into a usage error. So a new check of a
    # value in cli.py, a second judge of a library rule, shows up here.
    allowed = {"_from_flags", "_bin_spec", "_resolve_seed", "_parse_sigmas", "_cmd_suite"}
    tree = ast.parse((ROOT / "src" / "entrocal" / "cli.py").read_text(encoding="utf-8"))

    def raises_usage_error(node) -> bool:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "UsageError"

    raisers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Raise)
               if raises_usage_error(node)}
    assert raisers and raisers <= allowed, sorted(raisers - allowed)


def test_bench_library_pass_writes_the_fixture_report(tmp_path):
    # The report-bins workload drives the public names (Dataset, build_report,
    # render_report(...).content, ...); the fixture's arrays must give the
    # fixture's report bytes. -B and a tmp_path output keep bench/ untouched.
    import numpy as np

    from entrocal import load_csv

    data = load_csv(ROOT / "tests" / "data" / "sample_predictions.csv")
    arrays = tmp_path / "sample.npz"
    np.savez(arrays, probs=data.probs, labels=data.labels)
    out = tmp_path / "out"
    _run("-B", str(ROOT / "bench" / "report_bins.py"), str(arrays), str(out), "10", cwd=tmp_path)
    expected = (ROOT / "tests" / "data" / "sample_report.json").read_bytes()
    assert (out / "report-10.json").read_bytes() == expected


def test_bench_traces_one_gaussian_prediction_per_block(tmp_path):
    # The gaussian-json workload's gaussian.prediction span wraps the name the
    # command calls, once for each block of records the array reader reads: once
    # for a 200-record file, and once a block for a longer one. The command folds
    # the blocks' squared distances itself, so gaussian.nees records no span.
    # -B and tmp_path outputs keep bench/ untouched.
    from entrocal import _gaussian_io

    rng = np.random.default_rng(24)
    for d, n in ((2, 200), (3, 200), (3, 3000)):
        a = rng.normal(size=(n, d, d))
        covs = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(d)
        means = rng.normal(0.0, 10.0, (n, d))
        truths = means + rng.normal(size=(n, d))
        path = tmp_path / f"g{d}-{n}.json"
        path.write_text(json.dumps([
            {"mean": m, "covariance": c, "truth": t}
            for m, c, t in zip(means.tolist(), covs.tolist(), truths.tolist())
        ]))
        with open(path, "rb") as fh:
            blocks = sum(1 for _ in _gaussian_io._gaussian_blocks(fh))
        assert (blocks == 1) == (n == 200)
        spans = tmp_path / f"g{d}-{n}.spans.json"
        run = _run("-B", str(ROOT / "bench" / "tracer.py"), str(spans), "1", "cli",
                   "gaussian", "--input", str(path), cwd=tmp_path)
        assert f'"n": {n}, "d": {d}' in run.stdout
        doc = json.loads(spans.read_text(encoding="utf-8"))
        names = [doc["names"][span[0]] for span in doc["spans"]]
        assert (names.count("gaussian.prediction"), names.count("gaussian.nees")) == (blocks, 0)


def test_bench_traces_the_report_stages_of_evaluate_and_suite(tmp_path):
    # The command binds its library names only after its flags parse, and never over
    # a name bound already, so the tracer's wrappers in cli still record each stage.
    # -B and tmp_path outputs keep bench/ untouched.
    runs = [
        (["evaluate", "--input", str(ROOT / "tests" / "data" / "sample_predictions.csv"),
          "--plots-dir", str(tmp_path / "plots")],
         {"binning.build_report": 1, "report_io.render_report": 1, "report_io.svg": 1}),
        (["suite", "--sigmas", "0,0.5", "--n", "200", "--seed", "1",
          "--out-dir", str(tmp_path / "suite")],
         {"binning.build_report": 2, "report_io.render_report": 4,
          "report_io.write_simulated_csv": 2, "simulation.run_noise_suite": 1}),
    ]
    for argv, expected in runs:
        spans = tmp_path / f"{argv[0]}.spans.json"
        _run("-B", str(ROOT / "bench" / "tracer.py"), str(spans), "1", "cli", *argv,
             cwd=tmp_path)
        doc = json.loads(spans.read_text(encoding="utf-8"))
        names = [doc["names"][span[0]] for span in doc["spans"]]
        assert {name: names.count(name) for name in expected} == expected, argv[0]


#: Run the command in argv in a child and print its exit code and ``ru_maxrss`` (KiB).
#: This small interpreter starts it, so that the child's peak does not count the
#: pages of a large parent, as a child forked from the test session would.
_PEAK_RSS = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def test_evaluate_peak_memory_does_not_grow_with_rows(tmp_path):
    # evaluate scores its CSV a 4 MiB block at a time, so 10**6 rows peak
    # within a few MiB of 2.5 * 10**5. Holding every row, the peak grew by
    # about 39 MiB per 10**6 rows. Nor may the peak depend on the length of
    # the input path: when glibc fitted row-length arrays into heap holes, the
    # same 10**6 rows peaked at one of two values 6 MiB apart by that length.
    from entrocal import Dataset, write_dataset_csv

    rng = np.random.default_rng(26)
    for n in (250_000, 1_000_000):
        write_dataset_csv(Dataset(rng.random(n), rng.integers(0, 2, n)), tmp_path / f"{n}.csv")
    long_path = tmp_path / ("long-" * 12 + ".csv")
    long_path.symlink_to(tmp_path / "1000000.csv")
    peaks = []
    for path in ("250000.csv", "1000000.csv", str(long_path)):
        run = _run("-c", _PEAK_RSS, sys.executable, "-m", "entrocal.cli", "evaluate",
                   "--input", path, cwd=tmp_path)
        code, maxrss_kib = map(int, run.stdout.split())
        assert code == 0
        peaks.append(maxrss_kib / 1024)
    assert abs(peaks[1] - peaks[0]) < 6.0, f"peaks {peaks} MiB"
    assert abs(peaks[2] - peaks[1]) < 2.0, f"peaks {peaks} MiB by path length"


def test_gaussian_peak_memory_does_not_grow_with_records(tmp_path):
    # gaussian reads and scores its JSON a 256 KiB block of records at a time, so
    # 10**5 d = 3 records (a 34 MB file) peak within a few MiB of 2.5 * 10**4.
    # Holding every record's stacks, the peak grew by about 1 KiB a record.
    rng = np.random.default_rng(27)
    peaks = []
    for n in (25_000, 100_000):
        a = rng.normal(size=(n, 3, 3))
        covs = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(3)
        means = rng.normal(0.0, 10.0, (n, 3))
        truths = means + rng.normal(size=(n, 3))
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps([
            {"mean": m, "covariance": c, "truth": t}
            for m, c, t in zip(means.tolist(), covs.tolist(), truths.tolist())
        ]))
        run = _run("-c", _PEAK_RSS, sys.executable, "-m", "entrocal.cli", "gaussian",
                   "--input", str(path))
        code, maxrss_kib = map(int, run.stdout.split())
        assert code == 0
        peaks.append(maxrss_kib / 1024)
    assert abs(peaks[1] - peaks[0]) < 3.0, f"peaks {peaks} MiB"


def test_suite_peak_memory_does_not_grow_with_sigmas(tmp_path):
    # suite simulates, writes and drops one run at a time, and writes each CSV a
    # chunk at a time, so six sigmas at n = 125,000 peak within 2 MiB of one.
    # Holding every run, the peak grew by about 4 MiB a sigma.
    peaks = []
    for sigmas in ("0", "0,0.25,0.5,1,1.5,2"):
        run = _run("-c", _PEAK_RSS, sys.executable, "-m", "entrocal.cli", "suite",
                   "--sigmas", sigmas, "--n", "125000", "--seed", "7",
                   "--out-dir", str(tmp_path / sigmas))
        code, maxrss_kib = map(int, run.stdout.split())
        assert code == 0
        peaks.append(maxrss_kib / 1024)
    assert abs(peaks[1] - peaks[0]) < 2.0, f"peaks {peaks} MiB"


def _package_modules() -> list:
    """The package and each of its modules."""
    import entrocal

    return [entrocal, *(importlib.import_module(f"entrocal.{info.name}")
                        for info in pkgutil.iter_modules(entrocal.__path__))]


def test_module_exports_are_package_exports():
    # Each module's __all__ is its part of the package surface: the package
    # exports exactly those names, each once, as the same objects. A name in two
    # modules' lists would let the later star import shadow the earlier one.
    import entrocal

    exported = ["__version__"]
    for module in _package_modules()[1:]:
        for name in getattr(module, "__all__", ()):
            exported.append(name)
            assert name in entrocal.__all__, f"{module.__name__}.{name}"
            assert getattr(entrocal, name) is getattr(module, name), name
    assert len(set(entrocal.__all__)) == len(entrocal.__all__)
    assert sorted(entrocal.__all__) == sorted(exported)


def test_package_version_matches_pyproject():
    # A regex, not tomllib, which Python 3.10 lacks.
    import entrocal

    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == entrocal.__version__


def test_public_names_are_documented():
    # Every name a module exports must exist, and every public function and
    # class of the package must say what it is.
    import entrocal

    for module in _package_modules():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
    undocumented = []
    for name in entrocal.__all__:
        obj = getattr(entrocal, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        # A dataclass without a docstring gets its signature as __doc__.
        if not obj.__doc__ or obj.__doc__.startswith(f"{name}("):
            undocumented.append(name)
    assert not undocumented, f"no docstring: {undocumented}"
