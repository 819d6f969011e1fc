"""The ``simlint`` static pass: rules, scopes, suppressions, CLI.

Two layers of coverage:

* precise unit checks via :func:`check_source` on inline sources —
  rule id **and** line number are asserted exactly, so a checker that
  drifts to a neighbouring statement fails loudly; and
* the fixture corpus under ``tests/fixtures/simlint/`` driven through
  :func:`lint_paths` and the ``repro lint`` CLI — the bad tree must
  exit non-zero with exactly the planted findings, the good tree (and
  the real ``src/repro`` tree) must exit zero.
"""

import json
import os
import shutil
from pathlib import Path

import jsonschema

import repro
from conftest import run_python
from repro.analysis.simlint import lint_paths
from repro.analysis.simlint.checkers import check_source

FIXTURES = Path(__file__).parent / "fixtures" / "simlint"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"
REPO_ROOT = Path(__file__).parent.parent
SARIF_SCHEMA = json.loads(
    (FIXTURES / "sarif-2.1.0-subset.schema.json").read_text(
        encoding="utf-8"
    )
)


def findings(source: str, posix_path: str = "src/repro/harness/x.py"):
    """(line, rule) pairs for ``source`` linted as ``posix_path``."""
    out = check_source(source, posix_path, posix_path)
    return [(v.line, v.rule) for v in out]


def findings_with_warnings(
    source: str, posix_path: str = "src/repro/harness/x.py"
):
    """Like :func:`findings` but also returns the directive warnings."""
    sink = []
    out = check_source(source, posix_path, posix_path, warnings=sink)
    return [(v.line, v.rule) for v in out], sink


# -- determinism rules, exact line numbers --------------------------------
def test_unseeded_random():
    src = "import random\nrng = random.Random()\n"
    assert findings(src) == [(2, "unseeded-random")]


def test_seeded_random_is_clean():
    src = "import random\nrng = random.Random(42)\n"
    assert findings(src) == []


def test_from_random_import_random_unseeded():
    src = "from random import Random\nrng = Random()\n"
    assert findings(src) == [(2, "unseeded-random")]


def test_module_level_random_use():
    src = "import random\nx = random.choice([1, 2])\n"
    assert findings(src) == [(2, "module-random")]


def test_from_random_import_function():
    src = "from random import shuffle\n"
    assert findings(src) == [(1, "module-random")]


def test_numpy_random():
    src = "import numpy as np\n\n\ndef f():\n    return np.random.rand()\n"
    assert findings(src) == [(5, "numpy-random")]


def test_numpy_seeded_default_rng_is_clean():
    src = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert findings(src) == []


def test_numpy_unseeded_default_rng():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert findings(src) == [(2, "numpy-unseeded-generator")]


def test_numpy_module_level_seed_call_still_flagged():
    src = "import numpy as np\nnp.random.seed(0)\n"
    assert findings(src) == [(2, "numpy-random")]


def test_wallclock_imports_and_urandom():
    src = "import time\nimport os\ntoken = os.urandom(4)\n"
    assert findings(src) == [(1, "wallclock"), (3, "wallclock")]


def test_float_equality_annotation_and_literal():
    src = (
        "LOW = 0.25\n"
        "\n"
        "\n"
        "def f(ewma: float):\n"
        "    if ewma == LOW:\n"
        "        return ewma != 0.5\n"
        "    return False\n"
    )
    assert findings(src) == [(5, "float-equality"), (6, "float-equality")]


def test_float_ordering_is_clean():
    src = "def f(ewma: float):\n    return ewma >= 0.5\n"
    assert findings(src) == []


# -- network-scoped rules --------------------------------------------------
NETWORK_PATH = "src/repro/network/x.py"
SET_LOOP = (
    "def drain(ports):\n"
    "    live = set(ports)\n"
    "    for p in live:\n"
    "        p.drain()\n"
)
DICT_MUTATION = (
    "def expire(table):\n"
    "    for key, value in table.items():\n"
    "        if value is None:\n"
    "            table.pop(key)\n"
)


def test_set_iteration_flagged_in_network_scope():
    assert findings(SET_LOOP, NETWORK_PATH) == [(3, "set-iteration")]


def test_set_iteration_ignored_outside_network_scope():
    assert findings(SET_LOOP, "src/repro/harness/x.py") == []


def test_dict_mutation_while_iterating():
    assert findings(DICT_MUTATION, NETWORK_PATH) == [(4, "dict-mutation")]


def test_mutation_of_other_container_is_clean():
    src = (
        "def move(src_q, dst_q):\n"
        "    for key, value in src_q.items():\n"
        "        dst_q.update({key: value})\n"
    )
    assert findings(src, NETWORK_PATH) == []


# -- hot-path hygiene -------------------------------------------------------
def test_registered_hot_path_class_requires_slots():
    src = "class Flit:\n    def __init__(self):\n        self.vc = -1\n"
    assert findings(src, "src/repro/network/flit.py") == [
        (1, "missing-slots")
    ]


def test_hot_path_comment_marker():
    src = "class Fast:  # simlint: hot-path\n    pass\n"
    assert findings(src) == [(1, "missing-slots")]


def test_dataclass_slots_satisfies_hot_path():
    src = (
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass(slots=True)\n"
        "class Fast:  # simlint: hot-path\n"
        "    x: int = 0\n"
    )
    assert findings(src) == []


def test_attr_created_outside_init_on_slotted_class():
    src = (
        "class S:\n"
        "    __slots__ = ('a',)\n"
        "\n"
        "    def grow(self):\n"
        "        self.b = 1\n"
    )
    assert findings(src) == [(5, "attr-outside-init")]


def test_slot_attr_assigned_in_method_is_clean():
    src = (
        "class S:\n"
        "    __slots__ = ('a',)\n"
        "\n"
        "    def grow(self):\n"
        "        self.a = 1\n"
    )
    assert findings(src) == []


def test_engine_package_classes_are_registered_hot_path():
    src = (
        "class VectorEngine:\n"
        "    def __init__(self):\n"
        "        self.ring = None\n"
    )
    assert findings(src, "src/repro/engine/vector.py") == [
        (1, "missing-slots")
    ]


def test_numpy_array_attrs_in_slots_are_clean_in_engine():
    src = (
        "import numpy as np\n"
        "\n"
        "\n"
        "class VectorEngine:\n"
        "    __slots__ = ('ring',)\n"
        "\n"
        "    def __init__(self):\n"
        "        self.ring = np.zeros(4)\n"
        "\n"
        "    def step_cycle(self):\n"
        "        self.ring[:] = -1\n"
    )
    assert findings(src, "src/repro/engine/vector.py") == []


# -- suppressions -----------------------------------------------------------
def test_per_line_suppression():
    src = (
        "import random\n"
        "rng = random.Random()  # simlint: disable=unseeded-random\n"
    )
    assert findings(src) == []


def test_suppression_is_rule_specific():
    src = (
        "import random\n"
        "rng = random.Random()  # simlint: disable=module-random\n"
    )
    assert findings(src) == [(2, "unseeded-random")]


def test_disable_all_on_line():
    src = "import random\nx = random.random()  # simlint: disable=all\n"
    assert findings(src) == []


def test_suppression_only_covers_its_line():
    src = (
        "import random\n"
        "a = random.Random()  # simlint: disable=unseeded-random\n"
        "b = random.Random()\n"
    )
    assert findings(src) == [(3, "unseeded-random")]


# -- fixture corpus through the API ----------------------------------------
#: Every planted finding in the bad tree, keyed by file.
EXPECTED_BAD = {
    "determinism.py": [
        (9, "wallclock"),
        (11, "unseeded-random"),
        (12, "module-random"),
        (14, "wallclock"),
        (20, "float-equality"),
    ],
    "hotpath.py": [
        (7, "missing-slots"),
        (19, "attr-outside-init"),
    ],
    os.path.join("network", "router_hazards.py"): [
        (10, "set-iteration"),
        (17, "dict-mutation"),
    ],
    "vectorized.py": [
        (8, "numpy-unseeded-generator"),
        (12, "numpy-random"),
    ],
    os.path.join("engine", "numpy_hazards.py"): [
        (14, "numpy-object-dtype"),
        (19, "numpy-python-loop"),
        (21, "numpy-dtype-mixing"),
        (22, "numpy-dtype-mixing"),
        (28, "numpy-append-loop"),
    ],
}


def test_bad_corpus_exact_findings():
    report = lint_paths([str(BAD)])
    assert not report.ok
    assert not report.parse_errors
    by_file = {}
    for violation in report.violations:
        rel = os.path.relpath(violation.path, str(BAD))
        by_file.setdefault(rel, []).append((violation.line, violation.rule))
    assert by_file == EXPECTED_BAD


def test_good_corpus_clean():
    report = lint_paths([str(GOOD)])
    assert report.ok
    assert report.files_checked == 4
    assert report.violations == []
    assert report.warnings == []


def test_repro_source_tree_clean():
    """The tree lints clean — satellite 1 of the simcheck issue, pinned
    so new hazards cannot land silently."""
    src_root = Path(repro.__file__).parent
    report = lint_paths([str(src_root)])
    assert report.ok, report.render()
    assert report.files_checked > 40


# -- CLI ---------------------------------------------------------------------
def run_cli(*args, cwd=None):
    return run_python("-m", "repro", "lint", *args, cwd=cwd)


def test_cli_bad_corpus_exits_nonzero():
    proc = run_cli(str(BAD))
    assert proc.returncode == 1
    assert "unseeded-random" in proc.stdout
    assert "simlint: 16 violation(s)" in proc.stdout


def test_cli_good_corpus_exits_zero():
    proc = run_cli(str(GOOD), "--check")
    assert proc.returncode == 0
    assert "clean" in proc.stdout


def test_cli_defaults_to_repro_tree_and_is_clean():
    proc = run_cli("--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_json_report():
    proc = run_cli(str(BAD), "--json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["ok"] is False
    rules = {v["rule"] for v in payload["violations"]}
    assert "float-equality" in rules
    assert payload["counts_by_rule"]["wallclock"] == 2


def test_cli_accepts_multiple_paths():
    proc = run_cli(str(BAD), str(GOOD))
    assert proc.returncode == 1
    assert "simlint: 16 violation(s) in 9 file(s)" in proc.stdout


def test_cli_multiple_paths_all_clean_exits_zero():
    proc = run_cli(str(GOOD), str(GOOD / "clean.py"), "--check")
    assert proc.returncode == 0
    assert "clean" in proc.stdout


# -- RNG-derived values: what the kept rules leave alone ---------------------
def test_taint_sorted_iteration_is_clean():
    src = (
        "def stable(rng, sink):\n"
        "    live = [rng.randrange(4) for _ in range(3)]\n"
        "    for port in sorted(live):\n"
        "        sink(port)\n"
    )
    assert findings(src, NETWORK_PATH) == []


def test_taint_untainted_float_compare_is_clean():
    src = (
        "def f(rng):\n"
        "    limit = len([1, 2])\n"
        "    return limit == 2\n"
    )
    assert findings(src) == []


# -- numpy hot-path pass ----------------------------------------------------
ENGINE_PATH = "src/repro/engine/x.py"


def test_numpy_object_dtype_ctor_and_astype():
    src = (
        "import numpy as np\n"
        "\n"
        "buf = np.zeros(4, dtype=object)\n"
        "flat = buf.astype(object)\n"
    )
    assert findings(src, ENGINE_PATH) == [
        (3, "numpy-object-dtype"),
        (4, "numpy-object-dtype"),
    ]


def test_numpy_rules_are_engine_scoped():
    src = "import numpy as np\n\nbuf = np.zeros(4, dtype=object)\n"
    assert findings(src, "src/repro/harness/x.py") == []


def test_numpy_append_in_loop_only():
    src = (
        "import numpy as np\n"
        "\n"
        "\n"
        "def grow(samples):\n"
        "    out = np.zeros(0)\n"
        "    out = np.append(out, 1.0)\n"
        "    while samples:\n"
        "        out = np.append(out, samples.pop())\n"
        "    return out\n"
    )
    assert findings(src, ENGINE_PATH) == [(8, "numpy-append-loop")]


def test_numpy_f32_f64_binop_mixing():
    src = (
        "import numpy as np\n"
        "\n"
        "a = np.zeros(4, dtype=np.float32)\n"
        "b = np.zeros(4, dtype=np.float64)\n"
        "c = a + b\n"
    )
    assert findings(src, ENGINE_PATH) == [(5, "numpy-dtype-mixing")]


def test_numpy_accumulate_f32_flagged_f64_clean():
    src = (
        "import numpy as np\n"
        "\n"
        "e32 = np.zeros(4, dtype=np.float32)\n"
        "e64 = np.zeros(4, dtype=np.float64)\n"
        "np.add.accumulate(e32)\n"
        "np.add.accumulate(e64)\n"
    )
    assert findings(src, ENGINE_PATH) == [(5, "numpy-dtype-mixing")]


def test_numpy_python_loop_in_hot_class_only():
    src = (
        "import numpy as np\n"
        "\n"
        "\n"
        "class Lanes:  # simlint: hot-path\n"
        "    __slots__ = ('ring',)\n"
        "\n"
        "    def __init__(self):\n"
        "        self.ring = np.zeros(4)\n"
        "\n"
        "    def spin(self, sink):\n"
        "        for cell in self.ring:\n"
        "            sink(cell)\n"
        "\n"
        "\n"
        "def cold(sink):\n"
        "    ring = np.zeros(4)\n"
        "    for cell in ring:\n"
        "        sink(cell)\n"
    )
    assert findings(src, ENGINE_PATH) == [(11, "numpy-python-loop")]


# -- suppression edge cases -------------------------------------------------
def test_multi_rule_disable_on_one_line():
    src = (
        "import random\n"
        "import time  # simlint: disable=wallclock,module-random\n"
        "from random import shuffle  # simlint: disable=module-random, wallclock\n"
    )
    assert findings(src) == []


def test_disable_on_continuation_line():
    src = (
        "import random\n"
        "value = random.choice(\n"
        "    [1, 2],\n"
        ")  # simlint: disable=module-random\n"
    )
    assert findings(src) == []


def test_unknown_rule_id_warns_not_silent():
    src = "import time  # simlint: disable=not-a-rule\n"
    result, warnings = findings_with_warnings(src)
    assert result == [(1, "wallclock")]
    assert len(warnings) == 1
    assert "unknown rule id 'not-a-rule'" in warnings[0]
    assert ":1: warning:" in warnings[0]


def test_unknown_rule_beside_known_rule_still_suppresses_known():
    src = "import time  # simlint: disable=wallclock,not-a-rule\n"
    result, warnings = findings_with_warnings(src)
    assert result == []
    assert len(warnings) == 1
    assert "not-a-rule" in warnings[0]


def test_disable_file_in_header_after_docstring():
    src = (
        '"""Doc."""\n'
        "\n"
        "# simlint: disable-file=wallclock\n"
        "\n"
        "import time\n"
        "import datetime\n"
    )
    assert findings(src) == []


def test_disable_file_below_first_statement_is_inert_and_warns():
    src = "import time\n# simlint: disable-file=wallclock\n"
    result, warnings = findings_with_warnings(src)
    assert result == [(1, "wallclock")]
    assert len(warnings) == 1
    assert "disable-file" in warnings[0]


def test_disable_file_subsumes_per_line():
    src = (
        "# simlint: disable-file=wallclock\n"
        "import time\n"
        "import datetime  # simlint: disable=wallclock\n"
    )
    assert findings(src) == []


def test_warnings_surface_in_lint_paths_report(tmp_path):
    target = tmp_path / "warned.py"
    target.write_text(
        "x = 1  # simlint: disable=no-such-rule\n", encoding="utf-8"
    )
    report = lint_paths([str(target)])
    assert report.ok  # warnings never flip the exit status
    assert len(report.warnings) == 1
    assert "no-such-rule" in report.warnings[0]
    assert any("no-such-rule" in line for line in report.render().splitlines())


def test_cli_json_includes_warnings(tmp_path):
    target = tmp_path / "warned.py"
    target.write_text(
        "x = 1  # simlint: disable=no-such-rule\n", encoding="utf-8"
    )
    proc = run_cli(str(target), "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert any("no-such-rule" in w for w in payload["warnings"])


def test_clean_tree_passes_the_ci_gate():
    """The CI gate: ``--check`` over the paths CI lints finds nothing —
    any finding fails."""
    proc = run_cli(
        "--check",
        "src/repro",
        "benchmarks",
        "scripts",
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- SARIF export -----------------------------------------------------------
def test_sarif_validates_against_schema():
    report = lint_paths([str(BAD)])
    sarif = report.to_sarif()
    jsonschema.validate(sarif, SARIF_SCHEMA)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "set-iteration" in rule_ids
    assert "attr-outside-init" in rule_ids
    assert "numpy-dtype-mixing" in rule_ids
    assert len(run["results"]) == len(report.violations)


def test_sarif_clean_report_validates():
    report = lint_paths([str(GOOD)])
    sarif = report.to_sarif()
    jsonschema.validate(sarif, SARIF_SCHEMA)
    assert sarif["runs"][0]["results"] == []


def test_sarif_result_location_matches_violation():
    report = lint_paths([str(BAD)])
    sarif = report.to_sarif()
    violation = report.violations[0]
    result = sarif["runs"][0]["results"][0]
    assert result["ruleId"] == violation.rule
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == violation.line
    assert region["startColumn"] == violation.col + 1


def test_sarif_carries_directive_warnings(tmp_path):
    target = tmp_path / "warned.py"
    target.write_text(
        "x = 1  # simlint: disable=no-such-rule\n", encoding="utf-8"
    )
    report = lint_paths([str(target)])
    sarif = report.to_sarif()
    jsonschema.validate(sarif, SARIF_SCHEMA)
    notes = sarif["runs"][0]["invocations"][0][
        "toolExecutionNotifications"
    ]
    assert any("no-such-rule" in n["message"]["text"] for n in notes)


def test_cli_sarif_output(tmp_path):
    proc = run_cli(str(BAD), "--sarif")
    assert proc.returncode == 1  # findings still fail the run
    sarif = json.loads(proc.stdout)
    jsonschema.validate(sarif, SARIF_SCHEMA)
    assert sarif["version"] == "2.1.0"


# -- seeded-hazard regression: inject each hazard class into copies of
# -- real modules and assert the right pass catches it ----------------------
def _copy_module(tmp_path, rel_src, rel_dst):
    dst = tmp_path / rel_dst
    dst.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(REPO_ROOT / "src" / "repro" / rel_src, dst)
    return dst


def _rules_found(path):
    return {v.rule for v in lint_paths([str(path)]).violations}


def test_seeded_rng_taint_hazard_in_network_module(tmp_path):
    target = _copy_module(
        tmp_path, "network/routing.py", "network/routing.py"
    )
    with target.open("a", encoding="utf-8") as fh:
        fh.write(
            "\n\ndef _arb_order(rng, ports):\n"
            "    ready = {rng.randrange(8), 0}\n"
            "    for port in ready:\n"
            "        ports.append(port)\n"
            "    return ports\n"
        )
    assert "set-iteration" in _rules_found(target)


def test_seeded_numpy_hazard_in_engine_module(tmp_path):
    target = _copy_module(
        tmp_path, "engine/vector.py", "engine/vector.py"
    )
    with target.open("a", encoding="utf-8") as fh:
        fh.write(
            "\n\ndef _collect_energy(samples):\n"
            "    out = np.zeros(0)\n"
            "    for value in samples:\n"
            "        out = np.append(out, value)\n"
            "    return out\n"
        )
    assert "numpy-append-loop" in _rules_found(target)


def test_hazard_free_copies_stay_clean(tmp_path):
    """Control for the seeded-hazard tests: the same copies with no
    injection lint clean, so the assertions above isolate the seed."""
    for rel in (
        "network/routing.py",
        "service/jobs.py",
        "service/workers.py",
        "engine/vector.py",
    ):
        target = _copy_module(tmp_path, rel, rel)
        report = lint_paths([str(target)])
        assert report.ok, report.render()


# -- generated rule table ---------------------------------------------------
def test_rule_table_in_docs_is_in_sync():
    proc = run_python("scripts/gen_rule_table.py", "--check", cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
