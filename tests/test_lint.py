"""The determinism sentinel: static rules, pragmas, CLI gate, sanitizer.

The fixture corpus under ``tests/lint_corpus/`` encodes its own expected
findings as ``# expect: RULE`` end-of-line markers, so every corpus test
asserts the *exact* finding set -- a rule silently disabled (or firing
off-by-one) fails here, which is what makes the CI lint gate trustworthy.
"""

import random
import re
import time
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    DeterminismViolation,
    guard,
    lint_repo,
)
from repro.analysis import sanitizer
from repro.analysis.__main__ import main as lint_main
from repro.analysis.engine import discover_files, lint_file
from repro.util.rng import make_rng
from repro.util.wallclock import wall_perf_counter, wall_time

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "tests" / "lint_corpus"
CORPUS_FILES = sorted(path.name for path in CORPUS.glob("*.py"))

EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rules>[A-Z]\d(?:\s*,\s*[A-Z]\d)*)")


def expected_findings(path: Path) -> list[tuple[int, str]]:
    expected: list[tuple[int, str]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = EXPECT_RE.search(line)
        if match:
            for rule in re.split(r"\s*,\s*", match.group("rules")):
                expected.append((lineno, rule))
    return sorted(expected)


# --------------------------------------------------------------------------
# Corpus: exact findings per file (violations and false-positive guards)
# --------------------------------------------------------------------------

def test_corpus_is_nonempty():
    assert len(CORPUS_FILES) >= 12


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_exact_findings(name):
    path = CORPUS / name
    got = sorted((finding.line, finding.rule) for finding in lint_file(path, REPO_ROOT))
    assert got == expected_findings(path), (
        f"{name}: findings diverge from its # expect: markers -- got {got}"
    )


@pytest.mark.parametrize(
    "rule_id", sorted({spec.rule_id for spec in RULES} | {"P1"})
)
def test_every_rule_fires_on_the_corpus(rule_id):
    """A silently disabled rule cannot pass: each must fire somewhere."""
    fired = {
        finding.rule
        for name in CORPUS_FILES
        for finding in lint_file(CORPUS / name, REPO_ROOT)
    }
    assert rule_id in fired


def test_corpus_is_excluded_from_default_discovery():
    files = discover_files(REPO_ROOT)
    assert files, "default discovery found nothing"
    assert not [path for path in files if "lint_corpus" in path.parts]


# --------------------------------------------------------------------------
# Pragmas
# --------------------------------------------------------------------------

def _lint_source(tmp_path: Path, source: str, rel: str = "src/mod.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_file(path, tmp_path)


def test_def_scoped_pragma_covers_the_whole_body(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import time\n"
        "\n"
        "# repro: allow(D2, reason=bench helper)\n"
        "def bench():\n"
        "    start = time.perf_counter()\n"
        "    return time.perf_counter() - start\n",
    )
    assert findings == []


def test_pragma_suppresses_only_its_own_rule(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import time\n"
        "import json\n"
        "\n"
        "# repro: allow(D2, reason=bench helper)\n"
        "def bench(record):\n"
        "    start = time.perf_counter()\n"
        "    return json.dumps(record), start\n",
    )
    assert [(finding.rule, finding.line) for finding in findings] == [("D5", 7)]


def test_same_line_pragma(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import time\n"
        "T = time.time()  # repro: allow(D2, reason=module bootstrap stamp)\n",
    )
    assert findings == []


def test_pragma_without_reason_is_a_finding_and_suppresses_nothing(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import time\n"
        "T = time.time()  # repro: allow(D2)\n",
    )
    assert sorted(finding.rule for finding in findings) == ["D2", "P1"]


# --------------------------------------------------------------------------
# Repo gate
# --------------------------------------------------------------------------

def test_repo_is_lint_clean():
    findings = lint_repo(REPO_ROOT)
    assert findings == [], "\n".join(finding.render() for finding in findings)


def test_cli_check_exits_zero_on_a_clean_tree(tmp_path, capsys):
    good = tmp_path / "src" / "good.py"
    good.parent.mkdir(parents=True)
    good.write_text("from repro.util.rng import make_rng\nx = make_rng(0).random()\n")

    assert lint_main(["--check"], root=tmp_path) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_check_exits_one_and_names_the_d1_finding(tmp_path, capsys):
    bad = tmp_path / "src" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n")

    assert lint_main(["--check"], root=tmp_path) == 1
    out = capsys.readouterr().out
    assert "src/bad.py:2:D1" in out


# --------------------------------------------------------------------------
# Runtime sanitizer
# --------------------------------------------------------------------------

def test_guard_raises_on_wall_clock():
    with guard():
        with pytest.raises(DeterminismViolation):
            time.time()
        with pytest.raises(DeterminismViolation):
            time.perf_counter()


def test_guard_raises_on_global_rng():
    with guard():
        with pytest.raises(DeterminismViolation):
            random.random()  # repro: allow(D1, reason=proves the sanitizer blocks exactly this call)
        with pytest.raises(DeterminismViolation):
            random.shuffle([1, 2, 3])  # repro: allow(D1, reason=proves the sanitizer blocks exactly this call)


def test_guard_keeps_the_deterministic_doors_open():
    with guard():
        rng = make_rng(7)
        assert 0.0 <= rng.random() < 1.0  # seeded instances keep working
        assert wall_perf_counter() > 0.0  # the audited measurement door
        assert wall_time() > 0.0
        assert time.monotonic() > 0.0  # stdlib pool machinery depends on it


def test_guard_nests_and_restores():
    original_time = time.time
    with guard():
        with guard():
            assert sanitizer.guard_active()
        # Inner exit must not unpatch while the outer guard is live.
        with pytest.raises(DeterminismViolation):
            time.time()
    assert not sanitizer.guard_active()
    assert time.time is original_time
    assert time.time() > 0.0


def test_violation_message_names_the_call_and_the_remedy():
    with guard():
        with pytest.raises(DeterminismViolation, match=r"time\.time\(\).*wallclock"):
            time.time()
        with pytest.raises(DeterminismViolation, match=r"random\.choice\(\).*make_rng"):
            random.choice([1, 2])  # repro: allow(D1, reason=proves the sanitizer blocks exactly this call)
