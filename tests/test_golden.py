"""The desk's outputs keep their bytes.

Every golden file under ``tests/data/golden/`` is written again through
``cli.main`` (``regen_golden.generate``): ``verify`` and ``norm`` reports,
prospector archives and summaries, and the stdout of their replay.  Every
command must exit with its golden code.  On a host whose numpy version and
active SIMD targets match ``fingerprint.json`` each new file must equal the
golden one byte for byte.  On every host (numpy's dispatch changes the last
bits of some reductions elsewhere) each file must have the golden line
count, keys, verdicts, strings and integers, with every float within the
band of the report's tolerances (the library's defaults when the command
takes none).
"""

import json
import math
import re

import pytest

from regen_golden import FILES, GOLDEN, fingerprint, generate
from symcone.majorization import DEFAULT_ATOL, DEFAULT_RTOL


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    return out, generate(out)


def _assert_close(new, old, atol: float, rtol: float, where: str) -> None:
    if isinstance(old, float) and isinstance(new, float):
        band = atol + rtol * max(abs(old), abs(new))
        assert new == old or abs(new - old) <= band, f"{where}: {new!r} vs {old!r}"
    elif isinstance(old, dict) and isinstance(new, dict):
        assert new.keys() == old.keys(), where
        for key in old:
            _assert_close(new[key], old[key], atol, rtol, f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        assert len(new) == len(old), where
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_close(a, b, atol, rtol, f"{where}[{i}]")
    else:
        assert type(new) is type(old) and new == old, f"{where}: {new!r} vs {old!r}"


def _token(text: str):
    """A word of a CSV or stdout line as an int, a float or a string."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(name: str, text: str):
    """A golden file as values: a JSON report, a list of archive records, or
    lines of words (split at commas and whitespace, the separators kept)."""
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    return [[_token(w) for w in re.split(r"([,\s]+)", line)] for line in text.splitlines()]


def test_exit_codes_match_golden(regenerated):
    _, codes = regenerated
    assert codes == json.loads((GOLDEN / "exit-codes.json").read_text())


@pytest.mark.parametrize("name", FILES)
def test_report_matches_golden(regenerated, name):
    out, _ = regenerated
    golden_text = (GOLDEN / name).read_text()
    new_text = (out / name).read_text()
    if fingerprint() == json.loads((GOLDEN / "fingerprint.json").read_text()):
        assert new_text == golden_text
    golden = _parse(name, golden_text)
    config = golden.get("config", {}) if isinstance(golden, dict) else {}
    _assert_close(_parse(name, new_text), golden, config.get("atol", DEFAULT_ATOL),
                  config.get("rtol", DEFAULT_RTOL), name)


def test_band_comparison_sees_a_moved_verdict_and_a_moved_float():
    golden = json.loads((GOLDEN / "verify-sym4.json").read_text())
    moved = json.loads(json.dumps(golden))
    moved["reports"][0]["pass"] = not moved["reports"][0]["pass"]
    with pytest.raises(AssertionError):
        _assert_close(moved, golden, DEFAULT_ATOL, DEFAULT_RTOL, "verify")
    slack = golden["reports"][0]["worst_slack"]
    assert math.isfinite(slack)
    moved = json.loads(json.dumps(golden))
    moved["reports"][0]["worst_slack"] = slack + 2 * (DEFAULT_ATOL + DEFAULT_RTOL * abs(slack))
    with pytest.raises(AssertionError):
        _assert_close(moved, golden, DEFAULT_ATOL, DEFAULT_RTOL, "verify")
    nudged = json.loads(json.dumps(golden))
    nudged["reports"][0]["worst_slack"] = math.nextafter(slack, math.inf)
    _assert_close(nudged, golden, DEFAULT_ATOL, DEFAULT_RTOL, "verify")


@pytest.mark.parametrize("name,old,new", [
    ("zero-diag-sym3.jsonl", '"verdict": "violated"', '"verdict": "holds"'),
    ("zero-diag-sym3.csv", ",20,20,", ",20,21,"),
    ("replay-zero-diag-sym3.stdout", "replayed 20 records", "replayed 21 records"),
])
def test_band_comparison_sees_a_lost_line_and_a_changed_word(name, old, new):
    text = (GOLDEN / name).read_text()
    golden = _parse(name, text)
    _assert_close(_parse(name, text), golden, DEFAULT_ATOL, DEFAULT_RTOL, name)
    lost = "".join(text.splitlines(keepends=True)[:-1])
    changed = text.replace(old, new, 1)
    assert changed != text
    for moved in (lost, changed):
        with pytest.raises(AssertionError):
            _assert_close(_parse(name, moved), golden, DEFAULT_ATOL, DEFAULT_RTOL, name)
