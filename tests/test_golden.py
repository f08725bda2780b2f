"""The desk's ``verify`` and ``norm`` reports keep their bytes.

Every golden report under ``tests/data/golden/`` is written again through
``cli.main`` (``regen_golden.generate``).  On a host whose numpy version and
active SIMD targets match ``fingerprint.json`` the new report must equal the
golden one byte for byte.  Elsewhere the bits may differ (numpy's dispatch
changes the last bits of some reductions), so the report must have the
golden exit code and the same keys, verdicts, strings and integers, with
every float within the band of the report's tolerances (the library's
defaults when the command takes none).
"""

import json
import math

import pytest

from regen_golden import COMMANDS, GOLDEN, fingerprint, generate
from symcone.majorization import DEFAULT_ATOL, DEFAULT_RTOL

NAMES = [name for name, _ in COMMANDS]


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


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(regenerated, name):
    out, codes = regenerated
    golden_text = (GOLDEN / name).read_text()
    golden = json.loads(golden_text)
    # verify exits 1 when a check fails; a norm that writes a report exits 0
    assert codes[name] == (0 if golden.get("pass", True) else 1)
    new_text = (out / name).read_text()
    if fingerprint() == json.loads((GOLDEN / "fingerprint.json").read_text()):
        assert new_text == golden_text
    else:
        config = golden["config"]
        _assert_close(json.loads(new_text), golden, config.get("atol", DEFAULT_ATOL),
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
